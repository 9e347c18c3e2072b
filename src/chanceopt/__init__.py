"""Chance optimization over semialgebraic sets via moment SDP relaxations."""

__version__ = "0.1.0"

from .alcc import (
    OperatorNorm,
    OuterRecord,
    SolverParams,
    SolverTrace,
    alcc_solve,
    apg_inner,
    aug_lagrangian_grad,
    operator_norm,
)
from .conic import ConicProgram, PsdBlock, SimpleSet, svec, unsvec
from .errors import (
    ChanceOptError,
    DimensionError,
    ModelError,
    NumericalError,
    OrderError,
    ProblemFormatError,
    ResourceError,
)
from .mc import McConfig, estimate_probability, grid_search
from .measures import (
    Beta,
    DistributionSpec,
    ExplicitMoments,
    Uniform,
    joint_moment,
    moment_vector,
    product_lift,
    sample,
    univariate_moment,
)
from .moments import (
    CHEBYSHEV,
    MONOMIAL,
    MomentVector,
    basis_values,
    chebyshev_transform,
    riesz,
    terms_matrix,
)
from .poly import (
    Polynomial,
    basis_size,
    grevlex_compare,
    monomial_rank,
    monomial_unrank,
)
from .pipeline import RunReport, run_pipeline
from .problem_io import RunOptions, emit_document, parse, write_problem
from .relaxation import (
    ChanceProblem,
    DecodedSolution,
    RefinementDecode,
    ScaledProblem,
    add_ball_certificate,
    build_chance_sdp,
    build_refinement_sdp,
    decode,
    min_relaxation_order,
    scale_problem,
    substitute_decision,
)
