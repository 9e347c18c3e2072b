"""Chance optimization over semialgebraic sets via moment SDP relaxations.

The top level exports the library API: stating a problem, setting its
options, building, solving, decoding and verifying its relaxations,
running the whole pipeline, and the error types.  Everything else is
imported from its submodule.
"""

__version__ = "0.1.0"

from .alcc import SolverParams, alcc_solve
from .errors import (
    ChanceOptError,
    DimensionError,
    ModelError,
    NumericalError,
    OrderError,
    ProblemFormatError,
    ResourceError,
)
from .mc import McConfig, estimate_probability
from .measures import Beta, DistributionSpec, ExplicitMoments, Uniform
from .poly import Polynomial
from .pipeline import RunReport, run_pipeline
from .problem_io import RunOptions, parse, write_problem
from .relaxation import ChanceProblem, build_chance_sdp, build_refinement_sdp, decode
