"""First-order augmented Lagrangian solver for the conic programs.

Outer iterations minimize the augmented Lagrangian

    L(x; nu, theta) = c.x / nu + d(A(x) - b - theta)^2 / 2

inexactly over the simple set, where d is the distance to the product of
PSD cones, then update the dual and grow the penalty geometrically
(nu_k = beta^k nu_0).  The inner solver is an accelerated projected
gradient loop with momentum coefficients t_{l+1} = (1 + sqrt(1+4 t_l^2))/2,
step 1/L with L = sigma_max(A)^2 (the objective is linear), and two exits:
a step-size test certifying a small subgradient, or the iteration budget
l_max = k^(1+c) beta^k B sqrt(2 nu_0 L / alpha_0) capped by a configured
bound.  The PSD cone is self-dual, so one eigendecomposition per block
serves both the primal distance and the dual projection.

The gradient of the smooth part lives in one place,
``aug_lagrangian_grad``, which the inner loop calls; the PSD projection
is ``ConicProgram.project_dual``.  On small programs an inner iteration
costs more in numpy call overhead than in arithmetic, so the loop
reuses its buffers: the gradient array becomes the gradient step and
then the projected step, and the extrapolated point is rewritten in
place.  Each operation and its order are those of the plain formulas,
so the iterates are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .conic import ConicProgram
from .errors import DimensionError, NumericalError


@dataclass(frozen=True)
class SolverParams:
    """Schedule and stopping parameters.

    ``nu0`` is the initial penalty (worth tuning per problem); ``beta`` the
    geometric growth factor; ``c`` the schedule exponent offset; ``alpha0``
    the inner inexactness scale; ``tol`` the outer relative-change stop.
    """

    nu0: float = 1.0
    beta: float = 3.0
    c: float = 0.5
    alpha0: float = 1.0
    tol: float = 1e-3
    max_outer: int = 30
    max_inner_cap: int = 20000
    seed: int = 0

    def __post_init__(self):
        for name in ("nu0", "beta", "c", "alpha0", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.nu0 <= 0:
            raise ValueError("nu0 must be positive")
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.max_inner_cap < 1:
            raise ValueError("max_inner_cap must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class OuterRecord:
    k: int
    nu: float
    inner_iters: int
    residual: float
    objective: float
    dual_norm: float
    inner_stop: str
    cap_limited: bool


@dataclass
class SolverTrace:
    records: list
    x: np.ndarray
    theta: np.ndarray
    status: str                      # converged | stalled | max_outer
    sigma_max: float
    sigma_converged: bool
    lanes: int = 1                   # threads that shared the PSD projection

    @property
    def outer_iterations(self) -> int:
        return len(self.records)

    @property
    def total_inner_iterations(self) -> int:
        return sum(r.inner_iters for r in self.records)

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else float("nan")

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective if self.records else float("nan")


class OperatorNorm(NamedTuple):
    sigma: float
    converged: bool
    iterations: int


def operator_norm(program: ConicProgram, tol: float = 1e-4, max_iter: int = 2000,
                  seed: int = 0) -> OperatorNorm:
    """Largest singular value of the stacked block operator, by power iteration."""
    A = program.operator
    if A.nnz == 0:
        return OperatorNorm(0.0, True, 0)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for it in range(1, max_iter + 1):
        w = A @ v
        sigma_new = float(np.linalg.norm(w))
        v = program.adjoint(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return OperatorNorm(0.0, True, it)
        v /= nv
        if sigma_new > 0 and abs(sigma_new - sigma) <= tol * sigma_new:
            return OperatorNorm(sigma_new, True, it)
        sigma = sigma_new
    return OperatorNorm(sigma, False, max_iter)


def aug_lagrangian_grad(program: ConicProgram, x: np.ndarray, c_over_nu: np.ndarray,
                        theta_b: np.ndarray) -> np.ndarray:
    """Gradient of the smooth augmented Lagrangian part at ``x``.

    ``c_over_nu`` is c/nu and ``theta_b`` is theta + b.  By the cone
    identity z - proj(z) = -proj(-z), one projection of theta + b - A(x)
    gives the gradient  c/nu - A*(proj(theta + b - A(x))).
    """
    s = theta_b - program.operator @ x          # equals -(A(x) - b - theta)
    return c_over_nu - program.adjoint(program.project_dual(s))


def apg_inner(program: ConicProgram, start: np.ndarray, nu: float,
              theta: np.ndarray, L: float, eta_over_nu: float,
              ell_max: float) -> tuple[np.ndarray, int, str]:
    """Accelerated projected-gradient loop for one outer iteration.

    Stops when the projected step is at most eta_over_nu / (2 L), which
    certifies a subgradient of norm at most eta/nu, or when the iteration
    budget runs out.
    """
    c_over_nu = program.objective / nu
    theta_b = theta + program.constants
    project = program.simple_set.project
    threshold = eta_over_nu / (2.0 * L)

    x_prev = start.copy()      # x_{l-1}^{(1)}
    x2 = start.copy()          # extrapolated point, rewritten in place
    t = 1.0
    ell = 0
    while True:
        ell += 1
        step = aug_lagrangian_grad(program, x2, c_over_nu, theta_b)
        step /= L
        x1 = project(np.subtract(x2, step, out=step))
        np.subtract(x1, x2, out=step)
        if math.sqrt(step.dot(step)) <= threshold:    # the 2-norm, as np.linalg.norm
            return x1, ell, "step_small"
        if ell > ell_max:
            return x1, ell, "iter_cap"
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        np.subtract(x1, x_prev, out=x2)
        x2 *= (t - 1.0) / t_next
        x2 += x1
        x_prev = x1
        t = t_next


def alcc_solve(program: ConicProgram, params: SolverParams = SolverParams(),
               x0: Optional[np.ndarray] = None) -> SolverTrace:
    """Run the full outer/inner scheme on a conic program.

    ``x0`` is the starting point (projected onto the simple set); by
    default the projection of the origin.  Status is ``converged`` when
    the relative-change stop fires with a small feasibility residual,
    ``stalled`` when it fires while still noticeably infeasible, and
    ``max_outer`` when the iteration budget is exhausted first.  The PSD
    projections run in the program's ``lanes`` for the whole solve.
    """
    x0 = np.zeros(program.num_scalars) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (program.num_scalars,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({program.num_scalars},)")
    with program.lanes() as lanes:
        norm_info = operator_norm(program, seed=params.seed)
        sigma = norm_info.sigma
        L = sigma * sigma if sigma > 0 else 1.0     # objective is linear: L_gamma = 0
        B = program.simple_set.diameter()

        c = program.objective
        b = program.constants
        x = program.simple_set.project(x0)
        theta = np.zeros(len(b))

        # eta_0 from the initial composite gradient, dual started at zero
        grad0 = aug_lagrangian_grad(program, x, c / params.nu0, b)
        eta0 = 0.5 * params.nu0 * float(np.linalg.norm(grad0))
        if eta0 == 0.0:
            eta0 = 1.0

        records = []
        status = "max_outer"
        resid_scale = 1.0 + float(np.linalg.norm(b))
        for k in range(1, params.max_outer + 1):
            nu_k = params.beta**k * params.nu0
            decay = k ** (2.0 * (1.0 + params.c)) * params.beta**k
            eta_k = eta0 / decay
            ell_exact = k ** (1.0 + params.c) * params.beta**k * B * np.sqrt(
                2.0 * params.nu0 * L / params.alpha0
            )
            cap_limited = ell_exact > params.max_inner_cap
            ell_max = min(ell_exact, float(params.max_inner_cap))

            x_new, inner, reason = apg_inner(
                program, x, nu_k, theta, L, eta_k / nu_k, ell_max
            )
            if not np.all(np.isfinite(x_new)):
                trace = SolverTrace(records, x, theta, "numerical_error", sigma,
                                    norm_info.converged, lanes)
                err = NumericalError(f"non-finite iterate at outer iteration {k}")
                err.trace = trace
                raise err

            residual = program.cone_distance(x_new)
            records.append(OuterRecord(
                k=k, nu=nu_k, inner_iters=inner, residual=residual,
                objective=float(c @ x_new), dual_norm=float(np.linalg.norm(theta)),
                inner_stop=reason, cap_limited=cap_limited,
            ))

            nu_next = params.beta ** (k + 1) * params.nu0
            theta = (nu_k / nu_next) * program.project_dual(
                theta + b - program.apply(x_new)
            )

            rel_change = float(np.linalg.norm(x_new - x)) / (1.0 + float(np.linalg.norm(x)))
            x = x_new
            if rel_change <= params.tol:
                status = "converged" if residual <= 1e-3 * resid_scale else "stalled"
                break

    return SolverTrace(records, x, theta, status, sigma, norm_info.converged, lanes)
