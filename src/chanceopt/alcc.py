"""Augmented Lagrangian solver for the conic programs.

Outer iterations minimize the augmented Lagrangian

    L(x; nu, theta) = c.x / nu + d(A(x) - b - theta)^2 / 2

inexactly over the simple set, where d is the distance to the product of
PSD cones, then update the dual and grow the penalty geometrically
(nu_k = beta^k nu_0).  Each outer's inner problem goes to one of two
inner solvers, which share the stop test and the budget:

- ``newton_inner``, for programs of at most ``_NEWTON_MAX_SCALARS``
  scalars: projected semismooth Newton steps on the generalized Hessian
  ``sum_b A_b^T J_b A_b`` of the PSD projection's derivative, formed
  densely (``ConicProgram.newton_matrix``) and solved by Cholesky, with a
  projected-gradient step where a Newton step is rejected or the
  factorization fails.
- ``apg_inner``, for every larger program: an accelerated projected
  gradient loop with momentum t_{l+1} = (1 + sqrt(1+4 t_l^2))/2 and step
  1/L, L = sigma^2 from the power iteration (the objective is linear).

The size rule was measured: at and below 153 scalars (union order 1) a
Newton solve was faster than APG on every bundled program, from 4x to
100x, and ended closer to its dual bound; union order 2 (2,128 scalars) is
bound by dense 66x66 eigendecompositions either way and stays on APG, bit
for bit.  Both inner solvers count one inner iteration per projection and
stop when the projected step is at most eta_k / (2 L nu_k), or when the
budget l_max = k^(1+c) beta^k B sqrt(2 nu_0 L / alpha_0), capped by a
configured bound, is spent.  Newton has one more stop, ``floor``, for a
projected step already at rounding level: in late outers the step test's
threshold falls below what rounding lets any step reach.  The PSD cone is
self-dual, so one eigendecomposition per block serves both the primal
distance and the dual projection.

The gradient of the smooth part lives in one place,
``ConicProgram.gradient``, which both inner loops call: one pass that
applies the operator, projects onto the PSD blocks and applies the
adjoint; its eigenpairs stay readable for the Newton system.  The
per-outer residual and dual update use the PSD projection
``ConicProgram.project_dual``.  On small programs a Newton step costs
more in numpy call overhead than in arithmetic, so it factors and solves
its system through LAPACK's gufuncs, the private numpy names that
``np.linalg.cholesky`` and ``np.linalg.solve`` wrap, as the projection
calls ``eigh``'s, and copies the free part of the system without
``np.ix_``.  Each operation and its order are those of the plain
formulas, so the iterates are the same bits.

``alcc_steps`` yields each outer's ``OuterState``: record, iterate and
``Z = nu_k proj(theta + b - A(x))``, the PSD dual of the objective; it
takes the inner solver as an argument, and both solvers return their
Newton steps with the point (None from APG).  ``alcc_solve`` picks the
solver by size and stops the outers on the relative change of x, an APG
solve at once and a Newton solve once its residual and its certified
gap c.x - g(Z) (``dual_bound``) are small too, as its x can stop moving
an outer before its dual settles.  It keeps the last Z as
``SolverTrace.dual``; the rescaled theta never leaves this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .conic import ConicProgram, one_blas_thread
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
    inner_stop: str
    cap_limited: bool
    newton_steps: int = 0       # accepted Newton steps of the inner solve


@dataclass
class SolverTrace:
    records: list
    x: np.ndarray
    dual: np.ndarray                 # the last outer's Z, the PSD dual of the objective
    status: str                      # converged | stalled | max_outer | numerical_error
    sigma_max: float
    sigma_converged: bool
    lanes: int = 1                   # threads that shared the PSD projection
    inner_solver: str = "apg"        # apg | newton

    @property
    def outer_iterations(self) -> int:
        return len(self.records)

    @property
    def newton_steps(self) -> int:
        return sum(r.newton_steps for r in self.records)

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


def apg_inner(program: ConicProgram, start: np.ndarray, nu: float,
              theta: np.ndarray, L: float, eta_over_nu: float,
              ell_max: float) -> tuple[np.ndarray, int, str, None]:
    """Accelerated projected-gradient loop for one outer iteration.

    Stops when the projected step is at most eta_over_nu / (2 L)
    (``step_small``), or when the iteration budget runs out
    (``iter_cap``).  The step test would bound a subgradient's norm by
    eta/nu if L were at least |A|^2; the power iteration's sigma^2 comes
    from below and can fall short of it, so it does not certify that.
    Returns (point, inner iterations, stop, None): a first-order loop
    takes no Newton steps.
    """
    c_over_nu = program.objective / nu
    theta_b = theta + program.constants
    gradient, project = program.gradient, program.simple_set.project
    threshold = eta_over_nu / (2.0 * L)

    x_prev = y = start         # x_{l-1}^{(1)} and the extrapolated point
    t = 1.0
    ell = 0
    while True:
        ell += 1
        x1 = project(y - gradient(y, c_over_nu, theta_b) / L)
        step = x1 - y
        if math.sqrt(step.dot(step)) <= threshold:    # the 2-norm, as np.linalg.norm
            return x1, ell, "step_small", None
        if ell > ell_max:
            return x1, ell, "iter_cap", None
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x1 + (t - 1.0) / t_next * (x1 - x_prev)
        x_prev = x1
        t = t_next


# Programs of at most this many scalars take Newton inner solves: the largest
# bundled size (union order 1) where Newton was no slower than APG, as on
# every smaller program measured
_NEWTON_MAX_SCALARS = 153
# fraction of the first-order decrease a Newton step must achieve (Armijo)
_ARMIJO = 1e-4
# a projected step of at most this many rounding units of |x| cannot shrink further
_FLOOR_ULPS = 64.0
# The Newton system is regularized by kappa |g_free| on its diagonal; kappa
# starts at 1, shrinks 4x after an accepted step (down to 1e-6) and grows
# 4x after a rejected one, so steps where the Hessian is nearly singular
# (along the linear objective, where no block is active) stay short
_KAPPA0, _KAPPA_FACTOR, _KAPPA_MIN = 1.0, 4.0, 1e-6
# the LAPACK calls behind np.linalg.cholesky and np.linalg.solve (one
# right-hand side), which on a 20-scalar system cost half of the wrappers
_cholesky = _umath_linalg.cholesky_lo
_solve = _umath_linalg.solve1


def newton_inner(program: ConicProgram, start: np.ndarray, nu: float,
                 theta: np.ndarray, L: float, eta_over_nu: float,
                 ell_max: float) -> tuple[np.ndarray, int, str, int]:
    """Projected semismooth Newton loop for one outer iteration.

    Minimizes ``phi(x) = c.x / nu + |proj(theta + b - A x)|^2 / 2`` over
    the simple set.  Each evaluation of phi and its gradient is one
    ``ConicProgram.gradient`` pass, phi read from the clipped eigenvalues,
    and counts as one inner iteration.  At x the coordinates pinned, or at
    a bound with the gradient pointing out of the box, stay put (Bertsekas'
    projected Newton); on the free ones the step solves
    ``(H + kappa |g| I) d = -g`` by Cholesky, with H the generalized Hessian
    ``ConicProgram.newton_matrix`` at x, through LAPACK's gufuncs as the
    projection is.  The trial point ``proj(x + d)`` is accepted on the
    projected Armijo test or when its projected step is 10% shorter;
    otherwise, or when the factorization fails (its factor is NaN), the
    loop takes one projected-gradient step of length 1/L from x.  With no
    coordinate free the step is empty, and accepted.

    The stops are ``apg_inner``'s: the projected step ``proj(x - g/L) - x``
    at most eta_over_nu / (2 L) (``step_small``) or the budget spent
    (``iter_cap``), and one more, ``floor``, when that step is already at
    rounding level, at most 64 eps (1 + |x|), and no step can shorten it.
    Once the step test holds the loop tries one more Newton step, which
    costs one projection and near a solution gains digits (Newton
    converges fast there, the test is loose when nu is small): the loop
    returns after it if it is accepted, else at once.  Returns, as
    ``apg_inner`` does, the projected-gradient point ``proj(x - g/L)``, the
    inner iterations and the stop, and then the accepted Newton steps.
    """
    c_over_nu = program.objective / nu
    theta_b = theta + program.constants
    threshold = eta_over_nu / (2.0 * L)
    gradient, project = program.gradient, program.simple_set.project
    lo, hi = program.simple_set.bounds
    pinned = lo == hi
    floor = _FLOOR_ULPS * np.finfo(float).eps

    def evaluate(x):
        """(gradient, phi, projected-gradient point, its step length) at x."""
        g = gradient(x, c_over_nu, theta_b)
        x1 = project(x - g / L)
        step = x1 - x
        phi = float(c_over_nu @ x) + 0.5 * program.projected_norm2()
        return g, phi, x1, math.sqrt(step.dot(step))

    # OpenBLAS's threads only slow the small dense products, and would make
    # the bits depend on the CPUs: toy order 4 (54 scalars) took 0.71 s with
    # two threads and 0.11 s with one
    with one_blas_thread():
        x = start
        g, phi, x1, r = evaluate(x)
        ell, steps, kappa = 1, 0, _KAPPA0
        polished = False       # x was reached by a Newton step taken once the test held
        while True:
            met = r <= threshold
            if met and polished:
                return x1, ell, "step_small", steps
            if not met and r <= floor * (1.0 + math.sqrt(x.dot(x))):
                return x1, ell, "floor", steps
            if ell > ell_max:
                return x1, ell, "iter_cap", steps
            free = np.flatnonzero(~(pinned | ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))))
            hess, gf = program.newton_matrix()[free[:, None], free], g[free]
            hess.flat[::len(gf) + 1] += kappa * math.sqrt(gf.dot(gf))
            # LAPACK fills a failed factor with NaN and raises the invalid flag
            with np.errstate(invalid="ignore"):
                chol = _cholesky(hess, signature="d->d")
            if np.isfinite(chol).all():
                d = np.zeros_like(x)
                d[free] = -_solve(chol.T, _solve(chol, gf, signature="dd->d"), signature="dd->d")
                trial = project(x + d)
                gt, phit, xt1, rt = evaluate(trial)
                ell += 1
                if phit <= phi + _ARMIJO * float(g @ (trial - x)) or rt <= 0.9 * r:
                    x, g, phi, x1, r = trial, gt, phit, xt1, rt
                    steps += 1
                    kappa = max(kappa / _KAPPA_FACTOR, _KAPPA_MIN)
                    polished = met
                    continue
            if met:
                return x1, ell, "step_small", steps
            kappa *= _KAPPA_FACTOR
            x = x1
            g, phi, x1, r = evaluate(x)
            ell += 1


def inner_solver(program: ConicProgram) -> Callable:
    """``newton_inner`` for programs of at most ``_NEWTON_MAX_SCALARS`` scalars,
    else ``apg_inner``, looked up when called."""
    return newton_inner if program.num_scalars <= _NEWTON_MAX_SCALARS else apg_inner


def dual_bound(program: ConicProgram, z: np.ndarray) -> float:
    """g(Z) = <Z, b> + sum_i min(r_i l_i, r_i u_i) with r = c - A^T Z.

    A lower bound on min c.x over the program for every PSD Z: the
    Lagrangian's PSD term is nonnegative and its box term is minimized
    coordinate by coordinate, at r_i l_i where r_i > 0, r_i u_i where
    r_i < 0 and 0 where r_i = 0, also when that coordinate's bound is
    infinite.
    """
    lo, hi = program.simple_set.bounds
    r = program.objective - program.adjoint(z)
    bound = np.where(r > 0.0, lo, np.where(r < 0.0, hi, 0.0))    # 0 * inf would be NaN
    return float(z @ program.constants + (r * bound).sum())


class OuterState(NamedTuple):
    record: OuterRecord
    x: np.ndarray
    dual: np.ndarray     # Z = nu_k proj(theta + b - A(x)), the PSD dual of the objective


def alcc_steps(program: ConicProgram, params: SolverParams, x: np.ndarray,
               sigma: float, inner: Optional[Callable] = None) -> Iterator[OuterState]:
    """Yield the state after each outer iteration, at most ``params.max_outer``.

    ``x`` is the start point, a point of the simple set, and ``sigma`` the
    operator norm.  ``inner`` solves each outer's inner problem, with
    ``apg_inner``'s signature and return value; by default it is
    ``inner_solver(program)``.  The fourth value it returns is its Newton
    steps, or None from a first-order solver: only a first-order outer
    reports ``cap_limited``, as only its budget is the first-order bound
    l_max.  Projections run in lanes only inside ``program.lanes()``, with
    the same bits.  Raises ``NumericalError`` on a non-finite iterate.
    """
    inner = inner_solver(program) if inner is None else inner
    L = sigma * sigma if sigma > 0 else 1.0     # objective is linear: L_gamma = 0
    B = program.simple_set.diameter()
    c, b = program.objective, program.constants
    theta = np.zeros(len(b))

    # eta_0 from the initial composite gradient, dual started at zero
    grad0 = program.gradient(x, c / params.nu0, b)
    eta0 = 0.5 * params.nu0 * float(np.linalg.norm(grad0))
    if eta0 == 0.0:
        eta0 = 1.0

    for k in range(1, params.max_outer + 1):
        nu_k = params.beta**k * params.nu0
        decay = k ** (2.0 * (1.0 + params.c)) * params.beta**k
        eta_k = eta0 / decay
        ell_exact = k ** (1.0 + params.c) * params.beta**k * B * np.sqrt(
            2.0 * params.nu0 * L / params.alpha0
        )
        ell_max = min(ell_exact, float(params.max_inner_cap))

        args = (program, x, nu_k, theta, L, eta_k / nu_k, ell_max)
        x, inner_iters, reason, newton_steps = inner(*args)
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite iterate at outer iteration {k}")
        record = OuterRecord(
            k=k, nu=nu_k, inner_iters=inner_iters, residual=program.cone_distance(x),
            objective=float(c @ x), inner_stop=reason,
            cap_limited=newton_steps is None and ell_exact > params.max_inner_cap,
            newton_steps=newton_steps or 0,
        )

        # theta is kept as proj(.) scaled by nu_k / nu_{k+1} for the next outer
        proj = program.project_dual(theta + b - program.apply(x))
        theta = (nu_k / (params.beta ** (k + 1) * params.nu0)) * proj
        yield OuterState(record, x, nu_k * proj)


def alcc_solve(program: ConicProgram, params: SolverParams = SolverParams(),
               x0: Optional[np.ndarray] = None) -> SolverTrace:
    """Run the full outer/inner scheme on a conic program.

    ``x0`` is the starting point (projected onto the simple set); by
    default the projection of the origin.  The outers stop when the
    relative change of x is at most ``tol``.  An APG solve then ends
    ``converged`` with a small feasibility residual and ``stalled`` while
    still noticeably infeasible.  A Newton solve stops there only with a
    small residual and a certified gap |c.x - g(Z)| of at most
    ``tol (1 + |c.x|)``, and then ends ``converged``: its x can sit at a
    vertex of the box for a few outers while theta grows and the next
    penalty moves it, and it can stop moving one outer before the dual
    settles.  Status is ``max_outer`` when the budget of outers runs out
    first.  The PSD projections run in the program's ``lanes`` for the
    whole solve.  A ``NumericalError`` carries the trace so far as
    ``.trace``.
    """
    x0 = np.zeros(program.num_scalars) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (program.num_scalars,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({program.num_scalars},)")
    inner = inner_solver(program)
    newton = inner is newton_inner
    with program.lanes() as lanes:
        norm_info = operator_norm(program, seed=params.seed)
        trace = SolverTrace([], program.simple_set.project(x0), np.zeros(len(program.constants)),
                            "max_outer", norm_info.sigma, norm_info.converged, lanes,
                            "newton" if newton else "apg")
        resid_scale = 1.0 + float(np.linalg.norm(program.constants))
        try:
            for state in alcc_steps(program, params, trace.x, norm_info.sigma, inner):
                trace.records.append(state.record)
                x = trace.x
                rel_change = float(np.linalg.norm(state.x - x)) / (1.0 + float(np.linalg.norm(x)))
                trace.x, trace.dual = state.x, state.dual
                if rel_change > params.tol:
                    continue
                small = state.record.residual <= 1e-3 * resid_scale
                if not newton:
                    trace.status = "converged" if small else "stalled"
                    break
                objective = state.record.objective
                gap = abs(objective - dual_bound(program, state.dual))
                if small and gap <= params.tol * (1.0 + abs(objective)):
                    trace.status = "converged"
                    break
        except NumericalError as err:
            trace.status = "numerical_error"
            err.trace = trace
            raise
    return trace
