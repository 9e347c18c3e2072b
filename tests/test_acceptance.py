"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria pin their own
solver budgets; every tolerance is written out explicitly.
"""

import time

import numpy as np
import pytest
from scipy import integrate, special

import util
from chanceopt import problems
from chanceopt.alcc import SolverParams, alcc_solve
from chanceopt.mc import McConfig, estimate_probability, grid_search
from chanceopt.measures import (
    Beta,
    DistributionSpec,
    ExplicitMoments,
    Uniform,
    univariate_moment,
)
from chanceopt.moments import MomentVector
from chanceopt.poly import (
    basis_size,
    encode_exponents,
    exponent_array,
    exponents,
    lookup_ranks,
)
from chanceopt.relaxation import (
    ChanceProblem,
    build_chance_sdp,
    build_refinement_sdp,
    decode,
    scale_problem,
)


def _gate(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {verdict} — {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


# -- 1: structural variable counts -------------------------------------------

def test_criterion_1_structural_counts():
    cases = [
        ("example1_5d", [(1, 87), (2, 1127)]),
        ("example2_union", [(1, 153), (2, 2128), (3, 16478)]),
        ("example3_portfolio", [(1, 60), (2, 565), (3, 3213)]),
        ("example4_control", [(2, 365), (3, 1800), (4, 6600)]),
    ]
    seen = []
    for name, pairs in cases:
        problem, _ = problems.CONSTRUCTORS[name]()
        scaled = scale_problem(problem)
        for order, expected in pairs:
            t0 = time.perf_counter()
            program = build_chance_sdp(scaled, order)
            dt = time.perf_counter() - t0
            ok = program.num_scalars == expected and dt < 1.0
            seen.append((name, order, program.num_scalars, expected, dt, ok))
    bad = [s for s in seen if not s[-1]]
    _gate(1, not bad,
          f"{len(seen)} builds match the published variable counts, "
          f"each under 1 s" if not bad else f"mismatches: {bad}")


# -- 2: single-set quartic instance at order 2 --------------------------------

def test_criterion_2_toy_order_two():
    t0 = time.perf_counter()
    program = build_chance_sdp(util.toy_problem(), 2, omega_r=0.01)
    trace = alcc_solve(program, SolverParams(nu0=1.0, tol=1e-4, max_outer=14,
                                             max_inner_cap=6000))
    sol = decode(program, trace.x)
    elapsed = time.perf_counter() - t0
    ok = (abs(sol.probability - 0.66) <= 0.05
          and abs(sol.x[0] - 0.5) <= 0.1
          and elapsed < 60.0)
    _gate(2, ok, f"p_sdp={sol.probability:.4f} (target 0.66±0.05), "
                 f"x={sol.x[0]:.4f} (target 0.5±0.1), {elapsed:.0f}s (<60s)")


# -- 3: hierarchy trend and weighted refinement -------------------------------

def test_criterion_3_hierarchy_trend():
    t0 = time.perf_counter()
    params = SolverParams(nu0=1.0, tol=1e-4, max_outer=14, max_inner_cap=6000)
    problem = util.toy_problem()
    values = {}
    x_last = None
    for order in range(2, 7):
        program = build_chance_sdp(problem, order, omega_r=0.01)
        trace = alcc_solve(program, params)
        sol = decode(program, trace.x)
        values[order] = sol.probability
        x_last = sol.x_scaled
    refine = build_refinement_sdp(problem, x_last, 6, mode="product")
    ref_trace = alcc_solve(refine, SolverParams(nu0=1.0, tol=1e-5,
                                                max_outer=14, max_inner_cap=6000))
    p_tilde = decode(refine, ref_trace.x).mass
    elapsed = time.perf_counter() - t0

    series = [values[d] for d in range(2, 7)]
    monotone = all(b <= a + 1e-3 for a, b in zip(series[:-1], series[1:]))
    floor = all(v >= 0.23 for v in series)
    closer = abs(p_tilde - 0.25) < abs(values[6] - 0.25)
    ok = monotone and floor and closer and elapsed < 600.0
    _gate(3, ok,
          "p_sdp by order: " + ", ".join(f"{d}:{values[d]:.4f}" for d in range(2, 7))
          + f"; weighted refinement at order 6: {p_tilde:.4f} "
          f"(|{p_tilde:.3f}-0.25| < |{values[6]:.3f}-0.25|), {elapsed:.0f}s (<600s)")


# -- 4: Monte Carlo oracle -----------------------------------------------------

def test_criterion_4_monte_carlo_oracle():
    problem = util.toy_problem()
    est, half = estimate_probability(problem, [0.5],
                                     McConfig(samples=100_000, seed=20260810))
    point_ok = abs(est - 0.25) <= 0.01
    x_star, p_star = grid_search(problem, McConfig(samples=500_000,
                                                   grid_points=41,
                                                   seed=20260810))
    grid_ok = abs(x_star[0] - 0.5) <= 0.025
    _gate(4, point_ok and grid_ok,
          f"estimate at 0.5: {est:.4f}±{half:.4f} (target 0.25±0.01); "
          f"grid argmax {x_star[0]:.3f} (target 0.5±0.025, p*={p_star:.4f})")


# -- 5: closed-form moments ----------------------------------------------------

def test_criterion_5_closed_form_moments():
    sym = [univariate_moment(Uniform(-1.0, 1.0), k) for k in range(5)]
    exact_ok = sym == [1.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0]

    worst = 0.0
    dists = [Uniform(-1.0, 1.0), Uniform(-1.0, 0.0), Uniform(-0.5, 1.0),
             Uniform(0.5, 1.0), Beta(4.0, 4.0), Beta(3.0 - 2**0.5, 3.0 + 2**0.5),
             Beta(1.5, 0.8)]
    for dist in dists:
        for k in range(9):
            if isinstance(dist, Uniform):
                width = dist.hi - dist.lo
                ref, _ = integrate.quad(lambda t: t**k / width, dist.lo, dist.hi,
                                        epsabs=1e-13, epsrel=1e-13)
            else:
                norm = special.beta(dist.alpha, dist.beta)
                ref, _ = integrate.quad(
                    lambda t, a=dist.alpha, b=dist.beta:
                        t**k * t ** (a - 1) * (1 - t) ** (b - 1) / norm,
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
            worst = max(worst, abs(univariate_moment(dist, k) - ref))
    # explicit moment lists pass through verbatim
    stored = tuple(univariate_moment(Uniform(-1, 1), k) for k in range(9))
    explicit = ExplicitMoments(stored)
    passthrough_ok = all(univariate_moment(explicit, k) == stored[k]
                         for k in range(9))
    ok = exact_ok and worst <= 1e-10 and passthrough_ok
    _gate(5, ok, f"symmetric uniform moments exact; worst quadrature gap "
                 f"{worst:.2e} (<=1e-10) over {len(dists)} distributions, k<=8")


# -- 6: Chebyshev formulation agreement ----------------------------------------

def test_criterion_6_chebyshev_agreement():
    problem = util.toy_problem()
    params = SolverParams(nu0=1.0, tol=1e-5, max_outer=14, max_inner_cap=6000)
    decoded = {}
    for basis in ("monomial", "chebyshev"):
        program = build_chance_sdp(problem, 2, omega_r=0.01, basis=basis)
        trace = alcc_solve(program, params)
        decoded[basis] = decode(program, trace.x).x[0]
    gap = abs(decoded["monomial"] - decoded["chebyshev"])

    worst_eig = 0.0
    for x_val in (0.5, -0.2, 0.8):
        for basis in ("monomial", "chebyshev"):
            program = build_chance_sdp(problem, 2, basis=basis)
            vec = util.toy_feasible_point(program, x_val)
            for mat in util.block_values(program, vec):
                worst_eig = min(worst_eig, float(np.linalg.eigvalsh(mat)[0]))
    ok = gap <= 0.02 and worst_eig >= -1e-8
    _gate(6, ok, f"decoded decisions {decoded['monomial']:.4f} / "
                 f"{decoded['chebyshev']:.4f} agree to {gap:.4f} (<=0.02); "
                 f"measure-backed vectors feasible in both bases "
                 f"(min eig {worst_eig:.1e} >= -1e-8)")


# -- 7: solver correctness on planted instances --------------------------------

def test_criterion_7_planted_conic_programs():
    rng = np.random.default_rng(20260810)
    params = SolverParams(nu0=1.0, tol=1e-8, max_outer=22, max_inner_cap=3000)
    worst = {"obj": 0.0, "resid": 0.0, "comp": 0.0, "gap": 0.0, "above": -np.inf}
    for _ in range(10):
        program, x_star, opt = util.planted_program(rng)
        trace = alcc_solve(program, params)
        worst["obj"] = max(worst["obj"],
                           abs(trace.final_objective - opt) / (1 + abs(opt)))
        worst["resid"] = max(worst["resid"], trace.final_residual)
        comp = abs(float(trace.dual @ (program.apply(trace.x) - program.constants)))
        worst["comp"] = max(worst["comp"], comp / (1 + abs(opt)))
        # complementarity holds at any scale of the dual; its weak-duality
        # bound g(Z) <= opt checks the size too
        bound = util.dual_bound(program, trace.dual)
        worst["gap"] = max(worst["gap"], (opt - bound) / (1 + abs(opt)))
        worst["above"] = max(worst["above"], bound - opt)
    ok = (worst["obj"] <= 1e-3 and worst["resid"] <= 1e-4
          and worst["comp"] <= 1e-3 and worst["above"] <= 1e-9
          and worst["gap"] <= 1e-4)
    _gate(7, ok, f"10 planted programs: worst relative objective error "
                 f"{worst['obj']:.2e} (<=1e-3), residual {worst['resid']:.2e} "
                 f"(<=1e-4), complementarity {worst['comp']:.2e} (<=1e-3), "
                 f"dual bound gap {worst['gap']:.2e} (<=1e-4) with g - opt at most "
                 f"{worst['above']:.1e} (<=1e-9)")


# -- 8: five-variable instance at order 1 ---------------------------------------

def test_criterion_8_five_dim_order_one():
    # What order 1 certifies about the published decision t.  Completing the
    # squares, P = 0.81 - |u - c|^2 with u = (x1+q1, x2+q2, x3+q3, x4+q4,
    # x5-q5) and c = (0.25, -0.25, 0.5, -0.5, 0): the set is a ball of radius
    # 0.9 in u, and t puts E[u] = c, centring it on the box law (MC 0.75).
    # At order 1 the localizer of P is the scalar L(P) >= 0, and the
    # pseudo-moments may shrink every second moment, so every decision with
    # |x - t| <= 0.9 gets mass 1: the relaxation value is exactly 1 and does
    # not single out t.  With omega_r > 0 the objective omega_r*trace - mass
    # is uniquely minimised at the minimum-trace point of that ball,
    # t*(1 - 0.9/|t|) ~ 0.265*t (MC 0.16), which is what decode reports;
    # it is printed for information only.  So the gate checks that the solve
    # reaches value 1, that the point mass at t times the law is a feasible
    # vector of that value (t is an order-1 optimal decision), that the same
    # construction at -t (2.45 from t, outside the ball) is rejected, and
    # that MC confirms t.  The companion test below shows order 2 recovers t.
    target = np.array([0.75, -0.75, 0.25, -0.25, 0.5])
    problem, _ = problems.example1_5d()
    t0 = time.perf_counter()
    program = build_chance_sdp(scale_problem(problem), 1, omega_r=0.01)
    trace = alcc_solve(program, SolverParams(nu0=1.0, tol=1e-2, max_outer=30))
    sol = decode(program, trace.x)

    def min_eig(vec):
        return min(float(np.linalg.eigvalsh(mat)[0])
                   for mat in util.block_values(program, vec))

    cert = util.dirac_law_point(program, target)
    control = util.dirac_law_point(program, -target)
    cert_eig, control_eig = min_eig(cert), min_eig(control)
    cert_mass = decode(program, cert).probability
    in_box = bool(np.all(cert >= program.simple_set.lower)
                  and np.all(cert <= program.simple_set.upper))
    est, half = estimate_probability(problem, target,
                                     McConfig(samples=100_000, seed=20260810))
    elapsed = time.perf_counter() - t0
    ok = (trace.status == "converged"
          and sol.probability >= 1.0 - 1e-3
          and cert_eig >= -1e-8 and in_box
          and abs(cert_mass - sol.probability) <= 1e-3
          and control_eig < -1e-8
          and est >= 0.70 and sol.probability >= est
          and elapsed < 300.0)
    _gate(8, ok, f"{trace.status}, p_sdp={sol.probability:.4f} (need >=0.999); "
                 f"point mass at {target.tolist()}: min eig {cert_eig:.1e} "
                 f"(need >=-1e-8), mass {cert_mass:.4f}; control at -t: "
                 f"min eig {control_eig:.3f} (need <-1e-8); estimate at t: "
                 f"{est:.4f}±{half:.4f} (need >=0.70, <=p_sdp); decoded "
                 f"x={np.round(sol.x, 3).tolist()} (information only); "
                 f"{elapsed:.0f}s (<300s)")


def test_context_five_dim_order_two_recovers_decision():
    # Not an acceptance criterion: shows the published decision IS recovered
    # one order up (order 2, plain mass objective, box-corner start).
    target = np.array([0.75, -0.75, 0.25, -0.25, 0.5])
    problem, _ = problems.example1_5d()
    program = build_chance_sdp(scale_problem(problem), 2, omega_r=0.0)
    params = SolverParams(nu0=5e-2, tol=1e-3, max_outer=12, max_inner_cap=3000)
    trace = alcc_solve(program, params, x0=np.ones(program.num_scalars))
    sol = decode(program, trace.x)
    est, _ = estimate_probability(problem, sol.x,
                                  McConfig(samples=100_000, seed=20260810))
    dist = float(np.max(np.abs(sol.x - target)))
    print(f"\n(context) order 2: x={np.round(sol.x, 3).tolist()}, "
          f"max gap {dist:.3f}, estimate {est:.4f}", flush=True)
    assert dist <= 0.15
    assert est >= 0.70


# -- 9: property suites ----------------------------------------------------------

def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # PSD necessity for genuine product measures
    for coords in [(Uniform(-1, 1), Beta(2, 3)), (Beta(4, 4), Uniform(-0.5, 1))]:
        from chanceopt.measures import moment_vector
        spec = DistributionSpec(coords)
        for d in (1, 2, 3):
            y = moment_vector(spec, 2 * d)
            assert np.linalg.eigvalsh(util.moment_matrix(y, d))[0] >= -1e-8

    # moment bound under a PSD moment matrix
    from chanceopt.measures import moment_vector
    spec = DistributionSpec((Uniform(-1, 1), Beta(3, 2)))
    for d in (1, 2):
        y = moment_vector(spec, 2 * d)
        bound = max(y.values[0], y[(2 * d, 0)], y[(0, 2 * d)])
        assert np.max(np.abs(y.values)) <= bound + 1e-8

    # projection idempotence, nonexpansiveness, and the cone split
    for _ in range(25):
        a = rng.standard_normal((6, 6))
        s = (a + a.T) / 2
        p1 = util.project_psd(s)
        assert np.max(np.abs(util.project_psd(p1) - p1)) < 1e-12
        b = rng.standard_normal((6, 6))
        s2 = (b + b.T) / 2
        assert (np.linalg.norm(util.project_psd(s) - util.project_psd(s2))
                <= np.linalg.norm(s - s2) + 1e-12)
        minus = util.project_psd(-s)
        assert np.max(np.abs(s - (p1 - minus))) < 1e-8
        assert abs(float(np.sum(p1 * minus))) < 1e-8

    # union counting: duplicated set changes nothing under a shared seed
    toy = util.toy_problem()
    doubled = ChanceProblem(name="dup", n=1, m=1,
                            sets=(toy.sets[0], toy.sets[0]),
                            dist=toy.dist, decision_box=toy.decision_box)
    cfg = McConfig(samples=20_000, seed=5)
    assert estimate_probability(toy, [0.5], cfg) == \
        estimate_probability(doubled, [0.5], cfg)

    # monomial order axioms on random triples, through the sort key, which
    # also matches the literal rule
    exps = [tuple(int(v) for v in rng.integers(0, 4, 3)) for _ in range(40)]
    for a in exps:
        for b in exps:
            assert util.key_compare(a, b) == -util.key_compare(b, a)
            assert util.key_compare(a, b) == util.literal_grevlex_compare(a, b)
    for _ in range(200):
        a, b, c = (exps[i] for i in rng.integers(0, len(exps), 3))
        if util.key_compare(a, b) <= 0 and util.key_compare(b, c) <= 0:
            assert util.key_compare(a, c) <= 0

    # rank bijection: every exponent ranks at its place in the grevlex list
    for n in (1, 2, 5, 10):
        d = 8 if n <= 5 else 4
        codes = encode_exponents(exponent_array(n, d), d + 1)
        assert np.array_equal(lookup_ranks(codes, n, d), np.arange(basis_size(n, d)))

    # product-lift definition replay
    spec2 = DistributionSpec((Uniform(-1, 1), Beta(2, 2)))
    y_x = MomentVector(1, 4, np.concatenate([[1.0], rng.uniform(-1, 1, 4)]))
    lifted = util.lift(y_x, spec2, 4)
    joint = exponents(3, 4)
    for idx in rng.integers(0, len(joint), 20):
        theta = joint[idx]
        alpha, beta = theta[:1], theta[1:]
        assert lifted[theta] == pytest.approx(
            y_x[alpha] * util.joint_moment(spec2, beta), abs=1e-14)

    elapsed = time.perf_counter() - t0
    _gate(9, elapsed < 120.0,
          f"property suites completed in {elapsed:.1f}s (<120s)")
