"""Bundled example problems.

Constructors build each instance programmatically (the control example
expands its closed-loop dynamics by polynomial composition); matching
JSON files ship under ``problems/`` and a test pins the two against each
other.  ``load_bundled(name)`` parses the shipped file.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .alcc import SolverParams
from .errors import ProblemFormatError
from .measures import Beta, DistributionSpec, Uniform
from .poly import Polynomial
from .problem_io import RunOptions, parse_document, write_problem
from .relaxation import ChanceProblem

def _vars(total: int):
    return [Polynomial.coordinate(total, i) for i in range(total)]


def example1_toy() -> tuple[ChanceProblem, RunOptions]:
    """One decision, one uniform parameter, a single quartic constraint."""
    x, q = _vars(2)
    shifted = x - 0.5
    p = 0.5 * q * (q**2 + shifted**2) - (q**4 + q**2 * shifted**2 + shifted**4)
    problem = ChanceProblem(
        name="example1_toy", n=1, m=1, sets=((p,),),
        dist=DistributionSpec((Uniform(-1.0, 1.0),)),
        decision_box=((-1.0, 1.0),),
    )
    options = RunOptions(order=2, solver=SolverParams(nu0=1.0, tol=1e-4, max_outer=14))
    return problem, options


def example1_pair() -> tuple[ChanceProblem, RunOptions]:
    """One decision, one uniform parameter, two quadratic constraints."""
    x, q = _vars(2)
    p1 = 0.1275 + 0.7 * x - x**2 - q**2
    p2 = -0.1225 + 0.7 * x + q - x**2 - q**2
    problem = ChanceProblem(
        name="example1_pair", n=1, m=1, sets=((p1, p2),),
        dist=DistributionSpec((Uniform(-1.0, 1.0),)),
        decision_box=((-1.0, 1.0),),
    )
    options = RunOptions(order=2, solver=SolverParams(nu0=1.0, tol=1e-4, max_outer=14))
    return problem, options


def example1_5d() -> tuple[ChanceProblem, RunOptions]:
    """Five decisions, five uniform parameters, one quadratic constraint."""
    v = _vars(10)
    x1, x2, x3, x4, x5, q1, q2, q3, q4, q5 = v
    p = (
        0.185 + 0.5 * x1 - 0.5 * x2 + x3 - x4
        + 0.5 * q1 - 0.5 * q2 + q3 - q4
        - x1**2 - 2 * x1 * q1 - x2**2 - 2 * x2 * q2
        - x3**2 - 2 * x3 * q3 - x4**2 - 2 * x4 * q4
        - x5**2 + 2 * x5 * q5
        - q1**2 - q2**2 - q3**2 - q4**2 - q5**2
    )
    problem = ChanceProblem(
        name="example1_5d", n=5, m=5, sets=((p,),),
        dist=DistributionSpec((
            Uniform(-1.0, 0.0), Uniform(0.0, 1.0), Uniform(-0.5, 1.0),
            Uniform(-1.0, 0.5), Uniform(0.0, 1.0),
        )),
        decision_box=tuple((-1.0, 1.0) for _ in range(5)),
    )
    options = RunOptions(order=1, solver=SolverParams(nu0=1.0, tol=1e-4, max_outer=16))
    return problem, options


def example2_union() -> tuple[ChanceProblem, RunOptions]:
    """Union of two sets over five decisions and five uniform parameters."""
    v = _vars(10)
    x1, x2, x3, x4, x5, q1, q2, q3, q4, q5 = v
    p1 = (
        -0.263 + 0.4 * x1 - 0.4 * x2 + 0.8 * x3 - 0.8 * x4 + 1.2 * x5
        + 0.1 * q1 + 0.08 * q2 + 0.04 * q3 + 0.4 * q4 + 0.6 * q5
        - x1**2 - x2**2 - x3**2 - x4**2 - x5**2
        - 0.5 * q1**2 - 0.4 * q2**2 - 0.1 * q3**2 - q4**2 - q5**2
    )
    p2 = (
        -2.06 + 0.4 * x1 - 0.8 * x2 + 3.2 * x3 - 1.6 * x4 + 3.6 * x5
        - 0.4 * q1 - 0.4 * q2 - 0.2 * q3 - 0.2 * q4 - 0.8 * q5
        - x1**2 - 2 * x2**2 - 4 * x3**2 - 2 * x4**2 - 3 * x5**2
        - q1**2 - q2**2 - q3**2 - q4**2 - q5**2
    )
    problem = ChanceProblem(
        name="example2_union", n=5, m=5, sets=((p1,), (p2,)),
        dist=DistributionSpec(tuple(Uniform(-0.5, 0.5) for _ in range(5))),
        decision_box=tuple((-1.0, 1.0) for _ in range(5)),
    )
    options = RunOptions(order=1, solver=SolverParams(nu0=1.0, tol=1e-4, max_outer=16))
    return problem, options


def example3_portfolio() -> tuple[ChanceProblem, RunOptions]:
    """Maximize the chance a four-asset portfolio beats a 1.5 return.

    Weights are nonnegative, sum to at most one; returns are 1 + q_1,
    1 + q_2, 0.9 + q_3, 0.9 + q_4 with beta and uniform rates.  The
    compactness certificate is added automatically by the builder, so
    the file lists only the six structural constraints.
    """
    v = _vars(8)
    xs, qs = v[:4], v[4:]
    rates = [1.0 + qs[0], 1.0 + qs[1], 0.9 + qs[2], 0.9 + qs[3]]
    polys = list(xs)                                  # x_i >= 0
    polys.append(1.0 - sum(xs[1:], xs[0]))            # sum x_i <= 1
    ret = rates[0] * xs[0]
    for r, w in zip(rates[1:], xs[1:]):
        ret = ret + r * w
    polys.append(ret - 1.5)                           # return target
    root2 = 2.0**0.5
    problem = ChanceProblem(
        name="example3_portfolio", n=4, m=4, sets=(tuple(polys),),
        dist=DistributionSpec((
            Beta(3.0 - root2, 3.0 + root2), Beta(4.0, 4.0),
            Beta(3.0 + root2, 3.0 - root2), Uniform(0.5, 1.0),
        )),
        decision_box=tuple((0.0, 1.0) for _ in range(4)),
    )
    options = RunOptions(order=1, solver=SolverParams(nu0=1e-2, tol=1e-4, max_outer=16))
    return problem, options


def _control_state_after_two_steps() -> list[Polynomial]:
    """Closed-loop state x(2) in terms of gains and uncertain start.

    Variables: K1, K2, K3 (decision), then x1(0), x2(0), x3(0), Delta.
    The one-step map is composed with itself; gains pass through unchanged.
    """
    total = 7
    k1, k2, k3, s1, s2, s3, delta = _vars(total)

    def step(state):
        u = k1 * state[0] + k2 * state[1] + k3 * state[2]
        return [
            delta * state[1],
            state[0] * state[2],
            1.2 * state[0] - 0.5 * state[1] + state[2] + u,
        ]

    return step(step([s1, s2, s3]))


def example4_control() -> tuple[ChanceProblem, RunOptions]:
    """Pick feedback gains driving an uncertain system into a small cube.

    The target is |x_i(2)| <= 0.1 for each state coordinate after two
    steps, so the set has six polynomial inequalities in the three gains
    and four uncertain quantities (initial state and model parameter).
    """
    state2 = _control_state_after_two_steps()
    polys = []
    for comp in state2:
        polys.append(0.1 - comp)
        polys.append(comp + 0.1)
    problem = ChanceProblem(
        name="example4_control", n=3, m=4, sets=(tuple(polys),),
        dist=DistributionSpec((
            Uniform(-1.0, 1.0), Uniform(-1.0, 1.0), Uniform(-1.0, 1.0),
            Uniform(-0.4, 0.4),
        )),
        decision_box=tuple((-1.0, 1.0) for _ in range(3)),
    )
    options = RunOptions(order=2, solver=SolverParams(nu0=5e-3, tol=1e-3, max_outer=16))
    return problem, options


def make_scaling_problem(size: int) -> tuple[ChanceProblem, RunOptions]:
    """Family used to study run-time scaling: 0.81 - |x - q|^2 >= 0.

    One set, matched decision/random dimensions, uniform parameters on
    [-1, 1]; the best decision is x = 0 for every size.
    """
    if size < 1:
        raise ValueError("size must be positive")
    total = 2 * size
    v = _vars(total)
    p = Polynomial.constant(total, 0.81)
    for i in range(size):
        diff = v[i] - v[size + i]
        p = p - diff * diff
    problem = ChanceProblem(
        name=f"example5_scaling_n{size}" if size != 5 else "example5_scaling",
        n=size, m=size, sets=((p,),),
        dist=DistributionSpec(tuple(Uniform(-1.0, 1.0) for _ in range(size))),
        decision_box=tuple((-1.0, 1.0) for _ in range(size)),
    )
    options = RunOptions(order=1, solver=SolverParams(nu0=1.0, tol=1e-4, max_outer=16))
    return problem, options


def example5_scaling() -> tuple[ChanceProblem, RunOptions]:
    return make_scaling_problem(5)


CONSTRUCTORS = {
    "example1_toy": example1_toy,
    "example1_pair": example1_pair,
    "example1_5d": example1_5d,
    "example2_union": example2_union,
    "example3_portfolio": example3_portfolio,
    "example4_control": example4_control,
    "example5_scaling": example5_scaling,
}
BUNDLED = tuple(CONSTRUCTORS)


def bundled_path(name: str):
    if name not in BUNDLED:
        raise ProblemFormatError(f"no bundled problem {name!r}; "
                                 f"available: {', '.join(BUNDLED)}")
    return resources.files("chanceopt").joinpath(f"problems/{name}.json")


def load_bundled(name: str) -> tuple[ChanceProblem, RunOptions]:
    doc = json.loads(bundled_path(name).read_text(encoding="utf-8"))
    return parse_document(doc)


def write_bundled_files(directory) -> list:
    """Regenerate the shipped JSON files from the constructors."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, ctor in CONSTRUCTORS.items():
        problem, options = ctor()
        written.append(write_problem(problem, directory / f"{name}.json", options))
    return written


if __name__ == "__main__":  # regenerate the bundled files in place
    here = Path(__file__).parent / "problems"
    for p in write_bundled_files(here):
        print(p)
