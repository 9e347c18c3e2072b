"""Problem file parsing and emission.

A problem file is a UTF-8 JSON document::

    {
      "schema": "chanceopt/1",
      "name": "toy",
      "n": 1, "m": 1,
      "decision_box": [[-1.0, 1.0]],
      "distributions": [{"type": "uniform", "params": {"lo": -1.0, "hi": 1.0}}],
      "sets": [[{"exponents": [4, 0], "coeff": -1.0}, ...]],
      "options": { ... }
    }

Exponents list the decision variables first, then the random ones.
Coordinates are written in user units; scaling to the internal box is the
tool's job.  ``options`` may be partial; its keys are the fields of
:class:`RunOptions` (``solver`` and ``mc`` nest ``SolverParams`` and
``McConfig``), and the dataclasses, not the parser, decide which values are
valid, for file values and CLI flags alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .alcc import SolverParams
from .errors import ProblemFormatError
from .mc import McConfig
from .measures import Beta, DistributionSpec, ExplicitMoments, Uniform
from .moments import BASES, MONOMIAL
from .poly import Polynomial, grevlex_key
from .relaxation import REFINE_MODES, ChanceProblem

SCHEMA = "chanceopt/1"


@dataclass(frozen=True)
class RunOptions:
    """Pipeline settings; file values are defaults, CLI flags override."""

    order: int = 0                  # 0 means "use the minimum admissible order"
    omega_r: float = 0.01
    basis: str = MONOMIAL
    refine_mode: str = "product"
    refine_index: int | None = None  # 0-based, for refine_mode == "single"
    solver: SolverParams = field(default_factory=SolverParams)
    mc: McConfig = field(default_factory=McConfig)

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if not math.isfinite(self.omega_r):
            raise ValueError("omega_r must be finite")
        if self.omega_r < 0:
            raise ValueError("omega_r must be nonnegative")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        if self.refine_mode not in REFINE_MODES:
            raise ValueError(f"refine_mode must be one of {REFINE_MODES}")
        if (self.refine_index is None) == (self.refine_mode == "single"):
            raise ValueError("refine_index is set exactly when refine_mode is single")


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise ProblemFormatError(message, path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num(value, message: str, path: str) -> float:
    _expect(isinstance(value, float) or _is_int(value), message, path)
    v = float(value)
    _expect(np.isfinite(v), f"{message} (must be finite)", path)
    return v


def _parse_distribution(entry, path: str):
    _expect(isinstance(entry, dict), "distribution entry must be an object", path)
    kind = entry.get("type")
    params = entry.get("params", {})
    _expect(isinstance(params, dict), "params must be an object", f"{path}.params")
    if kind == "uniform":
        lo = _num(params.get("lo"), "uniform needs numeric lo", f"{path}.params.lo")
        hi = _num(params.get("hi"), "uniform needs numeric hi", f"{path}.params.hi")
        _expect(lo < hi, f"uniform needs lo < hi, got [{lo}, {hi}]", f"{path}.params")
        return Uniform(lo, hi)
    if kind == "beta":
        a = _num(params.get("alpha"), "beta needs numeric alpha", f"{path}.params.alpha")
        b = _num(params.get("beta"), "beta needs numeric beta", f"{path}.params.beta")
        _expect(a > 0 and b > 0, "beta shape parameters must be positive", f"{path}.params")
        return Beta(a, b)
    if kind == "moments":
        vals = params.get("values")
        _expect(isinstance(vals, list) and len(vals) >= 1,
                "moments needs a nonempty values list", f"{path}.params.values")
        vals = [_num(v, "moment must be numeric", f"{path}.params.values[{i}]")
                for i, v in enumerate(vals)]
        _expect(vals[0] == 1.0, "moment list must start with total mass 1",
                f"{path}.params.values[0]")
        _expect(all(abs(v) <= 1.0 for v in vals),
                "moments of a measure on [-1,1] must lie in [-1,1]",
                f"{path}.params.values")
        return ExplicitMoments(tuple(vals))
    raise ProblemFormatError(
        f"unsupported distribution type {kind!r} (expected uniform, beta, or moments)",
        f"{path}.type",
    )


def _parse_polynomial(entry, num_vars: int, path: str) -> Polynomial:
    _expect(isinstance(entry, list) and len(entry) >= 1,
            "polynomial must be a nonempty list of term records", path)
    terms = {}
    for t, rec in enumerate(entry):
        tpath = f"{path}[{t}]"
        _expect(isinstance(rec, dict), "term must be an object", tpath)
        exps = rec.get("exponents")
        _expect(isinstance(exps, list), "term needs an exponents list", f"{tpath}.exponents")
        _expect(len(exps) == num_vars,
                f"exponent list has length {len(exps)}, expected {num_vars} "
                f"(decision variables first, then random ones)",
                f"{tpath}.exponents")
        for i, e in enumerate(exps):
            _expect(_is_int(e) and e >= 0,
                    f"exponent entries must be nonnegative integers, got {e!r}",
                    f"{tpath}.exponents[{i}]")
        coeff = _num(rec.get("coeff"), "term needs a numeric coeff", f"{tpath}.coeff")
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial(num_vars, terms)


def parse_refine_mode(text: str, path: str = "$.options.refine_mode"):
    """Split an indicator/product/single:<j> mode string (j is 0-based)."""
    if text in ("indicator", "product"):
        return text, None
    if text.startswith("single:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError:
            raise ProblemFormatError(
                f"bad single index in refine mode {text!r}", path)
        _expect(idx >= 0, "single index must be >= 0", path)
        return "single", idx
    raise ProblemFormatError(
        f"unknown refine mode {text!r} (expected indicator, product, or single:<j>)",
        path,
    )


def check_refine_index(problem: ChanceProblem, index: int | None, path: str) -> None:
    """Reject a ``single:<j>`` index that some set has no polynomial for."""
    if index is None:
        return
    for k, s in enumerate(problem.sets):
        _expect(index < len(s), f"single index {index} out of range: set {k} "
                f"has {len(s)} polynomial(s)", path)


def _parse_fields(cls, entry, path: str):
    """Build the options dataclass ``cls`` from ``entry``, checking each
    value's JSON type against the field default's (``solver``, ``mc`` recurse)."""
    _expect(isinstance(entry, dict), "options must be an object", path)
    default = cls()
    known = {f.name for f in fields(cls)} - {"refine_index"}
    unknown = set(entry) - known
    _expect(not unknown, f"unknown option(s) {sorted(unknown)}", path)
    kwargs = {}
    for key, value in entry.items():
        like, kpath = getattr(default, key), f"{path}.{key}"
        if is_dataclass(like):
            value = _parse_fields(type(like), value, kpath)
        elif isinstance(like, float):
            value = _num(value, f"{key} must be numeric", kpath)
        else:  # int or str; a bool is not an int here
            _expect(type(value) is type(like), f"{key} must be a JSON "
                    f"{'integer' if isinstance(like, int) else 'string'}", kpath)
        kwargs[key] = value
    if "refine_mode" in kwargs:
        kwargs["refine_mode"], kwargs["refine_index"] = parse_refine_mode(
            kwargs["refine_mode"], f"{path}.refine_mode")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), path)


def parse_document(doc) -> tuple[ChanceProblem, RunOptions]:
    """Validate a decoded JSON document into a problem plus options."""
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    _expect(doc.get("schema") == SCHEMA,
            f"missing or unsupported schema tag (expected {SCHEMA!r})", "$.schema")
    name = doc.get("name", "problem")
    _expect(isinstance(name, str) and name, "name must be a nonempty string", "$.name")
    n, m = doc.get("n"), doc.get("m")
    _expect(_is_int(n) and n >= 1, "n must be a positive integer", "$.n")
    _expect(_is_int(m) and m >= 1, "m must be a positive integer", "$.m")

    box = doc.get("decision_box")
    _expect(isinstance(box, list) and len(box) == n,
            f"decision_box must list {n} intervals", "$.decision_box")
    parsed_box = []
    for i, pair in enumerate(box):
        p = f"$.decision_box[{i}]"
        _expect(isinstance(pair, list) and len(pair) == 2, "interval must be [lo, hi]", p)
        lo = _num(pair[0], "lo must be numeric", p)
        hi = _num(pair[1], "hi must be numeric", p)
        _expect(lo < hi, f"need lo < hi, got [{lo}, {hi}]", p)
        parsed_box.append((lo, hi))

    dists = doc.get("distributions")
    _expect(isinstance(dists, list) and len(dists) == m,
            f"distributions must list {m} entries", "$.distributions")
    coords = tuple(
        _parse_distribution(d, f"$.distributions[{i}]") for i, d in enumerate(dists)
    )

    sets = doc.get("sets")
    _expect(isinstance(sets, list) and len(sets) >= 1,
            "sets must be a nonempty list", "$.sets")
    parsed_sets = []
    for k, s in enumerate(sets):
        _expect(isinstance(s, list) and len(s) >= 1,
                "each set needs at least one polynomial", f"$.sets[{k}]")
        parsed_sets.append(tuple(
            _parse_polynomial(pjson, n + m, f"$.sets[{k}][{j}]")
            for j, pjson in enumerate(s)
        ))

    options = _parse_fields(RunOptions, doc.get("options", {}), "$.options")
    problem = ChanceProblem(
        name=name, n=n, m=m, sets=tuple(parsed_sets),
        dist=DistributionSpec(coords), decision_box=tuple(parsed_box),
    )
    check_refine_index(problem, options.refine_index, "$.options.refine_mode")
    return problem, options


def parse(path) -> tuple[ChanceProblem, RunOptions]:
    """Read and validate a problem file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}", "$")
    return parse_document(doc)


def _emit_distribution(dist) -> dict:
    if isinstance(dist, Uniform):
        return {"type": "uniform", "params": {"lo": dist.lo, "hi": dist.hi}}
    if isinstance(dist, Beta):
        return {"type": "beta", "params": {"alpha": dist.alpha, "beta": dist.beta}}
    return {"type": "moments", "params": {"values": list(dist.values)}}


def emit_options(options: RunOptions) -> dict:
    """The file form of ``options``, every field written out."""
    doc = asdict(options)
    index = doc.pop("refine_index")
    if index is not None:
        doc["refine_mode"] = f"single:{index}"
    return doc


def _emit_polynomial(p: Polynomial) -> list:
    return [
        {"exponents": list(alpha), "coeff": coef}
        for alpha, coef in sorted(p.terms.items(), key=lambda kv: grevlex_key(kv[0]))
    ]


def emit_document(problem: ChanceProblem, options: RunOptions | None = None) -> dict:
    """Serialize a problem (and options) into the file format."""
    doc = {
        "schema": SCHEMA,
        "name": problem.name,
        "n": problem.n,
        "m": problem.m,
        "decision_box": [[lo, hi] for lo, hi in problem.decision_box],
        "distributions": [_emit_distribution(d) for d in problem.dist.coords],
        "sets": [[_emit_polynomial(p) for p in s] for s in problem.sets],
    }
    if options is not None:
        doc["options"] = emit_options(options)
    return doc


def write_problem(problem: ChanceProblem, path, options: RunOptions | None = None):
    doc = emit_document(problem, options)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                          encoding="utf-8")
    return path
