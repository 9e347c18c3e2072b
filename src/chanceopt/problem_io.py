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
``McConfig``).  ``refine_mode`` is ``indicator``, ``product`` or
``single:<j>`` (``j`` a 0-based polynomial index every set must have).

The parser checks only the document's shape and JSON types.  Which values
are valid is decided by the types that own them: the marginals
(``Uniform``, ``Beta``, ``ExplicitMoments``), ``ChanceProblem`` and the
options dataclasses.  :func:`set_option` is the one path by which a file
value or a CLI flag reaches :class:`RunOptions`; it names where an invalid
value came from.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .alcc import SolverParams
from .errors import ModelError, ProblemFormatError
from .mc import McConfig
from .measures import Beta, DistributionSpec, ExplicitMoments, Uniform
from .moments import BASES, MONOMIAL
from .poly import Polynomial, grevlex_key
from .relaxation import ChanceProblem

SCHEMA = "chanceopt/1"


@dataclass(frozen=True)
class RunOptions:
    """Pipeline settings; file values are defaults, CLI flags override."""

    order: int = 0                  # 0 means "use the minimum admissible order"
    omega_r: float = 0.01
    basis: str = MONOMIAL
    refine_mode: str = "product"    # indicator | product | single:<j>, j 0-based
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
        if self.refine_mode.startswith("single:"):
            try:
                index = int(self.refine_mode[len("single:"):])
            except ValueError:
                index = -1
            if index < 0:
                raise ValueError(f"refine_mode {self.refine_mode!r} needs an integer "
                                 f"index >= 0 after single:")
            object.__setattr__(self, "refine_mode", f"single:{index}")
        elif self.refine_mode not in ("indicator", "product"):
            raise ValueError(f"unknown refine_mode {self.refine_mode!r} "
                             f"(expected indicator, product, or single:<j>)")

    @property
    def refine(self) -> tuple[str, int | None]:
        """``refine_mode`` as the refinement builder's mode and weight index."""
        mode, _, index = self.refine_mode.partition(":")
        return mode, int(index) if index else None


def set_option(options: RunOptions, section: str | None, name: str, value,
               where: str) -> RunOptions:
    """``options`` with field ``name`` of itself, or of its ``solver`` or
    ``mc`` ``section``, set to ``value``; an invalid value is a format error
    at ``where``, the JSON path or the flag it came from."""
    try:
        if section is None:
            return replace(options, **{name: value})
        part = replace(getattr(options, section), **{name: value})
        return replace(options, **{section: part})
    except ValueError as exc:
        raise ProblemFormatError(str(exc), where) from None


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
    """The marginal an entry describes; the marginal's type checks its values."""
    _expect(isinstance(entry, dict), "distribution entry must be an object", path)
    kind = entry.get("type")
    params, ppath = entry.get("params", {}), f"{path}.params"
    _expect(isinstance(params, dict), "params must be an object", ppath)
    try:
        if kind == "uniform":
            return Uniform(_num(params.get("lo"), "uniform needs numeric lo", f"{ppath}.lo"),
                           _num(params.get("hi"), "uniform needs numeric hi", f"{ppath}.hi"))
        if kind == "beta":
            return Beta(
                _num(params.get("alpha"), "beta needs numeric alpha", f"{ppath}.alpha"),
                _num(params.get("beta"), "beta needs numeric beta", f"{ppath}.beta"))
        if kind == "moments":
            vals = params.get("values")
            _expect(isinstance(vals, list), "moments needs a values list", f"{ppath}.values")
            return ExplicitMoments(tuple(
                _num(v, "moment must be numeric", f"{ppath}.values[{i}]")
                for i, v in enumerate(vals)))
    except ModelError as exc:
        raise ProblemFormatError(str(exc), ppath) from None
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


def check_refine_index(problem: ChanceProblem, index: int | None, path: str) -> None:
    """Reject a ``single:<j>`` index that some set has no polynomial for."""
    if index is None:
        return
    for k, s in enumerate(problem.sets):
        _expect(index < len(s), f"single index {index} out of range: set {k} "
                f"has {len(s)} polynomial(s)", path)


def _parse_fields(options: RunOptions, section: str | None, entry, path: str):
    """``options`` with the values of ``entry``, each checked against its
    field default's JSON type (``solver`` and ``mc`` recurse as sections)."""
    like = options if section is None else getattr(options, section)
    _expect(isinstance(entry, dict), "options must be an object", path)
    unknown = set(entry) - {f.name for f in fields(like)}
    _expect(not unknown, f"unknown option(s) {sorted(unknown)}", path)
    for key, value in entry.items():
        default, kpath = getattr(like, key), f"{path}.{key}"
        if is_dataclass(default):
            options = _parse_fields(options, key, value, kpath)
            continue
        if isinstance(default, float):
            value = _num(value, f"{key} must be numeric", kpath)
        else:  # int or str; a bool is not an int here
            _expect(type(value) is type(default), f"{key} must be a JSON "
                    f"{'integer' if isinstance(default, int) else 'string'}", kpath)
        options = set_option(options, section, key, value, path)
    return options


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
        parsed_box.append((_num(pair[0], "lo must be numeric", p),
                           _num(pair[1], "hi must be numeric", p)))

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

    options = _parse_fields(RunOptions(), None, doc.get("options", {}), "$.options")
    try:
        problem = ChanceProblem(
            name=name, n=n, m=m, sets=tuple(parsed_sets),
            dist=DistributionSpec(coords), decision_box=tuple(parsed_box),
        )
    except ModelError as exc:   # the entry the problem's own rule turned away
        raise ProblemFormatError(str(exc), f"$.{exc.field}" if exc.field else "$") from None
    check_refine_index(problem, options.refine[1], "$.options.refine_mode")
    return problem, options


def parse(path) -> tuple[ChanceProblem, RunOptions]:
    """Read and validate a problem file.

    A file that cannot be read (a directory, say, or bytes that are not
    UTF-8) is a format error at ``$`` naming the path, like bad JSON.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc.strerror or exc}", "$")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                                 f"{exc.start}", "$")
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
        doc["options"] = asdict(options)
    return doc


def write_problem(problem: ChanceProblem, path, options: RunOptions | None = None):
    doc = emit_document(problem, options)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                          encoding="utf-8")
    return path
