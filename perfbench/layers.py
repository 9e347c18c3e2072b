"""Per-layer tracing: which public functions are wrapped, and what the
spans and counts they record add up to.

Every name is wrapped where its caller looks it up, so the package itself
is untouched: module globals for functions imported by name, the class
attribute for methods.
"""

from __future__ import annotations

import os

from spans import SpanRecorder


def install(rec: SpanRecorder, api, captured: dict) -> None:
    """Wrap the layer entry points of ``api`` (the ``chanceopt`` package).

    ``captured`` receives the first chance program built and the first
    solver trace of the traced run, for the decode microbenchmark.
    """
    def on_program(args, kwargs, program):
        rec.count("relaxation.program.scalars", program.num_scalars)
        rec.count("relaxation.program.nnz", sum(b.coeffs.nnz for b in program.blocks))
        captured.setdefault("program", program)

    def on_solve(args, kwargs, trace):
        rec.count("alcc.solves")
        rec.count("alcc.solves_converged", trace.status == "converged")
        rec.count("alcc.outer_iters", trace.outer_iterations)
        rec.count("alcc.inner_iters", trace.total_inner_iterations)
        rec.count("alcc.step_small_stops",
                  sum(r.inner_stop == "step_small" for r in trace.records))
        rec.count("alcc.cap_limited_outer", sum(r.cap_limited for r in trace.records))
        captured.setdefault("x", trace.x)

    def on_norm(args, kwargs, info):
        rec.count("alcc.operator_norm.iters", info.iterations)

    def on_sample(args, kwargs, draws):
        rec.count("measures.sample.draws", draws.shape[0])

    def on_eval(args, kwargs, values):
        rec.count("poly.eval_many.rows", values.shape[0])

    def on_export(args, kwargs, path):
        rec.count("conic.export_text.bytes", os.path.getsize(path))

    wraps = [
        (api.cli, "parse", "problem_io.parse", None),
        (api.pipeline, "build_chance_sdp", "relaxation.build_chance_sdp", on_program),
        (api.pipeline, "build_refinement_sdp", "relaxation.build_refinement_sdp", None),
        (api.pipeline, "decode", "relaxation.decode", None),
        (api.pipeline, "alcc_solve", "alcc.solve", on_solve),
        (api.pipeline, "estimate_probability", "mc.estimate_probability", None),
        (api.pipeline, "grid_search", "mc.grid_search", None),
        (api.relaxation, "moment_block_terms", "moments.moment_block_terms", None),
        (api.relaxation, "localizing_block_terms", "moments.localizing_block_terms", None),
        (api.relaxation, "moment_vector", "measures.moment_vector", None),
        (api.relaxation, "lift_factors", "measures.lift_factors", None),
        (api.mc, "sample", "measures.sample", on_sample),
        (api.alcc, "apg_inner", "alcc.apg_inner", None),
        (api.alcc, "operator_norm", "alcc.operator_norm", on_norm),
        (api.conic.ConicProgram, "project_dual", "conic.project_dual", None),
        (api.conic.SimpleSet, "project", "conic.SimpleSet.project", None),
        (api.conic.ConicProgram, "export_text", "conic.export_text", on_export),
        (api.poly.Polynomial, "eval_many", "poly.eval_many", on_eval),
    ]
    for owner, attr, name, on_result in wraps:
        rec.wrap(owner, attr, name, on_result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(rec: SpanRecorder, ops: int, polys_per_draw: int) -> dict:
    """Per-operation layer figures from the spans and counts of ``ops`` operations."""
    t = rec.totals()
    c = rec.counters

    def s(name, field="s"):
        return t.get(name, {}).get(field, 0.0) / ops

    def n(key):
        return c.get(key, 0.0) / ops

    out = {}
    for name in ("problem_io.parse", "relaxation.build_chance_sdp",
                 "relaxation.build_refinement_sdp", "relaxation.decode",
                 "measures.moment_vector", "measures.lift_factors", "measures.sample",
                 "poly.eval_many", "mc.grid_search", "mc.estimate_probability",
                 "conic.project_dual", "conic.SimpleSet.project", "conic.export_text",
                 "alcc.solve", "alcc.apg_inner", "alcc.operator_norm",
                 "moments.moment_block_terms", "moments.localizing_block_terms"):
        out[f"{name}.s"] = s(name)
    for name in ("moments.moment_block_terms", "moments.localizing_block_terms",
                 "poly.eval_many", "conic.project_dual"):
        out[f"{name}.calls"] = s(name, "calls")
    out["alcc.apg_inner.self_s"] = s("alcc.apg_inner", "self_s")
    pd = t.get("conic.project_dual", {})
    out["conic.project_dual.us_per_call"] = 1e6 * _ratio(pd.get("s", 0.0), pd.get("calls", 0))

    for key in ("relaxation.program.scalars", "relaxation.program.nnz", "alcc.solves",
                "alcc.solves_converged", "alcc.outer_iters", "alcc.inner_iters",
                "alcc.operator_norm.iters", "measures.sample.draws", "poly.eval_many.rows",
                "conic.export_text.bytes"):
        out[key] = n(key)
    outer = c.get("alcc.outer_iters", 0.0)
    out["alcc.inner_stop.step_small_ratio"] = _ratio(c.get("alcc.step_small_stops", 0.0), outer)
    out["alcc.cap_limited_ratio"] = _ratio(c.get("alcc.cap_limited_outer", 0.0), outer)
    out["alcc.ms_per_inner_iter"] = 1e3 * _ratio(t.get("alcc.solve", {}).get("s", 0.0),
                                                 c.get("alcc.inner_iters", 0.0))
    draws = c.get("measures.sample.draws", 0.0)
    mc_s = sum(t.get(k, {}).get("s", 0.0) for k in ("mc.grid_search", "mc.estimate_probability"))
    out["mc.samples_per_s"] = _ratio(draws, mc_s)
    out["mc.eval_rows_ratio"] = _ratio(c.get("poly.eval_many.rows", 0.0), draws * polys_per_draw)
    out["trace.spans_per_op"] = len(rec) / ops
    return out
