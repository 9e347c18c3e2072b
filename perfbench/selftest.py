"""Self-test of the span self-time arithmetic on a synthetic span tree.

Run directly (``python3 perfbench/selftest.py``); the traced benchmark run
also calls :func:`check_self_times` before it records anything.
"""

from __future__ import annotations

import math

from spans import SpanRecorder


def _synthetic() -> SpanRecorder:
    """solve [0, 10] > inner [1, 7] > {project [2, 4], clip [5, 5.5]},
    solve > norm [8, 9]; plus a span outside any parent, norm [20, 23]."""
    rec = SpanRecorder()
    solve = rec.open("solve", 0.0)
    inner = rec.open("inner", 1.0)
    rec.close(rec.open("project", 2.0), 4.0)
    rec.close(rec.open("clip", 5.0), 5.5)
    rec.close(inner, 7.0)
    rec.close(rec.open("norm", 8.0), 9.0)
    rec.close(solve, 10.0)
    rec.close(rec.open("norm", 20.0), 23.0)
    return rec


def check_self_times() -> None:
    rec = _synthetic()
    got = rec.totals()
    want = {
        "solve": {"calls": 1, "s": 10.0, "self_s": 10.0 - 6.0 - 1.0},
        "inner": {"calls": 1, "s": 6.0, "self_s": 6.0 - 2.0 - 0.5},
        "project": {"calls": 1, "s": 2.0, "self_s": 2.0},
        "clip": {"calls": 1, "s": 0.5, "self_s": 0.5},
        "norm": {"calls": 2, "s": 4.0, "self_s": 4.0},
    }
    _expect(got, want)

    # overlapping and overhanging children count once and only inside
    # the parent's interval: children [1, 3], [2, 5], [9, 12] of [0, 10]
    rec = SpanRecorder()
    root = rec.open("root", 0.0)
    for lo, hi in ((1.0, 3.0), (2.0, 5.0), (9.0, 12.0)):
        idx = rec.open("child", lo)
        rec.close(idx, hi)
    rec.close(root, 10.0)
    _expect({"root": rec.totals()["root"]},
            {"root": {"calls": 1, "s": 10.0, "self_s": 10.0 - 4.0 - 1.0}})


def _expect(got: dict, want: dict) -> None:
    if set(got) != set(want):
        raise AssertionError(f"span names {sorted(got)} != {sorted(want)}")
    for name, fields in want.items():
        for key, value in fields.items():
            if not math.isclose(got[name][key], value, abs_tol=1e-12):
                raise AssertionError(f"{name}.{key} = {got[name][key]}, expected {value}")


if __name__ == "__main__":
    check_self_times()
    print("span self-time arithmetic: ok")
