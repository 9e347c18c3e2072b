"""The traced benchmark wraps package names from outside: they must exist."""

from pathlib import Path

import chanceopt
import chanceopt.cli  # noqa: F401  (the benchmark wraps names in chanceopt.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # install() raises AttributeError if a name it wraps is gone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import SpanRecorder

    original = chanceopt.conic.ConicProgram.project_dual
    rec = SpanRecorder()
    try:
        layers.install(rec, chanceopt, {})
        assert chanceopt.conic.ConicProgram.project_dual is not original
    finally:
        rec.unwrap_all()
    assert chanceopt.conic.ConicProgram.project_dual is original
