"""The benchmark tracer wraps eqcohom functions by name (bench/tracer.py,
TRACED). A renamed or deleted function would break every traced benchmark
run, so check here that each traced name still resolves and that no binding
is left unwrapped."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_binds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.unwrapped() == []
    finally:
        tracer.uninstall()
