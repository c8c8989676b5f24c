"""The names the bench tracer patches still exist where it reaches them.

`bench/layertrace.py` wraps engine entry points in place by attribute name;
a refactor that moves or deletes one of them breaks the traced bench pass.
Installing and removing the tracer here catches that in the test suite.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall() is True
