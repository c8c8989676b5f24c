"""The names the bench tracer patches still exist where it reaches them.

`bench/layertrace.py` wraps engine entry points in place by attribute name;
a refactor that moves or deletes one of them breaks the traced bench pass.
Installing and removing the tracer here catches that in the test suite.
The convolution counters count calls of `mono_add` and `Box.contains` made
from `Product._terms_in`, so inlining either one would silently zero them;
a small product pins both counts.
"""

from pathlib import Path

from vertextwist.series import Box, Product, TermSeries, mono

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall() is True


def test_tracer_counts_convolution_pairs(monkeypatch):
    # (1 + x)(1 + x) on |exp| <= 1 tries four pairs and drops x^2
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    a = TermSeries(("x",), {mono([0]): 1, mono([1]): 1})
    b = TermSeries(("x",), {mono([0]): 1, mono([1]): 1})
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        Product(a, b).terms_in(Box.cube(1, -1, 1))
    finally:
        assert tracer.uninstall() is True
    assert tracer.counts["series.conv_pairs_tried"] == 4
    assert tracer.counts["series.conv_pairs_kept"] == 3
