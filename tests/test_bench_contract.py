"""The names the bench tracer patches still exist where it reaches them.

`bench/layertrace.py` wraps engine entry points in place by attribute name;
a refactor that moves or deletes one of them breaks the traced bench pass.
Installing and removing the tracer here catches that in the test suite.
The convolution counters count calls of `mono_add` and `Box.contains` made
from `Product._terms_in`, so inlining either one would silently zero them;
a small product pins both counts.  The mode counters count calls of
`ModeOracle.apply` and the memo keys they find, so a recursion that went
around `apply`, or a memo keyed another way, would move them; a small
oracle sweep pins both.
"""

from fractions import Fraction
from pathlib import Path

from vertextwist.automorphism import parity_automorphism
from vertextwist.models import build_free_fermion, build_ramond_module
from vertextwist.modes import ModeOracle
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


def test_tracer_counts_mode_oracle_calls_and_memo_hits(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    V = build_free_fermion()
    W = build_ramond_module(V, parity_automorphism(V), crosscheck=False)
    o = W.oracle
    oracle = ModeOracle(o.algebra, o.gen_action, o.deg, o.alpha)   # cold
    # u of weight 0, 1/2, 3/2 and 2; w of degree 0, 0, 1 and 1; n from -3
    # to 2 in steps of 1/2
    sweep = [(u, Fraction(t, 2), w) for u in V.basis(2) for w in W.basis(1)
             for t in range(-6, 5)]
    assert len(sweep) == 4 * 4 * 11
    counts = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            for u, n, w in sweep:
                oracle.apply(u, n, w)
        finally:
            assert tracer.uninstall() is True
        counts.append(tracer.counts)
    # cold: the sweep's 176 calls recurse into 102 more; 84 modes are
    # computed and stored, and 86 calls find theirs in the memo
    assert (counts[0]["modes.apply_calls"], counts[0]["modes.memo_hits"],
            counts[0]["modes.computes"]) == (278, 86, 84)
    # warm: no call recurses, and a hit is every call on the coset of u
    # below the top index deg(w) + wt(u) - 1, for u = (), psi_-1/2,
    # psi_-3/2 and psi_-3/2 psi_-1/2: 14 + 14 + 18 + 22
    assert counts[1]["modes.apply_calls"] == 176
    assert counts[1]["modes.memo_hits"] == 68
    assert "modes.computes" not in counts[1]
