"""The names the bench tracer patches still exist where it reaches them.

`bench/layertrace.py` wraps engine entry points in place by attribute name;
a refactor that moves or deletes one of them breaks the traced bench pass.
Installing and removing the tracer here catches that in the test suite.
The convolution counters count calls of `mono_add` and `Box.contains` made
from `Product._terms_in`, so inlining either one would silently zero them;
a small product pins both counts.  The mode counters count calls of
`ModeOracle.apply` and the memo keys they find, so a recursion that went
around `apply`, or a memo keyed another way, would move them; a small
oracle sweep pins both, and `apply_vec` of a 2-key u on a 2-key w pins
one `apply` per key pair.  The twist-slot counters count calls of
`TwistOpSlot.apply`, the basis keys they look up and the coefficients
`_apply_key` computes, so a slot table keyed without w_arg, e or k, or an
`apply` that went around the table, would move them; a small slot sweep pins
all three.  The scalar counters count the ring operations entered from
outside the ring, and a product of two rationals, which the tracer tells by
reading a `Scalar`'s `terms` view; a few ring operations pin all three.
"""

from fractions import Fraction
from pathlib import Path

from vertextwist.automorphism import parity_automorphism
from vertextwist.models import (build_free_fermion, build_heisenberg,
                                build_ramond_module, build_z2_twisted_boson,
                                orthogonal_automorphism)
from vertextwist.modes import ModeOracle
from vertextwist.scalars import Scalar, Vec
from vertextwist.series import Box, Product, TermSeries, lattice, mono
from vertextwist.twistop import TwistOpSlot

from helpers import without_crosscheck

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
    W = without_crosscheck(build_ramond_module, V, parity_automorphism(V))
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
                oracle.apply(u, lattice(n), w)
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


def test_tracer_counts_one_apply_per_key_pair_of_apply_vec(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    V = build_heisenberg([[1]])
    keys = V.basis(2)
    u = Vec.basis(keys[1]) + Vec.basis(keys[2], Fraction(1, 2))
    w = Vec.basis(keys[2]) - Vec.basis(keys[3])
    assert len(u.keys()) == len(w.keys()) == 2
    N = lattice(Fraction(-1))
    oracle = V.oracle
    want = oracle.apply_vec(u, N, w)       # warm: no call recurses below
    assert want
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        got = oracle.apply_vec(u, N, w)
    finally:
        assert tracer.uninstall() is True
    assert got == want
    # one `apply` per (u key, w key) pair, as the nested linear form called
    # it, so the traced mode counters compare across the two forms
    assert tracer.counts["modes.apply_calls"] == 4


def test_tracer_counts_twist_slot_lookups_and_computes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    boson = build_heisenberg([[1]])
    W = without_crosscheck(build_z2_twisted_boson, boson,           # cold
                           orthogonal_automorphism(boson, [[-1]], "minus1"))
    # two w_args of degree 3/2; v the four basis vectors of weight <= 2 and
    # their sum; e from -2 to 1 in steps of 1/2; k = 0 and, past the
    # module's log bound of 0, k = 1
    wargs = [Vec.basis(k) for k in W.basis(Fraction(3, 2))
             if W.deg(k) == Fraction(3, 2)]
    vkeys = W.V.basis(2)
    vecs = [Vec.basis(k) for k in vkeys]
    vecs.append(sum(vecs, Vec.zero()))
    assert len(wargs) == 2 and len(vkeys) == 4
    sweep = [(w, Fraction(t, 2), k, v) for w in wargs
             for t in range(-4, 3) for k in range(2) for v in vecs]
    counts = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            for w, e, k, v in sweep:
                TwistOpSlot(W, w).apply(lattice(e), k, v)
        finally:
            assert tracer.uninstall() is True
        counts.append(tracer.counts)
    # cold: 140 applies look up 4 + 4 keys per (w, e, k); each of the
    # 2 * 7 * 2 * 4 coefficients is computed once, and the sum vector finds
    # all of its four in the table
    assert (counts[0]["twistop.slot_applies"],
            counts[0]["twistop.slot_lookups"],
            counts[0]["twistop.slot_computes"]) == (140, 224, 112)
    # warm: the same lookups, and every one finds its coefficient
    assert (counts[1]["twistop.slot_applies"],
            counts[1]["twistop.slot_lookups"]) == (140, 224)
    assert "twistop.slot_computes" not in counts[1]


def test_tracer_counts_scalar_ring_operations(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    a, b = Scalar.e(Fraction(1, 4)), Scalar.pi(-1)
    ops = {
        "Scalar*Scalar": (lambda: a * b, (1, 0)),
        "Scalar*int": (lambda: a * 3, (1, 0)),
        "Fraction*Scalar": (lambda: Fraction(2, 3) * a, (1, 0)),
        "Scalar+Fraction": (lambda: b + Fraction(1, 2), (0, 1)),
        # int - Scalar is -Scalar + int: one addition, entered from outside
        "int-Scalar": (lambda: 1 - b, (0, 1)),
    }
    for name, (op, (muls, adds)) in ops.items():
        want = op()
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            got = op()
        finally:
            assert tracer.uninstall() is True
        assert got == want and isinstance(got, Scalar), name
        counts = tracer.counts
        assert (counts.get("scalars.mul_calls", 0),
                counts.get("scalars.add_calls", 0)) == (muls, adds), name
        # a Scalar is never rational, so no product counts as rational
        assert counts.get("scalars.mul_rational", 0) == 0, name
    # a product of the two rationals never reaches the ring
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert Fraction(1, 2) * 3 == Fraction(3, 2)
    finally:
        assert tracer.uninstall() is True
    assert not tracer.counts
