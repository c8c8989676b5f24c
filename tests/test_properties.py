from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertextwist.models import Registry
from vertextwist.scalars import Scalar, Vec
from vertextwist.series import (Box, Product, Sum, TermSeries, exponent,
                                lattice, mono, mono_add, mono_sort_key,
                                series_mismatch)

F = Fraction

reg = Registry()
FERMION = reg.algebra("fermion").algebra
RAMOND = reg.twisted("ramond")
HEIS3 = reg.algebra("heis3").algebra
UNIP = reg.algebra("heis3").automorphisms["unipotent"]

fkeys = FERMION.basis(3)
rkeys = RAMOND.basis(2)
hkeys = HEIS3.basis(2)


@given(st.sampled_from(fkeys), st.sampled_from(fkeys),
       st.integers(-5, 4))
@settings(max_examples=60, deadline=None)
def test_mode_weight_and_parity_conservation(u, v, n):
    out = FERMION.mode_apply(u, n, v)
    want_wt = FERMION.weight(u) + FERMION.weight(v) - n - 1
    want_par = (FERMION.parity(u) + FERMION.parity(v)) % 2
    for key in out.comps:
        assert FERMION.weight(key) == want_wt
        assert FERMION.parity(key) == want_par


@given(st.sampled_from(fkeys), st.sampled_from(rkeys),
       st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_twisted_mode_coset_support(u, w, twice_n):
    n = F(twice_n, 2)
    out = RAMOND.oracle.apply(u, n, w)
    al = RAMOND.oracle.coset(u)
    if (n - al).denominator != 1:
        assert out.is_zero()
    for key in out.comps:
        assert RAMOND.deg(key) == RAMOND.deg(w) + FERMION.weight(u) - n - 1


@given(st.sampled_from(hkeys))
@settings(max_examples=30, deadline=None)
def test_automorphism_preserves_weight_and_k_nilpotent(key):
    img = UNIP.apply_key(key)
    for k2 in img.comps:
        assert HEIS3.weight(k2) == HEIS3.weight(key)
    cur = Vec.basis(key)
    for _ in range(12):
        cur = UNIP.K_apply(cur)
        if cur.is_zero():
            return
    assert False, "K did not nilpotate on %s" % (key,)


def small_series():
    monos = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    coeff = st.integers(-3, 3)
    return st.dictionaries(monos, coeff, max_size=4).map(
        lambda d: TermSeries(("x1", "x2"), {
            mono(k): Scalar.rational(c) for k, c in d.items() if c}))


@given(small_series(), small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_series_product_associative_and_distributive(a, b, c):
    box = Box.cube(2, -6, 6)
    assert series_mismatch(Product(Product(a, b), c),
                           Product(a, Product(b, c)), box) is None
    assert series_mismatch(Product(a, Sum([b, c])),
                           Sum([Product(a, b), Product(a, c)]), box) is None


# exponents on the (1/16)Z lattice, as rationals
lattice_exponents = st.integers(-48, 48).map(lambda p: F(p, 16))


@given(st.lists(st.tuples(lattice_exponents, lattice_exponents,
                          st.integers(0, 2)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_lattice_monomials_agree_with_fractions(rows):
    monos = [mono([a, b], [k, 0]) for a, b, k in rows]
    for (a, b, k), m in zip(rows, monos):
        assert exponent(lattice(a)) == a
        assert [exponent(p) for p in m[0]] == [a, b]
    for (a1, b1, k1), (a2, b2, k2), m1, m2 in zip(rows, rows[1:], monos,
                                                  monos[1:]):
        assert mono_add(m1, m2) == mono([a1 + a2, b1 + b2], [k1 + k2, 0])
    # the canonical order, hence the first mismatch reported, is the order
    # of the rational exponents
    by_fraction = sorted(rows, key=lambda r: ((r[0], r[1]), (r[2], 0)))
    assert sorted(monos, key=mono_sort_key) == \
        [mono([a, b], [k, 0]) for a, b, k in by_fraction]
