from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vertextwist.models import Registry
from vertextwist.scalars import Scalar, Vec, VecSum, linear
from vertextwist.series import (Box, Product, Sum, TermSeries, exponent,
                                lattice, lattice_mono, mono, mono_add,
                                mono_parts, series_mismatch)

from helpers import assert_canonical

F = Fraction

reg = Registry()
FERMION = reg.bundle("fermion").algebra
RAMOND = reg.twisted("ramond")
HEIS3 = reg.bundle("heis3").algebra
UNIP = reg.bundle("heis3").automorphisms["unipotent"]

fkeys = FERMION.basis(3)
rkeys = RAMOND.basis(2)
hkeys = HEIS3.basis(2)


@given(st.sampled_from(fkeys), st.sampled_from(fkeys),
       st.integers(-5, 4))
@settings(max_examples=60, deadline=None)
def test_mode_weight_and_parity_conservation(u, v, n):
    out = FERMION.mode_apply(u, lattice(n), v)
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
    out = RAMOND.oracle.apply(u, lattice(n), w)
    if (n - exponent(RAMOND.oracle.coset(u))).denominator != 1:
        assert not out
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
        if not cur:
            return
    assert False, "K did not nilpotate on %s" % (key,)


def small_series():
    monos = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    coeff = st.integers(-3, 3)
    return st.dictionaries(monos, coeff, max_size=4).map(
        lambda d: TermSeries(("x1", "x2"), {
            mono(k): c for k, c in d.items() if c}))


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
        assert [exponent(p) for p in mono_parts(m, 2)[0]] == [a, b]
    for (a1, b1, k1), (a2, b2, k2), m1, m2 in zip(rows, rows[1:], monos,
                                                  monos[1:]):
        assert mono_add(m1, m2) == mono([a1 + a2, b1 + b2], [k1 + k2, 0])
    # the canonical order, hence the first mismatch reported, is the order
    # of the rational exponents
    by_fraction = sorted(rows, key=lambda r: ((r[0], r[1]), (r[2], 0)))
    assert sorted(monos) == [mono([a, b], [k, 0]) for a, b, k in by_fraction]


def sorted_scan_mismatch(ta, tb):
    """The first differing (monomial, lhs, rhs) by a full scan sorted on
    the unpacked (exponents, log powers) pairs."""
    for m in sorted(set(ta) | set(tb), key=lambda m: mono_parts(m, 2)):
        ca, cb = ta.get(m), tb.get(m)
        if ca is None or cb is None or ca != cb:
            return m, ca, cb
    return None


lattice_monomials = st.tuples(
    st.tuples(st.integers(-48, 48), st.integers(-48, 48)),
    st.tuples(st.integers(0, 2), st.integers(0, 2))).map(
    lambda t: lattice_mono(*t))
nonzero_scalars = st.tuples(st.integers(-3, 3).filter(bool),
                            st.integers(0, 7)).map(
    lambda t: t[0] * Scalar.e(F(t[1], 4)))


@given(st.dictionaries(lattice_monomials, nonzero_scalars, min_size=1,
                       max_size=8),
       st.sampled_from(["equal", "coefficient", "one-sided"]),
       st.integers(0, 7), lattice_monomials, nonzero_scalars)
@settings(max_examples=80, deadline=None)
def test_series_mismatch_matches_sorted_scan(ta, change, pick, extra, c):
    tb = dict(ta)
    m = sorted(ta)[pick % len(ta)]
    if change == "coefficient":
        tb[m] = tb[m] + c
        if not tb[m]:
            del tb[m]
    elif change == "one-sided":
        if extra in tb:
            del tb[extra]
        else:
            tb[extra] = c
    box = Box((-48, -48), (48, 48), (2, 2))
    vars = ("x1", "x2")
    got = series_mismatch(TermSeries(vars, ta), TermSeries(vars, tb), box)
    assert got == sorted_scan_mismatch(ta, tb)
    assert (got is None) == (change == "equal")


# values in every form the scalar ring takes: ints, Fractions, phases, PI
# powers, and sums and products of them
ring_atoms = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(-40, 40).map(lambda k: Scalar.e(F(k, 16))),
    st.integers(-2, 2).map(Scalar.pi))
ring_values = st.recursive(
    ring_atoms,
    lambda inner: st.tuples(inner, inner, st.booleans()).map(
        lambda t: t[0] * t[1] if t[2] else t[0] + t[1]),
    max_leaves=5)
phases = st.integers(-40, 40).map(lambda k: F(k, 16))
nonzero_rationals = st.fractions(min_value=-3, max_value=3,
                                 max_denominator=6).filter(bool)


@given(ring_values, ring_values, st.integers(0, 3), nonzero_rationals)
@settings(max_examples=150, deadline=None)
def test_ring_results_are_canonical(a, b, n, d):
    # the drawn values, the ring's results, and a value times a phase and
    # its inverse, which cancel back to the value
    for x in (a, b, a + b, a - b, a * b, -a, a ** n, a / d,
              a * Scalar.e(F(1, 2)) * Scalar.e(F(-1, 2))):
        assert_canonical(x)


@given(ring_values, ring_values, phases)
@settings(max_examples=150, deadline=None)
def test_eq_and_hash_agree_across_forms(a, s, q):
    # the same value reached through a boxed intermediate
    for back in ((a + s) - s, a * Scalar.e(q) * Scalar.e(-q), -(-a)):
        assert back == a and hash(back) == hash(a)
    if a == s:
        assert hash(a) == hash(s)
    # a rational equals its Fraction and its int, and hashes like them
    if not isinstance(a, Scalar):
        assert a == Fraction(a) and hash(a) == hash(Fraction(a))


@given(st.dictionaries(st.integers(0, 5), ring_values, max_size=4), phases)
@settings(max_examples=100, deadline=None)
def test_vec_equality_does_not_depend_on_form(comps, q):
    plain = Vec({k: c for k, c in comps.items() if c})
    # every coefficient passed through Fractions and a phase round trip
    boxed = Vec.zero()
    for k, c in comps.items():
        boxed = boxed + Vec.basis(k).scale(Fraction(1)).scale(
            c * Scalar.e(q)).scale(Scalar.e(-q))
    assert boxed == plain and hash(boxed) == hash(plain)
    assert not boxed - plain
    for _, c in boxed.items():
        assert_canonical(c, boxed=True)
    assert_canonical(boxed)


vectors = st.dictionaries(st.integers(0, 5), ring_values, max_size=4).map(
    lambda comps: Vec({k: c for k, c in comps.items() if c}))


@given(vectors, st.dictionaries(st.integers(0, 5), vectors, min_size=6))
@settings(max_examples=100, deadline=None)
def test_linear_is_the_sum_of_scaled_images(v, table):
    want = sum((table[k].scale(c) for k, c in v.items()), Vec.zero())
    assert linear(table.__getitem__, v) == want
    # with a memo, fn runs once per distinct key over repeated calls
    calls, memo = [], {}

    def fn(k):
        calls.append(k)
        return table[k]
    for w in (v, v, v + Vec.basis(0), -v):
        assert linear(fn, w, memo) == linear(table.__getitem__, w)
    assert sorted(calls) == sorted(set(v.comps) | {0})
    assert memo == {k: table[k] for k in calls}


@given(vectors, st.dictionaries(st.integers(0, 5), vectors, min_size=6),
       vectors, st.one_of(st.integers(-4, 4).filter(bool), nonzero_rationals),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_linear_into_a_sum_adds_the_scaled_images(v, table, start, c, memo):
    # c times the images, added over v's denominator (the drawn vectors
    # carry denominators above 1 and phased terms) into a sum that already
    # holds a vector; the sum of scaled images is the reference
    want = start + sum((table[k].scale(ck * c) for k, ck in v.items()),
                       Vec.zero())
    acc = VecSum()
    acc.add(start)
    assert linear(table.__getitem__, v, {} if memo else None,
                  into=acc, c=c) is None
    got = acc.vec()
    assert got == want
    assert_canonical(got)
    # the same as adding the returned extension
    ref = VecSum()
    ref.add(start)
    ref.add(linear(table.__getitem__, v), c)
    assert ref.vec() == got
