from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from vertextwist.errors import (InfiniteConvolution, MonomialOverflow,
                                NonMeromorphicVariable)
from vertextwist.scalars import CyclotomicLevelError, Scalar, binomial
from vertextwist.results import compare
from vertextwist.series import (D, Box, Product, Series, Sum, TermSeries,
                                _LIMIT, binomial_expand, branch_shift, c_mul,
                                delta_derivative, delta_iter, delta_prod,
                                delta_prod_rev, derivative, exp_unit, format_series,
                                lattice_coset, lattice_mono, log_substitute,
                                log_unit, minus_convention, mono, residue, scaled, series_mismatch,
                                series_to_json, window_json)

F = Fraction
X = ("x",)
X12 = ("x1", "x2")
X012 = ("x0", "x1", "x2")


# ---------------------------------------------------------------------------
# formal-calculus helpers used only as test oracles: the plain delta
# function and composite expansions in a small-valuation base
# ---------------------------------------------------------------------------

class PlainDelta(Series):
    """delta(x) = sum over all integers n of x^n in one designated variable."""

    def __init__(self, vars, idx: int):
        n = len(vars)
        bounds = [(0, 0)] * n
        bounds[idx] = (None, None)
        super().__init__(vars, bounds, [frozenset((0,))] * n, [0] * n)
        self.idx = idx

    def _terms_in(self, box):
        lo, hi = box.lows[self.idx], box.highs[self.idx]
        if lo is None or hi is None:
            raise InfiniteConvolution("delta(x) has unbounded support")
        out = {}
        n = len(self.vars)
        for p in lattice_coset(lo, hi, 0):
            powers = [0] * n
            powers[self.idx] = p
            out[lattice_mono(powers)] = 1
        return out


def _positive_valuation_var(base: Series):
    for i, (lo, _hi) in enumerate(base.bounds):
        if lo is not None and lo >= D:
            return i, lo
    raise InfiniteConvolution("base series has no strictly positive valuation")


def truncated_powers(base: Series, box: Box):
    """Yield (n, base^n materialized on box) while base^n can still meet box."""
    i, lo = _positive_valuation_var(base)
    hi = box.highs[i]
    if hi is None:
        raise InfiniteConvolution("power series needs a bounded window")
    cur = TermSeries.constant(base.vars, 1)
    n = 0
    while n * lo <= hi:
        yield n, cur
        cur = TermSeries(base.vars, Product(cur, base).terms_in(box))
        n += 1


def binomial_of(base: Series, A, box: Box) -> TermSeries:
    """(1 + base)^A on the box; base must have a positive-valuation variable."""
    out = {}
    for n, p in truncated_powers(base, box):
        c = binomial(A, n)
        if not c:
            continue
        for m, v in p.terms_in(box).items():
            s = out.get(m, None)
            cv = c_mul(c, v)
            out[m] = cv if s is None else s + cv
    return TermSeries(base.vars, out)


def log1p_of(base: Series, box: Box) -> TermSeries:
    """log(1 + base) on the box."""
    out = {}
    for n, p in truncated_powers(base, box):
        if n == 0:
            continue
        c = Fraction((-1) ** (n + 1), n)
        for m, v in p.terms_in(box).items():
            s = out.get(m)
            cv = c_mul(c, v)
            out[m] = cv if s is None else s + cv
    return TermSeries(base.vars, out)


def nilpotent_binomial(vars, order: int, lead: int, exp: int, box: Box,
                       minus: bool = False):
    """Coefficient series of N^k, k < order, in (x_lead - x_exp)^N = e^{N log(x_lead - x_exp)}.

    log(x_lead - x_exp) is taken as log x_lead + log(1 - x_exp/x_lead); with
    minus=True an extra PI is added per the (-x_exp + x_lead) convention
    (callers swap lead/exp themselves).
    """
    ratio = TermSeries.monomial(
        vars, [(-1 if i == lead else (1 if i == exp else 0)) for i in range(len(vars))],
        coeff=-1)
    tail = log1p_of(ratio, box)
    logterm = TermSeries.monomial(
        vars, [0] * len(vars), [1 if i == lead else 0 for i in range(len(vars))])
    L = Sum([logterm, tail])
    if minus:
        L = Sum([L, TermSeries.constant(vars, Scalar.pi())])
    out = []
    cur = TermSeries.constant(vars, 1)
    for k in range(order):
        out.append(TermSeries(vars, {m: c * Fraction(1, factorial(k))
                                     for m, c in cur.terms.items()}))
        cur = TermSeries(vars, Product(cur, L).terms_in(box))
    return out


def window(vars, hw, logcap=0):
    return Box.cube(len(vars), -hw, hw, logcap)


def poly(vars, *terms):
    return TermSeries(vars, {mono(p, l): c for p, l, c in terms})


def test_add_identity_and_cancellation():
    a = TermSeries.monomial(X, [F(1, 2)])
    z = TermSeries.zero(X)
    assert series_mismatch(Sum([a, z]), a, window(X, 3)) is None
    s = Sum([a, TermSeries.monomial(X, [F(1, 2)], coeff=-1)])
    assert s.terms_in(window(X, 3)) == {}


def test_x1_minus_x2_plus_x2_is_x1():
    d = poly(X12, ((1, 0), None, 1), ((0, 1), None, -1))
    s = Sum([d, TermSeries.monomial(X12, [0, 1])])
    assert series_mismatch(s, TermSeries.monomial(X12, [1, 0]), window(X12, 4)) is None


def test_telescoping_product():
    # (sum_{n>=0} x1^{-1-n} x2^n) * (x1 - x2) = 1
    geom = binomial_expand(X12, -1, 0, 1)
    lin = poly(X12, ((1, 0), None, 1), ((0, 1), None, -1))
    prod = Product(geom, lin)
    assert series_mismatch(prod, TermSeries.constant(X12, 1), window(X12, 6)) is None


def test_half_power_product():
    a = TermSeries.monomial(X, [F(1, 2)])
    assert Product(a, a).terms_in(window(X, 2)) == {mono([1]): 1}


def test_delta_squared_is_infinite():
    assert PlainDelta(X12, 1).terms_in(window(X12, 1)) == {
        mono([0, -1]): 1, mono([0, 0]): 1, mono([0, 1]): 1}
    d = PlainDelta(X, 0)
    with pytest.raises(InfiniteConvolution):
        Product(d, d).terms_in(window(X, 1))


def test_binomial_integer_cases():
    b = binomial_expand(X12, 1, 0, 1)
    assert b.terms_in(window(X12, 2)) == {
        mono([1, 0]): 1, mono([0, 1]): -1}


def test_binomial_half_expansion():
    b = binomial_expand(X12, F(1, 2), 0, 1)
    t = b.terms_in(window(X12, 2))
    assert t[mono([F(1, 2), 0])] == 1
    assert t[mono([F(-1, 2), 1])] == F(-1, 2)
    assert t[mono([F(-3, 2), 2])] == F(-1, 8)


@given(st.integers(-9, 9).map(lambda n: F(n, 2)))
@settings(max_examples=30, deadline=None)
def test_binomial_inverse_property(A):
    w = window(X12, 5)
    p = Product(binomial_expand(X12, A, 0, 1), binomial_expand(X12, -A, 0, 1))
    assert series_mismatch(p, TermSeries.constant(X12, 1), w) is None


def test_minus_convention_integer():
    # (-x2 + x1)^1 = e^{pi i} (x2 - x1) = x1 - x2
    m = minus_convention(X12, 1, 0, 1)
    want = poly(X12, ((1, 0), None, 1), ((0, 1), None, -1))
    assert series_mismatch(m, want, window(X12, 3)) is None


def test_minus_convention_half():
    m = minus_convention(X12, F(1, 2), 0, 1)
    t = m.terms_in(window(X12, 2))
    assert t[mono([0, F(1, 2)])] == Scalar.e(F(1, 2))


def test_delta_identity_three_term():
    # x0^{-1}d((x1-x2)/x0) - x0^{-1}d((-x2+x1)/x0) = x1^{-1}d((x2+x0)/x1)
    lhs = Sum([delta_prod(X012, 0, 1, 2),
               scaled(delta_prod_rev(X012, 0, 1, 2), -1)])
    rhs = delta_iter(X012, 0, 1, 2)
    assert series_mismatch(lhs, rhs, window(X012, 3)) is None


def test_delta_constant_term():
    t = delta_prod(X012, 0, 1, 2).terms_in(Box.cube(3, -2, 2))
    assert t[mono([-1, 0, 0])] == 1
    assert t[mono([-2, 1, 0])] == 1
    assert t[mono([-2, 0, 1])] == -1


def test_delta_substitution_residue():
    # Res_x1 x1^{-1} d(x2/x1) x1^3 = x2^3
    dk = delta_derivative(X12, 0, 1, 0)
    cubed = TermSeries.monomial(X12, [3, 0])
    r = residue(Product(dk, cubed), 0)
    assert r.terms_in(Box.cube(1, -5, 5)) == {mono([3]): 1}


def test_residue_rules():
    assert residue(TermSeries.monomial(X, [-1]), 0).terms_in(Box.cube(0, 0, 0)) \
        == {mono([]): 1}
    assert residue(TermSeries.monomial(X, [4]), 0).terms_in(Box.cube(0, 0, 0)) == {}
    with pytest.raises(NonMeromorphicVariable):
        residue(TermSeries.monomial(X, [F(-1, 2)]), 0)
    with pytest.raises(NonMeromorphicVariable):
        residue(TermSeries.monomial(X, [-1], logs=[1]), 0)


def test_packed_range_overflow_is_named():
    # a field beyond the packed range raises instead of spilling into its
    # neighbour, wherever a monomial or a box is made
    top, low = _LIMIT - 1, -_LIMIT
    assert lattice_mono((top, low), (top, 0)) > lattice_mono((top, low))
    for powers, logs in (((top + 1, 0), None), ((low - 1, 0), None),
                         ((0, 0), (0, top + 1))):
        with pytest.raises(MonomialOverflow):
            lattice_mono(powers, logs)
    with pytest.raises(MonomialOverflow):
        Box((0,), (top + 1,), (0,))
    with pytest.raises(MonomialOverflow):
        Box((0,), (0,), (top + 1,))
    # a term made by adding units is checked by the series that stores it
    with pytest.raises(MonomialOverflow):
        TermSeries(X12, {lattice_mono((top, 0)) + exp_unit(0, 2): 1})
    with pytest.raises(MonomialOverflow):
        TermSeries(X, {lattice_mono((0,), (top,)) + log_unit(0, 1): 1})
    # a product would drop a sum below an unbounded side: it raises
    a = TermSeries(X, {lattice_mono((low + 1,)): 1})
    b = TermSeries(X, {lattice_mono((-2 * D,)): 1})
    with pytest.raises(MonomialOverflow):
        Product(a, b).terms_in(Box((None,), (0,), (0,)))
    assert Product(a, b).terms_in(Box((low,), (0,), (0,))) == {}
    # and so does d/dx past the bottom of the range
    with pytest.raises(MonomialOverflow):
        derivative(TermSeries(X, {lattice_mono((low,)): 1}), 0).terms_in(
            Box((None,), (0,), (0,)))


def test_branch_shift_basics():
    s = TermSeries.monomial(X, [F(1, 2)])
    assert branch_shift(s, 0, 0) is s
    t = branch_shift(s, 0, 1).terms_in(window(X, 1))
    assert t == {mono([F(1, 2)]): -1}
    lg = TermSeries(X, {mono([0], [1]): 1})
    t = branch_shift(lg, 0, 1).terms_in(Box.cube(1, -1, 1, 1))
    assert t[mono([0], [1])] == 1
    assert t[mono([0], [0])] == Scalar.pi() * 2


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=20, deadline=None)
def test_branch_shift_group_action(p, q):
    s = TermSeries(X, {mono([F(1, 2)], [2]): 1, mono([-2], [1]): Scalar.e(F(1, 4))})
    w = Box.cube(1, -3, 3, 2)
    lhs = branch_shift(branch_shift(s, 0, p), 0, q)
    rhs = branch_shift(s, 0, p + q)
    assert series_mismatch(lhs, rhs, w) is None


def test_log_substitute_rules():
    y = ("y",)
    assert log_substitute(TermSeries.monomial(y, [-1]), 0).terms_in(window(X, 2)) \
        == {mono([-1]): -1}
    assert log_substitute(TermSeries.monomial(y, [F(-1, 2)]), 0).terms_in(window(X, 1)) \
        == {mono([F(-1, 2)]): Scalar.e(F(-1, 2))}
    t = log_substitute(TermSeries(y, {mono([0], [1]): 1}), 0).terms_in(
        Box.cube(1, 0, 0, 1))
    assert t[mono([0], [1])] == 1
    assert t[mono([0], [0])] == Scalar.pi()


def test_log_substitute_twice_is_full_branch_shift():
    # applying y -> -x twice maps x^n -> e^{2 pi i n} x^n, log x -> log x + 2 PI
    s = TermSeries(("y",), {mono([F(1, 2)], [1]): 1})
    twice = log_substitute(log_substitute(s, 0, rename="z"), 0)
    back = branch_shift(TermSeries(X, {mono([F(1, 2)], [1]): 1}), 0, 1)
    assert series_mismatch(twice, back, Box.cube(1, -2, 2, 1)) is None


def test_derivative_with_logs():
    s = TermSeries(X, {mono([2], [1]): 1})
    t = derivative(s, 0).terms_in(Box.cube(1, -3, 3, 1))
    assert t[mono([1], [1])] == 2
    assert t[mono([1], [0])] == 1


def test_formal_identity_alpha():
    # ((1 + x2/(x1-x2))/x1)^(-a) = (x1-x2)^a, expanded per the conventions
    a = F(1, 2)
    w = window(X12, 4)
    inner = Product(TermSeries.monomial(X12, [0, 1]), binomial_expand(X12, -1, 0, 1))
    outer = binomial_of(inner, -a, w)
    lhs = Product(outer, TermSeries.monomial(X12, [a, 0]))
    rhs = binomial_expand(X12, a, 0, 1)
    assert series_mismatch(lhs, rhs, w) is None


def test_formal_identity_nilpotent():
    # same with a nilpotent exponent: compare coefficient series of N^k
    w = window(X12, 3)
    wlog = Box.cube(2, -3, 3, 3)
    order = 4
    direct = nilpotent_binomial(X12, order, 0, 1, wlog)
    inner = Product(TermSeries.monomial(X12, [0, 1]), binomial_expand(X12, -1, 0, 1))
    tail = log1p_of(inner, w)
    xlog = TermSeries(X12, {mono([0, 0], [1, 0]): 1})
    L = Sum([tail, xlog])  # log(1 + x2/(x1-x2)) + log x1... sign: see below
    # ((1+u)/x1)^{-N} = e^{-N(log(1+u) - log x1)} = e^{N(log x1 - log(1+u))}
    L = Sum([xlog, scaled(tail, -1)])
    cur = TermSeries.constant(X12, 1)
    for k in range(order):
        ratio = TermSeries(X12, {m: c * F(1, factorial(k))
                                 for m, c in cur.terms.items()})
        assert series_mismatch(ratio, direct[k], wlog) is None, k
        cur = TermSeries(X12, Product(cur, L).terms_in(wlog))


def test_json_roundtrip_shape():
    s = TermSeries(X12, {mono([F(1, 2), -1], [0, 1]): Scalar.e(F(1, 4))})
    doc = series_to_json(s.terms, X12, window(X12, 2))
    assert doc["variables"] == ["x1", "x2"]
    assert doc["entries"][0]["powers"] == {"x1": "1/2", "x2": "-1"}
    assert doc["entries"][0]["log_powers"] == {"x2": 1}


def test_rational_coefficients_print_as_their_terms():
    # a plain number prints and serializes as the one (0, 0) term it stands
    # for, the shape a Scalar's terms take
    t = {mono([1]): F(-1, 2), mono([2]): Scalar.e(F(1, 2)) * 3}
    assert format_series(t, X) == "(-1/2)*x^1 + (3*e(1/2))*x^2"
    assert [e["scalar"] for e in series_to_json(t, X)["entries"]] == [
        [{"pi_power": 0, "phase": "0", "coeff": "-1/2"}],
        [{"pi_power": 0, "phase": "1/2", "coeff": "3"}]]
    r = compare("id", {}, X, window(X, 2), TermSeries(X, t),
                TermSeries(X, {mono([1]): F(1, 2)}))
    assert r.first_mismatch == {"monomial": "x^1", "lhs": "-1/2",
                                "rhs": "1/2"}


def test_off_lattice_exponents_are_refused():
    # exponents share the (1/16)Z lattice of the phases; 1/3 is off it
    with pytest.raises(CyclotomicLevelError):
        mono([F(1, 3)])
    with pytest.raises(CyclotomicLevelError):
        Box.cube(1, F(-1, 3), 1)


def test_window_json_reads_rational_bounds():
    assert window_json(X12, Box.cube(2, -3, 3, 1)) == {
        "x1": ["-3", "3", 1], "x2": ["-3", "3", 1]}
    assert window_json(X, Box.cube(1, F(-1, 2), F(3, 16))) == {
        "x": ["-1/2", "3/16", 0]}
