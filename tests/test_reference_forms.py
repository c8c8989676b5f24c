"""Engine shortcuts against the plain forms they replace.

`LoopModeOracle._compute` walks both coset sums of the mode recursion in
full, also when the tail u' is the vacuum; `loop_apply_key` applies L(-1)
j times to every base vector separately.  The `loop_*` verdicts judge an
identity basis pair by basis pair and mode by mode with their own loop, as
the checkers did before they stated two sides for `results.compare`.
`log_series_K` sums the logarithm series of e^{-2 pi i S} g on every PBW
key of V, and
`blockwise_reference` splits the matrix of g on a weight block through a
generalized eigenbasis C: S = C diag(e^{2 pi i alpha}) C^{-1}, K = log(S^{-1}
g), certified by S e^K = g.  `FractionScalar` is the scalar ring with one
int or Fraction coefficient per term.  All are kept here only as references
for the engine's shortcuts (the vacuum collapse, Horner's rule, the Jordan
parts split once on the generator block, with K a derivation, the one
verdict path, and integer numerators over one denominator), which must give
equal results.
"""

from fractions import Fraction
from math import ceil, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from vertextwist.automorphism import (NILPOTENCY_CAP,
                                      _generalized_eigenbasis,
                                      check_conjugation, check_derivation,
                                      check_homomorphism, jordan_decompose,
                                      nilpotent_power_coeffs,
                                      orthogonal_automorphism,
                                      parity_automorphism)
from vertextwist.linalg import mat_eq, mat_identity, mat_mul, solve
from vertextwist.models import (GRAM3, UNIPOTENT3, Registry,
                                build_free_fermion, build_heisenberg,
                                build_ramond_module, build_unipotent_toy,
                                build_z2_twisted_boson)
from vertextwist.modes import ModeOracle
from vertextwist.scalars import (CyclotomicLevelError, Scalar, Vec, acc_vec,
                                 binomial, cyclotomic_level, scalar_json,
                                 terms_of, vec_of)
from vertextwist.twistop import TwistOpSlot
from vertextwist.vosa import check_axioms

from test_verdicts import non_skew


class LoopModeOracle(ModeOracle):
    """The mode recursion with every sum walked over its whole range."""

    def _compute(self, ukey, n, wkey) -> Vec:
        if not ukey:
            return Vec.basis(wkey) if n == -1 else Vec.zero()
        alg = self.algebra
        head, rest = ukey[0], ukey[1:]
        gidx = alg.gen_index(head)
        t = alg.spec_mode(head)
        q = self.alpha(gidx) + self.shift
        sgn = -1 if (alg.gen_parity(gidx) and alg.parity(rest)) else 1

        acc = {}
        m_lo = n + t - (self.deg(wkey) + alg.weight(rest) - 1)
        m = q + t
        while m >= m_lo:
            inner = self.apply(rest, n + t - m, wkey)
            if inner:
                j = q + t - m
                c = binomial(t, j) * (1 if int(j) % 2 == 0 else -1)
                if c:
                    acc_vec(acc, self._gen_on_vec(gidx, m, inner),
                            c)
            m -= 1
        m = q
        m_hi = self.deg(wkey) + alg.gen_weight(gidx) - 1
        while m <= m_hi:
            gw = self.gen_action(gidx, m, wkey)
            if gw:
                c = binomial(t, m - q) \
                    * (1 if int(t + q - m) % 2 == 0 else -1) * sgn
                if c:
                    part = self.apply_vec(Vec.basis(rest), n + t - m, gw)
                    if part:
                        acc_vec(acc, part, -c)
            m += 1
        r = t + 1
        r_hi = alg.weight(rest) + alg.gen_weight(gidx) - 1
        while r <= r_hi:
            comp = self.gen_action_algebra(gidx, r, rest)
            if comp:
                c = binomial(q, r - t)
                if c:
                    part = self.apply_vec(comp, n + t - r, Vec.basis(wkey))
                    if part:
                        acc_vec(acc, part, -c)
            r += 1
        return vec_of(acc)


def loop_apply_key(slot, e, k, vkey) -> Vec:
    """T(w, x)v at x^e log^k x with L(-1)^j applied base by base."""
    W = slot.module
    V = W.V
    sgn = (-1) ** (V.parity(vkey) * slot.parity)
    acc = {}
    for beta, piece in W.g.alpha_decompose_key(vkey).items():
        n = beta % 1 + ceil(-e - 1 - beta % 1)
        n_hi = slot.wt + V.weight(vkey) - 1
        while n <= n_hi:
            j = int(e + n + 1)
            for ksrc in range(k, W.log_bound + 1):
                base = W.mode_vec(piece, n, ksrc, slot.w_arg)
                if not base:
                    continue
                phase = Scalar.e(-n - 1) * binomial(ksrc, k) \
                    * (Scalar.pi() ** (ksrc - k))
                out = base
                for _ in range(j):
                    out = W.L_minus1(out)
                if out:
                    acc_vec(acc, out, sgn * phase * Fraction(1, factorial(j)))
            n += 1
    return vec_of(acc)


def log_series_K(g, key) -> Vec:
    """K on one PBW key: the logarithm series of e^{-2 pi i S} g run on V."""
    out = Vec.zero()
    cur = Vec.basis(key)
    for j in range(1, NILPOTENCY_CAP + 2):
        cur = g.semisimple_exp(g.apply(cur), sign=-1) - cur
        if not cur:
            return out
        out = out + cur.scale(Fraction((-1) ** (j + 1), j))
    raise AssertionError("log series did not terminate on %r" % (key,))


def _is_zero(mat) -> bool:
    return not any(x for row in mat for x in row)


def _mat_series(A, coeff):
    """sum over j >= 1 of coeff(j) A^j for a nilpotent matrix A."""
    d = len(A)
    out = [[0] * d for _ in range(d)]
    power = mat_identity(d)
    for j in range(1, d + 1):
        power = mat_mul(power, A)
        if _is_zero(power):
            return out
        out = [[o + p * coeff(j) for o, p in zip(ro, rp)]
               for ro, rp in zip(out, power)]
    assert _is_zero(mat_mul(power, A)), "matrix is not nilpotent"
    return out


def blockwise_reference(g, keys):
    """(alphas, K matrix, nilpotency index) of g on the span of `keys`, from
    the matrix of g there."""
    d = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    gmat = [[0] * d for _ in range(d)]
    for j, k in enumerate(keys):
        for kk, c in g.apply_key(k).items():
            gmat[index[kk]][j] = c
    columns, col_alpha = _generalized_eigenbasis(gmat)
    C = [[columns[c][i] for c in range(d)] for i in range(d)]
    inv_cols = solve(C, mat_identity(d))
    Cinv = [[inv_cols[j][i] for j in range(d)] for i in range(d)]

    def semi(sign):
        diag = [[Scalar.e(sign * 2 * col_alpha[j]) if i == j else 0
                 for j in range(d)] for i in range(d)]
        return mat_mul(mat_mul(C, diag), Cinv)
    T = mat_mul(semi(-1), gmat)
    A = [[T[i][j] - (1 if i == j else 0) for j in range(d)]
         for i in range(d)]
    K = _mat_series(A, lambda j: Fraction((-1) ** (j + 1), j))
    expK = _mat_series(K, lambda j: Fraction(1, factorial(j)))
    expK = [[x + (1 if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(expK)]
    assert mat_eq(mat_mul(semi(1), expK), gmat), "S e^K does not reproduce g"
    power, nil = mat_identity(d), 0
    while not _is_zero(power):
        power, nil = mat_mul(power, K), nil + 1
    return sorted(set(col_alpha)), K, nil


JORDAN_CASES = [("heis3", "unipotent", 4),
                ("fermion", "parity", Fraction(9, 2)),
                ("boson1", "minus1", 4)]


@pytest.fixture(scope="module")
def registry():
    return Registry()


@pytest.mark.parametrize("model,gname,cut", JORDAN_CASES)
def test_leibniz_K_matches_log_series(registry, model, gname, cut):
    g = registry.algebra(model).automorphisms[gname]
    for key in g.V.basis(cut):
        assert g.K_apply(Vec.basis(key)) == log_series_K(g, key), key


@pytest.mark.parametrize("model,gname,cut", JORDAN_CASES)
def test_jordan_blocks_match_blockwise_matrix_path(registry, model, gname,
                                                   cut):
    g = registry.algebra(model).automorphisms[gname]
    for w, blk in jordan_decompose(g, cut).blocks.items():
        alphas, K, nil = blockwise_reference(g, blk.basis)
        assert blk.alphas == alphas, w
        assert blk.K == K, w
        assert blk.nilpotency_index == nil, w


@pytest.fixture(scope="module")
def algebras():
    return {"fermion": build_free_fermion(), "boson": build_heisenberg([[1]]),
            "heis3": build_heisenberg(GRAM3)}


@pytest.fixture(scope="module")
def modules(algebras):
    fermion, boson, heis3 = (algebras[k] for k in ("fermion", "boson",
                                                   "heis3"))
    # built without the construction-time crosscheck, so that a wrong mode
    # recursion shows here as a mismatch against the reference
    return {
        "ramond": build_ramond_module(fermion, parity_automorphism(fermion),
                                      crosscheck=False),
        "z2boson": build_z2_twisted_boson(
            boson, orthogonal_automorphism(boson, [[-1]], "minus1"),
            crosscheck=False),
        "heis3-unipotent-view": build_unipotent_toy(
            heis3, orthogonal_automorphism(heis3, UNIPOTENT3, "unipotent")),
    }


def _oracle_cases(algebras, modules):
    for name in ("ramond", "z2boson"):
        W = modules[name]
        yield name, W.oracle, W.V.basis(2), W.basis(2)
    for name, V in algebras.items():
        yield name, V.oracle, V.basis(2), V.basis(2)


@pytest.mark.parametrize("shift", [0, 1])
def test_mode_recursion_matches_loop_form(algebras, modules, shift):
    compared = 0
    for name, o, ukeys, wkeys in _oracle_cases(algebras, modules):
        new = ModeOracle(o.algebra, o.gen_action, o.deg, o.alpha, shift)
        ref = LoopModeOracle(o.algebra, o.gen_action, o.deg, o.alpha, shift)
        for ukey in ukeys:
            for wkey in wkeys:
                top = new.max_index(ukey, wkey)
                for n in (top - i for i in range(5)):
                    got = new.apply(ukey, n, wkey)
                    assert got == ref.apply(ukey, n, wkey), \
                        (name, ukey, n, wkey)
                    compared += bool(got)
    assert compared


@pytest.mark.parametrize("name", ["z2boson", "ramond",
                                  "heis3-unipotent-view"])
def test_twist_slot_matches_repeated_L_minus1(modules, name):
    W = modules[name]
    compared = with_pi = 0
    for wkey in W.basis(1):
        slot = TwistOpSlot(W, Vec.basis(wkey))
        for vkey in W.V.basis(2):
            for coset in sorted(slot.ecosets(Vec.basis(vkey))):
                for e in (coset + i for i in range(-2, 3)):
                    for k in range(W.log_bound + 1):
                        got = slot._apply_key(e, k, vkey)
                        assert got == loop_apply_key(slot, e, k, vkey), \
                            (wkey, vkey, e, k)
                        compared += bool(got)
                        with_pi += any(p for c in got.comps.values()
                                       for p, _ in terms_of(c))
    assert compared
    if W.log_bound:
        # the log-carrying module runs the ksrc > k branch with its PI powers
        assert with_pi


# ---------------------------------------------------------------------------
# hand-judged verdict loops: each returns the first failing basis pair
# (u, v), or None when the identity holds on the whole sweep
# ---------------------------------------------------------------------------

def loop_homomorphism(V, fn, weight_cutoff, halfwidth):
    basis = V.basis(weight_cutoff)
    for u in basis:
        fu = fn(Vec.basis(u))
        for v in basis:
            fv = fn(Vec.basis(v))
            for e in range(-halfwidth, halfwidth + 1):
                n = -e - 1
                if fn(V.mode_apply(u, n, v)) != V.mode_vec(fu, n, 0, fv):
                    return u, v


def loop_derivation(V, g, weight_cutoff, halfwidth):
    basis = V.basis(weight_cutoff)
    for u in basis:
        Ku = g.K_apply(Vec.basis(u))
        for v in basis:
            Kv = g.K_apply(Vec.basis(v))
            for e in range(-halfwidth, halfwidth + 1):
                n = -e - 1
                lhs = g.K_apply(V.mode_apply(u, n, v)) \
                    - V.mode_vec(Vec.basis(u), n, 0, Kv)
                if lhs != V.mode_vec(Ku, n, 0, Vec.basis(v)):
                    return u, v


def loop_conjugation(V, g, weight_cutoff, halfwidth):
    basis = V.basis(weight_cutoff)
    for u in basis:
        nu = nilpotent_power_coeffs(g, Vec.basis(u))
        for v in basis:
            nv = nilpotent_power_coeffs(g, Vec.basis(v))
            for e in range(-halfwidth, halfwidth + 1):
                n = -e - 1
                lhs_base = nilpotent_power_coeffs(g, V.mode_apply(u, n, v))
                kmax = max(len(lhs_base), len(nu) + len(nv)) - 1
                for k in range(kmax + 1):
                    lhs = lhs_base[k] if k < len(lhs_base) else Vec.zero()
                    rhs = Vec.zero()
                    for k1 in range(min(k, len(nu) - 1) + 1):
                        k2 = k - k1
                        if k2 < len(nv):
                            rhs = rhs + V.mode_vec(nu[k1], n, 0, nv[k2])
                    if lhs != rhs:
                        return u, v


def loop_L_minus1_derivative(V, weight_cutoff, halfwidth):
    basis = V.basis(weight_cutoff)
    for u in basis:
        lu = V.L_minus1(Vec.basis(u))
        for v in basis:
            vv = Vec.basis(v)
            lv = V.L_minus1(vv)
            for n in range(-halfwidth, halfwidth + 1):
                want = V.mode_apply(u, n - 1, v).scale(Fraction(-n))
                got = V.mode_vec(lu, n, 0, vv)
                comm = V.L_minus1(V.mode_apply(u, n, v)) \
                    - V.mode_vec(Vec.basis(u), n, 0, lv)
                if got != want or comm != want:
                    return u, v


def _heis3_unipotent(fault=None):
    V = build_heisenberg(GRAM3, fault=fault)
    return V, orthogonal_automorphism(V, UNIPOTENT3, "unipotent")


def _fermion_parity(fault=None):
    V = build_free_fermion(fault=fault)
    return V, parity_automorphism(V)


def _non_skew_K():
    V, g = _heis3_unipotent()
    return V, non_skew(V, g)


VERDICT_CASES = {
    "heis3": _heis3_unipotent,
    "fermion": _fermion_parity,
    "fermion-clifford-sign": lambda: _fermion_parity("clifford-sign"),
    "fermion-creation-sign": lambda: _fermion_parity("creation-sign"),
    "heis3-bracket-sign": lambda: _heis3_unipotent("bracket-sign"),
    "heis3-non-skew-K": _non_skew_K,
}


# the checks each fault is known to break; the rest hold under it
KILLED_BY = {"fermion-creation-sign": {"automorphism-homomorphism",
                                       "L(-1)-derivative"},
             "heis3-non-skew-K": {"automorphism-homomorphism",
                                  "nilpotent-derivation",
                                  "nilpotent-conjugation"}}


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_path_matches_loop_verdicts(case):
    V, g = VERDICT_CASES[case]()
    cut, hw = 2, 2
    verdicts = [(check_homomorphism(V, fn, cut, hw),
                 loop_homomorphism(V, fn, cut, hw))
                for fn in (g.apply, g.unipotent_exp, g.semisimple_exp)]
    verdicts += [(check(V, g, cut, hw), loop(V, g, cut, hw))
                 for check, loop in ((check_derivation, loop_derivation),
                                     (check_conjugation, loop_conjugation))]
    scan = {r.identity: r for r in check_axioms(V, cut, hw)}
    verdicts.append((scan["L(-1)-derivative"],
                     loop_L_minus1_derivative(V, cut, hw)))
    for record, failing_pair in verdicts:
        assert record.ok == (failing_pair is None), record.to_json()
        if failing_pair is not None:
            u, v = failing_pair
            assert (record.inputs["u"], record.inputs["v"]) == \
                (str(u), str(v)), record.to_json()
    assert {r.identity for r, _ in verdicts if not r.ok} == \
        KILLED_BY.get(case, set())


# ---------------------------------------------------------------------------
# the scalar ring with one Fraction per term, the form before numerators
# over one common denominator

def _ref_fold(terms: dict):
    if not terms:
        return 0
    if len(terms) == 1 and (0, 0) in terms:
        return terms[(0, 0)]
    return FractionScalar(terms)


def ref_terms_of(c) -> dict:
    if isinstance(c, FractionScalar):
        return c.terms
    return {(0, 0): c} if c else {}


def ref_scalar_json(c):
    terms = sorted(((p, Fraction(k, cyclotomic_level())), x)
                   for (p, k), x in ref_terms_of(c).items())
    return [{"pi_power": p, "phase": str(q), "coeff": str(x)}
            for (p, q), x in terms]


class FractionScalar:
    """A non-rational ring element as {(pi_power, phase numerator):
    rational coefficient}, each coefficient its own int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def e(q):
        L = cyclotomic_level()
        q = Fraction(q) * L
        if q.denominator != 1:
            raise CyclotomicLevelError("phase %s off the lattice" % (q / L))
        k = int(q) % (2 * L)
        if k >= L:
            return _ref_fold({(0, k - L): -1})
        return _ref_fold({(0, k): 1})

    @staticmethod
    def pi(power: int = 1):
        return _ref_fold({(int(power), 0): 1})

    def __add__(self, other):
        if isinstance(other, FractionScalar):
            ot = other.terms
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self
            ot = {(0, 0): other}
        else:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in ot.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                del terms[key]
        return _ref_fold(terms)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return 0
            return FractionScalar({k: c * other
                                   for k, c in self.terms.items()})
        if not isinstance(other, FractionScalar):
            return NotImplemented
        L = cyclotomic_level()
        terms = {}
        for (p1, k1), c1 in self.terms.items():
            for (p2, k2), c2 in other.terms.items():
                k = (k1 + k2) % (2 * L)
                c = c1 * c2
                if k >= L:
                    k -= L
                    c = -c
                key = (p1 + p2, k)
                s = terms.get(key)
                s = c if s is None else s + c
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return _ref_fold(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Fraction(other)
        return FractionScalar({k: c / other for k, c in self.terms.items()})

    def __pow__(self, n: int):
        out = 1
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, FractionScalar):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        parts = []
        for entry in ref_scalar_json(self):
            p, q, c = entry["pi_power"], entry["phase"], entry["coeff"]
            factors = []
            if c != "1" or (p == 0 and q == "0"):
                factors.append(c)
            if p == 1:
                factors.append("PI")
            elif p:
                factors.append("PI^%d" % p)
            if q != "0":
                factors.append("e(%s)" % q)
            parts.append("*".join(factors))
        return " + ".join(parts)


# one expression tree, evaluated in both rings: ints, Fractions, phases and
# PI powers under + - * / and **
ring_leaves = st.one_of(
    st.integers(-4, 4).map(lambda n: ("num", n)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(
        lambda q: ("num", q)),
    st.integers(-40, 40).map(lambda k: ("e", Fraction(k, 16))),
    st.integers(-2, 2).map(lambda p: ("pi", p)))
nonzero_rationals = st.fractions(min_value=-3, max_value=3,
                                 max_denominator=6).filter(bool)
ring_exprs = st.recursive(ring_leaves, lambda inner: st.one_of(
    st.tuples(st.sampled_from("+-*"), inner, inner),
    st.tuples(st.just("/"), inner, nonzero_rationals),
    st.tuples(st.just("**"), inner, st.integers(0, 3))), max_leaves=6)


def evaluate(expr, ring):
    op = expr[0]
    if op == "num":
        return expr[1]
    if op in ("e", "pi"):
        return getattr(ring, op)(expr[1])
    a = evaluate(expr[1], ring)
    if op == "/":
        return a / expr[2]
    if op == "**":
        return a ** expr[2]
    b = evaluate(expr[2], ring)
    return a + b if op == "+" else a - b if op == "-" else a * b


def assert_same_value(got, want, boxed):
    """got equals want in every form a report reads; boxed: got came out of
    an operation on a Scalar."""
    assert isinstance(got, Scalar) == isinstance(want, FractionScalar)
    assert str(got) == str(want) and scalar_json(got) == ref_scalar_json(want)
    assert hash(got) == hash(want)
    if isinstance(got, Scalar):
        # canonical: numerators over one denominator with no common factor,
        # never the rational (0, 0) term alone
        nums = list(got.terms.values())
        assert all(type(x) is int and x for x in nums)
        assert type(got.den) is int and got.den >= 1
        assert gcd(got.den, *nums) == 1
        assert set(got.terms) != {(0, 0)}
    elif boxed:
        # a Scalar folds back to an int, or to a Fraction that is not one
        assert type(got) is int or (type(got) is Fraction
                                    and got.denominator != 1)


@given(ring_exprs, ring_exprs, nonzero_rationals, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_scalar_ring_matches_fraction_reference(x, y, d, n):
    a, b = evaluate(x, Scalar), evaluate(y, Scalar)
    ra, rb = evaluate(x, FractionScalar), evaluate(y, FractionScalar)
    boxed_a = isinstance(a, Scalar)
    boxed_ab = boxed_a or isinstance(b, Scalar)
    for got, want, boxed in (
            (a, ra, False), (b, rb, False), (a + b, ra + rb, boxed_ab),
            (a - b, ra - rb, boxed_ab), (a * b, ra * rb, boxed_ab),
            (-a, -ra, boxed_a), (a / d, ra / d, boxed_a),
            (a ** n, ra ** n, boxed_a and n)):
        assert_same_value(got, want, boxed)
    assert (a == b) == (ra == rb)
    assert (a + b == b + a) and (ra + rb == rb + ra)
