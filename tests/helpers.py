"""Helpers shared by the test modules: the unipotent-view model, a K that
is not skew, the located-failure assertion, a module built without its
construction-time crosscheck, the canonical-form assertion, and the twist
slot's reference under the rational slot protocol."""

import re
from fractions import Fraction
from functools import partial
from math import ceil, factorial, floor, gcd

import pytest

from vertextwist.errors import InfiniteConvolution
from vertextwist.modes import ModeOracle
from vertextwist.scalars import (Scalar, Vec, VecSum, binomial,
                                 cyclotomic_level, exponent, lattice, linear,
                                 _UNIT)
from vertextwist.series import D, lattice_coset
from vertextwist.twisted import UnipotentViewModule


def build_unipotent_toy(heis3, unip):
    """The rank-3 algebra viewed as a module twisted by its unipotent isometry."""
    return UnipotentViewModule("heis3-unipotent-view", heis3, unip)


def non_skew(heis3, g):
    # K b = -c, K c = 0: nilpotent, but not skew for the Gram form
    b_index = [gen.name for gen in heis3.gens].index("b")
    g.gen_K = lambda gidx: -heis3.gen_vector("c") if gidx == b_index \
        else Vec.zero()
    return g


def without_crosscheck(build, *args, **kwargs):
    """build(*args, **kwargs) with `ModeOracle.crosscheck` patched out, so
    that a module builds under a seed fault the crosscheck refuses, and its
    mode oracle starts cold."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModeOracle, "crosscheck", lambda self, *args: None)
        return build(*args, **kwargs)


_VAR = r"[a-z]\w*"
_FACTOR = r"(%s\^-?\d+(/\d+)?|log\(%s\)(\^\d+)?)" % (_VAR, _VAR)
MONOMIAL = re.compile(r"1|%s(\*%s)*" % (_FACTOR, _FACTOR))


def assert_located(r, identity):
    """r fails `identity` on a window, at a monomial over its variables."""
    assert not r.ok and r.identity == identity, r.to_json()
    assert r.window, r.to_json()
    m = r.first_mismatch["monomial"]
    assert MONOMIAL.fullmatch(m), m
    assert set(re.findall(_VAR + r"(?=\^|\))", m)) <= set(r.window), m
    assert {"lhs", "rhs"} <= set(r.first_mismatch)


def assert_canonical(x, boxed=False):
    """x is in its canonical stored form.  A Vec or a Scalar holds nonzero
    int numerators over an int denominator >= 1 with no common factor, and
    its phased keys are folded: (p, k) != (0, 0), 0 <= k < M.  A Scalar is
    a vector on the one key _UNIT with at least one phased term, so its
    rational part never stands alone.  Any other value is an int or a
    Fraction, and an int or a Fraction that is not one when `boxed`: when
    it came out of an operation on a Scalar."""
    if not isinstance(x, (Scalar, Vec)):
        assert type(x) is int or (type(x) is Fraction and not (
            boxed and x.denominator == 1)), repr(x)
        return
    rat, phased, den = x._rat, x._phased, x._den
    nums = [*rat.values(), *phased.values()]
    assert all(type(n) is int and n for n in nums), x
    assert type(den) is int and den >= 1 and gcd(den, *nums) == 1, x
    assert all((p, k) != (0, 0) and 0 <= k < cyclotomic_level()
               for _, p, k in phased), x
    if isinstance(x, Scalar):
        assert set(rat) <= {_UNIT} and phased, x
        assert all(u is _UNIT for u, _, _ in phased), x


# ---------------------------------------------------------------------------
# the twist slot under the rational slot protocol
# ---------------------------------------------------------------------------

def loop_coset_range(lo, hi, offset):
    """Exponents p in offset+Z with lo <= p <= hi (either side may be None):
    the rational view of `lattice_coset`."""
    if lo is None or hi is None:
        raise InfiniteConvolution("unbounded coset enumeration")
    return map(exponent, lattice_coset(ceil(lo * D), floor(hi * D),
                                       lattice(offset)))


def fraction_coset_universe(module) -> frozenset:
    """All g-weights reachable by PBW monomials, as rationals in [0, 1)."""
    gens = {module.g.gen_alpha(i) for i in range(len(module.V.gens))}
    out = {Fraction(0)}
    frontier = set(out)
    while frontier:
        new = {(a + b) % 1 for a in frontier for b in gens} - out
        out |= new
        frontier = new
    return frozenset(out)


class FractionTwistOpSlot:
    """`TwistOpSlot` under the rational slot protocol: exponent cosets as
    rationals in [0, 1), and T(w, x)v at x^e log^k x as L(-1)^j / j!
    applied to each base vector of a rational mode walk, with no table.
    `divisor` (j!) and `phase` (e^{-pi i (n+1)}, from y^n = e^{pi i n} x^n)
    are there to plant the two slot faults."""

    def __init__(self, module, w_arg: Vec, divisor=factorial, phase=True):
        self.module, self.w_arg = module, w_arg
        self.divisor, self.phase = divisor, phase
        self.wt = module.vec_deg(w_arg)
        self.parity = module.vec_parity(w_arg)

    def ecosets_meta(self) -> frozenset:
        return frozenset(((-b - 1) % 1)
                         for b in fraction_coset_universe(self.module))

    def ecosets(self, vec) -> frozenset:
        out = frozenset(((-b - 1) % 1)
                        for b in self.module.algebra_coset(vec))
        return out or frozenset((Fraction(0),))

    def apply(self, e: Fraction, k: int, vec: Vec) -> Vec:
        return linear(partial(self.apply_key, e, k), vec)

    def apply_key(self, e, k, vkey) -> Vec:
        W = self.module
        V = W.V
        sgn = (-1) ** (V.parity(vkey) * self.parity)
        acc = VecSum()
        n_hi = self.wt + V.weight(vkey) - 1
        for beta, piece in W.g.alpha_decompose_key(vkey).items():
            for n in loop_coset_range(-e - 1, n_hi, beta % 1):
                j = int(e + n + 1)
                for ksrc in range(k, W.log_bound + 1):
                    base = W.mode_vec(piece, lattice(n), ksrc, self.w_arg)
                    if not base:
                        continue
                    c = binomial(ksrc, k) * (Scalar.pi() ** (ksrc - k))
                    if self.phase:
                        c = Scalar.e(-n - 1) * c
                    for _ in range(j):
                        base = W.L_minus1(base)
                    if base:
                        acc.add(base, sgn * c * Fraction(1, self.divisor(j)))
        return acc.vec()
