"""Recursive construction of composite vertex-operator modes from generator seeds.

A module over a free-field algebra is presented by the action of generator
modes on its Fock basis.  Modes of composite states a_(t)u' are produced by
extracting the x1-residue of the Jacobi identity after clearing the generator's
exponent coset: with q = alpha(a) + s,

  (Y)_n(a_(t)u') w =
      sum_{m <= q+t} (-1)^(q+t-m) C(t, q+t-m) (Y)_m(a) (Y)_(n+t-m)(u') w
    - (-1)^{|a||u'|} sum_{m >= q} (-1)^(t+q-m) C(t, m-q) (Y)_(n+t-m)(u') (Y)_m(a) w
    - sum_{r > t} C(q, r-t) (Y)_(n+t-r)(a_(r)u') w,

all sums finite by lower truncation.  With alpha = 0 and s = 0 this is the
ordinary iterate formula, so the same recursion serves the algebra acting on
itself and a twisted module over it.  It applies verbatim only when the
automorphism acts semisimply on the module (no log terms are generated).

When u' is the vacuum its only nonzero mode is (Y)_(-1)(1) = 1, so each of
the first two sums collapses to its one term m = n+t+1, kept when m lies in
that sum's range; the corrections from a_(r)u' stay (a_(r)1 is nonzero for
r <= -2).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExtensionInconsistent
from .scalars import Vec, acc_vec, binomial, vec_of


class ModeOracle:
    """Memoized mode action (Y)_n(u) w for PBW keys u over a module Fock basis."""

    def __init__(self, algebra, gen_action, deg, alpha, shift=0):
        self.algebra = algebra
        self.gen_action = gen_action          # (gen_idx, n, module_key) -> Vec
        self.deg = deg                        # module_key -> Fraction >= 0
        self.alpha = alpha                    # gen_idx -> Fraction in [0,1)
        self.shift = shift
        self._memo = {}
        self._alpha_memo = {}

    # -- coset bookkeeping ---------------------------------------------------

    def coset(self, ukey):
        a = self._alpha_memo.get(ukey)
        if a is None:
            a = sum(self.alpha(self.algebra.gen_index(f)) for f in ukey) % 1
            self._alpha_memo[ukey] = a
        return a

    def max_index(self, ukey, wkey) -> Fraction:
        """Largest n with (Y)_n(u) w possibly nonzero, from lower-boundedness."""
        return self.deg(wkey) + self.algebra.weight(ukey) - 1

    # -- mode action -----------------------------------------------------------

    def apply(self, ukey, n: Fraction, wkey) -> Vec:
        key = (ukey, n, wkey)
        hit = self._memo.get(key)
        if hit is None:
            # a memo key has passed both checks; a mode they rule out is
            # zero and is not stored
            if (n - self.coset(ukey)).denominator != 1 \
                    or n > self.max_index(ukey, wkey):
                return Vec.zero()
            hit = self._compute(ukey, n, wkey)
            self._memo[key] = hit
        return hit

    def apply_vec(self, uvec: Vec, n: Fraction, wvec: Vec) -> Vec:
        acc = {}
        for ukey, cu in uvec.items():
            for wkey, cw in wvec.items():
                r = self.apply(ukey, n, wkey)
                if r:
                    acc_vec(acc, r, cu * cw)
        return vec_of(acc)

    def _gen_on_vec(self, gidx, m, vec: Vec) -> Vec:
        acc = {}
        for k, c in vec.items():
            r = self.gen_action(gidx, m, k)
            if r:
                acc_vec(acc, r, c)
        return vec_of(acc)

    def _compute(self, ukey, n, wkey) -> Vec:
        if not ukey:
            return Vec.basis(wkey) if n == -1 else Vec.zero()
        alg = self.algebra
        head, rest = ukey[0], ukey[1:]
        gidx = alg.gen_index(head)
        t = alg.spec_mode(head)
        al = self.alpha(gidx)
        q = al + self.shift

        acc = {}
        m_hi = self.deg(wkey) + alg.gen_weight(gidx) - 1
        if not rest:
            # u' is the vacuum, whose only nonzero mode is (Y)_(-1)(1) = 1:
            # each sum keeps its one term m = n+t+1, under its own range
            m = n + t + 1
            c = 0
            if m <= q + t:
                c += binomial(t, q + t - m)
            if q <= m <= m_hi:
                c -= binomial(t, m - q)
            if c:
                c *= 1 if int(q + t - m) % 2 == 0 else -1
                acc_vec(acc, self.gen_action(gidx, m, wkey), c)
        else:
            sgn = -1 if (alg.gen_parity(gidx) and alg.parity(rest)) else 1
            # products: (Y)_m(a) acting after (Y)_(n+t-m)(u')
            m_lo = n + t - (self.deg(wkey) + alg.weight(rest) - 1)
            m = q + t
            while m >= m_lo:
                inner = self.apply(rest, n + t - m, wkey)
                if inner:
                    j = q + t - m
                    c = binomial(t, j) * (1 if int(j) % 2 == 0 else -1)
                    if c:
                        acc_vec(acc, self._gen_on_vec(gidx, m, inner), c)
                m -= 1
            # reversed products: (Y)_m(a) acting first
            m = q
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
        # corrections from lower-weight composites a_(r)u'
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

    def gen_action_algebra(self, gidx, r, restkey) -> Vec:
        """V-side mode a_(r) on a V basis key (re-expansion of composites)."""
        return self.algebra.gen_apply(gidx, r, restkey)

    # -- construction-time consistency ----------------------------------------

    def crosscheck(self, basis_keys, module_keys, depth: Fraction = 2):
        """Re-derive low modes at a different shift; mismatch means the seed is bad."""
        other = ModeOracle(self.algebra, self.gen_action, self.deg, self.alpha,
                           shift=self.shift + 1)
        for ukey in basis_keys:
            if self.algebra.weight(ukey) > depth:
                continue
            for wkey in module_keys:
                if self.deg(wkey) > depth:
                    continue
                top = self.max_index(ukey, wkey)
                n = top
                while n >= top - 3:
                    a = self.apply(ukey, n, wkey)
                    b = other.apply(ukey, n, wkey)
                    if a != b:
                        raise ExtensionInconsistent(
                            "mode (%r)_%s on %r differs between residue shifts"
                            % (ukey, n, wkey))
                    n -= 1
