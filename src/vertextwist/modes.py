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
r <= -2).  For u = a_(-1)1 (t = -1) that term is m = n with coefficient 1
on both sides of the coset, n <= q - 1 and q <= n <= m_hi, and there is no
correction, as a_(r)1 = 0 for r >= 0: Y(a_(-1)1, x) = Y(a, x), so such a
key returns the seed (Y)_n(a) w before q is formed.

Mode indices are lattice ints: N stands for n = N/D on (1/D)Z, D the
cyclotomic level, the same lattice the series exponents live on.  Index
arithmetic, range tests, memo keys and seed calls are int operations; the
seeds `gen_action` and `gen_apply` take the lattice int too.  So do the
callers: a chain slot asks for the mode N = -p - D at its lattice exponent
p, and `Space.modes` and the checkers walk cosets of lattice ints.

A mode of vectors, `apply_vec`, is one bilinear pass over the key pairs
of u and w (`scalars.bilinear`): `apply` runs once per (u key, w key)
pair and the products c_u c_w are summed into one vector.  A computed mode
is summed in place the same way: each term of the products, reversed
products and corrections above is a linear extension over a vector, and
`scalars.linear` adds it, times its coefficient, straight into the mode's
one `VecSum`, with no vector built per term.
"""

from __future__ import annotations

from functools import partial

from .errors import ExtensionInconsistent
from .scalars import (Vec, VecSum, bilinear, binomial, exponent, lattice,
                      linear)
from .series import D           # mode index N stands for N/D


class ModeOracle:
    """Memoized mode action (Y)_n(u) w for PBW keys u over a module Fock basis."""

    def __init__(self, algebra, gen_action, deg, alpha, shift=0):
        self.algebra = algebra
        self.gen_action = gen_action          # (gen_idx, N, module_key) -> Vec
        self.deg = deg                        # module_key -> Fraction >= 0
        self.alpha = alpha                    # gen_idx -> Fraction in [0,1)
        self.shift = shift
        self._memo = {}
        self._alpha_memo = {}
        self._deg_memo = {}
        self._wt_memo = {}

    # -- coset bookkeeping ---------------------------------------------------

    def coset(self, ukey) -> int:
        """The residue mod D of the mode indices u can carry."""
        a = self._alpha_memo.get(ukey)
        if a is None:
            a = sum(lattice(self.alpha(self.algebra.gen_index(f)))
                    for f in ukey) % D
            self._alpha_memo[ukey] = a
        return a

    def _lattice_deg(self, wkey) -> int:
        """The degree of a module key as a lattice int."""
        d = self._deg_memo.get(wkey)
        if d is None:
            d = self._deg_memo[wkey] = lattice(self.deg(wkey))
        return d

    def _lattice_wt(self, ukey) -> int:
        """The weight of a PBW key as a lattice int."""
        w = self._wt_memo.get(ukey)
        if w is None:
            w = self._wt_memo[ukey] = lattice(self.algebra.weight(ukey))
        return w

    def max_index(self, ukey, wkey) -> int:
        """Largest N with (Y)_N(u) w possibly nonzero, from lower-boundedness."""
        return self._lattice_deg(wkey) + self._lattice_wt(ukey) - D

    # -- mode action -----------------------------------------------------------

    def apply(self, ukey, N: int, wkey) -> Vec:
        key = (ukey, N, wkey)
        hit = self._memo.get(key)
        if hit is None:
            if not isinstance(N, int):
                raise TypeError("mode index %r is not a lattice int" % (N,))
            # a memo key has passed both checks; a mode they rule out is
            # zero and is not stored
            if (N - self.coset(ukey)) % D or N > self.max_index(ukey, wkey):
                return Vec.zero()
            hit = self._compute(ukey, N, wkey)
            self._memo[key] = hit
        return hit

    def apply_vec(self, uvec: Vec, N: int, wvec: Vec) -> Vec:
        """(Y)_n(u) w, bilinear in u and w: one `apply` per key pair."""
        return bilinear(lambda ukey, wkey: self.apply(ukey, N, wkey),
                        uvec, wvec)

    def _compute(self, ukey, N, wkey) -> Vec:
        if not ukey:
            return Vec.basis(wkey) if N == -D else Vec.zero()
        alg = self.algebra
        head, rest = ukey[0], ukey[1:]
        gidx = alg.gen_index(head)
        t = alg.spec_mode(head)
        if t == -1 and not rest:
            # a_(-1)1 = a: the seed itself (see the module docstring)
            return self.gen_action(gidx, N, wkey)
        T = t * D
        q = self.alpha(gidx) + self.shift     # the coset offset, rational
        Q = lattice(q)

        acc = VecSum()
        m_hi = self._lattice_deg(wkey) + lattice(alg.gen_weight(gidx)) - D
        if not rest:
            # u' is the vacuum, whose only nonzero mode is (Y)_(-1)(1) = 1:
            # each sum keeps its one term m = n+t+1, under its own range
            m = N + T + D
            c = 0
            if m <= Q + T:
                c += binomial(t, (Q + T - m) // D)
            if Q <= m <= m_hi:
                c -= binomial(t, (m - Q) // D)
            if c:
                c *= -1 if (Q + T - m) // D % 2 else 1
                acc.add(self.gen_action(gidx, m, wkey), c)
        else:
            sgn = -1 if (alg.gen_parity(gidx) and alg.parity(rest)) else 1
            # products: (Y)_m(a) acting after (Y)_(n+t-m)(u')
            m_lo = N + T - self.max_index(rest, wkey)
            m = Q + T
            while m >= m_lo:
                inner = self.apply(rest, N + T - m, wkey)
                if inner:
                    j = (Q + T - m) // D
                    c = binomial(t, j) * (-1 if j % 2 else 1)
                    if c:
                        linear(partial(self.gen_action, gidx, m), inner,
                               into=acc, c=c)
                m -= D
            # reversed products: (Y)_m(a) acting first
            m = Q
            while m <= m_hi:
                gw = self.gen_action(gidx, m, wkey)
                if gw:
                    j = (m - Q) // D
                    c = binomial(t, j) * (-1 if (t - j) % 2 else 1) * sgn
                    if c:
                        linear(partial(self.apply, rest, N + T - m), gw,
                               into=acc, c=-c)
                m += D
        # corrections from lower-weight composites a_(r)u'
        r = T + D
        r_hi = self._lattice_wt(rest) + lattice(alg.gen_weight(gidx)) - D
        while r <= r_hi:
            comp = alg.gen_apply(gidx, r, rest)
            if comp:
                c = binomial(q, (r - T) // D)
                if c:
                    Nr = N + T - r
                    linear(lambda ukey: self.apply(ukey, Nr, wkey), comp,
                           into=acc, c=-c)
            r += D
        return acc.vec()

    # -- construction-time consistency ----------------------------------------

    def crosscheck(self, basis_keys, module_keys):
        """Re-derive the four top modes of every (u, w) pair at a different
        shift; a mismatch means the seed is bad."""
        other = ModeOracle(self.algebra, self.gen_action, self.deg, self.alpha,
                           shift=self.shift + 1)
        for ukey in basis_keys:
            for wkey in module_keys:
                top = self.max_index(ukey, wkey)
                for N in range(top, top - 4 * D, -D):
                    if self.apply(ukey, N, wkey) != other.apply(ukey, N, wkey):
                        raise ExtensionInconsistent(
                            "mode (%r)_%s on %r differs between residue shifts"
                            % (ukey, exponent(N), wkey))
