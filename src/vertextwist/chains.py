"""Matrix elements of operator chains as windowed-lazy series.

A chain is <w', O_1(x_1) ... O_r(x_r) w> with one operator slot per variable.
Slots are applied right to left; each slot maps a coefficient request
(lattice exponent, log power, incoming vector) to an outgoing vector and
names the exponent cosets it can carry as residues mod D: indices are the
lattice ints of `series.py` from the chain's box to the mode oracle, and
none is converted on the way.  Each slot
names the graded space it reads and the one it writes, so a chain reads the
degree of w from its rightmost slot's source and that of w' from its
leftmost slot's target.  Weight grading makes every requested coefficient a
finite (usually single-term) sum, and when w' is supplied its degree pins
the leftmost exponent outright.

`Space` is the base of every graded space a chain runs over, the algebras
and their twisted modules alike.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfiniteConvolution
from .scalars import Vec, homogeneous_value, pair
from .series import D, Series, lattice, lattice_coset, lattice_mono


class Space:
    """A graded space with a basis: the degree and parity of basis keys, the
    modes of its own vertex operators, read from its mode oracle `oracle`,
    and matrix elements of chains of them."""

    def deg(self, key) -> Fraction:
        raise NotImplementedError

    def parity(self, key) -> int:
        raise NotImplementedError

    def mode_vec(self, uvec: Vec, N: int, k, wvec: Vec) -> Vec:
        """The log-free mode u_n w at the lattice int N of n, read from the
        space's mode oracle; zero at every log power k > 0."""
        if k:
            return Vec.zero()
        return self.oracle.apply_vec(uvec, N, wvec)

    def algebra_alpha(self, uvec: Vec) -> Fraction:
        """The one coset alpha of the mode indices of u, read from the
        subclass's `algebra_coset`; u must be g-homogeneous."""
        cs = self.algebra_coset(uvec)
        if len(cs) != 1:
            raise ValueError("vector is not g-homogeneous: cosets %s" % sorted(cs))
        return next(iter(cs))

    def modes(self, uvec: Vec, wvec: Vec, lo: int):
        """The nonzero (N, u_n w), N the lattice int of n, over the coset of
        u, from the top deg w + wt u - 1 that lower truncation allows down
        to the lattice int lo; a generator, so a scan for the top nonzero
        mode stops at it."""
        top = lattice(self.vec_deg(wvec) + self.algebra_weight(uvec)) - D
        for N in reversed(lattice_coset(lo, top,
                                        lattice(self.algebra_alpha(uvec)))):
            vn = self.mode_vec(uvec, N, 0, wvec)
            if vn:
                yield N, vn

    def pole_modes(self, uvec: Vec, wvec: Vec):
        """The nonzero (K, u_(alpha+k) w), K = k*D the lattice int of
        k >= 0, from the top down: the modes of Y(u, x)w at or above alpha,
        whose x^(-k-1) are the poles of x^alpha Y(u, x)w."""
        al = lattice(self.algebra_alpha(uvec))
        return ((N - al, vn) for N, vn in self.modes(uvec, wvec, al))

    def vec_deg(self, vec: Vec) -> Fraction:
        return homogeneous_value(vec, self.deg)

    def vec_parity(self, vec: Vec) -> int:
        return homogeneous_value(vec, self.parity)

    def ordered_basis(self, keys, max_deg, order, revlex=None) -> list:
        """The keys of degree at most max_deg, by degree and then by the key
        itself (weight-lex) or by revlex(key), the reversed key unless
        given (weight-revlex)."""
        if order == "weight-lex":
            tie = lambda k: k
        elif order == "weight-revlex":
            tie = revlex or (lambda k: tuple(reversed(k)))
        else:
            raise ValueError("unknown basis order %r" % order)
        deg = self.deg
        return sorted((k for k in keys if deg(k) <= max_deg),
                      key=lambda k: (deg(k), tie(k)))

    def chain(self, vars, placed_ops, w: Vec, wprime: Vec = None):
        """<w'| ops |w> with placed_ops a list of (var_index, u vector)."""
        return ChainSeries(vars, [(i, OpSlot(self, u)) for i, u in placed_ops],
                           w, wprime)

    def me(self, u: Vec, w: Vec, wprime: Vec = None):
        return self.chain(("x",), [(0, u)], w, wprime)


def pole_order(pole_modes) -> int:
    """The order of the pole of x^alpha Y(u, x)w, read from its
    `Space.pole_modes`: k + 1 for the top one, 0 when there is none."""
    for K, _ in pole_modes:
        return K // D + 1
    return 0


class OpSlot:
    """Vertex-operator slot Y(u, x) over a module (twisted or plain); it
    reads and writes that module."""

    def __init__(self, module, uvec: Vec):
        self.module = self.source = self.target = module
        self.uvec = uvec
        self.wt = module.algebra_weight(uvec)
        self.parity = module.algebra_parity(uvec)
        # e = -n - 1 for the modes n of u, as residues mod D
        self._ecosets = frozenset((-lattice(a) - D) % D
                                  for a in module.algebra_coset(uvec))
        self.logmax = module.log_bound

    def ecosets(self, vec) -> frozenset:
        return self._ecosets

    def ecosets_meta(self) -> frozenset:
        return self._ecosets

    def apply(self, p: int, k: int, vec: Vec) -> Vec:
        return self.module.mode_vec(self.uvec, -p - D, k, vec)


class ChainSeries(Series):
    """<w'| slots |w> as a series; wprime=None yields vector coefficients."""

    def __init__(self, vars, slots, w0: Vec, wprime: Vec = None):
        w0_deg = slots[-1][1].source.vec_deg(w0)
        wprime_deg = None if wprime is None \
            else slots[0][1].target.vec_deg(wprime)
        n = len(vars)
        bounds = [(0, 0)] * n
        cosets = [frozenset((0,))] * n
        logmax = [0] * n
        slot_idx = [i for i, _ in slots]
        for pos, (i, s) in enumerate(slots):
            lo = hi = None
            if pos == len(slots) - 1:
                # rightmost operator acts on w directly
                lo = lattice(-w0_deg - s.wt)
            if pos == 0 and wprime_deg is not None:
                hi = lattice(wprime_deg - s.wt)
            bounds[i] = (lo, hi)
            cosets[i] = s.ecosets_meta()
            logmax[i] = s.logmax
        super().__init__(vars, bounds, cosets, logmax)
        self.slots = list(slots)
        self.w0, self.w0_deg = w0, w0_deg
        self.wprime, self.wprime_deg = wprime, wprime_deg
        self._slot_idx = slot_idx

    def _terms_in(self, box):
        # non-slot variables only ever carry exponent 0, log 0
        for i in range(len(self.vars)):
            if i in self._slot_idx:
                continue
            lo, hi = box.lows[i], box.highs[i]
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return {}
        out = {}
        # (variable, slot, lattice weight), rightmost slot first
        order = [(i, s, lattice(s.wt)) for i, s in reversed(self.slots)]
        wp = None if self.wprime is None else lattice(self.wprime_deg)

        nv = len(self.vars)

        def emit(assign, vec):
            powers = [0] * nv
            logs = [0] * nv
            for i, (e, k) in assign.items():
                powers[i] = e
                logs[i] = k
            m = lattice_mono(powers, logs)
            if not box.contains(m):
                return
            # each slot's exponent cosets are distinct residues, so no two
            # assignments give one monomial
            val = pair(self.wprime, vec) if self.wprime is not None else vec
            if val:
                out[m] = val

        # exponents, degrees, weights and cosets below are lattice ints, and
        # a slot is handed its lattice exponent
        def rec(pos, vec, deg, assign):
            if not vec:
                return
            idx, slot, wt = order[pos]
            last = pos == len(order) - 1
            caps = min(slot.logmax, box.logcaps[idx])
            # below -deg - wt every slot gives zero (lower truncation)
            lo, hi = -deg - wt, box.highs[idx]
            if box.lows[idx] is not None:
                lo = max(lo, box.lows[idx])
            if last and wp is not None:
                # the degree of w' pins the leftmost exponent
                pin = wp - deg - wt
                lo, hi = max(lo, pin), pin if hi is None else min(hi, pin)
            if hi is None:
                raise InfiniteConvolution(
                    "chain enumeration unbounded in %s" % self.vars[idx])
            for r in sorted(slot.ecosets(vec)):
                for e in lattice_coset(lo, hi, r):
                    for k in range(caps + 1):
                        res = slot.apply(e, k, vec)
                        if res:
                            if last:
                                emit({**assign, idx: (e, k)}, res)
                            else:
                                rec(pos + 1, res, deg + wt + e,
                                    {**assign, idx: (e, k)})

        rec(0, self.w0, lattice(self.w0_deg), {})
        # rec reaches itself through its closure: break that cycle, so what
        # the closures hold is freed now, not at the next gc collection
        del rec
        return out
