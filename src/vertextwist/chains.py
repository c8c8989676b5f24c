"""Matrix elements of operator chains as windowed-lazy series.

A chain is <w', O_1(x_1) ... O_r(x_r) w> with one operator slot per variable.
Slots are applied right to left; each slot maps a coefficient request
(exponent, log power, incoming vector) to an outgoing vector.  Each slot
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
from .scalars import Vec, homogeneous_value
from .series import Series, exponent, lattice, lattice_coset


class Space:
    """A graded space with a basis: the degree and parity of basis keys, and
    matrix elements of chains of its own vertex operators."""

    def deg(self, key) -> Fraction:
        raise NotImplementedError

    def parity(self, key) -> int:
        raise NotImplementedError

    def vec_deg(self, vec: Vec) -> Fraction:
        return homogeneous_value(vec, self.deg)

    def vec_parity(self, vec: Vec) -> int:
        return homogeneous_value(vec, self.parity)

    def chain(self, vars, placed_ops, w: Vec, wprime: Vec = None):
        """<w'| ops |w> with placed_ops a list of (var_index, u vector)."""
        return ChainSeries(vars, [(i, OpSlot(self, u)) for i, u in placed_ops],
                           w, wprime)

    def me(self, u: Vec, w: Vec, wprime: Vec = None, var="x"):
        return self.chain((var,), [(0, u)], w, wprime)


def pair(wprime: Vec, vec: Vec):
    """Pairing against the orthonormal dual of the basis."""
    out = 0
    for key, c in wprime.items():
        out = out + c * vec.coeff(key)
    return out


class OpSlot:
    """Vertex-operator slot Y(u, x) over a module (twisted or plain); it
    reads and writes that module."""

    def __init__(self, module, uvec: Vec):
        self.module = self.source = self.target = module
        self.uvec = uvec
        self.wt = module.algebra_weight(uvec)
        self.parity = module.algebra_parity(uvec)
        al = module.algebra_coset(uvec)
        self._ecosets = frozenset(((-a - 1) % 1) for a in al)
        self.logmax = module.log_bound

    def ecosets(self, vec) -> frozenset:
        return self._ecosets

    def ecosets_meta(self) -> frozenset:
        return self._ecosets

    def apply(self, e: Fraction, k: int, vec: Vec) -> Vec:
        return self.module.mode_vec(self.uvec, -e - 1, k, vec)


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
            cosets[i] = frozenset(lattice(c) for c in s.ecosets_meta())
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
        pinned = self.wprime_deg is not None
        total = None
        if pinned:
            total = lattice(self.wprime_deg - self.w0_deg
                            - sum(s.wt for _, s in self.slots))

        nv = len(self.vars)

        def emit(assign, vec):
            powers = [0] * nv
            logs = [0] * nv
            for i, (e, k) in assign.items():
                powers[i] = e
                logs[i] = k
            m = (tuple(powers), tuple(logs))
            if not box.contains(m):
                return
            val = pair(self.wprime, vec) if self.wprime is not None else vec
            if not val:
                return
            prev = out.get(m)
            out[m] = val if prev is None else prev + val

        # exponents, degrees and weights below are lattice ints; a slot is
        # handed the rational exponent
        def rec(pos, vec, deg, esum, assign):
            if not vec:
                return
            idx, slot, wt = order[pos]
            last = pos == len(order) - 1
            caps = min(slot.logmax, box.logcaps[idx])
            if last and pinned:
                e = total - esum
                lo, hi = box.lows[idx], box.highs[idx]
                if (lo is not None and e < lo) or (hi is not None and e > hi):
                    return
                q = exponent(e)
                if not any((q - ec).denominator == 1
                           for ec in slot.ecosets(vec)):
                    return
                for k in range(caps + 1):
                    res = slot.apply(q, k, vec)
                    if res:
                        emit({**assign, idx: (e, k)}, res)
                return
            lo = -deg - wt
            if box.lows[idx] is not None:
                lo = max(lo, box.lows[idx])
            hi = box.highs[idx]
            if hi is None:
                raise InfiniteConvolution(
                    "chain enumeration unbounded in %s" % self.vars[idx])
            for r in sorted(lattice(c) for c in slot.ecosets(vec)):
                for e in lattice_coset(lo, hi, r):
                    q = exponent(e)
                    for k in range(caps + 1):
                        res = slot.apply(q, k, vec)
                        if res:
                            if last:
                                emit({**assign, idx: (e, k)}, res)
                            else:
                                rec(pos + 1, res, deg + wt + e, esum + e,
                                    {**assign, idx: (e, k)})

        rec(0, self.w0, lattice(self.w0_deg), 0, {})
        # rec reaches itself through its closure: break that cycle, so what
        # the closures hold is freed now, not at the next gc collection
        del rec
        return out
