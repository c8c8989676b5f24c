"""Windowed-lazy multivariate Laurent series with rational exponents and logs.

A series knows its variable tuple, conservative per-variable support bounds,
exponent cosets and log-power bounds, and can materialize its exact terms on
any box.  A box is a per-variable exponent interval (sides may be unbounded)
plus a log-power cap; a fully bounded box is a window.  Materialization must
either be certifiably finite or raise InfiniteConvolution.

Exponents are stored as ints p standing for p/M on the lattice (1/M)Z, M the
cyclotomic level: the lattice the phases e^{pi i q} of the scalar ring live
on.  Monomial exponents, box bounds and support bounds are such ints, and a
coset is an int residue mod M.  Rationals enter through `mono`, `Box.cube`
and `lattice`, and are read back through `exponent`.

A monomial in n variables is one int of 2n fixed-width balanced signed
fields: from the most significant, the lattice exponent of each variable in
order, then the log power of each variable in order.  The sum of two packed
monomials is the packing of their fieldwise sum, so multiplying monomials
is one int add, and int order is the canonical (exponents, log powers)
order the first mismatch is found in.  A box packs its bounds once, and a
monomial lies in it when two guard-bit tests pass.  Only this module knows
the layout: monomials are built by `mono` (rationals) or `lattice_mono`
(lattice ints), read back by `mono_parts`, and shifted in one variable by
multiples of `exp_unit` and `log_unit`.  A field value outside the packed
range raises MonomialOverflow rather than spill into its neighbour.

Coefficients are scalars in canonical form (an int or Fraction while
rational, a Scalar once a phase or PI appears), or Vec for operator-valued
series; a product may mix the two as long as at most one factor is
vector-valued.

Every kernel is one node, `BinomialKernel`: the binomial expansion
(x_lead + sign*x_exp)^q in x_exp, with terms
    [e^{pi i q} if minus] * C(q, j) * sign^j * x_lead^(q-j) * x_exp^j
      * den^(-q-1),  j >= 0.
Without a denominator variable, q is the one exponent A: the binomial and
the minus conventions.  With one, q runs over A+Z as far as the box
reaches in den: every delta function of the Jacobi identities and the
commutator formula, dressed by ((x_lead + sign*x_exp)/den)^A.  Without an
expansion variable only j = 0 is left, the plain delta den^{-1}
delta(x_lead/den), and `delta_derivative` is (1/k!) d^k of it in x_lead.

Every term-wise transform of one series is one node, `_TermMap`: scaling,
the branch shift and the substitution y -> -x, d/dx, the residue, a fixed
mode or L(-1) applied to each vector coefficient, the log shift (times
(log x)^k) and the restriction to the monomials a predicate keeps.  Every
side of an identity is a `Series`.  Coinciding terms are summed by
`acc_terms`, or inline in the convolution loop of `Product`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

from .errors import (InfiniteConvolution, MonomialOverflow,
                     NonMeromorphicVariable)
from .scalars import (Scalar, Vec, binomial, cyclotomic_level, exact,
                      exponent, lattice, scalar_json)

D = cyclotomic_level()          # lattice scale: exponent p stands for p/D


def c_mul(a, b):
    if isinstance(b, Vec):
        return b.scale(a)
    if isinstance(a, Vec):
        return a.scale(b)
    return a * b


# ---------------------------------------------------------------------------
# monomials and boxes
# ---------------------------------------------------------------------------

# Field width in bits: a monomial in three variables fits three 30-bit digits
# of a Python int.  Stored fields lie in [-_LIMIT, _LIMIT), so the sum of two
# stored monomials, less a box bound, stays within the guard range
# [-_HALF, _HALF) of every field, and no test borrows across fields.
_WIDTH = 15
_MASK = (1 << _WIDTH) - 1
_HALF = 1 << (_WIDTH - 1)            # a field's guard bit
_LIMIT = 1 << (_WIDTH - 3)


def _guard(fields: int) -> int:
    """The guard bit of each of the lowest `fields` fields."""
    return _HALF * (((1 << (_WIDTH * fields)) - 1) // _MASK)


def _check_fields(fields):
    """MonomialOverflow unless every value fits a stored field."""
    if not fields:
        return
    lo, hi = min(fields), max(fields)
    if lo < -_LIMIT or hi >= _LIMIT:
        raise MonomialOverflow(
            "monomial field %d outside the packed range [%d, %d) (a lattice "
            "exponent p stands for p/%d)"
            % (lo if lo < -_LIMIT else hi, -_LIMIT, _LIMIT, D))


def _pack(fields) -> int:
    _check_fields(fields)
    m = 0
    for v in fields:
        m = (m << _WIDTH) + v
    return m


def _columns(ms, fields: int) -> list:
    """The fields of the packed ints ms, one list per field from the most
    significant.  Adding the guard bits lifts every field into [0, 2^_WIDTH),
    so that each is read off on its own."""
    g = _guard(fields)
    us = [m + g for m in ms]
    return [[((u >> s) & _MASK) - _HALF for u in us]
            for s in range(_WIDTH * (fields - 1), -1, -_WIDTH)]


def lattice_mono(powers, logs=None) -> int:
    """The monomial of lattice-int exponents and log powers (default 0)."""
    if logs is None:
        return _pack(powers) << (_WIDTH * len(powers))
    return _pack((*powers, *logs))


def mono(powers, logs=None) -> int:
    """The monomial of rational exponents and log powers (default 0)."""
    return lattice_mono([lattice(p) for p in powers],
                        None if logs is None else [int(k) for k in logs])


def mono_parts(m: int, n: int):
    """(lattice exponents, log powers) of a monomial in n variables; one
    column of `_columns`."""
    u = m + _guard(2 * n)
    fields = [((u >> s) & _MASK) - _HALF
              for s in range(_WIDTH * (2 * n - 1), -1, -_WIDTH)]
    return tuple(fields[:n]), tuple(fields[n:])


def exp_unit(idx: int, n: int) -> int:
    """Adding it raises the lattice exponent of variable idx by one."""
    return 1 << (_WIDTH * (2 * n - 1 - idx))


def log_unit(idx: int, n: int) -> int:
    """Adding it raises the log power of variable idx by one."""
    return 1 << (_WIDTH * (n - 1 - idx))


def mono_add(m1, m2):
    """The product of two monomials."""
    return m1 + m2


class Box:
    """Per-variable lattice-int exponent interval (None = unbounded side)
    plus log caps, packed once into a low and a high monomial; an unbounded
    side packs as the end of the field range."""

    __slots__ = ("lows", "highs", "logcaps", "_lo", "_hi", "_g")

    def __init__(self, lows, highs, logcaps):
        self.lows = tuple(lows)
        self.highs = tuple(highs)
        self.logcaps = tuple(logcaps)
        n = len(self.lows)
        g = self._g = _guard(2 * n)
        # contains(m) tests the guard bits of m - lo + g and hi - m + g; the
        # log fields of lo are 0, as no log power is negative
        self._lo = g - (_pack([-_LIMIT if p is None else p
                               for p in self.lows]) << (_WIDTH * n))
        self._hi = g + _pack([_LIMIT - 1 if p is None else p
                              for p in self.highs] + list(self.logcaps))

    @staticmethod
    def cube(nvars: int, lo, hi, logcap: int = 0) -> "Box":
        """The box lo <= p <= hi in every variable, lo and hi rational."""
        return Box((lattice(lo),) * nvars, (lattice(hi),) * nvars,
                   (int(logcap),) * nvars)

    def contains(self, m) -> bool:
        """Whether m lies in the box, an unbounded side holding the packed
        range; exact for a monomial and for the sum of two, since every
        field of m - lo and of hi - m then stays in the guard range."""
        g = self._g
        return (m + self._lo) & g == g and (self._hi - m) & g == g

    def with_var(self, idx: int, lo, hi, logcap=None) -> "Box":
        lows = list(self.lows)
        highs = list(self.highs)
        caps = list(self.logcaps)
        lows[idx], highs[idx] = lo, hi
        if logcap is not None:
            caps[idx] = logcap
        return Box(lows, highs, caps)

    def minus_bounds(self, bounds) -> "Box":
        """Box that one convolution factor must cover, given the other's
        exponent bounds; its log caps are the box's own, since the other
        factor's log powers are >= 0."""
        lows, highs = [], []
        for lo, hi, (blo, bhi) in zip(self.lows, self.highs, bounds):
            lows.append(None if (lo is None or bhi is None) else lo - bhi)
            highs.append(None if (hi is None or blo is None) else hi - blo)
        return Box(lows, highs, self.logcaps)

    def key(self):
        return (self.lows, self.highs, self.logcaps)

    def __repr__(self):
        rng = ",".join("[%s,%s]" % tuple(None if p is None else exponent(p)
                                         for p in side)
                       for side in zip(self.lows, self.highs))
        return "Box(%s; logs<=%s)" % (rng, self.logcaps)


def lattice_coset(lo: int, hi: int, r: int) -> range:
    """Lattice ints p = r mod D with lo <= p <= hi (either side may be None)."""
    if lo is None or hi is None:
        raise InfiniteConvolution("unbounded coset enumeration")
    return range(lo + (r - lo) % D, hi + 1, D)


# ---------------------------------------------------------------------------
# series protocol
# ---------------------------------------------------------------------------

class Series:
    """Base class; subclasses fill vars/bounds/cosets/logmax and _terms_in."""

    def __init__(self, vars, bounds, cosets, logmax):
        self.vars = tuple(vars)
        self.bounds = tuple(bounds)
        self.cosets = tuple(frozenset(c) for c in cosets)
        self.logmax = tuple(logmax)
        self._cache = {}

    def terms_in(self, box: Box) -> dict:
        key = box.key()
        hit = self._cache.get(key)
        if hit is None:
            hit = {m: c for m, c in self._terms_in(box).items() if c}
            self._cache[key] = hit
        return hit

    def _terms_in(self, box: Box) -> dict:
        raise NotImplementedError


class TermSeries(Series):
    """Finite explicit Laurent polynomial (possibly with logs)."""

    def __init__(self, vars, terms=None):
        terms = {m: c for m, c in (terms or {}).items() if c}
        n = len(vars)
        if terms:
            cols = _columns(terms, 2 * n)
            lows, highs = [min(c) for c in cols], [max(c) for c in cols]
            # a term made by adding monomials is range-checked here
            _check_fields(lows + highs)
            bounds = list(zip(lows[:n], highs[:n]))
            logmax = highs[n:]
            cosets = [frozenset(p % D for p in c) for c in cols[:n]]
        else:
            bounds = [(0, 0)] * n
            logmax = [0] * n
            cosets = [frozenset((0,))] * n
        super().__init__(vars, bounds, cosets, logmax)
        self.terms = terms

    def _terms_in(self, box):
        return {m: c for m, c in self.terms.items() if box.contains(m)}

    @staticmethod
    def monomial(vars, powers, logs=None, coeff=1) -> "TermSeries":
        return TermSeries(vars, {mono(powers, logs): coeff})

    @staticmethod
    def constant(vars, coeff) -> "TermSeries":
        return TermSeries(vars, {mono((0,) * len(vars)): coeff})

    @staticmethod
    def zero(vars) -> "TermSeries":
        return TermSeries(vars, {})


def acc_terms(out: dict, terms) -> dict:
    """Add (monomial, coefficient) pairs into out, summing coinciding
    monomials; returns out."""
    get = out.get
    for m, c in terms:
        prev = get(m)
        out[m] = c if prev is None else prev + c
    return out


class Sum(Series):
    def __init__(self, parts):
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Sum) else [p])
        vars = flat[0].vars
        n = len(vars)
        lows, highs, cosets, logmax = [], [], [], []
        for i in range(n):
            los = [p.bounds[i][0] for p in flat]
            his = [p.bounds[i][1] for p in flat]
            lows.append(None if any(x is None for x in los) else min(los))
            highs.append(None if any(x is None for x in his) else max(his))
            cosets.append(frozenset().union(*(p.cosets[i] for p in flat)))
            logmax.append(max(p.logmax[i] for p in flat))
        super().__init__(vars, zip(lows, highs), cosets, logmax)
        self.parts = flat

    def _terms_in(self, box):
        out = {}
        for p in self.parts:
            acc_terms(out, p.terms_in(box).items())
        return out


def _hull(terms, n: int) -> list:
    """Per variable, the least and the greatest lattice exponent of the
    terms' monomials."""
    return [(min(c), max(c)) for c in _columns(terms, 2 * n)[:n]]


def _check_open_sides(box: Box, ha, hb):
    """MonomialOverflow when the sum of two monomials with exponent hulls ha
    and hb may leave the packed range on an unbounded side of the box, whose
    guard test would drop it."""
    for lo, hi, (alo, ahi), (blo, bhi) in zip(box.lows, box.highs, ha, hb):
        if (lo is None and alo + blo < -_LIMIT
                or hi is None and ahi + bhi >= _LIMIT):
            raise MonomialOverflow(
                "a product's exponents may leave the packed range [%d, %d)"
                % (-_LIMIT, _LIMIT))


class Product(Series):
    def __init__(self, a: Series, b: Series):
        if a.vars != b.vars:
            raise ValueError("factors must share a variable tuple")
        n = len(a.vars)
        bounds, cosets, logmax = [], [], []
        for i in range(n):
            alo, ahi = a.bounds[i]
            blo, bhi = b.bounds[i]
            bounds.append((None if alo is None or blo is None else alo + blo,
                           None if ahi is None or bhi is None else ahi + bhi))
            cosets.append(frozenset((x + y) % D for x in a.cosets[i]
                          for y in b.cosets[i]))
            logmax.append(a.logmax[i] + b.logmax[i])
        super().__init__(a.vars, bounds, cosets, logmax)
        self.a, self.b = a, b

    def _terms_in(self, box):
        for first, second in ((self.a, self.b), (self.b, self.a)):
            try:
                ta = first.terms_in(box.minus_bounds(second.bounds))
            except InfiniteConvolution:
                continue
            if not ta:
                return {}
            n = len(self.vars)
            hull = _hull(ta, n)
            tb = second.terms_in(box.minus_bounds(hull))
            if tb and (None in box.lows or None in box.highs):
                _check_open_sides(box, hull, _hull(tb, n))
            out = {}
            # calls, not an inlined m1 + m2 and guard test: the bench tracer
            # counts convolution pairs tried and kept through these two
            add, contains = mono_add, box.contains
            for m1, c1 in ta.items():
                for m2, c2 in tb.items():
                    m = add(m1, m2)
                    if not contains(m):
                        continue
                    c = c_mul(c1, c2)
                    prev = out.get(m)
                    out[m] = c if prev is None else prev + c
            return out
        raise InfiniteConvolution(
            "cannot certify finite convolution for product on %r" % (box,))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class BinomialKernel(Series):
    """The binomial expansion (x_lead + sign*x_exp)^q in x_exp, at one
    exponent or summed against a denominator variable.

    Terms, j >= 0:
        [e^{pi i q} if minus] * C(q, j) * sign^j
          * x_lead^(q-j) * x_exp^j * den^(-q-1).
    Without den, q is A alone and there is no den factor.  With den, q runs
    over A+Z as far as the box reaches in den: den^{-1} delta((x_lead +
    sign*x_exp)/den) dressed by ((x_lead + sign*x_exp)/den)^A.  Without exp,
    only j = 0 is left.
    """

    def __init__(self, vars, A, lead: int, exp, sign: int = -1,
                 minus: bool = False, den=None):
        A = Fraction(A)
        a = lattice(A)
        n = len(vars)
        bounds = [(0, 0)] * n
        cosets = [frozenset((0,))] * n
        # polynomial case: the expansion terminates on its own
        self.poly = den is None and A.denominator == 1 and A >= 0
        bounds[lead] = (0 if self.poly else None, a if den is None else None)
        cosets[lead] = frozenset((a % D,))
        if exp is not None:
            bounds[exp] = (0, a if self.poly else None)
        if den is not None:
            bounds[den] = (None, None)
            cosets[den] = frozenset(((-a - D) % D,))
        super().__init__(vars, bounds, cosets, [0] * n)
        self.a, self.lead, self.exp, self.den = a, lead, exp, den
        self.sign, self.minus = sign, minus

    def _terms_in(self, box):
        lead, exp, den = self.lead, self.exp, self.den
        if den is None:
            qs = (self.a,)
        else:
            dlo, dhi = box.lows[den], box.highs[den]
            if dlo is None or dhi is None:
                raise InfiniteConvolution("delta kernel needs a bounded window "
                                          "on its denominator variable")
            qs = [-p - D for p in lattice_coset(dlo, dhi, -self.a - D)]
        llo, lhi = box.lows[lead], box.highs[lead]
        elo, ehi = (0, 0) if exp is None else (box.lows[exp], box.highs[exp])
        out = {}
        powers = [0] * len(self.vars)
        for q in qs:
            # j ranges over lattice ints jp = j*D with x_exp^jp and
            # x_lead^(q-jp) inside the box; only the single-exponent
            # polynomial stops at q on its own
            j_lo = 0 if elo is None else max(0, elo)
            if lhi is not None:
                j_lo = max(j_lo, q - lhi)
            j_hi = ehi
            if self.poly:
                j_hi = q if j_hi is None else min(j_hi, q)
            if llo is not None:
                j_hi = q - llo if j_hi is None else min(j_hi, q - llo)
            if j_hi is None:
                raise InfiniteConvolution("binomial expansion unbounded on %r"
                                          % (box,))
            qr = exponent(q)
            phase = Scalar.e(qr) if self.minus else 1
            if den is not None:
                powers[den] = -q - D
            for jp in lattice_coset(j_lo, j_hi, 0):
                powers[lead] = q - jp
                if exp is not None:
                    powers[exp] = jp
                m = lattice_mono(powers)
                if not box.contains(m):
                    continue
                j = jp // D
                c = binomial(qr, j) * self.sign ** j
                if c:
                    out[m] = c * phase
        return out


def binomial_expand(vars, A, lead: int, exp: int) -> Series:
    """(x_lead - x_exp)^A as a power series in x_exp."""
    return BinomialKernel(vars, A, lead, exp)


def minus_convention(vars, A, lead: int, exp: int) -> Series:
    """(-x_exp + x_lead)^A = e^{pi i A} (x_exp - x_lead)^A, expanded in x_lead."""
    return BinomialKernel(vars, A, exp, lead, minus=True)


def delta_prod(vars, x0: int, x1: int, x2: int, offset=0) -> Series:
    """x0^{-1} delta((x1 - x2)/x0), optionally dressed by ((x1-x2)/x0)^offset."""
    return BinomialKernel(vars, offset, x1, x2, den=x0)


def delta_prod_rev(vars, x0: int, x1: int, x2: int, offset=0) -> Series:
    """x0^{-1} delta((-x2 + x1)/x0) under the minus convention, dressed."""
    return BinomialKernel(vars, offset, x2, x1, minus=True, den=x0)


def delta_iter(vars, x0: int, x1: int, x2: int, offset=0) -> Series:
    """x1^{-1} delta((x2 + x0)/x1), optionally dressed by ((x2+x0)/x1)^offset."""
    return BinomialKernel(vars, offset, x2, x0, sign=1, den=x1)


# ---------------------------------------------------------------------------
# term-wise transforms
# ---------------------------------------------------------------------------

class _TermMap(Series):
    """A term-wise transform of one base series.

    The base is read on source(box), and each of its terms goes through
    fn(monomial, coefficient) to (monomial, coefficient) pairs; the pairs
    inside the box are kept and collisions summed.  Without a source, fn
    maps a coefficient alone: every monomial stays in place, and the base is
    read on the box itself.  The shape (vars, bounds, cosets, logmax) is
    the base's unless given.
    """

    def __init__(self, base: Series, fn, source=None, shape=None):
        super().__init__(*(shape or (base.vars, base.bounds, base.cosets,
                                     base.logmax)))
        self.base, self.fn, self.source = base, fn, source

    def _terms_in(self, box):
        fn = self.fn
        if self.source is None:
            return {m: fn(c) for m, c in self.base.terms_in(box).items()}
        return acc_terms({}, (t for m, c in self.base.terms_in(
            self.source(box)).items() for t in fn(m, c) if box.contains(t[0])))


def _put(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1:]


def scaled(s: Series, c) -> Series:
    return _TermMap(s, partial(c_mul, exact(c)))


def _phase_shift(s: Series, idx: int, h, rename: str = None) -> Series:
    """x^n -> e^{pi i h n} x^n and log x -> log x + h*PI on variable idx."""
    h = Fraction(h)
    n = len(s.vars)
    unit = log_unit(idx, n)

    def fn(m, c):
        powers, logs = mono_parts(m, n)
        phase = Scalar.e(h * exponent(powers[idx]))
        k = logs[idx]
        # (log x + h*PI)^k expands over lower log powers
        for j in range(k + 1):
            fac = binomial(k, k - j) * Scalar.pi(k - j) * (h ** (k - j))
            yield m + (j - k) * unit, c_mul(phase * fac, c)

    vars = s.vars if rename is None else _put(s.vars, idx, rename)
    return _TermMap(s, fn, lambda box: box.with_var(
        idx, box.lows[idx], box.highs[idx], s.logmax[idx]),
        (vars, s.bounds, s.cosets, s.logmax))


def branch_shift(s: Series, idx: int, p: int) -> Series:
    """Pass to the (p shifts away) branch: x^n -> e^{2 pi i p n} x^n, log x -> log x + 2p*PI."""
    if p == 0:
        return s
    return _phase_shift(s, idx, 2 * p)


def log_substitute(s: Series, idx: int, rename: str = "x") -> Series:
    """Substitute y -> -x on variable idx: y^n -> e^{pi i n} x^n, log y -> log x + PI."""
    return _phase_shift(s, idx, 1, rename=rename)


def log_shift(s: Series, idx: int, k: int) -> Series:
    """s times (log x_idx)^k: the base is read k log powers below the box."""
    if not k:
        return s
    shift = k * log_unit(idx, len(s.vars))
    return _TermMap(
        s, lambda m, c: ((m + shift, c),),
        lambda box: box.with_var(idx, box.lows[idx], box.highs[idx],
                                 box.logcaps[idx] - k),
        (s.vars, s.bounds, s.cosets, _put(s.logmax, idx, s.logmax[idx] + k)))


def restricted(s: Series, keep) -> Series:
    """The terms of s whose monomial m passes keep(m); the base is read on
    the box itself, so a side compared against its own restriction is read
    once."""
    return _TermMap(s, lambda m, c: ((m, c),) if keep(m) else (),
                    lambda box: box)


def derivative(s: Series, idx: int) -> Series:
    # d/dx x^n (log x)^k = n x^(n-1) (log x)^k + k x^(n-1) (log x)^(k-1)
    nv = len(s.vars)
    down, unit = D * exp_unit(idx, nv), log_unit(idx, nv)

    def fn(m, c):
        powers, logs = mono_parts(m, nv)
        p, k = powers[idx], logs[idx]
        _check_fields((p - D,))
        n = exponent(p)
        if n:
            yield m - down, c_mul(n, c)
        if k:
            yield m - down - unit, c_mul(k, c)

    def source(box):
        lo, hi = box.lows[idx], box.highs[idx]
        return box.with_var(idx, None if lo is None else lo + D,
                            None if hi is None else hi + D,
                            min(s.logmax[idx], box.logcaps[idx] + 1))

    lo, hi = s.bounds[idx]
    bounds = _put(s.bounds, idx, (None if lo is None else lo - D,
                                  None if hi is None else hi - D))
    return _TermMap(s, fn, source, (s.vars, bounds, s.cosets, s.logmax))


def delta_derivative(vars, den: int, num: int, k: int) -> Series:
    """(1/k!) den^{-1} (d/dx_num)^k delta(x_num/den)
    = sum over integers q of C(q, k) x_num^(q-k) den^(-q-1)."""
    s = BinomialKernel(vars, 0, num, None, den=den)
    for _ in range(k):
        s = derivative(s, num)
    return scaled(s, Fraction(1, factorial(k))) if k > 1 else s


def residue(s: Series, idx: int) -> Series:
    """Coefficient of x_idx^{-1}; the variable must carry only integral, log-free powers."""
    if s.cosets[idx] - {0} or s.logmax[idx] > 0:
        raise NonMeromorphicVariable(
            "residue in %s: fractional exponents or logs remain" % s.vars[idx])

    n = len(s.vars)

    def drop(t):
        return t[:idx] + t[idx + 1:]

    def lift(t, v):
        return t[:idx] + (v,) + t[idx:]

    def fn(m, c):
        powers, logs = mono_parts(m, n)
        return ((lattice_mono(drop(powers), drop(logs)), c),)

    return _TermMap(s, fn,
                    lambda box: Box(lift(box.lows, -D), lift(box.highs, -D),
                                    lift(box.logcaps, 0)),
                    [drop(t) for t in (s.vars, s.bounds, s.cosets, s.logmax)])


# ---------------------------------------------------------------------------
# comparison and display
# ---------------------------------------------------------------------------

def series_mismatch(a: Series, b: Series, box: Box):
    """First differing (monomial, lhs, rhs) in canonical order, or None.

    Both sides are read on the box.  Equal sides return at once; only a
    mismatch pays for the sort.
    """
    ta, tb = a.terms_in(box), b.terms_in(box)
    if ta == tb:
        return None
    for m in sorted(ta.keys() | tb.keys()):
        ca = ta.get(m)
        cb = tb.get(m)
        if ca is None or cb is None or ca != cb:
            return m, ca, cb
    return None


def format_monomial(m, vars) -> str:
    parts = []
    for v, p, k in zip(vars, *mono_parts(m, len(vars))):
        if p:
            parts.append("%s^%s" % (v, exponent(p)))
        if k == 1:
            parts.append("log(%s)" % v)
        elif k:
            parts.append("log(%s)^%d" % (v, k))
    return "*".join(parts) if parts else "1"


def format_series(terms: dict, vars) -> str:
    if not terms:
        return "0"
    out = []
    for m in sorted(terms):
        out.append("(%s)*%s" % (terms[m], format_monomial(m, vars)))
    return " + ".join(out)


def series_to_json(terms: dict, vars, box: Box = None):
    entries = []
    for m in sorted(terms):
        c = terms[m]
        powers, logs = mono_parts(m, len(vars))
        entries.append({
            "powers": {v: str(exponent(p)) for v, p in zip(vars, powers) if p},
            "log_powers": {v: k for v, k in zip(vars, logs) if k},
            "scalar": repr(c) if isinstance(c, Vec) else scalar_json(c),
        })
    doc = {"variables": list(vars), "entries": entries}
    if box is not None:
        doc["window"] = window_json(vars, box)
    return doc


def window_json(vars, box: Box):
    """Per variable: [low, high, log cap] of the box."""
    return {v: [str(exponent(lo)), str(exponent(hi)), cap] for v, lo, hi, cap in
            zip(vars, box.lows, box.highs, box.logcaps)}
