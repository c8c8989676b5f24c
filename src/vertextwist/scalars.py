"""Exact scalar ring for phase and branch bookkeeping.

A scalar is a finite sum of terms  c * PI^p * e(q)  where c is rational,
PI stands for the constant pi*i, p is an integer and e(q) denotes e^{pi i q}
with q rational.  Phases q live on the lattice (1/M)Z for a fixed cyclotomic
level M; M must be a power of two so that {e(k/M) : 0 <= k < M} is a basis of
the degree-M cyclotomic field and canonical forms compare exactly.

A value is in canonical form as a plain int or Fraction while it is rational,
and as a Scalar only when it carries a phase or a PI power: every Scalar
operation folds a result that reduces to its rational part back to that
number, so rational arithmetic never pays for the box and a Scalar never
equals a number.

A vector (`Vec`) is a formal linear combination of basis keys stored as
FLINT keeps an fmpq_mat, over one denominator: int numerators keyed by
(basis key, pi power, phase numerator k) over one int den, with
gcd(den, *numerators) == 1 so the form is unique; k = q*M is an int in
[0, M), and the identity e(q+1) = -e(q) folds the upper half of the lattice
into the sign of the numerator.  The rational terms, the only ones while
every coefficient is rational, are keyed by the bare basis key.  So scaling
a vector by a rational is one int multiply per entry and one gcd per result,
scaling by a phase permutes phase keys, and a sum is int addition over the
lcm of the denominators; `VecSum` builds a sum in place, `linear` extends a
map on basis keys linearly, into a fresh sum or, scaled by a rational,
into a caller's `VecSum`, `bilinear` a map on pairs of basis keys
bilinearly, and `pair` is the dot product.

A Scalar is stored in that one form, as a vector on the one basis key
_UNIT, and its ring operations are the vectors': a sum is `Vec._plus`, a
negation `Vec.__neg__`, a product `Vec.scale`, and `==` compares stored
forms; a result whose phased terms cancel folds back to its rational part.

This module alone knows these forms: `terms_of` is the one reader of a
value's (pi power, phase numerator) terms, for `repr`, `scalar_json`,
`phase_turns` and the read-only `Scalar.terms` view, and `inverse` inverts
through the Galois conjugates sigma_a, which permute the phase keys.  Every other module reads a vector through
`items`, `keys`, `coeff` and the read-only `comps` view, one entry per
basis key.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, prod
from types import MappingProxyType


class CyclotomicLevelError(ValueError):
    """Phase does not live on the engine's cyclotomic lattice."""


_LEVEL = 16                 # fixed: stored scalars are keyed against it
_RKEY = (0, 0)              # the (pi power, phase) of a rational term
_UNIT = None                # the one basis key of a Scalar's form
_NONE = {}                  # the entries of a map that has none; a stored
                            # map is never written to


def cyclotomic_level() -> int:
    return _LEVEL


def lattice(q) -> int:
    """The lattice int p of the rational q = p/M, M the cyclotomic level;
    CyclotomicLevelError when q is off the lattice (1/M)Z."""
    den = q.denominator
    if _LEVEL % den:
        raise CyclotomicLevelError(
            "exponent %s not on the (1/%d)Z lattice" % (q, _LEVEL))
    return q.numerator * (_LEVEL // den)


def exponent(p: int) -> Fraction:
    """The rational of the lattice int p."""
    return Fraction(p, _LEVEL)


def exact(c):
    """c checked as a ring element and canonical: an integral Fraction
    becomes its int; TypeError for anything but an int, Fraction or Scalar,
    a float above all, whose value is not the exact one meant."""
    if isinstance(c, (int, Scalar)):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("not an exact scalar: %r" % (c,))


_new = object.__new__


def _newvec(rat, phased, den):
    v = _new(Vec)
    v._rat = rat
    v._phased = phased
    v._den = den
    return v


def _cancel(rat: dict, phased: dict, den: int):
    """(rat, phased, den) for the int numerator maps rat and phased over
    den, each divided, with den, by gcd(den, *numerators): the one
    canonical form of a Vec and of a Scalar.  A zero value comes out over
    1."""
    if den != 1:
        g = gcd(den, *rat.values(), *phased.values())
        if g != 1:
            return ({k: c // g for k, c in rat.items()},
                    phased and {k: c // g for k, c in phased.items()},
                    den // g)
    return rat, phased, den


def _same(a, b):
    """a == b for two values of one stored form."""
    if type(b) is not type(a):
        return NotImplemented
    return a._den == b._den and a._rat == b._rat and a._phased == b._phased


def _fold(v):
    """The canonical value of v, a canonical form on the key _UNIT: its
    rational part as a number (0 when it has none) when no phased term is
    left, else the Scalar of that form."""
    if not v._phased:
        n = v._rat.get(_UNIT, 0)
        return n if v._den == 1 else Fraction(n, v._den)
    s = _new(Scalar)
    s._rat, s._phased, s._den = v._rat, v._phased, v._den
    return s


def _unit(p: int, k: int, n: int):
    """n * PI^p e(k/M) for 0 <= k < M, in canonical form."""
    if not (p or k):
        return n
    s = _new(Scalar)
    s._rat, s._phased, s._den = _NONE, {(_UNIT, p, k): n}, 1
    return s


def terms_of(c) -> dict:
    """The {(pi_power, phase numerator): rational} terms of any value."""
    if not isinstance(c, Scalar):
        return {_RKEY: c} if c else {}
    d = c._den
    terms = {_RKEY: n for n in c._rat.values()}
    terms.update(((p, k), n) for (_, p, k), n in c._phased.items())
    return terms if d == 1 else {t: Fraction(n, d) for t, n in terms.items()}


def scalar_json(c):
    """Terms of any value in a sorted, JSON-serializable list."""
    return [{"pi_power": p, "phase": str(exponent(k)), "coeff": str(x)}
            for (p, k), x in sorted(terms_of(c).items())]


class Scalar:
    """Element of Q(zeta_2M)[PI, PI^-1] that is not rational, kept in
    canonical form as a vector on the one key _UNIT; built only by `e`,
    `pi` and the ring operations, which are the vectors' own."""

    __slots__ = ("_rat", "_phased", "_den")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def e(q):
        """e^{pi i q} for rational q on the lattice (1/M)Z."""
        q = Fraction(q) * _LEVEL
        if q.denominator != 1:
            raise CyclotomicLevelError(
                "phase %s not on the (1/%d)Z lattice" % (q / _LEVEL, _LEVEL))
        k = int(q) % (2 * _LEVEL)
        if k >= _LEVEL:
            return _unit(0, k - _LEVEL, -1)
        return _unit(0, k, 1)

    @staticmethod
    def pi(power: int = 1):
        """PI^power, PI standing for pi*i."""
        return _unit(int(power), 0, 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            other = _newvec({_UNIT: other.numerator}, _NONE,
                            other.denominator)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return _fold(Vec._plus(self, other, 1))

    __radd__ = __add__

    def __neg__(self):
        return _fold(Vec.__neg__(self))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        return _fold(Vec.scale(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational."""
        other = Fraction(other)
        return self * Fraction(other.denominator, other.numerator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative Scalar powers are not defined")
        out = 1
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries ------------------------------------------------------------

    __eq__ = _same              # a canonical Scalar never equals a number

    def __hash__(self):
        return hash(frozenset(terms_of(self).items()))

    @property
    def terms(self):
        """A read-only {(pi_power, phase numerator): rational} view, the
        form bench/layertrace.py reads."""
        return MappingProxyType(terms_of(self))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        parts = []
        for (p, k), c in sorted(terms_of(self).items()):
            factors = []
            if c != 1 or not (p or k):
                factors.append(str(c))
            if p == 1:
                factors.append("PI")
            elif p:
                factors.append("PI^%d" % p)
            if k:
                factors.append("e(%s)" % exponent(k))
            parts.append("*".join(factors))
        return " + ".join(parts)


def _conjugate(s: Scalar, a: int) -> Scalar:
    """The Galois conjugate sigma_a: e(k/M) -> e(a k/M), a odd, of a PI-free
    Scalar; a permutes the folded keys, so the form stays canonical."""
    L = _LEVEL
    phased = {}
    for (u, p, k), x in s._phased.items():
        k = a * k % (2 * L)
        if k >= L:
            k -= L
            x = -x
        phased[(u, p, k)] = x
    return _fold(_newvec(s._rat, phased, s._den))


def inverse(c):
    """1/c in canonical form.  A rational inverts exactly; a Scalar s as
    the product of the conjugates that walk its norm down the tower Q(zeta_32)
    > Q(zeta_16) > Q(zeta_8) > Q(i) > Q, norm * sigma_a(norm) for a = 17, 9,
    5, 3, over the rational norm (Cohen, A Course in Computational Algebraic
    Number Theory, 4.3).  ZeroDivisionError for 0, ValueError for a value
    that carries PI and so lies outside the cyclotomic field."""
    if not isinstance(c, Scalar):
        if not c:
            raise ZeroDivisionError("inverse of zero")
        return exact(Fraction(1, c))
    if any(p for _, p, _ in c._phased):
        raise ValueError("scalar involves PI, not a cyclotomic number: %r" % c)
    conj, norm = 1, c
    for a in (17, 9, 5, 3):     # at the fixed level M = 16
        if not isinstance(norm, Scalar):
            break
        step = _conjugate(norm, a)
        conj, norm = conj * step, norm * step
    return conj / norm


def phase_turns(c) -> Fraction:
    """The alpha in [0, 1) with c = e^{2 pi i alpha}; ValueError when c is
    not a root of unity."""
    terms = terms_of(c)
    if len(terms) == 1:
        ((p, k), x), = terms.items()
        if p == 0 and x in (1, -1):
            # e(q+1) = -e(q): a negative numerator is half a turn more
            return Fraction(k + (_LEVEL if x < 0 else 0), 2 * _LEVEL)
    raise ValueError("not a root of unity: %r" % (c,))


def binomial(a, k):
    """Generalized binomial coefficient C(a, k), as an int when it is one."""
    if k < 0:
        return 0
    if k.denominator != 1:
        raise ValueError("binomial index must be integral, got %s" % k)
    k = int(k)
    if a.denominator == 1:
        # an int or an integral Fraction; C(a, k) = (-1)^k C(k-a-1, k) for
        # a < 0
        a = a.numerator
        return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)
    p, q = a.numerator, a.denominator
    c = Fraction(prod(p - j * q for j in range(k)), q ** k * factorial(k))
    return c.numerator if c.denominator == 1 else c


class Vec:
    """Formal linear combination of basis keys with exact coefficients:
    int numerators in `_rat` (basis key -> numerator of the rational part)
    and `_phased` ((basis key, pi power, phase numerator) -> numerator of
    the other terms) over the int `_den` >= 1, with gcd(den, *numerators)
    == 1, so the form is unique and a zero vector is over 1.  `Vec(comps)`
    builds one from {key: scalar}, dropping zero coefficients."""

    __slots__ = ("_rat", "_phased", "_den")

    def __init__(self, comps=None):
        acc = VecSum()
        for key, c in (comps or {}).items():
            acc.add(Vec.basis(key), c)
        v = acc.vec()
        self._rat, self._phased, self._den = v._rat, v._phased, v._den

    @staticmethod
    def basis(key, c=1) -> "Vec":
        """The basis vector of key times the exact scalar c, in one step:
        the form of Vec.basis(key).scale(c)."""
        if type(c) is int and c:
            # _newvec inline: the constructor the mode recursion calls most
            v = _new(Vec)
            v._rat = {key: c}
            v._phased = _NONE
            v._den = 1
            return v
        c = exact(c)
        if isinstance(c, Scalar):
            return Vec.basis(key).scale(c)
        if not c:
            return _ZERO
        return _newvec({key: c.numerator}, _NONE, c.denominator)

    @staticmethod
    def zero() -> "Vec":
        return _ZERO

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other, x):
        if not (other._rat or other._phased):
            return self
        if not (self._rat or self._phased):
            return other if x == 1 else -other
        acc = _new(VecSum)
        acc._rat, acc._den = dict(self._rat), self._den
        acc._phased = dict(self._phased) if self._phased else _NONE
        acc._add(other, x)
        return acc.vec()

    def __neg__(self):
        return _newvec({k: -n for k, n in self._rat.items()},
                       {e: -n for e, n in self._phased.items()}
                       if self._phased else _NONE, self._den)

    def scale(self, c) -> "Vec":
        if type(c) is not int:
            if isinstance(c, Scalar):
                acc = VecSum()
                acc.add(self, c)
                return acc.vec()
            c = exact(c)
        if not (self._rat or self._phased):
            return self
        if type(c) is int:
            if c == 1:
                return self
            if not c:
                return _ZERO
            # the numerators stay coprime to den / gcd(c, den)
            den = self._den
            g = gcd(c, den)
            if g != 1:
                c //= g
                den //= g
            return _newvec({k: n * c for k, n in self._rat.items()},
                           {e: n * c for e, n in self._phased.items()}
                           if self._phased else _NONE, den)
        # c = a/b: gcd(a, den) leaves den, gcd(b, *numerators) leaves b
        a, b = c.numerator, c.denominator
        g = gcd(a, self._den)
        a, den = a // g, self._den // g
        g = gcd(b, *self._rat.values(), *self._phased.values())
        return _newvec({k: n // g * a for k, n in self._rat.items()},
                       {e: n // g * a for e, n in self._phased.items()}
                       if self._phased else _NONE, den * (b // g))

    __eq__ = _same

    def __hash__(self):
        return hash((self._den, frozenset(self._rat.items()),
                     frozenset(self._phased.items())))

    def __bool__(self):
        return True if self._rat or self._phased else False

    def _by_key(self) -> dict:
        """{basis key: [(pi power, phase numerator, numerator), ...]}."""
        out = {key: [(0, 0, n)] for key, n in self._rat.items()}
        for (key, p, k), n in self._phased.items():
            t = out.get(key)
            if t is None:
                out[key] = [(p, k, n)]
            else:
                t.append((p, k, n))
        return out

    def items(self):
        """(basis key, coefficient in canonical form), one per basis key."""
        d = self._den
        if not self._phased:
            if d == 1:
                return self._rat.items()
            return [(k, exact(Fraction(n, d))) for k, n in self._rat.items()]
        return [(key, _fold(_terms_sum(t, d)))
                for key, t in self._by_key().items()]

    def keys(self):
        """The basis keys with a nonzero coefficient."""
        if not self._phased:
            return self._rat.keys()
        return dict.fromkeys(chain(self._rat,
                                   (e[0] for e in self._phased))).keys()

    @property
    def comps(self):
        """A read-only {basis key: coefficient} view."""
        return MappingProxyType(dict(self.items()))

    def coeff(self, key):
        return dict(self.items()).get(key, 0)

    def __repr__(self):
        if not self:
            return "0"
        return " + ".join("(%s)*|%s>" % (c, k) for k, c in sorted(
            self.items(), key=lambda kv: repr(kv[0])))


_ZERO = _newvec({}, _NONE, 1)
_ONE = _newvec({_UNIT: 1}, _NONE, 1)


class VecSum:
    """A sum of scaled vectors built in place: int numerators over one
    running denominator, raised to the lcm when an added term needs it and
    cancelled once, when `vec` reads the sum off.  Nothing is added after
    that."""

    __slots__ = ("_rat", "_phased", "_den")

    def __init__(self):
        self._rat, self._phased, self._den = {}, _NONE, 1

    def add(self, vec: Vec, c=1) -> None:
        """Add c * vec."""
        if type(c) is int:
            if c:
                self._add(vec, c)
        elif isinstance(c, Scalar):
            b = c._den
            for x in c._rat.values():
                self._add(vec, x, b)
            for (_, p, k), x in c._phased.items():
                self._add(vec, x, b, p, k)
        else:
            c = exact(c)
            if c:
                self._add(vec, c.numerator, c.denominator)

    def _add(self, vec, x, b=1, p=0, k=0):
        """Add x/b * PI^p e(k/M) * vec, for a nonzero int x and an int
        b >= 1."""
        d = vec._den * b
        den = self._den
        if d != den:
            # over lcm(den, d) = den * up, where vec's numerators gain den/g
            g = gcd(den, d)
            up = d // g
            if up != 1:
                self._rat = {e: n * up for e, n in self._rat.items()}
                if self._phased:
                    self._phased = {e: n * up
                                    for e, n in self._phased.items()}
                self._den = den * up
            x *= den // g
        rat = self._rat
        if not (p or k):
            for key, n in vec._rat.items():
                s = rat.get(key, 0) + n * x
                if s:
                    rat[key] = s
                else:
                    del rat[key]
            if not vec._phased:
                return
        ph = self._phased
        if ph is _NONE:
            ph = self._phased = {}
        if p or k:
            for key, n in vec._rat.items():
                e = (key, p, k)
                s = ph.get(e, 0) + n * x
                if s:
                    ph[e] = s
                else:
                    del ph[e]
        L = _LEVEL
        for (key, p1, k1), n in vec._phased.items():
            q, j, c = p1 + p, k1 + k, n * x
            # e(q+1) = -e(q) folds the upper half of the lattice
            if j >= L:
                j -= L
                c = -c
            if q or j:
                out, e = ph, (key, q, j)
            else:
                out, e = rat, key
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]

    def vec(self) -> Vec:
        den, rat, ph = self._den, self._rat, self._phased
        if den != 1:
            rat, ph, den = _cancel(rat, ph, den)
        return _newvec(rat, ph or _NONE, den)


# 2^{-1/2} = (e^{pi i/4} - e^{3 pi i/4}) / 2, available at cyclotomic level >= 4
HALF_SQRT2 = (Scalar.e(Fraction(1, 4)) - Scalar.e(Fraction(3, 4))) / 2


def linear(fn, vec: Vec, memo: dict = None, into: VecSum = None, c=1):
    """c times the linear extension of fn: the sum of c * c_k * fn(k) over
    the terms c_k k of vec, for c a nonzero int or Fraction; fn runs once
    per basis key, and its value at each key is kept in memo when one is
    given.  The images are added in place, as numerators over vec's
    denominator times c's: into the caller's sum `into` when one is given,
    returning None, else into a fresh sum, returned as a Vec."""
    rat, ph = vec._rat, vec._phased
    if memo is None and ph:
        memo = {}               # a key can carry several phased terms
    acc = VecSum() if into is None else into
    add = acc._add
    x, b = c.numerator, c.denominator * vec._den
    one = into is None and len(rat) == 1 and not ph and b == 1 == x
    for key, n in rat.items():
        if memo is None:
            r = fn(key)
        else:
            r = memo.get(key)
            if r is None:
                r = memo[key] = fn(key)
        if one and n == 1:
            return r            # a basis vector goes to its image
        if r:
            add(r, n * x, b)
    for (key, p, k), n in ph.items():
        r = memo.get(key)
        if r is None:
            r = memo[key] = fn(key)
        if r:
            add(r, n * x, b, p, k)
    if into is None:
        return acc.vec()


def _terms_sum(terms, den: int) -> Vec:
    """The form on _UNIT of the (pi power, phase numerator, numerator)
    terms over den."""
    acc = VecSum()
    for p, k, n in terms:
        acc._add(_ONE, n, 1, p, k)
    acc._den = den
    return acc.vec()


def _add_products(add, r, tu, tw):
    """add(r, c, 1, p, k) for each term c PI^p e(k/M) of the product of the
    term lists tu and tw, with e(q+1) = -e(q) folded as `VecSum._add` folds
    it."""
    L = _LEVEL
    for p1, k1, a in tu:
        for p2, k2, b in tw:
            k, c = k1 + k2, a * b
            if k >= L:
                k -= L
                c = -c
            add(r, c, 1, p1 + p2, k)


def bilinear(fn, u: Vec, w: Vec) -> Vec:
    """The bilinear extension of fn: the sum of c_u * c_w * fn(u key, w key)
    over the key pairs of u and w, accumulated in place; fn runs once per
    (u key, w key) pair, u's keys outermost, and the phases of c_u and c_w
    multiply as numerator keys, folded as `VecSum._add` folds them."""
    acc = VecSum()
    add = acc._add
    if not (u._phased or w._phased):
        ur, wr = u._rat, w._rat
        if len(ur) == 1 == len(wr) and u._den == 1 == w._den:
            (ukey, a), = ur.items()
            (wkey, b), = wr.items()
            if a == 1 == b:
                return fn(ukey, wkey)   # a basis pair goes to its image
        # rational terms need no per-key split: about 1.07x on the jordan
        # suite against the `_by_key` loop alone
        for ukey, a in ur.items():
            for wkey, b in wr.items():
                r = fn(ukey, wkey)
                if r:
                    add(r, a * b)
    else:
        wterms = w._by_key().items()
        for ukey, tu in u._by_key().items():
            for wkey, tw in wterms:
                r = fn(ukey, wkey)
                if r:
                    _add_products(add, r, tu, tw)
    # the terms of u and w were summed as numerators over their dens
    acc._den *= u._den * w._den
    return acc.vec()


def pair(wprime: Vec, vec: Vec):
    """Pairing against the orthonormal dual of the basis: the sum of the
    products of the two vectors' coefficients at each basis key."""
    den = wprime._den * vec._den
    if not (wprime._phased or vec._phased):
        get = vec._rat.get
        s = sum(n * get(k, 0) for k, n in wprime._rat.items())
        return s if den == 1 else exact(Fraction(s, den))
    acc = VecSum()
    other = vec._by_key()
    for key, t in wprime._by_key().items():
        u = other.get(key)
        if u:
            _add_products(acc._add, _ONE, t, u)
    acc._den *= den
    return _fold(acc.vec())


def homogeneous_value(vec: Vec, key_fn):
    """The one value of key_fn over the basis keys of vec, 0 for the zero
    vector; ValueError when the keys disagree."""
    vals = {key_fn(k) for k in vec.keys()}
    if len(vals) > 1:
        raise ValueError("inhomogeneous vector: values %s"
                         % ", ".join(map(str, sorted(vals))))
    return vals.pop() if vals else 0
