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

Internally a Scalar is integer numerators over one common denominator, as
FLINT's fmpq_poly stores a rational polynomial: `terms` maps (p, k), with
k = q*M an integer in [0, M), to an int numerator, and `den` is an int >= 1
with gcd(den, *numerators) == 1, so the form is unique.  The identity
e(q+1) = -e(q) folds the upper half of the lattice into the sign of the
numerator.  Keys and numerators are ints, so the innermost loops do int
arithmetic and reduce by a gcd once per result, not once per term.

This module alone knows that form: `inverse` inverts through the Galois
conjugates sigma_a, which permute the keys, and `phase_turns` reads a root
of unity off its one key.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, prod


class CyclotomicLevelError(ValueError):
    """Phase does not live on the engine's cyclotomic lattice."""


_LEVEL = 16                 # fixed: stored scalars are keyed against it
_RKEY = (0, 0)


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


def _fold(terms: dict, den: int = 1):
    """The canonical value of int numerators over den: 0, the number of a
    lone (0, 0) term, or a Scalar reduced by gcd(den, *numerators)."""
    if not terms:
        return 0
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    if len(terms) == 1 and _RKEY in terms:
        c = terms[_RKEY]
        return c if den == 1 else Fraction(c, den)
    return Scalar(terms, den)


def terms_of(c) -> dict:
    """The {(pi_power, phase numerator): rational} terms of any value."""
    if isinstance(c, Scalar):
        d = c.den
        if d == 1:
            return c.terms
        return {k: Fraction(x, d) for k, x in c.terms.items()}
    return {_RKEY: c} if c else {}


def iter_terms(c):
    """Yield ((pi_power, phase as Fraction in [0,1)), coeff) of any value."""
    for (p, k), x in terms_of(c).items():
        yield (p, Fraction(k, _LEVEL)), x


def scalar_json(c):
    """Terms of any value in a sorted, JSON-serializable list."""
    return [{"pi_power": p, "phase": str(q), "coeff": str(x)}
            for (p, q), x in sorted(iter_terms(c))]


class Scalar:
    """Element of Q(zeta_2M)[PI, PI^-1] that is not rational, kept in
    canonical form; built only by `e`, `pi` and the ring operations."""

    __slots__ = ("terms", "den")

    def __init__(self, terms, den):
        # terms: {(pi_power, phase_numerator): int}, over the int den >= 1,
        # canonical; internal only
        self.terms = terms
        self.den = den

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
            return _fold({(0, k - _LEVEL): -1})
        return _fold({(0, k): 1})

    @staticmethod
    def pi(power: int = 1):
        """PI^power, PI standing for pi*i."""
        return _fold({(int(power), 0): 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Scalar):
            ot, od = other.terms, other.den
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self
            ot, od = {_RKEY: other.numerator}, other.denominator
        else:
            return NotImplemented
        d = self.den
        if d == od:
            terms = dict(self.terms)
            a = b = 1
        else:
            # over lcm(d, od) = d * a = od * b
            g = gcd(d, od)
            a, b = od // g, d // g
            terms = {k: c * a for k, c in self.terms.items()}
        for key, c in ot.items():
            s = terms.get(key, 0) + c * b
            if s:
                terms[key] = s
            else:
                del terms[key]
        return _fold(terms, d * a)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return 0
            # the numerators stay coprime to den / gcd(other, den)
            d = self.den
            g = gcd(other, d)
            if g != 1:
                other //= g
                d //= g
            return Scalar({k: c * other for k, c in self.terms.items()}, d)
        if isinstance(other, Fraction):
            if not other:
                return 0
            a = other.numerator
            return _fold({k: c * a for k, c in self.terms.items()},
                         self.den * other.denominator)
        if not isinstance(other, Scalar):
            return NotImplemented
        L = _LEVEL
        terms = {}
        for (p1, k1), c1 in self.terms.items():
            for (p2, k2), c2 in other.terms.items():
                k = k1 + k2
                c = c1 * c2
                if k >= L:
                    k -= L
                    c = -c
                key = (p1 + p2, k)
                s = terms.get(key, 0) + c
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return _fold(terms, self.den * other.den)

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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.den == other.den and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return False        # a canonical Scalar is never rational
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(terms_of(self).items()))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        parts = []
        for (p, q), c in sorted(iter_terms(self)):
            factors = []
            if c != 1 or (p == 0 and q == 0):
                factors.append(str(c))
            if p == 1:
                factors.append("PI")
            elif p:
                factors.append("PI^%d" % p)
            if q:
                factors.append("e(%s)" % q)
            parts.append("*".join(factors))
        return " + ".join(parts)


# 2^{-1/2} = (e^{pi i/4} - e^{3 pi i/4}) / 2, available at cyclotomic level >= 4
HALF_SQRT2 = (Scalar.e(Fraction(1, 4)) - Scalar.e(Fraction(3, 4))) / 2


def _conjugate(s: Scalar, a: int) -> Scalar:
    """The Galois conjugate sigma_a: e(k/M) -> e(a k/M), a odd, of a PI-free
    Scalar; a permutes the folded keys, so the form stays canonical."""
    L = _LEVEL
    terms = {}
    for (p, k), x in s.terms.items():
        k = a * k % (2 * L)
        if k >= L:
            k -= L
            x = -x
        terms[(p, k)] = x
    return Scalar(terms, s.den)


def inverse(c):
    """1/c in canonical form.  A rational inverts exactly; a Scalar s as the
    product of its conjugates sigma_a(s), odd a in [3, 2M), over the norm
    s * conj, which is rational (Cohen, A Course in Computational Algebraic
    Number Theory, 4.3).  ZeroDivisionError for 0, ValueError for a value
    that carries PI and so lies outside the cyclotomic field."""
    if not isinstance(c, Scalar):
        if not c:
            raise ZeroDivisionError("inverse of zero")
        return exact(Fraction(1, c))
    if any(p for p, _ in c.terms):
        raise ValueError("scalar involves PI, not a cyclotomic number: %r" % c)
    conj = prod(_conjugate(c, a) for a in range(3, 2 * _LEVEL, 2))
    return conj / (c * conj)


def phase_turns(c) -> Fraction:
    """The alpha in [0, 1) with c = e^{2 pi i alpha}; ValueError when c is
    not a root of unity."""
    terms, den = (c.terms, c.den) if isinstance(c, Scalar) else ({_RKEY: c}, 1)
    if den == 1 and len(terms) == 1:
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
    if isinstance(a, int):
        # C(a, k) = (-1)^k C(k-a-1, k) for a < 0
        return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)
    p, q = a.numerator, a.denominator
    c = Fraction(prod(p - j * q for j in range(k)), q ** k * factorial(k))
    return c.numerator if c.denominator == 1 else c


class Vec:
    """Formal linear combination of basis keys with nonzero coefficients
    in canonical form."""

    __slots__ = ("comps",)

    def __init__(self, comps=None):
        self.comps = comps or {}

    @staticmethod
    def basis(key) -> "Vec":
        return Vec({key: 1})

    @staticmethod
    def zero() -> "Vec":
        return Vec({})

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        if not self.comps:
            return other
        if not other.comps:
            return self
        comps = dict(self.comps)
        acc_vec(comps, other)
        return Vec(comps)

    def __neg__(self):
        return Vec({k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Vec":
        c = exact(c)
        if not c:
            return Vec.zero()
        if c == 1:
            return self
        return Vec({key: x * c for key, x in self.comps.items()})

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash(frozenset((k, c) for k, c in self.comps.items()))

    def __bool__(self):
        return bool(self.comps)

    def items(self):
        return self.comps.items()

    def coeff(self, key):
        return self.comps.get(key, 0)

    def __repr__(self):
        if not self.comps:
            return "0"
        return " + ".join("(%s)*|%s>" % (c, k) for k, c in sorted(
            self.comps.items(), key=lambda kv: repr(kv[0])))


def acc_vec(acc: dict, vec: Vec, c=1) -> None:
    """Accumulate c * vec into a mutable {key: coefficient} dict."""
    c = exact(c)
    if not c:
        return
    scale = c != 1
    for key, x in vec.comps.items():
        if scale:
            x = x * c
        s = acc.get(key)
        if s is None:
            acc[key] = x
            continue
        s = s + x
        if s:
            acc[key] = s
        else:
            del acc[key]


def vec_of(acc: dict) -> Vec:
    return Vec({k: c for k, c in acc.items() if c})


def linear(fn, vec: Vec, memo: dict = None) -> Vec:
    """The linear extension of fn: the sum of c * fn(key) over the terms of
    vec, accumulated in place; fn's value at each key is kept in memo when
    one is given."""
    acc = {}
    for key, c in vec.comps.items():
        if memo is None:
            r = fn(key)
        else:
            r = memo.get(key)
            if r is None:
                r = memo[key] = fn(key)
        if r:
            acc_vec(acc, r, c)
    return vec_of(acc)


def homogeneous_value(vec: Vec, key_fn):
    """The one value of key_fn over the basis keys of vec, 0 for the zero
    vector; ValueError when the keys disagree."""
    vals = {key_fn(k) for k in vec.comps}
    if len(vals) > 1:
        raise ValueError("inhomogeneous vector: values %s"
                         % ", ".join(map(str, sorted(vals))))
    return vals.pop() if vals else 0
