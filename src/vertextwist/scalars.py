"""Exact scalar ring for phase and branch bookkeeping.

A scalar is a finite sum of terms  c * PI^p * e(q)  where c is rational,
PI stands for the constant pi*i, p is an integer and e(q) denotes e^{pi i q}
with q rational.  Phases q live on the lattice (1/M)Z for a fixed cyclotomic
level M; M must be a power of two so that {e(k/M) : 0 <= k < M} is a basis of
the degree-M cyclotomic field and canonical forms compare exactly.

Internally a term is keyed by (p, k) with k = q*M an integer in [0, M); the
identity e(q+1) = -e(q) folds the upper half of the lattice into the sign of
the rational coefficient.  Keys are pure integer pairs, which keeps the dict
operations in the innermost loops cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class CyclotomicLevelError(ValueError):
    """Phase does not live on the engine's cyclotomic lattice."""


_LEVEL = 16                 # fixed: stored scalars are keyed against it
_RKEY = (0, 0)


def cyclotomic_level() -> int:
    return _LEVEL


class Scalar:
    """Element of Q(zeta_2M)[PI, PI^-1], kept in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {(pi_power, phase_numerator): coeff}, canonical; internal only
        self.terms = terms or {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rational(c) -> "Scalar":
        # ints participate in the numeric tower exactly; keep them unboxed
        if not isinstance(c, int):
            c = Fraction(c)
        return Scalar({_RKEY: c} if c else {})

    @staticmethod
    def e(q) -> "Scalar":
        """e^{pi i q} for rational q on the lattice (1/M)Z."""
        q = Fraction(q) * _LEVEL
        if q.denominator != 1:
            raise CyclotomicLevelError(
                "phase %s not on the (1/%d)Z lattice" % (q / _LEVEL, _LEVEL))
        k = int(q) % (2 * _LEVEL)
        if k >= _LEVEL:
            return Scalar({(0, k - _LEVEL): -1})
        return Scalar({(0, k): 1})

    @staticmethod
    def pi(power: int = 1) -> "Scalar":
        """PI^power, PI standing for pi*i."""
        return Scalar({(int(power), 0): 1})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar({})

    @staticmethod
    def one() -> "Scalar":
        return Scalar({_RKEY: 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                del terms[key]
        return Scalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Scalar.zero()
            return Scalar({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, Scalar):
            return NotImplemented
        st, ot = self.terms, other.terms
        if len(st) == 1 and _RKEY in st:
            return other * st[_RKEY]
        if len(ot) == 1 and _RKEY in ot:
            return self * ot[_RKEY]
        L = _LEVEL
        L2 = 2 * L
        terms = {}
        for (p1, k1), c1 in st.items():
            for (p2, k2), c2 in ot.items():
                k = (k1 + k2) % L2
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
        return Scalar(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Fraction(other)
        return Scalar({k: c / other for k, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative Scalar powers are not defined")
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational scalar equals its Fraction, so it hashes like one
        if self.is_rational():
            return hash(self.as_rational())
        return hash(frozenset(self.terms.items()))

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _RKEY in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("not a rational scalar: %s" % self)
        return self.terms[_RKEY]

    def iter_terms(self):
        """Yield ((pi_power, phase as Fraction in [0,1)), coeff)."""
        for (p, k), c in self.terms.items():
            yield (p, Fraction(k, _LEVEL)), c

    # -- display ------------------------------------------------------------

    def _sorted(self):
        return sorted(self.iter_terms())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (p, q), c in self._sorted():
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

    def to_json(self):
        return [
            {"pi_power": p, "phase": str(q), "coeff": str(c)}
            for (p, q), c in self._sorted()
        ]


ZERO = Scalar.zero()
ONE = Scalar.one()

# 2^{-1/2} = (e^{pi i/4} - e^{3 pi i/4}) / 2, available at cyclotomic level >= 4
HALF_SQRT2 = (Scalar.e(Fraction(1, 4)) - Scalar.e(Fraction(3, 4))) / 2


def binomial(a, k):
    """Generalized binomial coefficient C(a, k), as an int when it is one."""
    if k < 0:
        return 0
    if k.denominator != 1:
        raise ValueError("binomial index must be integral, got %s" % k)
    k = int(k)
    num = 1
    for j in range(k):
        num = num * (a - j)
    q = Fraction(num, factorial(k))
    return q.numerator if q.denominator == 1 else q


class Vec:
    """Formal linear combination of basis keys with Scalar coefficients."""

    __slots__ = ("comps",)

    def __init__(self, comps=None):
        self.comps = comps or {}

    @staticmethod
    def basis(key) -> "Vec":
        return Vec({key: ONE})

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
        for key, c in other.comps.items():
            s = comps.get(key)
            s = c if s is None else s + c
            if s.terms:
                comps[key] = s
            else:
                del comps[key]
        return Vec(comps)

    def __neg__(self):
        return Vec({k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Vec":
        if isinstance(c, (int, Fraction)):
            c = Scalar.rational(c)
        if not c.terms:
            return Vec.zero()
        if c.terms.get(_RKEY) == 1 and len(c.terms) == 1:
            return self
        out = {}
        for key, x in self.comps.items():
            s = x * c
            if s.terms:
                out[key] = s
        return Vec(out)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash(frozenset((k, c) for k, c in self.comps.items()))

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def items(self):
        return self.comps.items()

    def coeff(self, key) -> Scalar:
        return self.comps.get(key, ZERO)

    def __repr__(self):
        if not self.comps:
            return "0"
        return " + ".join("(%r)*|%s>" % (c, k) for k, c in sorted(
            self.comps.items(), key=lambda kv: repr(kv[0])))


def acc_vec(acc: dict, vec: Vec, c: Scalar = None) -> None:
    """Accumulate c * vec into a mutable {key: Scalar} dict."""
    if c is None:
        for key, x in vec.comps.items():
            s = acc.get(key)
            s = x if s is None else s + x
            if s.terms:
                acc[key] = s
            else:
                del acc[key]
    else:
        for key, x in vec.comps.items():
            y = x * c
            if not y.terms:
                continue
            s = acc.get(key)
            s = y if s is None else s + y
            if s.terms:
                acc[key] = s
            else:
                del acc[key]


def vec_of(acc: dict) -> Vec:
    return Vec({k: c for k, c in acc.items() if c.terms})


def homogeneous_value(vec: Vec, key_fn):
    """The one value of key_fn over the basis keys of vec, 0 for the zero
    vector; ValueError when the keys disagree."""
    vals = {key_fn(k) for k in vec.comps}
    if len(vals) > 1:
        raise ValueError("inhomogeneous vector: values %s"
                         % ", ".join(map(str, sorted(vals))))
    return vals.pop() if vals else 0
