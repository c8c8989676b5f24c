"""Free-field vertex superalgebras presented by Fock-space mode oracles.

Basis keys are PBW monomials in creation modes applied to the vacuum ():
for the fermion a strictly decreasing tuple of positive half-integers n,
standing for psi_{-n}; for a Heisenberg algebra a tuple of (n, gen) pairs
sorted decreasingly, standing for a_gen(-n).  Composite vertex-operator
modes come from the shared ModeOracle recursion, so the axiom checkers
below genuinely certify the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .chains import Space
from .errors import DegenerateForm
from .linalg import mat_identity, solve
from .modes import ModeOracle
from .results import CheckResult, Modes, compare, first_failure
from .scalars import Vec, exact
from .series import BinomialKernel, Box, Product, scaled

F0 = Fraction(0)
F1 = Fraction(1)
FH = Fraction(1, 2)


@dataclass(frozen=True)
class Gen:
    name: str
    weight: Fraction
    parity: int


class FreeFieldAlgebra(Space):
    """Common machinery; subclasses supply the generator Fock action."""

    kind = None

    def __init__(self, gens, fault=None):
        self.gens = tuple(gens)
        self.fault = fault
        self._weights = {}                    # PBW key -> its weight
        self.vac = ()
        self.oracle = ModeOracle(self, self.gen_apply, self.weight,
                                 lambda g: 0)
        self.log_bound = 0
        self._basis_cache = {}

    # -- key structure -------------------------------------------------------

    def gen_index(self, factor) -> int:
        raise NotImplementedError

    def factor_weight(self, factor) -> Fraction:
        raise NotImplementedError

    def spec_mode(self, factor) -> Fraction:
        """Mode index of the leading creation factor in the x^{-n-1} convention."""
        g = self.gens[self.gen_index(factor)]
        return -self.factor_weight(factor) + g.weight - 1

    def gen_weight(self, i) -> Fraction:
        return self.gens[i].weight

    def gen_parity(self, i) -> int:
        return self.gens[i].parity

    def weight(self, key):
        w = self._weights.get(key)
        if w is None:
            w = self._weights[key] = sum(self.factor_weight(f) for f in key)
        return w

    def parity(self, key) -> int:
        return sum(self.gens[self.gen_index(f)].parity for f in key) % 2

    def gen_vector(self, name) -> Vec:
        for i, g in enumerate(self.gens):
            if g.name == name:
                return Vec.basis(self.gen_key(i))
        raise KeyError(name)

    def gen_key(self, i):
        raise NotImplementedError

    def basis(self, max_weight, order="weight-lex"):
        key = (Fraction(max_weight), order)
        hit = self._basis_cache.get(key)
        if hit is None:
            keys = list(self._enumerate(Fraction(max_weight)))
            if order == "weight-lex":
                keys.sort(key=lambda k: (self.weight(k), k))
            elif order == "weight-revlex":
                keys.sort(key=lambda k: (self.weight(k), tuple(reversed(k))))
            else:
                raise ValueError("unknown basis order %r" % order)
            hit = keys
            self._basis_cache[key] = hit
        return hit

    def _enumerate(self, max_weight):
        raise NotImplementedError

    # -- vertex operator modes -------------------------------------------------

    def gen_apply(self, i, n, key) -> Vec:
        raise NotImplementedError

    def mode_apply(self, ukey, n, wkey) -> Vec:
        return self.oracle.apply(ukey, n, wkey)

    def mode_vec(self, uvec: Vec, n, k, wvec: Vec) -> Vec:
        if k:
            return Vec.zero()
        return self.oracle.apply_vec(uvec, n, wvec)

    # module-protocol views of vectors in the first tensor slot
    algebra_weight = Space.vec_deg
    algebra_parity = Space.vec_parity

    def algebra_coset(self, uvec: Vec) -> frozenset:
        return frozenset((F0,))

    def deg(self, key) -> Fraction:
        return self.weight(key)

    # -- distinguished operators -----------------------------------------------

    def L_minus1(self, vec: Vec) -> Vec:
        out = Vec.zero()
        for key, c in vec.items():
            for i in range(len(key)):
                f = key[i]
                n = self.factor_weight(f)
                h = self.gen_weight(self.gen_index(f))
                rest = key[:i] + key[i + 1:]
                sgn = (-1) ** i if self.gens[self.gen_index(f)].parity else 1
                created = self.gen_apply(self.gen_index(f),
                                         self.spec_mode(self._bump(f)), rest)
                if created:
                    out = out + created.scale(c * ((n - h + 1) * sgn))
        return out

    def _bump(self, factor):
        raise NotImplementedError

    def L0(self, vec: Vec) -> Vec:
        out = Vec.zero()
        for key, c in vec.items():
            out = out + Vec.basis(key).scale(c * self.weight(key))
        return out

    @property
    def omega(self) -> Vec:
        raise NotImplementedError


class FermionAlgebra(FreeFieldAlgebra):
    """Single free fermion psi of weight 1/2; {psi_m, psi_n} = delta_{m+n,0}.

    Basis keys are strictly decreasing tuples of odd positive ints o = 2n,
    standing for psi_{-n}; integer factors keep key hashing cheap.
    """

    kind = "fermion"

    def __init__(self, fault=None):
        super().__init__([Gen("psi", FH, 1)], fault)

    def gen_index(self, factor):
        return 0

    def factor_weight(self, factor):
        return Fraction(factor, 2)

    def spec_mode(self, factor):
        return -(factor + 1) // 2

    def gen_key(self, i):
        return (1,)

    def _bump(self, factor):
        return factor + 2

    def _enumerate(self, max_weight):
        top = int(2 * Fraction(max_weight))

        def rec(start, budget):
            yield ()
            o = min(start, budget)
            if o % 2 == 0:
                o -= 1
            while o >= 1:
                for rest in rec(o - 2, budget - o):
                    yield (o,) + rest
                o -= 2
        yield from rec(top, top)

    def gen_apply(self, i, n, key) -> Vec:
        # physical mode p = n + 1/2 acting on psi_{-k1}...psi_{-kr} vac
        o = 2 * Fraction(n) + 1       # doubled physical index, must be odd
        if o.denominator != 1:
            return Vec.zero()
        o = int(o)
        if o % 2 == 0:
            return Vec.zero()
        if o > 0:
            if o not in key:
                return Vec.zero()
            pos = key.index(o)
            sgn = -1 if self.fault == "clifford-sign" else 1
            return Vec.basis(key[:pos] + key[pos + 1:]).scale(
                (-1) ** pos * sgn)
        c = -o
        if c in key:
            return Vec.zero()
        pos = sum(1 for f in key if f > c)
        sgn = -1 if self.fault == "creation-sign" and c >= 5 else 1
        return Vec.basis(key[:pos] + (c,) + key[pos:]).scale(
            (-1) ** pos * sgn)

    @property
    def omega(self) -> Vec:
        c = FH
        if self.fault == "omega-scale":
            c = F1
        return Vec({(3, 1): c})


class HeisenbergAlgebra(FreeFieldAlgebra):
    """Rank-r Heisenberg algebra; [a_i(m), a_j(n)] = m <a_i,a_j> delta_{m+n,0}."""

    kind = "heisenberg"

    def __init__(self, gram, names=None, fault=None):
        rank = len(gram)
        names = names or (["h"] if rank == 1 else
                          [chr(ord("a") + i) for i in range(rank)])
        self.gram = [[exact(Fraction(x)) for x in row] for row in gram]
        for i in range(rank):
            for j in range(rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        super().__init__([Gen(nm, 1, 0) for nm in names], fault)
        cols = solve(self.gram, mat_identity(rank))
        self.degenerate = cols is None
        self.gram_inv = None if cols is None else \
            [[c[i] for c in cols] for i in range(rank)]

    def gen_index(self, factor):
        return factor[1]

    def factor_weight(self, factor):
        return factor[0]

    def spec_mode(self, factor):
        return -factor[0]

    def gen_key(self, i):
        return ((1, i),)

    def _bump(self, factor):
        return (factor[0] + 1, factor[1])

    def _enumerate(self, max_weight):
        rank = len(self.gens)

        def rec(maxfac, budget):
            yield ()
            for k in range(int(budget), 0, -1):
                for g in range(rank - 1, -1, -1):
                    f = (k, g)
                    if f > maxfac:
                        continue
                    for rest in rec(f, budget - k):
                        yield (f,) + rest
        yield from rec((int(Fraction(max_weight)) + 1, rank), Fraction(max_weight))

    def bracket(self, i, j) -> Fraction:
        v = self.gram[i][j]
        return -v if self.fault == "bracket-sign" else v

    def gen_apply(self, i, n, key) -> Vec:
        p = Fraction(n)
        if p.denominator != 1:
            return Vec.zero()
        p = int(p)
        if p == 0:
            return Vec.zero()
        if p < 0:
            f = (-p, i)
            pos = sum(1 for x in key if x > f)
            return Vec.basis(key[:pos] + (f,) + key[pos:])
        out = Vec.zero()
        seen = set()
        for pos, (m, j) in enumerate(key):
            if m != p or (m, j) in seen:
                continue
            seen.add((m, j))
            g = self.bracket(i, j)
            if g:
                count = key.count((m, j))
                out = out + Vec.basis(key[:pos] + key[pos + 1:]).scale(
                    p * g * count)
        return out

    @property
    def omega(self) -> Vec:
        if self.degenerate:
            raise DegenerateForm("Gram matrix is singular; no conformal vector")
        comps = {}
        rank = len(self.gens)
        scale = 2 if self.fault == "omega-scale" else 1
        for i in range(rank):
            for j in range(rank):
                c = self.gram_inv[i][j] * Fraction(scale, 2)
                if not c:
                    continue
                key = tuple(sorted([(1, i), (1, j)], reverse=True))
                comps[key] = comps.get(key, F0) + c
        return Vec({k: c for k, c in comps.items() if c})


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def check_axioms(V, max_weight, halfwidth=4) -> list:
    """Identity, creation, L(0)-grading and both L(-1) properties, basiswise.

    Returns one CheckResult per axiom, the first failing basis tuple's if
    any; each axiom is stated mode by mode on the modes it reads.
    """
    basis = V.basis(max_weight)
    try:
        omega = V.omega
    except DegenerateForm:
        omega = None
    results = []

    def scan(identity, exponents, lhs, rhs, name="u"):
        """lhs(key, n) = rhs(key, n) at exponents(key), key over the basis."""
        results.append(first_failure(identity, {"basis": len(basis)}, (
            Modes(exponents(key)).compare(identity, {name: str(key)},
                                          lambda n, k: lhs(key, n),
                                          lambda n, k: rhs(key, n))
            for key in basis)))

    def unit(key, n):
        return Vec.basis(key) if n == -1 else Vec.zero()
    # vac_(-1) w = w, vac_(0) w = 0; u_(-1) vac = u, u_(n) vac = 0 for n >= 0
    scan("vacuum-identity", lambda w: (-1, 0),
         lambda w, n: V.mode_apply((), n, w), unit, "w")
    scan("creation", lambda u: range(-floor(V.weight(u)) - 1, 1),
         lambda u, n: V.mode_apply(u, n, V.vac), unit)
    if omega is not None:
        # L(0) = omega_(1) acts by the weight, and L(-1) = omega_(0)
        scan("L0-grading", lambda u: (-2,),
             lambda u, n: V.mode_vec(omega, n, 0, Vec.basis(u)),
             lambda u, n: Vec.basis(u).scale(Fraction(V.weight(u))))
        scan("L(-1)-from-omega", lambda u: (-1,),
             lambda u, n: V.mode_vec(omega, n, 0, Vec.basis(u)),
             lambda u, n: V.L_minus1(Vec.basis(u)))

    # (L(-1)u)_(n) v = -n u_(n-1) v = [L(-1), u_(n)] v
    modes = Modes(range(-halfwidth - 1, halfwidth))
    lowered = {key: V.L_minus1(Vec.basis(key)) for key in basis}

    def derivative(u, v):
        inputs = {"u": str(u), "v": str(v)}

        def want(n, k):
            return V.mode_apply(u, n - 1, v).scale(Fraction(-n))
        yield modes.compare(
            "L(-1)-derivative", inputs,
            lambda n, k: V.mode_vec(lowered[u], n, 0, Vec.basis(v)), want)
        yield modes.compare(
            "L(-1)-derivative", inputs,
            lambda n, k: V.L_minus1(V.mode_apply(u, n, v))
            - V.mode_vec(Vec.basis(u), n, 0, lowered[v]), want)
    results.append(first_failure("L(-1)-derivative", {"basis": len(basis)}, (
        r for u in basis for v in basis for r in derivative(u, v))))
    return results


def weak_commutativity_order(V, u: Vec, v: Vec) -> int:
    """Minimal M >= 0 with x^M Y(u,x)v a power series."""
    n = floor(V.algebra_weight(u) + V.algebra_weight(v) - 1)
    while n >= 0:
        if V.mode_vec(u, n, 0, v):
            return n + 1
        n -= 1
    return 0


def check_weak_commutativity(V, u: Vec, v: Vec, w: Vec, wprime,
                             halfwidth) -> CheckResult:
    """(x1-x2)^M <Y(u,x1)Y(v,x2)> = +/- (x1-x2)^M <Y(v,x2)Y(u,x1)> exactly."""
    M = max(weak_commutativity_order(V, u, v), 1)
    vars = ("x1", "x2")
    pref = BinomialKernel(vars, M, 0, 1)
    lhs = Product(pref, V.chain(vars, [(0, u), (1, v)], w, wprime))
    sign = (-1) ** (V.algebra_parity(u) * V.algebra_parity(v))
    rhs = scaled(Product(pref, V.chain(vars, [(1, v), (0, u)], w, wprime)),
                 sign)
    return compare("weak-commutativity-V",
                   {"u": str(u), "v": str(v), "w": str(w), "M": M}, vars,
                   Box.cube(2, -halfwidth, halfwidth), lhs, rhs)
