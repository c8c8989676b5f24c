"""Free-field vertex superalgebras presented by Fock-space mode oracles.

Basis keys are PBW monomials in creation modes applied to the vacuum ():
for the fermion a strictly decreasing tuple of positive half-integers n,
standing for psi_{-n}; for a Heisenberg algebra a tuple of (n, gen) pairs
sorted decreasingly, standing for a_gen(-n).  Composite vertex-operator
modes come from the shared ModeOracle recursion, so the axiom checkers
below genuinely certify the construction.

Every generator seed, here and for the twisted modules of `models.py`, is
one Fock rule, `fock_move`: a creation mode inserts its part into the
decreasing key, an annihilation mode removes it.  A fermion moves past
the parts before it with sign (-1)^(their number) and is Pauli-excluded;
a boson removed from a key carries its multiplicity.  `fock_keys`
enumerates the keys of every such Fock basis up to a weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor

from .chains import Space, pole_order
from .errors import DegenerateForm
from .linalg import mat_identity, solve
from .modes import ModeOracle
from .results import CheckResult, Modes, compare, first_failure
from .scalars import Vec, VecSum, exact, linear
from .series import (D, BinomialKernel, Box, Product, exponent, lattice,
                     lattice_coset, scaled)

F0 = Fraction(0)
F1 = Fraction(1)
FH = Fraction(1, 2)


def fock_move(key, part, create, fermionic):
    """Insert (create) or remove one part of a decreasing Fock key: (new
    key, coefficient), or None when the move gives zero."""
    if create:
        if fermionic and part in key:
            return None
        pos = sum(1 for f in key if f > part)
        return key[:pos] + (part,) + key[pos:], (-1) ** pos if fermionic else 1
    if part not in key:
        return None
    pos = key.index(part)
    return key[:pos] + key[pos + 1:], \
        (-1) ** pos if fermionic else key.count(part)


def fock_keys(parts, budget, weight, distinct):
    """Every key of total weight at most budget: the weakly decreasing
    tuples of parts, strictly decreasing when distinct.  parts is a sequence
    in decreasing order, each of positive weight(part)."""
    yield ()
    for i, p in enumerate(parts):
        w = weight(p)
        if w <= budget:
            for rest in fock_keys(parts[i + 1:] if distinct else parts[i:],
                                  budget - w, weight, distinct):
                yield (p,) + rest


class Gen:
    """A generator: its name, conformal weight and parity."""

    def __init__(self, name: str, weight: Fraction, parity: int):
        self.name, self.weight, self.parity = name, weight, parity


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
        """Mode index of the leading creation factor in the x^{-n-1}
        convention: -factor_weight(factor) + h - 1 for a generator of
        weight h."""
        raise NotImplementedError

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

    def gen_named(self, name) -> int:
        """The index of the generator called name; KeyError naming it and
        the known ones otherwise."""
        for i, g in enumerate(self.gens):
            if g.name == name:
                return i
        raise KeyError("unknown generator %r (known: %s)"
                       % (name, ", ".join(g.name for g in self.gens)))

    def gen_vector(self, name) -> Vec:
        return Vec.basis(self.gen_key(self.gen_named(name)))

    def gen_key(self, i):
        raise NotImplementedError

    def basis(self, max_weight, order="weight-lex"):
        max_weight = Fraction(max_weight)
        hit = self._basis_cache.get((max_weight, order))
        if hit is None:
            hit = self._basis_cache[max_weight, order] = self.ordered_basis(
                self._enumerate(max_weight), max_weight, order)
        return hit

    def _enumerate(self, max_weight):
        raise NotImplementedError

    # -- vertex operator modes -------------------------------------------------

    def gen_apply(self, i, N, key) -> Vec:
        """Generator i's mode at the lattice int N on one PBW key."""
        raise NotImplementedError

    def mode_apply(self, ukey, N: int, wkey) -> Vec:
        """The mode u_n w of one PBW key on another, N the lattice int of n."""
        return self.oracle.apply(ukey, N, wkey)

    # module-protocol views of vectors in the first tensor slot
    algebra_weight = Space.vec_deg
    algebra_parity = Space.vec_parity

    def algebra_coset(self, uvec: Vec) -> frozenset:
        return frozenset((F0,))

    def deg(self, key) -> Fraction:
        return self.weight(key)

    # -- distinguished operators -----------------------------------------------

    def L_minus1(self, vec: Vec) -> Vec:
        return linear(self._L_minus1_key, vec)

    def _L_minus1_key(self, key) -> Vec:
        """L(-1) on one PBW key, as a derivation: a factor of weight n of a
        generator of weight h goes to n - h + 1 times the factor one weight
        up, made by the creation mode one below the factor's own."""
        acc = VecSum()
        for f in dict.fromkeys(key):
            gi = self.gen_index(f)
            rest, c = fock_move(key, f, False, self.gens[gi].parity)
            acc.add(self.gen_apply(gi, lattice(self.spec_mode(f)) - D, rest),
                    (self.factor_weight(f) - self.gen_weight(gi) + 1) * c)
        return acc.vec()

    @property
    def omega(self) -> Vec:
        """The conformal vector; a subclass builds it once per algebra."""
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

    def _enumerate(self, max_weight):
        top = int(2 * Fraction(max_weight))
        return fock_keys([o for o in range(top, 0, -1) if o % 2], top, int,
                         True)

    def gen_apply(self, i, N, key) -> Vec:
        # physical mode p = n + 1/2, n = N/D, acting on psi_{-k1}...psi_{-kr}
        # vac; o = 2p is the doubled physical index, which must be odd
        o, off = divmod(2 * N + D, D)
        if off or o % 2 == 0:
            return Vec.zero()
        moved = fock_move(key, abs(o), o < 0, True)
        if moved is None:
            return Vec.zero()
        if o > 0:
            sgn = -1 if self.fault == "clifford-sign" else 1
        else:
            sgn = -1 if self.fault == "creation-sign" and -o >= 5 else 1
        return Vec.basis(moved[0], moved[1] * sgn)

    @cached_property
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

    def _enumerate(self, max_weight):
        max_weight = Fraction(max_weight)
        parts = [(k, g) for k in range(int(max_weight), 0, -1)
                 for g in range(len(self.gens) - 1, -1, -1)]
        return fock_keys(parts, max_weight, lambda f: f[0], False)

    def bracket(self, i, j) -> Fraction:
        v = self.gram[i][j]
        return -v if self.fault == "bracket-sign" else v

    def gen_apply(self, i, N, key) -> Vec:
        # N is the lattice int of the mode index p
        p, off = divmod(N, D)
        if off or p == 0:
            return Vec.zero()
        if p < 0:
            return Vec.basis(fock_move(key, (-p, i), True, False)[0])
        # a_i(p) meets each distinct factor a_j(-p) of the key
        out = Vec.zero()
        for f in dict.fromkeys(key):
            if f[0] != p:
                continue
            g = self.bracket(i, f[1])
            if g:
                rest, count = fock_move(key, f, False, False)
                out = out + Vec.basis(rest, p * g * count)
        return out

    @cached_property
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
        return Vec(comps)


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
        """lhs(key, N) = rhs(key, N) at the lattice exponents(key), key over
        the basis."""
        results.append(first_failure(identity, {"basis": len(basis)}, (
            Modes(exponents(key)).compare(identity, {name: str(key)},
                                          lambda n, k: lhs(key, n),
                                          lambda n, k: rhs(key, n))
            for key in basis)))

    def unit(key, n):
        return Vec.basis(key) if n == -D else Vec.zero()
    # vac_(-1) w = w, vac_(0) w = 0; u_(-1) vac = u, u_(n) vac = 0 for n >= 0
    scan("vacuum-identity", lambda w: (-D, 0),
         lambda w, n: V.mode_apply((), n, w), unit, "w")
    scan("creation",
         lambda u: lattice_coset(-D * (floor(V.weight(u)) + 1), 0, 0),
         lambda u, n: V.mode_apply(u, n, V.vac), unit)
    if omega is not None:
        # L(0) = omega_(1) acts by the weight, and L(-1) = omega_(0)
        scan("L0-grading", lambda u: (-2 * D,),
             lambda u, n: V.mode_vec(omega, n, 0, Vec.basis(u)),
             lambda u, n: Vec.basis(u, Fraction(V.weight(u))))
        scan("L(-1)-from-omega", lambda u: (-D,),
             lambda u, n: V.mode_vec(omega, n, 0, Vec.basis(u)),
             lambda u, n: V.L_minus1(Vec.basis(u)))

    # (L(-1)u)_(n) v = -n u_(n-1) v = [L(-1), u_(n)] v
    modes = Modes(lattice_coset(-D * (halfwidth + 1), D * (halfwidth - 1), 0))
    lowered = {key: V.L_minus1(Vec.basis(key)) for key in basis}

    def derivative(u, v):
        inputs = {"u": str(u), "v": str(v)}

        def want(n, k):
            return V.mode_apply(u, n - D, v).scale(-exponent(n))
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
    return pole_order(V.pole_modes(u, v))


def check_weak_commutativity(V, u: Vec, v: Vec, w: Vec,
                             halfwidth) -> CheckResult:
    """(x1-x2)^M Y(u,x1)Y(v,x2)w = +/- (x1-x2)^M Y(v,x2)Y(u,x1)w exactly."""
    M = max(weak_commutativity_order(V, u, v), 1)
    vars = ("x1", "x2")
    pref = BinomialKernel(vars, M, 0, 1)
    lhs = Product(pref, V.chain(vars, [(0, u), (1, v)], w))
    sign = (-1) ** (V.algebra_parity(u) * V.algebra_parity(v))
    rhs = scaled(Product(pref, V.chain(vars, [(1, v), (0, u)], w)), sign)
    return compare("weak-commutativity-V",
                   {"u": str(u), "v": str(v), "w": str(w), "M": M}, vars,
                   Box.cube(2, -halfwidth, halfwidth), lhs, rhs)
