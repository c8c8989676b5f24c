"""Concrete algebras, automorphisms and twisted modules; the shipped models.

Shipped models: the free fermion with its parity automorphism and its
zero-mode-carrying twisted module; the rank-1 Heisenberg algebra with the
sign flip and its half-integer-moded twisted module; the rank-3 Heisenberg
algebra with a unipotent Gram isometry, for the Jordan and derivation
checks (`twisted.UnipotentViewModule` views it as a module over itself).

Module basis keys are integer tuples: the fermion-type twisted module uses
(sector, occ) with occ strictly decreasing positive ints (psi_{-k}); the
boson-type one uses a weakly decreasing tuple of odd ints o = 2k standing
for h(-k), k in Z + 1/2.
"""

from __future__ import annotations

from fractions import Fraction

from .automorphism import Automorphism, orthogonal_automorphism, \
    parity_automorphism
from .scalars import HALF_SQRT2, Vec
from .series import D
from .twisted import TwistedModule
from .vosa import FermionAlgebra, HeisenbergAlgebra, fock_keys, fock_move


def build_free_fermion(fault=None) -> FermionAlgebra:
    return FermionAlgebra(fault=fault)


def build_heisenberg(gram, names=None, fault=None) -> HeisenbergAlgebra:
    return HeisenbergAlgebra(gram, names=names, fault=fault)


# ---------------------------------------------------------------------------
# fermion-type twisted module (integer-moded, two-dimensional vacuum pair)
# ---------------------------------------------------------------------------

def _fermion_twisted_keys(max_deg):
    top = int(max_deg)
    return [(s, occ) for occ in fock_keys(range(top, 0, -1), top, int, True)
            for s in (0, 1)]


def build_ramond_module(fermion: FermionAlgebra, parity: Automorphism,
                        zero_mode_sign: int = 1, fault=None) -> TwistedModule:
    """Integer-moded twisted fermion module with psi_0^2 = 1/2 on a parity pair."""
    zscale = HALF_SQRT2 * zero_mode_sign
    if fault == "zero-mode-scale":
        zscale = HALF_SQRT2 * 2

    def gen_action(gidx, N, key) -> Vec:
        # N is the lattice int of the mode index n; p = n + 1/2
        p, off = divmod(N + D // 2, D)
        if off:
            return Vec.zero()
        sector, occ = key
        sgn = -1 if fault == "twisted-seed-sign" and p > 0 else 1
        if p:
            moved = fock_move(occ, abs(p), p < 0, True)
            if moved is None:
                return Vec.zero()
            return Vec.basis((sector, moved[0]), moved[1] * sgn)
        # zero mode: anticommute through occ, then flip the vacuum pair
        z = zscale
        if fault == "zero-mode-sector-sign" and sector == 1:
            z = -zscale   # breaks psi_0^2 = 1/2
        return Vec.basis((1 - sector, occ), -z if len(occ) % 2 else z)

    deg = lambda key: sum(key[1])
    par = lambda key: (key[0] + len(key[1])) % 2
    gsc = lambda key: (-1) ** par(key)
    # weight-revlex reads the occupation numbers reversed, then the sector
    revlex = lambda key: (tuple(reversed(key[1])), key[0])
    return TwistedModule("ramond", fermion, parity, gen_action,
                         _fermion_twisted_keys, deg, par, gsc, revlex=revlex)


# ---------------------------------------------------------------------------
# boson-type twisted module (half-integer-moded, one-dimensional vacuum)
# ---------------------------------------------------------------------------

def _boson_twisted_keys(max_deg):
    top = int(2 * Fraction(max_deg))
    return fock_keys([o for o in range(top, 0, -1) if o % 2], top, int, False)


def build_z2_twisted_boson(boson: HeisenbergAlgebra, minus1: Automorphism,
                           fault=None) -> TwistedModule:
    """Half-integer-moded twisted module of the rank-1 Heisenberg algebra."""
    if len(boson.gens) != 1:
        raise ValueError("half-integer moding is built for rank 1")

    def gen_action(gidx, N, key) -> Vec:
        # N is the lattice int of the mode index n; o = 2n must be odd
        o, off = divmod(2 * N, D)
        if off or o % 2 == 0:
            return Vec.zero()
        moved = fock_move(key, abs(o), o < 0, False)
        if o < 0:
            return Vec.basis(moved[0])
        if moved is None:
            return Vec.zero()
        k = Fraction(o, 2)
        if fault == "twisted-bracket-sign":
            k = -k
        return Vec.basis(moved[0], k * moved[1])

    deg = lambda key: Fraction(sum(key), 2)
    par = lambda key: 0
    gsc = lambda key: (-1) ** len(key)
    return TwistedModule("z2boson", boson, minus1, gen_action,
                         _boson_twisted_keys, deg, par, gsc)


# ---------------------------------------------------------------------------
# the shipped models
# ---------------------------------------------------------------------------

GRAM3 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
UNIPOTENT3 = [[1, Fraction(-1, 2), 1], [0, 1, 0], [0, -1, 1]]


class ModelBundle:
    """One shipped model: its algebra, and its automorphisms and twisted
    modules by name."""

    def __init__(self, model_id, algebra, automorphisms, twisted):
        self.id = model_id
        self.algebra = algebra
        self.automorphisms = automorphisms
        self.twisted = twisted


def shipped_models(fault=None) -> list:
    """The fermion with its parity and Ramond module, the rank-1 boson with
    its sign flip and Z2-twisted module, and heis3 (Gram form GRAM3) with
    its unipotent isometry UNIPOTENT3: g a = a, g c = c + a,
    g b = b - c - a/2.  Each algebra and module is built with `fault`."""
    fermion = build_free_fermion(fault=fault)
    parity = parity_automorphism(fermion)
    bundles = [ModelBundle("fermion", fermion, {"parity": parity}, {
        "ramond": build_ramond_module(fermion, parity, fault=fault)})]
    boson = build_heisenberg([[1]], fault=fault)
    minus1 = orthogonal_automorphism(boson, [[-1]], name="minus1")
    bundles.append(ModelBundle("boson1", boson, {"minus1": minus1}, {
        "z2boson": build_z2_twisted_boson(boson, minus1, fault=fault)}))
    heis3 = build_heisenberg(GRAM3, fault=fault)
    bundles.append(ModelBundle("heis3", heis3, {
        "unipotent": orthogonal_automorphism(heis3, UNIPOTENT3,
                                             name="unipotent")}, {}))
    return bundles


class Registry:
    """Lazily built id -> object map over the shipped models."""

    def __init__(self, fault=None):
        self.fault = fault
        self._bundles = None

    def bundles(self):
        if self._bundles is None:
            self._bundles = shipped_models(self.fault)
        return self._bundles

    def bundle(self, model_id):
        for b in self.bundles():
            if b.id == model_id:
                return b
        raise KeyError("unknown model id %r" % model_id)

    def twisted(self, twisted_id):
        for b in self.bundles():
            if twisted_id in b.twisted:
                return b.twisted[twisted_id]
        raise KeyError("unknown twisted module id %r" % twisted_id)

    def resolve(self, any_id):
        """Return ('algebra', bundle) or ('twisted', module) for an id."""
        for b in self.bundles():
            if b.id == any_id:
                return "algebra", b
        for b in self.bundles():
            if any_id in b.twisted:
                return "twisted", b.twisted[any_id]
        raise KeyError("unknown model id %r" % any_id)
