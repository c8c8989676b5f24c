from fractions import Fraction

import pytest

from vertextwist.scalars import Vec
from vertextwist.series import Box, exponent, lattice, mono, mono_parts
from vertextwist.vosa import (FermionAlgebra, HeisenbergAlgebra, check_axioms,
                              check_weak_commutativity,
                              weak_commutativity_order)

F = Fraction
FH = F(1, 2)


def weights(V, w):
    return sorted(V.weight(k) for k in V.basis(w))


@pytest.mark.parametrize("make", [
    FermionAlgebra, lambda: HeisenbergAlgebra([[1]]),
    lambda: HeisenbergAlgebra([[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
    ids=["fermion", "boson1", "heis3"])
def test_weight_is_the_factor_sum_computed_once_per_key(make, monkeypatch):
    V = make()
    factor_weight = V.factor_weight
    summed = []
    monkeypatch.setattr(V, "factor_weight",
                        lambda f: summed.append(f) or factor_weight(f))
    keys = V.basis(3)           # sorted by weight
    sums = []
    for _ in range(2):
        for key in keys:
            assert V.weight(key) == sum(factor_weight(f) for f in key)
        sums.append(len(summed))
    # basis(3) and the first sweep sum each key's factors at most once, the
    # second sweep sums none
    assert sums[0] <= sum(len(key) for key in keys) and sums[1] == sums[0]


def test_fermion_basis_counts(fermion):
    assert weights(fermion, F(2)) == [0, FH, F(3, 2), 2]
    # dim of weight-1/2 and weight-2 spaces
    assert sum(1 for k in fermion.basis(F(9, 2)) if fermion.weight(k) == FH) == 1
    assert sum(1 for k in fermion.basis(F(9, 2)) if fermion.weight(k) == 2) == 1
    two = [k for k in fermion.basis(2) if fermion.weight(k) == 2][0]
    assert fermion.parity(two) == 0


def test_boson_basis_counts(boson, heis3):
    assert sum(1 for k in boson.basis(2) if boson.weight(k) == 2) == 2
    # 3-colored partitions of n: 1, 3, 9, 22
    for n, d in [(1, 3), (2, 9), (3, 22)]:
        assert sum(1 for k in heis3.basis(3) if heis3.weight(k) == n) == d


def test_vacuum_matrix_element(fermion):
    s = fermion.me(Vec.basis(fermion.vac), Vec.basis(fermion.vac),
                   wprime=Vec.basis(fermion.vac))
    assert s.terms_in(Box.cube(1, -4, 4)) == {mono([0]): 1}


def test_fermion_two_point(fermion):
    psi = fermion.gen_vector("psi")
    s = fermion.me(psi, psi, wprime=Vec.basis(fermion.vac))
    assert s.terms_in(Box.cube(1, -4, 4)) == {mono([-1]): 1}


def test_boson_two_point(boson):
    h = boson.gen_vector("h")
    s = boson.me(h, h, wprime=Vec.basis(boson.vac))
    assert s.terms_in(Box.cube(1, -4, 4)) == {mono([-2]): 1}


def test_weight_conservation_single_monomial(fermion):
    # <v', Y(u,x)w> is a single monomial x^(wt v' - wt u - wt w)
    basis = fermion.basis(F(5, 2))
    for u in basis[:4]:
        for w in basis[:4]:
            for vp in basis:
                s = fermion.me(Vec.basis(u), Vec.basis(w),
                               wprime=Vec.basis(vp))
                t = s.terms_in(Box.cube(1, -6, 6))
                assert len(t) <= 1
                for m in t:
                    assert exponent(mono_parts(m, 1)[0][0]) == \
                        fermion.weight(vp) \
                        - fermion.weight(u) - fermion.weight(w)


def test_fermion_number_conservation(fermion):
    basis = fermion.basis(2)
    for u in basis:
        for w in basis:
            for vp in basis:
                if (fermion.parity(u) + fermion.parity(w)) % 2 != fermion.parity(vp):
                    s = fermion.me(Vec.basis(u), Vec.basis(w),
                                   wprime=Vec.basis(vp))
                    assert s.terms_in(Box.cube(1, -5, 5)) == {}


def test_weak_commutativity_orders(fermion, boson):
    psi = fermion.gen_vector("psi")
    h = boson.gen_vector("h")
    vac_f = Vec.basis(fermion.vac)
    assert weak_commutativity_order(fermion, vac_f, psi) == 0
    assert weak_commutativity_order(fermion, psi, psi) == 1
    assert weak_commutativity_order(boson, h, h) == 2


def test_weak_commutativity_fermion(fermion):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis(fermion.vac)
    r = check_weak_commutativity(fermion, psi, psi, vac, 6)
    assert r.ok, r.first_mismatch


def test_weak_commutativity_boson_composite(boson):
    h = boson.gen_vector("h")
    hh = boson.mode_vec(h, lattice(-1), 0, h)  # h(-1)h
    r = check_weak_commutativity(boson, h, hh, Vec.basis(boson.vac), 5)
    assert r.ok, r.first_mismatch


def test_vec_deg_and_parity_need_homogeneous_vectors(fermion):
    psi = fermion.gen_vector("psi")
    assert (fermion.vec_deg(psi), fermion.vec_parity(psi)) == (FH, 1)
    mixed = Vec.basis(fermion.vac) + psi
    for read in (fermion.vec_deg, fermion.vec_parity):
        with pytest.raises(ValueError):
            read(mixed)
        assert read(Vec.zero()) == 0


def test_axioms_small(fermion, boson):
    for V, w in ((fermion, F(5, 2)), (boson, 2)):
        for r in check_axioms(V, w, halfwidth=3):
            assert r.ok, (r.identity, r.first_mismatch)


def test_axioms_fault_located():
    bad = FermionAlgebra(fault="clifford-sign")
    rs = check_axioms(bad, 2, halfwidth=3)
    assert any(not r.ok for r in rs)
    failed = [r for r in rs if not r.ok]
    assert failed[0].first_mismatch


def test_mode_oracle_refuses_rational_index():
    # the oracle takes lattice ints; a rational index on a memo miss is a
    # caller bug, not a zero mode
    V = FermionAlgebra()
    with pytest.raises(TypeError, match="lattice int"):
        V.oracle.apply((1,), FH, (1,))
    with pytest.raises(TypeError, match="lattice int"):
        V.oracle.apply_vec(Vec.basis((1,)), F(-1), Vec.basis(()))
    assert V.mode_apply((1,), lattice(-1), ()) == Vec.basis((1,))
