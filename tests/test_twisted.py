from fractions import Fraction
from itertools import product

import pytest

from vertextwist import twisted
from vertextwist.errors import ExtensionInconsistent
from vertextwist.models import Registry, build_ramond_module
from vertextwist.modes import ModeOracle
from vertextwist.automorphism import parity_automorphism
from vertextwist.scalars import HALF_SQRT2, Vec
from vertextwist.series import (D, Box, TermSeries, lattice, mono,
                                mono_parts)
from vertextwist.twisted import (check_commutator_formula, check_equivariance,
                                 check_g_compatibility,
                                 check_L_minus1_derivative_W,
                                 check_product_polynomiality,
                                 check_permutation_symmetry,
                                 check_twisted_jacobi,
                                 check_twisted_weak_commutativity,
                                 check_y0_decomposition)

from helpers import without_crosscheck

F = Fraction
FH = F(1, 2)


def test_identity_operator(ramond):
    vac = Vec.basis((0, ()))
    one = Vec.basis(ramond.V.vac)
    assert ramond.mode_vec(one, lattice(-1), 0, vac) == vac
    assert not ramond.mode_vec(one, lattice(0), 0, vac)


def test_ramond_two_point(fermion, ramond):
    psi = fermion.gen_vector("psi")
    s = ramond.me(psi, Vec.basis((0, ())), wprime=Vec.basis((1, ())))
    t = s.terms_in(Box.cube(1, -3, 3))
    assert t == {mono([FH * -1]): HALF_SQRT2}


def test_z2_two_point_vanishes(boson, z2):
    h = boson.gen_vector("h")
    s = z2.me(h, Vec.basis(()), wprime=Vec.basis(()))
    assert s.terms_in(Box.cube(1, -4, 4)) == {}
    # and the h h correlator has the half-integer kernel
    s2 = z2.chain(("x1", "x2"), [(0, h), (1, h)], Vec.basis(()),
                  wprime=Vec.basis(()))
    t = s2.terms_in(Box.cube(2, -3, 3))
    assert t[mono([F(-3, 2), F(-1, 2)])] == FH
    assert t[mono([F(-5, 2), FH])] == F(3, 2)


def test_spectra(ramond, z2):
    assert ramond.spectrum(2) == [0, FH]
    assert z2.spectrum(2) == [0, FH]


def test_vacuum_weights_are_one_sixteenth(ramond, z2):
    assert ramond.vacuum_weight() == F(1, 16)
    assert z2.vacuum_weight() == F(1, 16)


def test_L0_grading(ramond, z2):
    assert ramond.check_L0_grading(2).ok
    assert z2.check_L0_grading(2).ok


def test_normal_ordered_oracle_ramond(fermion, ramond):
    # independent route: L(0) = sum_{k>=1} k psi_{-k} psi_k + 1/16 on the basis,
    # using only the seeded Clifford action
    h = ramond.vacuum_weight()
    for key in ramond.basis(3):
        w = Vec.basis(key)
        acc = w.scale(h + ramond.deg(key))
        got = ramond.L0(w)
        total = Vec.zero()
        for k in range(1, 8):
            # psi_k at the lattice int of its spec index k - 1/2
            ann = ramond.gen_seed(0, lattice(k - FH), key)
            if ann:
                for kk, c in ann.items():
                    total = total + ramond.gen_seed(
                        0, lattice(-k - FH), kk).scale(c * k)
        assert got == total + w.scale(h), key


def test_normal_ordered_oracle_z2(boson, z2):
    # L(0) = sum_{k in N+1/2} h(-k) h(k) + 1/16 from the seeded bracket action
    h = z2.vacuum_weight()
    for key in z2.basis(F(5, 2)):
        w = Vec.basis(key)
        got = z2.L0(w)
        total = Vec.zero()
        k = FH
        while k <= 4:
            ann = z2.gen_seed(0, lattice(k), key)
            if ann:
                for kk, c in ann.items():
                    total = total + z2.gen_seed(0, lattice(-k), kk).scale(c)
            k += 1
        assert got == total + w.scale(h), key


def test_mode_support_cosets(fermion, ramond):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    # modes off the coset alpha + Z vanish identically
    assert not ramond.mode_vec(psi, lattice(0), 0, vac)
    assert not ramond.mode_vec(psi, lattice(-1), 0, vac)
    assert ramond.mode_vec(psi, lattice(-FH), 0, vac)


def test_twisted_weak_commutativity(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    r = check_twisted_weak_commutativity(ramond, psi, psi, vac, 5)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_twisted_weak_commutativity(z2, h, h, Vec.basis(()), 5)
    assert r.ok, r.first_mismatch


def test_twisted_jacobi_generators(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    r = check_twisted_jacobi(ramond, psi, psi, vac, 4)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    hh = boson.mode_vec(h, lattice(-1), 0, h)
    r = check_twisted_jacobi(z2, h, hh, Vec.basis(()), 3)
    assert r.ok, r.first_mismatch


def test_twisted_jacobi_identity_argument(fermion, ramond):
    one = Vec.basis(fermion.vac)
    vac = Vec.basis((1, (1,)))
    r = check_twisted_jacobi(ramond, one, one, vac, 3)
    assert r.ok, r.first_mismatch


def test_commutator_formula(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_commutator_formula(ramond, psi, psi, Vec.basis((0, ())), 4)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_commutator_formula(z2, h, h, Vec.basis(()), 4)
    assert r.ok, r.first_mismatch


def test_equivariance(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_equivariance(ramond, psi, Vec.basis((0, ())), 4)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_equivariance(z2, h, Vec.basis(()), 4)
    assert r.ok, r.first_mismatch


def test_g_compatibility(fermion, ramond):
    psi = fermion.gen_vector("psi")
    for key in ramond.basis(F(3, 2)):
        r = check_g_compatibility(ramond, psi, Vec.basis(key), 3)
        assert r.ok, (key, r.first_mismatch)


def test_L_minus1_derivative(fermion, ramond):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    r = check_L_minus1_derivative_W(ramond, psi, vac, 4)
    assert r.ok, r.first_mismatch
    # psi(-3/2) vac
    comp = fermion.mode_vec(psi, lattice(-2), 0, Vec.basis(fermion.vac))
    r = check_L_minus1_derivative_W(ramond, comp, vac, 4)
    assert r.ok, r.first_mismatch


def test_y0_decomposition_trivial_and_log(fermion, ramond, toy):
    psi = fermion.gen_vector("psi")
    r = check_y0_decomposition(ramond, psi, Vec.basis((0, ())), 3)
    assert r.ok, r.first_mismatch
    b = toy.V.gen_vector("b")
    a = toy.V.gen_vector("a")
    r = check_y0_decomposition(toy, b, a, 3)
    assert r.ok, r.first_mismatch
    r = check_y0_decomposition(toy, b, Vec.basis(toy.V.vac), 3)
    assert r.ok, r.first_mismatch


@pytest.mark.parametrize("name", ["ramond", "z2"])
def test_y0_decomposition_reads_modes_only_on_the_coset_of_u(
        request, monkeypatch, name):
    # every mode call of the decomposition sides has n in alpha(u) + Z
    W = request.getfixturevalue(name)
    on_coset = []
    mode_vec = W.mode_vec

    def counted(uvec, n, k, wvec):
        on_coset.append(any((n - lattice(al)) % D == 0
                            for al in W.g.coset_of(uvec)))
        return mode_vec(uvec, n, k, wvec)
    monkeypatch.setattr(W, "mode_vec", counted)
    for ukey in W.V.basis(F(3, 2)):
        for wkey in W.basis(1):
            r = check_y0_decomposition(W, Vec.basis(ukey), Vec.basis(wkey), 3)
            assert r.ok, (ukey, wkey, r.first_mismatch)
    assert on_coset and on_coset.count(False) == 0, \
        (on_coset.count(False), len(on_coset))


def test_toy_log_machinery(toy):
    # the unipotent view satisfies equivariance and weak commutativity with
    # genuine log terms in play, and the dressed checkers refuse it
    V3 = toy.V
    b = V3.gen_vector("b")
    c = V3.gen_vector("c")
    a = V3.gen_vector("a")
    assert check_equivariance(toy, b, a, 3).ok
    assert check_equivariance(toy, c, Vec.basis(V3.vac), 3).ok
    assert check_twisted_weak_commutativity(toy, b, c, Vec.basis(V3.vac),
                                            3).ok
    with pytest.raises(ValueError):
        check_twisted_jacobi(toy, b, c, a, 2)
    with pytest.raises(ValueError):
        check_commutator_formula(toy, b, c, a, 2)


def test_unipotent_view_is_read_at_its_log_bound(toy):
    # the log power k of Y(u, x) carries N^k u/k!, so the window reads every
    # log power the module carries and M covers the nilpotent parts: with M
    # from u and v alone, u = v = b, w = vac fails at x1^-3*x2^2*log(x2)^2
    vecs = [Vec.basis(k) for k in toy.V.basis(1)]
    records = [check_twisted_weak_commutativity(toy, u, v, w, 3)
               for u, v, w in product(vecs, repeat=3)]
    records += [check_equivariance(toy, u, w, 3)
                for u, w in product(vecs, repeat=2)]
    assert toy.log_bound == 6
    for r in records:
        assert r.ok, r.to_json()
        assert {cap for _, _, cap in r.window.values()} == {6}, r.window


def test_toy_module_has_logs(toy):
    b = toy.V.gen_vector("b")
    vac = Vec.basis(toy.V.vac)
    s = toy.me(b, vac)
    t = s.terms_in(Box.cube(1, -2, 2, 2))
    assert any(mono_parts(m, 1)[1][0] > 0 for m in t), \
        "expected log terms in the view module"


def test_product_polynomiality_two(fermion, ramond):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    r = check_product_polynomiality(ramond, [psi, psi], vac,
                                    Vec.basis((0, ())), 5)
    assert r.ok, r.first_mismatch


def test_polynomiality_failure_names_the_monomial(monkeypatch, fermion,
                                                  ramond):
    # a term below the predicted x1 interval [0, 1] stands in for the product
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    vars = ("x1", "x2")
    bad = TermSeries(vars, {mono([F(-5, 2), 1]): 1})
    monkeypatch.setattr(twisted, "prefactored_product",
                        lambda *args: (vars, bad, {(0, 1): 1}))
    r = check_product_polynomiality(ramond, [psi, psi], vac, vac, 3)
    assert not r.ok
    assert r.first_mismatch["monomial"] == "x1^-5/2*x2^1"


def test_permutation_symmetry_swap(fermion, ramond):
    psi = fermion.gen_vector("psi")
    vac = Vec.basis((0, ()))
    r = check_permutation_symmetry(ramond, [psi, psi], vac, None, [1, 0], 4)
    assert r.ok, r.first_mismatch


def test_permutation_symmetry_cyclic_boson(boson, z2):
    # even generators: a 3-cycle carries sign +1
    h = boson.gen_vector("h")
    vac = Vec.basis(())
    r = check_permutation_symmetry(z2, [h, h, h], vac, Vec.basis(()),
                                   [1, 2, 0], 3)
    assert r.ok, r.first_mismatch


def test_fault_breaks_jacobi(fermion):
    broken = without_crosscheck(build_ramond_module, fermion,
                                parity_automorphism(fermion),
                                fault="zero-mode-scale")
    psi = fermion.gen_vector("psi")
    r = check_twisted_jacobi(broken, psi, psi, Vec.basis((0, ())), 3)
    assert not r.ok and r.first_mismatch


@pytest.mark.parametrize("fault", [None, "twisted-bracket-sign"])
def test_crosscheck_refutes_a_bad_seed_at_weight_2(fault):
    # the construction rows (the vacuum and h(-1)1) have shift-free modes,
    # so the faulty module builds; at u = h(-1)h(-1)1 the two residue
    # shifts disagree under the fault
    W = Registry(fault=fault).twisted("z2boson")
    o = W.oracle
    cold = ModeOracle(o.algebra, o.gen_action, o.deg, o.alpha)
    if fault is None:
        cold.crosscheck([((1, 0), (1, 0))], W.basis(1))
    else:
        with pytest.raises(ExtensionInconsistent):
            cold.crosscheck([((1, 0), (1, 0))], W.basis(1))
