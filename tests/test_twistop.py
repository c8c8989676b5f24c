from fractions import Fraction

import pytest

from vertextwist import harness, twistop
from vertextwist.automorphism import orthogonal_automorphism, \
    parity_automorphism
from vertextwist.harness import SuiteConfig, run_suite
from vertextwist.models import (GRAM3, UNIPOTENT3, Registry,
                                build_free_fermion, build_heisenberg,
                                build_ramond_module, build_unipotent_toy,
                                build_z2_twisted_boson)
from vertextwist.scalars import (HALF_SQRT2, Scalar, Vec, acc_vec,
                                 binomial, vec_of)
from vertextwist.series import Box, coset_range, mono
from vertextwist.twistop import (check_gen_commutator,
                                 check_gen_weak_commutativity,
                                 check_L_minus1_twist, check_mixed_permutation,
                                 check_mixed_product,
                                 check_twist_decomposition, check_twist_jacobi,
                                 check_twist_vacuum_identity,
                                 check_weak_associativity,
                                 twist_commutativity_order,
                                 twist_matrix_element)

from test_verdicts import assert_located

F = Fraction
FH = F(1, 2)


@pytest.fixture(scope="module")
def fermion():
    return build_free_fermion()


@pytest.fixture(scope="module")
def ramond(fermion):
    return build_ramond_module(fermion, parity_automorphism(fermion))


@pytest.fixture(scope="module")
def boson():
    return build_heisenberg([[1]])


@pytest.fixture(scope="module")
def z2(boson):
    return build_z2_twisted_boson(boson, orthogonal_automorphism(boson, [[-1]],
                                                                 "minus1"))


@pytest.fixture(scope="module")
def toy():
    heis3 = build_heisenberg(GRAM3)
    unip = orthogonal_automorphism(heis3, UNIPOTENT3, "unipotent")
    return build_unipotent_toy(heis3, unip)


VAC = (0, ())
ODD = (1, ())


def test_twist_me_leading_term(fermion, ramond):
    psi = fermion.gen_vector("psi")
    s = twist_matrix_element(ramond, Vec.basis(VAC), psi,
                             wprime=Vec.basis(ODD))
    t = s.terms_in(Box.cube(1, -3, 3))
    assert t[mono([-FH])] == Scalar.e(-FH) * HALF_SQRT2


def test_vec_deg_and_parity_on_ramond(ramond):
    vacs = Vec.basis(VAC) + Vec.basis(ODD)     # sector 0 plus sector 1
    assert ramond.vec_deg(vacs) == 0
    with pytest.raises(ValueError):
        ramond.vec_parity(vacs)
    with pytest.raises(ValueError):
        ramond.vec_deg(Vec.basis(VAC) + Vec.basis((0, (1,))))
    assert (ramond.vec_deg(Vec.zero()), ramond.vec_parity(Vec.zero())) == (0, 0)


def test_chain_reads_end_degrees_from_its_slots(fermion, ramond):
    # the twist slot reads V and writes the module: psi has weight 1/2 in V,
    # and the module vector (0, (1,)) has degree 1
    psi = fermion.gen_vector("psi")
    s = twist_matrix_element(ramond, Vec.basis(VAC), psi,
                             wprime=Vec.basis((0, (1,))))
    assert (s.w0_deg, s.wprime_deg) == (FH, 1)
    s = ramond.chain(("x",), [(0, psi)], Vec.basis((0, (1,))))
    assert (s.w0_deg, s.wprime_deg) == (1, None)


def test_twist_me_parity(fermion, ramond):
    psi = fermion.gen_vector("psi")
    s = twist_matrix_element(ramond, Vec.basis(VAC), psi)
    for m, vec in s.terms_in(Box.cube(1, -2, 2)).items():
        for key in vec.comps:
            assert ramond.parity(key) == 1    # |psi| + |vac| = 1


def test_twist_vacuum_identity(fermion, ramond):
    for key in ramond.basis(F(3, 2)):
        r = check_twist_vacuum_identity(ramond, Vec.basis(key), 4)
        assert r.ok, (key, r.first_mismatch)


def test_twist_commutativity_orders(fermion, ramond):
    psi = fermion.gen_vector("psi")
    one = Vec.basis(fermion.vac)
    assert twist_commutativity_order(ramond, one, Vec.basis(VAC)) == 0
    assert twist_commutativity_order(ramond, psi, Vec.basis(VAC)) == 0
    psi1 = Vec.basis((0, (1,)))
    assert twist_commutativity_order(ramond, psi, psi1) >= 1


def test_weak_associativity(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_weak_associativity(ramond, psi, psi, Vec.basis(VAC), None, 3)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_weak_associativity(z2, h, h, Vec.basis(()), None, 3)
    assert r.ok, r.first_mismatch


def test_weak_associativity_identity_u(fermion, ramond):
    one = Vec.basis(fermion.vac)
    psi = fermion.gen_vector("psi")
    r = check_weak_associativity(ramond, one, psi, Vec.basis(ODD), None, 3)
    assert r.ok, r.first_mismatch


def test_twist_jacobi(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_twist_jacobi(ramond, psi, psi, Vec.basis(VAC), None, 3)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    hh = boson.mode_vec(h, -1, 0, h)
    r = check_twist_jacobi(z2, h, hh, Vec.basis(()), None, 2)
    assert r.ok, r.first_mismatch


def test_twist_jacobi_excited_module_argument(fermion, ramond):
    psi = fermion.gen_vector("psi")
    w = Vec.basis((1, (1,)))
    r = check_twist_jacobi(ramond, psi, psi, w, None, 2)
    assert r.ok, r.first_mismatch


def test_gen_commutator(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_gen_commutator(ramond, psi, psi, Vec.basis(VAC), None, 3)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_gen_commutator(z2, h, h, Vec.basis(()), None, 3)
    assert r.ok, r.first_mismatch


def test_gen_weak_commutativity(fermion, ramond, boson, z2):
    psi = fermion.gen_vector("psi")
    r = check_gen_weak_commutativity(ramond, psi, psi, Vec.basis(VAC), None, 3)
    assert r.ok, r.first_mismatch
    h = boson.gen_vector("h")
    r = check_gen_weak_commutativity(z2, h, h, Vec.basis(()), None, 3)
    assert r.ok, r.first_mismatch


def test_twist_decomposition_shipped_and_toy(fermion, ramond, toy):
    psi = fermion.gen_vector("psi")
    r = check_twist_decomposition(ramond, Vec.basis(VAC), psi, None, 3)
    assert r.ok, r.first_mismatch
    b = toy.V.gen_vector("b")
    a = toy.V.gen_vector("a")
    r = check_twist_decomposition(toy, a, b, None, 2)
    assert r.ok, r.first_mismatch


def test_twist_decomposition_failure_names_the_monomial(monkeypatch, fermion,
                                                        ramond):
    # a log term surviving in T_0 is reported on the monomial it sits on
    psi = fermion.gen_vector("psi")
    monkeypatch.setattr(twistop, "_t0_terms",
                        lambda *args: {mono([F(-1, 2)], [1]): 1})
    r = check_twist_decomposition(ramond, Vec.basis(VAC), psi, None, 3)
    assert not r.ok
    assert r.first_mismatch["monomial"] == "x^-1/2*log(x)"


def test_weak_associativity_and_mixed_product_refuse_unipotent(toy):
    b = toy.V.gen_vector("b")
    w = Vec.basis(toy.basis(0)[0])
    with pytest.raises(ValueError, match="semisimple"):
        check_weak_associativity(toy, b, b, w, None, 2)
    with pytest.raises(ValueError, match="semisimple"):
        check_mixed_product(toy, [b], w, [], b, None, 2)


def test_L_minus1_twist(fermion, ramond):
    psi = fermion.gen_vector("psi")
    r = check_L_minus1_twist(ramond, Vec.basis(VAC), psi, None, 3)
    assert r.ok, r.first_mismatch
    one = Vec.basis(fermion.vac)
    r = check_L_minus1_twist(ramond, Vec.basis((1, (1,))), one, None, 3)
    assert r.ok, r.first_mismatch


def test_mixed_product_k1_l0(fermion, ramond):
    psi = fermion.gen_vector("psi")
    r = check_mixed_product(ramond, [psi], Vec.basis(VAC), [], psi, None, 2)
    assert r.ok, r.first_mismatch


def test_mixed_product_k1_l1_boson(boson, z2):
    h = boson.gen_vector("h")
    one = Vec.basis(boson.vac)
    r = check_mixed_product(z2, [h], Vec.basis(()), [h], one, None, 2)
    assert r.ok, r.first_mismatch


def test_mixed_product_k0_l0(fermion, ramond):
    psi = fermion.gen_vector("psi")
    r = check_mixed_product(ramond, [], Vec.basis(ODD), [], psi, None, 3)
    assert r.ok, r.first_mismatch


def test_mixed_product_refuses_algebra_operator_with_v_not_vacuum(
        fermion, ramond, boson, z2):
    # the re-centered side would move with its truncation half-width:
    # z2boson w = vacuum gives rhs 49/8, 14 and 211/8 at x1^-3/2*x^-2*x2^1
    # when built at half-widths 2, 3 and 4, against lhs -7/16
    for W, u in ((z2, boson.gen_vector("h")),
                 (ramond, fermion.gen_vector("psi"))):
        w = Vec.basis(W.basis(0)[0])
        for tw in ([u], []):
            with pytest.raises(ValueError, match="vacuum"):
                check_mixed_product(W, tw, w, [u], u, None, 2)


@pytest.mark.parametrize("model", ["z2boson", "ramond"])
def test_mixed_product_admitted_cases_do_not_depend_on_truncation(model):
    # every case the mixed-products suite runs: its re-centered side on the
    # half-width-2 window is the same when built at half-width 3
    registry = Registry()
    tasks = harness._suite_tasks(SuiteConfig(model, "mixed-products", 1, 2),
                                 registry)
    assert tasks
    for task in tasks:
        assert task.func is check_mixed_product
        W, tw, w, alg, v, wprime, hw = task.args
        k, l = len(tw), len(alg)
        vars = tuple("x%d" % (i + 1) for i in range(k)) + ("x",) + \
            tuple("x%d" % (k + i + 1) for i in range(l))
        v_idx = list(range(k)) + [k + 1 + i for i in range(l)]
        box = Box.cube(len(vars), -F(hw), F(hw), W.log_bound)
        at = [twistop._recentered_product(W, tw + alg, w, v, wprime, vars,
                                          v_idx, k, k, h).terms_in(box)
              for h in (hw, hw + 1)]
        assert at[0] and at[0] == at[1], (k, l, w)


def test_mixed_permutation(fermion, ramond):
    psi = fermion.gen_vector("psi")
    with pytest.raises(ValueError):
        check_mixed_permutation(ramond, [("tw", psi), ("twist", Vec.basis(VAC))],
                                psi, None, None, 3)
    r = check_mixed_permutation(ramond, [("tw", psi), ("twist", Vec.basis(VAC))],
                                psi, None, 0, 3)
    assert r.ok, r.first_mismatch
    r = check_mixed_permutation(
        ramond, [("tw", psi), ("tw", psi), ("twist", Vec.basis(VAC))],
        Vec.basis(fermion.vac), None, 0, 2)
    assert r.ok, r.first_mismatch


def faulty_apply_key(horner_shift=1, phase=True):
    """TwistOpSlot._apply_key with Horner's divisor 1/(j + horner_shift)
    and, unless phase, the phase e^{-pi i (n+1)} of y^n = e^{pi i n} x^n
    dropped."""
    def _apply_key(self, e, k, vkey):
        W = self.module
        V = W.V
        sgn = (-1) ** (V.parity(vkey) * self.parity)
        bases = {}
        n_hi = self.wt + V.weight(vkey) - 1
        for beta, piece in W.g.alpha_decompose_key(vkey).items():
            for n in coset_range(-e - 1, n_hi, beta % 1):
                j = int(e + n + 1)
                for ksrc in range(k, W.log_bound + 1):
                    base = W.mode_vec(piece, n, ksrc, self.w_arg)
                    if not base:
                        continue
                    c = binomial(ksrc, k) * (Scalar.pi() ** (ksrc - k))
                    if phase:
                        c = Scalar.e(-n - 1) * c
                    acc_vec(bases.setdefault(j, {}), base, sgn * c)
        out = Vec.zero()
        for j in range(max(bases, default=-1), -1, -1):
            if out:
                out = W.L_minus1(out).scale(F(1, j + horner_shift))
            out = out + vec_of(bases.get(j, {}))
        return out
    return _apply_key


def test_twist_slot_copy_without_faults_is_the_slot(z2):
    clean = faulty_apply_key()
    compared = 0
    for wkey in z2.basis(1):
        slot = twistop.TwistOpSlot(z2, Vec.basis(wkey))
        for vkey in z2.V.basis(1):
            for e in (F(-3, 2), F(-1, 2), F(1, 2), F(3, 2)):
                got = slot._apply_key(e, 0, vkey)
                assert clean(slot, e, 0, vkey) == got, (wkey, vkey, e)
                compared += bool(got)
    assert compared


@pytest.mark.parametrize("fault", [{"horner_shift": 2}, {"phase": False}])
def test_twist_slot_faults_are_located(monkeypatch, fault):
    monkeypatch.setattr(twistop.TwistOpSlot, "_apply_key",
                        faulty_apply_key(**fault))
    rep = run_suite(SuiteConfig("z2boson", "twist-all", 1, 2), Registry())
    bad = [r for r in rep.records if not r.ok]
    assert bad, fault
    for r in bad:
        assert_located(r, r.identity)
