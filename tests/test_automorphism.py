from fractions import Fraction

import pytest

from vertextwist.automorphism import (Automorphism, check_conjugation,
                                      check_derivation, check_homomorphism,
                                      jordan_decompose, nilpotent_power_coeffs,
                                      orthogonal_automorphism,
                                      parity_automorphism)
from vertextwist.errors import NonCyclotomicSpectrum, NotIsometry
from vertextwist.models import UNIPOTENT3
from vertextwist.scalars import Scalar, Vec, lattice
from vertextwist.vosa import HeisenbergAlgebra

F = Fraction


def test_identity_jordan(fermion):
    identity = Automorphism(fermion, {g.name: fermion.gen_vector(g.name)
                                      for g in fermion.gens}, "id")
    jd = jordan_decompose(identity, 2)
    assert jd.spectrum == [0]
    for blk in jd.blocks.values():
        assert blk.nilpotency_index <= 1
        assert not any(x for row in blk.K for x in row)


def test_parity_jordan(fermion):
    g = parity_automorphism(fermion)
    jd = jordan_decompose(g, F(9, 2))
    assert jd.spectrum == [0, F(1, 2)]
    for blk in jd.blocks.values():
        assert not any(x for row in blk.K for x in row)
    # e^{2 pi i S} reproduces g: odd vectors scale by -1
    psi = fermion.gen_vector("psi")
    assert g.semisimple_exp(psi) == psi.scale(-1)
    assert g.apply(psi) == psi.scale(-1)


def test_not_isometry_rejected(heis3):
    bad = [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
    with pytest.raises(NotIsometry):
        orthogonal_automorphism(heis3, bad)


def test_unipotent_gen_block(unip, heis3):
    # (g-1)^3 = 0 on generators and 2 pi i N_g: b -> -c, c -> a, a -> 0
    a = heis3.gen_vector("a")
    b = heis3.gen_vector("b")
    c = heis3.gen_vector("c")
    assert unip.apply(a) == a
    assert unip.apply(c) == c + a
    assert unip.apply(b) == b - c - a.scale(F(1, 2))
    assert unip.K_apply(b) == -c
    assert unip.K_apply(c) == a
    assert not unip.K_apply(a)


def test_unipotent_jordan_block(unip):
    jd = jordan_decompose(unip, 1)
    assert jd.spectrum == [0]
    blk = jd.blocks[F(1)]
    assert blk.nilpotency_index == 3
    # K matrix in basis order (a, b, c): Kb = -c, Kc = a
    K = blk.K
    assert K[0][2] == 1
    assert K[2][1] == -1
    assert not any(K[i][0] for i in range(3))


def test_jordan_idempotent(unip, heis3):
    # rebuild an automorphism from e^{2 pi i (S+N)} on generators and re-decompose
    images = {g.name: unip.unipotent_exp(unip.semisimple_exp(
        heis3.gen_vector(g.name))) for g in heis3.gens}
    g2 = Automorphism(heis3, images, name="rebuilt")
    jd1 = jordan_decompose(unip, 2)
    jd2 = jordan_decompose(g2, 2)
    assert jd1.spectrum == jd2.spectrum
    for w in jd1.blocks:
        assert jd1.blocks[w].basis == jd2.blocks[w].basis
        for r1, r2 in zip(jd1.blocks[w].K, jd2.blocks[w].K):
            assert r1 == r2


def test_blockwise_matches_pointwise(unip, heis3):
    # K_apply against K read off the matrix of g on each weight block
    from test_reference_forms import blockwise_reference
    by_weight = {}
    for key in heis3.basis(2):
        by_weight.setdefault(heis3.weight(key), []).append(key)
    for w, keys in by_weight.items():
        _alphas, K, _nil = blockwise_reference(unip, keys)
        for j, key in enumerate(keys):
            want = Vec({keys[i]: K[i][j] for i in range(len(keys))
                        if K[i][j]})
            assert unip.K_apply(Vec.basis(key)) == want, (w, key)


def test_doubled_K_on_generators_is_refused(heis3):
    g = orthogonal_automorphism(heis3, UNIPOTENT3, name="unipotent")
    gen_K = g.gen_K
    g.gen_K = lambda gidx: gen_K(gidx).scale(2)
    with pytest.raises(NonCyclotomicSpectrum):
        jordan_decompose(g, 1)


def test_leibniz_rule_without_its_rest_term_is_refused(heis3):
    g = orthogonal_automorphism(heis3, UNIPOTENT3, name="unipotent")

    def head_term_only(key):
        if not key:
            return Vec.zero()
        n = heis3.factor_weight(key[0])
        out = Vec.zero()
        for gkey, c in g.gen_K(heis3.gen_index(key[0])).items():
            # (K a)_(-n) on the rest: the creation mode of each generator
            gi = heis3.gen_index(gkey[0])
            N = lattice(-n + heis3.gen_weight(gi) - 1)
            out = out + heis3.gen_apply(gi, N, key[1:]).scale(c)
        return out
    g._K_key = head_term_only
    jordan_decompose(g, 1)   # one factor per key: the rest term is K(vacuum)
    with pytest.raises(NonCyclotomicSpectrum):
        jordan_decompose(g, 2)


def test_non_skew_K_on_generators_fails_the_derivation_check(heis3):
    # K b = -c, K c = 0 is nilpotent but not skew for the Gram form
    g = orthogonal_automorphism(heis3, UNIPOTENT3, name="unipotent")
    b_index = [gen.name for gen in heis3.gens].index("b")
    g.gen_K = lambda gidx: -heis3.gen_vector("c") if gidx == b_index \
        else Vec.zero()
    r = check_derivation(heis3, g, 2, 3)
    assert not r.ok
    assert r.first_mismatch["monomial"].startswith("x^"), r.first_mismatch


def test_alpha_decompose(fermion, heis3, unip):
    g = parity_automorphism(fermion)
    psi = fermion.gen_vector("psi")
    assert g.alpha_decompose(psi) == {F(1, 2): psi}
    two = fermion.mode_vec(psi, lattice(-2), 0, psi)  # psi(-3/2)psi, even
    assert list(g.alpha_decompose(two)) == [F(0)]
    mix = heis3.gen_vector("a") + heis3.gen_vector("c") + heis3.gen_vector("b")
    assert list(unip.alpha_decompose(mix)) == [F(0)]


def test_homomorphism_checks(fermion, unip, heis3):
    g = parity_automorphism(fermion)
    assert check_homomorphism(fermion, g.apply, 2, 3).ok
    assert check_homomorphism(heis3, unip.apply, 2, 3).ok
    # e^{2 pi i N} and e^{2 pi i S} are automorphisms as well
    assert check_homomorphism(heis3, unip.unipotent_exp, 2, 3).ok
    assert check_homomorphism(heis3, unip.semisimple_exp, 2, 3).ok


def test_derivation_and_conjugation_small(heis3, unip):
    assert check_derivation(heis3, unip, 2, halfwidth=4).ok
    assert check_conjugation(heis3, unip, 2, halfwidth=4).ok


def test_conjugation_has_pi_inverse_payload(unip, heis3):
    b = heis3.gen_vector("b")
    coeffs = nilpotent_power_coeffs(unip, b)
    assert len(coeffs) == 3
    # N b = -c/(2 PI)
    assert coeffs[1] == heis3.gen_vector("c").scale(
        Scalar.pi(-1) * F(-1, 2))


def test_two_step_unipotent_on_degenerate_form():
    # a null, c of norm 1; g: a -> a, c -> c + a is an isometry with
    # (g-1)^2 = 0, so the log series truncates at one term: K = g - 1
    import warnings
    from vertextwist.vosa import HeisenbergAlgebra, check_axioms
    V = HeisenbergAlgebra([[0, 0], [0, 1]], names=["a", "c"])
    assert V.degenerate
    g = orthogonal_automorphism(V, [[1, 1], [0, 1]], name="shear")
    a, c = V.gen_vector("a"), V.gen_vector("c")
    assert g.apply(c) == c + a
    assert g.K_apply(c) == a and not g.K_apply(a)
    jd = jordan_decompose(g, 1)
    assert jd.spectrum == [0]
    assert jd.blocks[F(1)].nilpotency_index == 2
    # axiom checks still run, minus the conformal ones
    results = check_axioms(V, 2, halfwidth=3)
    assert all(r.ok for r in results)
    assert {r.identity for r in results} == {
        "vacuum-identity", "creation", "L(-1)-derivative"}
    assert check_derivation(V, g, 2, halfwidth=3).ok


def test_non_cyclotomic_spectrum_rejected():
    from vertextwist.errors import NonCyclotomicSpectrum
    from vertextwist.vosa import HeisenbergAlgebra
    # diag(2, 1/2) preserves the hyperbolic form but has non-unit eigenvalues
    V = HeisenbergAlgebra([[0, 1], [1, 0]], names=["a", "b"])
    g = orthogonal_automorphism(V, [[2, 0], [0, F(1, 2)]], name="boost")
    with pytest.raises(NonCyclotomicSpectrum):
        jordan_decompose(g, 1)


@pytest.mark.parametrize("matrix, spectrum", [
    ([[0, 1], [1, 0]], [0, F(1, 2)]),
    ([[0, -1], [1, 0]], [0, F(1, 4), F(1, 2), F(3, 4)])])
def test_generators_across_eigenspaces(matrix, spectrum):
    # on a rank-2 Heisenberg algebra with Gram identity, the swap and the
    # quarter turn mix the generators, so S is read through the general
    # alpha decomposition of PBW keys, not a per-generator grading
    V = HeisenbergAlgebra([[1, 0], [0, 1]])
    g = orthogonal_automorphism(V, matrix)
    assert jordan_decompose(g, 3).spectrum == spectrum
    keys = V.basis(3)
    assert len(keys) == 18
    for key in keys:
        assert g.semisimple_exp(Vec.basis(key)) == g.apply(Vec.basis(key))
    for r in (check_homomorphism(V, g.apply, 2, 3),
              check_homomorphism(V, g.semisimple_exp, 2, 3),
              check_derivation(V, g, 2, 3), check_conjugation(V, g, 2, 3)):
        assert r.ok, r.to_json()
    with pytest.raises(NonCyclotomicSpectrum):
        g.gen_alpha(0)
