"""Acceptance suite: every exit criterion at its stated range, exact arithmetic.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Module cutoffs count degrees above the twisted vacuum.
"""

from fractions import Fraction

from vertextwist.automorphism import (Automorphism, check_conjugation,
                                      check_derivation, jordan_decompose,
                                      parity_automorphism,
                                      orthogonal_automorphism)
from vertextwist.harness import module_roles, sweep
from vertextwist.models import (GRAM3, build_free_fermion, build_heisenberg,
                                build_ramond_module, build_z2_twisted_boson)
from vertextwist.results import first_failure
from vertextwist.scalars import Vec, lattice
from vertextwist.twisted import check_twisted_jacobi
from vertextwist.twistop import check_twist_jacobi, check_weak_associativity
from vertextwist.vosa import check_axioms

from helpers import without_crosscheck

F = Fraction
FH = F(1, 2)


def report(name, ok, detail=""):
    line = "%s: %s%s" % (name, "PASS" if ok else "FAIL",
                         (" " + detail if detail else ""))
    print(line)
    assert ok, line


def report_sweep(name, tasks, count, with_inputs=False):
    """Report a sweep of `count` checks, the tasks of `harness.sweep`, by its
    first failing record; no check after that failure runs."""
    assert len(tasks) == count, "%s: %d checks, not %d" % (name, len(tasks),
                                                           count)
    r = first_failure(name, {}, (task() for task in tasks))
    detail = (r.inputs, r.first_mismatch) if with_inputs else r.first_mismatch
    report(name, r.ok, "" if r.ok else str(detail))


# -- A1 ----------------------------------------------------------------------

def test_a1_axioms(fermion, boson, heis3):
    for name, V, cut in (("fermion", fermion, F(9, 2)),
                         ("heisenberg rank 1", boson, F(4)),
                         ("heisenberg rank 3", heis3, F(4))):
        results = check_axioms(V, cut, halfwidth=4)
        bad = [r for r in results if not r.ok]
        report("A1 axioms (%s, weight <= %s)" % (name, cut), not bad,
               str(bad[0].first_mismatch) if bad else
               "%d axioms" % len(results))


# -- A2 ----------------------------------------------------------------------

def test_a2_jordan(fermion, heis3, unip):
    parity = parity_automorphism(fermion)
    jd = jordan_decompose(parity, F(9, 2))
    ok = jd.spectrum == [0, FH] and all(
        not any(x for row in b.K for x in row) for b in jd.blocks.values())
    # semisimple part alone reproduces g
    for key in fermion.basis(F(5, 2)):
        ok = ok and parity.semisimple_exp(Vec.basis(key)) == \
            parity.apply(Vec.basis(key))
    report("A2 parity decomposition (S reproduces g, N = 0, P_V = {0, 1/2})", ok)

    # jordan_decompose certifies e^{2 pi i (S+N)} = g on every basis vector
    jd = jordan_decompose(unip, 3)
    blk = jd.blocks[F(1)]
    a, b, c = (heis3.gen_vector(n) for n in "abc")
    ok = (jd.spectrum == [0] and blk.nilpotency_index == 3
          and unip.K_apply(b) == -c and unip.K_apply(c) == a
          and not unip.K_apply(a))
    # e^{2 pi i (S+N)} = g, exactly, on the weight-2 and weight-3 blocks too
    for key in heis3.basis(3):
        ok = ok and unip.unipotent_exp(unip.semisimple_exp(Vec.basis(key))) \
            == unip.apply_key(key)
    report("A2 unipotent decomposition (2 pi i N: b -> -c -> ... , exp = g)", ok)

    images = {g.name: unip.unipotent_exp(unip.semisimple_exp(
        heis3.gen_vector(g.name))) for g in heis3.gens}
    jd2 = jordan_decompose(Automorphism(heis3, images, "rebuilt"), 2)
    ok = jd2.spectrum == jd.spectrum
    for w in jd.blocks:
        if w in jd2.blocks:
            ok = ok and all(r1 == r2 for r1, r2 in
                            zip(jd.blocks[w].K, jd2.blocks[w].K))
    report("A2 decomposition idempotent", ok)


# -- A3 ----------------------------------------------------------------------

def test_a3_derivation_conjugation(heis3, unip):
    r = check_derivation(heis3, unip, 3, halfwidth=6)
    report("A3 nilpotent derivation (weight <= 3, |exp| <= 6)", r.ok,
           str(r.first_mismatch) if not r.ok else "")
    r = check_conjugation(heis3, unip, 3, halfwidth=6)
    report("A3 nilpotent conjugation (weight <= 3, |exp| <= 6)", r.ok,
           str(r.first_mismatch) if not r.ok else "")


# -- A4 / A5 / A6 ------------------------------------------------------------

def test_a4_twisted_jacobi(ramond, z2):
    for W, count in ((ramond, 96), (z2, 112)):
        report_sweep("A4 twisted Jacobi (%s, u,v,w to weight 2, |exp| <= 4)"
                     % W.name, sweep(["twisted-jacobi"], module_roles(W, 2),
                                     W=W, hw=4), count, with_inputs=True)


def test_a5_weak_comm_and_commutator(ramond, z2):
    for W, count in ((ramond, 96), (z2, 112)):
        for identity in ("twisted-weak-commutativity", "commutator-formula"):
            report_sweep("A5 %s (%s)" % (identity, W.name),
                         sweep([identity], module_roles(W, 2), W=W, hw=4),
                         count, with_inputs=True)


def test_a6_equivariance(ramond, z2):
    for W, count in ((ramond, 24), (z2, 28)):
        report_sweep("A6 equivariance surrogate (%s)" % W.name,
                     sweep(["equivariance"], module_roles(W, 2), W=W, hw=4),
                     count)


# -- A7 ----------------------------------------------------------------------

def test_a7_twist_vacuum_identity(ramond, z2):
    for W, count in ((ramond, 6), (z2, 10)):
        report_sweep("A7 twist vacuum identity (%s, w to weight 5/2)" % W.name,
                     sweep(["twist-vacuum-identity"],
                           module_roles(W, F(5, 2)), W=W, hw=4), count)


# -- A8 ----------------------------------------------------------------------

def test_a8_twist_identities(ramond, z2):
    # u and v to weight 3/2 on ramond and 1 on z2boson, w to weight 3/2
    for W, cut_uv, count in ((ramond, F(3, 2), 36), (z2, F(1), 20)):
        roles = module_roles(W, F(3, 2), alg_cutoff=cut_uv)
        for identity in ("weak-associativity", "twist-jacobi",
                         "generalized-commutator",
                         "generalized-weak-commutativity"):
            report_sweep("A8 %s (%s, |exp| <= 3)" % (identity, W.name),
                         sweep([identity], roles, W=W, hw=3), count,
                         with_inputs=True)


# -- A9 ----------------------------------------------------------------------

def test_a9_decompositions(ramond, z2, toy):
    for W, cut, count in ((ramond, F(3, 2), 12), (z2, F(1), 6)):
        roles = module_roles(W, 1, alg_cutoff=cut)
        report_sweep("A9 log decompositions, log-free case (%s)" % W.name,
                     sweep(["log-decomposition"], roles, W=W, hw=3), count)
        report_sweep("A9 twist decomposition, log-free case (%s)" % W.name,
                     sweep(["twist-decomposition"], roles, W=W, hw=3), count)
    V3 = toy.V
    a, b, c = (V3.gen_vector(n) for n in "abc")
    picks = [b, c, V3.mode_vec(b, lattice(-2), 0, Vec.basis(V3.vac))]
    report_sweep("A9 log decompositions, log case (unipotent view)",
                 sweep(["log-decomposition"],
                       {"u": picks, "w": [Vec.basis(V3.vac), a]}, W=toy, hw=2),
                 6)
    report_sweep("A9 twist decomposition, log case (unipotent view)",
                 sweep(["twist-decomposition"], {"w": [a, c], "v": [b, c]},
                       W=toy, hw=2), 4)


# -- A10 ---------------------------------------------------------------------

def test_a10_polynomiality(ramond, z2):
    for W, count in ((ramond, 32), (z2, 18)):
        gen = W.V.gen_vector(W.V.gens[0].name)
        ws = module_roles(W, 1)["w"]
        report_sweep("A10 product polynomiality k <= 3 (%s, half-width 6)"
                     % W.name, sweep(["product-polynomiality"], {
                         "w": ws, "product": [([gen] * k, wp) for wp in ws
                                              for k in (2, 3)]}, W=W, hw=6),
                     count)
        # (operators left of the twist slot, right of it, v), on the vacuum
        one = Vec.basis(W.V.vac)
        mixed = [([], [], gen), ([gen], [], gen), ([], [gen], one),
                 ([gen, gen], [], gen), ([gen], [gen], one)]
        report_sweep("A10 mixed products k+l <= 2 (%s, half-width 6)" % W.name,
                     sweep(["mixed-product-recentred"],
                           {"w": ws[:1], "mixed": mixed}, W=W, hw=6), 5,
                     with_inputs=True)


# -- A11 ---------------------------------------------------------------------

def test_a11_vacuum_weights(ramond, z2):
    for W in (ramond, z2):
        h = W.vacuum_weight()
        ok = h == F(1, 16) and W.check_L0_grading(2).ok
        report("A11 twisted vacuum weight from the extension (%s) = %s"
               % (W.name, h), ok)


# -- A12 ---------------------------------------------------------------------

FAULTS = (
    ("fermion clifford sign", "A1", lambda f: _axioms_fail(
        build_free_fermion(fault="clifford-sign"), F(5, 2))),
    ("fermion creation sign", "A1", lambda f: _axioms_fail(
        build_free_fermion(fault="creation-sign"), F(7, 2))),
    ("fermion conformal scale", "A1", lambda f: _axioms_fail(
        build_free_fermion(fault="omega-scale"), F(5, 2))),
    ("boson bracket sign", "A1", lambda f: _axioms_fail(
        build_heisenberg([[1]], fault="bracket-sign"), 3)),
    ("boson conformal scale", "A1", lambda f: _axioms_fail(
        build_heisenberg([[1]], fault="omega-scale"), 3)),
    ("rank-3 bracket sign", "A1", lambda f: _axioms_fail(
        build_heisenberg(GRAM3, fault="bracket-sign"), 2)),
    ("twisted zero-mode scale", "A4", lambda f: _jacobi_fail(
        _faulty_ramond(f, "zero-mode-scale"))),
    ("twisted seed sign", "A4", lambda f: _jacobi_fail(
        _faulty_ramond(f, "twisted-seed-sign"))),
    ("zero-mode sector sign", "A8", lambda f: _twistop_fail(
        _faulty_ramond(f, "zero-mode-sector-sign"))),
    ("twisted bracket sign", "A4", lambda f: _z2_jacobi_fail()),
)


def _faulty_ramond(fermion, fault):
    return without_crosscheck(build_ramond_module, fermion,
                              parity_automorphism(fermion), fault=fault)


def _axioms_fail(V, cut):
    bad = [r for r in check_axioms(V, cut, halfwidth=3) if not r.ok]
    return bad[0].first_mismatch if bad else None


def _jacobi_fail(W):
    gen = W.V.gen_vector(W.V.gens[0].name)
    r = check_twisted_jacobi(W, gen, gen, Vec.basis(W.basis(0)[0]), 3)
    return r.first_mismatch if not r.ok else None


def _z2_jacobi_fail():
    boson = build_heisenberg([[1]])
    W = without_crosscheck(build_z2_twisted_boson, boson,
                           orthogonal_automorphism(boson, [[-1]], "minus1"),
                           fault="twisted-bracket-sign")
    return _jacobi_fail(W)


def _twistop_fail(W):
    gen = W.V.gen_vector(W.V.gens[0].name)
    r = check_twist_jacobi(W, gen, gen, Vec.basis(W.basis(0)[0]), 2)
    if not r.ok:
        return r.first_mismatch
    r = check_weak_associativity(W, gen, gen, Vec.basis(W.basis(0)[0]), 2)
    return r.first_mismatch if not r.ok else None


def test_a12_fault_sensitivity():
    fermion = build_free_fermion()
    located = 0
    for name, crit, run in FAULTS:
        mismatch = run(fermion)
        ok = mismatch is not None
        report("A12 fault '%s' breaks %s" % (name, crit), ok,
               "located %s" % mismatch)
        located += bool(mismatch)
    report("A12 mutation suite (%d faults, all located)" % len(FAULTS),
           located == len(FAULTS))
