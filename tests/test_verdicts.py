"""Kill test: an injected fault makes every converted identity fail with a
located mismatch.

Each identity that used to be judged by its own loop now ends in
`results.compare`.  For each, a fault (a registry fault where one kills it,
otherwise a monkeypatch) must produce a failing record that carries a
window and a first mismatching monomial in `format_monomial` form, with
both coefficients there.  A checker that no fault kills could pass
vacuously: this is mutation analysis aimed at the checkers.  The last test
parses `src/` and finds no verdict decided outside `compare` (or the error
record of a crashed check) and no hand-written monomial format; the one
after it finds no module-level import that its module leaves unused, the
next finds no `Fraction` in the mode oracle, and the last finds no module
but `scalars` reaching for the helpers that read a Scalar's stored form.
"""

import ast
import re
from pathlib import Path

import pytest

from vertextwist import twisted, twistop, vosa
from vertextwist.automorphism import (check_conjugation, check_derivation,
                                      check_homomorphism,
                                      orthogonal_automorphism,
                                      parity_automorphism)
from vertextwist.models import (GRAM3, UNIPOTENT3, Registry,
                                build_free_fermion, build_heisenberg,
                                build_ramond_module, build_z2_twisted_boson)
from vertextwist.scalars import Vec
from vertextwist.series import D
from vertextwist.twisted import (check_g_compatibility,
                                 check_product_polynomiality)
from vertextwist.twistop import check_twist_decomposition

from helpers import assert_located, build_unipotent_toy, non_skew


def axiom(V, identity, cut=2):
    rs = {r.identity: r for r in vosa.check_axioms(V, cut, halfwidth=3)}
    return rs[identity]


def unipotent():
    heis3 = build_heisenberg(GRAM3)
    return heis3, orthogonal_automorphism(heis3, UNIPOTENT3, "unipotent")


def ramond():
    fermion = build_free_fermion()
    return build_ramond_module(fermion, parity_automorphism(fermion))


def z2boson():
    boson = build_heisenberg([[1]])
    return build_z2_twisted_boson(
        boson, orthogonal_automorphism(boson, [[-1]], "minus1"))


def test_vacuum_identity_killed(monkeypatch):
    V = build_free_fermion()
    apply = V.mode_apply
    # vac_(0) w = w: the vacuum acts as a first-order pole
    monkeypatch.setattr(V, "mode_apply", lambda u, n, w: Vec.basis(w)
                        if not u and n == 0 else apply(u, n, w))
    assert_located(axiom(V, "vacuum-identity"), "vacuum-identity")


def test_creation_killed(monkeypatch):
    V = build_free_fermion()
    apply = V.mode_apply
    # u_(-1) vac = -u for composite u
    monkeypatch.setattr(V, "mode_apply", lambda u, n, w: apply(u, n, w).scale(
        -1) if len(u) > 1 and n == -D and w == V.vac else apply(u, n, w))
    assert_located(axiom(V, "creation"), "creation")


@pytest.mark.parametrize("identity", ["L0-grading", "L(-1)-from-omega"])
def test_conformal_vector_identities_killed(identity):
    assert_located(axiom(build_free_fermion(fault="omega-scale"), identity),
                   identity)


def test_L_minus1_derivative_killed():
    V = build_free_fermion(fault="creation-sign")
    assert_located(axiom(V, "L(-1)-derivative"), "L(-1)-derivative")


def test_homomorphism_killed(monkeypatch):
    heis3, g = unipotent()
    apply_key = g.apply_key
    # no longer multiplicative: a sign on every composite key
    monkeypatch.setattr(g, "apply_key", lambda key: apply_key(key).scale(-1)
                        if len(key) > 1 else apply_key(key))
    assert_located(check_homomorphism(heis3, g.apply, 2, 2),
                   "automorphism-homomorphism")


def test_derivation_killed():
    heis3, g = unipotent()
    assert_located(check_derivation(heis3, non_skew(heis3, g), 2, 2),
                   "nilpotent-derivation")


def test_conjugation_killed():
    heis3, g = unipotent()
    assert_located(check_conjugation(heis3, non_skew(heis3, g), 2, 2),
                   "nilpotent-conjugation")


def test_g_compatibility_killed(monkeypatch):
    W = ramond()
    # g acts trivially on the module, but as parity on psi
    monkeypatch.setattr(W, "g_apply", lambda vec: vec)
    psi = W.V.gen_vector("psi")
    assert_located(check_g_compatibility(W, psi, Vec.basis((0, ())), 2),
                   "g-compatibility")


def test_fermion_compatibility_killed(monkeypatch):
    W = ramond()
    parity = W.parity
    # psi_n maps the even vacuum into a key read as even
    monkeypatch.setattr(W, "parity", lambda key: 0 if key == (1, ())
                        else parity(key))
    psi = W.V.gen_vector("psi")
    assert_located(check_g_compatibility(W, psi, Vec.basis((0, ())), 2),
                   "fermion-compatibility")


def test_L0_grading_W_killed():
    W = Registry(fault="omega-scale").twisted("z2boson")
    assert_located(W.check_L0_grading(2), "L0-grading-W")


def test_product_polynomiality_killed(monkeypatch):
    W = z2boson()
    # a prefactor (x1 - x2)^1 too low for h, h: the product keeps a pole
    monkeypatch.setattr(twisted, "weak_commutativity_order",
                        lambda V, u, v: 0)
    h = W.V.gen_vector("h")
    w = Vec.basis(W.basis(0)[0])
    assert_located(check_product_polynomiality(W, [h, h], w, w, 3),
                   "product-polynomiality")


def test_twist_decomposition_log_free_half_killed(monkeypatch):
    heis3, g = unipotent()
    W = build_unipotent_toy(heis3, g)
    # T_0 without its x^{N_g}: the logs of T(w, x) survive in it
    for module in (twisted, twistop):
        monkeypatch.setattr(module, "nilpotent_power_coeffs",
                            lambda g, vec: [vec])
    r = check_twist_decomposition(W, heis3.gen_vector("a"),
                                  heis3.gen_vector("b"), 2)
    assert_located(r, "twist-decomposition")
    assert "log(x)" in r.first_mismatch["monomial"]
    assert r.first_mismatch["rhs"] == "None"


SRC = Path(__file__).resolve().parent.parent / "src" / "vertextwist"
# (module, function) of the only CheckResult(...) calls that may decide a
# verdict other than a pass: the comparator and the error record of a crash
VERDICT_SITES = {("results.py", "compare"), ("harness.py", "_timed")}


def _verdict_calls(tree):
    """(enclosing function, line) of every CheckResult(...) whose verdict
    is not the constant True."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, func or child.name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) \
                    == "CheckResult":
                ok = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "ok"), None)
                if not (isinstance(ok, ast.Constant) and ok.value is True):
                    out.append((func, child.lineno))
            visit(child, func)
    visit(tree, None)
    return out


def test_compare_is_the_only_verdict_in_src():
    sites, monomial_formats = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites |= {(path.name, func, line)
                  for func, line in _verdict_calls(tree)}
        monomial_formats += [
            (path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.search(r"x\^%", node.value)]
    assert {(name, func) for name, func, _ in sites} == VERDICT_SITES, sites
    assert not monomial_formats, monomial_formats


def _unused_imports(tree):
    """Names bound by the module-level imports of a module and never read
    in it; `from __future__` imports bind no name."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_src_imports_are_used():
    unused = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert not unused, unused


def test_mode_oracle_is_fraction_free():
    # mode indices are lattice ints from the seeds up to the memo, so the
    # oracle neither imports from `fractions` nor builds a Fraction
    tree = ast.parse((SRC / "modes.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any(name == "fractions" for name in
                     [node.module] + [a.name for a in node.names])
             or isinstance(node, ast.Call)
             and isinstance(node.func, (ast.Name, ast.Attribute))
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "Fraction"]
    assert not found, found


# the index path from a chain to the mode oracle: (module, class, method,
# and the function nested in it, if any)
INDEX_PATH = [("chains.py", "OpSlot", "apply"),
              ("twistop.py", "TwistOpSlot", "apply"),
              ("chains.py", "Space", "mode_vec"),
              ("twisted.py", "UnipotentViewModule", "mode_vec"),
              ("vosa.py", "FreeFieldAlgebra", "mode_apply"),
              ("chains.py", "ChainSeries", "_terms_in", "rec")]
INDEX_CONVERSIONS = {"lattice", "exponent", "Fraction"}


def test_index_path_converts_no_index():
    # a slot is handed a lattice exponent and hands the mode oracle a
    # lattice mode index, so nothing on the way converts one
    found = []
    for module, *names in INDEX_PATH:
        node = ast.parse((SRC / module).read_text())
        for name in names:
            node = next(child for child in node.body
                        if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                        and child.name == name)
        found += [(module, *names, call.lineno) for call in ast.walk(node)
                  if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr",
                                                        None))
                  in INDEX_CONVERSIONS]
    assert not found, found


# the helpers and constants that read a Scalar's stored form, and the
# stored names and helpers of a Vec's
SCALAR_FORM = {"terms_of", "iter_terms", "_fold", "_RKEY", "_LEVEL",
               "_cancel", "_mul_into", "_rat", "_phased", "_den", "_newvec",
               "_new", "_NONE", "_ZERO", "_by_key", "_add", "_UNIT", "_ONE",
               "_same", "_unit", "_plus", "_conjugate", "_terms_sum",
               "_add_products"}


def test_scalar_form_stays_in_scalars():
    # only scalars.py knows how a Scalar or a Vec is stored; every other
    # module goes through the ring's and the vectors' operations, `linear`,
    # `pair`, `inverse` and `phase_turns`
    found = sorted(
        (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and any(a.name in SCALAR_FORM for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr in SCALAR_FORM)
    assert not found, found


# the constants and helpers that know how series.py packs a monomial
PACKING_FORM = {"_WIDTH", "_MASK", "_HALF", "_LIMIT", "_guard", "_pack",
                "_columns", "_check_fields"}


def test_packed_monomials_stay_in_series():
    # only series.py knows the field layout of a packed monomial; every
    # other module builds and reads monomials through mono, lattice_mono,
    # mono_parts, exp_unit and log_unit
    found = sorted(
        (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        if path.name != "series.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and any(a.name in PACKING_FORM for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr in PACKING_FORM)
    assert not found, found
    tree = ast.parse((SRC / "series.py").read_text())
    defined = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    defined |= {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)}
    assert PACKING_FORM <= defined, PACKING_FORM - defined


def _position_lookups(tree) -> set:
    """The `.index(` and `.count(` calls under an AST node."""
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("index", "count")}


def test_fock_moves_stay_in_fock_move():
    # only vosa.fock_move inserts or removes a part of a Fock key, so no
    # other code of the generator seeds looks up a part's position or count
    found = []
    for name in ("vosa.py", "models.py"):
        tree = ast.parse((SRC / name).read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "fock_move":
                allowed |= _position_lookups(node)
        assert allowed or name != "vosa.py"
        found += [(name, node.lineno)
                  for node in _position_lookups(tree) - allowed]
    assert not found, sorted(found)
