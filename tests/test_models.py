from fractions import Fraction

import pytest

from vertextwist.automorphism import orthogonal_automorphism
from vertextwist.models import GRAM3, UNIPOTENT3, Registry
from vertextwist.vosa import HeisenbergAlgebra

from helpers import build_unipotent_toy

F = Fraction


def test_shipped_files_load(registry):
    ids = {b.id for b in registry.bundles()}
    assert ids == {"fermion", "boson1", "heis3"}
    assert set(registry.bundle("fermion").twisted) == {"ramond"}
    assert set(registry.bundle("boson1").twisted) == {"z2boson"}
    # the log-carrying view is test scaffolding, deliberately not shipped
    assert set(registry.bundle("heis3").twisted) == set()


def test_registry_resolve(registry):
    kind, bundle = registry.resolve("fermion")
    assert kind == "algebra"
    kind, mod = registry.resolve("ramond")
    assert kind == "twisted"
    assert mod.vacuum_weight() == F(1, 16)
    with pytest.raises(KeyError):
        registry.resolve("nope")


def test_z2_vacuum_weight_from_file(registry):
    assert registry.twisted("z2boson").vacuum_weight() == F(1, 16)


def test_heis3_gram_and_automorphism(registry):
    b = registry.bundle("heis3")
    heis3 = b.algebra
    assert heis3.gram[0][1] == 1 and heis3.gram[2][2] == 1
    g = b.automorphisms["unipotent"]
    bvec = heis3.gen_vector("b")
    assert g.K_apply(bvec) == -heis3.gen_vector("c")


def test_spectra_from_files(registry):
    assert registry.twisted("ramond").spectrum(2) == [0, F(1, 2)]
    assert registry.twisted("z2boson").spectrum(2) == [0, F(1, 2)]


def test_table_names_match_their_keys(registry):
    # a jordan record prints g.name, and a report names its module by id
    for b in registry.bundles():
        for name, g in b.automorphisms.items():
            assert g.name == name and g.V is b.algebra
        for name, mod in b.twisted.items():
            assert mod.name == name and mod.V is b.algebra
            assert mod.g in b.automorphisms.values()
    assert [b.id for b in registry.bundles()] == ["fermion", "boson1", "heis3"]


@pytest.mark.parametrize("fault", [None, "bracket-sign", "omega-scale"])
def test_registry_hands_its_fault_to_every_algebra(fault):
    assert [b.algebra.fault for b in Registry(fault=fault).bundles()] \
        == [fault] * 3


def test_heis3_is_gram3_with_unipotent3(registry):
    b = registry.bundle("heis3")
    assert b.algebra.gram == HeisenbergAlgebra(GRAM3).gram
    ref = orthogonal_automorphism(HeisenbergAlgebra(GRAM3), UNIPOTENT3)
    assert b.automorphisms["unipotent"].images == ref.images


def test_basis_orders_differ_but_cover(registry):
    V = registry.bundle("heis3").algebra
    a = V.basis(2, "weight-lex")
    b = V.basis(2, "weight-revlex")
    assert set(a) == set(b)
    assert [V.weight(k) for k in a] == sorted(V.weight(k) for k in a)


def test_basis_below_zero_is_empty(registry):
    heis3 = registry.bundle("heis3")
    spaces = [b.algebra for b in registry.bundles()] \
        + [registry.twisted(t) for t in ("ramond", "z2boson")] \
        + [build_unipotent_toy(heis3.algebra, heis3.automorphisms["unipotent"])]
    for space in spaces:
        for order in ("weight-lex", "weight-revlex"):
            for cut in (-1, F(-1, 2), F(-1, 16)):
                assert space.basis(cut, order) == [], (space, order, cut)
            assert space.basis(0, order), (space, order)
            assert {space.deg(k) for k in space.basis(0, order)} == {0}
