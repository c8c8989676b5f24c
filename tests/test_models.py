from fractions import Fraction

import pytest

from vertextwist.errors import NotIsometry
from vertextwist.models import (Registry, load_model_file, shipped_model_text,
                                SHIPPED_FILES)
from vertextwist.scalars import Vec

F = Fraction


@pytest.fixture(scope="module")
def registry():
    return Registry()


def test_shipped_files_load(registry):
    ids = {b.id for b in registry.bundles()}
    assert ids == {"fermion", "boson1", "heis3"}
    assert set(registry.algebra("fermion").twisted) == {"ramond"}
    assert set(registry.algebra("boson1").twisted) == {"z2boson"}
    # the log-carrying view is test scaffolding, deliberately not shipped
    assert set(registry.algebra("heis3").twisted) == set()


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
    b = registry.algebra("heis3")
    heis3 = b.algebra
    assert heis3.gram[0][1] == 1 and heis3.gram[2][2] == 1
    g = b.automorphisms["unipotent"]
    bvec = heis3.gen_vector("b")
    assert g.K_apply(bvec) == -heis3.gen_vector("c")


def test_spectra_from_files(registry):
    assert registry.twisted("ramond").spectrum(2) == [0, F(1, 2)]
    assert registry.twisted("z2boson").spectrum(2) == [0, F(1, 2)]


def test_bad_isometry_in_text():
    text = shipped_model_text("heis3-unipotent.model").replace(
        "1,-1/2,1; 0,1,0; 0,-1,1", "1,0,0; 0,1,0; 0,1,1")
    with pytest.raises(NotIsometry):
        load_model_file(text)


def test_level_mismatch_rejected():
    text = shipped_model_text("fermion.model").replace("level = 16",
                                                       "level = 32")
    from vertextwist.scalars import CyclotomicLevelError
    with pytest.raises(CyclotomicLevelError):
        load_model_file(text)


def test_basis_orders_differ_but_cover(registry):
    V = registry.algebra("heis3").algebra
    a = V.basis(2, "weight-lex")
    b = V.basis(2, "weight-revlex")
    assert set(a) == set(b)
    assert [V.weight(k) for k in a] == sorted(V.weight(k) for k in a)


def test_basis_below_zero_is_empty(registry):
    from vertextwist.models import build_unipotent_toy
    heis3 = registry.algebra("heis3")
    spaces = [b.algebra for b in registry.bundles()] \
        + [registry.twisted(t) for t in ("ramond", "z2boson")] \
        + [build_unipotent_toy(heis3.algebra, heis3.automorphisms["unipotent"])]
    for space in spaces:
        for order in ("weight-lex", "weight-revlex"):
            for cut in (-1, F(-1, 2), F(-1, 16)):
                assert space.basis(cut, order) == [], (space, order, cut)
            assert space.basis(0, order), (space, order)
            assert {space.deg(k) for k in space.basis(0, order)} == {0}
