"""The hypothesis profile of the suite, and the shipped models as fixtures.

Every fixture is module-scoped, so each test module builds its own models
and starts with cold mode, slot and automorphism memos.  The models are
built apart from `registry`, so a module that builds no twisted module
runs no construction-time crosscheck.
"""

import pytest
from hypothesis import Phase, settings

from vertextwist.automorphism import (orthogonal_automorphism,
                                      parity_automorphism)
from vertextwist.models import (GRAM3, UNIPOTENT3, Registry,
                                build_free_fermion, build_heisenberg,
                                build_ramond_module, build_z2_twisted_boson)

from helpers import build_unipotent_toy

# no explain phase: a failing test reports its shrunk example without
# first varying each part of it, which can take minutes
settings.register_profile(
    "tier1", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("tier1")


@pytest.fixture(scope="module")
def registry():
    return Registry()


@pytest.fixture(scope="module")
def fermion():
    return build_free_fermion()


@pytest.fixture(scope="module")
def boson():
    return build_heisenberg([[1]])


@pytest.fixture(scope="module")
def heis3():
    return build_heisenberg(GRAM3)


@pytest.fixture(scope="module")
def unip(heis3):
    return orthogonal_automorphism(heis3, UNIPOTENT3, "unipotent")


@pytest.fixture(scope="module")
def ramond(fermion):
    return build_ramond_module(fermion, parity_automorphism(fermion))


@pytest.fixture(scope="module")
def z2(boson):
    return build_z2_twisted_boson(
        boson, orthogonal_automorphism(boson, [[-1]], "minus1"))


@pytest.fixture(scope="module")
def toy(heis3, unip):
    return build_unipotent_toy(heis3, unip)
