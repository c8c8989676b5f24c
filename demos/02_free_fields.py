#!/usr/bin/env python3
# Free-field algebras from Fock-space mode oracles, and the axiom checks
# that certify the recursive construction of composite vertex operators.

from fractions import Fraction as F

from vertextwist.models import build_free_fermion, build_heisenberg
from vertextwist.scalars import Vec
from vertextwist.series import Box, format_series
from vertextwist.vosa import check_axioms, check_weak_commutativity, \
    weak_commutativity_order

fermion = build_free_fermion()
boson = build_heisenberg([[1]])

print("fermion basis to weight 3:")
for key in fermion.basis(3):
    print("  wt %-4s parity %d  %s" % (fermion.weight(key),
                                       fermion.parity(key), key))

psi = fermion.gen_vector("psi")
vac = Vec.basis(fermion.vac)
me = fermion.me(psi, psi, wprime=vac)
print("<1', Y(psi,x) psi> =", format_series(me.terms_in(Box.cube(1, -4, 4)),
                                            ("x",)))

h = boson.gen_vector("h")
me = boson.me(h, h, wprime=Vec.basis(boson.vac))
print("<1', Y(h,x) h>    =", format_series(me.terms_in(Box.cube(1, -4, 4)),
                                           ("x",)))

# commutativity orders: x^M Y(u,x)v becomes a power series
print("M(psi,psi) =", weak_commutativity_order(fermion, psi, psi))
print("M(h,h)     =", weak_commutativity_order(boson, h, h))

# the axioms certify the whole mode recursion, not just the generators
for r in check_axioms(fermion, F(7, 2), halfwidth=3):
    print("fermion axiom %-20s %s" % (r.identity, "ok" if r.ok else r.first_mismatch))

r = check_weak_commutativity(fermion, psi, psi, vac, 5)
print("weak commutativity for psi, psi:", "ok" if r.ok else r.first_mismatch)
