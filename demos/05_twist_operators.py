#!/usr/bin/env python3
# Twist vertex operators: computed from their definition through e^{xL(-1)}
# and the substitution y -> -x, never stored, so the identities below are
# genuine theorems about the twisted module data.

from fractions import Fraction as F

from vertextwist.models import Registry
from vertextwist.scalars import Vec
from vertextwist.series import Box, format_series
from vertextwist.twistop import (check_gen_commutator,
                                 check_gen_weak_commutativity,
                                 check_mixed_product,
                                 check_twist_jacobi,
                                 check_twist_vacuum_identity,
                                 check_weak_associativity,
                                 twist_commutativity_order,
                                 twist_matrix_element)

reg = Registry()
ram = reg.twisted("ramond")
psi = ram.V.gen_vector("psi")
one = Vec.basis(ram.V.vac)
vac = Vec.basis(ram.basis(0)[0])
odd = Vec.basis(ram.basis(0)[1])

me = twist_matrix_element(ram, vac, psi, wprime=odd)
print("<vac-', T(vac+, x) psi> =",
      format_series(me.terms_in(Box.cube(1, -2, 2)), ("x",)))

print("vacuum argument identity T(w,x)1 = e^{xL(-1)}w:",
      check_twist_vacuum_identity(ram, odd, 4).ok)
print("M(psi, vac) twist order =", twist_commutativity_order(ram, psi, vac))

print("weak associativity:",
      check_weak_associativity(ram, psi, psi, vac, 3).ok)
print("twist Jacobi identity:",
      check_twist_jacobi(ram, psi, psi, vac, 3).ok)
print("generalized commutator (+ delta-derivative form):",
      check_gen_commutator(ram, psi, psi, vac, 3).ok)
print("generalized weak commutativity:",
      check_gen_weak_commutativity(ram, psi, psi, vac, 3).ok)

# mixed products re-centered through the twist slot
print("mixed product <Yg(psi,x1) T(vac,x) psi> recentered:",
      check_mixed_product(ram, [psi], vac, [], psi, 4).ok)
print("mixed product <Yg(psi,x1) T(vac,x) Y(psi,x2) 1> recentered:",
      check_mixed_product(ram, [psi], vac, [psi], one, 4).ok)
