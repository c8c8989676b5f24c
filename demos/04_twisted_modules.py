#!/usr/bin/env python3
# Twisted modules built by generator seeding and recursive mode extension.
# The twisted vacuum weight 1/16 is an output of the construction, and the
# Jacobi identity, commutator formula and equivariance are verified
# coefficient-exactly on explicit windows.

from fractions import Fraction as F

from vertextwist.models import Registry
from vertextwist.scalars import Vec
from vertextwist.series import Box, format_series
from vertextwist.twisted import (check_commutator_formula, check_equivariance,
                                 check_twisted_jacobi,
                                 check_twisted_weak_commutativity)

reg = Registry()
ram = reg.twisted("ramond")
z2 = reg.twisted("z2boson")

for W in (ram, z2):
    print("%s: P_W = {%s}, twisted vacuum weight = %s"
          % (W.name, ", ".join(str(a) for a in W.spectrum(2)),
             W.vacuum_weight()))

psi = ram.V.gen_vector("psi")
vac = Vec.basis(ram.basis(0)[0])
odd = Vec.basis(ram.basis(0)[1])

me = ram.me(psi, vac, wprime=odd)
print("<vac-', Yg(psi,x) vac+> =",
      format_series(me.terms_in(Box.cube(1, -3, 3)), ("x",)))

two = ram.chain(("x1", "x2"), [(0, psi), (1, psi)], vac, wprime=vac)
print("<vac', Yg(psi,x1) Yg(psi,x2) vac> =",
      format_series(two.terms_in(Box.cube(2, -2, 2)), ("x1", "x2")))

print("twisted Jacobi (psi, psi):",
      check_twisted_jacobi(ram, psi, psi, vac, 4).ok)
print("weak commutativity:",
      check_twisted_weak_commutativity(ram, psi, psi, vac, 5).ok)
print("commutator formula:",
      check_commutator_formula(ram, psi, psi, vac, 4).ok)
print("equivariance under one branch turn:",
      check_equivariance(ram, psi, vac, 4).ok)

h = z2.V.gen_vector("h")
bvac = Vec.basis(z2.basis(0)[0])
print("z2 twisted Jacobi (h, h):",
      check_twisted_jacobi(z2, h, h, bvac, 4).ok)
