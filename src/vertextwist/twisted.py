"""Lower-bounded twisted modules: construction by mode extension and the
identity checkers for twisted vertex operators.

A twisted module is presented by a Fock basis, the seeded action of generator
modes (indexed in the coset alpha + Z of each generator's g-weight), and the
action of g.  Composite modes come from the same residue recursion as the
algebra's own; the checkers below certify the result against the Jacobi
identity, weak commutativity, the commutator formula, equivariance, the
log-decomposition identities and product polynomiality, coefficient-exactly
on explicit windows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import ceil, floor

from .automorphism import nilpotent_power_coeffs
from .chains import Space
from .errors import ExtensionInconsistent, LogBoundExceeded
from .modes import ModeOracle
from .results import CheckResult, Modes, compare, first_failure
from .scalars import Vec, linear, phase_turns
from .series import (D, BinomialKernel, Box, Product, Sum, TermSeries,
                     _TermMap, branch_shift, delta_iter, delta_prod,
                     delta_prod_rev, derivative, lattice, lattice_coset,
                     lattice_mono, log_shift, log_unit, residue, restricted,
                     scaled, window_json)
from .vosa import weak_commutativity_order

F0 = Fraction(0)
F1 = Fraction(1)


class ModuleBase(Space):
    """Shared surface of twisted modules: gradings, chains, conformal data."""

    def __init__(self, name, V, g, log_bound):
        self.name = name
        self.V = V
        self.g = g
        self.log_bound = log_bound
        self._L_memo = {}
        # twist-slot coefficients: (w_arg, e, k) -> {v key: T(w_arg, x)v at
        # x^e log^k x}, filled by twistop.TwistOpSlot
        self._twist_memo = {}
        self._h_vac = None

    # subclass responsibilities
    def basis(self, max_deg, order="weight-lex"):
        raise NotImplementedError

    def g_apply(self, vec: Vec) -> Vec:
        raise NotImplementedError

    @property
    def y0_space(self) -> Space:
        """The space whose own vertex operator is (Y)_0 on this module: the
        module itself, where (Y)_0 coincides with Y since N_g = 0."""
        return self

    def module_nilpotent_coeffs(self, wvec: Vec):
        """[N^k w / k!] on the module; [w] unless the module carries logs."""
        return [wvec]

    # module protocol for chain slots over the V tensor factor
    def algebra_weight(self, uvec: Vec) -> Fraction:
        return self.V.algebra_weight(uvec)

    def algebra_parity(self, uvec: Vec) -> int:
        return self.V.algebra_parity(uvec)

    def algebra_coset(self, uvec: Vec) -> frozenset:
        return self.g.coset_of(uvec)

    # -- conformal structure ---------------------------------------------------

    def L_minus1(self, vec: Vec) -> Vec:
        return linear(lambda key: self.mode_vec(self.V.omega, 0, 0,
                                                Vec.basis(key)),
                      vec, self._L_memo)

    def L0(self, vec: Vec) -> Vec:
        return self.mode_vec(self.V.omega, D, 0, vec)

    def vacuum_weight(self) -> Fraction:
        """L(0)-eigenvalue of the twisted vacuum, produced by the extension."""
        if self._h_vac is None:
            vals = set()
            for key in self.basis(F0):
                got = self.L0(Vec.basis(key))
                c = got.coeff(key)
                if got != Vec.basis(key, c):
                    raise ExtensionInconsistent("L(0) is not diagonal on degree 0")
                vals.add(c)
            if len(vals) != 1:
                raise ExtensionInconsistent("twisted vacuum weight is ambiguous")
            self._h_vac = vals.pop()
        return self._h_vac

    def check_L0_grading(self, max_deg) -> CheckResult:
        """L(0) = omega_(1) acts on each basis vector by h + its degree."""
        h = self.vacuum_weight()
        modes = Modes((-2 * D,))
        return first_failure("L0-grading-W", {"max_deg": str(max_deg)}, (
            modes.compare("L0-grading-W", {"w": str(key)},
                          lambda n, k: self.L0(Vec.basis(key)),
                          lambda n, k: Vec.basis(
                              key, Fraction(h + self.deg(key))))
            for key in self.basis(max_deg)))

    def spectrum(self, max_deg) -> list:
        return sorted({self.alpha_of_key(k) for k in self.basis(max_deg)})

    def alpha_of_key(self, key) -> Fraction:
        raise NotImplementedError


class TwistedModule(ModuleBase):
    """Generalized g-twisted module built by seeding generator modes and
    extending recursively; requires the automorphism to act semisimply."""

    def __init__(self, name, V, g, gen_action, acting, keys_fn, deg_fn,
                 parity_fn, g_scale_fn, revlex=None):
        super().__init__(name, V, g, 0)   # semisimple case: no log terms
        self.gen_seed = gen_action
        self._keys_fn = keys_fn        # max_deg -> the keys up to it, any order
        self._revlex = revlex          # weight-revlex tie order; None: reversed
        self._deg = deg_fn
        self._parity = parity_fn
        self._g_scale = g_scale_fn     # module_key -> scalar, the action of g
        self.oracle = ModeOracle(V, gen_action, acting, deg_fn,
                                 lambda gi: g.gen_alpha(gi))
        self.oracle.crosscheck(V.basis(Fraction(3, 2)), self.basis(F1))

    def basis(self, max_deg, order="weight-lex"):
        max_deg = Fraction(max_deg)
        return self.ordered_basis(self._keys_fn(max_deg), max_deg, order,
                                  self._revlex)

    def deg(self, key) -> Fraction:
        return self._deg(key)

    def parity(self, key) -> int:
        return self._parity(key)

    def g_apply(self, vec: Vec) -> Vec:
        return linear(lambda key: Vec.basis(key, self._g_scale(key)),
                      vec)

    def alpha_of_key(self, key) -> Fraction:
        """g-weight of a basis vector, read from the eigenvalue of g."""
        return phase_turns(self._g_scale(key))


class UnipotentViewModule(ModuleBase):
    """The algebra itself viewed through Y^g(u, x) := Y_V(x^{-N_g} u, x) for
    unipotent g; the log-carrying exercise case.

    This satisfies the identity property, equivariance, g-compatibility,
    weak commutativity and the log-decomposition identities exactly, but not
    the translation axiom (d/dx produces an extra -N_g/x term), so it is
    synthetic exercise data rather than a complete twisted module.  The
    checkers that assume a semisimple action refuse it outright.
    """

    def __init__(self, name, V, g, log_bound=None):
        self._npc = partial(nilpotent_power_coeffs, g)
        self._u_parts = {}           # u -> [N^k u / k!], read by mode_vec
        if log_bound is None:
            log_bound = max((len(self._npc(Vec.basis(k))) - 1
                             for k in V.basis(3)), default=0)
        super().__init__(name, V, g, log_bound)

    def basis(self, max_deg, order="weight-lex"):
        return self.V.basis(max_deg, order)

    def deg(self, key) -> Fraction:
        return self.V.weight(key)

    def parity(self, key) -> int:
        return self.V.parity(key)

    def g_apply(self, vec: Vec) -> Vec:
        return self.g.apply(vec)

    def alpha_of_key(self, key) -> Fraction:
        return F0

    def module_nilpotent_coeffs(self, wvec: Vec):
        return self._npc(wvec)

    def mode_vec(self, uvec: Vec, N: int, k, wvec: Vec) -> Vec:
        if not k:
            # N^0 u / 0! is u itself
            return self.V.mode_vec(uvec, N, 0, wvec)
        parts = self._u_parts.get(uvec)
        if parts is None:
            parts = self._u_parts[uvec] = self._npc(uvec)
        if k >= len(parts):
            return Vec.zero()
        if k > self.log_bound:
            raise LogBoundExceeded("log power %d beyond module bound %d"
                                   % (k, self.log_bound))
        return self.V.mode_vec(parts[k].scale((-1) ** k), N, 0, wvec)

    @property
    def y0_space(self) -> Space:
        # Y^g(u, x) = Y_V(x^{-N_g} u, x), so (Y)_0 is Y_V
        return self.V


# ---------------------------------------------------------------------------
# checkers (twisted vertex operators only)
# ---------------------------------------------------------------------------

def _cube(W, vars, hw):
    """The window |exponent| <= hw in every variable, at every log power W
    can carry."""
    return Box.cube(len(vars), -Fraction(hw), Fraction(hw), W.log_bound)


def commutativity_order(W, u, v) -> int:
    """M >= 1 with (x1-x2)^M Y(u,x1)Y(v,x2) free of poles in x1-x2 on W: the
    log power k of Y(u,x) carries N^k u/k!, so M is the largest order over
    the nilpotent parts of u and v."""
    return max([1] + [weak_commutativity_order(W.V, a, b)
                      for a in nilpotent_power_coeffs(W.g, u)
                      for b in nilpotent_power_coeffs(W.g, v)])


def check_twisted_weak_commutativity(W, u, v, w, halfwidth) -> CheckResult:
    """(x1-x2)^M Y(u,x1)Y(v,x2) = -/+ (x1-x2)^M Y(v,x2)Y(u,x1) on the window."""
    M = commutativity_order(W, u, v)
    vars = ("x1", "x2")
    pref = BinomialKernel(vars, M, 0, 1)
    lhs = Product(pref, W.chain(vars, [(0, u), (1, v)], w))
    sign = (-1) ** (W.algebra_parity(u) * W.algebra_parity(v))
    rhs = scaled(Product(pref, W.chain(vars, [(1, v), (0, u)], w)), sign)
    return compare("twisted-weak-commutativity", _inputs(u=u, v=v, w=w, M=M),
                   vars, _cube(W, vars, halfwidth), lhs, rhs)


def require_semisimple(W, identity):
    """The coset-dressed kernels below realize x^{L_g} through the g-weight
    alone; refuse modules whose automorphism has a nilpotent part."""
    for i in range(len(W.V.gens)):
        if W.g.K_apply(Vec.basis(W.V.gen_key(i))):
            raise ValueError(
                "%s needs a semisimple automorphism action; the nilpotent "
                "dressing of the kernel is not implemented" % identity)


def mode_sum(vars, modes, kernel, chain):
    """Sum over (N, v_n) in modes, N the lattice int of n, of kernel()
    x0^{-n-1} chain(v_n), x0 being the first variable; kernel() is called
    once per part, so no two parts share a kernel's term cache."""
    parts = [Product(Product(kernel(), TermSeries(vars, {lattice_mono(
                 [-N - D] + [0] * (len(vars) - 1)): 1})), chain(vn))
             for N, vn in modes]
    return Sum(parts) if parts else TermSeries.zero(vars)


def jacobi_iterate_side(W, u, v, w, vars, r_min):
    """x1^{-1} d((x2+x0)/x1) ((x2+x0)/x1)^alpha Y(Y_V(u,x0)v, x2), split per
    mode of Y_V(u,x0)v so that each term has integral x0-powers; the modes
    run down to the lattice int r_min."""
    al = W.algebra_alpha(u)
    return mode_sum(vars, W.V.modes(u, v, r_min),
                    lambda: delta_iter(vars, 0, 1, 2, offset=al),
                    lambda uv: W.chain(vars, [(2, uv)], w))


def check_twisted_jacobi(W, u, v, w, halfwidth) -> CheckResult:
    """The three-term Jacobi identity for twisted vertex operators, exactly."""
    require_semisimple(W, "twisted-jacobi")
    vars = ("x0", "x1", "x2")
    prod = Product(delta_prod(vars, 0, 1, 2),
                   W.chain(vars, [(1, u), (2, v)], w))
    sign = (-1) ** (W.algebra_parity(u) * W.algebra_parity(v))
    revp = scaled(Product(delta_prod_rev(vars, 0, 1, 2),
                          W.chain(vars, [(2, v), (1, u)], w)), sign)
    lhs = Sum([prod, scaled(revp, -1)])
    # modes below r_min only produce x0-exponents above the window
    r_min = lattice(ceil(-1 - Fraction(halfwidth)))
    iterate = jacobi_iterate_side(W, u, v, w, vars, r_min)
    return compare("twisted-jacobi", _inputs(u=u, v=v, w=w), vars,
                   _cube(W, vars, halfwidth), lhs, iterate)


def check_commutator_formula(W, u, v, w, halfwidth) -> CheckResult:
    """[Y(u,x1), Y(v,x2)]-/+ = Res_x0 of the iterate kernel, exactly."""
    require_semisimple(W, "commutator-formula")
    vars = ("x1", "x2")
    sign = (-1) ** (W.algebra_parity(u) * W.algebra_parity(v))
    lhs = Sum([W.chain(vars, [(0, u), (1, v)], w),
               scaled(W.chain(vars, [(1, v), (0, u)], w), -sign)])
    vars3 = ("x0", "x1", "x2")
    # only modes with r >= 0 can meet the x0^{-1} coefficient
    rhs = residue(jacobi_iterate_side(W, u, v, w, vars3, 0), 0)
    return compare("commutator-formula", _inputs(u=u, v=v, w=w), vars,
                   _cube(W, vars, halfwidth), lhs, rhs)


def check_g_compatibility(W, u, w: Vec, halfwidth) -> CheckResult:
    """g Y(u,x)w = Y(gu,x) gw and parity additivity, coefficientwise: every
    coefficient of Y(u,x)w equals its part of parity |u| + |w|."""
    gu = W.g.apply(u)
    gw = W.g_apply(w)
    pu = W.algebra_parity(u)
    wparities = {W.parity(key) for key in w.keys()}
    modes = Modes(_exponents_of(W, u, -halfwidth, halfwidth), W.log_bound)
    Y = {(n, k): W.mode_vec(u, n, k, w) for n, k, _ in modes.rows}
    inputs = _inputs(u=u, w=w)

    def additive(n, k):
        return Vec({key: c for key, c in Y[n, k].items()
                    if wparities <= {(W.parity(key) - pu) % 2}})
    return first_failure("g-compatibility", inputs, (
        modes.compare("g-compatibility", inputs,
                      lambda n, k: W.g_apply(Y[n, k]),
                      lambda n, k: W.mode_vec(gu, n, k, gw)),
        modes.compare("fermion-compatibility", inputs,
                      lambda n, k: Y[n, k], additive)))


def _exponents_of(W, u, lo, hi) -> list:
    """The lattice ints of the exponents e in [lo, hi] that Y(u, x) can
    carry: e = -n-1 with each mode n in alpha + Z for an alpha in the
    g-decomposition of u."""
    return sorted(p for al in W.g.coset_of(u)
                  for p in lattice_coset(lattice(lo), lattice(hi),
                                         -lattice(al)))


def check_equivariance(W, u, w, halfwidth) -> CheckResult:
    """Branch-shifting Y(gu,x)w by one full turn returns Y(u,x)w."""
    vars = ("x",)
    gu = W.g.apply(u)
    lhs = branch_shift(W.chain(vars, [(0, gu)], w), 0, 1)
    rhs = W.chain(vars, [(0, u)], w)
    return compare("equivariance", _inputs(u=u, w=w), vars,
                   _cube(W, vars, halfwidth), lhs, rhs)


def check_L_minus1_derivative_W(W, u, w, halfwidth) -> CheckResult:
    """d/dx Y(u,x)w = Y(L(-1)u,x)w = [L(-1), Y(u,x)]w."""
    vars = ("x",)
    return check_L_minus1_sides(
        W, "L(-1)-derivative-W", _inputs(u=u, w=w), halfwidth,
        W.chain(vars, [(0, u)], w), W.chain(vars, [(0, W.V.L_minus1(u))], w),
        W.chain(vars, [(0, u)], W.L_minus1(w)))


def check_L_minus1_sides(W, identity, inputs, halfwidth, me, raised,
                         lowered) -> CheckResult:
    """d/dx S(x) = `raised`, then L(-1) S(x) - S'(x) = d/dx S(x), for a
    one-variable vector-valued series S (`me`) into W, with L(-1) applied to
    its left argument in `raised` and to its right one in S' (`lowered`).
    Both compares read one node d/dx S."""
    vars = ("x",)
    box = _cube(W, vars, halfwidth)
    comm, dS = L_minus1_commutator_sides(W, me, lowered)
    res = compare(identity, inputs, vars, box, dS, raised)
    if not res.ok:
        return res
    return compare(identity, inputs, vars, box, comm, dS)


def L_minus1_commutator_sides(W, me, lowered):
    """Both sides of L(-1) S(x) - S'(x) = d/dx S(x).

    S (`me`) is a one-variable vector-valued series into W and S'
    (`lowered`) is S with L(-1) applied to its right argument.
    """
    return (Sum([_TermMap(me, W.L_minus1), scaled(lowered, -1)]),
            derivative(me, 0))


def check_y0_decomposition(W, u, w, halfwidth) -> CheckResult:
    """Y(u,x) = (Y)_0(x^{-N}u, x) and Y(u,x) = x^{-N}(Y)_0(u,x)x^{N}, exactly."""
    vars = ("x",)
    box = _cube(W, vars, halfwidth)
    inputs = _inputs(u=u, w=w)
    full = W.chain(vars, [(0, u)], w)
    for side in ("argument", "conjugated"):
        res = compare("log-decomposition-" + side, inputs, vars, box,
                      _y0_of_dressed_terms(W, u, w, vars, side), full)
        if not res.ok:
            return res
    return CheckResult("log-decomposition", True, inputs,
                       window_json(vars, box))


def x_N_dressed(W, side, vec, sign):
    """side(x^{sign N} vec) = sum_k (sign log x)^k side(N^k vec / k!), with
    N on V and side mapping a vector of V to a one-variable series."""
    return Sum([log_shift(side(part.scale(Fraction(sign ** k))), 0, k)
                for k, part in enumerate(nilpotent_power_coeffs(W.g, vec))])


def _y0_of_dressed_terms(W, u, w, vars, side):
    """(Y)_0(x^{-N}u, x)w or x^{-N}(Y)_0(u,x)x^{N}w as a series."""

    def y0(uvec, wvec):
        return W.y0_space.chain(vars, [(0, uvec)], wvec)
    if side == "argument":
        return x_N_dressed(W, lambda uvec: y0(uvec, w), u, -1)

    def conjugate(m, vec):
        # x^{-N} on the module side
        for k, res in enumerate(W.module_nilpotent_coeffs(vec)):
            yield m + k * log_unit(0, 1), res.scale(Fraction((-1) ** k))
    return Sum([log_shift(_TermMap(y0(u, wpart), conjugate, lambda box: box),
                          0, k)
                for k, wpart in enumerate(W.module_nilpotent_coeffs(w))])


def prefactored_product(W, vs, order, w, wprime):
    """<w'| Y(v_i, x_i) placed in `order` |w> times (x_i - x_j)^M_ij for
    i < j and x_i^alpha_i; returns (variables, product, {(i, j): M_ij})."""
    k = len(vs)
    vars = tuple("x%d" % (i + 1) for i in range(k))
    factors = [W.chain(vars, [(t, vs[t]) for t in order], w, wprime)]
    orders = {}
    for i in range(k):
        for j in range(i + 1, k):
            M = commutativity_order(W, vs[i], vs[j])
            orders[(i, j)] = M
            factors.append(BinomialKernel(vars, M, i, j))
    for i, v in enumerate(vs):
        al = W.algebra_alpha(v)
        if al:
            factors.append(TermSeries.monomial(
                vars, [al if t == i else 0 for t in range(k)]))
    prod = factors[0]
    for f in factors[1:]:
        prod = Product(f, prod)
    return vars, prod, orders


def check_product_polynomiality(W, vs, w, wprime, halfwidth) -> CheckResult:
    """Prefactored k-fold products are Laurent polynomials: on the window the
    product equals its own restriction to the grading-predicted exponents."""
    k = len(vs)
    vars, prod, orders = prefactored_product(W, vs, range(k), w, wprime)
    box = _cube(W, vars, halfwidth)
    wdeg = W.vec_deg(w)
    pdeg = W.vec_deg(wprime) if wprime is not None else None
    lows, highs = [], []
    for i, v in enumerate(vs):
        shift = W.algebra_alpha(v) - W.V.algebra_weight(v)
        lows.append(ceil((shift - wdeg) * D))
        highs.append(None if pdeg is None else floor(
            (shift + pdeg + sum(orders[tuple(sorted((i, j)))]
                                for j in range(k) if j != i)) * D))
    predicted = Box(lows, highs, box.logcaps)
    return compare("product-polynomiality", _inputs(w=w, wprime=wprime, k=k),
                   vars, box, prod, restricted(prod, predicted.contains))


def check_permutation_symmetry(W, vs, w, wprime, perm, halfwidth) -> CheckResult:
    """Prefactored products agree under reordering up to the parity sign."""
    k = len(vs)
    sign = 1
    for i in range(k):
        for j in range(i + 1, k):
            if perm[i] > perm[j]:
                sign *= (-1) ** (W.algebra_parity(vs[perm[i]])
                                 * W.algebra_parity(vs[perm[j]]))
    vars, lhs, _ = prefactored_product(W, vs, range(k), w, wprime)
    _, rhs, _ = prefactored_product(W, vs, perm, w, wprime)
    return compare("permutation-symmetry",
                   _inputs(w=w, wprime=wprime, perm=tuple(perm), sign=sign),
                   vars, _cube(W, vars, halfwidth), lhs, scaled(rhs, sign))


def _inputs(**kw):
    out = {}
    for k, v in kw.items():
        out[k] = repr(v) if isinstance(v, Vec) else str(v)
    return out
