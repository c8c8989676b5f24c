"""Twist vertex operators (module argument, algebra input) and their checks.

Each coefficient of the twist operator is computed from its definition,
    T(w, x) v = (-1)^{|v||w|} e^{x L(-1)} Y^g(v, y) w   at  y^n = e^{pi i n} x^n,
                                                            log y = log x + PI,
once per module, and kept in that module's table, so the identities checked
here are genuine statements about the twisted module data.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import partial
from math import factorial, gcd

from .automorphism import nilpotent_power_coeffs
from .chains import ChainSeries, OpSlot, pole_order
from .results import CheckResult, compare
from .scalars import Scalar, Vec, VecSum, binomial, linear
from .series import (D, BinomialKernel, Box, Product, Series, Sum,
                     TermSeries, _TermMap, acc_terms, delta_derivative,
                     delta_iter, delta_prod, delta_prod_rev, exponent,
                     lattice, lattice_coset, lattice_mono, minus_convention,
                     mono, mono_parts, residue, restricted, scaled)
from .series import mono_add  # bench/layertrace.py patches it here by name
from .twisted import (_cube, _inputs, check_L_minus1_sides,
                      commutativity_order, mode_sum, require_semisimple,
                      x_N_dressed)
from .vosa import weak_commutativity_order


class TwistOpSlot:
    """Chain slot for T(w_arg, x): reads vectors of W.V, writes into W.

    The coefficient of x^e log^k x is sum_j L(-1)^j b_j / j!, where b_j
    collects the modes of Y^g(v, y)w that e^{xL(-1)} lifts by j powers.  It
    is evaluated by Horner's rule, out = b_j + L(-1)(out)/(j+1) from the top
    j down, so L(-1) is applied max j times rather than once per power of
    every base vector.  Each coefficient on a basis vector v is computed
    once per module: the module's table maps (w_arg, e, k) to {v key: Vec},
    and the slot's weight and parity come from w_arg.
    """

    def __init__(self, module, w_arg: Vec):
        self.module = self.target = module
        self.source = module.V
        self.w_arg = w_arg
        self.wt = module.vec_deg(w_arg)
        self.parity = module.vec_parity(w_arg)
        self.logmax = module.log_bound

    def ecosets_meta(self) -> frozenset:
        # the g-weights of PBW monomials, sums of generator weights, fill
        # the subgroup of Z/D that those generate; it is its own negative
        W = self.module
        return frozenset(range(0, D, gcd(D, *(
            lattice(W.g.gen_alpha(i)) for i in range(len(W.V.gens))))))

    def ecosets(self, vec) -> frozenset:
        out = frozenset((-lattice(b) - D) % D
                        for b in self.module.algebra_coset(vec))
        return out or frozenset((0,))

    def apply(self, p: int, k: int, vec: Vec) -> Vec:
        memo = self.module._twist_memo.setdefault((self.w_arg, p, k), {})
        return linear(partial(self._apply_key, p, k), vec, memo)

    def _apply_key(self, p, k, vkey) -> Vec:
        W = self.module
        V = W.V
        sgn = (-1) ** (V.parity(vkey) * self.parity)
        bases = defaultdict(VecSum)   # j -> b_j, summed in place
        n_hi = lattice(self.wt + V.weight(vkey)) - D
        for beta, piece in W.g.alpha_decompose_key(vkey).items():
            # the modes N >= -p - D of the coset beta, each lifted by
            # j = (p + N + D)/D powers of L(-1)
            for N in lattice_coset(-p - D, n_hi, lattice(beta)):
                j = (p + N + D) // D
                for ksrc in range(k, W.log_bound + 1):
                    base = W.mode_vec(piece, N, ksrc, self.w_arg)
                    if not base:
                        continue
                    phase = Scalar.e(exponent(-N - D)) * binomial(ksrc, k) \
                        * Scalar.pi(ksrc - k)
                    bases[j].add(base, sgn * phase)
        out = Vec.zero()
        for j in range(max(bases, default=-1), -1, -1):
            if out:
                bases[j].add(W.L_minus1(out), Fraction(1, j + 1))
            out = bases[j].vec()
        return out


def twist_chain(W, vars, placed, v: Vec, wprime: Vec = None) -> ChainSeries:
    """Chain over mixed slots; placed entries are (idx, 'tw'|'alg'|'twist', vec)."""
    slots = []
    for idx, kind, vec in placed:
        if kind == "tw":
            slots.append((idx, OpSlot(W, vec)))
        elif kind == "alg":
            slots.append((idx, OpSlot(W.V, vec)))
        elif kind == "twist":
            slots.append((idx, TwistOpSlot(W, vec)))
        else:
            raise ValueError(kind)
    return ChainSeries(vars, slots, v, wprime)


def twist_matrix_element(W, w_arg: Vec, v: Vec,
                         wprime: Vec = None) -> ChainSeries:
    return twist_chain(W, ("x",), [(0, "twist", w_arg)], v, wprime)


def twist_commutativity_order(W, u: Vec, w: Vec) -> int:
    """Minimal M >= 0 with x^(alpha+M) (Y)_0(u,x)w a power series."""
    return pole_order(W.y0_space.pole_modes(u, w))


def _exp_L_terms(W, w_arg: Vec, vars, var_idx, max_j) -> TermSeries:
    """e^{x L(-1)} w as explicit vector-valued terms up to x^max_j."""
    out = {}
    cur = w_arg
    m = mono([0] * len(vars))
    x = mono([int(i == var_idx) for i in range(len(vars))])
    for j in range(max_j + 1):
        if not cur:
            break
        out[m] = cur.scale(Fraction(1, factorial(j)))
        m = mono_add(m, x)
        cur = W.L_minus1(cur)
    return TermSeries(vars, out)


def check_twist_vacuum_identity(W, w_arg: Vec, halfwidth) -> CheckResult:
    """T(w,x) vacuum = e^{x L(-1)} w, with vector-valued coefficients."""
    vars = ("x",)
    box = _cube(W, vars, halfwidth)
    lhs = twist_matrix_element(W, w_arg, Vec.basis(W.V.vac))
    rhs = _exp_L_terms(W, w_arg, vars, 0, int(Fraction(halfwidth)))
    return compare("twist-vacuum-identity", _inputs(w=w_arg), vars, box,
                   lhs, rhs)


def _applied(W, chain: ChainSeries, u: Vec, N: int) -> Series:
    """Coefficients of a vector-valued series hit by the fixed mode u_n, N
    the lattice int of n."""
    return _TermMap(chain, partial(W.mode_vec, u, N, 0))


def check_weak_associativity(W, u: Vec, v: Vec, w_arg: Vec,
                             halfwidth) -> CheckResult:
    """(x0+x2)^M Y(u,x0+x2) T(w,x2) v = (x0+x2)^M T(Y(u,x0)w, x2) v."""
    require_semisimple(W, "weak-associativity")
    M = max(weak_commutativity_order(W.V, u, v), 1)
    vars = ("x0", "x2")
    hw = Fraction(halfwidth)
    box = _cube(W, vars, hw)
    al = W.algebra_alpha(u)

    # left side, mode by mode in Y(u, x0+x2); each kernel exponent M-n-1 is
    # expanded in x2 and multiplies the twist series hit by (Y)_n(u)
    lo = M - 1 - 2 * hw - W.vec_deg(w_arg) - W.V.algebra_weight(v) \
        - W.V.algebra_weight(u) - 1
    lhs = Sum([Product(BinomialKernel(vars, M - exponent(N) - 1, 0, 1,
                                      sign=1),
                       _applied(W, twist_chain(
                           W, vars, [(1, "twist", w_arg)], v), u, N))
               for N in lattice_coset(lattice(lo), lattice(M - 1 + hw),
                                      lattice(al))])

    # right side, mode by mode in Y(u, x0) w
    rhs = mode_sum(vars, W.modes(u, w_arg, lattice(-hw - M - 1)),
                   lambda: BinomialKernel(vars, M, 0, 1, sign=1),
                   lambda vecw: twist_chain(W, vars, [(1, "twist", vecw)], v))
    return compare("weak-associativity", _inputs(u=u, v=v, w=w_arg, M=M),
                   vars, box, lhs, rhs)


def check_twist_jacobi(W, u: Vec, v: Vec, w_arg: Vec,
                       halfwidth) -> CheckResult:
    """Jacobi identity mixing twisted, twist and algebra vertex operators."""
    require_semisimple(W, "twist-jacobi")
    vars = ("x0", "x1", "x2")
    hw = Fraction(halfwidth)
    al = W.algebra_alpha(u)
    pw = W.vec_parity(w_arg)
    pu = W.V.algebra_parity(u)
    term1 = Product(delta_prod(vars, 0, 1, 2, offset=al),
                    twist_chain(W, vars, [(1, "tw", u), (2, "twist", w_arg)],
                                v))
    term2 = scaled(
        Product(delta_prod_rev(vars, 0, 1, 2, offset=al),
                twist_chain(W, vars, [(2, "twist", w_arg), (1, "alg", u)],
                            v)),
        (-1) ** (pu * pw))
    lhs = Sum([term1, scaled(term2, -1)])
    # the iterate's x0 exponents are j - n - 1 with j >= 0, so modes below
    # -hw - 1 only produce x0-exponents above the window
    rhs = mode_sum(vars, W.modes(u, w_arg, lattice(-hw - 1)),
                   lambda: delta_iter(vars, 0, 1, 2),
                   lambda vecw: twist_chain(W, vars, [(2, "twist", vecw)], v))
    return compare("twist-jacobi", _inputs(u=u, v=v, w=w_arg), vars,
                   _cube(W, vars, hw), lhs, rhs)


def check_gen_commutator(W, u: Vec, v: Vec, w_arg: Vec,
                         halfwidth) -> CheckResult:
    """Generalized commutator formula, plus its delta-derivative form."""
    require_semisimple(W, "generalized-commutator")
    vars = ("x1", "x2")
    al = W.algebra_alpha(u)
    pw = W.vec_parity(w_arg)
    pu = W.V.algebra_parity(u)
    sign = (-1) ** (pu * pw)
    lhs = Sum([
        Product(BinomialKernel(vars, al, 0, 1),
                twist_chain(W, vars, [(0, "tw", u), (1, "twist", w_arg)], v)),
        scaled(Product(minus_convention(vars, al, 0, 1),
                       twist_chain(W, vars, [(1, "twist", w_arg), (0, "alg", u)],
                                   v)),
               -sign)])
    # both forms of the right side run over the modes (Y)_0(u)_(alpha+k) w,
    # k >= 0, of the residue form, as (k*D, vector)
    modes = list(W.y0_space.pole_modes(u, w_arg))
    vars3 = ("x0", "x1", "x2")
    iterate = mode_sum(vars3, modes, lambda: delta_iter(vars3, 0, 1, 2),
                       lambda vecw: twist_chain(W, vars3, [(2, "twist", vecw)],
                                                v))
    box = _cube(W, vars, halfwidth)
    res = compare("generalized-commutator", _inputs(u=u, v=v, w=w_arg), vars,
                  box, lhs, residue(iterate, 0))
    if not res.ok:
        return res
    # delta-derivative form: sum over k < M of (1/k!) d^k delta kernels, M
    # the twist commutativity order
    M = max(pole_order(modes), 1)
    dparts = [Product(delta_derivative(vars, 0, 1, K // D),
                      twist_chain(W, vars, [(1, "twist", vecw)], v))
              for K, vecw in modes]
    rhs2 = Sum(dparts) if dparts else TermSeries.zero(vars)
    return compare("generalized-commutator-delta-form",
                   _inputs(u=u, v=v, w=w_arg, M=M), vars, box, lhs, rhs2)


def check_gen_weak_commutativity(W, u: Vec, v: Vec, w_arg: Vec,
                                 halfwidth) -> CheckResult:
    """(x1-x2)^(a+M)-weighted products agree after the twist slot swap."""
    require_semisimple(W, "generalized-weak-commutativity")
    vars = ("x1", "x2")
    al = W.algebra_alpha(u)
    M = max(twist_commutativity_order(W, u, w_arg), 1)
    pw = W.vec_parity(w_arg)
    pu = W.V.algebra_parity(u)
    sign = (-1) ** (pu * pw)
    lhs = Product(BinomialKernel(vars, al + M, 0, 1),
                  twist_chain(W, vars, [(0, "tw", u), (1, "twist", w_arg)], v))
    rhs = scaled(Product(minus_convention(vars, al + M, 0, 1),
                         twist_chain(W, vars, [(1, "twist", w_arg),
                                               (0, "alg", u)], v)),
                 sign)
    return compare("generalized-weak-commutativity",
                   _inputs(u=u, v=v, w=w_arg, M=M), vars,
                   _cube(W, vars, halfwidth), lhs, rhs)


def _t0_terms(W, w_arg, v) -> Series:
    """T_0(w,x) v = T(w,x) x^{N_g} v; log-free when the lemma holds."""
    return x_N_dressed(W, partial(twist_matrix_element, W, w_arg), v, 1)


def check_twist_decomposition(W, w_arg: Vec, v: Vec, halfwidth) -> CheckResult:
    """T_0(w,x) := T(w,x) x^{N_g} is log-free and T(w,x) = T_0(w,x) x^{-N_g}."""
    vars = ("x",)
    hw = Fraction(halfwidth)
    npc = len(nilpotent_power_coeffs(W.g, v))
    box = Box.cube(1, -hw, hw, W.log_bound + npc)
    inputs = _inputs(w=w_arg, v=v)
    t0 = _t0_terms(W, w_arg, v)
    res = compare("twist-decomposition", inputs, vars, box, t0,
                  restricted(t0, lambda m: not mono_parts(m, 1)[1][0]))
    if not res.ok:
        return res
    return compare("twist-decomposition", inputs, vars, box,
                   twist_matrix_element(W, w_arg, v),
                   x_N_dressed(W, partial(_t0_terms, W, w_arg), v, -1))


def check_L_minus1_twist(W, w_arg: Vec, v: Vec, halfwidth) -> CheckResult:
    """d/dx T(w,x) = T(L(-1)w, x) = L(-1) T(w,x) - T(w,x) L_V(-1)."""
    return check_L_minus1_sides(
        W, "L(-1)-twist", _inputs(w=w_arg, v=v), halfwidth,
        twist_matrix_element(W, w_arg, v),
        twist_matrix_element(W, W.L_minus1(w_arg), v),
        twist_matrix_element(W, w_arg, W.V.L_minus1(v)))


def _recentered_product(W, vs, w_arg, v, vars, v_idx, x_idx, k_tw, hw):
    """e^{xL(-1)} Y(v1, x1-x) ... Y(v, -x) w, summed over mode tuples.

    Factors left of the twist slot expand (x_i - x)^{-n-1} in x; factors to
    its right sit inside the |x| > |x_i| region and take the minus convention,
    (-x + x_i)^{-n-1} = e^{pi i(-n-1)} (x - x_i)^{-n-1} expanded in x_i.
    """
    hw = Fraction(hw)
    nv = len(vars)
    box = _cube(W, vars, hw)
    # the kernels are finite once every variable but x is clipped, and x only
    # rises under e^{xL(-1)}, so terms above the window never return
    kbox = box.with_var(x_idx, None, box.highs[x_idx])
    # the twist slot acts on v and on the operators right of it only
    sign = (-1) ** (W.vec_parity(w_arg)
                    * (W.V.algebra_parity(v)
                       + sum(W.V.algebra_parity(u) for u in vs[k_tw:])))
    out = {}

    def emit(chosen, n_v, cur):
        # the x-monomial head times the kernel factors, then times e^{xL};
        # each product is read at once and summed into out, so that no
        # emit's nodes outlive it
        kern = TermSeries(vars, {lattice_mono(
            [(-n_v - D if i == x_idx else 0) for i in range(nv)]):
            Scalar.e(exponent(-n_v - D)) * sign})
        for pos, n in enumerate(chosen):
            q = exponent(-n - D)
            if pos < k_tw:
                kern = Product(kern, BinomialKernel(vars, q, v_idx[pos],
                                                    x_idx, sign=-1))
            else:
                kern = Product(kern, minus_convention(vars, q, v_idx[pos],
                                                      x_idx))
        terms = kern.terms_in(kbox)
        if not terms:
            return
        # only L-powers that can pull the shared variable back into the
        # window contribute
        jneed = int(hw - exponent(min(mono_parts(m, nv)[0][x_idx]
                                      for m in terms)))
        acc_terms(out, Product(_exp_L_terms(W, cur, vars, x_idx, jneed),
                               kern).terms_in(box).items())

    # mode indices, degrees, weights and x-powers below are lattice ints: H
    # is that of hw, and x // D * D that of floor(x / D)
    H = lattice(hw)
    wdeg = lattice(W.vec_deg(w_arg))
    # every coefficient within the window has degree at most this, and modes
    # only matter while the running vector stays below it (L only raises)
    degmax = wdeg + lattice(W.algebra_weight(v)
                            + sum(W.algebra_weight(u) for u in vs)) + nv * H

    # xlo is the least x-power that the head and the kernel factors chosen
    # so far reach with every x_i in the window: (x_i - x)^{-n-1}, left of
    # the slot, needs x^j with integral j >= -n-1-hw, and (x - x_i)^{-n-1},
    # right of it, gives x^{-n-1-j} with integral j <= hw.  Factors left of
    # the slot come last and only raise xlo, so from the last factor right
    # of it on, each n is bounded below by keeping xlo at most hw: beyond,
    # the kernel has no term in kbox.
    def rec(pos, cur, cur_deg, n_v, chosen, xlo):
        if not cur:
            return
        if pos < 0:
            emit(chosen, n_v, cur)
            return
        u = vs[pos]
        wt = lattice(W.algebra_weight(u))
        # (x_i - x)^{-n-1} expanded in x never reaches the window above
        n_hi = H - D if pos < k_tw else cur_deg + wt - D
        n_lo = wt - D + cur_deg - degmax
        if pos < k_tw:
            n_lo = max(n_lo, -D - H - (H - xlo) // D * D)
        elif pos == k_tw:
            n_lo = max(n_lo, xlo - D - H - H // D * D)
        for n in lattice_coset(n_lo, n_hi, lattice(W.algebra_alpha(u))):
            rec(pos - 1, W.mode_vec(u, n, 0, cur), cur_deg + wt - n - D,
                n_v, [n] + chosen, xlo + (max(0, -((n + D + H) // D)) * D
                                          if pos < k_tw
                                          else -n - D - H // D * D))

    wtv = lattice(W.algebra_weight(v))
    for n_v, cur0 in W.modes(v, w_arg, max(-H - D, wtv - D + wdeg - degmax)):
        rec(len(vs) - 1, cur0, wdeg + wtv - n_v - D, n_v, [], -n_v - D)
    del rec         # it reaches itself through its closure: free it now
    return TermSeries(vars, out)


def check_mixed_product(W, tw_vs, w_arg: Vec, alg_vs, v: Vec,
                        halfwidth) -> CheckResult:
    """A (k+l)-fold mixed product equals its re-centered pure-twisted form.

    At most one operator may sit right of the twist slot, and then only with
    v the vacuum: with two or more, single coefficients of the re-centered
    form are infinite sums (the minus-convention expansions of two shifted
    arguments are not jointly summable), which is convergence territory, not
    formal calculus.  With one and v not the vacuum, coefficients inside the
    window still move with the truncation half-width the re-centered form
    is built at, so that case is refused too.  Nothing is lost: for the
    remaining slots the re-centering is the definition of the twist
    operator itself.
    """
    require_semisimple(W, "mixed-product-recentred")
    k, l = len(tw_vs), len(alg_vs)
    if l > 1:
        raise ValueError("at most one algebra operator right of the twist "
                         "slot admits an exact re-centered comparison")
    if l and any(key != W.V.vac for key in v.keys()):
        raise ValueError("an algebra operator right of the twist slot admits "
                         "an exact re-centered comparison only with v the "
                         "vacuum")
    vars = tuple("x%d" % (i + 1) for i in range(k)) + ("x",) + \
        tuple("x%d" % (k + i + 1) for i in range(l))
    tw_idx = list(range(k))
    x_idx = k
    alg_idx = [k + 1 + i for i in range(l)]
    placed = [(i, "tw", u) for i, u in zip(tw_idx, tw_vs)]
    placed.append((x_idx, "twist", w_arg))
    placed += [(i, "alg", u) for i, u in zip(alg_idx, alg_vs)]
    lhs = twist_chain(W, vars, placed, v)
    rhs = _recentered_product(W, tw_vs + alg_vs, w_arg, v, vars,
                              tw_idx + alg_idx, x_idx, k, halfwidth)
    return compare("mixed-product-recentred",
                   _inputs(w=w_arg, v=v, k=k, l=l), vars,
                   _cube(W, vars, halfwidth), lhs, rhs)


def check_mixed_permutation(W, ops, v: Vec, tau, halfwidth) -> CheckResult:
    """Adjacent-transposition symmetry of prefactored mixed products.

    ops is a list of ('tw', u) entries and exactly one ('twist', w); tau is
    the left index of an adjacent transposition.
    """
    if tau is None:
        raise ValueError("mixed-permutation needs a transposition; the "
                         "identity permutation compares nothing")
    vars = tuple("x%d" % (i + 1) for i in range(len(ops)))
    box = _cube(W, vars, halfwidth)
    i = tau
    a_kind, a_vec = ops[i]
    b_kind, b_vec = ops[i + 1]
    if a_kind == "tw" and b_kind == "twist" and len(ops) == 2:
        return check_gen_weak_commutativity(W, a_vec, v, b_vec, halfwidth)
    if a_kind == "tw" and b_kind == "tw":
        M = commutativity_order(W, a_vec, b_vec)
        pref = BinomialKernel(vars, M, i, i + 1)
        lhs = Product(pref, twist_chain(
            W, vars, [(t, kd, u) for t, (kd, u) in enumerate(ops)], v))
        order = list(range(len(ops)))
        order[i], order[i + 1] = order[i + 1], order[i]
        placed = [(t, ops[t][0], ops[t][1]) for t in order]
        sign = (-1) ** (W.algebra_parity(a_vec) * W.algebra_parity(b_vec))
        rhs = scaled(Product(pref, twist_chain(W, vars, placed, v)), sign)
        return compare("mixed-permutation",
                       {"tau": str(tau), "sign": str(sign)}, vars, box, lhs,
                       rhs)
    raise ValueError("unsupported transposition for %r" % ((a_kind, b_kind),))
