"""Twist vertex operators (module argument, algebra input) and their checks.

The twist operator is never stored: every coefficient is computed from its
definition,
    T(w, x) v = (-1)^{|v||w|} e^{x L(-1)} Y^g(v, y) w   at  y^n = e^{pi i n} x^n,
                                                            log y = log x + PI,
so the identities checked here are genuine statements about the twisted
module data.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, floor

from .chains import ChainSeries, OpSlot, pair
from .results import CheckResult, compare
from .scalars import Scalar, Vec, acc_vec, binomial, vec_of
from .series import (BinomialKernel, Box, DeltaDerivKernel, Product, Series,
                     Sum, TermSeries, c_mul, coset_range, delta_iter,
                     delta_prod, delta_prod_rev, derivative, exponent,
                     lattice, minus_convention, mono, mono_add, residue,
                     scaled)
from .twisted import (L_minus1_commutator_sides, _inputs, mode_sum,
                      require_semisimple)
from .vosa import weak_commutativity_order

F0 = Fraction(0)


class TwistOpSlot:
    """Chain slot for T(w_arg, x): reads vectors of W.V, writes into W.

    The coefficient of x^e log^k x is sum_j L(-1)^j b_j / j!, where b_j
    collects the modes of Y^g(v, y)w that e^{xL(-1)} lifts by j powers.  It
    is evaluated by Horner's rule, out = b_j + L(-1)(out)/(j+1) from the top
    j down, so L(-1) is applied max j times rather than once per power of
    every base vector.
    """

    def __init__(self, module, w_arg: Vec):
        self.module = self.target = module
        self.source = module.V
        self.w_arg = w_arg
        self.wt = module.vec_deg(w_arg)
        self.parity = module.vec_parity(w_arg)
        self.logmax = module.log_bound

    def ecosets_meta(self) -> frozenset:
        return frozenset(((-b - 1) % 1) for b in _coset_universe(self.module))

    def ecosets(self, vec) -> frozenset:
        try:
            out = frozenset(((-b - 1) % 1)
                            for b in self.module.algebra_coset(vec))
            return out or frozenset((F0,))
        except ValueError:
            return self.ecosets_meta()

    def apply(self, e: Fraction, k: int, vec: Vec) -> Vec:
        acc = {}
        for key, c in vec.items():
            hit = self._apply_key(e, k, key)
            if hit:
                acc_vec(acc, hit, c)
        return vec_of(acc)

    def _apply_key(self, e, k, vkey) -> Vec:
        W = self.module
        V = W.V
        sgn = (-1) ** (V.parity(vkey) * self.parity)
        bases = {}                    # j -> b_j as a {key: scalar} dict
        n_hi = self.wt + V.weight(vkey) - 1
        for beta, piece in W.g.alpha_decompose_key(vkey).items():
            for n in coset_range(-e - 1, n_hi, beta % 1):
                j = int(e + n + 1)
                for ksrc in range(k, W.log_bound + 1):
                    base = W.mode_vec(piece, n, ksrc, self.w_arg)
                    if not base:
                        continue
                    phase = Scalar.e(-n - 1) * binomial(ksrc, k) \
                        * (Scalar.pi() ** (ksrc - k))
                    acc_vec(bases.setdefault(j, {}), base, sgn * phase)
        out = Vec.zero()
        for j in range(max(bases, default=-1), -1, -1):
            if out:
                out = W.L_minus1(out).scale(Fraction(1, j + 1))
            out = out + vec_of(bases.get(j, {}))
        return out


def _coset_universe(module) -> frozenset:
    """All g-weights reachable by PBW monomials (closure of generator weights)."""
    gens = {module.g.gen_alpha(i) for i in range(len(module.V.gens))}
    out = {F0}
    frontier = set(out)
    while frontier:
        new = {(a + b) % 1 for a in frontier for b in gens} - out
        out |= new
        frontier = new
    return frozenset(out)


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


def twist_matrix_element(W, w_arg: Vec, v: Vec, wprime: Vec = None,
                         var="x") -> ChainSeries:
    return twist_chain(W, (var,), [(0, "twist", w_arg)], v, wprime)


def twist_commutativity_order(W, u: Vec, w: Vec) -> int:
    """Minimal M >= 0 with x^(alpha+M) (Y)_0(u,x)w a power series."""
    al = W.algebra_alpha(u)
    top = W.vec_deg(w) + W.algebra_weight(u) - 1
    for n in reversed(list(coset_range(al, top, al))):
        if W.y0_mode_vec(u, n, w):
            return int(n - al) + 1
    return 0


def _exp_L_terms(W, w_arg: Vec, vars, var_idx, max_j) -> dict:
    """e^{x L(-1)} w as explicit vector-valued terms up to x^max_j."""
    out = {}
    cur = w_arg
    nv = len(vars)
    for j in range(max_j + 1):
        if not cur:
            break
        out[mono([j if i == var_idx else 0 for i in range(nv)])] = \
            cur.scale(Fraction(1, factorial(j)))
        cur = W.L_minus1(cur)
    return out


def check_twist_vacuum_identity(W, w_arg: Vec, halfwidth) -> CheckResult:
    """T(w,x) vacuum = e^{x L(-1)} w, with vector-valued coefficients."""
    vars = ("x",)
    box = Box.cube(1, -Fraction(halfwidth), Fraction(halfwidth), W.log_bound)
    lhs = twist_matrix_element(W, w_arg, Vec.basis(W.V.vac))
    rhs = _exp_L_terms(W, w_arg, vars, 0, int(Fraction(halfwidth)))
    return compare("twist-vacuum-identity", _inputs(w=w_arg), vars, box,
                   lhs, rhs)


class _AppliedSeries(Series):
    """Coefficients of an inner vector-valued series hit by one fixed mode."""

    def __init__(self, W, chain: ChainSeries, u: Vec, n, wprime):
        super().__init__(chain.vars, chain.bounds, chain.cosets, chain.logmax)
        self.W = W
        self.inner = chain
        self.u = u
        self.n = Fraction(n)
        self.wprime = wprime

    def _terms_in(self, box):
        out = {}
        for m, vec in self.inner.terms_in(box).items():
            res = self.W.mode_vec(self.u, self.n, 0, vec)
            if res:
                out[m] = pair(self.wprime, res) if self.wprime is not None \
                    else res
        return out


def check_weak_associativity(W, u: Vec, v: Vec, w_arg: Vec, wprime,
                             halfwidth) -> CheckResult:
    """(x0+x2)^M Y(u,x0+x2) T(w,x2) v = (x0+x2)^M T(Y(u,x0)w, x2) v."""
    require_semisimple(W, "weak-associativity")
    M = max(weak_commutativity_order(W.V, u, v), 1)
    vars = ("x0", "x2")
    hw = Fraction(halfwidth)
    box = Box.cube(2, -hw, hw, W.log_bound)
    al = W.algebra_alpha(u)
    wdeg = W.vec_deg(w_arg)
    uwt = W.V.algebra_weight(u)

    # left side, mode by mode in Y(u, x0+x2); each kernel exponent M-n-1 is
    # expanded in x2 and multiplies the twist series hit by (Y)_n(u)
    lo = M - 1 - 2 * hw - wdeg - W.V.algebra_weight(v) - uwt - 1
    lhs = Sum([Product(BinomialKernel(vars, M - n - 1, 0, 1, sign=1),
                       _AppliedSeries(W, twist_chain(
                           W, vars, [(1, "twist", w_arg)], v), u, n, wprime))
               for n in coset_range(lo, M - 1 + hw, al)])

    # right side, mode by mode in Y(u, x0) w
    modes = ((m, W.mode_vec(u, m, 0, w_arg))
             for m in coset_range(-hw - M - 1, uwt + wdeg - 1, al))
    rhs = mode_sum(vars, modes,
                   lambda: BinomialKernel(vars, M, 0, 1, sign=1),
                   lambda vecw: twist_chain(W, vars, [(1, "twist", vecw)], v,
                                            wprime))
    return compare("weak-associativity", _inputs(u=u, v=v, w=w_arg, M=M),
                   vars, box, lhs, rhs)


def check_twist_jacobi(W, u: Vec, v: Vec, w_arg: Vec, wprime,
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
                                v, wprime))
    term2 = scaled(
        Product(delta_prod_rev(vars, 0, 1, 2, offset=al),
                twist_chain(W, vars, [(2, "twist", w_arg), (1, "alg", u)],
                            v, wprime)),
        (-1) ** (pu * pw))
    lhs = Sum([term1, scaled(term2, -1)])
    m_hi = W.V.algebra_weight(u) + W.vec_deg(w_arg) - 1
    modes = ((m, W.mode_vec(u, m, 0, w_arg))
             for m in coset_range(-2 * hw - 2, m_hi, al))
    rhs = mode_sum(vars, modes, lambda: delta_iter(vars, 0, 1, 2),
                   lambda vecw: twist_chain(W, vars, [(2, "twist", vecw)], v,
                                            wprime))
    return compare("twist-jacobi", _inputs(u=u, v=v, w=w_arg), vars,
                   Box.cube(3, -hw, hw, W.log_bound), lhs, rhs)


def check_gen_commutator(W, u: Vec, v: Vec, w_arg: Vec, wprime,
                         halfwidth) -> CheckResult:
    """Generalized commutator formula, plus its delta-derivative form."""
    require_semisimple(W, "generalized-commutator")
    vars = ("x1", "x2")
    hw = Fraction(halfwidth)
    al = W.algebra_alpha(u)
    pw = W.vec_parity(w_arg)
    pu = W.V.algebra_parity(u)
    sign = (-1) ** (pu * pw)
    lhs = Sum([
        Product(BinomialKernel(vars, al, 0, 1),
                twist_chain(W, vars, [(0, "tw", u), (1, "twist", w_arg)],
                            v, wprime)),
        scaled(Product(minus_convention(vars, al, 0, 1),
                       twist_chain(W, vars, [(1, "twist", w_arg), (0, "alg", u)],
                                   v, wprime)),
               -sign)])
    # residue form of the right side
    vars3 = ("x0", "x1", "x2")
    k_hi = W.vec_deg(w_arg) + W.V.algebra_weight(u) - 1 - al
    modes = ((k, W.y0_mode_vec(u, al + k, w_arg))
             for k in range(floor(k_hi) + 1))
    iterate = mode_sum(vars3, modes, lambda: delta_iter(vars3, 0, 1, 2),
                       lambda vecw: twist_chain(W, vars3, [(2, "twist", vecw)],
                                                v, wprime))
    # with no mode left the side is zero; no residue pass is made over it
    rhs = residue(iterate, 0) if isinstance(iterate, Sum) \
        else TermSeries.zero(vars)
    box = Box.cube(2, -hw, hw, W.log_bound)
    res = compare("generalized-commutator", _inputs(u=u, v=v, w=w_arg), vars,
                  box, lhs, rhs)
    if not res.ok:
        return res
    # delta-derivative form: sum over k < M of (1/k!) d^k delta kernels
    M = max(twist_commutativity_order(W, u, w_arg), 1)
    dparts = []
    for k in range(M):
        vecw = W.y0_mode_vec(u, al + k, w_arg)
        if vecw:
            kern = DeltaDerivKernel(vars, den=0, num=1, k=k)
            dparts.append(Product(kern, twist_chain(
                W, vars, [(1, "twist", vecw)], v, wprime)))
    rhs2 = Sum(dparts) if dparts else TermSeries.zero(vars)
    return compare("generalized-commutator-delta-form",
                   _inputs(u=u, v=v, w=w_arg, M=M), vars, box, lhs, rhs2)


def check_gen_weak_commutativity(W, u: Vec, v: Vec, w_arg: Vec, wprime,
                                 halfwidth) -> CheckResult:
    """(x1-x2)^(a+M)-weighted products agree after the twist slot swap."""
    require_semisimple(W, "generalized-weak-commutativity")
    vars = ("x1", "x2")
    hw = Fraction(halfwidth)
    al = W.algebra_alpha(u)
    M = max(twist_commutativity_order(W, u, w_arg), 1)
    pw = W.vec_parity(w_arg)
    pu = W.V.algebra_parity(u)
    sign = (-1) ** (pu * pw)
    lhs = Product(BinomialKernel(vars, al + M, 0, 1),
                  twist_chain(W, vars, [(0, "tw", u), (1, "twist", w_arg)],
                              v, wprime))
    rhs = scaled(Product(minus_convention(vars, al + M, 0, 1),
                         twist_chain(W, vars, [(1, "twist", w_arg),
                                               (0, "alg", u)], v, wprime)),
                 sign)
    return compare("generalized-weak-commutativity",
                   _inputs(u=u, v=v, w=w_arg, M=M), vars,
                   Box.cube(2, -hw, hw, W.log_bound), lhs, rhs)


def _t0_terms(W, w_arg, v, wprime, box):
    """Terms of T_0(w,x) v = T(w,x) x^{N_g} v; log-free when the lemma holds."""
    from .automorphism import nilpotent_power_coeffs
    out = {}
    for k2, part in enumerate(nilpotent_power_coeffs(W.g, v)):
        sub = twist_matrix_element(W, w_arg, part, wprime).terms_in(box)
        for (powers, logs), c in sub.items():
            m = (powers, (logs[0] + k2,))
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return {m: c for m, c in out.items() if c}


def check_twist_decomposition(W, w_arg: Vec, v: Vec, wprime,
                              halfwidth) -> CheckResult:
    """T_0(w,x) := T(w,x) x^{N_g} is log-free and T(w,x) = T_0(w,x) x^{-N_g}."""
    from .automorphism import nilpotent_power_coeffs
    vars = ("x",)
    hw = Fraction(halfwidth)
    npc = len(nilpotent_power_coeffs(W.g, v))
    box = Box.cube(1, -hw, hw, W.log_bound + npc)
    inputs = _inputs(w=w_arg, v=v)
    t0 = _t0_terms(W, w_arg, v, wprime, box)
    res = compare("twist-decomposition", inputs, vars, box, t0,
                  {m: c for m, c in t0.items() if not m[1][0]})
    if not res.ok:
        return res
    # reconstruct: T(w,x) v = sum_k T_0(w, x)(N^k v / k!)(-1)^k (log x)^k
    recon = {}
    for k1, part in enumerate(nilpotent_power_coeffs(W.g, v)):
        sgn = Fraction((-1) ** k1)
        for (powers, logs), c in _t0_terms(W, w_arg, part.scale(sgn), wprime,
                                           box).items():
            m = (powers, (logs[0] + k1,))
            prev = recon.get(m)
            recon[m] = c if prev is None else prev + c
    return compare("twist-decomposition", inputs, vars, box,
                   twist_matrix_element(W, w_arg, v, wprime), recon)


def check_L_minus1_twist(W, w_arg: Vec, v: Vec, wprime, halfwidth) -> CheckResult:
    """d/dx T(w,x) = T(L(-1)w, x) = L(-1) T(w,x) - T(w,x) L_V(-1)."""
    vars = ("x",)
    hw = Fraction(halfwidth)
    box = Box.cube(1, -hw, hw, W.log_bound)
    inputs = _inputs(w=w_arg, v=v)
    res = compare("L(-1)-twist", inputs, vars, box,
                  derivative(twist_matrix_element(W, w_arg, v, wprime), 0),
                  twist_matrix_element(W, W.L_minus1(w_arg), v, wprime))
    if not res.ok:
        return res
    comm, want = L_minus1_commutator_sides(
        W, twist_matrix_element(W, w_arg, v),
        twist_matrix_element(W, w_arg, W.V.L_minus1(v)), wprime, box)
    return compare("L(-1)-twist", inputs, vars, box, comm, want)


def _recentered_product(W, vs, w_arg, v, wprime, vars, v_idx, x_idx, k_tw, hw):
    """<e^{xL'} w', Y(v1, x1-x) ... Y(v, -x) w>, summed over mode tuples.

    Factors left of the twist slot expand (x_i - x)^{-n-1} in x; factors to
    its right sit inside the |x| > |x_i| region and take the minus convention,
    (-x + x_i)^{-n-1} = e^{pi i(-n-1)} (x - x_i)^{-n-1} expanded in x_i.
    """
    hw = Fraction(hw)
    nv = len(vars)
    box = Box.cube(nv, -hw, hw, W.log_bound)
    lo, hi = lattice(-hw), lattice(hw)
    # the twist slot acts on v and on the operators right of it only
    sign = (-1) ** (W.vec_parity(w_arg)
                    * (W.V.algebra_parity(v)
                       + sum(W.V.algebra_parity(u) for u in vs[k_tw:])))
    own_box = [Box(
        [None if i != v_idx[pos] else lo for i in range(nv)],
        [None if i != v_idx[pos] else hi for i in range(nv)],
        [0] * nv) for pos in range(len(vs))]
    out = {}

    def emit(chosen, n_v, cur):
        # convolve the kernel factors, the x-monomial head and the e^{xL}
        # terms directly; every factor is finite once its own variable is
        # clipped to the window
        head_m = mono([(-n_v - 1 if i == x_idx else 0) for i in range(nv)])
        terms = {head_m: Scalar.e(-n_v - 1) * sign}
        for pos, n in enumerate(chosen):
            if pos < k_tw:
                kern = BinomialKernel(vars, -n - 1, v_idx[pos], x_idx, sign=-1)
            else:
                kern = BinomialKernel(vars, -n - 1, x_idx, v_idx[pos],
                                      sign=-1, scale=Scalar.e(-n - 1))
            kt = kern.terms_in(own_box[pos])
            nxt = {}
            for m1, c1 in terms.items():
                for m2, c2 in kt.items():
                    m = mono_add(m1, m2)
                    if not lo <= m[0][v_idx[pos]] <= hi:
                        continue
                    c = c1 * c2
                    prev = nxt.get(m)
                    nxt[m] = c if prev is None else prev + c
            terms = nxt
        if not terms:
            return
        # only L-powers that can pull the shared variable back into the
        # window contribute
        jneed = int(hw - exponent(min(m[0][x_idx] for m in terms)))
        if jneed < 0:
            return
        for m1, vecv in _exp_L_terms(W, cur, vars, x_idx, jneed).items():
            val = pair(wprime, vecv) if wprime is not None else vecv
            if not val:
                continue
            for m2, c2 in terms.items():
                m = mono_add(m1, m2)
                if not box.contains(m):
                    continue
                cv = c_mul(c2, val)
                prev = out.get(m)
                out[m] = cv if prev is None else prev + cv

    wdeg = W.vec_deg(w_arg)
    # every coefficient within the window has degree at most this, and modes
    # only matter while the running vector stays below it (L only raises)
    degmax = wdeg + W.algebra_weight(v) + sum(W.algebra_weight(u) for u in vs) \
        + nv * hw

    def rec(pos, cur, cur_deg, n_v, chosen):
        if not cur:
            return
        if pos < 0:
            emit(chosen, n_v, cur)
            return
        u = vs[pos]
        wt = W.algebra_weight(u)
        # (x_i - x)^{-n-1} expanded in x never reaches the window above
        n_hi = hw - 1 if pos < k_tw else cur_deg + wt - 1
        for n in coset_range(wt - 1 + cur_deg - degmax, n_hi,
                             W.algebra_alpha(u)):
            rec(pos - 1, W.mode_vec(u, n, 0, cur), cur_deg + wt - n - 1,
                n_v, [n] + chosen)

    wtv = W.algebra_weight(v)
    for n_v in coset_range(max(-hw - 1, wtv - 1 + wdeg - degmax),
                           wdeg + wtv - 1, W.algebra_alpha(v)):
        cur0 = W.mode_vec(v, n_v, 0, w_arg)
        if cur0:
            rec(len(vs) - 1, cur0, wdeg + wtv - n_v - 1, n_v, [])
    del rec         # it reaches itself through its closure: free it now
    return TermSeries(vars, out)


def check_mixed_product(W, tw_vs, w_arg: Vec, alg_vs, v: Vec, wprime,
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
    if l and any(key != W.V.vac for key in v.comps):
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
    lhs = twist_chain(W, vars, placed, v, wprime)
    rhs = _recentered_product(W, tw_vs + alg_vs, w_arg, v, wprime, vars,
                              tw_idx + alg_idx, x_idx, k, halfwidth)
    box = Box.cube(len(vars), -Fraction(halfwidth), Fraction(halfwidth),
                   W.log_bound)
    return compare("mixed-product-recentred",
                   _inputs(w=w_arg, v=v, k=k, l=l), vars, box, lhs, rhs)


def check_mixed_permutation(W, ops, v: Vec, wprime, tau, halfwidth) -> CheckResult:
    """Adjacent-transposition symmetry of prefactored mixed products.

    ops is a list of ('tw', u) entries and exactly one ('twist', w); tau is
    the left index of an adjacent transposition.
    """
    if tau is None:
        raise ValueError("mixed-permutation needs a transposition; the "
                         "identity permutation compares nothing")
    vars = tuple("x%d" % (i + 1) for i in range(len(ops)))
    hw = Fraction(halfwidth)
    box = Box.cube(len(ops), -hw, hw, W.log_bound)
    i = tau
    a_kind, a_vec = ops[i]
    b_kind, b_vec = ops[i + 1]
    if a_kind == "tw" and b_kind == "twist" and len(ops) == 2:
        return check_gen_weak_commutativity(W, a_vec, v, b_vec, wprime,
                                            halfwidth)
    if a_kind == "tw" and b_kind == "tw":
        M = max(weak_commutativity_order(W.V, a_vec, b_vec), 1)
        pref = BinomialKernel(vars, M, i, i + 1)
        lhs = Product(pref, twist_chain(
            W, vars, [(t, kd, u) for t, (kd, u) in enumerate(ops)], v, wprime))
        order = list(range(len(ops)))
        order[i], order[i + 1] = order[i + 1], order[i]
        placed = [(t, ops[t][0], ops[t][1]) for t in order]
        sign = (-1) ** (W.algebra_parity(a_vec) * W.algebra_parity(b_vec))
        rhs = scaled(Product(pref, twist_chain(W, vars, placed, v, wprime)),
                     sign)
        return compare("mixed-permutation",
                       {"tau": str(tau), "sign": str(sign)}, vars, box, lhs,
                       rhs)
    raise ValueError("unsupported transposition for %r" % ((a_kind, b_kind),))
