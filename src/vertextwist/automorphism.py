"""Automorphisms of free-field algebras and their exact Jordan data.

An automorphism g is given by its action on the generator space and extended
multiplicatively to PBW monomials.  Its Jordan parts g = e^{2 pi i S} e^{K},
with K = 2 pi i N, are split once, on the generator block: S acts by a
rational alpha on each generalized eigenspace of that block, and K on a
generator is the finite logarithm series of e^{-2 pi i S} g there.  Since g is
an automorphism, S acts multiplicatively on PBW monomials and K acts as a
derivation, by the Leibniz rule over their factors.  `jordan_decompose`
certifies both on every basis vector of each weight block: e^{K} e^{2 pi i S}
v = g v, e^{2 pi i S} K v = K e^{2 pi i S} v, and K v reaches zero.  K is the
stored primitive; N itself only ever appears multiplied by logs,
contributing PI^{-1} factors that the scalar ring carries exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonCyclotomicSpectrum, NotIsometry, NotNilpotent
from .linalg import kernel_basis, mat_eq, mat_identity, mat_mul, solve
from .results import CheckResult, Modes, first_failure
from .scalars import (Scalar, Vec, bilinear, cyclotomic_level, exact, lattice,
                      linear)
from .series import D, lattice_coset
from .vosa import FreeFieldAlgebra

F0 = Fraction(0)

NILPOTENCY_CAP = 24


class Automorphism:
    """Weight- and parity-preserving invertible map given on generators."""

    def __init__(self, V: FreeFieldAlgebra, images: dict, name: str = "g"):
        self.V = V
        self.name = name
        # images: generator name -> Vec over generator keys
        self.images = {V.gens[i].name: images[V.gens[i].name]
                       for i in range(len(V.gens))}
        self._apply_memo = {}
        self._alpha_memo = {}
        self._K_memo = {}
        self._K_gens = {}
        self._semi_memo = {1: {}, -1: {}}
        self._gen_block = None
        self._gen_parts = None
        self._diag_alpha = None

    # -- action ----------------------------------------------------------------

    def apply_key(self, key) -> Vec:
        hit = self._apply_memo.get(key)
        if hit is not None:
            return hit
        if not key:
            out = Vec.basis(key)
        else:
            head, rest = key[0], key[1:]
            gi = self.V.gen_index(head)
            out = self._create_from(self.images[self.V.gens[gi].name],
                                    self.V.factor_weight(head),
                                    self.apply_key(rest))
        self._apply_memo[key] = out
        return out

    def _create_from(self, gens: Vec, magnitude, vec: Vec) -> Vec:
        """A leading factor of weight magnitude created on vec, bilinear in
        the generator (gens being a vector of generator keys) and in vec."""
        V = self.V
        modes = {}
        for gkey in gens.keys():
            gi = V.gen_index(gkey[0])
            modes[gkey] = (gi, lattice(-magnitude + V.gen_weight(gi) - 1))
        return bilinear(lambda gkey, key: V.gen_apply(*modes[gkey], key),
                        gens, vec)

    def apply(self, vec: Vec) -> Vec:
        return linear(self.apply_key, vec)

    # -- generator-space eigenstructure -----------------------------------------

    def gen_block(self):
        """Matrix of g on the generator space, columns indexed by generators."""
        if self._gen_block is None:
            r = len(self.V.gens)
            mat = [[0] * r for _ in range(r)]
            for j in range(r):
                img = self.images[self.V.gens[j].name]
                for gkey, c in img.items():
                    mat[self.V.gen_index(gkey[0])][j] = c
            self._gen_block = mat
        return self._gen_block

    def generator_parts(self):
        """Per generator, its components in the generalized eigenspaces of g."""
        if self._gen_parts is None:
            mat = self.gen_block()
            columns, col_alpha = _generalized_eigenbasis(mat)
            r = len(mat)
            parts = []
            all_coords = solve([[columns[c][t] for c in range(r)]
                                for t in range(r)], mat_identity(r))
            for i, coords in enumerate(all_coords):
                by_alpha = {}
                for c, x in enumerate(coords):
                    if not x:
                        continue
                    comp = by_alpha.setdefault(col_alpha[c], [0] * r)
                    for t in range(r):
                        comp[t] = comp[t] + x * columns[c][t]
                parts.append(sorted(by_alpha.items()))
            self._gen_parts = parts
            # every generator lying in a single generalized eigenspace makes
            # the pointwise alpha decomposition a grading, not an expansion
            diag = []
            for i, p in enumerate(parts):
                if len(p) == 1 and all(p[0][1][t] == (1 if t == i else 0)
                                       for t in range(r)):
                    diag.append(p[0][0])
                else:
                    diag = None
                    break
            self._diag_alpha = diag
        return self._gen_parts

    def gen_alpha(self, gidx) -> Fraction:
        parts = self.generator_parts()[gidx]
        if len(parts) != 1:
            raise NonCyclotomicSpectrum(
                "generator %s is not in a single generalized eigenspace"
                % self.V.gens[gidx].name)
        return parts[0][0]

    # -- pointwise alpha decomposition and logarithm -----------------------------

    def alpha_decompose_key(self, key) -> dict:
        hit = self._alpha_memo.get(key)
        if hit is not None:
            return hit
        self.generator_parts()
        if self._diag_alpha is not None:
            al = sum((self._diag_alpha[self.V.gen_index(f)] for f in key), F0) % 1
            out = {al: Vec.basis(key)}
        elif not key:
            out = {F0: Vec.basis(key)}
        else:
            head, rest = key[0], key[1:]
            gi = self.V.gen_index(head)
            n = self.V.factor_weight(head)
            out = {}
            for al, comp in self.generator_parts()[gi]:
                gens = Vec({self.V.gen_key(j): c for j, c in enumerate(comp)})
                for be, wvec in self.alpha_decompose_key(rest).items():
                    made = self._create_from(gens, n, wvec)
                    if made:
                        tot = (al + be) % 1
                        out[tot] = out.get(tot, Vec.zero()) + made
        self._alpha_memo[key] = out
        return out

    def alpha_decompose(self, vec: Vec) -> dict:
        out = {}
        for key, c in vec.items():
            for al, part in self.alpha_decompose_key(key).items():
                p = part.scale(c)
                if p:
                    out[al] = out.get(al, Vec.zero()) + p
        return {al: v for al, v in out.items() if v}

    def coset_of(self, vec: Vec) -> frozenset:
        return frozenset(self.alpha_decompose(vec))

    def semisimple_exp(self, vec: Vec, sign: int = 1) -> Vec:
        """e^{+-2 pi i S_g} applied pointwise."""
        self.generator_parts()
        if self._diag_alpha is not None and not any(self._diag_alpha):
            return vec
        return linear(lambda key: sum(
            (part.scale(Scalar.e(2 * sign * al))
             for al, part in self.alpha_decompose_key(key).items()),
            Vec.zero()), vec, self._semi_memo[sign])

    def K_apply(self, vec: Vec) -> Vec:
        """K = 2 pi i N_g, the nilpotent logarithm, applied pointwise."""
        return linear(self._K_key, vec, self._K_memo)

    def _K_key(self, key) -> Vec:
        """K(a_(-n) rest) = (K a)_(-n) rest + a_(-n) K(rest), K being a
        derivation of V."""
        if not key:
            return Vec.zero()
        head, rest = key[0], key[1:]
        gi = self.V.gen_index(head)
        n = self.V.factor_weight(head)
        rest_vec = Vec.basis(rest)
        return self._create_from(self.gen_K(gi), n, rest_vec) \
            + self._create_from(Vec.basis(self.V.gen_key(gi)), n,
                                self.K_apply(rest_vec))

    def gen_K(self, gidx) -> Vec:
        """K on one generator: the log series of e^{-2 pi i S} g there."""
        hit = self._K_gens.get(gidx)
        if hit is not None:
            return hit
        out = Vec.zero()
        cur = Vec.basis(self.V.gen_key(gidx))
        j = 1
        while True:
            cur = self.semisimple_exp(self.apply(cur), sign=-1) - cur
            if not cur:
                break
            if j > NILPOTENCY_CAP:
                raise NotNilpotent("log series did not terminate")
            out = out + cur.scale(Fraction((-1) ** (j + 1), j))
            j += 1
        self._K_gens[gidx] = out
        return out

    def exp_terms(self, vec: Vec) -> list:
        """[K^k v / k!] for k = 0, 1, ... up to the last nonzero term."""
        out = [vec]
        while True:
            cur = self.K_apply(out[-1]).scale(Fraction(1, len(out)))
            if not cur:
                return out
            if len(out) > NILPOTENCY_CAP:
                raise NotNilpotent("exponential series did not terminate")
            out.append(cur)

    def unipotent_exp(self, vec: Vec) -> Vec:
        """e^{2 pi i N_g} = e^{K} applied pointwise."""
        return sum(self.exp_terms(vec), Vec.zero())


def parity_automorphism(V) -> Automorphism:
    images = {g.name: Vec.basis(V.gen_key(i), (-1) ** g.parity)
              for i, g in enumerate(V.gens)}
    return Automorphism(V, images, name="parity")


def orthogonal_automorphism(V, matrix, name="g") -> Automorphism:
    """Automorphism of a Heisenberg algebra from a Gram-preserving matrix."""
    r = len(V.gens)
    m = [[exact(matrix[i][j]) for j in range(r)] for i in range(r)]
    mt = [[m[j][i] for j in range(r)] for i in range(r)]
    # exact isometry check: M^T G M = G
    if not mat_eq(mat_mul(mat_mul(mt, V.gram), m), V.gram):
        raise NotIsometry("matrix does not preserve the Gram form")
    images = {V.gens[j].name: Vec({V.gen_key(i): c for i, c in enumerate(mt[j])})
              for j in range(r)}
    return Automorphism(V, images, name=name)


# ---------------------------------------------------------------------------
# blockwise Jordan decomposition
# ---------------------------------------------------------------------------

def _alpha_candidates():
    m = 2 * cyclotomic_level()
    return [Fraction(j, m) for j in range(m)]


def _generalized_eigenbasis(mat):
    """(basis columns, alpha per column) of the generalized eigenspaces of
    a square matrix whose eigenvalues are e^{2 pi i alpha}."""
    d = len(mat)
    columns, col_alpha = [], []
    for al in _alpha_candidates():
        shifted = [[mat[i][j] - (Scalar.e(2 * al) if i == j else 0)
                    for j in range(d)] for i in range(d)]
        if not kernel_basis(shifted):
            continue   # not an eigenvalue, no generalized eigenspace
        power = mat_identity(d)
        for _ in range(d):
            power = mat_mul(power, shifted)
        for v in kernel_basis(power):
            columns.append(v)
            col_alpha.append(al)
        if len(columns) == d:
            break
    if len(columns) != d:
        raise NonCyclotomicSpectrum(
            "eigenvalues are not roots of unity of order dividing %d"
            % (2 * cyclotomic_level()))
    return columns, col_alpha


class BlockJordan:
    """K = 2 pi i N matrix of one weight block, its spectrum and nilpotency
    index, read from g pointwise and certified on every basis vector."""

    def __init__(self, g: Automorphism, basis):
        self.basis = basis
        index = {k: i for i, k in enumerate(basis)}
        self.K = [[0] * len(basis) for _ in basis]
        alphas = set()
        self.nilpotency_index = 0
        for j, key in enumerate(basis):
            v = Vec.basis(key)
            Kv = g.K_apply(v)
            for kk, c in Kv.items():
                self.K[index[kk]][j] = c
            alphas |= g.coset_of(v)
            terms = g.exp_terms(v)
            self.nilpotency_index = max(self.nilpotency_index, len(terms))
            Sv = g.semisimple_exp(v)
            # e^K S v, from the terms of v when S leaves v as it is
            eKSv = sum(terms, Vec.zero()) if Sv is v else g.unipotent_exp(Sv)
            if eKSv != g.apply_key(key) \
                    or g.semisimple_exp(Kv) != g.K_apply(Sv):
                raise NonCyclotomicSpectrum(
                    "exp(2 pi i (S+N)) failed to reproduce g")
        self.alphas = sorted(alphas)


class JordanData:
    def __init__(self, blocks: dict, spectrum):
        self.blocks = blocks
        self.spectrum = sorted(spectrum)

    def to_json(self):
        return {
            "spectrum": [str(a) for a in self.spectrum],
            "blocks": {str(w): {
                "dim": len(b.basis),
                "nilpotency_index": b.nilpotency_index,
                "K": [[str(x) for x in row] for row in b.K],
            } for w, b in sorted(self.blocks.items())},
        }


def jordan_decompose(g: Automorphism, weight_cutoff) -> JordanData:
    """Blockwise K = 2 pi i N_g and the spectrum P_V up to the weight cutoff."""
    by_weight = {}
    for key in g.V.basis(weight_cutoff):
        by_weight.setdefault(g.V.weight(key), []).append(key)
    blocks = {w: BlockJordan(g, keys) for w, keys in sorted(by_weight.items())}
    spectrum = set().union(*(b.alphas for b in blocks.values()))
    return JordanData(blocks, spectrum)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def _pair_sweep(identity, V, weight_cutoff, halfwidth, sides):
    """First failure of an identity stated mode by mode on every basis pair
    (u, v), sides(u, v) giving its (lhs, rhs, logcap)."""
    basis = V.basis(weight_cutoff)
    windows = {}                 # logcap -> Modes on the window exponents

    def check_pair(u, v):
        lhs, rhs, logcap = sides(u, v)
        if logcap not in windows:
            windows[logcap] = Modes(
                lattice_coset(-D * halfwidth, D * halfwidth, 0), logcap)
        return windows[logcap].compare(identity, {"u": str(u), "v": str(v)},
                                       lhs, rhs)
    return first_failure(identity,
                         {"basis": len(basis), "halfwidth": halfwidth},
                         (check_pair(u, v) for u in basis for v in basis))


def check_homomorphism(V, fn, weight_cutoff, halfwidth=3) -> CheckResult:
    """fn(u_(n) v) = fn(u)_(n) fn(v) on all basis pairs and window modes."""
    image = {key: fn(Vec.basis(key)) for key in V.basis(weight_cutoff)}
    return _pair_sweep(
        "automorphism-homomorphism", V, weight_cutoff, halfwidth,
        lambda u, v: (lambda n, k: fn(V.mode_apply(u, n, v)),
                      lambda n, k: V.mode_vec(image[u], n, 0, image[v]), 0))


def check_derivation(V, g: Automorphism, weight_cutoff, halfwidth=6) -> CheckResult:
    """[K, Y(u,x)]v = Y(Ku,x)v with K = 2 pi i N_g, coefficientwise."""
    K = {key: g.K_apply(Vec.basis(key)) for key in V.basis(weight_cutoff)}
    return _pair_sweep(
        "nilpotent-derivation", V, weight_cutoff, halfwidth,
        lambda u, v: (lambda n, k: g.K_apply(V.mode_apply(u, n, v))
                      - V.mode_vec(Vec.basis(u), n, 0, K[v]),
                      lambda n, k: V.mode_vec(K[u], n, 0, Vec.basis(v)), 0))


# (PI^-1 / 2)^k, N = K/(2 PI), for every k an exp_terms list can reach
_N_POWERS = [1]
while len(_N_POWERS) <= NILPOTENCY_CAP:
    _N_POWERS.append(_N_POWERS[-1] * Scalar.pi(-1) / 2)


def nilpotent_power_coeffs(g: Automorphism, vec: Vec):
    """[N^k v / k!] for k = 0,1,... until zero; the (log x)^k coefficients of x^N v."""
    return [t.scale(_N_POWERS[k]) for k, t in enumerate(g.exp_terms(vec))]


def check_conjugation(V, g: Automorphism, weight_cutoff, halfwidth=6) -> CheckResult:
    """x0^{N} Y(u,x) v = Y(x0^{N} u, x) x0^{N} v, exactly in x, log x0 and PI;
    the log(x0)^k coefficients sit on log power k of the mode monomials."""
    N = {key: nilpotent_power_coeffs(g, Vec.basis(key))
         for key in V.basis(weight_cutoff)}
    zero = Vec.zero()

    def sides(u, v):
        nu, nv = N[u], N[v]
        lhs = {n: nilpotent_power_coeffs(g, V.mode_apply(u, n, v))
               for n in lattice_coset(-D * (halfwidth + 1),
                                      D * (halfwidth - 1), 0)}

        def rhs(n, k):
            out = zero
            for k1 in range(max(0, k - len(nv) + 1), min(k, len(nu) - 1) + 1):
                out = out + V.mode_vec(nu[k1], n, 0, nv[k - k1])
            return out
        return (lambda n, k: lhs[n][k] if k < len(lhs[n]) else zero, rhs,
                max(len(nu) + len(nv) - 2, max(map(len, lhs.values())) - 1))
    return _pair_sweep("nilpotent-conjugation", V, weight_cutoff, halfwidth,
                       sides)
