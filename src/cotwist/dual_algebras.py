"""Dual algebras of twisted group coalgebras, on delta-function bases.

Deforming the coproduct of C[H] by a twist J gives two coalgebras,
Delta1(x) = (x x x) J and Delta2(x) = J^-1 (x x x); their linear duals are
associative algebras on the basis {delta_h}.  The ambient construction on a
group G containing H deforms by Delta_J(g) = J^-1 (g x g) J, and its dual
splits into blocks supported on the double cosets H g H.  This module builds
all of these as explicit structure-constant algebras, exactly, together with
the translation actions of H and the anti-isomorphism between the two
H-level duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, CotwistError
from .exactlin import CycArray, _largest, contract_counts, cyc_rank, cyc_tensordot, sum_counts
from .groups import DoubleCoset, FiniteGroup
from .twist import TwistData


class SCAlgebra:
    """A finite-dimensional algebra given by exact structure constants.

    ``mul[i, j, k]`` is the coefficient of basis element k in e_i e_j, as a
    CycArray; ``unit`` is the CycArray coefficient vector of the
    multiplicative unit, verified exactly when the algebra is built
    (:func:`determine_unit`).  Float ones are refused (CotwistError).

    An algebra may instead be given in slice form (:meth:`from_slice`): a
    slice S of shape (n, n) and basis permutations P of shape (n, n), every
    row a permutation, with

        mul[a, b, x] = S[P[x, a], P[x, b]].

    Then ``product`` is S and ``perms`` is P (None for a dense algebra), and
    ``mul`` is gathered from them (:func:`gather_slice`) when it is first
    read, then kept.  ``dim`` never gathers.  The unit check and the center
    certificates of ``cotwist.semisimple`` read the slice; everything else
    reads ``mul``.
    """

    def __init__(self, mul, unit, name: str = "", *, perms: np.ndarray | None = None):
        if not isinstance(mul, CycArray) or not isinstance(unit, CycArray):
            raise CotwistError(f"{name}: structure constants and unit must be exact, "
                               f"got {type(mul).__name__} and {type(unit).__name__}")
        self.product = mul
        self.perms = perms
        self.unit = unit
        self.name = name
        self._mul = mul if perms is None else None
        determine_unit(mul, unit, name, perms)

    @classmethod
    def from_slice(cls, S: CycArray, perms: np.ndarray, unit: CycArray,
                   name: str = "") -> "SCAlgebra":
        """The exact algebra mul[a, b, x] = S[perms[x, a], perms[x, b]]."""
        n = S.shape[0]
        if not S.shape == perms.shape == (n, n) or np.any(np.sort(perms, axis=1) != np.arange(n)):
            raise AuditError(f"{name}: slice rows are not basis permutations")
        return cls(S, unit, name, perms=perms)

    @property
    def mul(self) -> CycArray:
        if self._mul is None:
            self._mul = gather_slice(self.product, self.perms)
        return self._mul

    @property
    def dim(self) -> int:
        return self.product.shape[0]

    @property
    def is_exact(self) -> bool:
        """Always True; kept for the span recorder of ``perfbench/spans.py``."""
        return True

    def mul_complex(self) -> np.ndarray:
        """The constants embedded in C, for the float ``semisimple.split_simple``."""
        return self.mul.embed()


def gather_slice(S: CycArray, perms: np.ndarray) -> CycArray:
    """The dense constants mul[a, b, x] = S[perms[x, a], perms[x, b]], one a at a time."""
    n = perms.shape[0]
    flat = S.counts.reshape(n * n, -1)
    counts = np.empty((n, n, n, S.order), dtype=np.int64)
    for a in range(n):  # [x, b] -> S[perms[x, a], perms[x, b]]
        counts[a] = np.take(flat, perms[:, [a]] * n + perms, axis=0).swapaxes(0, 1)
    return CycArray(S.order, S.scale, counts)


@dataclass
class GroupAction:
    """A group acting by basis permutations on a structure-constant algebra.

    ``perms[h]`` sends basis index y to the index of the image basis element,
    so the linear action is delta_y -> delta_perms[h][y].
    """

    group: FiniteGroup
    perms: np.ndarray
    name: str = ""

    def verify(self, algebra: SCAlgebra) -> None:
        """Assert: group action, by algebra automorphisms, acting freely.

        Both the composition check perms[a s] = perms[a] o perms[s] (for
        every a) and the exact automorphism compare mul[p, p, p] == mul run
        only for the generators s of ``group.generating_words``.  The
        identity acts trivially and every element is a word a = s_1 ... s_r
        in them, so perms[a] = perms[s_1] o ... o perms[s_r]: the composition
        law extends along words, and automorphisms compose.
        """
        g = self.group
        m = g.order
        if self.perms.shape != (m, algebra.dim):
            raise AuditError("action table has the wrong shape")
        ident = np.arange(algebra.dim)
        if not np.array_equal(self.perms[0], ident):
            raise AuditError("identity does not act trivially")
        gens = g.generating_words[0]
        for s in gens:
            # [a, y] = perms[a][perms[s][y]]
            if not np.array_equal(self.perms[g.mul[:, s]], self.perms[:, self.perms[s]]):
                raise AuditError("permutations do not compose like the group")
        if np.any(self.perms[1:] == ident):
            raise AuditError("action is not free")
        mc = algebra.mul.canonical()
        for h in gens:
            p = self.perms[h]
            if not np.array_equal(mc[np.ix_(p, p, p)], mc):
                raise AuditError(f"basis permutation of element {h} is not an automorphism")


def _identity_matrix(n: int, order: int) -> CycArray:
    out = CycArray.zeros((n, n), order)
    out.counts[np.arange(n), np.arange(n), 0] = 1
    return out


def _all_ones(n: int, order: int) -> CycArray:
    out = CycArray.zeros((n,), order)
    out.counts[:, 0] = 1
    return out


def determine_unit(mul: CycArray, unit: CycArray, name: str,
                   perms: np.ndarray | None = None) -> None:
    """Verify exactly that ``unit`` is the two-sided unit of the algebra ``name``.

    Raises AuditError naming the algebra otherwise.  Every dual algebra here
    is the dual of a counital coalgebra, whose unit is the counit: the
    all-ones vector on the delta basis once the twist's counit axioms hold
    (``require_verified``).  For that unit on its one-count representation
    u e_j and e_j u are the plain sums of the counts over axis 0 and 1:
    exact in int64 while n * max|count| < 2^63, which is checked
    (CotwistError).  Any other unit is contracted by :func:`cyc_tensordot`.

    With ``perms`` the algebra is in slice form (``SCAlgebra``) and ``mul``
    is its slice S.  Every row of P being a permutation, sum_a mul[a, b, x]
    = sum_r S[r, P[x, b]] and sum_b mul[a, b, x] = sum_c S[P[x, a], c]: the
    column and row sums of S gathered at P^T, under the same bound.  Another
    unit is contracted with the gathered constants.
    """
    try:
        sides = _unit_sides(mul, unit, perms)
    except CotwistError as exc:
        raise CotwistError(f"{name}: {exc}") from None
    ident = _identity_matrix(mul.shape[0], mul.order)
    if not all(side.eq(ident) for side in sides):
        raise AuditError(f"{name}: the counit is not a two-sided unit")


def _unit_sides(mul: CycArray, unit: CycArray, perms: np.ndarray | None = None) -> list:
    """u e_j and e_j u as two CycArrays [j, x], formed as :func:`determine_unit` says."""
    n = mul.shape[0]
    if unit.scale == 1 and np.array_equal(unit.counts, _all_ones(n, mul.order).counts):
        if _largest(mul.counts) * n >= 1 << 63:
            raise CotwistError("the unit sums would overflow int64 counts")
        at = slice(None) if perms is None else perms.T
        return [CycArray(mul.order, mul.scale, mul.counts.sum(axis=axis)[at]) for axis in (0, 1)]
    dense = mul if perms is None else gather_slice(mul, perms)
    return [cyc_tensordot(unit, dense, axes=([0], [axis])) for axis in (0, 1)]


# ---------------------------------------------------------------------------
# the two H-level dual algebras and their translation actions


def build_A1_A2_star(t: TwistData):
    """Duals of (C[H], Delta1) and (C[H], Delta2) with their H-actions.

    Returns (A1, A2, rho1, rho2) where the products on the delta basis are

        delta_h .1 delta_h' = sum_x J[x^-1 h, x^-1 h'] delta_x
        delta_h .2 delta_h' = sum_x Jinv[h x^-1, h' x^-1] delta_x

    rho1(h): delta_y -> delta_{h y} acts on A1 and rho2(h): delta_y ->
    delta_{y h^-1} acts on A2; both are verified to act freely by algebra
    automorphisms.  Units are the counits (all-ones vectors).
    """
    t.require_verified()
    group = t.group
    m = group.order
    n = t.order
    mul = group.mul.astype(np.int64)
    inv = group.inv.astype(np.int64)

    mul1 = np.zeros((m, m, m, n), dtype=np.int64)
    mul2 = np.zeros((m, m, m, n), dtype=np.int64)
    for x in range(m):
        idx1 = mul[inv[x]]       # h -> x^-1 h
        mul1[:, :, x, :] = t.J.counts[np.ix_(idx1, idx1)]
        idx2 = mul[:, inv[x]]    # h -> h x^-1
        mul2[:, :, x, :] = t.Jinv.counts[np.ix_(idx2, idx2)]

    A1 = SCAlgebra(CycArray(n, t.J.scale, mul1), _all_ones(m, n), name="A1*")
    A2 = SCAlgebra(CycArray(n, t.Jinv.scale, mul2), _all_ones(m, n), name="A2*")

    rho1 = GroupAction(group, mul.copy(), name="left translation")
    rho2 = GroupAction(group, mul[:, inv].T.copy(), name="right translation")
    rho1.verify(A1)
    rho2.verify(A2)
    return A1, A2, rho1, rho2


# ---------------------------------------------------------------------------
# ambient dual products and double-coset blocks


def ad_invariant(group: FiniteGroup, M: CycArray) -> bool:
    """Whether M[h a h^-1, h b h^-1] = M[a, b] exactly, for every h in ``group``.

    ``M`` is an element of C[H x H] as a (|H|, |H|) matrix on the group's
    local indices.  Its canonical counts are compared under the conjugation
    permutation of every element, so the answer is exact.  Every matrix on an
    abelian group passes.
    """
    mul = group.mul.astype(np.int64)
    conj = mul[mul, group.inv[:, None]]  # [h, a] -> h a h^-1
    conj = conj[np.any(conj != np.arange(group.order), axis=1)]  # central h fix every M
    canon = M.canonical()
    return bool(np.all(canon[conj[:, :, None], conj[:, None, :]] == canon))


def _block_slice(jinv: np.ndarray, j: np.ndarray, shifts: np.ndarray, nz: int) -> np.ndarray:
    """Counts [a, b, N] of a block's products at one basis point x.

    ``shifts[s, c]`` is the coset index of h_s x h_c; ``jinv`` and ``j`` are
    counts of Jinv and J.  mul[a, b, x] = sum Jinv[s, t] J[c, d] over
    h_s x h_c = a and h_t x h_d = b.  For each t, d -> h_t x h_d is
    injective, so X[b, c, t] = J[c, d] at h_t x h_d = b (0 where no d is) is
    a gather, Y[(b, c), s] = sum_t X[b, c, t] Jinv[s, t] is one
    :func:`contract_counts`, and S[a, b] is the :func:`sum_counts` of
    Y[b, c, s] over the |H|^2/|Z| pairs (s, c) with h_s x h_c = a.  Raises
    AuditError unless every a has that many.
    """
    m, n = j.shape[0], j.shape[-1]
    if np.any(np.bincount(shifts.ravel(), minlength=nz) * nz != m * m):
        raise AuditError("double coset is not one H x H orbit of its points")
    d_at = np.full((m, nz), m)  # [t, b]: the d with h_t x h_d = b, m where none
    d_at[np.arange(m)[:, None], shifts] = np.arange(m)
    j = np.concatenate([j, np.zeros((m, 1, n), dtype=np.int64)], axis=1)  # J[c, m] = 0
    X = j[np.arange(m)[:, None], d_at.T[:, None, :]]                       # [b, c, t]
    Y = contract_counts(X.reshape(nz * m, m, n), jinv.transpose(1, 0, 2))  # [(b, c), s]
    pairs = np.argsort(shifts.T.ravel(), kind="stable").reshape(nz, -1)    # [a, k]: c m + s
    return sum_counts(Y.reshape(nz, m * m, n)[:, pairs], axis=2).swapaxes(0, 1)


def build_block_algebra(t: TwistData, coset: DoubleCoset) -> SCAlgebra:
    """The block of the ambient dual algebra supported on one double coset.

    Basis {delta_a : a in H g H}.  The ambient dual product delta_a . delta_b
    has at delta_x the coefficient sum Jinv[s, t] J[x^-1 s^-1 a, x^-1 t^-1 b]
    over the s, t in H that keep both arguments of J in H.  Such terms need
    x^-1 s^-1 a in H and x^-1 t^-1 b in H, which put a and b in H x H: a
    product of deltas from distinct double cosets has no terms, so it
    vanishes by construction and each block is closed under the product.
    With a = h_s x h_c and b = h_t x h_d, mul[a, b, x] = sum Jinv[s, t]
    J[c, d]; the slice at one x is :func:`_block_slice`, on the fewest-term
    counts of J and Jinv.

    One slice fixes the block when J and Jinv are Ad(H)-invariant, which
    ``ad_invariant`` certifies exactly.  Substituting s -> h s h^-1,
    t -> h t h^-1, c -> h'^-1 c h', d -> h'^-1 d h' sends the terms at
    (a, b, x) one-to-one onto the terms at (h a h', h b h', h x h'), and
    invariance keeps their values, so mul[h a h', h b h', h x h'] =
    mul[a, b, x] for all h, h' in H.  The coset is a single H x H orbit, so
    with S the slice at the representative g, mul[a, b, x] =
    S[h^-1 a h'^-1, h^-1 b h'^-1], where x = h g h' is x's first
    factorization.  The block is returned in slice form
    (``SCAlgebra.from_slice``), S with back[x, a] = h^-1 a h'^-1, whose rows
    are permutations because a -> h^-1 a h'^-1 is a bijection of the coset;
    its dense constants are gathered only when ``mul`` is read.  Without the
    certificate the slices at every basis point are stacked into a dense
    block.  The unit is the restriction of the ambient counit (all-ones on
    the coset).
    """
    t.require_verified()
    G, hg = t.subgroup.parent, t.subgroup.elements.astype(np.int64)
    mulG = G.mul.astype(np.int64)
    z = coset.elements.astype(np.int64)
    nz = len(z)
    loc_z = np.full(G.order, -1, dtype=np.int64)
    loc_z[z] = np.arange(nz)
    # shifts[x, s, c] = coset-local index of (h_s x h_c)
    shifts = loc_z[mulG[mulG[np.ix_(hg, z)].T[:, :, None], hg[None, None, :]]]
    if np.any(shifts < 0):
        raise AuditError("double coset is not closed under H-translations")
    jinv, j = t.Jinv.fewest_counts(), t.J.fewest_counts()
    scale, unit = t.J.scale * t.Jinv.scale, _all_ones(nz, t.order)
    name = f"block[{coset.representative}]"
    if ad_invariant(t.group, t.J) and ad_invariant(t.group, t.Jinv):
        g = loc_z[coset.representative]
        S = _block_slice(jinv, j, shifts[g], nz)
        # back[x, a] = h^-1 a h'^-1 for the first factorization x = h g h', (h, h') = (h_s, h_c)
        s, c = np.divmod(np.unique(shifts[g], return_index=True)[1], len(hg))
        invG = G.inv.astype(np.int64)
        back = loc_z[mulG[mulG[invG[hg[s]][:, None], z[None, :]], invG[hg[c]][:, None]]]
        return SCAlgebra.from_slice(CycArray(t.order, scale, S), back, unit, name)
    counts = np.stack([_block_slice(jinv, j, shifts[x], nz) for x in range(nz)], axis=2)
    return SCAlgebra(CycArray(t.order, scale, counts), unit, name)


# ---------------------------------------------------------------------------
# the anti-isomorphism A2* -> (A1*)^op


def a2_to_a1op_iso(t: TwistData, A1: SCAlgebra, A2: SCAlgebra,
                   rho1: GroupAction, rho2: GroupAction) -> CycArray:
    """Matrix of the canonical anti-isomorphism from A2* to A1*.

    delta_x maps to the delta-linear extension of x -> x^-1 Q^-1 where Q is
    the antipode element of the twist: column x of the returned matrix M is
    the coefficient vector of the image, M[h, x] = (x^-1 Q^-1)_h.

    Audited exactly: M is invertible, reverses products
    (M(delta_x .2 delta_y) = M(delta_y) .1 M(delta_x)), and intertwines the
    translation actions (M rho2(h) = rho1(h) M).  Any failure raises.
    """
    from .twist import _antipode_element

    t.require_verified()
    group = t.group
    m = group.order
    n = t.order
    mul = group.mul.astype(np.int64)
    inv = group.inv.astype(np.int64)

    _, Qinv, anti_ok = _antipode_element(t)
    if not anti_ok:
        raise AuditError("antipode identity failed; anti-isomorphism unavailable")

    M = CycArray.zeros((m, m), n)
    M.scale = Qinv.scale
    for x in range(m):
        M.counts[:, x, :] = Qinv.counts[mul[x], :]  # M[h, x] = Qinv[x h]
    if cyc_rank(M) != m:
        raise AuditError("anti-isomorphism matrix is singular")

    lhs = cyc_tensordot(A2.mul, M, axes=([2], [1]))          # [x, y, h]
    t1 = cyc_tensordot(M, A1.mul, axes=([0], [0]))           # [y, l, h]
    rhs = cyc_tensordot(M, t1, axes=([0], [1]))              # [x, y, h]
    if not lhs.eq(rhs):
        raise AuditError("map does not reverse products")

    for h in range(m):
        left = CycArray(n, M.scale, M.counts[:, rho2.perms[h]])
        right = CycArray(n, M.scale, M.counts[mul[inv[h]], :])
        if not left.eq(right):
            raise AuditError("map does not intertwine the translation actions")
    return M
