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
from functools import cached_property

import numpy as np

from .errors import AuditError, CotwistError
from .exactlin import (CycArray, _largest, cyc_rank, cyc_tensordot, invert_in_group_algebra,
                       pair_sums)
from .groups import DoubleCoset, FiniteGroup
from .twist import TwistData, q_element_and_antipode_check


class SCAlgebra:
    """A finite-dimensional algebra in slice form, with exact constants.

    A slice S of shape (n, n), a CycArray, and basis permutations P of
    shape (n, n), every row a permutation, give the structure constants

        mul[a, b, x] = S[P[x, a], P[x, b]],

    the coefficient of basis element x in e_a e_b.  ``product`` is S and
    ``perms`` is P; float constants are refused (CotwistError), and rows
    that are no permutations (AuditError).  Every algebra here is the dual
    of a counital coalgebra, whose unit is the counit: ``unit`` is the
    all-ones vector, verified exactly when the algebra is built
    (:func:`determine_unit`).

    ``mul`` is gathered from the slice (:func:`gather_slice`) when it is
    first read, then kept.  ``dim`` never gathers, and neither does
    :meth:`take`, which reads one section of ``mul`` off the slice.
    Everything the CLI runs reads the slice: the unit check, the
    automorphism audit of ``GroupAction.verify``, the translation characters
    and the regular trace law of ``cotwist.projective``, the row of U_g and
    the whole split of ``cotwist.semisimple``.  Only the audits that no
    report runs read ``mul``: ``f_g_map``, :func:`a2_to_a1op_iso` and
    ``semisimple.algebra_audit``.  The fewest-term counts of the row e_0 e_j
    are formed once per algebra (:attr:`row_terms`).
    """

    def __init__(self, S: CycArray, perms: np.ndarray, name: str = ""):
        if not isinstance(S, CycArray):
            raise CotwistError(f"{name}: structure constants must be exact, "
                               f"got {type(S).__name__}")
        n = S.shape[0]
        if not S.shape == perms.shape == (n, n) or np.any(np.sort(perms, axis=1) != np.arange(n)):
            raise AuditError(f"{name}: slice rows are not basis permutations")
        self.product = S
        self.perms = perms
        self.name = name
        self._mul = None
        determine_unit(S, perms, name)

    @property
    def unit(self) -> CycArray:
        """The counit, all ones on the basis: the algebra's verified unit."""
        return CycArray.from_exponents(self.product.order, np.zeros(self.dim, dtype=np.int64))

    @property
    def mul(self) -> CycArray:
        if self._mul is None:
            self._mul = gather_slice(self.product, self.perms)
        return self._mul

    def take(self, indices, axis: int) -> CycArray:
        """``mul.take(indices, axis)`` for one index or a 1-d array of them.

        Each cell is read as S[P[x, a], P[x, b]], by one flat take from S,
        so only the section is formed.
        """
        S, P, n = self.product, self.perms, self.dim
        ranges = [np.arange(n)] * 3
        ranges[axis] = np.atleast_1d(indices)
        a, b, x = np.ix_(*ranges)
        counts = np.take(S.counts.reshape(n * n, S.order), P[x, a] * n + P[x, b], axis=0)
        if np.ndim(indices) == 0:
            counts = counts.squeeze(axis)
        return CycArray(S.order, S.scale, counts)

    @cached_property
    def row_terms(self) -> np.ndarray:
        """``mul.take(0, 0).fewest_counts()``, the products e_0 e_j, formed once."""
        return self.take(0, 0).fewest_counts()

    @property
    def dim(self) -> int:
        return self.product.shape[0]

    @property
    def is_exact(self) -> bool:
        """Always True; kept for the span recorder of ``perfbench/spans.py``."""
        return True


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
        every a) and the exact automorphism check run only for the
        generators s of ``group.generators``.  The identity acts trivially
        and every element is a word a = s_1 ... s_r in them, so perms[a] =
        perms[s_1] o ... o perms[s_r]: the composition law extends along
        words, and automorphisms compose.

        A generator's p is certified by the index identity P[p[x], p[a]] =
        P[x, a] on the slice form (``SCAlgebra``), n^2 integers: then
        mul[p a, p b, p x] = S[P[p x, p a], P[p x, p b]] = S[P[x, a], P[x, b]]
        = mul[a, b, x].  The identity is sufficient, not necessary, so where
        it fails the canonical constants are compared, mul[p, p, p] == mul.
        """
        g = self.group
        m = g.order
        if self.perms.shape != (m, algebra.dim):
            raise AuditError("action table has the wrong shape")
        ident = np.arange(algebra.dim)
        if not np.array_equal(self.perms[0], ident):
            raise AuditError("identity does not act trivially")
        gens = g.generators
        for s in gens:
            # [a, y] = perms[a][perms[s][y]]
            if not np.array_equal(self.perms[g.mul[:, s]], self.perms[:, self.perms[s]]):
                raise AuditError("permutations do not compose like the group")
        if np.any(self.perms[1:] == ident):
            raise AuditError("action is not free")
        P, mc = algebra.perms, None
        for h in gens:
            p = self.perms[h]
            if np.array_equal(P[np.ix_(p, p)], P):
                continue
            if mc is None:
                mc = algebra.mul.canonical()
            if not np.array_equal(mc[np.ix_(p, p, p)], mc):
                raise AuditError(f"basis permutation of element {h} is not an automorphism")


def _identity_matrix(n: int, order: int) -> CycArray:
    out = CycArray.zeros((n, n), order)
    out.counts[np.arange(n), np.arange(n), 0] = 1
    return out


def determine_unit(S: CycArray, perms: np.ndarray, name: str) -> None:
    """Verify exactly that the counit is the two-sided unit of the slice-form
    algebra ``name`` (``SCAlgebra``); AuditError names the algebra otherwise.

    Every row of P being a permutation, the counit u gives u e_j at x the
    sum sum_a mul[a, j, x] = sum_r S[r, P[x, j]], the column sum of S at
    P[x, j], and e_j u the row sum at P[x, j].  As x runs, P[x, j] runs over
    every cell, so u e_j = e_j exactly when the column-sum vector is e_r, 1
    at one cell r and 0 elsewhere, and P[x, x] = r for every x; likewise
    the row-sum vector.  Each is compared with e_r exactly (``CycArray.eq``).
    Both sums are plain int64 sums of the counts, exact while
    n * max|count| < 2^63, which is checked (CotwistError).
    """
    n, r = len(perms), perms[0, 0]
    e_r = CycArray.zeros((n,), S.order)
    e_r.counts[r, 0] = 1
    try:
        if _largest(S.counts) * n >= 1 << 63:
            raise CotwistError("the unit sums would overflow int64 counts")
        ok = np.all(np.diagonal(perms) == r) and all(
            CycArray(S.order, S.scale, np.einsum(sums, S.counts)).eq(e_r)
            for sums in ("ij...->j...", "ij...->i..."))
    except CotwistError as exc:
        raise CotwistError(f"{name}: {exc}") from None
    if not ok:
        raise AuditError(f"{name}: the counit is not a two-sided unit")


# ---------------------------------------------------------------------------
# the two H-level dual algebras and their translation actions


def build_A1_A2_star(t: TwistData):
    """Duals of (C[H], Delta1) and (C[H], Delta2) with their H-actions.

    Returns (A1, A2, rho1, rho2) where the products on the delta basis are

        delta_h .1 delta_h' = sum_x J[x^-1 h, x^-1 h'] delta_x
        delta_h .2 delta_h' = sum_x Jinv[h x^-1, h' x^-1] delta_x

    rho1(h): delta_y -> delta_{h y} acts on A1 and rho2(h): delta_y ->
    delta_{y h^-1} acts on A2; both are verified to act freely by algebra
    automorphisms.  Units are the counits (all-ones vectors).  The slices
    are J with P[x, h] = x^-1 h, and Jinv with P[x, h] = h x^-1.
    """
    t.require_verified()
    group = t.group
    mul = group.mul.astype(np.int64)
    inv = group.inv.astype(np.int64)
    A1 = SCAlgebra(t.J, mul[inv], name="A1*")
    A2 = SCAlgebra(t.Jinv, mul[:, inv].T, name="A2*")

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
    abelian group passes, before any count is read.
    """
    mul = group.mul
    conj = mul[mul, group.inv[:, None]]  # [h, a] -> h a h^-1
    conj = conj[np.any(conj != np.arange(group.order), axis=1)]  # central h fix every M
    if not conj.size:
        return True
    canon = M.canonical()
    return bool(np.all(canon[conj[:, :, None], conj[:, None, :]] == canon))


def _block_slice(jinv: np.ndarray, j: np.ndarray, shifts: np.ndarray, nz: int) -> np.ndarray:
    """Counts [a, b, N] of a block's products at one basis point x.

    ``shifts[s, c]`` is the coset index of h_s x h_c; ``jinv`` and ``j`` are
    counts of Jinv and J.  mul[a, b, x] = sum Jinv[s, t] J[c, d] over
    h_s x h_c = a and h_t x h_d = b.  For each t, d -> h_t x h_d is
    injective, so each (b, t) has at most one such d, d_at[b, t], and the
    slice is the :func:`pair_sums` of Jinv and J at d_at over the |H|^2/|Z|
    pairs (s, c) with h_s x h_c = a.  Raises AuditError unless every a has
    that many.
    """
    m = j.shape[0]
    if np.any(np.bincount(shifts.ravel(), minlength=nz) * nz != m * m):
        raise AuditError("double coset is not one H x H orbit of its points")
    d_at = np.full((nz, m), m)  # [b, t]: the d with h_t x h_d = b, m where none
    d_at[shifts.T, np.arange(m)] = np.arange(m)[:, None]
    pairs = np.argsort(shifts.T.ravel(), kind="stable").reshape(nz, -1)  # [a, k]: c m + s
    return pair_sums(jinv, j, d_at, pairs)


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
    ``ad_invariant`` certifies exactly; it always holds for abelian H, and
    AuditError names the block where it fails.  Substituting s -> h s h^-1,
    t -> h t h^-1, c -> h'^-1 c h', d -> h'^-1 d h' sends the terms at
    (a, b, x) one-to-one onto the terms at (h a h', h b h', h x h'), and
    invariance keeps their values, so mul[h a h', h b h', h x h'] =
    mul[a, b, x] for all h, h' in H.  The coset is a single H x H orbit, so
    with S the slice at the representative g, mul[a, b, x] =
    S[h^-1 a h'^-1, h^-1 b h'^-1], where x = h g h' is x's first
    factorization.  The block is the ``SCAlgebra`` of S with back[x, a] =
    h^-1 a h'^-1, whose rows are permutations because a -> h^-1 a h'^-1 is
    a bijection of the coset.  Only the |H|^2 shifts h_s g h_c are formed;
    that they cover the coset, each point |H|^2/|Z| times, makes it the
    orbit H g H.  The unit is the restriction of the ambient counit
    (all-ones on the coset).  J's and Jinv's counts are the twist's
    ``terms``, formed once per twist; G's table is indexed as it is stored.
    """
    t.require_verified()
    G, hg = t.subgroup.parent, t.subgroup.elements.astype(np.int64)
    mulG = G.mul
    name = f"block[{coset.representative}]"
    if not (ad_invariant(t.group, t.J) and ad_invariant(t.group, t.Jinv)):
        raise AuditError(f"{name}: J is not Ad(H)-invariant, so one slice does not fix it")
    z = coset.elements.astype(np.int64)
    nz = len(z)
    loc_z = np.full(G.order, -1, dtype=np.int64)
    loc_z[z] = np.arange(nz)
    j, jinv = t.terms
    # [s, c] = coset-local index of h_s g h_c; _block_slice checks they cover the coset
    shifts = loc_z[mulG[mulG[hg, coset.representative][:, None], hg[None, :]]]
    if np.any(shifts < 0):
        raise AuditError("double coset is not closed under H-translations")
    S = _block_slice(jinv, j, shifts, nz)
    # back[x, a] = h^-1 a h'^-1 for the first factorization x = h g h', (h, h') = (h_s, h_c)
    s, c = np.divmod(np.unique(shifts, return_index=True)[1], len(hg))
    back = loc_z[mulG[mulG[G.inv[hg[s]][:, None], z[None, :]], G.inv[hg[c]][:, None]]]
    return SCAlgebra(CycArray(t.order, t.J.scale * t.Jinv.scale, S), back, name)


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
    t.require_verified()
    group = t.group
    m = group.order
    n = t.order
    mul = group.mul.astype(np.int64)
    inv = group.inv.astype(np.int64)

    Q, anti_ok = q_element_and_antipode_check(t)
    if not anti_ok:
        raise AuditError("antipode identity failed; anti-isomorphism unavailable")
    Qinv = invert_in_group_algebra(Q, mul)

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
