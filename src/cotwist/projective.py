"""Projective representations from group actions on simple algebras.

A group acting by automorphisms on a simple algebra M_n acts by conjugation
(Skolem–Noether), which pins down a matrix T[a] per group element up to a
scalar; fixing a gauge turns a -> T[a] into a projective representation with
an explicit 2-cocycle c.  The pipeline here extracts these for the two
translation actions on the twisted dual algebras, pulls them back to a
stabilizer subgroup, tensors them, and realizes the resulting cocycle as a
twisted group algebra whose blocks predict spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_algebras import GroupAction, SCAlgebra
from .errors import AuditError, CotwistError
from .groups import Subgroup, stabilizer_local_indices
from .semisimple import WedderburnSpectrum

#: residual tolerance for composite quantities (tensor products, traces)
COMPOSITE_TOL = 1e-6
#: cocycle identity tolerance
COCYCLE_TOL = 1e-7


@dataclass
class ProjectiveRep:
    """A projective representation with an explicit 2-cocycle.

    ``T[a]`` is the n x n matrix of local group element a (T[0] = identity),
    and ``c[a, b]`` is the nonzero scalar with T[a] T[b] = c(a,b) T[ab].
    When the underlying splitting is compatible with a *-structure the
    moduli |c| are all 1; in general they are an R+-valued coboundary away
    from 1, which leaves every downstream spectrum unchanged.  ``group``
    records which subgroup of the ambient group is represented; indices
    into T and c are local (following group.elements order).
    """

    group: Subgroup
    dim: int
    T: np.ndarray
    c: np.ndarray

    @property
    def size(self) -> int:
        return self.T.shape[0]

    def validate(self, tol: float = COMPOSITE_TOL) -> None:
        """Assert the gauge, the cocycle, and the defining relation.

        The relation T[a] T[b] = c(a,b) T[ab] is the O(k^2 n^3) check; it runs
        after the cheaper ones of :meth:`_validate_cocycle`.
        """
        self._validate_cocycle(tol)
        prods = np.einsum("aij,bjk->abik", self.T, self.T)
        target = self.c[:, :, None, None] * self.T[self.group.as_group.mul]
        if np.max(np.abs(prods - target)) > tol * self.dim:
            raise AuditError("T matrices do not satisfy the cocycle relation")

    def _validate_cocycle(self, tol: float) -> None:
        """Assert T[e] = I, bounded moduli |c| and the cocycle identity (O(k^3))."""
        if not np.array_equal(self.T[0], np.eye(self.dim)):
            raise AuditError("T[identity] is not the identity matrix")
        moduli = np.abs(self.c)
        if moduli.min() <= tol or moduli.max() >= 1.0 / tol:
            raise AuditError("cocycle has vanishing or diverging values")
        if not cocycle_identity_holds(self.group.as_group.mul, self.c, COCYCLE_TOL):
            raise AuditError("cocycle identity fails")


def cocycle_identity_holds(mul: np.ndarray, c: np.ndarray, tol: float = COCYCLE_TOL) -> bool:
    """c(a,b) c(ab,d) = c(a,bd) c(b,d) for all a, b, d, within tol."""
    lhs = c[:, :, None] * c[mul, :]          # c[a, b] * c[ab, d]
    rhs = c[:, mul] * c[None, :, :]          # c[a, bd] * c[b, d]
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


def action_matrix(perm: np.ndarray) -> np.ndarray:
    """Permutation matrix of a basis permutation (delta_y -> delta_perm[y])."""
    n = len(perm)
    out = np.zeros((n, n))
    out[perm, np.arange(n)] = 1.0
    return out


def _gauged(T: np.ndarray, tol: float) -> np.ndarray:
    """T rescaled to Frobenius norm sqrt(n), then its first entry of magnitude
    > tol in row-major order made positive real."""
    T = T * (np.sqrt(T.shape[0]) / np.linalg.norm(T))
    flat = T.ravel()
    idx = np.nonzero(np.abs(flat) > tol)[0]
    if idx.size == 0:
        raise CotwistError("intertwiner is numerically zero")
    phase = flat[idx[0]] / abs(flat[idx[0]])
    return T * np.conj(phase)


def skolem_noether(pi: np.ndarray, alpha: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The matrix conjugating pi to pi∘alpha, in a reproducible gauge.

    Solves T pi(x) = pi(alpha(x)) T over all basis elements x as a stacked
    linear system; the solution space must be exactly one-dimensional (Schur)
    or CotwistError is raised.  Gauge: Frobenius norm sqrt(n) and the first
    entry of magnitude > tol in row-major order made positive real.  For
    alpha = identity the identity matrix is returned directly.
    """
    dim, n, _ = pi.shape
    alpha = np.asarray(alpha, dtype=complex)
    if np.array_equal(alpha, np.eye(dim)):
        return np.eye(n, dtype=complex)
    pia = np.einsum("ky,kab->yab", alpha, pi)
    eye = np.eye(n)
    # row-major vec: vec(A T) = (A x I) vec T, vec(T B) = (I x B^T) vec T
    blocks = np.einsum("xab,cd->xacbd", pia, eye) - np.einsum("ab,xdc->xacbd", eye, pi)
    system = blocks.reshape(dim * n * n, n * n)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    small = int(np.count_nonzero(svals < tol * scale * n))
    if small != 1:
        raise CotwistError(
            f"intertwiner space has dimension {small}, expected 1 "
            "(representation not irreducible or map not an automorphism)"
        )
    T = _gauged(vh[-1].conj().reshape(n, n), tol)
    residual = np.max(np.abs(np.einsum("ab,xbc->xac", T, pi) - np.einsum("xab,bc->xac", pia, T)))
    if residual > tol * n * 10:
        raise CotwistError(f"intertwiner residual {residual:g} too large")
    return T


def projective_rep_from_action(A: SCAlgebra, act: GroupAction, pi: np.ndarray,
                               subgroup: Subgroup | None = None,
                               tol: float = 1e-8) -> ProjectiveRep:
    """Projective representation induced by a free automorphism action.

    Skolem-Noether is solved only for the generators s of
    ``act.group.generating_words``.  T[identity] is the identity, and in
    breadth-first order every other T[a] = T[parent[a]] T[s] along its word,
    brought back to the gauge of :func:`skolem_noether`.  This is sound
    because ``GroupAction.verify`` checks perms[a s] = perms[a] o perms[s]:
    if T[a] and T[s] intertwine alpha_a and alpha_s, then

        T[a] T[s] pi(x) = T[a] pi(alpha_s(x)) T[s] = pi(alpha_a(alpha_s(x))) T[a] T[s],

    so T[a] T[s] intertwines alpha_a o alpha_s = alpha_{as}.  Schur's check
    that the intertwiner space is one-dimensional is a property of pi: the
    space for alpha_a is T[a] times the commutant of pi, so the generator
    solves certify it for every a, and each T[a] equals the direct solve up
    to rounding.  The intertwining residual |T[a] pi(x) - pi(alpha_a(x)) T[a]|
    is still checked for every a and x, in one batched product against the
    direct solve's bound 10 * tol * n, with pi(alpha_a(x)) gathered as
    pi[perms[a][x]].

    The 2-cocycle is read off from all T[a] T[b] against T[ab] at once, by a
    least-squares scalar fit.  Its residual is the product law of the rep and
    is checked once, against the tighter of the intertwiner bound 10 * tol
    and COMPOSITE_TOL, times n; then the gauge, the moduli and the cocycle
    identity are checked.  The raw scalars are kept as-is: when
    pi is not unitary the moduli |c| need not equal 1, but they differ from a
    unimodular cocycle only by an R+-valued coboundary, which never changes
    the isomorphism class of the twisted algebra C_c[K].
    """
    k = act.group.order
    n = pi.shape[1]
    gens, order, parent, via = act.group.generating_words
    gen_T = [skolem_noether(pi, action_matrix(act.perms[s]), tol) for s in gens]
    T = np.empty((k, n, n), dtype=complex)
    T[0] = np.eye(n)
    for a in order[1:]:
        T[a] = _gauged(T[parent[a]] @ gen_T[via[a]], tol)
    residual = np.max(np.abs(T[:, None] @ pi - pi[act.perms] @ T[:, None]))
    if residual > 10 * tol * n:
        raise CotwistError(f"intertwiner residual {residual:g} too large")
    prods = np.einsum("aij,bjk->abik", T, T)
    tgt = T[act.group.mul]  # [a, b] -> T[ab]
    c = (np.einsum("abij,abij->ab", tgt.conj(), prods)
         / np.einsum("abij,abij->ab", tgt.conj(), tgt))
    if np.max(np.abs(prods - c[:, :, None, None] * tgt)) > min(10 * tol, COMPOSITE_TOL) * n:
        raise CotwistError("T[a] T[b] is not a scalar multiple of T[ab]")
    if subgroup is None:
        subgroup = Subgroup(act.group, np.arange(k))
    rep = ProjectiveRep(group=subgroup, dim=n, T=T, c=c)
    rep._validate_cocycle(COMPOSITE_TOL)
    return rep


def pullback_and_tensor_cocycle(V1: ProjectiveRep, V2: ProjectiveRep, g: int,
                                Kg: Subgroup):
    """Pull V1 back along a -> g^-1 a g, tensor with V2, restrict to Kg.

    Returns (c_W, W) with T_W[a] = T_{V2}[a] (x) T_{V1}[a'] and
    c_W(a, b) = c_2(a, b) c_1(a', b'), where a' = g^-1 a g, for a, b in Kg
    (indices local to Kg).  Raises AuditError if some a' leaves H.

    V1 and V2 must pass the checks of :meth:`ProjectiveRep.validate`, as every
    rep from :func:`projective_rep_from_action` has.  W then inherits its product
    law: a -> a' is a homomorphism K_g -> H, so (ab)' = a'b', and by the
    mixed-product rule (A (x) B)(C (x) D) = AC (x) BD,

        T_W[a] T_W[b] = T_2[a] T_2[b] (x) T_1[a'] T_1[b']
                      = c_2(a, b) c_1(a', b') T_2[ab] (x) T_1[(ab)']
                      = c_W(a, b) T_W[ab].

    So W is checked only for T_W[e] = I, its moduli and the cocycle identity
    (O(k^3)); the O(k^2 n^3) product, with n = |H|, is not formed again.
    """
    a_loc, conj_loc = stabilizer_local_indices(V1.group, Kg, g)
    k = Kg.order
    n = V1.dim * V2.dim
    T2, T1 = V2.T[a_loc], V1.T[conj_loc]
    T = (T2[:, :, None, :, None] * T1[:, None, :, None, :]).reshape(k, n, n)  # np.kron per a
    c = V2.c[np.ix_(a_loc, a_loc)] * V1.c[np.ix_(conj_loc, conj_loc)]
    W = ProjectiveRep(group=Kg, dim=n, T=T, c=c)
    W._validate_cocycle(COMPOSITE_TOL)
    return c, W


def twisted_group_algebra(K: Subgroup, c: np.ndarray, tol: float = 1e-8) -> SCAlgebra:
    """The algebra with basis {u_a : a in K} and u_a u_b = c(a,b) u_{ab}.

    The only float-valued SCAlgebra in the pipeline.  Requires c normalized
    (c(e, .) = c(., e) = 1) and the cocycle identity within tol; these two
    checks are exactly the unit laws for u_e and associativity of C_c[K], so
    the algebra is not audited again.
    """
    k = K.order
    mul_table = K.as_group.mul
    c = np.asarray(c, dtype=complex)
    if c.shape != (k, k):
        raise CotwistError(f"cocycle table shape {c.shape} != ({k}, {k})")
    if np.max(np.abs(c[0, :] - 1.0)) > tol or np.max(np.abs(c[:, 0] - 1.0)) > tol:
        raise CotwistError("cocycle is not counital (c(e, a) = c(a, e) = 1 fails)")
    if not cocycle_identity_holds(mul_table, c, max(tol, COCYCLE_TOL)):
        raise CotwistError("cocycle identity fails; refusing to build twisted algebra")
    mul = np.zeros((k, k, k), dtype=complex)
    aa, bb = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mul[aa, bb, mul_table] = c
    unit = np.zeros(k, dtype=complex)
    unit[0] = 1.0
    return SCAlgebra(mul, unit, name="twisted group algebra")


# ---------------------------------------------------------------------------
# trace and multiplicity laws


def trace_vanishing_check(W: ProjectiveRep, H: Subgroup, tol: float = COMPOSITE_TOL) -> bool:
    """traces of T_W vanish off the identity; at the identity = |H| exactly."""
    traces = np.einsum("aii->a", W.T)
    h = H.order
    if traces[0] != h:
        return False
    return bool(np.max(np.abs(traces[1:])) < tol) if len(traces) > 1 else True


def regular_trace_law_holds(V: ProjectiveRep, tol: float = COMPOSITE_TOL) -> bool:
    """|trace T[h]|^2 = |H| [h = e]: the projective regular-character law."""
    traces = np.einsum("aii->a", V.T)
    h = V.size
    if abs(abs(traces[0]) ** 2 - h) > tol:
        return False
    if len(traces) > 1 and np.max(np.abs(traces[1:]) ** 2) > tol:
        return False
    return True


def multiplicity_law_check(W: ProjectiveRep, spectrum: WedderburnSpectrum,
                           h_size: int, tol: float = COMPOSITE_TOL):
    """Decompose W over the twisted group algebra of its own cocycle.

    For each block of dimension d the multiplicity of that irreducible in W
    must equal (|H|/|K_g|) * d; the commutant dimension (sum of squared
    multiplicities) must equal |H|^2 / |K_g|.  Returns (ok, multiplicities).
    The multiplicity is trace(E) / d for E = sum_a e_a T_W[a], and
    trace(E) = sum_a e_a trace(T_W[a]), so one product of the stacked
    idempotents with the traces gives them all.
    """
    k = W.size
    if h_size % k != 0:
        raise CotwistError(f"|K_g| = {k} does not divide |H| = {h_size}")
    if spectrum.idempotents is None:
        raise CotwistError("multiplicity law needs a spectrum with float idempotents")
    dims = np.asarray(spectrum.dims)
    traces = spectrum.idempotents @ np.einsum("aii->a", W.T)
    mults = traces.real / dims
    ok = bool(np.all(np.abs(traces.imag) <= tol)
              and np.all(np.abs(mults - (h_size // k) * dims) <= tol)
              and abs(np.sum(mults ** 2) - h_size * h_size / k) <= tol * max(1, h_size))
    return ok, list(mults)
