"""Wedderburn analysis of semisimple structure-constant algebras over C.

The decomposition pipeline is hybrid by design: the center is exact when the
structure constants are exact (so the number of simple blocks is certain),
and only the distribution of block dimensions uses floating point
(eigenvalue clustering of a random central element), backed by
integer-rounding assertions.

The exact center is certified before it is eliminated.  Counts canonically
equal to their transpose make an algebra commutative, nothing else to check.
Otherwise the unit, verified when the algebra was built, is central, so
when the image mod a prime of two seeded commutator slices, formed by exact
float64 products, has rank n - 1 the center is exactly span(unit): a simple
block, the common case, takes no exact elimination and forms no commutator
tensor.  Any other rank leaves the answer to the exact nullspace of the
commutator system, found in one narrowing pass, whose basis B is checked as
B . mul == mul . B.  An algebra in slice form (``SCAlgebra.from_slice``)
takes the symmetry test and the commutator slices on its n x n slice, so a
simple block is decided without gathering its n^3 constants.

An exact center of dimension 1 or n also decides the split exactly: one block
of sqrt(n), or n blocks of 1 when a modular rank certifies the trace form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual_algebras import SCAlgebra, _identity_matrix
from .errors import CotwistError, SeedRetryError
from .exactlin import (CycArray, _largest, _modular_rank, canonical_counts, cyc_nullspace,
                       cyc_solve, cyc_tensordot, ga_identity)

#: exhaustive associativity above this dimension would be needlessly slow;
#: larger algebras are audited on a fixed-seed sample of triples.
EXHAUSTIVE_AUDIT_DIM = 32
_AUDIT_SAMPLES = 200
_CLUSTER_GUARD = 10.0  # clusters separated by less than this multiple of the
                       # merge threshold are treated as ambiguous
#: the seeded commutator rows of the center certificate draw y_j from [1, this)
_CENTER_DRAW_BOUND = 1 << 16


@dataclass
class WedderburnSpectrum:
    """Block dimensions of a semisimple algebra plus numeric quality data."""

    dims: list[int]
    idempotent_residual: float
    idempotents: np.ndarray = field(repr=False, default=None)  # None from the exact splits


def derived_seed(seed: int, attempt: int) -> int:
    """Deterministic per-attempt reseeding for retryable random routines."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]).generate_state(1)[0])


def with_seed_retries(fn, seed: int, attempts: int = 10):
    """Call fn(seed_k) with deterministically derived seeds until it succeeds."""
    last = None
    for attempt in range(attempts):
        try:
            return fn(seed if attempt == 0 else derived_seed(seed, attempt))
        except SeedRetryError as exc:
            last = exc
    raise CotwistError(f"still failing after {attempts} seeds: {last}")


# ---------------------------------------------------------------------------
# audits


def algebra_audit(A: SCAlgebra, tol: float = 1e-8) -> bool:
    """Associativity and unit laws; exact when the algebra is exact.

    Exhaustive up to EXHAUSTIVE_AUDIT_DIM basis elements, sampled (fixed
    internal seed, 200 triples) beyond that.  Returns False rather than
    raising.  An exact algebra's unit was verified when it was built, so
    only its associativity is checked here.
    """
    n = A.dim
    if A.is_exact:
        mul: CycArray = A.mul
        if n <= EXHAUSTIVE_AUDIT_DIM:
            lhs = cyc_tensordot(mul, mul, axes=([2], [0]))            # [i,j,k,l]
            rhs = cyc_tensordot(mul, mul, axes=([2], [1]))            # [j,k,i,l]
            return lhs.eq(rhs.transpose((2, 0, 1, 3)))
        rng = np.random.default_rng(0)
        for _ in range(_AUDIT_SAMPLES):
            i, j, k = (int(v) for v in rng.integers(0, n, 3))
            ij = CycArray(mul.order, mul.scale, mul.counts[i, j])
            jk = CycArray(mul.order, mul.scale, mul.counts[j, k])
            lhs = cyc_tensordot(ij, mul, axes=([0], [0])).take([k], axis=0)
            rhs = cyc_tensordot(jk, mul, axes=([0], [1])).take([i], axis=0)
            if not lhs.eq(rhs):
                return False
        return True

    mul = np.asarray(A.mul)
    unit = A.unit_complex()
    ident = np.eye(n)
    if not np.allclose(np.einsum("i,ijk->jk", unit, mul).T, ident.T, atol=tol * n):
        return False
    if not np.allclose(np.einsum("i,jik->jk", unit, mul), ident, atol=tol * n):
        return False
    if n <= EXHAUSTIVE_AUDIT_DIM:
        lhs = np.einsum("ijx,xkl->ijkl", mul, mul)
        rhs = np.einsum("jkx,ixl->ijkl", mul, mul)
        return bool(np.allclose(lhs, rhs, atol=tol * n))
    rng = np.random.default_rng(0)
    for _ in range(_AUDIT_SAMPLES):
        i, j, k = (int(v) for v in rng.integers(0, n, 3))
        lhs = np.einsum("x,xl->l", mul[i, j], mul[:, k, :])
        rhs = np.einsum("x,xl->l", mul[j, k], mul[i, :, :])
        if not np.allclose(lhs, rhs, atol=tol * n):
            return False
    return True


# ---------------------------------------------------------------------------
# center


def _exact_center_basis(A: SCAlgebra) -> CycArray:
    """Reduced basis of the center as CycArray rows ``(r, n)``, certified or narrowed.

    First exact commutativity: counts canonically (:func:`canonical_counts`)
    equal to their (1, 0) transpose - on row 0 first, then literally or on
    the difference - make mul[i, j, k] = mul[j, i, k]: the identity basis.

    Then the certificate for a one-dimensional center.  For two seeded
    integer vectors y (fixed internal seed, as in :func:`algebra_audit`) the
    rows R[(y, k), i] = sum_j y_j (mul[i,j,k] - mul[j,i,k]) are the matrices
    of x -> x y - y x, so every central x solves R x = 0.  The unit, which
    ``SCAlgebra`` verified when it was built, is central, so

        rank_l(R) <= rank(R) <= rank(commutator system) <= n - 1,

    where rank_l is the rank of the image mod l (:func:`_modular_rank`; a
    minor nonzero mod l is nonzero).  A modular rank of n - 1 thus proves
    that the center is exactly span(unit), and the unit is returned in the
    reduced form of the narrowing pass: divided by its last nonzero entry
    (a 1 x 1 exact solve; the all-ones unit of every package algebra comes
    back unchanged).  R is formed by exact float64 products
    (:func:`_commutator_rows`), from the slice S of an algebra in slice form
    (``SCAlgebra``) and from ``mul`` otherwise; past their 2^53 bound there
    is no certificate.  The commutativity test reads the slice too: the
    constants S[P[k, i], P[k, j]] are symmetric in (i, j) exactly when S is,
    every row of P being a permutation.  So a slice-form algebra is
    gathered only for the narrowing pass.

    Otherwise - a center of dimension > 1, an unlucky draw or prime - the
    commutator tensor D[i, j, k] = mul[i,j,k] - mul[j,i,k] is formed and
    one narrowing pass starts from the identity basis of the whole space
    and cuts it down one basis element e_j at a time: the commutator slice
    [., e_j] contracted with the current basis B gives an (n x dim B)
    system, whose reduced nullspace N replaces B by N B.  Each B keeps the
    reduced form of :func:`cyc_nullspace` (row i is 1 at its last nonzero
    column, which is 0 in every other row), which is unique for the
    subspace: N has that form and B is the identity on those columns.  So
    the result equals the reduced nullspace of the full commutator system.
    A basis element that commutes with everything (its column D[:, j] is
    exactly zero) gives a zero system, whose nullspace is the identity, so
    it is skipped without a solve.  The narrowed basis B is checked once,
    exactly, as B . mul == mul . B by two contractions; a failure raises
    CotwistError.
    """
    product, perms = A.product, A.perms
    basis = _identity_matrix(A.dim, product.order)
    if _canonically_symmetric(product):
        return basis
    unit = _unit_if_center(product, A.unit, perms)
    if unit is not None:
        return unit
    mul = A.mul
    diff = _commutator_tensor(mul)
    noncentral = np.flatnonzero(~diff.zero_mask().all(axis=(0, 2)))
    for j in noncentral:
        system = cyc_tensordot(diff.take(j, axis=1), basis, axes=([0], [1]))  # [k, row]
        # reduced() keeps the counts from compounding the scales of the products
        basis = cyc_tensordot(cyc_nullspace(system), basis, axes=([1], [0])).reduced()
    if not cyc_tensordot(basis, mul, axes=([1], [0])).eq(
            cyc_tensordot(basis, mul, axes=([1], [1]))):
        raise CotwistError("center verification failed against the full product")
    return basis


def _commutator_tensor(mul: CycArray) -> CycArray:
    """D[i, j, k] = mul[i,j,k] - mul[j,i,k], the exact commutator [e_i, e_j]."""
    return CycArray(mul.order, mul.scale, mul.counts - mul.counts.transpose(1, 0, 2, 3))


def _canonically_symmetric(mul: CycArray) -> bool:
    """Whether mul[i, j, ...] = mul[j, i, ...] exactly: canonical counts
    compared on row 0 first, then literally or on the difference."""
    c, ct, order = mul.counts, mul.counts.swapaxes(0, 1), mul.order
    return np.array_equal(canonical_counts(c[0], order), canonical_counts(ct[0], order)) and (
        np.array_equal(c, ct) or not canonical_counts(c - ct, order).any())


def _commutator_rows(mul: CycArray, draws: np.ndarray,
                     perms: np.ndarray | None = None) -> CycArray | None:
    """R[d, i, k] = sum_j y_dj (mul[i,j,k] - mul[j,i,k]) for integer rows
    ``draws`` in [1, _CENTER_DRAW_BOUND), exactly, or None past the bound.

    Both sums are float64 products on the counts, one batched
    ``y @ counts[i]`` per i and one ``y @ counts`` over the first axis, so
    no n^3 commutator tensor is formed and BLAS does the work (numpy has
    none for int64).  Every partial sum of either product, in whatever order
    BLAS adds, is an integer of magnitude at most
    n * max|count| * _CENTER_DRAW_BOUND, and the difference at most twice
    that; while 2 n max|count| _CENTER_DRAW_BOUND < 2^53, which is checked,
    every one is a float64 integer, so the result is exact.

    With ``perms`` the algebra is in slice form (``SCAlgebra``) and ``mul``
    is its slice S, the constants being S[P[k, i], P[k, j]].  With the draws
    permuted by each row, Y[d, k, c] = y_d[P[k]^-1(c)],

        sum_j y_dj mul[i, j, k] = sum_c S[P[k, i], c] Y[d, k, c],
        sum_j y_dj mul[j, i, k] = sum_c S[c, P[k, i]] Y[d, k, c],

    so the rows are two float64 products of S and S^T with Y, read at
    r = P[k, i]: the same integers, under the same bound (S holds exactly
    the counts of the gathered constants).
    """
    n, order = mul.shape[0], mul.order
    if 2 * n * _largest(mul.counts) * _CENTER_DRAW_BOUND >= 1 << 53:
        return None
    y = draws.astype(np.float64)
    counts = mul.counts.astype(np.float64)
    if perms is None:
        right = (y @ counts.reshape(n, n, -1)).transpose(1, 0, 2)  # [d, i, (k, e)]: y_j mul[i,j]
        left = (y @ counts.reshape(n, -1)).reshape(right.shape)     # [d, i, (k, e)]: y_j mul[j,i]
        rows = right - left
    else:
        permuted = y[:, np.argsort(perms, axis=1)].reshape(-1, n).T  # [c, (d, k)]
        diff = (counts.transpose(0, 2, 1) @ permuted                 # [r, e, (d, k)]
                - counts.transpose(1, 2, 0) @ permuted).reshape(n, order, len(draws), n)
        rows = diff.transpose(2, 0, 3, 1)[:, perms.T, np.arange(n)]  # [d, i, k, e] at r = P[k, i]
    return CycArray(order, mul.scale, rows.astype(np.int64).reshape(len(draws), n, n, order))


def _unit_if_center(mul: CycArray, unit: CycArray,
                    perms: np.ndarray | None = None) -> CycArray | None:
    """The unit over its last nonzero entry, as a ``(1, n)`` basis, if the
    modular rank of the seeded commutator rows certifies a 1-dim center; else None.
    ``perms`` marks a slice form, as in :func:`_commutator_rows`."""
    n = mul.shape[0]
    draws = np.random.default_rng(0).integers(1, _CENTER_DRAW_BOUND, size=(2, n))
    rows = _commutator_rows(mul, draws, perms)
    if rows is None or _modular_rank(rows.transpose((0, 2, 1)).reshape(2 * n, n)) != n - 1:
        return None
    last = int(np.flatnonzero(~unit.zero_mask())[-1])
    over = cyc_solve(unit.take([[last]]), ga_identity(1, unit.order))
    return cyc_tensordot(over, unit, axes=0).reduced()


def _float_center_basis(mul: np.ndarray, tol: float) -> np.ndarray:
    """SVD nullspace of the commutator system for float algebras.

    Only the right singular vectors are used, so the thin SVD suffices: the
    full left factor of the (n^2, n) system would be an (n^2, n^2) matrix.
    """
    n = mul.shape[0]
    system = (mul - mul.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(n * n, n)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    # threshold against the size of the structure constants, not of the
    # commutator system itself -- the latter vanishes for commutative algebras
    scale = max(1.0, float(np.max(np.abs(mul))))
    small = s < tol * scale * n
    r = int(np.count_nonzero(small))
    if r == 0:
        raise CotwistError("algebra has trivial center dimension 0 (no unit?)")
    gap_hi = s[-r - 1] if s.size > r else np.inf
    gap_lo = s[-r] if r else 0.0
    if gap_hi < _CLUSTER_GUARD * max(gap_lo, tol * scale):
        raise CotwistError("center dimension is numerically ambiguous")
    return vh[-r:, :].conj()


def center_basis(A: SCAlgebra, tol: float = 1e-8) -> np.ndarray:
    """Complex matrix (r, dim) whose rows span the center.

    For exact algebras the center is exact (the row count r is then certain):
    the identity basis when the counts are canonically symmetric, span(A.unit)
    when a modular rank certifies that the center is one-dimensional, as it
    is for every simple block, and the exact narrowing pass otherwise
    (:func:`_exact_center_basis`), checked against the full product.  The
    last two give the same reduced basis.  Float algebras take a numerically
    guarded SVD.
    """
    if A.is_exact:
        return _exact_center_basis(A).embed()
    return _float_center_basis(np.asarray(A.mul), tol)


# ---------------------------------------------------------------------------
# eigenvalue clustering


def _cluster_values(vals: np.ndarray, delta: float):
    """Connected components of the 'closer than delta' graph, with a gap guard.

    Raises SeedRetryError when two distinct clusters come closer than
    _CLUSTER_GUARD * delta (ambiguous separation).
    """
    m = len(vals)
    dist = np.abs(vals[:, None] - vals[None, :])
    adj = dist < delta
    labels = np.full(m, -1, dtype=int)
    current = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            for k in np.nonzero(adj[j])[0]:
                if labels[k] < 0:
                    labels[k] = current
                    stack.append(k)
        current += 1
    if current > 1:
        inter = dist[labels[:, None] != labels[None, :]]
        if inter.size and inter.min() < _CLUSTER_GUARD * delta:
            raise SeedRetryError("eigenvalue clusters are too close to separate")
    return labels, current


# ---------------------------------------------------------------------------
# Wedderburn dimensions


def _symmetrized_real_basis(center: np.ndarray) -> np.ndarray:
    """Orthonormal real basis of the center viewed as a real vector space.

    Stacks real and imaginary parts of the complex basis (and of i times it),
    so that a random real combination reaches a generic center element; the
    center of a semisimple algebra is spanned by idempotents, so real
    combinations in this sense separate blocks generically.
    """
    r, n = center.shape
    real_vecs = np.vstack(
        [
            np.hstack([center.real, center.imag]),
            np.hstack([-center.imag, center.real]),  # i * basis
        ]
    )
    u, s, vh = np.linalg.svd(real_vecs, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-12 * (s[0] if s.size else 1.0)))
    return vh[:rank]


def wedderburn_dims(A: SCAlgebra, seed: int, tol: float = 1e-8) -> WedderburnSpectrum:
    """Block dimensions of a semisimple algebra.

    Center (exact for exact input), then a seed-driven random real
    combination z of the symmetrized center basis, eigen-clustering of the
    left-multiplication operator L_z into spectral projectors (the central
    idempotents), and d_i = round(sqrt(trace L_{e_i})).  Asserts
    |d_i - sqrt(trace)| < 0.01 and sum d_i^2 = dim.  Raises SeedRetryError
    when eigenvalues fail to separate cleanly for this seed.

    The idempotents are e_i = V[:, S_i] (V^-1 unit)[S_i] for eigenvector
    matrix V and cluster S_i.  Their residual, the largest of
    |e_a e_b - delta_ab e_a| over a <= b and |sum e_a - unit|, comes from one
    batch of all products: L[a] = sum_i e_a[i] mul[i] (one tensordot), then
    (e_a e_b)_k = sum_j e_b[j] L[a, j, k].  That is O(r n^3 + r^2 n^2) with
    r n^2 scratch, never more than mul itself; the same L gives the traces
    trace L_{e_a} = sum_j L[a, j, j].

    An exact algebra is decided exactly instead when its center is span(u)
    (:func:`_one_block_spectrum`: L_z is then a multiple of the identity, so the
    float route could find only one cluster, whose idempotent is u) or all of it
    with a certified trace form (:func:`_split_commutative`).
    """
    n = A.dim
    center = center_basis(A, tol)
    r = center.shape[0]
    if A.is_exact and r == 1:
        return _one_block_spectrum(A)
    if A.is_exact and r == n and (spectrum := _split_commutative(A)):
        return spectrum
    mul = A.mul_complex()
    unit = A.unit_complex()

    rng = np.random.default_rng(seed)
    sym = _symmetrized_real_basis(center)
    coeffs = rng.standard_normal(sym.shape[0])
    zr = coeffs @ sym
    z = zr[:n] + 1j * zr[n:]

    Lz = np.einsum("i,ijk->kj", z, mul)
    vals, vecs = np.linalg.eig(Lz)
    scale = max(1.0, float(np.max(np.abs(vals))))
    labels, count = _cluster_values(vals, tol * scale)
    if count != r:
        raise SeedRetryError(
            f"random central element produced {count} eigenvalue clusters, center has dimension {r}"
        )

    try:
        vinv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise SeedRetryError(f"eigenvector matrix not invertible: {exc}") from exc
    w = vinv @ unit
    idems = np.stack([vecs[:, labels == i] @ w[labels == i] for i in range(r)])

    left = np.tensordot(idems, mul, axes=([1], [0]))    # [a, j, k] = (e_a basis_j)_k
    prods = idems @ left                                 # [a, b, k] = (e_a e_b)_k
    prods[np.arange(r), np.arange(r)] -= idems
    upper = np.triu_indices(r)
    residual = max(float(np.max(np.abs(prods[upper]))),
                   float(np.max(np.abs(idems.sum(axis=0) - unit))))
    if not np.isfinite(residual) or residual > max(tol, 1e-10) * n:
        raise SeedRetryError(f"central idempotent residual too large: {residual:g}")

    dims = []
    for tr in np.einsum("ajj->a", left):
        if abs(tr.imag) > 1e-6 or tr.real < 0:
            raise CotwistError(f"block trace {tr} is not a nonnegative real")
        d_float = float(np.sqrt(tr.real))
        d = int(round(d_float))
        if abs(d - d_float) >= 0.01 or d < 1:
            raise CotwistError(
                f"block dimension {d_float} is not close to an integer (non-semisimple input?)"
            )
        dims.append(d)
    if sum(d * d for d in dims) != n:
        raise CotwistError(f"sum of squared block dimensions {dims} != dim {n}")
    order = np.argsort(dims, kind="stable")
    return WedderburnSpectrum(
        dims=sorted(dims), idempotent_residual=residual, idempotents=idems[order]
    )


def _one_block_spectrum(A: SCAlgebra) -> WedderburnSpectrum:
    """Exact spectrum of an exact algebra with center span(unit): one block.

    This is the float route's answer read exactly.  With one cluster its
    idempotent is the unit u, its residual |u u - u| = 0, and its dimension
    d = sqrt(trace L_u) = sqrt(n), since L_u is the identity: both hold
    because ``SCAlgebra`` verified u as the unit when it was built.  So n
    must be a perfect square (the float route's "not close to an integer"
    otherwise), and no embedding of ``mul`` or eigenproblem is needed.
    """
    d = math.isqrt(A.dim)
    if d * d != A.dim:
        raise CotwistError(
            f"block dimension {math.sqrt(A.dim)} is not close to an integer (non-semisimple input?)")
    return WedderburnSpectrum(dims=[d], idempotent_residual=0.0)


def _split_commutative(A: SCAlgebra) -> WedderburnSpectrum | None:
    """Spectrum [1] * n of a commutative exact algebra, if its trace form is certified.

    In characteristic 0 the kernel of T[i, j] = trace L_{e_i e_j} = sum_k
    mul[i, j, k] tau_k, tau_k = trace L_{e_k} = sum_j mul[k, j, j], is the
    Jacobson radical, so a modular rank n of T (:func:`_modular_rank`) makes the
    algebra semisimple, hence C^n.  A shorter rank or an overflow gives None.
    """
    mul, n = A.mul, A.dim
    diagonal = CycArray(mul.order, mul.scale, mul.counts[:, np.arange(n), np.arange(n)])
    try:
        tau = cyc_tensordot(diagonal, CycArray.from_exponents(mul.order, np.zeros(n, int)), axes=1)
        rank = _modular_rank(cyc_tensordot(mul, tau, axes=1))
    except CotwistError:
        return None
    return WedderburnSpectrum(dims=[1] * n, idempotent_residual=0.0) if rank == n else None


def wedderburn_dims_retrying(A: SCAlgebra, seed: int, tol: float = 1e-8) -> WedderburnSpectrum:
    return with_seed_retries(lambda s: wedderburn_dims(A, s, tol), seed)


# ---------------------------------------------------------------------------
# splitting a simple algebra


def split_simple(A: SCAlgebra, seed: int, tol: float = 1e-8) -> np.ndarray:
    """Irreducible representation of a simple algebra (dim = n*n, A = M_n).

    Picks a seed-driven random element a, eigen-decomposes the
    right-multiplication operator R_a, selects an eigenvalue cluster whose
    eigenspace has dimension exactly n (a left submodule, as left and right
    multiplications commute), and returns pi with pi[x] = the matrix of left
    multiplication by basis element x on that submodule.  Asserts the
    homomorphism residual, pi(unit) = identity, and that the flattened images
    span all n x n matrices.  Raises SeedRetryError on degenerate draws.
    """
    dim = A.dim
    n = int(round(np.sqrt(dim)))
    if n * n != dim:
        raise CotwistError(f"dimension {dim} is not a perfect square; algebra not simple")
    mul = A.mul_complex()
    unit = A.unit_complex()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    Ra = np.einsum("l,jlk->kj", a, mul)
    vals, vecs = np.linalg.eig(Ra)
    scale = max(1.0, float(np.max(np.abs(vals))))
    labels, count = _cluster_values(vals, tol * scale)
    sizes = np.bincount(labels, minlength=count)
    candidates = [i for i in range(count) if sizes[i] == n]
    if not candidates:
        raise SeedRetryError("no eigenvalue cluster of multiplicity n (degenerate element)")
    # deterministic choice: largest |eigenvalue| representative
    reps = [np.max(np.abs(vals[labels == i])) for i in candidates]
    chosen = candidates[int(np.argmax(reps))]

    raw = vecs[:, labels == chosen]
    B, Rq = np.linalg.qr(raw)
    if np.min(np.abs(np.diag(Rq))) < tol * max(1.0, float(np.max(np.abs(Rq)))):
        raise SeedRetryError("eigenspace basis is numerically degenerate")

    LB = mul.transpose(0, 2, 1) @ B  # [x, k, l]: left multiplication by x, applied to B
    pi = B.conj().T @ LB

    invariance = LB - B @ pi
    if np.max(np.abs(invariance)) > tol * dim:
        raise SeedRetryError("selected eigenspace is not invariant to tolerance")

    hom = pi[:, None] @ pi[None] - np.tensordot(mul, pi, axes=([2], [0]))  # [x, y, a, c]
    if np.max(np.abs(hom)) > tol * dim:
        raise SeedRetryError("homomorphism residual too large")
    pi_unit = np.einsum("i,iab->ab", unit, pi)
    if np.max(np.abs(pi_unit - np.eye(n))) > tol * dim:
        raise SeedRetryError("unit does not map to the identity")
    if np.linalg.matrix_rank(pi.reshape(dim, n * n), tol=1e-6) != dim:
        raise SeedRetryError("representation images do not span the full matrix algebra")
    return pi


def split_simple_retrying(A: SCAlgebra, seed: int, tol: float = 1e-8) -> np.ndarray:
    return with_seed_retries(lambda s: split_simple(A, s, tol), seed)
