"""Wedderburn analysis of semisimple structure-constant algebras over C.

Every algebra is exact (``SCAlgebra`` refuses float constants), and so is
every block split: it is decided by certificates, with no eigenproblem, no
tolerance and no seed.  :func:`wedderburn_dims` reduces the constants mod a
prime l = 1 (mod N) and reads the block dimensions from two trace forms on
the center, once the trace form of the whole algebra certifies that the
reduction is separable.

Two cases of that split are decided first, at their own cost, by the center
certificate (:func:`center_basis`).  Counts canonically equal to their
transpose make an algebra commutative: n blocks of 1 once a modular rank
certifies its trace form.  Otherwise the unit, verified when the algebra was
built, is central, so when the image mod l of two seeded commutator slices,
formed by exact float64 products, has rank n - 1 the center is span(unit):
one block of sqrt(n), the common case, with no elimination beyond that rank.
An algebra in slice form (``SCAlgebra.from_slice``) takes both certificates
on its n x n slice, so a simple block is decided without gathering its n^3
constants.

:func:`split_simple`, a seeded float construction of the irreducible
representation of a simple algebra, is library code that no report runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_algebras import SCAlgebra, _identity_matrix
from .errors import CotwistError, SeedRetryError
from .exactlin import (CycArray, _echelon_mod, _largest, _modular_image, _modular_rank,
                       _modular_root, canonical_counts, cyc_tensordot)

#: exhaustive associativity above this dimension would be needlessly slow;
#: larger algebras are audited on a fixed-seed sample of triples.
EXHAUSTIVE_AUDIT_DIM = 32
_AUDIT_SAMPLES = 200
_CLUSTER_GUARD = 10.0  # clusters separated by less than this multiple of the
                       # merge threshold are treated as ambiguous
#: the seeded commutator rows of the center certificate draw y_j from [1, this)
_CENTER_DRAW_BOUND = 1 << 16
#: primes l = 1 (mod N) the trace-form split tries before it refuses an algebra
SPLIT_PRIMES = 3


@dataclass
class WedderburnSpectrum:
    """Block dimensions of a semisimple algebra, ascending."""

    dims: list[int]


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


def algebra_audit(A: SCAlgebra) -> bool:
    """Associativity, exactly.

    Exhaustive up to EXHAUSTIVE_AUDIT_DIM basis elements, sampled (fixed
    internal seed, 200 triples) beyond that.  Returns False rather than
    raising.  The unit was verified when the algebra was built.
    """
    n, mul = A.dim, A.mul
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


# ---------------------------------------------------------------------------
# center


def center_basis(A: SCAlgebra) -> CycArray | None:
    """Exact basis ``(r, n)`` of the center where a certificate decides it, else None.

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
    that the center is exactly span(unit), returned as a ``(1, n)`` basis.
    R is formed by exact float64 products (:func:`_commutator_rows`), from
    the slice S of an algebra in slice form (``SCAlgebra``) and from ``mul``
    otherwise; past their 2^53 bound there is no certificate.  The
    commutativity test reads the slice too: the constants S[P[k, i], P[k, j]]
    are symmetric in (i, j) exactly when S is, every row of P being a
    permutation.  So neither certificate gathers a slice-form algebra.

    None - a center of dimension > 1, an unlucky draw or prime - leaves the
    center to :func:`wedderburn_dims`, which finds it mod l.
    """
    product, n = A.product, A.dim
    if _canonically_symmetric(product):
        return _identity_matrix(n, product.order)
    draws = np.random.default_rng(0).integers(1, _CENTER_DRAW_BOUND, size=(2, n))
    rows = _commutator_rows(product, draws, A.perms)
    if rows is not None and _modular_rank(rows.transpose((0, 2, 1)).reshape(2 * n, n)) == n - 1:
        return A.unit.reshape(1, n)
    return None


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


# ---------------------------------------------------------------------------
# Wedderburn dimensions


def wedderburn_dims(A: SCAlgebra) -> WedderburnSpectrum:
    """Block dimensions of a semisimple exact algebra, from trace forms mod l.

    The counts of the constants are reduced under zeta -> omega mod a prime
    l = 1 (mod N) (:func:`_modular_root`) to an algebra A_l over F_l, and
    :func:`_split_mod` decides there.  The scale s is dropped: the counts
    alone are the constants of an algebra isomorphic to A by x -> x / s,
    since (x / s)(y / s) = (x y) / s^2.  So A stands for that algebra below:

    - Certificate 1: the trace form T[i, j] = tr L_{e_i e_j} has full rank
      mod l.  Its determinant is then nonzero in Q(zeta_N), so A is
      semisimple over C (in characteristic 0 the radical lies in the kernel
      of T), and A_l is separable.  A separable reduction keeps the geometric
      block dims: the basis spans an order over the local ring at l whose
      discriminant det T is a unit, so the order is separable, and its
      simple components have the same dims over the algebraic closures of
      the fraction field and of the residue field.  The block dims of A_l
      over the closure of F_l are thus those of A over C.
    - The split: the center C of A_l, of dimension r, is the nullspace mod
      l of the commutator system.  On C take B(z, w) = tr_A L_{zw} and
      B_0(z, w) = tr_C L_{zw}.  In the basis of central idempotents, one per
      block of dimension d_i, B = diag(d_i^2) and B_0 = I, so M = B_0^-1 B
      is diagonalizable with eigenvalues d_i^2 mod l.  Every d^2 is at most
      n < l, so distinct dims keep distinct eigenvalues, and dimension d
      has multiplicity r - rank(M - d^2 I).
    - Certificate 2: B_0 is invertible, the multiplicities sum to r, and
      sum mult d^2 = n.  Certificate 1 implies all three, so a failure means
      the constants are not those of an associative algebra, and raises
      CotwistError naming the algebra.

    A prime that fails certificate 1 gives way to the next prime = 1 (mod N)
    below it; after SPLIT_PRIMES primes CotwistError names the algebra.
    There is no float fallback.

    The center certificate (:func:`center_basis`) decides two cases of this
    split first, without reducing ``mul``: a center span(unit) is r = 1 with
    M = [n], one block of sqrt(n) (:func:`_one_block_spectrum`), and counts
    canonically symmetric with a trace form of full modular rank are r = n
    with M = I, n blocks of 1 (:func:`_split_commutative`).
    """
    center = center_basis(A)
    if center is not None and center.shape[0] == 1:
        return _one_block_spectrum(A)
    if center is not None and (spectrum := _split_commutative(A)):
        return spectrum
    mul, ell = A.mul, 1 << 31
    for _ in range(SPLIT_PRIMES):
        ell, omega = _modular_root(mul.order, ell)
        dims = _split_mod(mul, ell, omega, A.name)
        if dims is not None:
            return WedderburnSpectrum(dims=dims)
    raise CotwistError(f"{A.name}: the trace form is degenerate mod {SPLIT_PRIMES} primes "
                       "(non-semisimple input?)")


# second binding of the one split: perfbench/spans.py LAYERS times it under this name
wedderburn_dims_retrying = wedderburn_dims


def _matmul_mod(x: np.ndarray, y: np.ndarray, ell: int) -> np.ndarray:
    """x @ y mod l for int64 x (m, K) and y (K, c) in [0, l), one reduced term at a time."""
    out = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    for k in range(x.shape[1]):
        out = (out + x[:, k:k + 1] * y[k]) % ell
    return out


def _split_mod(mul: CycArray, ell: int, omega: int, name: str) -> list[int] | None:
    """Block dims from the trace forms mod l, as :func:`wedderburn_dims` says;
    None when l fails certificate 1."""
    n = mul.shape[0]

    def rank(m):
        return len(_echelon_mod(m % ell, ell, reduced=False)[1])

    a = _modular_image(mul.counts, ell, omega)                          # [i, j, k]
    tau = np.einsum("kjj->k", a) % ell                                  # tau_k = tr L_{e_k}
    if rank(_matmul_mod(a.reshape(n * n, n), tau[:, None], ell).reshape(n, n)) < n:
        return None                                                     # T: certificate 1
    center, free = _center_mod(a, ell)
    r = free.size
    # c_p c_q = sum_s G[q, p, s] c_s, read off the free columns
    left = _matmul_mod(center, a[:, :, free].reshape(n, n * r), ell)   # [p, (j, s)]
    G = _matmul_mod(center, left.reshape(r, n, r).transpose(1, 0, 2).reshape(n, r * r), ell)
    traces = np.stack([np.einsum("stt->s", G.reshape(r, r, r)) % ell,  # tr_C L_{c_s}
                       _matmul_mod(center, tau[:, None], ell)[:, 0]], axis=1)  # tr_A L_{c_s}
    forms = _matmul_mod(G.reshape(r * r, r), traces, ell).reshape(r, r, 2)  # B_0, B
    reduced, pivots = _echelon_mod(forms.transpose(0, 2, 1).reshape(r, 2 * r), ell)
    if pivots != list(range(r)):
        raise CotwistError(f"{name}: the trace form on the center is singular mod {ell}")
    M = reduced[:, r:]                                                   # B_0^-1 B
    mult = {d: r - rank(M - d * d * np.eye(r, dtype=np.int64)) for d in range(1, math.isqrt(n) + 1)}
    dims = [d for d, k in mult.items() for _ in range(k)]
    if len(dims) != r or sum(d * d for d in dims) != n:
        raise CotwistError(f"{name}: block multiplicities {mult} mod {ell} do not add up to "
                           f"the center's dimension {r} and dim {n}")
    return dims


def _center_mod(a: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced basis (r, n) of the center of the algebra with constants ``a`` mod l,
    and its free columns.

    The nullspace of the commutator system, row (j, k) and column i holding
    a[i, j, k] - a[j, i, k], from its reduced echelon form
    (:func:`_echelon_mod`): row s is 1 at the s-th free column, 0 at the
    other free columns, so the coordinates of a central element in this
    basis are its entries at the free columns.
    """
    n = a.shape[0]
    commutators = (a - a.transpose(1, 0, 2)) % ell                      # [i, j, k]
    rows, pivots = _echelon_mod(commutators.transpose(1, 2, 0).reshape(n * n, n), ell)
    free = np.setdiff1d(np.arange(n), pivots)
    center = np.zeros((free.size, n), dtype=np.int64)
    center[np.arange(free.size), free] = 1
    center[:, pivots] = (-rows[:, free].T) % ell
    return center, free


def _one_block_spectrum(A: SCAlgebra) -> WedderburnSpectrum:
    """Exact spectrum of an exact algebra with center span(unit): one block.

    The split's case r = 1: L_u is the identity, because ``SCAlgebra``
    verified u as the unit when it was built, so M = [tr L_u] = [n] and the
    block has dimension sqrt(n).  So n must be a perfect square, and no
    reduction of ``mul`` is needed.
    """
    d = math.isqrt(A.dim)
    if d * d != A.dim:
        raise CotwistError(
            f"{A.name}: a one-dim center needs a square dimension, not {A.dim} "
            "(non-semisimple input?)")
    return WedderburnSpectrum(dims=[d])


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
    return WedderburnSpectrum(dims=[1] * n) if rank == n else None


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
    unit = A.unit.embed()
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
