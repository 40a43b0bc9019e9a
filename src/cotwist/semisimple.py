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
certifies its trace form.  An algebra in slice form (``SCAlgebra.from_slice``)
is graded by the characters of the abelian group its basis permutations
form, and when one product F^T S F mod l shows only the unit's line central,
the center is span(unit): one block of sqrt(n), the common case, with no
elimination at all.  The trace-form split too reads the n x n slice, so no
block is gathered to be split: not its n^3 constants, nor their commutator
system.

:func:`split_simple`, a seeded float construction of the irreducible
representation of a simple algebra, is library code that no report runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_algebras import SCAlgebra, _identity_matrix
from .errors import CotwistError, SeedRetryError
from .exactlin import (KERNEL_CHUNK, CycArray, _echelon_mod, _modular_image, _modular_root,
                       canonical_counts, cyc_tensordot)
from .groups import FiniteGroup, character_exponents

#: exhaustive associativity above this dimension would be needlessly slow;
#: larger algebras are audited on a fixed-seed sample of triples.
EXHAUSTIVE_AUDIT_DIM = 32
_AUDIT_SAMPLES = 200
_CLUSTER_GUARD = 10.0  # clusters separated by less than this multiple of the
                       # merge threshold are treated as ambiguous
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
    In slice form (``SCAlgebra``) S is compared: S[P[k, i], P[k, j]] is
    symmetric in (i, j) exactly when S is, every row of P a permutation.

    Then, in slice form, the certificate for a one-dimensional center from
    the translation grading.  Let q_x = P[x]^-1 and Q[x, y] = q_x(y), the
    table ``argsort(P, axis=1)``.  :func:`_grading_characters` certifies that
    P[0] is the identity, that q_s o q_y = q_{Q[s, y]} for the generators s
    of the table and every y, that Q is symmetric and that exp(Q) divides
    N, and lists the n characters of Q.  Then:

    - Q is an abelian group acting regularly by automorphisms.  The x with
      q_x o q_y = q_{Q[x, y]} for all y hold 0 and the generators and are
      closed under the table's product (q_{Q[x, z]} o q_y = q_x o q_z o q_y
      = q_{Q[x, Q[z, y]]} and Q[x, Q[z, y]] = Q[Q[x, z], y]), so they are all
      x: x -> q_x is a homomorphism, injective as q_x(0) = Q[0, x] = x.  And
      P[q_x(c)] = P[c] o q_x^-1 gives mul[q_x a, q_x b, q_x c] = mul[a, b, c].
    - So the f_chi = sum_x chi(x) delta_x, q_y f_chi = chi(y)^-1 f_chi, are
      a basis of eigenvectors, and f_chi f_psi = C[chi, psi] f_{chi psi}.  At
      delta_0, where P[0] is the identity and f_chi is 1, C = F^T S F.
    - The center is stable under the action, so it is a sum of lines f_chi,
      and f_chi is central exactly when row chi of C - C^T is zero, as the
      unit f_1 is.  An exact zero row stays zero mod l (zeta -> omega is a
      ring map), so when only the trivial row is zero mod l the center is
      span(unit), returned as a ``(1, n)`` basis.

    C, with F[x, chi] = chi(x), is formed mod l = 1 (mod N) by two float64
    products of entries in [0, l), n (l - 1)^2 < 2^53: exact integer sums.
    None - a dense algebra, a failed group certificate, a center of
    dimension > 1, an unlucky prime - leaves the center to the split.
    """
    product, n = A.product, A.dim
    if _canonically_symmetric(product):
        return _identity_matrix(n, product.order)
    E = None if A.perms is None else _grading_characters(A.perms, product.order)
    C = None if E is None else _grading_product(product, E)[0]
    central = [] if C is None else np.flatnonzero(~np.any(C != C.T, axis=1)).tolist()
    return A.unit.reshape(1, n) if central == [0] else None


def _grading_product(S: CycArray, E: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(C, l, omega): C[chi, psi] = sum_{a, b} chi(a) S[a, b] psi(b) mod l,
    by the two exact float64 products of :func:`center_basis`."""
    ell, omega = _modular_root(S.order, math.isqrt((1 << 53) // len(E)))  # n l^2 < 2^53
    F = np.array([pow(omega, k, ell) for k in range(S.order)], dtype=np.float64)[E]  # [chi, x]
    left = np.fmod(F @ _modular_image(S.counts, ell, omega).astype(np.float64), ell)
    return np.fmod(left @ F.T, ell).astype(np.int64), ell, omega


def _grading_characters(perms: np.ndarray, order: int) -> np.ndarray | None:
    """Characters E[chi, x] mod N of the translation group Q[x, y] = P[x]^-1(y)
    of a slice-form algebra, the trivial one first, once :func:`center_basis`'s
    group certificate holds; None otherwise."""
    table = np.argsort(perms, axis=1)
    if not np.array_equal(perms[0], np.arange(len(perms))) or not np.array_equal(table, table.T):
        return None
    group = FiniteGroup(table)
    gens = group.generating_words[0]
    if not np.array_equal(table[gens][:, table], table[table[gens]]):  # q_s o q_y
        return None
    try:
        return character_exponents(group, order)
    except CotwistError:  # the exponent of Q does not divide N
        return None


def _canonically_symmetric(mul: CycArray) -> bool:
    """Whether mul[i, j, ...] = mul[j, i, ...] exactly: canonical counts
    compared on row 0 first, then literally or on the difference."""
    c, ct, order = mul.counts, mul.counts.swapaxes(0, 1), mul.order
    return np.array_equal(canonical_counts(c[0], order), canonical_counts(ct[0], order)) and (
        np.array_equal(c, ct) or not canonical_counts(c - ct, order).any())


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

    The center certificate (:func:`center_basis`) decides two cases first:
    a center span(unit) is r = 1 with M = [n], one block of sqrt(n)
    (:func:`_one_block_spectrum`), with no reduction and no elimination;
    canonically symmetric counts are r = n with M = I, n blocks of 1 once
    certificate 1 holds, with no commutator system.
    """
    center = center_basis(A)
    if center is not None and center.shape[0] == 1:
        return _one_block_spectrum(A)
    ell = 1 << 31
    for _ in range(SPLIT_PRIMES):
        ell, omega = _modular_root(A.product.order, ell)
        dims = _split_mod(A, ell, omega, center is not None)
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


def _slab(s: np.ndarray, perms: np.ndarray | None, ks) -> np.ndarray:
    """The reduced constants [k, i, j] = mul[i, j, k] for the k in ``ks``:
    from the slice S[P[k, i], P[k, j]] of an algebra in slice form
    (``SCAlgebra``), else from the dense constants."""
    if perms is None:
        return s[:, :, ks].transpose(2, 0, 1)
    return s[perms[ks, :, None], perms[ks, None, :]]


def _split_mod(A: SCAlgebra, ell: int, omega: int, commutative: bool) -> list[int] | None:
    """Block dims from the trace forms mod l, as :func:`wedderburn_dims` says;
    None when l fails certificate 1.

    The product of A (its slice, in slice form) is reduced once and read
    through :func:`_slab`, so no n^3 constants are gathered.  With
    tau_k = tr L_{e_k} = sum_j mul[k, j, j], in slice form
    sum_j S[P[j, k], P[j, j]], one pass over k in chunks of about
    ``KERNEL_CHUNK`` cells sums T[i, j] = sum_k mul[i, j, k] tau_k and, unless
    ``commutative``, echelons the commutator rows (k, j), column i,
    mul[i, j, k] - mul[j, i, k], with the rows kept so far.  A commutative
    algebra (r = n, M = I) is n blocks of 1 once T passes certificate 1.
    Otherwise the reduced echelon form (:func:`_echelon_mod`) gives the
    center: row s is 1 at the s-th free column, 0 at the other free columns,
    so the coordinates of a central element are its entries at the free
    columns, and the forms read only the constants at those columns.
    """
    n, perms = A.dim, A.perms

    def rank(m):
        return len(_echelon_mod(m % ell, ell, reduced=False)[1])

    s = _modular_image(A.product.counts, ell, omega)
    tau = (np.einsum("kjj->k", s) if perms is None
           else s[perms.T, np.diagonal(perms)].sum(axis=1)) % ell
    T, echelon = np.zeros((n, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    step = max(1, KERNEL_CHUNK // (n * n))
    for lo in range(0, n, step):
        block = _slab(s, perms, slice(lo, lo + step))                   # [k, i, j]
        T = (T + (block * tau[lo:lo + step, None, None] % ell).sum(axis=0)) % ell
        if not commutative:
            rows = (block.transpose(0, 2, 1) - block).reshape(-1, n) % ell  # [(k, j), i]
            echelon = _echelon_mod(np.concatenate([echelon, rows]), ell, reduced=False)[0]
    if rank(T) < n:
        return None                                                     # T: certificate 1
    if commutative:
        return [1] * n
    rows, pivots = _echelon_mod(echelon, ell)
    free = np.setdiff1d(np.arange(n), pivots)
    r = free.size
    center = np.zeros((r, n), dtype=np.int64)
    center[np.arange(r), free] = 1
    center[:, pivots] = (-rows[:, free].T) % ell
    # c_p c_q = sum_s G[q, p, s] c_s, read off the free columns
    at_free = _slab(s, perms, free).transpose(1, 2, 0).reshape(n, n * r)  # [i, (j, s)]
    left = _matmul_mod(center, at_free, ell)                              # [p, (j, s)]
    G = _matmul_mod(center, left.reshape(r, n, r).transpose(1, 0, 2).reshape(n, r * r), ell)
    traces = np.stack([np.einsum("stt->s", G.reshape(r, r, r)) % ell,  # tr_C L_{c_s}
                       _matmul_mod(center, tau[:, None], ell)[:, 0]], axis=1)  # tr_A L_{c_s}
    forms = _matmul_mod(G.reshape(r * r, r), traces, ell).reshape(r, r, 2)  # B_0, B
    reduced, pivots = _echelon_mod(forms.transpose(0, 2, 1).reshape(r, 2 * r), ell)
    if pivots != list(range(r)):
        raise CotwistError(f"{A.name}: the trace form on the center is singular mod {ell}")
    M = reduced[:, r:]                                                   # B_0^-1 B
    mult = {d: r - rank(M - d * d * np.eye(r, dtype=np.int64)) for d in range(1, math.isqrt(n) + 1)}
    dims = [d for d, k in mult.items() for _ in range(k)]
    if len(dims) != r or sum(d * d for d in dims) != n:
        raise CotwistError(f"{A.name}: block multiplicities {mult} mod {ell} do not add up to "
                           f"the center's dimension {r} and dim {n}")
    return dims


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
