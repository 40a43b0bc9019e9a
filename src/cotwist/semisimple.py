"""Wedderburn analysis of semisimple structure-constant algebras over C.

Every algebra is an exact slice (``SCAlgebra``), and every block split is
exact: it is decided by certificates mod a prime l = 1 (mod N), with no
eigenproblem, no tolerance and no seed.  :func:`wedderburn_dims` reads
the center first (:func:`center_basis`):

- a slice canonically equal to its transpose makes an algebra commutative:
  n blocks of 1 once the rank of its trace form mod l certifies that it is
  semisimple (:func:`_split_mod`);
- a noncommutative algebra is graded by the characters of the abelian group
  Q its basis permutations form, f_chi f_psi = C[chi, psi] f_{chi psi}, so
  it is a twisted group algebra of Q^: |R| blocks of sqrt(n / |R|), R the
  radical of the commutator of C.  One product C = F^T S F mod l decides
  it, with no elimination, and the n^3 constants are never gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_algebras import SCAlgebra, _identity_matrix
from .errors import CotwistError
from .exactlin import (CycArray, _largest, _modular_image, _modular_root, _rank_mod,
                       chunk_rows, counts_equal, cyc_tensordot)
from .groups import FiniteGroup, character_exponents, character_products, greedy_generators

#: exhaustive associativity above this dimension would be needlessly slow;
#: larger algebras are audited on a fixed-seed sample of triples.
EXHAUSTIVE_AUDIT_DIM = 32
_AUDIT_SAMPLES = 200
#: primes l = 1 (mod N) a split mod l tries before it refuses an algebra
SPLIT_PRIMES = 3


@dataclass
class WedderburnSpectrum:
    """Block dimensions of a semisimple algebra, ascending."""

    dims: list[int]


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


def center_basis(A: SCAlgebra) -> CycArray:
    """Exact basis ``(r, n)`` of the center, decided by a certificate.

    A slice S canonically (:func:`counts_equal`) equal to its transpose -
    on the last row first, then literally or on the difference - makes
    mul[i, j, k] = S[P[k, i], P[k, j]] symmetric in (i, j), every row of P
    a permutation: the identity basis.

    A noncommutative algebra is graded by the characters of the translation
    group Q of its basis permutations (:func:`_grading_characters`), and the
    graded certificate (:func:`_graded_center`) returns the central lines
    f_chi = sum_x chi(x) delta_x, chi in R, README "Block dimensions from
    the translation grading".  CotwistError names a slice whose certificate
    fails.
    """
    product, n = A.product, A.dim
    if _canonically_symmetric(product):
        return _identity_matrix(n, product.order)
    return CycArray.from_exponents(product.order, _graded_center(A))


def _graded_center(A: SCAlgebra) -> np.ndarray:
    """Exponents E[R] of the characters chi in R, the radical of the
    commutator of C = F^T S F, once the graded certificate holds mod one of
    ``SPLIT_PRIMES`` primes l = 1 (mod N), n l^2 < 2^53:

    - (i) C[chi, chi^-1] != 0 mod l for every chi;
    - (ii) every row of C - C^T that is zero mod l is a row of C with no
      zero mod l, and those rows are R;
    - (iii) R is a subgroup of Q^ that holds the trivial character, and
      |R| d^2 = n.

    Before that, at each prime, :func:`_refute_nonassociative`.
    CotwistError names A when the grading or every prime fails.
    """
    S, n = A.product, A.dim
    grading = _grading_characters(A.perms, S.order)
    if grading is None:
        raise CotwistError(f"{A.name}: its basis permutations are no abelian group of "
                           f"exponent dividing {S.order}")
    E, products = grading
    gens = greedy_generators(products)
    inverse = np.argmax(products == 0, axis=1)
    ell = math.isqrt((1 << 53) // n)
    for _ in range(SPLIT_PRIMES):
        ell, omega = _modular_root(S.order, ell)
        C = _grading_product(S, E, ell, omega)
        _refute_nonassociative(A.name, C, products, gens, ell)
        central = ~np.any(C != C.T, axis=1)
        R = np.flatnonzero(central)
        if (central[0] and C[np.arange(n), inverse].all() and C[R].all()
                and central[products[np.ix_(R, R)]].all()
                and R.size * math.isqrt(n // R.size) ** 2 == n):
            return E[R]
    raise CotwistError(f"{A.name}: the graded certificate fails mod {SPLIT_PRIMES} primes "
                       "(non-semisimple input?)")


def _refute_nonassociative(name: str, C: np.ndarray, products: np.ndarray, gens, ell: int):
    """Raise CotwistError naming the algebra where the 2-cocycle identity
    C[s, chi] C[s chi, psi] = C[chi, psi] C[s, chi psi], which is
    (f_s f_chi) f_psi = f_s (f_chi f_psi), fails mod l for a generator s of
    Q^.  The f_s that associate so form the left nucleus, a subalgebra,
    which holds every f_chi once the f_s generate A, so the generators
    suffice.  Mod l this is a refutation, not a certificate: an exact
    difference may vanish mod l.

    Both sides are float64 integers below l^2 < 2^53, and so is their
    difference x; x is 0 mod l exactly when rint(x (1 / l)) l = x, as
    the rounding of 1 / l moves x (1 / l) by far less than 1/2."""
    s, c = np.asarray(gens), C.astype(np.float64)
    x = c[s, :, None] * c[products[s]] - c * c.ravel()[s[:, None, None] * len(c) + products]
    if np.any(np.rint(x * (1 / ell)) * ell != x):
        raise CotwistError(f"{name}: the constants are not associative "
                           f"(2-cocycle identity of the grading fails mod {ell})")


def _grading_product(S: CycArray, E: np.ndarray, ell: int, omega: int) -> np.ndarray:
    """C[chi, psi] = sum_{a, b} chi(a) S[a, b] psi(b) mod l by two float64
    products of entries in [0, l), n (l - 1)^2 < 2^53: exact integer sums."""
    F = np.array([pow(omega, k, ell) for k in range(S.order)], dtype=np.float64)[E]  # [chi, x]
    left = (F @ _modular_image(S.counts, ell, omega).astype(np.float64)).astype(np.int64) % ell
    return (left.astype(np.float64) @ F.T).astype(np.int64) % ell


def _grading_characters(perms: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(E, products): the characters E[chi, x] mod N of the translation group
    Q of a slice-form algebra, the trivial one first, and the Cayley table
    products[chi, psi] = chi psi of Q^, once the group certificate holds;
    None otherwise.

    The slice is read at the point r with P[r] the identity, S = mul[:, :, r],
    and the basis is relabelled by the swap w of 0 and r, P'[x, a] =
    w P[w x, w a].  Then Q[x, y] = P'[x]^-1(y), and the certificate is that
    Q's table is symmetric, q_s o q_y = q_{Q[s, y]} for the generators s of
    the table and every y, and exp(Q) divides N.  Q is then an abelian
    group acting regularly by automorphisms, with identity r (README "Block
    dimensions from the translation grading"), and ``products`` is
    :func:`character_products`.
    """
    n = len(perms)
    at = np.flatnonzero((perms == np.arange(n)).all(axis=1))
    if not at.size:
        return None
    swap = np.arange(n)
    swap[[0, at[0]]] = at[0], 0
    table = np.argsort(swap[perms[swap][:, swap]], axis=1)
    if not np.array_equal(table, table.T):
        return None
    group = FiniteGroup(table)
    gens = group.generators
    if not np.array_equal(table[gens][:, table], table[table[gens]]):  # q_s o q_y
        return None
    try:
        E = character_exponents(group, order)
    except CotwistError:  # the exponent of Q does not divide N
        return None
    return E[:, swap], character_products(E, gens, order)


def _canonically_symmetric(mul: CycArray) -> bool:
    """Whether mul[i, j, ...] = mul[j, i, ...] exactly: canonical counts
    compared on the last row first, then literally or on the difference.
    Not row 0: a group algebra's identity row, and the row of a slice's own
    point, are symmetric even when the algebra is not.  Both compares take
    the one bound 2 max|c| of the overflow guard: the transpose holds the
    same counts."""
    c, ct, order = mul.counts, mul.counts.swapaxes(0, 1), mul.order
    bound = 2 * _largest(c)
    return counts_equal(c[-1], ct[-1], order, bound) and (
        np.array_equal(c, ct) or counts_equal(c, ct, order, bound))


# ---------------------------------------------------------------------------
# Wedderburn dimensions


def wedderburn_dims(A: SCAlgebra) -> WedderburnSpectrum:
    """Block dimensions of a semisimple exact algebra, from its center.

    :func:`center_basis` decides the center, once.  A graded center of
    dimension r < n is the certified one: |R| = r blocks of sqrt(n / r).
    The center of a commutative algebra is all of it: n blocks of 1 once
    the trace form T[i, j] = tr L_{e_i e_j} of the counts has full rank mod
    a prime l = 1 (mod N) (:func:`_split_mod`).  Its determinant is then
    nonzero, so A is semisimple over C (in characteristic 0 the radical
    lies in the kernel of T).  The scale s is dropped: the counts alone are
    the constants of an algebra isomorphic to A by x -> x / s.  A prime
    that leaves T degenerate gives way to the next prime = 1 (mod N) below
    it; after SPLIT_PRIMES primes CotwistError names the algebra, as
    :func:`center_basis` names one it cannot decide.
    """
    center = center_basis(A)
    n, r = A.dim, center.shape[0]
    if r < n:
        return WedderburnSpectrum(dims=[math.isqrt(n // r)] * r)
    ell = 1 << 31
    for _ in range(SPLIT_PRIMES):
        ell, omega = _modular_root(A.product.order, ell)
        dims = _split_mod(A, ell, omega)
        if dims is not None:
            return WedderburnSpectrum(dims=dims)
    raise CotwistError(f"{A.name}: the trace form is degenerate mod {SPLIT_PRIMES} primes "
                       "(non-semisimple input?)")


# second bindings: perfbench/spans.py LAYERS times the one split, and the split of a
# noncommutative algebra into blocks, under these names
wedderburn_dims_retrying = wedderburn_dims
split_simple_retrying = _graded_center


def _split_mod(A: SCAlgebra, ell: int, omega: int) -> list[int] | None:
    """n blocks of 1 for a commutative A whose trace form has rank n mod l,
    as :func:`wedderburn_dims` says; None otherwise.

    The slice S of A is reduced once and read as mul[i, j, k] =
    S[P[k, i], P[k, j]], so no n^3 constants are gathered.  With
    tau_k = tr L_{e_k} = sum_j mul[k, j, j] = sum_j S[P[j, k], P[j, j]],
    one pass over k in chunks of about ``KERNEL_CHUNK`` cells sums
    T[i, j] = sum_k mul[i, j, k] tau_k.
    """
    n, perms = A.dim, A.perms
    s = _modular_image(A.product.counts, ell, omega)
    tau = s[perms.T, np.diagonal(perms)].sum(axis=1) % ell
    T = np.zeros((n, n), dtype=np.int64)
    step = chunk_rows(n * n)
    for lo in range(0, n, step):
        ks = perms[lo:lo + step]
        block = s[ks[:, :, None], ks[:, None, :]]                       # [k, i, j]
        T = (T + (block * tau[lo:lo + step, None, None] % ell).sum(axis=0)) % ell
    return [1] * n if _rank_mod(T, ell) == n else None
