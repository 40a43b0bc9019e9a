"""Float reference for the tests, apart from the package's exact routes.

The package forms no complex float; ``embedded`` gives the complex values
of a CycArray for the float oracles.  A simple algebra A = M_n is split by
an eigenspace of a random right multiplication, and each translation alpha
is implemented by the matrix that intertwines pi with pi o alpha
(Skolem-Noether).  Both are numpy.linalg solves; the package itself runs
none.
"""

import math

import numpy as np


def zeta_embeddings(n: int) -> np.ndarray:
    """Complex values exp(2*pi*i*k/n) for k = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def embedded(arr) -> np.ndarray:
    """The complex float array of a CycArray's values."""
    return (arr.counts @ zeta_embeddings(arr.order)) * float(arr.scale)


def irreducible_rep(A, seed: int) -> np.ndarray:
    """pi(x) for every basis element x of a simple A, on the eigenspace of R_a,
    x -> x a for a random a, of its eigenvalue of largest modulus: a left ideal
    of dimension n = sqrt(dim A)."""
    mul = embedded(A.mul)  # [x, y, z]: the coefficient of e_z in e_x e_y
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len(mul)) + 1j * rng.standard_normal(len(mul))
    vals, vecs = np.linalg.eig(np.einsum("l,jlk->kj", a, mul))
    top = np.abs(vals - vals[np.argmax(np.abs(vals))]) < 1e-8 * np.max(np.abs(vals))
    assert top.sum() ** 2 == len(mul), "the top eigenvalue's cluster is not sqrt(dim) wide"
    B, _ = np.linalg.qr(vecs[:, top])
    return B.conj().T @ mul.transpose(0, 2, 1) @ B


def intertwiner(pi: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """T with T pi(x) = pi(perm[x]) T for every x, Frobenius norm sqrt(n): the
    null space of the stacked Sylvester systems, which must be one line."""
    n = pi.shape[1]
    eye = np.eye(n)
    system = (np.einsum("xab,cd->xacbd", pi[perm], eye)
              - np.einsum("ab,xdc->xacbd", eye, pi)).reshape(-1, n * n)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    assert svals[-1] < 1e-8 * svals[0] and svals[-2] > 1e-4 * svals[0], svals
    return vh[-1].conj().reshape(n, n) * math.sqrt(n)
