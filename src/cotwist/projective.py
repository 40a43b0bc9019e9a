"""Projective representations of H from its translation actions on the dual algebras.

Each translation alpha_a of A_1* or A_2* is inner, alpha_a(x) = u_a x u_a^-1,
and a -> u_a is a projective representation of H whose class, pulled back to
a stabilizer K_g, predicts a coset's spectrum.  For abelian H with a minimal
twist the class is a nondegenerate 2-cocycle on H^ (Movshev 1993), so u_a is
one character chi_a of H, and the class is read exactly as an alternating
bicharacter with exponents mod N (README, "Route (c), exactly").  No float
step, tolerance or seed is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_algebras import GroupAction, SCAlgebra
from .errors import AuditError, CotwistError
from .exactlin import CycArray, cyc_tensordot, sum_counts
from .groups import FiniteGroup, Subgroup, character_exponents, stabilizer_local_indices

#: character_exponents lives in ``groups`` and is exported here too
__all__ = ["TensorClass", "certify_characters", "character_exponents", "class_dims",
           "multiplicity_law_holds", "regular_trace_law", "tensor_class",
           "trace_vanishing_holds", "translation_characters"]


def translation_characters(A: SCAlgebra, act: GroupAction, E: np.ndarray) -> np.ndarray:
    """Exponent rows X[a] of the character chi_a with chi_a x = alpha_a(x) chi_a in A.

    alpha_a is ``act.perms[a]`` and E the characters.  Each generator s keeps
    the characters that pass at x = delta_e, by two contractions for all s at
    once; exactly one must pass (AuditError otherwise), and it is certified at
    every x (:func:`certify_characters`).  Every other chi_a is the product of
    the generators' along a's word, which implements alpha_a and so is the
    one character that does (README, "Route (c), exactly").
    The sections of the constants at delta_e and at each alpha_s(delta_e)
    are read off the slice with :meth:`SCAlgebra.take`.
    """
    gens, words, parent, via = act.group.generating_words
    order = A.product.order
    chars = CycArray.from_exponents(order, E)
    at_e = cyc_tensordot(A.take(0, axis=1), chars, axes=([0], [1])).canonical()  # [y, chi]
    moved = cyc_tensordot(A.take(act.perms[gens, 0], axis=0), chars, axes=([1], [1]))
    match = np.all(moved.canonical() == at_e[None], axis=(1, 3))  # [s, chi]
    if not np.all(match.sum(axis=1) == 1):
        raise AuditError(f"{A.name}: not exactly one character implements each translation")
    gen_X = E[match.argmax(axis=1)]
    X = np.zeros((act.group.order, E.shape[1]), dtype=np.int64)
    for a in words[1:]:
        X[a] = (X[parent[a]] + gen_X[via[a]]) % order
    certify_characters(A, act, X)
    return X


# second binding of the unit implementing each translation: perfbench/spans.py LAYERS
# times it under this name
projective_rep_from_action = translation_characters


def certify_characters(A: SCAlgebra, act: GroupAction, X: np.ndarray) -> None:
    """AuditError unless chi_s x = alpha_s(x) chi_s exactly for each generator s and every x.

    With left[b, y] and right[a, y] the coefficients of delta_y in
    chi_s delta_b and delta_a chi_s, the certificate is left[b, y] =
    right[alpha_s(b), y].  With mul[a, b, y] = S[P[y, a], P[y, b]] on the
    slice (``SCAlgebra``) and Q[y] the inverse permutation of P[y],
    left[b, y] = L[y, P[y, b]] and right[a, y] = R[y, P[y, a]] for
    L[y, c] = sum_u chi_s(Q[y, u]) S[u, c] and R[y, r] = sum_v S[r, v]
    chi_s(Q[y, v]): two contractions with S, and no n^3 constants.
    """
    gens = np.array(act.group.generators, dtype=np.int64)
    S, P, m, k = A.product, A.perms, A.dim, gens.size
    moved = act.perms[gens]  # [s, b] = alpha_s(b)
    chars = CycArray.from_exponents(S.order, X[gens][:, np.argsort(P, axis=1)])  # [s, y, u]
    left = cyc_tensordot(chars, S, axes=([2], [0])).canonical()   # [s, y, c]: L
    right = cyc_tensordot(chars, S, axes=([2], [1])).canonical()  # [s, y, r]: R
    s, y = np.arange(k)[:, None, None], np.arange(m)[None, :, None]
    agree = np.all(left[s, y, P] == right[s, y, P[y, moved[:, None, :]]], axis=(1, 2, 3))
    bad = gens[~agree]
    if bad.size:
        raise AuditError(f"{A.name}: the character of generator {bad[0]} fails its certificate")


def regular_trace_law(A: SCAlgebra, X: np.ndarray) -> np.ndarray:
    """tr T[a] = d [a = e] for a simple A = M_d, from the exact regular-trace law.

    tr L_{chi_a} = sum_h chi_a(h) tau_h with tau_h = sum_x mul[h, x, x], one
    contraction for all a, must be |H| [a = e] with |H| = d^2; AuditError
    names A otherwise.  tr T[a] = tr L_{chi_a} / d.  mul[h, x, x] =
    S[P[x, h], P[x, x]] is read off the slice (``SCAlgebra``).
    """
    S, P, m = A.product, A.perms, A.dim
    d = math.isqrt(m)
    diagonal = S.counts[P.T, np.diagonal(P)]  # [h, x]
    tau = CycArray(S.order, S.scale, sum_counts(diagonal, axis=1))
    regular = CycArray.zeros((m,), S.order)
    regular.counts[0, 0] = m
    if d * d != m or not cyc_tensordot(CycArray.from_exponents(S.order, X), tau,
                                       axes=1).eq(regular):
        raise AuditError(f"{A.name}: regular trace law fails (tr L_chi_a != |H| [a = e])")
    return np.where(np.arange(m) == 0, d, 0)


@dataclass
class TensorClass:
    """W = V_2 (x) V_1' on K_g (``group``, local indices): T_W[a_i] T_W[a_j] =
    zeta_N^beta[i, j] T_W[a_j] T_W[a_i], and traces[i] = tr T_W[a_i]."""

    group: FiniteGroup
    beta: np.ndarray
    traces: np.ndarray
    order: int
    h_size: int


def tensor_class(chars, traces, H: Subgroup, Kg: Subgroup, g: int, order: int) -> TensorClass:
    """W from the translation characters ``(X1, X2)`` and traces ``(t1, t2)``, at a' = g^-1 a g.

    beta_W(a, b) = beta_2(a, b) beta_1(a', b') with beta_2(a, b) = chi_b(a)
    on A_2* and beta_1(a, b) = chi_b(a)^-1 on A_1*; tr T_W[a] = tr T_2[a] tr T_1[a'].
    """
    (X1, X2), (t1, t2) = chars, traces
    a_loc, c_loc = stabilizer_local_indices(H, Kg, g)
    beta = (X2[np.ix_(a_loc, a_loc)] - X1[np.ix_(c_loc, c_loc)]).T % order
    return TensorClass(Kg.as_group, beta, t2[a_loc] * t1[c_loc], order, H.order)


def _radical_root(beta: np.ndarray) -> tuple[int, int]:
    """|R| for the radical R (the rows of beta that vanish) and isqrt(|K|/|R|)."""
    r = int(np.count_nonzero(~beta.any(axis=1)))
    return r, math.isqrt(len(beta) // r) if r else 0


def trace_vanishing_holds(W: TensorClass) -> bool:
    """tr T_W[a] = |H| [a = e], a product of the factors' regular traces, and every
    nonzero trace is kept by conjugation: beta_W(b, a) = 1 for all b."""
    regular = np.where(np.arange(len(W.traces)) == 0, W.h_size, 0)
    return bool(np.array_equal(W.traces, regular) and not np.any(W.beta[:, W.traces != 0]))


def multiplicity_law_holds(W: TensorClass) -> bool:
    """Every irreducible of C_c[K_g] occurs (|H|/|K_g|) d times in W, by orthogonality.

    beta_W must be an alternating bicharacter: beta(a, a) = 1, beta(b, a) =
    beta(a, b)^-1, and beta(a s, c) = beta(a, c) beta(s, c) for the
    generators s of K_g.  Then C_c[K_g] is |R| copies of M_d, R the radical,
    |R| d^2 = |K_g| (checked).  An irreducible rho keeps its trace under
    conjugation, so tr rho(a) = 0 off R, and tr rho(e) = d.  With trace
    vanishing, its multiplicity in W is <tr T_W, tr rho> = tr T_W[e] d /
    |K_g| = (|H|/|K_g|) d, and these exhaust W: |R| (|H|/|K_g|) d^2 = |H|.
    """
    B, n, mul = W.beta, W.order, W.group.mul
    bicharacter = all(np.array_equal(B[mul[:, s]], (B + B[s]) % n)
                      for s in W.group.generators)
    alternating = not np.any(np.diagonal(B)) and not np.any((B + B.T) % n)
    r, d = _radical_root(B)
    return trace_vanishing_holds(W) and bicharacter and alternating and r * d * d == len(B)


def class_dims(W: TensorClass) -> list[int]:
    """The predicted spectrum (|H|/|K_g|) d, |R| times, with d^2 = |K_g|/|R|.

    Raises CotwistError unless d is an integer, as it is for every
    alternating bicharacter: K_g/R carries the nondegenerate form beta_W.
    """
    r, d = _radical_root(W.beta)
    if r * d * d != len(W.beta):
        raise CotwistError(f"|K_g|/|R| = {len(W.beta)}/{r} is not the square of an integer")
    return [W.h_size // len(W.beta) * d] * r
