"""The cyclotomic field Q(zeta_N): its reduction table and the text form of values.

Exact values live in :class:`cotwist.exactlin.CycArray`, as integer counts
on the canonical basis 1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N) over one
rational scale.  This module supplies what that representation needs:
``euler_phi``, the table that reduces each power x^j modulo the N-th
cyclotomic polynomial Phi_N to its unique canonical coefficients, the
literal grammar of twist files, and the package's one primality test,
``_is_prime``.

Text form for one value: semicolon-separated terms ``a/b*E(N)^k`` with
integer a, positive integer b, integer exponent k; ``0`` denotes zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: largest cyclotomic order the cached tables will accept
MAX_ORDER = 10_000


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1 by trial-division factorization."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


#: the least strong pseudoprime to every base in MILLER_RABIN_BASES
MILLER_RABIN_LIMIT = 341_550_071_728_321
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17)


def _is_prime(k: int) -> bool:
    """Primality of ``k`` by Miller-Rabin on MILLER_RABIN_BASES.

    A prime passes every base.  A composite k that passes them all is a
    strong pseudoprime to each, and the least such is MILLER_RABIN_LIMIT, so
    the answer is exact below it; at or above it, ValueError.
    """
    if k >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{k} is past the exact range of the Miller-Rabin bases")
    if k < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if k % q == 0:
            return k == q
    d, r = k - 1, 0  # k - 1 = 2^r d with d odd
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, k)
        if x in (1, k - 1):
            continue
        for _ in range(r - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False  # a^d != 1 and no a^(2^j d), j < r, is -1: k is composite
    return True


def _polydiv_int(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (low-to-high coefficients).
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        lead = den[-1]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low-to-high) of the n-th cyclotomic polynomial."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} out of range 1..{MAX_ORDER}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> np.ndarray:
    # Row j (0 <= j < n) is x^j reduced mod Phi_n, as phi(n) integers; read-only,
    # as every caller shares it.
    phi = euler_phi(n)
    cp = cyclotomic_polynomial(n)
    rows = np.zeros((n, phi), dtype=np.int64)
    cur = [0] * phi
    cur[0] = 1
    for j in range(n):
        rows[j] = cur
        # multiply by x, reduce using x^phi = -(cp[0] + ... + cp[phi-1] x^(phi-1))
        top = cur[phi - 1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * cp[i]
    rows.flags.writeable = False
    return rows


_TERM_RE = re.compile(
    r"^\s*(-?\d+)\s*/\s*(\d+)\s*\*\s*E\(\s*(\d+)\s*\)\s*\^\s*(-?\d+)\s*$"
)


def parse_cyclotomic(text: str, order: int) -> tuple[Fraction, ...]:
    """Canonical coefficients of the literal ``a/b*E(N)^k;...`` (``0`` for zero).

    Every term must use N = ``order``; the phi(order) coefficients are those
    of the sum on 1, zeta, ..., zeta^(phi-1).  Raises ValueError on a
    malformed literal.
    """
    red = _reduction_table(order)
    coeffs = [Fraction(0)] * red.shape[1]
    if text.strip() == "0":
        return tuple(coeffs)
    for piece in text.split(";"):
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"bad cyclotomic term {piece!r}")
        num, den, n, k = (int(g) for g in m.groups())
        if den <= 0:
            raise ValueError(f"denominator must be positive in {piece!r}")
        if n != order:
            raise ValueError(f"term order {n} != expected {order} in {piece!r}")
        for i, r in enumerate(red[k % order]):
            if r:
                coeffs[i] += Fraction(num, den) * int(r)
    return tuple(coeffs)


def format_cyclotomic(coeffs, order: int) -> str:
    """The literal of canonical coefficients; inverse of :func:`parse_cyclotomic`."""
    terms = [f"{c.numerator}/{c.denominator}*E({order})^{k}"
             for k, c in enumerate(coeffs) if c]
    return ";".join(terms) if terms else "0"
