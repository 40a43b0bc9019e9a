"""Reference cyclotomic arithmetic for the tests, apart from the package kernels.

A value of Q(zeta_N) is a tuple of N Fractions, the coefficients of a
polynomial in zeta modulo x^N - 1.  Sums add coefficient-wise and products
are cyclic convolutions.  That form is not unique (1 + zeta + zeta^2 = 0 for
N = 3), so values are compared after reduction modulo Phi_N, where it is.
Nothing here calls ``accumulate_products`` or ``cyc_tensordot``.
"""

import cmath
from fractions import Fraction

import numpy as np

from cotwist.scalars import _reduction_table


def values(arr) -> np.ndarray:
    """The cells of a CycArray as an object array of reference values."""
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(*arr.shape):
        out[idx] = tuple(arr.scale * int(c) for c in arr.counts[idx])
    return out


def zero(order: int) -> tuple:
    return (Fraction(0),) * order


def add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def mul(a, b) -> tuple:
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return tuple(out)


def canonical(a) -> tuple:
    """Coefficients on 1, zeta, ..., zeta^(phi(N)-1) after reduction mod Phi_N."""
    red = _reduction_table(len(a))
    return tuple(sum((x * int(red[j, k]) for j, x in enumerate(a) if x), Fraction(0))
                 for k in range(red.shape[1]))


def equal(a, b) -> bool:
    return not any(canonical(sub(a, b)))


def embed(a) -> complex:
    n = len(a)
    return sum(float(x) * cmath.exp(2j * cmath.pi * k / n) for k, x in enumerate(a))
