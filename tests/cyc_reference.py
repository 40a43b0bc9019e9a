"""Reference cyclotomic arithmetic for the tests, apart from the package kernels.

A value of Q(zeta_N) is a tuple of N Fractions, the coefficients of a
polynomial in zeta modulo x^N - 1.  Sums add coefficient-wise and products
are cyclic convolutions.  That form is not unique (1 + zeta + zeta^2 = 0 for
N = 3), so values are compared after reduction modulo Phi_N, where it is.
Products are formed in plain loops; nothing here calls the package's product
kernel ``contract_counts``.
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


def copied(arr):
    """A CycArray with its own copy of ``arr``'s counts."""
    return type(arr)(arr.order, arr.scale, arr.counts.copy())


def is_zero(arr) -> bool:
    """Every cell of a CycArray is zero, read off its canonical counts."""
    return not arr.canonical().any()


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


def ga_product(u, v, table) -> np.ndarray:
    """u v in C[K] for a Cayley table of K, or leg-wise in C[K x K] for
    (|K|, |K|) arrays, as raw coefficient tuples: the plain sums of the
    products of the fewest-term counts of both factors, count for count."""
    fu, fv = (values(type(x)(x.order, x.scale, x.fewest_counts())) for x in (u, v))
    out = np.empty(u.shape, dtype=object)
    for x in np.ndindex(*u.shape):
        out[x] = zero(u.order)
    for a in np.ndindex(*u.shape):
        for b in np.ndindex(*v.shape):
            x = tuple(int(table[i, j]) for i, j in zip(a, b))
            out[x] = add(out[x], mul(fu[a], fv[b]))
    return out


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


def cocycle_on_every_triple(exp, prod, order: int) -> bool:
    """e(x, y) + e(xy, z) = e(y, z) + e(x, yz) mod N on every triple of the
    group with Cayley table ``prod``, in plain loops: the full reference for
    the twist audit's check on generators."""
    m = len(prod)
    for x, y, z in np.ndindex(m, m, m):
        if (exp[x, y] + exp[prod[x, y], z] - exp[y, z] - exp[x, prod[y, z]]) % order:
            return False
    return True
