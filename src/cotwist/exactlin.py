"""Exact bulk arithmetic and linear algebra over cyclotomic fields.

* ``CycArray`` - the package's one exact representation of cyclotomic
  numbers: an array of them sharing one order N and one rational scale.  The
  value at a cell is ``scale * sum_l counts[..., l] * zeta_N^l`` with
  integer counts on the canonical basis 1, zeta, ..., zeta^(phi(N)-1) of
  Q(zeta_N), so the last axis is phi(N), and each value on one scale has one
  set of counts: equality is array equality on a common scale and a zero is
  a cell of zero counts.  Powers past phi(N) - 1 are reduced by the integer
  reduction table of Phi_N (``cotwist.scalars``).  Twist files are read
  straight into one and written from its counts (``cotwist.twist``).

* One product kernel with one chunk loop, :func:`contract_chunks`:
  sum_k src[at[r, k]] B[k, c], the contraction of a gather of the source
  counts, as one matmul of the gathered counts with the multiplication
  matrix of B's, with BLAS in float32 or float64 while every partial sum is
  an integer below 2**23 or 2**52 respectively, else in int64, yielded in
  that dtype, with the bound, a chunk of rows at a time; chunk rows, operand
  and result together, are counted in bytes of that dtype, 64 KiB a chunk.
  The gather is made inside, of the source cast once to that dtype, chunk by
  chunk, so no int64 gather is formed.  :func:`pair_sums`, the sum over
  factorizations behind the block slice, the U_g row and the dense products
  in C[K x K], sums the k terms of each chunk as it comes: in the chunk's
  float dtype while 2 k bound is below that dtype's exact limit, casting
  only the sums to int64, else in int64 by :func:`sum_counts`, under its
  overflow bound;
  :func:`contract_counts`, each chunk written into one int64 array, serves
  the twist axiom audit, the sparse :func:`ga_mul` and :func:`cyc_tensordot`
  (no index: its operand is cast a chunk at a time).

* Exact linear algebra on ``CycArray`` matrices: :func:`cyc_rank`,
  :func:`cyc_nullspace` (a reduced basis, as ``CycArray`` rows) and
  :func:`cyc_solve` (a ``CycArray``, or None).  Inside, each entry is
  expanded to its phi(N) x phi(N) multiplication matrix over Q and the
  integer matrix is row-reduced fraction-free (Bareiss-style updates on
  Python integers, each row divided by its content), so no cyclotomic or
  rational scalar is formed; results are read back as integer counts.
  :func:`cyc_rank` first reduces the counts mod a prime l = 1 (mod N),
  l < 2**31, with zeta -> omega a primitive N-th root of unity mod l, and
  takes the rank of that image with :func:`_rank_mod`, the one int64
  elimination mod l (``cotwist.semisimple``'s commutative split uses it too).
  A full rank there is a certificate (a minor nonzero mod l is nonzero in
  Z[zeta_N]) and is returned; any other rank is found by the exact elimination.

* :func:`invert_in_group_algebra` inverts u in C[K] by one :func:`cyc_solve`
  on the subgroup S that a^-1 supp(u) generates, a in the support: u^-1 lies
  on S a^-1, so the system is |S| x |S|, not |K| x |K|.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import CotwistError
from .groups import close_under_products
from .scalars import _is_prime, _reduction_table, euler_phi


def _scale_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on positive rationals: gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2)
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


def _largest(counts: np.ndarray) -> int:
    """max |count|, as a Python int."""
    return max(int(counts.max(initial=0)), -int(counts.min(initial=0)))


def _table_product(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``counts @ table`` on int64, the last axis of ``counts`` against the
    rows of an integer table.  Every partial sum of an output count is
    within max|count| times the table's largest absolute column sum;
    CotwistError is raised unless that is below 2**63, where none wraps."""
    if _largest(counts) * int(np.abs(table).sum(axis=0).max(initial=0)) >= 1 << 63:
        raise CotwistError("a product with the reduction table would overflow int64 counts")
    return counts @ table


class CycArray:
    """Exact cyclotomic array: ``value = scale * sum_l counts[..., l] zeta^l``
    on the canonical basis 1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), so
    each value on one scale has one set of counts."""

    __slots__ = ("order", "scale", "counts")

    def __init__(self, order: int, scale: Fraction, counts: np.ndarray):
        phi = euler_phi(order)
        if counts.shape[-1:] != (phi,):
            raise ValueError(f"last axis must have length phi({order}) = {phi}")
        self.order = order
        self.scale = Fraction(scale)
        self.counts = counts

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape, order: int) -> "CycArray":
        return cls(order, Fraction(1), np.zeros((*shape, euler_phi(order)), dtype=np.int64))

    @classmethod
    def from_exponents(cls, order: int, exponents: np.ndarray, scale=Fraction(1)) -> "CycArray":
        """One root of unity per cell: value = scale * zeta^exponents."""
        return cls(order, Fraction(scale), _reduction_table(order)[np.asarray(exponents) % order])

    # -- shape plumbing ------------------------------------------------------

    @property
    def shape(self):
        return self.counts.shape[:-1]

    def reshape(self, *shape) -> "CycArray":
        return CycArray(self.order, self.scale, self.counts.reshape(*shape, self.counts.shape[-1]))

    def transpose(self, axes) -> "CycArray":
        full = tuple(axes) + (self.counts.ndim - 1,)
        return CycArray(self.order, self.scale, self.counts.transpose(full))

    def take(self, indices, axis=0) -> "CycArray":
        return CycArray(self.order, self.scale, np.take(self.counts, indices, axis=axis))

    # -- exact structure -----------------------------------------------------

    def zero_mask(self) -> np.ndarray:
        return ~np.any(self.counts, axis=-1)

    def reduced(self) -> "CycArray":
        """The same values on counts that share no common factor."""
        g = int(np.gcd.reduce(self.counts.ravel())) or 1
        return CycArray(self.order, self.scale * g, self.counts // g)

    # -- arithmetic ------------------------------------------------------------

    def _aligned(self, other: "CycArray"):
        if other.order != self.order:
            raise ValueError(f"order mismatch {self.order} vs {other.order}")
        if other.scale == self.scale:
            return self.counts, other.counts, self.scale
        g = _scale_gcd(abs(self.scale), abs(other.scale))
        fa, fb = int(self.scale / g), int(other.scale / g)
        for counts, f in ((self.counts, fa), (other.counts, fb)):
            if _largest(counts) * abs(f) >= 1 << 63:
                raise CotwistError("a common scale would overflow int64 counts")
        return self.counts * fa, other.counts * fb, g

    def scale_by(self, q) -> "CycArray":
        return CycArray(self.order, self.scale * Fraction(q), self.counts)

    def conj(self) -> "CycArray":
        """Complex conjugation, zeta^l -> zeta^-l: one product with the rows
        red[-l mod N] of the reduction table (:func:`_table_product`)."""
        red = _reduction_table(self.order)
        phi = red.shape[1]
        return CycArray(self.order, self.scale,
                        _table_product(self.counts, red[-np.arange(phi) % self.order]))

    def eq(self, other: "CycArray") -> bool:
        """Exact equality of values: equal counts on one common scale."""
        ca, cb, _ = self._aligned(other)
        return np.array_equal(ca, cb)


#: one chunk of a contraction holds the bytes of this many int64 counts, 64
#: KiB, so twice as many counts in float32, counting both the operand and the
#: result rows.  A chunk's gather, its matmul result and a caller's take of it,
#: all held in the matmul's dtype, then each stay below 128 KiB, glibc
#: malloc's initial mmap threshold, so they are served from the heap and
#: reused, not mapped, faulted in and unmapped once per chunk.  A contraction
#: whose operand b has more cells than this takes chunks of as many counts as
#: b has cells (``contract_chunks``)
KERNEL_CHUNK = 1 << 13


def chunk_rows(width: int, group: int = 1, least: int = 0, itemsize: int = 8) -> int:
    """Rows of ``width`` counts of ``itemsize`` bytes each in one chunk of
    about max(the bytes of ``KERNEL_CHUNK`` int64 counts, ``least`` counts):
    a whole number of groups of ``group`` rows, at least one group."""
    budget = max(KERNEL_CHUNK * 8 // itemsize, least)
    return group * max(1, budget // max(1, group * width))


def _exact_limit(dtype) -> int:
    """2**p for a float dtype with a p-bit significand, which holds every
    integer of magnitude at most 2**p exactly."""
    return 1 << np.finfo(dtype).nmant + 1


@functools.cache
def _product_table(order: int) -> np.ndarray:
    """[j, i, l]: canonical count l of zeta^(i + j), for i, j < phi(N), rows
    of the reduction table, read-only like it."""
    phi = euler_phi(order)
    table = _reduction_table(order)[np.add.outer(np.arange(phi), np.arange(phi)) % order]
    table.flags.writeable = False
    return table


def contract_chunks(src: np.ndarray, at, b: np.ndarray, order: int, rows: int, group: int = 1):
    """Exact contraction of a gather over Z[zeta_N], a chunk of rows at a time:
    yields (lo, out[lo:hi], bound) for consecutive row ranges, where out[r, c] =
    sum_k a[r, k] * b[k, c] with a[r, k] = src[at[r, k]], and bound is the
    one bound on every count of out given below.

    ``src`` is (M, phi) and ``b`` (K, C, phi) int64 canonical counts of
    N = ``order``, and ``at`` a function (lo, hi) -> rows lo:hi of an (R, K)
    index into the M cells of ``src``, so no caller forms the whole index, or
    None when ``src`` is ``a`` itself, (R, K, phi).  Each chunk is the
    (hi - lo, C, phi) canonical counts of out, held in the dtype of the
    matmul, of a whole number of groups of ``group`` rows and about
    max(64 KiB of that dtype, K C counts) of operand and result rows
    together, (K + C) phi counts a row (:func:`chunk_rows`).  It is one
    matmul of the chunk of ``a`` read as (hi - lo, K phi) with the
    multiplication matrix M[(k, i), (c, l)] = sum_j b[k, c, j] red[(i + j)
    mod N, l], red the reduction table of Phi_N, so row (k, i) of M is
    zeta^i b[k, c] on the canonical basis.  M, of shape (K phi, C phi), is
    formed once per call by one int64 product of ``b`` with the (phi,
    phi phi) table (:func:`_product_table`, :func:`_table_product`), then
    cast to the dtype of the matmul, as ``src`` is.  The K C term keeps a
    wide contraction's chunks at K C / ((K + C) phi) rows or more, K / (2
    phi) where K = C, so M, K C phi**2 cells, is read about 2 R phi / K
    times at most, not once per few rows.  The chunk of ``a`` is gathered
    from ``src`` cast once to the dtype of the matmul, or, with no index,
    cast from the slice of ``src`` it is.  So no int64 gather is formed, and
    with no index ``src`` is copied no more than once, a slice at a time.

    Each result count is a sum of K phi products of a count of ``a`` and one
    of M, so every count, product and partial sum, in whatever order the
    matmul adds and with or without a fused multiply-add, is an integer of
    magnitude at most K phi max|a| max|M|.  Every count of ``a`` is a count
    of ``src``, so max|a| <= max|src|, and bound = K phi max|src| max|M|
    bounds them all without reading the gather (an index that skips src's
    largest count only leaves more to spare); a chunk is a sub-block of the
    rows, so the one bound holds for every chunk.  A float with a p-bit
    significand holds every integer of magnitude at most 2**p exactly, and
    a sum or product of two such floats whose exact value is such an
    integer is rounded to itself (:func:`_exact_limit`).  So the matmul is
    exact, for any BLAS thread count, in

    * float32 (p = 24) while 2 bound < 2**24, i.e. bound < 2**23;
    * float64 (p = 53) while 2 bound < 2**53, i.e. bound < 2**52;
    * int64, with no BLAS, while bound < 2**63, where no partial sum wraps;

    each tier taken as soon as its bound holds (a factor 2 to spare in the
    float tiers), and past 2**63 it raises CotwistError before the first
    chunk, as M's product does past its own guard.  Every tier yields the
    same integer counts, count for count.
    """
    phi, inner, cols = src.shape[-1], b.shape[0], b.shape[1]
    mult = _table_product(b, _product_table(order).reshape(phi, phi * phi))  # [k, c, (i, l)]
    bound = inner * phi * _largest(src) * _largest(mult)
    if 2 * bound < _exact_limit(np.float32):
        dtype = np.float32
    elif 2 * bound < _exact_limit(np.float64):
        dtype = np.float64
    elif bound < 1 << 63:
        dtype = np.int64
    else:
        raise CotwistError("exact contraction would overflow int64 counts")
    mult = mult.astype(dtype, copy=False).reshape(inner, cols, phi, phi).transpose(0, 2, 1, 3)
    mult = mult.reshape(inner * phi, cols * phi)
    if at is not None:
        src = src.astype(dtype, copy=False)
    step = chunk_rows((inner + cols) * phi, group, inner * cols, np.dtype(dtype).itemsize)
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        part = src[lo:hi].astype(dtype, copy=False) if at is None else src.take(at(lo, hi), axis=0)
        out = np.matmul(part.reshape(hi - lo, inner * phi), mult)
        yield lo, out.reshape(hi - lo, cols, phi), bound


def contract_counts(src: np.ndarray, at: np.ndarray | None, b: np.ndarray,
                    order: int) -> np.ndarray:
    """The (R, C, phi) int64 counts of :func:`contract_chunks` with its chunks
    written into one int64 array as they come: out[r, c] = sum_k src[at[r,
    k]] * b[k, c] for an (R, K) index ``at``, or sum_k src[r, k] * b[k, c]
    for ``at`` None and ``src`` (R, K, phi).  Raises CotwistError past the
    int64 bound.
    """
    rows = len(src if at is None else at)
    out = np.empty((rows, b.shape[1], src.shape[-1]), dtype=np.int64)
    index = None if at is None else (lambda lo, hi: at[lo:hi])
    for lo, part, _ in contract_chunks(src, index, b, order, rows):
        out[lo:lo + len(part)] = part
    return out


def cyc_tensordot(a: CycArray, b: CycArray, axes) -> CycArray:
    """Exact tensordot on the counts, by :func:`contract_counts`.

    ``axes`` is as for ``np.tensordot``.  The contracted axes of ``a`` go
    last and those of ``b`` first, so the product is one contraction of two
    count matrices.  Raises CotwistError when the int64 result counts could
    overflow (:func:`contract_chunks`).
    """
    if a.order != b.order:
        raise ValueError("order mismatch")
    nda, ndb = len(a.shape), len(b.shape)
    if isinstance(axes, int):
        axes_a, axes_b = list(range(nda - axes, nda)), list(range(axes))
    else:
        axes_a, axes_b = ([int(x) % nd for x in np.atleast_1d(ax)]
                          for ax, nd in zip(axes, (nda, ndb)))
    free_a = [x for x in range(nda) if x not in axes_a]
    free_b = [x for x in range(ndb) if x not in axes_b]
    rows, cols = ([x.shape[ax] for ax in free] for x, free in ((a, free_a), (b, free_b)))
    inner = math.prod(a.shape[x] for x in axes_a)
    phi = a.counts.shape[-1]
    ca = a.counts.transpose(free_a + axes_a + [nda]).reshape(math.prod(rows), inner, phi)
    cb = b.counts.transpose(axes_b + free_b + [ndb]).reshape(inner, math.prod(cols), phi)
    out = contract_counts(ca, None, cb, a.order)
    return CycArray(a.order, a.scale * b.scale, out.reshape(*rows, *cols, phi))


def sum_counts(counts: np.ndarray, axis: int) -> np.ndarray:
    """The int64 sum of ``counts`` over ``axis``.

    No partial sum passes (terms summed) * max|count|; CotwistError is raised
    unless that stays below 2**63.
    """
    if counts.shape[axis] * _largest(counts) >= 1 << 63:
        raise CotwistError("an exact sum would overflow int64 counts")
    return counts.sum(axis=axis)


def pair_sums(first: np.ndarray, second: np.ndarray, partner: np.ndarray,
              groups: np.ndarray, order: int) -> np.ndarray:
    """The (G, B, phi) int64 counts out[g, b] = sum over c S + s in groups[g]
    of sum_t first[s, t] * second[c, partner[b, t]], over Z[zeta_N], N =
    ``order``.

    ``first`` is (S, T, phi) and ``second`` (C, D, phi) int64 canonical
    counts, ``partner`` a (B, T) index whose entry D means "no term", and
    each row of ``groups`` lists k flat indices c S + s.  Second gets one
    zero column D, so a term with no partner reads 0, and Y[(b, c), s] =
    sum_t second[c, partner[b, t]] first[s, t] is one contraction of a
    gather, which :func:`contract_chunks` yields a whole number of b-rows
    (groups of C rows) at a time, gathered from second by that range's flat
    index.  Each chunk, read as Y[b, (c, s)], is taken along its (c, s) axis
    at ``groups`` and its k terms summed into out[:, b-range], so neither
    the gather nor Y is formed whole.

    Every count of Y is within the contraction's bound = T phi max|second|
    max|M|, M the multiplication matrix of first, so every partial sum of k
    of them is within k bound.  While 2 k bound is below the exact limit of
    the float dtype the chunk comes in (:func:`_exact_limit`: 2**24 for
    float32, 2**53 for float64), the k terms are summed in that dtype, each
    partial sum an integer held exactly, and only the (G, b-range, phi) sums
    are cast to int64, as they are written into out.  Past it, or for an
    int64 chunk, the terms are cast to int64 and summed by
    :func:`sum_counts`, under k times the largest count of that chunk, read
    off it: the a-priori k bound takes all T phi products of every term at
    their largest, and would refuse int64 sums that fit.
    """
    S, T, phi = first.shape
    C, D = second.shape[:2]
    k = groups.shape[1]
    second = np.concatenate([second, np.zeros((C, 1, phi), dtype=np.int64)], axis=1)
    c_at = np.arange(C)[:, None] * (D + 1)  # [c, 1]

    def at(lo, hi):  # [(b, c), t] for the b of rows lo:hi
        return (c_at + partner[lo // C:hi // C, None]).reshape(-1, T)

    out = np.empty((len(groups), len(partner), phi), dtype=np.int64)
    for lo, Y, bound in contract_chunks(second.reshape(-1, phi), at, first.transpose(1, 0, 2),
                                        order, len(partner) * C, group=C):
        terms = np.take(Y.reshape(-1, C * S, phi), groups.T, axis=1)  # [b, k, g]
        if Y.dtype != np.int64 and 2 * k * bound < _exact_limit(Y.dtype):
            sums = terms.sum(axis=1)
        else:
            sums = sum_counts(terms.astype(np.int64, copy=False), axis=1)
        out[:, lo // C:lo // C + len(sums)] = sums.swapaxes(0, 1)
    return out


def ga_mul(u: CycArray, v: CycArray, mul_table: np.ndarray) -> CycArray:
    """Product of two group-algebra elements given as CycArray vectors.

    ``u`` and ``v`` are indexed by the elements of a group K with Cayley
    table ``mul_table``, or, as (|K|, |K|) arrays, by the pairs of K x K,
    whose product is leg-wise: (a1 x a2)(b1 x b2) = a1 b1 x a2 b2.  A cell
    is in the support when its counts are nonzero.  With A the smaller
    support, say u's, (u v)[x] = sum_{a in A} u[a] v[a^-1 x] (leg-wise for
    pairs): one :func:`contract_counts` gathers v at the index [x, a], |K|
    |A| cells (|K|^2 |A| for pairs), and contracts it with u over A; for
    v's, (u v)[x] = sum_{b in B} u[x b^-1] v[b].  Two pair elements whose
    supports both exceed |K| cells, where that index would pass |K|^3
    cells, are the :func:`pair_sums` (u v)[x, y] = sum over the pairs
    (a1^-1 x, a1) of sum_{a2} u[a1, a2] v[a1^-1 x, a2^-1 y], with a^-1 y
    read off the ``argsort`` of the table's rows (K need not be abelian).
    """
    if u.order != v.order:
        raise ValueError("order mismatch")
    mul = np.asarray(mul_table, dtype=np.int64)
    m, n, phi = mul.shape[0], u.order, u.counts.shape[-1]
    cu, cv = u.counts, v.counts
    su, sv = (np.flatnonzero(c.reshape(-1, phi).any(axis=-1)) for c in (cu, cv))
    pair = len(u.shape) == 2
    if pair and min(su.size, sv.size) > m:
        ldiv = np.argsort(mul, axis=1)  # [a, y]: a^-1 y
        return CycArray(n, u.scale * v.scale,
                        pair_sums(cu, cv, ldiv.T, ldiv.T * m + np.arange(m), n))
    left = su.size <= sv.size
    support, small, other = (su, cu, cv) if left else (sv, cv, cu)
    # div[s, x]: the other factor's cell y with s y = x (left) or y s = x (right)
    div = np.argsort(mul, axis=1) if left else np.argsort(mul, axis=0).T
    legs = [div[leg].T for leg in np.unravel_index(support, u.shape)]  # [x, k] per leg
    at = legs[0][:, None] * m + legs[1][None] if pair else legs[0]
    out = contract_counts(other.reshape(-1, phi), at.reshape(-1, support.size),
                          small.reshape(-1, phi)[support][:, None], n)
    return CycArray(n, u.scale * v.scale, out.reshape(cu.shape))


def ga_identity(size: int, order: int) -> CycArray:
    out = CycArray.zeros((size,), order)
    out.counts[0, 0] = 1
    return out


# ---------------------------------------------------------------------------
# exact linear algebra on CycArray matrices


def _rref(mat: CycArray) -> tuple[np.ndarray, list[int]]:
    """Fraction-free Gauss-Jordan on the rational expansion of a CycArray matrix.

    Each entry x becomes its phi(N) x phi(N) multiplication matrix on the
    canonical basis, ``block[j, k]`` = coefficient j of x * zeta^k, so the
    matrix becomes an integer matrix over Q.  Its zero rows are dropped, and
    at each pivot every other row with a nonzero entry in the pivot column is
    updated in one step (``piv * row - entry * pivot_row``) and divided by its
    content; rows that vanish are dropped.  Returns the reduced integer rows
    and the pivot columns over Q(zeta_N).  Row i*phi + j is a nonzero multiple
    of row j of the block row i of the reduced echelon form, whose pivots come
    in whole blocks of phi (the expansion of the reduced echelon form over
    Q(zeta_N) is the one over Q).
    """
    if len(mat.shape) != 2:
        raise ValueError("need a 2-d matrix")
    phi = euler_phi(mat.order)
    rows, cols = mat.shape
    # [s, k, j]: coefficient j of zeta^(s + k), the block of a count at s
    a = np.tensordot(mat.counts.astype(object), _product_table(mat.order), axes=1)
    a = a.transpose(0, 3, 1, 2).reshape(rows * phi, cols * phi)
    a = a[(a != 0).any(axis=1)]
    a //= np.gcd.reduce(a, axis=1)[:, None]
    pivots: list[int] = []
    for c in range(cols * phi):
        r = len(pivots)
        if r == a.shape[0]:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            rows_new = a[r, c] * a[others] - a[others, c:c + 1] * a[r]
            content = np.gcd.reduce(rows_new, axis=1)
            kept = content != 0
            a[others[kept]] = rows_new[kept] // content[kept, None]
            if not kept.all():
                a = np.delete(a, others[~kept], axis=0)  # dependent rows, all below r
        pivots.append(c)
    blocks = [p // phi for p in pivots[::phi]]
    assert pivots == [b * phi + j for b in blocks for j in range(phi)], pivots
    return a, blocks


def _reduced_entries(a: np.ndarray, pivots: list[int], columns, order: int) -> CycArray:
    """Entries (i, c) of the reduced echelon form for c in ``columns``, exactly.

    Canonical coefficient j of entry (i, c) is ``a[i*phi + j, c*phi]`` over
    the row's pivot ``a[i*phi + j, pivots[i]*phi + j]`` (every row of ``a`` is
    a pivot row).  The counts share the lowest common denominator;
    CotwistError is raised if one overflows int64.
    """
    phi = euler_phi(order)
    piv = np.array([p * phi + j for p in pivots for j in range(phi)], dtype=np.int64)
    den = a[np.arange(piv.size), piv][:, None]
    num = a[:, np.asarray(columns, dtype=np.int64) * phi]
    g = np.gcd(num, den) * np.where(den < 0, -1, 1)
    num, den = num // g, den // g
    common = math.lcm(*den.ravel())
    canon = (num * (common // den)).reshape(len(pivots), phi, len(columns)).transpose(0, 2, 1)
    if canon.size and int(np.abs(canon).max()) >= 1 << 63:
        raise CotwistError(
            f"exact values over the common denominator {common} overflow int64 counts")
    return CycArray(order, Fraction(1, common), canon.astype(np.int64))


@functools.cache
def _modular_root(order: int, below: int = 1 << 31) -> tuple[int, int]:
    """The largest prime l < ``below`` with l = 1 mod N, and a primitive N-th root of unity mod l.

    Then Phi_N(omega) = 0 mod l, so zeta -> omega is a ring map Z[zeta_N] -> F_l.
    l is found by :func:`_is_prime` and omega by trial of 2, 3, ..., once per
    (order, below); passing the last l as ``below`` gives the next prime down.
    """
    ell = (below - 2) // order * order + 1
    while not _is_prime(ell):
        ell -= order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    omegas = (pow(a, (ell - 1) // order, ell) for a in range(2, ell))
    return ell, next(w for w in omegas if all(pow(w, order // q, ell) != 1 for q in factors))


def _modular_image(counts: np.ndarray, ell: int, omega: int) -> np.ndarray:
    """The int64 image in [0, l) of counts under zeta -> omega, cell by cell."""
    counts = counts % ell
    out = np.zeros(counts.shape[:-1], dtype=np.int64)
    for k in range(counts.shape[-1]):
        out = (out + counts[..., k] * pow(omega, k, ell)) % ell
    return out


def _rank_mod(a: np.ndarray, ell: int) -> int:
    """Rank over F_l of an int64 matrix with entries in [0, l), by row
    echelon form.  Zero rows are dropped, and a pivot updates only the rows
    below that are nonzero in its column, so a sparse system costs what its
    nonzeros do.  A pivot row is 0 left of its column, so updates start
    there.  Each product is below l**2 < 2**62 and reduced at once, so
    nothing overflows int64.
    """
    a = a[a.any(axis=1)]
    rank = 0
    for c in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        below = np.flatnonzero(a[rank:, c])
        if not below.size:
            continue
        if below[0]:
            a[[rank, rank + below[0]]] = a[[rank + below[0], rank]]
        if below.size > 1:  # with every row below nonzero in c, a slice, not a gather
            rows = slice(rank + 1, None) if below.size == len(a) - rank else rank + below[1:]
            pivot = a[rank, c:] * pow(int(a[rank, c]), -1, ell) % ell
            a[rows, c:] = (a[rows, c:] - a[rows, c:c + 1] * pivot) % ell
        rank += 1
    return rank


def _modular_rank(mat: CycArray) -> int:
    """Rank over F_l of the image of the counts under zeta -> omega (:func:`_modular_root`).

    Every minor of the image is the image of a minor of the counts, so this is
    at most the exact rank; the elimination is :func:`_rank_mod`.
    """
    if len(mat.shape) != 2:
        raise ValueError("need a 2-d matrix")
    ell, omega = _modular_root(mat.order)
    return _rank_mod(_modular_image(mat.counts, ell, omega), ell)


def cyc_rank(mat: CycArray) -> int:
    """Exact rank over the cyclotomic field.

    A full rank, min(rows, cols), of the image mod l (:func:`_modular_rank`)
    is a certificate: a minor that is nonzero mod l is nonzero in Z[zeta_N].
    Every other rank comes from the exact elimination :func:`_rref`.
    """
    rank = _modular_rank(mat)
    return rank if rank == min(mat.shape) else len(_rref(mat)[1])


def cyc_nullspace(mat: CycArray) -> CycArray:
    """Reduced basis of the exact right nullspace, as rows ``(k, cols)``.

    Row i is 1 at the i-th free column of the echelon form, 0 at the other
    free columns and 0 beyond its free column, so the basis is the unique one
    of its subspace in this form.
    """
    cols = mat.shape[1]
    red, pivots = _rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    coeffs = _reduced_entries(red, pivots, free, mat.order)
    counts = np.zeros((len(free), cols, euler_phi(mat.order)), dtype=np.int64)
    counts[np.arange(len(free)), free, 0] = coeffs.scale.denominator  # 1 on scale 1/den
    counts[:, pivots] = -coeffs.counts.transpose(1, 0, 2)
    return CycArray(mat.order, coeffs.scale, counts)


def cyc_solve(mat: CycArray, rhs: CycArray) -> CycArray | None:
    """Unique exact solution of ``mat @ x = rhs``, or None if none/ambiguous."""
    rows, cols = mat.shape
    ca, cb, scale = mat._aligned(rhs.reshape(rows, 1))
    red, pivots = _rref(CycArray(mat.order, scale, np.concatenate([ca, cb], axis=1)))
    if pivots != list(range(cols)):
        return None  # inconsistent or underdetermined
    return _reduced_entries(red, pivots, [cols], mat.order).reshape(cols)


def invert_in_group_algebra(vec: CycArray, mul_table: np.ndarray) -> CycArray:
    """Inverse of an element u of C[K], solved in the subgroup its support generates.

    Index 0 of ``mul_table`` is the identity e.  Take a, the first point of
    the support of u (cells of nonzero value, :meth:`CycArray.zero_mask`),
    and S, the subgroup generated by a^-1 supp(u).  Then u = a w with w in
    C[S].  If u is invertible, so is w, and w^-1 lies in C[S]: left
    multiplication by w is injective on C[K], so it maps the finite-dimensional
    C[S] onto itself, and some v in C[S] has w v = e; v is then w^-1.  So
    u^-1 = w^-1 a^-1 is supported on S a^-1.  For b in S a^-1 and u[x b^-1]
    nonzero, x lies in a S a^-1, so u x = e is the square |S| x |S| system
    L[x, b] = u[x b^-1], x in a S a^-1, b in S a^-1, and the rows outside
    a S a^-1 vanish.  Its unique solution, by :func:`cyc_solve`, is u^-1
    placed on S a^-1; it has no solution exactly when u has no right inverse,
    i.e. is not invertible (C[K] is finite-dimensional), and that raises
    CotwistError.  The solution is u^-1 whatever the order of the unknowns,
    so its canonical counts over the lowest common denominator are those of
    the |K| x |K| solve, count for count; for a u whose support generates K
    (S = K) the solve is that one.
    """
    inv_idx = np.argmax(mul_table == 0, axis=1)  # b -> b^-1
    support = np.flatnonzero(~vec.zero_mask())
    if not support.size:
        raise CotwistError("group-algebra element is not invertible")
    a = support[0]
    members = np.zeros(mul_table.shape[0], dtype=bool)
    members[0] = True
    close_under_products(members, mul_table[inv_idx[a], support], mul_table)
    S = np.flatnonzero(members)
    cols = mul_table[S, inv_idx[a]]     # S a^-1, e's column first: S[0] = e
    rows = mul_table[a, cols]           # a S a^-1, e first
    sol = cyc_solve(vec.take(mul_table[np.ix_(rows, inv_idx[cols])]),
                    ga_identity(S.size, vec.order))
    if sol is None:
        raise CotwistError("group-algebra element is not invertible")
    out = CycArray.zeros(vec.shape, vec.order).scale_by(sol.scale)
    out.counts[cols] = sol.counts
    return out
