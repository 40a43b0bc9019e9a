"""Exact bulk arithmetic and linear algebra over cyclotomic fields.

* ``CycArray`` - the package's one exact representation of cyclotomic
  numbers: an array of them sharing one order N and one rational scale.  The
  value at a cell is ``scale * sum_k counts[..., k] * zeta_N^k`` with integer
  counts.  Canonicalization multiplies the counts by the integer reduction
  matrix of Phi_N (``cotwist.scalars``), which makes equality and zero tests
  exact.  Twist files are read straight into one and written from its
  canonical counts (``cotwist.twist``).

* One product kernel, :func:`contract_counts`: sum_k A[r, k] B[k, c] as one
  matmul of A's counts with the circulant expansion of B's, in float64 with
  BLAS while every partial sum is an integer below 2**53, else in int64.  It
  serves the twist axiom audit, :func:`ga_mul`, :func:`cyc_tensordot`, the
  block build and U_g.  A gathered product is a gather of one operand
  followed by one contraction; a fixed number of gathered results is then
  added by :func:`sum_counts` under its overflow bound.

* Exact linear algebra on ``CycArray`` matrices: :func:`cyc_rank`,
  :func:`cyc_nullspace` (a reduced basis, as ``CycArray`` rows) and
  :func:`cyc_solve` (a ``CycArray``, or None).  Inside, each entry is
  expanded to its phi(N) x phi(N) multiplication matrix over Q and the
  integer matrix is row-reduced fraction-free (Bareiss-style updates on
  Python integers, each row divided by its content), so no cyclotomic or
  rational scalar is formed; results are read back as integer counts.
  :func:`cyc_rank` first reduces the counts mod a prime l = 1 (mod N),
  l < 2**31, with zeta -> omega a primitive N-th root of unity mod l, and
  row-reduces that image with :func:`_echelon_mod`, the one int64
  elimination mod l (``cotwist.semisimple``'s trace-form split uses it too).
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
from .scalars import _reduction_table, euler_phi, zeta_embeddings


def _scale_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on positive rationals: gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2)
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


def _mode_shifted(counts: np.ndarray) -> np.ndarray:
    """Counts minus each cell's most frequent count (0 on a tie with 0); N = 1 as is.

    Only a cell with fewer than N/2 zero counts can have another count occur
    more often than 0, so only those cells are searched.
    """
    n = counts.shape[-1]
    busy = 2 * np.count_nonzero(counts, axis=-1) > n
    if n == 1 or not busy.any():
        return counts
    c = counts[busy]
    freq = np.stack([np.count_nonzero(c == c[:, k:k + 1], axis=-1) for k in range(n)], axis=-1)
    best = freq.argmax(axis=-1)[:, None]
    tie_with_zero = np.count_nonzero(c == 0, axis=-1)[:, None] >= \
        np.take_along_axis(freq, best, axis=-1)
    shifted = counts.copy()
    shifted[busy] = c - np.where(tie_with_zero, 0, np.take_along_axis(c, best, axis=-1))
    return shifted


def _largest(counts: np.ndarray) -> int:
    """max |count|, as a Python int."""
    return max(int(counts.max(initial=0)), -int(counts.min(initial=0)))


def canonical_counts(counts: np.ndarray, order: int) -> np.ndarray:
    """Counts on the canonical basis of Q(zeta_N); for prime N, where zeta^(N-1)
    is minus the sum of the lower powers, the counts minus the last one."""
    red = _reduction_table(order)
    return counts[..., :-1] - counts[..., -1:] if red.shape[1] == order - 1 else counts @ red


class CycArray:
    """Exact cyclotomic array: ``value = scale * sum_k counts[..., k] zeta^k``."""

    __slots__ = ("order", "scale", "counts")

    def __init__(self, order: int, scale: Fraction, counts: np.ndarray):
        if counts.shape[-1] != order:
            raise ValueError(f"last axis must have length {order}")
        self.order = order
        self.scale = Fraction(scale)
        self.counts = counts

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape, order: int) -> "CycArray":
        return cls(order, Fraction(1), np.zeros((*shape, order), dtype=np.int64))

    @classmethod
    def from_exponents(cls, order: int, exponents: np.ndarray, scale=Fraction(1)) -> "CycArray":
        """One root of unity per cell: value = scale * zeta^exponents."""
        exponents = np.asarray(exponents) % order
        counts = np.zeros((*exponents.shape, order), dtype=np.int64)
        np.put_along_axis(counts, exponents[..., None], 1, axis=-1)
        return cls(order, Fraction(scale), counts)

    # -- shape plumbing ------------------------------------------------------

    @property
    def shape(self):
        return self.counts.shape[:-1]

    def reshape(self, *shape) -> "CycArray":
        return CycArray(self.order, self.scale, self.counts.reshape(*shape, self.order))

    def transpose(self, axes) -> "CycArray":
        full = tuple(axes) + (self.counts.ndim - 1,)
        return CycArray(self.order, self.scale, self.counts.transpose(full))

    def take(self, indices, axis=0) -> "CycArray":
        return CycArray(self.order, self.scale, np.take(self.counts, indices, axis=axis))

    def copy(self) -> "CycArray":
        return CycArray(self.order, self.scale, self.counts.copy())

    # -- exact structure -----------------------------------------------------

    def canonical(self) -> np.ndarray:
        """Integer coefficients on the canonical basis (scale still applies)."""
        return canonical_counts(self.counts, self.order)

    def zero_mask(self) -> np.ndarray:
        return ~np.any(self.canonical(), axis=-1)

    def is_zero(self) -> bool:
        return bool(np.all(self.zero_mask()))

    def reduced(self) -> "CycArray":
        """The same values on canonical counts that share no common factor."""
        canon = self.canonical()
        g = int(np.gcd.reduce(canon.ravel())) or 1
        counts = np.zeros_like(self.counts)
        counts[..., :canon.shape[-1]] = canon // g
        return CycArray(self.order, self.scale * g, counts)

    def fewest_counts(self) -> np.ndarray:
        """Counts of the same values with the fewest nonzeros per cell found.

        For N > 1, sum_k zeta^k = 0, so subtracting one constant from all N
        counts of a cell keeps its value: each cell is shifted by its most
        frequent count, or by 0 on a tie with 0, so a cell with a single
        nonzero count keeps it.  A product whose value is one root of unity
        thus has one nonzero count, not N.  For composite N, where
        Phi_N has other relations, a cell whose (shifted) canonical counts
        have fewer nonzeros takes those.  N = 1 is never shifted.
        """
        counts = _mode_shifted(self.counts)
        phi = euler_phi(self.order)
        if phi < self.order - 1:  # composite N: for prime N, canonical is a shift
            canon = np.zeros_like(counts)
            canon[..., :phi] = self.canonical()
            canon = _mode_shifted(canon)
            fewer = np.count_nonzero(canon, axis=-1) < np.count_nonzero(counts, axis=-1)
            counts = np.where(fewer[..., None], canon, counts)
        return counts

    # -- arithmetic ------------------------------------------------------------

    def _aligned(self, other: "CycArray"):
        if other.order != self.order:
            raise ValueError(f"order mismatch {self.order} vs {other.order}")
        if other.scale == self.scale:
            return self.counts, other.counts, self.scale
        g = _scale_gcd(abs(self.scale), abs(other.scale))
        fa, fb = int(self.scale / g), int(other.scale / g)
        for counts, f in ((self.counts, fa), (other.counts, fb)):
            if int(np.abs(counts).max(initial=0)) * abs(f) >= 1 << 63:
                raise CotwistError("a common scale would overflow int64 counts")
        return self.counts * fa, other.counts * fb, g

    def scale_by(self, q) -> "CycArray":
        return CycArray(self.order, self.scale * Fraction(q), self.counts)

    def conj(self) -> "CycArray":
        """Complex conjugation: exponent k -> -k mod N."""
        idx = (-np.arange(self.order)) % self.order
        return CycArray(self.order, self.scale, self.counts[..., idx])

    def eq(self, other: "CycArray") -> bool:
        ca, cb, _ = self._aligned(other)
        return bool(np.array_equal(*(canonical_counts(x, self.order) for x in (ca, cb))))

    def embed(self) -> np.ndarray:
        """Complex float array of the values."""
        z = zeta_embeddings(self.order)
        return (self.counts @ z) * float(self.scale)


#: result counts of the contraction formed at once; bounds its float64 scratch
KERNEL_CHUNK = 1 << 15


def contract_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact contraction over Z[zeta_N]: out[r, c] = sum_k a[r, k] * b[k, c].

    ``a`` is (R, K, N) and ``b`` (K, C, N) int64 counts; the result is the
    (R, C, N) int64 counts out[r, c, j] = sum_k sum_i a[r, k, i] *
    b[k, c, (j - i) mod N], the exponent convolution mod N, count for count.
    It is one matmul of ``a`` reshaped to (R, K N) with the circulant
    expansion circ[(k, i), (c, j)] = b[k, c, (j - i) mod N], of shape
    (K N, C N), taken in slices of rows of about ``KERNEL_CHUNK`` result
    counts each, so the float64 copies stay that small.

    Each result count is a sum of K N products of two counts, so every
    partial sum, in whatever order the matmul adds, is an integer of
    magnitude at most bound = K N max|a| max|b|.  While 2 bound < 2**53 (a
    factor 2 to spare) the matmul runs in float64, with BLAS: every count,
    product and partial sum is then a float64 integer, so the result is
    exact for any BLAS thread count.  Otherwise it runs on the int64 counts
    (exact, no BLAS) while bound < 2**63, and past that raises CotwistError.
    """
    rows, inner, n = a.shape
    cols = b.shape[1]
    bound = inner * n * _largest(a) * _largest(b)
    if 2 * bound < 1 << 53:
        dtype = np.float64
    elif bound < 1 << 63:
        dtype = np.int64
    else:
        raise CotwistError("exact contraction would overflow int64 counts")
    shift = (np.arange(n) - np.arange(n)[:, None]) % n             # [i, j] = j - i mod N
    circ = b.astype(dtype, copy=False)[:, :, shift].transpose(0, 2, 1, 3)  # [k, i, c, j]
    circ = circ.reshape(inner * n, cols * n)
    a = a.reshape(rows, inner * n)
    out = np.empty((rows, cols * n), dtype=np.int64)
    step = max(1, KERNEL_CHUNK // max(1, cols * n))
    for lo in range(0, rows, step):
        out[lo:lo + step] = np.matmul(a[lo:lo + step].astype(dtype, copy=False), circ)
    return out.reshape(rows, cols, n)


def cyc_tensordot(a: CycArray, b: CycArray, axes) -> CycArray:
    """Exact tensordot on the raw counts, by :func:`contract_counts`.

    ``axes`` is as for ``np.tensordot``.  The contracted axes of ``a`` go
    last and those of ``b`` first, so the product is one contraction of two
    count matrices.  Raises CotwistError when the int64 result counts could
    overflow: each is a sum of at most (contracted length) * N products of
    two counts.
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
    ca = a.counts.transpose(free_a + axes_a + [nda]).reshape(math.prod(rows), inner, a.order)
    cb = b.counts.transpose(axes_b + free_b + [ndb]).reshape(inner, math.prod(cols), b.order)
    out = contract_counts(ca, cb)
    return CycArray(a.order, a.scale * b.scale, out.reshape(*rows, *cols, a.order))


def sum_counts(counts: np.ndarray, axis: int) -> np.ndarray:
    """The int64 sum of ``counts`` over ``axis``.

    No partial sum passes (terms summed) * max|count|; CotwistError is raised
    unless that stays below 2**63.
    """
    if counts.shape[axis] * _largest(counts) >= 1 << 63:
        raise CotwistError("an exact sum would overflow int64 counts")
    return counts.sum(axis=axis)


def ga_mul(u: CycArray, v: CycArray, mul_table: np.ndarray) -> CycArray:
    """Product of two group-algebra elements given as CycArray vectors.

    ``u`` and ``v`` are indexed by the elements of a group K with Cayley
    table ``mul_table``, or, as (|K|, |K|) arrays, by the pairs of K x K,
    whose product is leg-wise: (a1 x a2)(b1 x b2) = a1 b1 x a2 b2.  Both are
    read on their fewest-term counts (:meth:`CycArray.fewest_counts`), and a
    cell is in the support when those are nonzero, so raw counts of value 0
    are not.  With A the smaller support, say u's, (u v)[x] = sum_{a in A}
    u[a] v[a^-1 x] (leg-wise for pairs): v gathered at [x, a], |K| |A| cells
    (|K|^2 |A| for pairs), and contracted with u over A by one
    :func:`contract_counts`; for v's, (u v)[x] = sum_{b in B} u[x b^-1] v[b].
    Two pair elements whose supports both exceed |K| cells, where that gather
    would pass |K|^3 cells, are multiplied by :func:`_dense_pair_mul`.  Either
    way the counts are the sums of the products of the fewest-term counts,
    count for count.
    """
    if u.order != v.order:
        raise ValueError("order mismatch")
    mul = np.asarray(mul_table, dtype=np.int64)
    m, n = mul.shape[0], u.order
    fu, fv = u.fewest_counts(), v.fewest_counts()
    su, sv = (np.flatnonzero(f.reshape(-1, n).any(axis=-1)) for f in (fu, fv))
    pair = len(u.shape) == 2
    if pair and min(su.size, sv.size) > m:
        return CycArray(n, u.scale * v.scale, _dense_pair_mul(fu, fv, mul))
    left = su.size <= sv.size
    support, small, other = (su, fu, fv) if left else (sv, fv, fu)
    # div[s, x]: the other factor's cell y with s y = x (left) or y s = x (right)
    div = np.argsort(mul, axis=1) if left else np.argsort(mul, axis=0).T
    at = [div[leg].T for leg in np.unravel_index(support, u.shape)]  # [x, k] per leg
    gathered = other[(at[0][:, None], at[1][None]) if pair else (at[0],)]
    out = contract_counts(gathered.reshape(-1, support.size, n),
                          small.reshape(-1, n)[support][:, None])
    return CycArray(n, u.scale * v.scale, out.reshape(fu.shape))


def _dense_pair_mul(fu: np.ndarray, fv: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Counts of u v in C[K x K] from (|K|, |K|, N) counts, by one contraction.

    out[x, y] = sum_{a1, a2} u[a1, a2] v[a1^-1 x, a2^-1 y], where a^-1 y, the b
    with a b = y, is read off the ``argsort`` of the Cayley table's rows (K
    need not be abelian).  With V[(b1, y), a2] = v[b1, a2^-1 y],
    :func:`contract_counts` forms W[(b1, y), a1] = sum_{a2} V[(b1, y), a2]
    u[a1, a2] under its own bound, and out[x, y] is the :func:`sum_counts`
    over a1 of W[a1^-1 x, y, a1], bounded by |K| times the largest count of
    W as formed.
    """
    m, n = fu.shape[0], fu.shape[-1]
    ldiv = np.argsort(mul, axis=1)  # [a, y]: a^-1 y
    b, y, a = np.ogrid[:m, :m, :m]
    V = fv.reshape(m * m, n).take(b * m + ldiv[a, y], axis=0)             # [b1, y, a2]
    W = contract_counts(V.reshape(m * m, m, n), fu.transpose(1, 0, 2))     # [(b1, y), a1]
    a, x, y = np.ogrid[:m, :m, :m]
    return sum_counts(W.reshape(m ** 3, n).take((ldiv[a, x] * m + y) * m + a, axis=0), axis=0)


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
    n, phi = mat.order, euler_phi(mat.order)
    rows, cols = mat.shape
    # shift[s, k, j]: coefficient j of zeta^(s + k), the block of a count at s
    shift = _reduction_table(n)[np.add.outer(np.arange(n), np.arange(phi)) % n]
    a = np.tensordot(mat.counts.astype(object), shift, axes=1)
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
    counts = np.zeros((*canon.shape[:2], order), dtype=np.int64)
    counts[..., :phi] = canon
    return CycArray(order, Fraction(1, common), counts)


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


@functools.cache
def _modular_root(order: int, below: int = 1 << 31) -> tuple[int, int]:
    """The largest prime l < ``below`` with l = 1 mod N, and a primitive N-th root of unity mod l.

    Then Phi_N(omega) = 0 mod l, so zeta -> omega is a ring map Z[zeta_N] -> F_l.
    Both are found by trial division, once per (order, below); passing the
    last l as ``below`` gives the next prime down.
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


def _echelon_mod(a: np.ndarray, ell: int, reduced: bool = True) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over F_l of an int64 matrix with entries in [0, l): its
    nonzero rows and their pivot columns, every row below a pivot 0 in its
    column.  Zero rows are dropped, and a pivot updates only the rows below
    that are nonzero in its column, so a sparse system costs what its
    nonzeros do.  With ``reduced`` a back pass makes each row 1 at its pivot
    and every other row 0 there; a rank needs only the pivots.  A pivot row
    is 0 left of its column, so updates start there.  Each product is below
    l**2 < 2**62 and reduced at once, so nothing overflows int64.
    """
    a = a[a.any(axis=1)]
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        if below.size > 1:  # with every row below nonzero in c, a slice, not a gather
            rows = slice(r + 1, None) if below.size == len(a) - r else r + below[1:]
            pivot = a[r, c:] * pow(int(a[r, c]), -1, ell) % ell
            a[rows, c:] = (a[rows, c:] - a[rows, c:c + 1] * pivot) % ell
        pivots.append(c)
    a = a[:len(pivots)]
    if reduced:
        inverses = [pow(int(a[r, c]), -1, ell) for r, c in enumerate(pivots)]
        a = a * np.array(inverses, dtype=np.int64)[:, None] % ell
        for r in range(len(pivots) - 1, 0, -1):
            c = pivots[r]
            a[:r, c:] = (a[:r, c:] - a[:r, c:c + 1] * a[r, c:]) % ell
    return a, pivots


def _modular_rank(mat: CycArray) -> int:
    """Rank over F_l of the image of the counts under zeta -> omega (:func:`_modular_root`).

    Every minor of the image is the image of a minor of the counts, so this is
    at most the exact rank; the elimination is :func:`_echelon_mod`.
    """
    if len(mat.shape) != 2:
        raise ValueError("need a 2-d matrix")
    ell, omega = _modular_root(mat.order)
    return len(_echelon_mod(_modular_image(mat.counts, ell, omega), ell, reduced=False)[1])


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
    counts = np.zeros((len(free), cols, mat.order), dtype=np.int64)
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
