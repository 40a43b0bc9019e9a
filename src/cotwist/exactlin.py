"""Exact bulk arithmetic and linear algebra over cyclotomic fields.

* ``CycArray`` - the package's one exact representation of cyclotomic
  numbers: an array of them sharing one order N and one rational scale.  The
  value at a cell is ``scale * sum_k counts[..., k] * zeta_N^k`` with integer
  counts.  Canonicalization multiplies the counts by the integer reduction
  matrix of Phi_N (``cotwist.scalars``), which makes equality and zero tests
  exact.  Twist files are read straight into one and written from its
  canonical counts (``cotwist.twist``).

* One product kernel, :func:`accumulate_products`.  ``CycArray.terms`` lists
  each cell's fewest-term counts as ``(exps, nums)`` with a trailing axis of
  T terms (T = 1 for single roots of unity, at most N in general): since
  sum_k zeta^k = 0 for N > 1, a cell shifted by its most frequent count keeps
  its value, so a folded product whose value is one root of unity lists one
  term, not N.  Every cell-by-cell product of two count arrays in the
  package - group-algebra products, twist audits, dual-algebra structure
  constants - gathers two such term lists and adds their products into a
  :class:`ProductCounts`, at a cost of T_a * T_b term pairs per cell pair.
  Its exponent axis is 2N wide, so an exponent sum needs no reduction mod N;
  it is folded once per array.  Each side turns its term list into a slot
  piece (cell offset * 2N + exponent) over only the cells it depends on, once
  per call; the slot of a term pair is the broadcast sum of the two pieces.
  A term pair then costs one add, one multiply and its ``np.add.at``.  The
  array's overflow bound, summed over the calls that fill it, raises
  CotwistError before a count can wrap.

* Exact linear algebra on ``CycArray`` matrices: :func:`cyc_rank`,
  :func:`cyc_nullspace` (a reduced basis, as ``CycArray`` rows) and
  :func:`cyc_solve` (a ``CycArray``, or None).  Inside, each entry is
  expanded to its phi(N) x phi(N) multiplication matrix over Q and the
  integer matrix is row-reduced fraction-free (Bareiss-style updates on
  Python integers, each row divided by its content), so no cyclotomic or
  rational scalar is formed; results are read back as integer counts.
  :func:`cyc_rank` first reduces the counts mod a prime l = 1 (mod N),
  l < 2**31, with zeta -> omega a primitive N-th root of unity mod l, and
  row-reduces that image in int64.  A full rank there is a certificate (a
  minor nonzero mod l is nonzero in Z[zeta_N]) and is returned; any other
  rank is found by the exact elimination.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import CotwistError
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
        red = _reduction_table(self.order)
        return self.counts @ red

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

    def terms(self):
        """Per-cell term lists ``(exps, nums)`` on fewest-term counts, zero-padded.

        Both arrays have this array's cell shape plus a trailing axis of T
        terms, T being the largest number of listed terms in any cell (at
        least 1): cell value = scale * sum_t nums[..., t] * zeta^exps[..., t].
        Padding terms have ``nums == 0``.

        For N > 1, sum_k zeta^k = 0, so subtracting one constant from all N
        counts of a cell keeps its value: each cell is listed shifted by its
        most frequent count, or by 0 on a tie with 0, so a cell with a single
        nonzero count keeps it.  A folded product whose value is one root of
        unity thus lists one term, not N.  For composite N, where Phi_N has
        other relations, a cell whose (shifted) canonical counts have fewer
        nonzeros is listed on those.  N = 1 is never shifted.
        """
        counts = _mode_shifted(self.counts)
        phi = euler_phi(self.order)
        if phi < self.order - 1:  # composite N: for prime N, canonical is a shift
            canon = np.zeros_like(counts)
            canon[..., :phi] = self.canonical()
            canon = _mode_shifted(canon)
            fewer = np.count_nonzero(canon, axis=-1) < np.count_nonzero(counts, axis=-1)
            counts = np.where(fewer[..., None], canon, counts)
        nonzero = counts != 0
        width = max(1, int(nonzero.sum(axis=-1).max(initial=0)))
        exps = np.argsort(~nonzero, axis=-1, kind="stable")[..., :width]
        return exps, np.take_along_axis(counts, exps, axis=-1)

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

    def __add__(self, other: "CycArray") -> "CycArray":
        ca, cb, s = self._aligned(other)
        return CycArray(self.order, s, ca + cb)

    def __sub__(self, other: "CycArray") -> "CycArray":
        ca, cb, s = self._aligned(other)
        return CycArray(self.order, s, ca - cb)

    def __neg__(self) -> "CycArray":
        return CycArray(self.order, self.scale, -self.counts)

    def scale_by(self, q) -> "CycArray":
        return CycArray(self.order, self.scale * Fraction(q), self.counts)

    def conj(self) -> "CycArray":
        """Complex conjugation: exponent k -> -k mod N."""
        idx = (-np.arange(self.order)) % self.order
        return CycArray(self.order, self.scale, self.counts[..., idx])

    def eq(self, other: "CycArray") -> bool:
        ca, cb, _ = self._aligned(other)
        red = _reduction_table(self.order)
        return bool(np.array_equal(ca @ red, cb @ red))

    def embed(self) -> np.ndarray:
        """Complex float array of the values."""
        z = zeta_embeddings(self.order)
        return (self.counts @ z) * float(self.scale)


def cyc_tensordot(a: CycArray, b: CycArray, axes) -> CycArray:
    """Exact tensordot: integer contraction plus exponent convolution mod N.

    Raises CotwistError when the int64 result counts could overflow: each is
    a sum of at most (contracted length) * N products of two counts.
    """
    if a.order != b.order:
        raise ValueError("order mismatch")
    n = a.order
    if isinstance(axes, int):
        contracted = a.shape[len(a.shape) - axes:]
    else:
        contracted = [a.shape[ax] for ax in np.atleast_1d(axes[0])]
    largest = [int(np.abs(x.counts).max(initial=0)) for x in (a, b)]
    if largest[0] * largest[1] * math.prod(contracted) * n >= 1 << 63:
        raise CotwistError("exact contraction would overflow int64 counts")
    res = None
    for i in range(n):
        ai = a.counts[..., i]
        if not ai.any():
            continue
        for j in range(n):
            bj = b.counts[..., j]
            if not bj.any():
                continue
            block = np.tensordot(ai, bj, axes=axes)
            if res is None:
                out_shape = block.shape
                res = np.zeros((*out_shape, n), dtype=np.int64)
            res[..., (i + j) % n] += block
    if res is None:
        # contract shapes with numpy to get the right output shape
        block = np.tensordot(a.counts[..., 0], b.counts[..., 0], axes=axes)
        res = np.zeros((*block.shape, n), dtype=np.int64)
    return CycArray(n, a.scale * b.scale, res)


def gather(terms, *index):
    """Index the cells of a term list ``(exps, nums)``; the term axis stays last."""
    exps, nums = terms
    return exps[index], nums[index]


#: term pairs the product kernel materializes at once; bounds its scratch memory
KERNEL_CHUNK = 1 << 15


class ProductCounts:
    """Integer counts that exact products are added into, on a 2N-wide exponent axis.

    The exponent sum of two terms lies in [0, 2N - 2], so it addresses a slot
    of the 2N-wide axis directly and no product is reduced mod N; :meth:`fold`
    adds the upper half onto the lower one once.  ``bound`` is the sum, over
    the kernel calls so far, of max |nums_a| * max |nums_b| * term pairs: no
    count, folded or not, can exceed it in absolute value.
    """

    def __init__(self, shape, order: int):
        self.order = order
        self.counts = np.zeros((*shape, 2 * order), dtype=np.int64)
        self.bound = 0

    def piece(self, terms, cells=0):
        """Slot piece of a gathered term list: flat cell offset * 2N + exponent.

        ``cells`` is this side's part of the flat cell index of the counts;
        its shape broadcasts against the term list's cell shape.
        """
        exps, nums = terms
        return np.asarray(cells, dtype=np.int64)[..., None] * (2 * self.order) + exps, nums

    def fold(self, scale) -> CycArray:
        n = self.order
        return CycArray(n, scale, self.counts[..., :n] + self.counts[..., n:])


def accumulate_products(out: ProductCounts, a, b) -> None:
    """Add the products of two slot-piece term lists into ``out``.

    ``a`` and ``b`` are ``(slots, nums)`` pairs from :meth:`ProductCounts.piece`
    with a trailing axis of terms, whose cell shapes broadcast together.  For
    every cell and every pair of a term of ``a`` and a term of ``b``,
    nums_a * nums_b is added at the flat slot slots_a + slots_b of
    ``out.counts``; repeated slots add up.  A term pair costs one broadcast
    add, one multiply and its share of ``np.add.at``.  Work proceeds in slices
    of the leading cell axis of about ``KERNEL_CHUNK`` term pairs each.
    Raises CotwistError, before any count changes, when ``out.bound`` would
    reach 2**63.
    """
    (sa, na), (sb, nb) = a, b
    cells = np.broadcast_shapes(sa.shape[:-1], sb.shape[:-1]) or (1,)
    pairs = math.prod(cells) * na.shape[-1] * nb.shape[-1]
    largest = [int(np.abs(x).max(initial=0)) for x in (na, nb)]
    if out.bound + largest[0] * largest[1] * pairs >= 1 << 63:
        raise CotwistError("exact products would overflow int64 counts")
    out.bound += largest[0] * largest[1] * pairs
    sa, na = (np.broadcast_to(x, cells + x.shape[-1:]) for x in (sa, na))
    sb, nb = (np.broadcast_to(x, cells + x.shape[-1:]) for x in (sb, nb))
    flat = out.counts.reshape(-1)
    step = max(1, KERNEL_CHUNK * cells[0] // max(1, pairs))
    for lo in range(0, cells[0], step):
        rows = slice(lo, lo + step)
        slots = sa[rows, ..., :, None] + sb[rows, ..., None, :]
        nums = na[rows, ..., :, None] * nb[rows, ..., None, :]
        np.add.at(flat, slots.ravel(), nums.ravel())


def ga_mul(u: CycArray, v: CycArray, mul_table: np.ndarray) -> CycArray:
    """Product of two group-algebra elements given as CycArray vectors.

    ``u`` and ``v`` are indexed by the elements of a group K with Cayley
    table ``mul_table``, or, as (|K|, |K|) arrays, by the pairs of K x K,
    whose product is leg-wise: (a1 x a2)(b1 x b2) = a1 b1 x a2 b2.  Only the
    supports are paired - a cell is in the support when its fewest-term list
    (:meth:`CycArray.terms`) is nonzero, so raw counts of value 0 are not -
    except that two pair elements whose supports would pair more than |K|^3
    times are multiplied over all of K^4 with slot pieces over [a1, a2, b1]
    and [a2, b1, b2], so no |K|^4 table is formed.
    """
    if u.order != v.order:
        raise ValueError("order mismatch")
    m = mul_table.shape[0]
    out = ProductCounts(u.shape, u.order)
    mul = np.asarray(mul_table, dtype=np.int64)
    tu, tv = u.terms(), v.terms()
    ia, ib = (np.flatnonzero(nums.any(axis=-1)) for _, nums in (tu, tv))
    if len(u.shape) == 2 and ia.size * ib.size > m ** 3:
        a1, a2, b1, b2 = np.ogrid[:m, :m, :m, :m]
        accumulate_products(out, out.piece(gather(tu, a1, a2), mul[a1, b1] * m),
                            out.piece(gather(tv, b1, b2), mul[a2, b2]))
        return out.fold(u.scale * v.scale)
    ca, cb = np.unravel_index(ia, u.shape), np.unravel_index(ib, v.shape)
    if len(u.shape) == 2:
        target = mul[np.ix_(ca[0], cb[0])] * m + mul[np.ix_(ca[1], cb[1])]
    else:
        target = mul[np.ix_(ia, ib)]
    accumulate_products(out, out.piece(gather(tu, *(i[:, None] for i in ca)), target),
                        out.piece(gather(tv, *cb)))
    return out.fold(u.scale * v.scale)


def ga_identity(size: int, order: int, identity_index: int = 0) -> CycArray:
    out = CycArray.zeros((size,), order)
    out.counts[identity_index, 0] = 1
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
def _modular_root(order: int) -> tuple[int, int]:
    """The largest prime l < 2**31 with l = 1 mod N, and a primitive N-th root of unity mod l.

    Then Phi_N(omega) = 0 mod l, so zeta -> omega is a ring map Z[zeta_N] -> F_l.
    Both are found by trial division, once per order.
    """
    ell = ((1 << 31) - 2) // order * order + 1
    while not _is_prime(ell):
        ell -= order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    omegas = (pow(a, (ell - 1) // order, ell) for a in range(2, ell))
    return ell, next(w for w in omegas if all(pow(w, order // q, ell) != 1 for q in factors))


def _modular_rank(mat: CycArray) -> int:
    """Rank over F_l of the image of the counts under zeta -> omega (:func:`_modular_root`).

    Every minor of the image is the image of a minor of the counts, so this is
    at most the exact rank; int64 Gaussian elimination, every product below l**2 < 2**62.
    """
    if len(mat.shape) != 2:
        raise ValueError("need a 2-d matrix")
    ell, omega = _modular_root(mat.order)
    counts = mat.counts % ell
    a = np.zeros(mat.shape, dtype=np.int64)
    for k in range(mat.order):
        a = (a + counts[..., k] * pow(omega, k, ell)) % ell
    rank = 0
    for c in range(a.shape[1]):
        below = np.flatnonzero(a[rank:, c])
        if not below.size:
            continue
        a[[rank, rank + below[0]]] = a[[rank + below[0], rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, ell) % ell
        a[rank + 1:, c:] = (a[rank + 1:, c:] - a[rank + 1:, c:c + 1] * a[rank, c:]) % ell
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


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
    """Inverse of a group-algebra element via its left-regular representation.

    Builds the full |K| x |K| exact matrix L with ``L[x, b] = vec[x * b^-1]``
    and solves ``L u = e`` by exact Gaussian elimination.
    """
    m = mul_table.shape[0]
    inv_idx = np.argmax(mul_table == 0, axis=1)  # b -> b^-1
    sol = cyc_solve(vec.take(mul_table[:, inv_idx]), ga_identity(m, vec.order))
    if sol is None:
        raise CotwistError("group-algebra element is not invertible")
    return sol
