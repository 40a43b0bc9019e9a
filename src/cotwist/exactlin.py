"""Exact bulk arithmetic and linear algebra over cyclotomic fields.

* ``CycArray`` - the package's one exact representation of cyclotomic
  numbers: an array of them sharing one order N and one rational scale.  The
  value at a cell is ``scale * sum_k counts[..., k] * zeta_N^k`` with integer
  counts.  Canonicalization multiplies the counts by the integer reduction
  matrix of Phi_N (``cotwist.scalars``), which makes equality and zero tests
  exact.  Twist files are read straight into one and written from its
  canonical counts (``cotwist.twist``).

* One product kernel, :func:`accumulate_products`.  ``CycArray.terms`` lists
  each cell's nonzero counts as ``(exps, nums)`` with a trailing axis of T
  terms (T = 1 for single roots of unity, at most N in general).  Every
  cell-by-cell product of two count arrays in the package - group-algebra
  products, twist audits, dual-algebra structure constants - gathers two such
  term lists and lets the kernel add the exponent-shifted products into a
  target count array, at a cost of T_a * T_b per cell pair.

* Exact linear algebra on ``CycArray`` matrices: :func:`cyc_rank`,
  :func:`cyc_nullspace` (a reduced basis, as ``CycArray`` rows) and
  :func:`cyc_solve` (a ``CycArray``, or None).  Inside, each entry is
  expanded to its phi(N) x phi(N) multiplication matrix over Q and the
  integer matrix is row-reduced fraction-free (Bareiss-style updates on
  Python integers, each row divided by its content), so no cyclotomic or
  rational scalar is formed; results are read back as integer counts.
"""

from __future__ import annotations

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
        """Per-cell term lists ``(exps, nums)``, zero-padded to a common length.

        Both arrays have this array's cell shape plus a trailing axis of T
        terms, T being the largest number of nonzero counts in any cell (at
        least 1): cell value = scale * sum_t nums[..., t] * zeta^exps[..., t].
        Padding terms have ``nums == 0``.
        """
        nonzero = self.counts != 0
        width = max(1, int(nonzero.sum(axis=-1).max(initial=0)))
        exps = np.argsort(~nonzero, axis=-1, kind="stable")[..., :width]
        return exps, np.take_along_axis(self.counts, exps, axis=-1)

    # -- arithmetic ------------------------------------------------------------

    def _aligned(self, other: "CycArray"):
        if other.order != self.order:
            raise ValueError(f"order mismatch {self.order} vs {other.order}")
        if other.scale == self.scale:
            return self.counts, other.counts, self.scale
        g = _scale_gcd(abs(self.scale), abs(other.scale))
        fa = self.scale / g
        fb = other.scale / g
        return (
            self.counts * int(fa),
            other.counts * int(fb),
            g,
        )

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
KERNEL_CHUNK = 1 << 17


def accumulate_products(out: np.ndarray, target, a, b) -> None:
    """Add the products of two gathered term lists into a count array.

    ``out`` is a C-contiguous integer count array whose last axis holds the N
    exponent slots; its other axes are addressed by the flat cell index
    ``target``.  ``a`` and ``b`` are ``(exps, nums)`` term lists whose cell
    shapes broadcast against ``target``.  For every cell and every pair of a
    term of ``a`` and a term of ``b``, nums_a * nums_b is added to cell
    ``target`` at exponent exps_a + exps_b mod N; repeated targets add up.
    Work proceeds in slices of the leading cell axis of about
    ``KERNEL_CHUNK`` term pairs each.
    """
    if not out.flags.c_contiguous:
        raise ValueError("accumulate_products needs a C-contiguous target array")
    n = out.shape[-1]
    flat = out.reshape(-1)
    (ea, na), (eb, nb) = a, b
    cells = np.broadcast_shapes(np.shape(target), ea.shape[:-1], eb.shape[:-1]) or (1,)
    target = np.broadcast_to(target, cells)
    ea, na = (np.broadcast_to(x, cells + x.shape[-1:]) for x in (ea, na))
    eb, nb = (np.broadcast_to(x, cells + x.shape[-1:]) for x in (eb, nb))
    per_row = math.prod(cells[1:]) * ea.shape[-1] * eb.shape[-1]
    step = max(1, KERNEL_CHUNK // max(1, per_row))
    for lo in range(0, cells[0], step):
        rows = slice(lo, lo + step)
        exps = (ea[rows, ..., :, None] + eb[rows, ..., None, :]) % n
        nums = na[rows, ..., :, None] * nb[rows, ..., None, :]
        slots = target[rows, ..., None, None] * n + exps
        np.add.at(flat, slots.ravel(), nums.ravel())


def ga_mul(u: CycArray, v: CycArray, mul_table: np.ndarray) -> CycArray:
    """Product of two group-algebra elements given as CycArray vectors.

    ``u`` and ``v`` are indexed by group elements; ``mul_table[a, b]`` is the
    index of the product element.  Only the supports of ``u`` and ``v`` are
    paired.
    """
    if u.order != v.order:
        raise ValueError("order mismatch")
    ia = np.nonzero(u.counts.any(axis=-1))[0]
    ib = np.nonzero(v.counts.any(axis=-1))[0]
    out = np.zeros((mul_table.shape[0], u.order), dtype=np.int64)
    accumulate_products(out, mul_table[np.ix_(ia, ib)],
                        gather(u.take(ia).terms(), slice(None), None),
                        gather(v.take(ib).terms(), None))
    return CycArray(u.order, u.scale * v.scale, out)


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


def cyc_rank(mat: CycArray) -> int:
    """Exact rank over the cyclotomic field."""
    return len(_rref(mat)[1])


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
