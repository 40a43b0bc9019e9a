"""Exact cyclotomic arrays and linear algebra, cross-checked two ways:
the reference arithmetic of ``cyc_reference`` and complex-float embeddings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cotwist import exactlin
from cotwist.errors import CotwistError
from cotwist.exactlin import (CycArray, canonical_counts, contract_chunks, contract_counts,
                              cyc_nullspace, cyc_rank, cyc_solve, cyc_tensordot, ga_identity,
                              ga_mul, invert_in_group_algebra, pair_sums, sum_counts)
from cotwist.scalars import MILLER_RABIN_LIMIT, _is_prime, _reduction_table, euler_phi
from cotwist.twist import _sides_agree, load_twist_matrix
from cyc_reference import (add, canonical, embed, equal, ga_product, is_zero, mul, values,
                           zero)
from float_reference import embedded


def rand_cycarray(rng, shape, order, span=2):
    counts = rng.integers(-span, span + 1, size=(*shape, order)).astype(np.int64)
    return CycArray(order, Fraction(1, int(rng.integers(1, 4))), counts)


def test_tensordot_casts_its_operand_a_slice_at_a_time():
    """cyc_tensordot hands ``contract_counts`` its operand with no index, so a
    (729 * 729, 3) operand contracted with one column is cast to float32 once,
    a slice at a time, and never also gathered: the peak stays near one
    float32 copy of it, where a cast and a gather of it take two."""
    import tracemalloc

    a = CycArray(3, Fraction(1), np.ones((729, 729, 3), dtype=np.int64))
    b = CycArray(3, Fraction(1), np.ones((729, 1, 3), dtype=np.int64))
    one_copy = 729 * 729 * 3 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        out = cyc_tensordot(a, b, axes=([1], [0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(out.counts == 729 * 3)
    assert peak < 1.25 * one_copy, peak / one_copy


def test_tensordot_over_an_empty_axis_is_zero():
    a = CycArray(3, Fraction(1), np.zeros((2, 0, 3), dtype=np.int64))
    b = CycArray(3, Fraction(1), np.zeros((0, 4, 3), dtype=np.int64))
    out = cyc_tensordot(a, b, axes=([1], [0]))
    assert out.shape == (2, 4) and not out.counts.any()


def test_round_trip_object_and_back():
    """Reference values, reduced mod Phi_N, encode the same array again."""
    rng = np.random.default_rng(3)
    a = rand_cycarray(rng, (4, 3), 5)
    counts = np.zeros((4, 3, 5), dtype=np.int64)
    counts[..., :euler_phi(5)] = [[[int(c / a.scale) for c in canonical(v)] for v in row]
                                  for row in values(a)]
    assert a.eq(CycArray(5, a.scale, counts))


def test_tensordot_matches_object_matmul():
    rng = np.random.default_rng(9)
    a = rand_cycarray(rng, (3, 4), 3)
    b = rand_cycarray(rng, (4, 2), 3)
    prod = cyc_tensordot(a, b, axes=([1], [0]))
    oa, ob = values(a), values(b)
    got = values(prod)
    for i in range(3):
        for j in range(2):
            acc = zero(3)
            for k in range(4):
                acc = add(acc, mul(oa[i, k], ob[k, j]))
            assert equal(got[i, j], acc)


def test_embed_matches_object_embed():
    rng = np.random.default_rng(13)
    a = rand_cycarray(rng, (2, 5), 4)
    emb = embedded(a)
    obj = values(a)
    for idx in np.ndindex(2, 5):
        assert abs(emb[idx] - embed(obj[idx])) < 1e-12


def test_canonical_kills_aliases():
    # zeta_3^0 + zeta_3^1 + zeta_3^2 = 0
    arr = CycArray(3, Fraction(1), np.array([[1, 1, 1]], dtype=np.int64))
    assert is_zero(arr)
    assert arr.eq(CycArray.zeros((1,), 3))


def test_scale_alignment_in_eq():
    a = CycArray(3, Fraction(1, 2), np.array([[2, 0, 0]], dtype=np.int64))
    b = CycArray(3, Fraction(1, 3), np.array([[3, 0, 0]], dtype=np.int64))
    assert a.eq(b)


def test_eq_refuses_canonical_wraparound():
    """a = 2**62 (1 - zeta - zeta^2) at N = 3: the canonical counts of a pass
    2**63 and those of a - (-a) reach 2**64, where their int64 images wrap to
    0 and a.eq(-a) read True; both are refused by name.  One below, the
    canonical difference 2**64 - 4 wraps to -4, still nonzero: eq decides
    exactly, as it does wherever the difference stays below 2**64."""
    q = 1 << 62
    a = CycArray(3, Fraction(1), np.array([[q, -q, -q]], dtype=np.int64))
    with pytest.raises(CotwistError, match="canonical counts of a difference would overflow"):
        a.eq(CycArray(3, Fraction(1), -a.counts))
    with pytest.raises(CotwistError, match="canonical counts would overflow int64"):
        a.canonical()
    below = CycArray(3, Fraction(1), np.array([[q - 1, 1 - q, 1 - q]], dtype=np.int64))
    assert below.eq(below) and not below.eq(CycArray(3, Fraction(1), -below.counts))


def test_scale_alignment_refuses_wraparound():
    """A count of -2**63 doubled to a common scale would wrap.  np.abs of it
    is -2**63 too, which hid it from a max of absolute values; refused by name."""
    a = CycArray(3, Fraction(1), np.array([[-(1 << 63), 1, 0]], dtype=np.int64))
    b = CycArray(3, Fraction(1, 2), np.array([[1, 0, 0]], dtype=np.int64))
    with pytest.raises(CotwistError, match="a common scale would overflow int64"):
        a.eq(b)


def test_fewest_counts_refuse_wraparound():
    """[q, -q, -q] at N = 3 with q = 2**62 is shifted by its mode -q to
    2**63, which wraps to -2**63 and flips the value's sign; refused by name.
    One below, the shift is exact."""
    q = 1 << 62
    a = CycArray(3, Fraction(1), np.array([[q, -q, -q]], dtype=np.int64))
    with pytest.raises(CotwistError, match="fewest-term counts would overflow int64"):
        a.fewest_counts()
    b = CycArray(3, Fraction(1), np.array([[q - 1, 1 - q, 1 - q]], dtype=np.int64))
    assert list(b.fewest_counts()[0]) == [(1 << 63) - 2, 0, 0]


@pytest.mark.parametrize("order, growth", [(3, 2), (6, 4), (15, 6)])
def test_canonical_counts_bound(order, growth):
    """Canonical count k is at most max|count| times column k's absolute sum
    of the reduction table: with row 1 at that bound, just below 2**63, the
    reference's canonical coefficients, count for count; past it, refused by
    name."""
    largest = ((1 << 63) - 1) // growth
    red = _reduction_table(order)
    widest = np.abs(red).sum(axis=0).argmax()
    assert np.abs(red[:, widest]).sum() == growth
    rng = np.random.default_rng(order)
    counts = rng.choice([-largest, largest], size=(4, order))
    counts[1] = np.where(red[:, widest] < 0, -largest, largest)
    canon = canonical_counts(counts, order)
    for cell, row in zip(values(CycArray(order, Fraction(1), counts)), canon):
        assert [int(x) for x in canonical(cell)] == list(row)
    assert canon[1, widest] == largest * growth
    counts[0, 0] = largest + 1
    with pytest.raises(CotwistError, match="canonical counts would overflow int64"):
        canonical_counts(counts, order)


def test_conj_matches_embedding():
    rng = np.random.default_rng(17)
    a = rand_cycarray(rng, (4,), 5)
    assert np.allclose(embedded(a.conj()), np.conj(embedded(a)))


def test_single_term_detection():
    counts = np.zeros((2, 2, 3), dtype=np.int64)
    counts[0, 0, 1] = 2
    counts[1, 1, 2] = -1
    fewest = CycArray(3, Fraction(1), counts).fewest_counts()
    assert fewest.shape == (2, 2, 3)
    assert np.array_equal(fewest, counts)  # one nonzero count per cell is kept as is
    assert not fewest[0, 1].any()  # an empty cell stays empty
    counts[0, 1, 0] = 1
    counts[0, 1, 1] = 1
    fewest = CycArray(3, Fraction(1), counts).fewest_counts()
    assert list(fewest[0, 1]) == [0, 0, -1]  # 1 + zeta = -zeta^2: one count after the shift
    counts[1, 0, 0] = 1
    counts[1, 0, 1] = 2
    fewest = CycArray(3, Fraction(1), counts).fewest_counts()
    assert list(fewest[1, 0]) == [1, 2, 0]  # 1 + 2 zeta: no count repeats, so no shift
    assert list(fewest[1, 1]) == [0, 0, -1]
    assert np.count_nonzero(fewest, axis=-1).max() == 2


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 12])
def test_terms_keep_values_on_fewest_terms(order):
    """Each cell of the fewest-term counts has the value of its counts, on no
    more nonzero counts than its raw or its canonical counts; N = 1 is kept as is."""
    rng = np.random.default_rng(60 + order)
    a = rand_cycarray(rng, (6, 7), order, span=1)
    a.counts[0, 0] = 3  # all counts equal: value 0 for N > 1
    a.counts[0, 1] = 2
    a.counts[0, 1, 1 % order] = 3  # 2 sum_k zeta^k + zeta: one term for N > 1
    fewest = a.fewest_counts()
    assert fewest.shape == a.counts.shape
    got = values(CycArray(order, a.scale, fewest))
    for idx, want in np.ndenumerate(values(a)):
        assert equal(got[idx], want)
    width = np.count_nonzero(fewest, axis=-1)
    assert np.all(width <= np.count_nonzero(a.counts, axis=-1))
    assert np.all(width <= np.count_nonzero(a.canonical(), axis=-1))
    if order == 1:
        assert np.array_equal(fewest, a.counts)
    else:
        assert width[0, 0] == 0 and width[0, 1] == 1


def _single_terms(rng, shape, order, scale):
    exps = rng.integers(0, order, size=shape)
    arr = CycArray.from_exponents(order, exps, scale)
    arr.counts *= rng.integers(-3, 4, size=(*shape, 1))
    return arr


# -- the contraction kernel -----------------------------------------------------


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """contract_counts of (R, K, N) counts ``a``, read through the identity index."""
    rows, inner, n = a.shape
    return contract_counts(a.reshape(-1, n), np.arange(rows * inner).reshape(rows, inner), b)


def _raw_contraction(a: CycArray, b: CycArray) -> np.ndarray:
    """Reference sum_k a[r, k] b[k, c] as raw coefficient tuples: no reduction mod Phi_N."""
    oa, ob = values(a), values(b)
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for r, c in np.ndindex(*out.shape):
        acc = zero(a.order)
        for k in range(a.shape[1]):
            acc = add(acc, mul(oa[r, k], ob[k, c]))
        out[r, c] = acc
    return out


@pytest.mark.parametrize("chunk", [1 << 17, 1])  # 1 << 17: all rows in one slice; 1: a row each
@pytest.mark.parametrize("kind", ["single x single", "single x multi", "multi x multi"])
def test_contract_counts_matches_cyclotomic_mul(kind, chunk, monkeypatch):
    """Single-term and multi-term operands on unequal scales, all rows in one
    slice or one row per slice: the reference sums, count for count."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    rng = np.random.default_rng(47)
    order = 5
    a = (_single_terms(rng, (4, 3), order, Fraction(1, 2)) if kind != "multi x multi"
         else rand_cycarray(rng, (4, 3), order))
    b = (_single_terms(rng, (3, 2), order, Fraction(2, 3)) if kind == "single x single"
         else rand_cycarray(rng, (3, 2), order))
    b = b.scale_by(Fraction(3, 7))  # unequal scales on the two factors
    assert a.scale != b.scale
    single = [np.count_nonzero(x.counts, axis=-1).max() == 1 for x in (a, b)]
    assert single == [kind != "multi x multi", kind == "single x single"]
    got = CycArray(order, a.scale * b.scale, _contract(a.counts, b.counts))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(values(got)):
        assert value == want[idx]


@pytest.mark.parametrize("chunk", [1 << 17, 1])
def test_contract_counts_exponent_sums_wrap(chunk, monkeypatch):
    """Order 7: exponent sums up to 6 + 6 = 12 >= N wrap mod N, with negative counts."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    order = 7
    a = CycArray(order, Fraction(1, 3), np.zeros((2, 1, order), dtype=np.int64))
    b = CycArray(order, Fraction(1, 2), np.zeros((1, 2, order), dtype=np.int64))
    a.counts[0, 0, [6, 5]] = [-4, 1]
    a.counts[1, 0, [6, 0]] = [2, -3]
    b.counts[0, 0, [6, 3]] = [-5, 2]
    b.counts[0, 1, 6] = 7
    out = _contract(a.counts, b.counts)
    got, oa, ob = values(CycArray(order, a.scale * b.scale, out)), values(a), values(b)
    for i, j in np.ndindex(2, 2):
        assert got[i, j] == mul(oa[i, 0], ob[0, j])
    assert out[0, 0, 5] == 20  # zeta^6 * zeta^6 = zeta^12 = zeta^5


def test_sum_counts_overflow_is_named():
    """Two counts of 2**62 could sum to 2**63: refused by name; just below, exact."""
    counts = np.full((2, 1, 3), (1 << 62) - 1, dtype=np.int64)
    assert sum_counts(counts, axis=0)[0, 0] == (1 << 63) - 2
    counts[1, 0, 2] = -(1 << 62)
    with pytest.raises(CotwistError, match="exact sum would overflow int64"):
        sum_counts(counts, axis=0)


@pytest.mark.parametrize("order", [3, 4, 5, 6, 12])
def test_contract_counts_matches_reference(order):
    """Multi-term counts on unequal scales: the values of the reference sums,
    and its raw counts, count for count."""
    rng = np.random.default_rng(300 + order)
    a = rand_cycarray(rng, (4, 5), order, span=3)
    b = rand_cycarray(rng, (5, 3), order, span=3).scale_by(Fraction(5, 7))
    assert a.scale != b.scale
    got = CycArray(order, a.scale * b.scale, _contract(a.counts, b.counts))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(values(got)):
        assert equal(value, want[idx])
        assert value == want[idx]


class _Spy:
    """A numpy function or ufunc that records the arguments of its calls and ``.at`` calls."""

    def __init__(self, func):
        self.func, self.calls, self.at_calls = func, [], []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        return self.func(*args, **kwargs)

    def at(self, *args, **kwargs):
        self.at_calls.append(args)
        return self.func.at(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.func, name)


@pytest.fixture
def spies(monkeypatch):
    """Spies on np.add (and its scatter np.add.at), np.matmul and np.tensordot."""
    found = {name: _Spy(getattr(np, name)) for name in ("add", "matmul", "tensordot")}
    for name, spy in found.items():
        monkeypatch.setattr(np, name, spy)
    return found


@pytest.mark.parametrize("past", [False, True])
def test_contract_counts_dtype_switch(past, spies):
    """Counts at the 2**53 bound: float64 below it, the int64 matmul from it on
    (below 2**63), and the reference values either way."""
    order, inner = 5, 3
    largest = math.isqrt((1 << 53) // (2 * inner * order))  # 2 K N largest**2 < 2**53
    if past:
        largest += 1
    assert (2 * inner * order * largest ** 2 >= 1 << 53) == past
    assert inner * order * largest ** 2 < 1 << 63
    rng = np.random.default_rng(71)
    a, b = (rand_cycarray(rng, shape, order, span=largest) for shape in ((2, inner), (inner, 2)))
    a.counts[0, 0, 0], b.counts[1, 1, 3] = largest, -largest
    got = CycArray(order, a.scale * b.scale, _contract(a.counts, b.counts))
    dtype = np.int64 if past else np.float64
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)]
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(values(got)):
        assert value == want[idx]



def _int_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[r, c, (i + j) mod N] = sum over k, i, j of a[r, k, i] b[k, c, j],
    on Python ints in plain loops."""
    rows, inner, n = a.shape
    out = np.zeros((rows, b.shape[1], n), dtype=object)
    for r, c, k, i, j in np.ndindex(rows, b.shape[1], inner, n, n):
        out[r, c, (i + j) % n] += int(a[r, k, i]) * int(b[k, c, j])
    return out


@pytest.mark.parametrize("signs", ["equal", "mixed"])
@pytest.mark.parametrize("limit, above, dtype", [(24, False, np.float32),
                                                 (24, True, np.float64),
                                                 (53, False, np.float64)])
def test_contract_counts_tiers_at_their_bounds(limit, above, dtype, signs, spies):
    """All-max counts +-m, with 2 bound = 2 K N m**2 just below 2**24, just
    above it and just below 2**53: float32, float64 and float64, and the
    Python-int convolution count for count.  With equal signs every partial
    sum climbs to the bound itself."""
    order, inner = 5, 3
    m = math.isqrt((1 << limit) // (2 * inner * order)) + above
    bound = inner * order * m * m
    assert (2 * bound < 1 << limit) != above
    rng = np.random.default_rng(limit + above)
    a = np.full((2, inner, order), m, dtype=np.int64)
    b = np.full((inner, 3, order), m, dtype=np.int64)
    if signs == "mixed":
        a *= rng.choice([-1, 1], size=a.shape)
        b *= rng.choice([-1, 1], size=b.shape)
    out = _contract(a, b)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)]
    assert out.dtype == np.int64
    assert np.array_equal(out.astype(object), _int_convolution(a, b))
    if signs == "equal":
        assert np.all(out == bound)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7])
def test_contract_counts_single_terms_in_float32(order, spies):
    """Random single-term counts, as the twist and the dual algebras carry:
    the float32 tier, and the Python-int convolution count for count."""
    rng = np.random.default_rng(500 + order)
    a = _single_terms(rng, (6, 4), order, Fraction(1)).counts
    b = _single_terms(rng, (4, 5), order, Fraction(1)).counts
    out = _contract(a, b)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(np.float32,) * 2]
    assert np.array_equal(out.astype(object), _int_convolution(a, b))


@pytest.mark.parametrize("largest, rest, dtype", [(1 << 4, 1 << 4, np.float32),
                                                  (1 << 20, 1 << 20, np.float64),
                                                  (1 << 28, 1 << 28, np.int64),
                                                  (1 << 20, 1 << 4, np.float64)])
def test_gathered_contraction_matches_reference(largest, rest, dtype, spies, monkeypatch):
    """The kernel's own gather: src[at] contracted with b equals the reference
    sums of the gathered values, count for count, in each tier.  The tier is
    read off the source, whose largest count sits at a cell the index skips:
    with every other count below 2**4 the gather alone would take float32,
    the source takes float64.  7 rows at 2 rows a slice end on a short slice."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", 20)  # 20 // (C N = 10) = 2 rows a slice
    order, rows, inner, cols = 5, 7, 3, 2
    rng = np.random.default_rng(largest.bit_length() + rest.bit_length())
    src = rng.integers(-rest + 1, rest, size=(9, order))
    src[4, 2] = largest                                # the largest cell: never read
    at = rng.choice([0, 1, 2, 3, 5, 6, 7, 8], size=(rows, inner))
    b = rand_cycarray(rng, (inner, cols), order, span=rest)
    out = contract_counts(src, at, b.counts)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)] * 4
    got = values(CycArray(order, b.scale, out))
    want = _raw_contraction(CycArray(order, Fraction(1), src[at]), b)
    for idx, value in np.ndenumerate(got):
        assert value == want[idx]


@pytest.mark.parametrize("chunk, inner, group, sizes", [
    (20, 3, 1, [2, 2, 2, 2, 2, 1]),   # 20 // (C N = 10): 2 rows a chunk
    (20, 3, 3, [3, 3, 3, 2]),         # whole groups of 3 rows, at least one group
    (4, 3, 1, [1] * 11),              # K C = 6 cells of b: 6 // 10, at least one row
    (4, 10, 1, [2, 2, 2, 2, 2, 1]),   # K C = 20: 2 rows, where 4 counts would be 1
    (4, 15, 1, [3, 3, 3, 2]),         # K C = 30: 3 rows
])
def test_chunks_hold_kernel_chunk_or_b_counts(chunk, inner, group, sizes, monkeypatch):
    """A chunk is a whole number of row groups of about max(KERNEL_CHUNK, K C)
    result counts, its index asked for a chunk at a time; the chunks,
    concatenated, are ``contract_counts``'s result count for count."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    order, rows, cols = 5, 11, 2
    rng = np.random.default_rng(inner + group)
    src = rng.integers(-3, 4, size=(9, order))
    at = rng.integers(0, 9, size=(rows, inner))
    b = rng.integers(-3, 4, size=(inner, cols, order))
    asked = []

    def index(lo, hi):
        asked.append((lo, hi))
        return at[lo:hi]

    chunks = list(contract_chunks(src, index, b, rows, group))
    assert [len(part) for _, part in chunks] == sizes
    assert asked == [(lo, lo + len(part)) for lo, part in chunks]
    assert all(lo % group == 0 for lo, _ in chunks)
    assert np.array_equal(np.concatenate([part for _, part in chunks]),
                          contract_counts(src, at, b))


def test_tensordot_keeps_raw_counts():
    """cyc_tensordot contracts the raw counts, not fewest-term ones: its counts
    are the reference's raw sums, for one axis, two axes and the outer product."""
    rng = np.random.default_rng(73)
    order = 5
    a = rand_cycarray(rng, (3, 4), order)
    b = rand_cycarray(rng, (4, 2), order)
    a.counts[0, 0] = 2  # a cell of value 0 on five raw counts
    got = values(cyc_tensordot(a, b, axes=([1], [0])))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(got):
        assert value == want[idx]
    c = rand_cycarray(rng, (2, 3, 2), order)
    both = values(cyc_tensordot(c, c, axes=([0, 2], [0, 2])))  # [j, j']
    flat = c.transpose((1, 0, 2)).reshape(3, 4)
    want = _raw_contraction(flat, flat.transpose((1, 0)))
    for idx, value in np.ndenumerate(both):
        assert value == want[idx]
    outer = values(cyc_tensordot(a, b, axes=0))
    oa, ob = values(a), values(b)
    for i, j, k, l in np.ndindex(3, 4, 4, 2):
        assert outer[i, j, k, l] == mul(oa[i, j], ob[k, l])


def test_dense_products_run_no_scatter(spies, p3_twist):
    """_sides_agree, a dense pair ga_mul and cyc_tensordot run one matmul each
    and no scatter; cyc_tensordot runs no tensordot."""
    t = p3_twist
    table = t.group.mul.astype(np.int64)
    assert _sides_agree(t.J, table[:, t.group.inv].T)
    ga_mul(t.J, t.Jinv, table)
    cyc_tensordot(t.J, t.Jinv, axes=([1], [0]))
    assert not spies["add"].at_calls
    assert len(spies["matmul"].calls) == 3
    assert not spies["tensordot"].calls


def _symmetric_group_3():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms])


def test_dense_ga_mul_on_a_non_abelian_group(monkeypatch):
    """Random dense operands in C[S3 x S3]: the reference product, and count
    for count the plain sum of products of the fewest-term counts over K^4."""
    table = _symmetric_group_3()
    assert not np.array_equal(table, table.T)
    m, order = 6, 5
    rng = np.random.default_rng(79)
    u = rand_cycarray(rng, (m, m), order)
    v = rand_cycarray(rng, (m, m), order).scale_by(Fraction(3, 2))
    dense = []
    kernel = exactlin.pair_sums
    monkeypatch.setattr(exactlin, "pair_sums", lambda *a: dense.append(1) or kernel(*a))
    got = ga_mul(u, v, table)
    assert dense == [1]

    ou, ov, og = values(u), values(v), values(got)
    want = np.empty((m, m), dtype=object)
    want[...] = [[zero(order)] * m] * m
    for a1, a2, b1, b2 in np.ndindex(m, m, m, m):
        x, y = table[a1, b1], table[a2, b2]
        want[x, y] = add(want[x, y], mul(ou[a1, a2], ov[b1, b2]))
    for idx, value in np.ndenumerate(og):
        assert equal(value, want[idx])

    assert got.scale == u.scale * v.scale
    for idx, value in np.ndenumerate(ga_product(u, v, table)):
        assert og[idx] == value


@pytest.mark.parametrize("shape", [(6,), (6, 6)], ids=["C[S3]", "C[S3 x S3]"])
def test_sparse_ga_mul_on_a_non_abelian_group(shape):
    """A two-cell element of C[S3] or C[S3 x S3] on either side of a dense one:
    u[a] v[a^-1 x] over u's support, or u[x b^-1] v[b] over v's, gives the
    plain reference product count for count."""
    table = _symmetric_group_3()
    rng = np.random.default_rng(83)
    dense = rand_cycarray(rng, shape, 5)
    sparse = CycArray.zeros(shape, 5).scale_by(Fraction(1, 3))
    cells = [(1,), (4,)] if len(shape) == 1 else [(1, 4), (4, 2)]  # a transposition, a 3-cycle
    for cell, exps in zip(cells, ([2, 0, 1, 0, 0], [0, -1, 0, 0, 3])):
        sparse.counts[cell] = exps
    for u, v in ((sparse, dense), (dense, sparse)):
        got = values(ga_mul(u, v, table))
        for idx, value in np.ndenumerate(ga_product(u, v, table)):
            assert got[idx] == value


def test_sparse_ga_mul_overflow_guard():
    """One cell each: the contraction over the one-cell support is exact at
    counts of 2**30 and refuses, by name, counts near 2**32, whose products
    could pass 2**63."""
    big = CycArray.zeros((3,), 3)
    big.counts[0, 1] = -(1 << 30)
    assert ga_mul(big, big, _z3_table()).counts[0, 2] == 1 << 60  # exact, no wrap
    near = CycArray(3, Fraction(1), np.zeros((3, 3), dtype=np.int64))
    near.counts[0, 0] = (1 << 32) + 1
    with pytest.raises(CotwistError, match="overflow int64"):
        ga_mul(near, near, _z3_table())


def test_dense_ga_mul_overflow_guard():
    """Dense rational pair operands whose contraction counts fit int64 (3 * 2**60)
    but whose exact product counts (3 * 3 * 2**60) pass 2**63: the sum over a1
    is refused by name."""
    u, v = CycArray.zeros((3, 3), 1), CycArray.zeros((3, 3), 1)
    u.counts[..., 0], v.counts[..., 0] = 1 << 30, 1 << 30
    with pytest.raises(CotwistError, match="an exact sum would overflow int64"):
        ga_mul(u, v, _z3_table())


def test_dense_ga_mul_near_the_bound_is_exact():
    """Dense pair operands whose exact counts fit int64 (3 * 3 * 2**59) are
    multiplied, not refused, and equal the reference sum count for count."""
    u, v = CycArray.zeros((3, 3), 3), CycArray.zeros((3, 3), 3)
    u.counts[..., 0], v.counts[..., 0] = 1 << 30, 1 << 29
    got = ga_mul(u, v, _z3_table())
    want = ga_product(u, v, _z3_table())
    assert int(got.counts.max()) == 9 << 59
    for x in np.ndindex(3, 3):
        assert values(got)[x] == want[x]


def _pair_sums_reference(first, second, partner, groups):
    """out[g, b, (i + j) mod N] = sum over c S + s in groups[g], t and i, j of
    first[s, t, i] second[c, partner[b, t], j], on Python ints in plain loops;
    a partner D adds nothing."""
    S, T, n = first.shape
    D = second.shape[1]
    out = np.zeros((len(groups), len(partner), n), dtype=object)
    for g, b in np.ndindex(len(groups), len(partner)):
        for cs in groups[g]:
            c, s = divmod(int(cs), S)
            for t in range(T):
                d = partner[b, t]
                if d < D:
                    for i, j in np.ndindex(n, n):
                        out[g, b, (i + j) % n] += int(first[s, t, i]) * int(second[c, d, j])
    return out


@pytest.mark.parametrize("chunk", [1, exactlin.KERNEL_CHUNK, 1 << 40])
@pytest.mark.parametrize("order", [1, 3, 4, 6])
def test_pair_sums_matches_the_python_int_reference(order, chunk, monkeypatch):
    """Random signed counts, some partners "no term" (one b has none at all):
    the Python-int sums count for count, with each chunk one row group of b,
    the default chunks, and one chunk for every b."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    S, T, C, D, B = 3, 4, 5, 4, 6
    rng = np.random.default_rng(order)
    first = rng.integers(-9, 10, size=(S, T, order))
    second = rng.integers(-9, 10, size=(C, D, order))
    partner = rng.integers(0, D + 1, size=(B, T))
    partner[0] = D
    assert np.any(partner[1:] == D) and np.any(partner < D)
    groups = rng.permutation(C * S).reshape(3, 5)
    got = pair_sums(first, second, partner, groups)
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object), _pair_sums_reference(first, second, partner, groups))


@pytest.mark.parametrize("signs", ["equal", "mixed"])
@pytest.mark.parametrize("limit, dtype", [(24, np.float32), (53, np.float64), (63, np.int64)])
def test_pair_sums_at_each_tier_edge(limit, dtype, signs, spies):
    """All-max counts +-m, m the largest with 2 T N m**2 below 2**24 (float32)
    or 2**53 (float64), or with the k-term sums k T N m**2 below 2**63
    (int64): the tier is taken and the sums are the Python-int reference count
    for count; with equal signs they reach k T N m**2.  For int64, m + 1 puts
    those sums past 2**63 and is refused by name."""
    S, T, C, k, order = 2, 3, 2, 2, 3
    m = math.isqrt(((1 << limit) - 1) // ((k if limit == 63 else 2) * T * order))
    rng = np.random.default_rng(limit)
    partner = np.array([rng.permutation(T) for _ in range(2)])
    groups = rng.permutation(C * S).reshape(-1, k)

    def operands(m):
        first = np.full((S, T, order), m, dtype=np.int64)
        second = np.full((C, T, order), m, dtype=np.int64)
        if signs == "mixed":
            first *= rng.choice([-1, 1], size=first.shape)
            second *= rng.choice([-1, 1], size=second.shape)
        return first, second

    first, second = operands(m)
    got = pair_sums(first, second, partner, groups)
    assert spies["matmul"].calls
    assert all((x.dtype, y.dtype) == (dtype, dtype) for x, y in spies["matmul"].calls)
    assert np.array_equal(got.astype(object), _pair_sums_reference(first, second, partner, groups))
    if signs == "equal":
        assert np.all(got == k * T * order * m * m)
        if limit == 63:
            with pytest.raises(CotwistError, match="an exact sum would overflow int64"):
                pair_sums(*operands(m + 1), partner, groups)


def _direct_product_table(table):
    """The Cayley table of K x K, (g, h) at index g |K| + h."""
    m = len(table)
    return (table[:, None, :, None] * m + table[None, :, None, :]).reshape(m * m, m * m)


@pytest.mark.parametrize("chunk", [1, 1 << 40])
@pytest.mark.parametrize("square, order", [(False, 6), (True, 1)], ids=["S3", "S3 x S3"])
def test_dense_pair_products_are_pair_sums(square, order, chunk, monkeypatch):
    """Dense products in C[K x K] for K = S3 and S3 x S3 go through one
    pair_sums and equal, count for count, the Python-int sum of u[a1, a2]
    v[b1, b2] at (a1 b1, a2 b2) over the fewest-term counts."""
    table = _symmetric_group_3()
    if square:
        table = _direct_product_table(table)
    m = len(table)
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    calls, kernel = [], exactlin.pair_sums
    monkeypatch.setattr(exactlin, "pair_sums", lambda *a: calls.append(1) or kernel(*a))
    rng = np.random.default_rng(m + order)
    u, v = (rand_cycarray(rng, (m, m), order, span=9) for _ in range(2))
    got = ga_mul(u, v, table)
    assert calls == [1]
    fu, fv = (x.fewest_counts().astype(object) for x in (u, v))
    want = np.zeros_like(fu)
    for a1, a2, i in zip(*np.nonzero(fu)):
        want[np.ix_(table[a1], table[a2])] += fu[a1, a2, i] * np.roll(fv, i, axis=-1)
    assert got.scale == u.scale * v.scale
    assert np.array_equal(got.counts.astype(object), want)


# -- rank / solve / nullspace -------------------------------------------------


def _float_rank(arr: CycArray) -> int:
    return int(np.linalg.matrix_rank(embedded(arr), tol=1e-9))



def test_is_prime_matches_trial_division():
    """Miller-Rabin agrees with trial division on every k < 2*10**5, and each
    l that _modular_root picks below 2**31 is a prime, the largest
    l = 1 (mod N) there, with omega a primitive N-th root of unity mod l.
    The limit, a strong pseudoprime to every base, is refused."""
    ks = np.arange(200_000)
    composite = ks < 2
    for d in range(2, math.isqrt(ks[-1]) + 1):
        composite |= (ks % d == 0) & (ks != d)
    assert [_is_prime(int(k)) for k in ks] == (~composite).tolist()
    small_primes = np.flatnonzero(~composite[:math.isqrt(1 << 31) + 1])
    for order in (1, 2, 3, 4, 5, 7, 12):
        ell, omega = exactlin._modular_root(order)
        candidates = np.arange(ell, 1 << 31, order)  # l, then every larger l' = 1 (mod N)
        has_divisor = (candidates[:, None] % small_primes == 0).any(axis=1)
        assert has_divisor.tolist() == [False] + [True] * (candidates.size - 1), order
        assert pow(omega, order, ell) == 1
        assert all(pow(omega, order // q, ell) != 1 for q in (2, 3, 5, 7) if order % q == 0)
    assert MILLER_RABIN_LIMIT == 10_670_053 * 32_010_157
    with pytest.raises(ValueError, match="exact range"):
        _is_prime(MILLER_RABIN_LIMIT)

def test_rank_known_matrices():
    ident = CycArray.zeros((4, 4), 3)
    ident.counts[np.arange(4), np.arange(4), 0] = 1
    assert cyc_rank(ident) == 4

    # DFT-style matrix over Q(zeta_3): full rank 3
    exps = np.outer(np.arange(3), np.arange(3)) % 3
    dft = CycArray.from_exponents(3, exps)
    assert cyc_rank(dft) == 3

    # rank-1 outer product zeta^(i+j)
    outer = CycArray.from_exponents(3, (np.arange(3)[:, None] + np.arange(3)[None, :]) % 3)
    assert cyc_rank(outer) == 1


def test_rank_matches_float_oracle_random():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = rand_cycarray(rng, (4, 5), 3, span=1)
        assert cyc_rank(a) == _float_rank(a)


def test_rank_catches_exact_cancellation_floats_might_miss():
    # row2 = row0 + row1 with huge mismatched scales
    base = np.array([[10**12, 1, 0], [1, -(10**12), 1]], dtype=np.int64)
    counts = np.zeros((3, 3, 3), dtype=np.int64)
    counts[:2, :, 0] = base
    counts[2, :, 0] = base[0] + base[1]
    arr = CycArray(3, Fraction(1), counts)
    assert cyc_rank(arr) == 2


def _low_rank_system(rng, order):
    """A random matrix over Q(zeta_order), a product of two random factors
    through a random inner dimension, so its rank is often below full."""
    rows, cols, inner = (int(x) for x in rng.integers(1, 6, size=3))
    left = rand_cycarray(rng, (rows, inner), order, span=1)
    right = rand_cycarray(rng, (inner, cols), order, span=1)
    return cyc_tensordot(left, right, axes=([1], [0]))


def _assert_reduced_rows(basis: CycArray):
    """Row i is 1 at its last nonzero column f_i (increasing in i) and every
    other row is 0 there: the unique reduced basis of the row space."""
    canon = basis.canonical()
    nonzero = canon.any(axis=-1)
    last = [int(np.flatnonzero(row)[-1]) for row in nonzero]
    assert last == sorted(set(last))
    one = CycArray.zeros((1,), basis.order)
    one.counts[0, 0] = 1
    for i, f in enumerate(last):
        assert basis.take([i]).take([f], axis=1).reshape(1).eq(one)
        assert not np.delete(nonzero[:, f], i).any()


def test_rank_certificate_falls_back_when_singular_mod_ell(rref_calls):
    """Invertible over Q(zeta_5) but zero mod l: the exact elimination decides."""
    ell, _ = exactlin._modular_root(5)
    mat = CycArray.zeros((2, 2), 5)
    mat.counts[0, 0, 0] = ell
    mat.counts[1, 1, 2] = 3 * ell
    mat.counts[0, 1, 1] = 2 * ell
    assert exactlin._modular_rank(mat) == 0
    assert cyc_rank(mat) == 2
    assert len(rref_calls) == 1


def _plain_rref_mod(rows: list, ell: int) -> tuple[list, list]:
    """Reduced echelon rows over F_ell of integer rows, and their pivots, by
    plain Python Gauss-Jordan elimination."""
    rows, pivots = [[x % ell for x in row] for row in rows], []
    for c in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, ell)
        rows[rank] = [x * inv % ell for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank:
                f = rows[i][c]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _test_matrices(shape, ell, rng):
    """Monomial, sparse with a repeated and a zero row, low-rank, row-permuted
    low-rank and dense integer matrices."""
    rows, cols = shape
    k = min(shape)
    monomial = np.zeros(shape, dtype=np.int64)
    monomial[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = rng.integers(1, 50, k)
    sparse = (rng.random(shape) < 0.3) * rng.integers(1, 4, shape)
    sparse[-1] = sparse[0]
    sparse[1] = 0
    low = rng.integers(-3, 4, (rows, 2)) @ rng.integers(-3, 4, (2, cols))
    dense = rng.integers(-(ell - 1), ell, shape)
    return monomial, sparse, low, low[rng.permutation(rows)], dense


@pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7)])
def test_modular_rank_matches_plain_elimination(shape):
    """On integer matrices (N = 1), the int64 elimination gives plain
    elimination's rank over F_l on every kind of ``_test_matrices``."""
    ell, _ = exactlin._modular_root(1)
    for m in _test_matrices(shape, ell, np.random.default_rng(31)):
        mat = CycArray(1, Fraction(1), m[..., None])
        assert exactlin._modular_rank(mat) == len(_plain_rref_mod(m.tolist(), ell)[1])


@pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7), (40, 8)])
def test_rank_kernel_matches_plain_elimination(shape):
    """The int64 kernel's rank is the pivot count of plain Gauss-Jordan, and
    it leaves its argument as it was."""
    ell, _ = exactlin._modular_root(1)
    for m in _test_matrices(shape, ell, np.random.default_rng(32)):
        a = m % ell
        before = a.copy()
        assert exactlin._rank_mod(a, ell) == len(_plain_rref_mod(m.tolist(), ell)[1])
        assert np.array_equal(a, before)


@pytest.mark.parametrize("order", [1, 5, 12])
def test_rank_certificate_only_when_full(order, rref_calls):
    """The modular rank bounds the exact rank from below; every rank short of
    full comes from ``_rref``, and a full one is certified without it."""
    rng = np.random.default_rng(200 + order)
    deficient = 0
    for _ in range(12):
        mat = _low_rank_system(rng, order)
        exact = len(exactlin._rref(mat)[1])
        assert exactlin._modular_rank(mat) <= exact
        rref_calls.clear()
        assert cyc_rank(mat) == exact
        assert bool(rref_calls) == (exact < min(mat.shape))
        deficient += exact < min(mat.shape)
    assert deficient  # the random systems reach the exact fallback


@pytest.mark.parametrize("order", [1, 2, 4, 6, 7, 9, 12])
def test_rank_nullspace_solve_exact_identities(order):
    rng = np.random.default_rng(100 + order)
    for _ in range(8):
        mat = _low_rank_system(rng, order)
        rows, cols = mat.shape
        rank = cyc_rank(mat)
        null = cyc_nullspace(mat)
        assert null.shape == (cols - rank, cols)  # rank + nullity = columns
        assert is_zero(cyc_tensordot(mat, null, axes=([1], [1])))
        _assert_reduced_rows(null)

        x0 = rand_cycarray(rng, (cols,), order)
        rhs = cyc_tensordot(mat, x0, axes=([1], [0]))
        sol = cyc_solve(mat, rhs)
        if rank < cols:
            assert sol is None  # underdetermined
            continue
        assert cyc_tensordot(mat, sol, axes=([1], [0])).eq(rhs)
        assert sol.eq(x0)
        left_null = cyc_nullspace(mat.transpose((1, 0)))
        if left_null.shape[0]:
            # y . rhs = 0 for a left null vector y; adding a nonzero multiple
            # of e_i with y_i != 0 leaves the column space
            i = int(np.flatnonzero(~left_null.take([0]).zero_mask())[0])
            bumped = CycArray(order, rhs.scale, rhs.counts.copy())
            bumped.counts[i, 0] += 1
            assert cyc_solve(mat, bumped) is None


def test_solve_overflow_is_named():
    """A solution whose counts over the common denominator pass int64 raises."""
    diag = CycArray.zeros((3, 3), 3)
    diag.counts[np.arange(3), np.arange(3), 0] = [3 ** 30, 5 ** 20, 7 ** 15]
    with pytest.raises(CotwistError, match="int64"):
        cyc_solve(diag, CycArray.from_exponents(3, np.zeros(3, dtype=np.int64)))


def test_solve_and_nullspace():
    rng = np.random.default_rng(37)
    a = rand_cycarray(rng, (3, 3), 3, span=1)
    while _float_rank(a) < 3:
        a = rand_cycarray(rng, (3, 3), 3, span=1)
    rhs = CycArray(3, Fraction(1), np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]]))  # 1, 0, zeta
    sol = cyc_solve(a, rhs)
    assert isinstance(sol, CycArray) and sol.shape == (3,)
    assert cyc_tensordot(a, sol, axes=([1], [0])).eq(rhs)
    assert cyc_nullspace(a).shape == (0, 3)

    # singular system: the nullspace row annihilates the matrix and is reduced
    sing = CycArray.from_exponents(3, np.array([[0, 1], [1, 2]]))  # [[1, z], [z, z^2]]
    null = cyc_nullspace(sing)
    assert null.shape == (1, 2)
    assert is_zero(cyc_tensordot(sing, null, axes=([1], [1])))
    assert null.eq(CycArray(3, Fraction(1), np.array([[[0, -1, 0], [1, 0, 0]]])))  # [-z, 1]
    assert cyc_solve(sing, rhs.take([0, 1])) is None


def _identity(n, order):
    ident = CycArray.zeros((n, n), order)
    ident.counts[np.arange(n), np.arange(n), 0] = 1
    return ident


def test_nullspace_of_zero_rows_is_identity():
    zero = CycArray.zeros((4, 3), 5)
    null = cyc_nullspace(zero)
    assert null.eq(_identity(3, 5))
    assert cyc_rank(zero) == 0


def test_nullspace_reduced_form_is_unique():
    """Two spanning sets of one subspace give the same reduced nullspace basis."""
    rng = np.random.default_rng(47)
    a = rand_cycarray(rng, (2, 5), 3, span=1)
    mix = rand_cycarray(rng, (2, 2), 3, span=1)
    while _float_rank(a) < 2 or _float_rank(mix) < 2:
        a = rand_cycarray(rng, (2, 5), 3, span=1)
        mix = rand_cycarray(rng, (2, 2), 3, span=1)
    b = cyc_tensordot(mix, a, axes=([1], [0]))
    assert cyc_nullspace(a).eq(cyc_nullspace(b))
    assert cyc_nullspace(a).shape == (3, 5)


def test_tensordot_overflow_guard():
    big = CycArray.zeros((2, 2), 3)
    big.counts[..., 0] = 1 << 40
    with pytest.raises(CotwistError, match="int64"):
        cyc_tensordot(big, big, axes=([1], [0]))
    with pytest.raises(CotwistError, match="int64"):
        cyc_tensordot(big, big, axes=0)
    # just under the bound: 2^40 * 2^20 * 2 (contracted) * 3 (order) < 2^63
    small = CycArray.zeros((2, 2), 3)
    small.counts[..., 0] = 1 << 20
    prod = cyc_tensordot(big, small, axes=([1], [0]))
    assert int(prod.counts[0, 0, 0]) == 2 * (1 << 60)


def test_from_cyclotomics_overflow_is_named(tmp_path):
    """Twist-file literals whose common denominator overflows int64 counts."""
    path = tmp_path / "twist.txt"
    path.write_text(f"3 1\n1/{3 ** 40}*E(3)^0;1/{7 ** 20}*E(3)^1\n")
    with pytest.raises(CotwistError, match=f"{path}.*overflow int64"):
        load_twist_matrix(path)


# -- group algebra helpers ----------------------------------------------------


def _z3_table():
    return (np.arange(3)[:, None] + np.arange(3)[None, :]) % 3


def test_ga_mul_is_convolution():
    rng = np.random.default_rng(41)
    table = _z3_table()
    u = rand_cycarray(rng, (3,), 3)
    v = rand_cycarray(rng, (3,), 3)
    prod = ga_mul(u, v, table)
    ou, ov, op = values(u), values(v), values(prod)
    for x in range(3):
        acc = zero(3)
        for a in range(3):
            for b in range(3):
                if (a + b) % 3 == x:
                    acc = add(acc, mul(ou[a], ov[b]))
        assert equal(op[x], acc)


def test_ga_mul_prunes_on_value_support(monkeypatch):
    """Cells whose counts are all equal have value 0 and are not support: two
    pair elements with raw counts in all 81 cell pairs but one cell of value
    each take one contraction over the one-cell support, not one over K^4,
    and give the plain reference count for count."""
    table = _z3_table()
    u, v = CycArray.zeros((3, 3), 3), CycArray.zeros((3, 3), 3)
    u.counts[...], v.counts[...] = 2, -1
    u.counts[1, 2, 1] += 1  # zeta at 1 x 2
    v.counts[2, 2, 2] += 3  # 3 zeta^2 at 2 x 2
    shapes = []
    kernel = exactlin.contract_counts
    monkeypatch.setattr(exactlin, "contract_counts", lambda src, at, b:
                        shapes.append((at.shape, b.shape)) or kernel(src, at, b))
    want = CycArray.zeros((3, 3), 3)
    want.counts[0, 1, 0] = 3  # (1 x 2)(2 x 2) = 0 x 1 with value 3 zeta^3
    got = ga_mul(u, v, table)
    assert got.eq(want)
    assert shapes == [((9, 1), (1, 1, 3))]  # index [(x, y), support cell], not K^4 cells
    for idx, value in np.ndenumerate(ga_product(u, v, table)):
        assert values(got)[idx] == value


def test_ga_identity_is_neutral():
    rng = np.random.default_rng(43)
    table = _z3_table()
    u = rand_cycarray(rng, (3,), 3)
    e = ga_identity(3, 3)
    assert ga_mul(e, u, table).eq(u)
    assert ga_mul(u, e, table).eq(u)


def test_invert_in_group_algebra():
    table = _z3_table()
    # u = 2*e + g  is invertible in C[Z/3]
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 0] = 2
    counts[1, 0] = 1
    u = CycArray(3, Fraction(1), counts)
    uinv = invert_in_group_algebra(u, table)
    assert ga_mul(u, uinv, table).eq(ga_identity(3, 3))
    assert ga_mul(uinv, u, table).eq(ga_identity(3, 3))

    # e + g + g^2 annihilates (1 - g): not invertible
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[:, 0] = 1
    ones = CycArray(3, Fraction(1), counts)
    with pytest.raises(CotwistError):
        invert_in_group_algebra(ones, table)


def _element(order, cells):
    """The element of C[S3] with the given counts at the given group indices."""
    counts = np.zeros((6, order), dtype=np.int64)
    for index, cell in cells.items():
        counts[index] = cell
    return CycArray(order, Fraction(1), counts)


def _full_inverse(u, table):
    """The reference: the |K| x |K| solve L[x, b] = u[x b^-1], L u^-1 = e, over all of K."""
    inv = np.argmax(table == 0, axis=1)
    return cyc_solve(u.take(table[:, inv]), ga_identity(table.shape[0], u.order))


def _gauge_q(request):
    from cotwist.twist import _q_element

    t = request.getfixturevalue("p3_gauge_diag_bundle")[0].t
    mul, inv = t.group.mul.astype(np.int64), t.group.inv.astype(np.int64)
    return mul, _q_element(t.J, mul, inv)


S3 = _symmetric_group_3()  # 0 = e; 1, 2, 3 transpositions; 4, 5 three-cycles

INVERSE_CASES = {
    # 3 zeta at a three-cycle, beside a cell whose raw counts 1 + zeta + zeta^2 are 0
    "monomial": (lambda _: (S3, _element(3, {4: [0, 3, 0], 1: [1, 1, 1]})), 1),
    # 2 s + s r, r a three-cycle: S = <r>, larger than the support
    "normal-subgroup": (lambda _: (S3, _element(3, {1: [2, 0, 0], S3[1, 4]: [1, 0, 0]})), 3),
    # 2 r + zeta r s: S = <s> is not normal, so S a^-1 is not a^-1 S
    "non-normal-subgroup": (lambda _: (S3, _element(3, {4: [2, 0, 0], S3[4, 1]: [0, 1, 0]})), 2),
    "dense": (lambda _: (S3, rand_cycarray(np.random.default_rng(47), (6,), 3)), 6),
    "gauge-twist-q": (_gauge_q, 3),
}


@pytest.mark.parametrize("case", INVERSE_CASES)
def test_inverse_solved_in_support_subgroup(request, solve_shapes, case):
    """The inverse is solved on the subgroup S the support generates, as one
    |S| x |S| system, and equals the |K| x |K| solve count for count, with its
    scale; a cell whose raw counts have value 0 is not support."""
    build, size = INVERSE_CASES[case]
    table, u = build(request)
    solve_shapes.clear()  # building the gauge twist solves too
    uinv = invert_in_group_algebra(u, table)
    assert solve_shapes == [(size, size)]
    full = _full_inverse(u, table)
    assert np.array_equal(uinv.counts, full.counts)
    assert uinv.scale == full.scale
    assert ga_mul(u, uinv, table).eq(ga_identity(table.shape[0], u.order))


def test_sparse_zero_divisor_is_not_inverted(solve_shapes):
    """1 - s with s^2 = e annihilates 1 + s: its 2 x 2 system on <s> is singular."""
    with pytest.raises(CotwistError):
        invert_in_group_algebra(_element(3, {0: [1, 0, 0], 1: [-1, 0, 0]}), S3)
    assert solve_shapes == [(2, 2)]
