"""Exact cyclotomic arrays and linear algebra, cross-checked two ways:
the reference arithmetic of ``cyc_reference`` and complex-float embeddings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cotwist import exactlin
from cotwist.errors import CotwistError
from cotwist.exactlin import (CycArray, contract_chunks, contract_counts, cyc_nullspace, cyc_rank,
                              cyc_solve, cyc_tensordot, ga_identity, ga_mul,
                              invert_in_group_algebra, pair_sums, sum_counts)
from cotwist.scalars import MILLER_RABIN_LIMIT, _is_prime, _reduction_table, euler_phi
from cotwist.twist import _sides_agree, load_twist_matrix
from cyc_reference import (add, canonical, embed, equal, ga_product, is_zero, mul, on_powers,
                           values, zero)
from float_reference import embedded


def rand_cycarray(rng, shape, order, span=2):
    """Random values: random counts in [-span, span] on the N powers of zeta."""
    counts = rng.integers(-span, span + 1, size=(*shape, order))
    return on_powers(order, Fraction(1, int(rng.integers(1, 4))), counts)


def test_tensordot_casts_its_operand_a_slice_at_a_time():
    """cyc_tensordot hands ``contract_counts`` its operand with no index, so a
    (729 * 729, 2) operand contracted with one column is cast to float32 a
    slice at a time, and never gathered: the peak stays well below one
    float32 copy of it."""
    import tracemalloc

    a = CycArray(3, Fraction(1), np.ones((729, 729, 2), dtype=np.int64))  # 1 + zeta
    b = CycArray(3, Fraction(1), np.ones((729, 1, 2), dtype=np.int64))
    one_copy = 729 * 729 * 2 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        out = cyc_tensordot(a, b, axes=([1], [0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(out.counts == [0, 729])  # (1 + zeta)^2 = zeta at N = 3
    assert peak < 0.25 * one_copy, peak / one_copy


@pytest.mark.parametrize("rows, inner, cols, order", [(7 * 81, 81, 1, 3), (7 * 27, 27, 3, 4),
                                                      (625, 25, 25, 5), (40, 300, 2, 1)])
def test_chunk_operand_slices_stay_small(rows, inner, cols, order):
    """No chunk's operand slice, rows times K phi counts in the matmul's
    dtype, passes max(64 KiB, K C counts of that dtype): a narrow
    contraction (C = 1, as the character screen's weighted sum) is cut by
    its operand rows, not only by its result rows."""
    phi = euler_phi(order)
    src = np.ones((rows, inner, phi), dtype=np.int64)
    b = np.ones((inner, cols, phi), dtype=np.int64)
    chunks = list(contract_chunks(src, None, b, order, rows))
    assert sum(len(part) for _, part, _ in chunks) == rows
    for _, part, _ in chunks:
        size = part.dtype.itemsize
        assert len(part) * inner * phi * size <= max(exactlin.KERNEL_CHUNK * 8, inner * cols * size)


def test_tensordot_over_an_empty_axis_is_zero():
    a = CycArray(3, Fraction(1), np.zeros((2, 0, 2), dtype=np.int64))
    b = CycArray(3, Fraction(1), np.zeros((0, 4, 2), dtype=np.int64))
    out = cyc_tensordot(a, b, axes=([1], [0]))
    assert out.shape == (2, 4) and not out.counts.any()


def test_round_trip_object_and_back():
    """Reference values, reduced mod Phi_N, are the same counts again."""
    rng = np.random.default_rng(3)
    a = rand_cycarray(rng, (4, 3), 5)
    counts = [[[int(c / a.scale) for c in canonical(v)] for v in row] for row in values(a)]
    assert a.eq(CycArray(5, a.scale, np.array(counts, dtype=np.int64)))
    assert np.array_equal(a.counts, counts)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 12])
def test_counts_are_the_phi_canonical_coefficients(order):
    """A CycArray refuses a last axis other than phi(N), and from_exponents
    gives the canonical counts of zeta^k, the reference's reduction of x^k."""
    phi = euler_phi(order)
    for width in {order, phi + 1} - {phi}:
        with pytest.raises(ValueError, match="phi"):
            CycArray(order, Fraction(1), np.zeros((2, width), dtype=np.int64))
    roots = CycArray.from_exponents(order, np.arange(-order, 2 * order))
    assert roots.counts.shape == (3 * order, phi)
    for k, cell in zip(range(-order, 2 * order), roots.counts):
        power = [0] * order
        power[k % order] = 1
        assert [int(x) for x in canonical(power)] == list(cell)


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
    arr = on_powers(3, 1, [[1, 1, 1]])
    assert is_zero(arr)
    assert arr.eq(CycArray.zeros((1,), 3))


def test_scale_alignment_in_eq():
    a = CycArray(3, Fraction(1, 2), np.array([[2, 0]], dtype=np.int64))
    b = CycArray(3, Fraction(1, 3), np.array([[3, 0]], dtype=np.int64))
    assert a.eq(b)
    assert not a.eq(CycArray(3, Fraction(1, 3), np.array([[3, 1]], dtype=np.int64)))


def test_scale_alignment_refuses_wraparound():
    """A count of -2**63 doubled to a common scale would wrap.  np.abs of it
    is -2**63 too, which hid it from a max of absolute values; refused by name."""
    a = CycArray(3, Fraction(1), np.array([[-(1 << 63), 1]], dtype=np.int64))
    b = CycArray(3, Fraction(1, 2), np.array([[1, 0]], dtype=np.int64))
    with pytest.raises(CotwistError, match="a common scale would overflow int64"):
        a.eq(b)


def test_conj_matches_embedding():
    rng = np.random.default_rng(17)
    for order in (1, 2, 3, 5, 12):
        a = rand_cycarray(rng, (4,), order)
        assert np.allclose(embedded(a.conj()), np.conj(embedded(a)))


def test_conj_overflow_is_named():
    """Conjugation is one product with the reduction table's rows, exact
    while max|count| times their largest absolute column sum (2 at N = 3)
    stays below 2**63, refused by name past it."""
    q = (1 << 62) - 1
    a = CycArray(3, Fraction(1), np.array([[0, q]], dtype=np.int64))  # q zeta
    assert list(a.conj().counts[0]) == [-q, -q]  # q zeta^2 = -q - q zeta
    with pytest.raises(CotwistError, match="reduction table would overflow int64"):
        CycArray(3, Fraction(1), np.array([[0, q + 1]], dtype=np.int64)).conj()


@pytest.mark.parametrize("order, growth", [(3, 2), (6, 4), (15, 6)])
def test_canonical_counts_bound(order, growth):
    """Canonical count k of raw counts on the N powers of zeta, one product
    with the reduction table, is at most max|count| times column k's
    absolute sum of the table: with row 1 at that bound, just below 2**63,
    the reference's canonical coefficients, count for count; past it,
    refused by name."""
    largest = ((1 << 63) - 1) // growth
    red = _reduction_table(order)
    widest = np.abs(red).sum(axis=0).argmax()
    assert np.abs(red[:, widest]).sum() == growth
    rng = np.random.default_rng(order)
    counts = rng.choice([-largest, largest], size=(4, order))
    counts[1] = np.where(red[:, widest] < 0, -largest, largest)
    canon = exactlin._table_product(counts, red)
    for cell, row in zip(counts, canon):
        assert [int(x) for x in canonical([int(c) for c in cell])] == list(row)
    assert canon[1, widest] == largest * growth
    counts[0, 0] = largest + 1
    with pytest.raises(CotwistError, match="reduction table would overflow int64"):
        exactlin._table_product(counts, red)


def test_single_term_detection():
    """twist._single_terms reads c zeta^k off each cell's canonical counts,
    also where they have several nonzeros (zeta^2 = -1 - zeta at N = 3), and
    finds none in a cell of two terms or of zero."""
    from cotwist.twist import _single_terms as single

    counts = CycArray.from_exponents(3, [[1, 2], [0, 2]]).counts * [[[2], [-1]], [[3], [1]]]
    exp, coef = single(counts, 3)
    assert exp.tolist() == [[1, 2], [0, 2]] and coef.tolist() == [[2, -1], [3, 1]]
    assert list(counts[0, 1]) == [1, 1]  # -zeta^2 = 1 + zeta: two canonical counts, one term
    for cell in ([1, 2], [0, 0]):  # 1 + 2 zeta, and 0
        counts[1, 1] = cell
        assert single(counts, 3) is None
    exp, coef = single(CycArray.from_exponents(4, [3]).counts * -2, 4)  # -2 zeta^3 = 2 zeta
    assert (exp.tolist(), coef.tolist()) in (([1], [2]), ([3], [-2]))


def _single_terms(rng, shape, order, scale):
    exps = rng.integers(0, order, size=shape)
    arr = CycArray.from_exponents(order, exps, scale)
    arr.counts *= rng.integers(-3, 4, size=(*shape, 1))
    return arr


# -- the contraction kernel -----------------------------------------------------


def _contract(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """contract_counts of (R, K, phi) counts ``a``, read through the identity index."""
    rows, inner, phi = a.shape
    return contract_counts(a.reshape(-1, phi), np.arange(rows * inner).reshape(rows, inner), b,
                           order)


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


def _padded(cell, order: int) -> tuple:
    """phi(N) canonical counts as a reference value: N coefficients, zeros past phi."""
    return tuple(int(x) for x in cell) + (0,) * (order - len(cell))


def _canonical_ints(value) -> list:
    return [int(x) for x in canonical(value)]


def _mult_largest(b: np.ndarray, order: int) -> int:
    """max|M| for the multiplication matrix M of ``b``: the largest canonical
    count of zeta^i b[k, c], i < phi(N), by the reference."""
    phi = euler_phi(order)
    powers = [_padded(row, order) for row in np.eye(phi, dtype=np.int64)]
    return max((abs(x) for cell in b.reshape(-1, phi) for power in powers
                for x in _canonical_ints(mul(_padded(cell, order), power))), default=0)


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
    got = CycArray(order, a.scale * b.scale, _contract(a.counts, b.counts, order))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(values(got)):
        assert equal(value, want[idx])


@pytest.mark.parametrize("chunk", [1 << 17, 1])
def test_contract_counts_exponent_sums_wrap(chunk, monkeypatch):
    """Order 7: exponent sums up to 6 + 6 = 12 >= N wrap mod N, with negative counts."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    order = 7
    a, b = np.zeros((2, 1, order), dtype=np.int64), np.zeros((1, 2, order), dtype=np.int64)
    a[0, 0, [6, 5]] = [-4, 1]
    a[1, 0, [6, 0]] = [2, -3]
    b[0, 0, [6, 3]] = [-5, 2]
    b[0, 1, 6] = 7
    a, b = on_powers(order, Fraction(1, 3), a), on_powers(order, Fraction(1, 2), b)
    out = _contract(a.counts, b.counts, order)
    got, oa, ob = values(CycArray(order, a.scale * b.scale, out)), values(a), values(b)
    for i, j in np.ndindex(2, 2):
        assert equal(got[i, j], mul(oa[i, 0], ob[0, j]))
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
    which on canonical counts are the same counts."""
    rng = np.random.default_rng(300 + order)
    a = rand_cycarray(rng, (4, 5), order, span=3)
    b = rand_cycarray(rng, (5, 3), order, span=3).scale_by(Fraction(5, 7))
    assert a.scale != b.scale
    got = CycArray(order, a.scale * b.scale, _contract(a.counts, b.counts, order))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(values(got)):
        assert equal(value, want[idx])


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
    """Counts at the 2**53 bound K phi max|a| max|M|, M the multiplication
    matrix of b: float64 below it, the int64 matmul from it on (below
    2**63), and the reference values either way."""
    order, inner = 5, 3
    phi = euler_phi(order)
    rng = np.random.default_rng(71)
    pattern = rng.integers(-1, 2, size=(inner, 2, phi))
    pattern[1, 1, 3] = -1
    grow = _mult_largest(pattern, order)
    largest = math.isqrt(((1 << 53) - 1) // (2 * inner * phi * grow)) + past
    bound = inner * phi * largest * largest * grow
    assert (2 * bound >= 1 << 53) == past and bound < 1 << 63
    a = rng.integers(-largest, largest + 1, size=(2, inner, phi))
    a[0, 0, 0] = largest
    b = pattern * largest
    assert _mult_largest(b, order) == largest * grow
    got = _contract(a, b, order)
    dtype = np.int64 if past else np.float64
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)]
    assert np.array_equal(got.astype(object), _int_convolution(a, b, order))


def _int_convolution(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """out[r, c] = sum_k a[r, k] b[k, c] by the reference: the x^N - 1
    convolution of the counts padded to N coefficients, reduced mod Phi_N,
    on Python ints in plain loops."""
    rows, inner, phi = a.shape
    out = np.zeros((rows, b.shape[1], phi), dtype=object)
    for r, c in np.ndindex(rows, b.shape[1]):
        acc = zero(order)
        for k in range(inner):
            acc = add(acc, mul(_padded(a[r, k], order), _padded(b[k, c], order)))
        out[r, c] = _canonical_ints(acc)
    return out


@pytest.mark.parametrize("signs", ["equal", "mixed"])
@pytest.mark.parametrize("limit, above, dtype", [(24, False, np.float32),
                                                 (24, True, np.float64),
                                                 (53, False, np.float64)])
def test_contract_counts_tiers_at_their_bounds(limit, above, dtype, signs, spies):
    """All-max counts +-m, with 2 bound = 2 K phi m max|M| just below 2**24,
    just above it and just below 2**53: float32, float64 and float64, and
    the Python-int convolution count for count."""
    order, inner = 5, 3
    phi = euler_phi(order)
    rng = np.random.default_rng(limit + above)
    a = np.ones((2, inner, phi), dtype=np.int64)
    b = np.ones((inner, 3, phi), dtype=np.int64)
    if signs == "mixed":
        a *= rng.choice([-1, 1], size=a.shape)
        b *= rng.choice([-1, 1], size=b.shape)
    grow = _mult_largest(b, order)
    m = math.isqrt(((1 << limit) - 1) // (2 * inner * phi * grow)) + above
    a, b = a * m, b * m
    bound = inner * phi * m * m * grow
    assert (2 * bound < 1 << limit) != above
    out = _contract(a, b, order)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)]
    assert out.dtype == np.int64
    assert np.array_equal(out.astype(object), _int_convolution(a, b, order))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7])
def test_contract_counts_single_terms_in_float32(order, spies):
    """Random single-term counts, as the twist and the dual algebras carry:
    the float32 tier, and the Python-int convolution count for count."""
    rng = np.random.default_rng(500 + order)
    a = _single_terms(rng, (6, 4), order, Fraction(1)).counts
    b = _single_terms(rng, (4, 5), order, Fraction(1)).counts
    out = _contract(a, b, order)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(np.float32,) * 2]
    assert np.array_equal(out.astype(object), _int_convolution(a, b, order))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 12])
@pytest.mark.parametrize("limit, above", [(24, False), (24, True), (53, False), (53, True),
                                          (63, True)])
def test_products_at_each_tier_edge(limit, above, order, spies):
    """contract_counts and pair_sums on canonical counts, all m times a fixed
    pattern of +-1, with 2 bound = 2 K phi m max|M| just below and just
    above 2**24 and 2**53: float32, float64, float64, int64, and the
    reference's x^N - 1 convolution, reduced mod Phi_N, count for count.
    Past 2**63 both refuse by name."""
    phi = euler_phi(order)
    rng = np.random.default_rng(10 * order + limit + above)
    pattern = rng.choice([-1, 1], size=(3, 2, phi))
    grow = _mult_largest(pattern, order)
    c = (1 if limit == 63 else 2) * 3 * phi * grow  # c m**2 against 2**limit
    m = math.isqrt(((1 << limit) - 1) // c) + above
    assert (c * m * m >= 1 << limit) == above
    a, b = np.full((2, 3, phi), m, dtype=np.int64), pattern * m
    partner, groups = np.array([[2, 0, 1], [1, 2, 0]]), np.array([[1], [2], [0]])
    if limit == 63:
        with pytest.raises(CotwistError, match="exact contraction would overflow int64"):
            _contract(a, b, order)
        with pytest.raises(CotwistError, match="exact contraction would overflow int64"):
            pair_sums(b.swapaxes(0, 1), a, partner, groups, order)
        return
    dtype = {(24, False): np.float32, (53, True): np.int64}.get((limit, above), np.float64)
    out = _contract(a, b, order)
    assert np.array_equal(out.astype(object), _int_convolution(a, b, order))
    sums = pair_sums(b.swapaxes(0, 1), a, partner, groups, order)  # first[s, t] = b[t, s]
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)] * 2
    want = _pair_sums_reference(b.swapaxes(0, 1), a, partner, groups, order)
    assert np.array_equal(sums.astype(object), want)


@pytest.mark.parametrize("largest, rest, dtype", [(1 << 4, 1 << 4, np.float32),
                                                  (1 << 20, 1 << 20, np.float64),
                                                  (1 << 28, 1 << 28, np.int64),
                                                  (1 << 20, 1 << 4, np.float64)])
def test_gathered_contraction_matches_reference(largest, rest, dtype, spies, monkeypatch):
    """The kernel's own gather: src[at] contracted with b equals the reference
    sums of the gathered values, count for count, in each tier.  The tier is
    read off the source, whose largest count sits at a cell the index skips:
    with every other count below 2**4 the gather alone would take float32,
    the source takes float64.  7 rows at 1 row a slice (2 in float32, whose
    counts take half the bytes) end on a short slice."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", 20)  # 20 // ((K + C) phi = 20) = 1 row of 8 bytes
    order, rows, inner, cols = 5, 7, 3, 2
    phi = euler_phi(order)
    rng = np.random.default_rng(largest.bit_length() + rest.bit_length())
    src = rng.integers(-rest + 1, rest, size=(9, phi))
    src[4, 2] = largest                                # the largest cell: never read
    at = rng.choice([0, 1, 2, 3, 5, 6, 7, 8], size=(rows, inner))
    b = rand_cycarray(rng, (inner, cols), order, span=rest)
    out = contract_counts(src, at, b.counts, order)
    slices = 4 if dtype == np.float32 else 7
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)] * slices
    got = values(CycArray(order, b.scale, out))
    want = _raw_contraction(CycArray(order, Fraction(1), src[at]), b)
    for idx, value in np.ndenumerate(got):
        assert equal(value, want[idx])


@pytest.mark.parametrize("chunk, inner, group, sizes", [
    # (C, rows a chunk in float32, then in float64); a row is (K + C) phi = (K + C) 4 counts
    (20, 3, 1, (2, [2, 2, 2, 2, 2, 1], [1] * 11)),   # 40 or 20 counts // 20
    (20, 3, 3, (2, [3, 3, 3, 2], [3, 3, 3, 2])),     # whole groups of 3 rows, at least one group
    (4, 3, 1, (2, [1] * 11, [1] * 11)),              # K C = 6 cells of b: 8 or 6 // 20, one row
    (4, 10, 1, (40, [2, 2, 2, 2, 2, 1], [2, 2, 2, 2, 2, 1])),  # K C = 400 // 200: 2 rows
    (4, 15, 1, (60, [3, 3, 3, 2], [3, 3, 3, 2])),    # K C = 900 // 300: 3 rows
])
def test_chunks_hold_kernel_chunk_or_b_counts(chunk, inner, group, sizes, monkeypatch):
    """A chunk is a whole number of row groups of about max(the bytes of
    KERNEL_CHUNK int64 counts, K C counts) in the matmul's dtype, operand
    and result rows together, so twice the rows in float32 as in float64,
    its index asked for a chunk at a time; each chunk comes in that dtype
    with the contraction's bound, and the chunks, concatenated, are
    ``contract_counts``'s int64 result count for count."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    cols, *sizes = sizes
    order, rows = 5, 11
    phi = euler_phi(order)
    rng = np.random.default_rng(inner + group)
    src = rng.integers(-3, 4, size=(9, phi))
    at = rng.integers(0, 9, size=(rows, inner))
    b = rng.integers(-3, 4, size=(inner, cols, phi))
    grow = _mult_largest(b, order)
    for largest, dtype, want in zip((3, 1 << 40), (np.float32, np.float64), sizes):
        src[0, 0] = largest
        asked = []

        def index(lo, hi):
            asked.append((lo, hi))
            return at[lo:hi]

        chunks = list(contract_chunks(src, index, b, order, rows, group))
        assert [len(part) for _, part, _ in chunks] == want
        assert asked == [(lo, lo + len(part)) for lo, part, _ in chunks]
        assert all(lo % group == 0 for lo, _, _ in chunks)
        assert {bound for _, _, bound in chunks} == {inner * phi * largest * grow}
        assert {part.dtype for _, part, _ in chunks} == {np.dtype(dtype)}
        assert np.array_equal(np.concatenate([part for _, part, _ in chunks]),
                              contract_counts(src, at, b, order))


def test_tensordot_keeps_raw_counts():
    """cyc_tensordot's counts are the reference's sums reduced mod Phi_N, for
    one axis, two axes and the outer product."""
    rng = np.random.default_rng(73)
    order = 5
    a = rand_cycarray(rng, (3, 4), order)
    b = rand_cycarray(rng, (4, 2), order)
    a.counts[0, 0] = 0
    got = values(cyc_tensordot(a, b, axes=([1], [0])))
    want = _raw_contraction(a, b)
    for idx, value in np.ndenumerate(got):
        assert equal(value, want[idx])
    c = rand_cycarray(rng, (2, 3, 2), order)
    both = values(cyc_tensordot(c, c, axes=([0, 2], [0, 2])))  # [j, j']
    flat = c.transpose((1, 0, 2)).reshape(3, 4)
    want = _raw_contraction(flat, flat.transpose((1, 0)))
    for idx, value in np.ndenumerate(both):
        assert equal(value, want[idx])
    outer = values(cyc_tensordot(a, b, axes=0))
    oa, ob = values(a), values(b)
    for i, j, k, l in np.ndindex(3, 4, 4, 2):
        assert equal(outer[i, j, k, l], mul(oa[i, j], ob[k, l]))


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
    """Random dense operands in C[S3 x S3]: the reference product, through one
    pair_sums, the plain sum of products over K^4."""
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
        assert equal(og[idx], value)


@pytest.mark.parametrize("shape", [(6,), (6, 6)], ids=["C[S3]", "C[S3 x S3]"])
def test_sparse_ga_mul_on_a_non_abelian_group(shape):
    """A two-cell element of C[S3] or C[S3 x S3] on either side of a dense one:
    u[a] v[a^-1 x] over u's support, or u[x b^-1] v[b] over v's, gives the
    plain reference product."""
    table = _symmetric_group_3()
    rng = np.random.default_rng(83)
    dense = rand_cycarray(rng, shape, 5)
    raw = np.zeros((*shape, 5), dtype=np.int64)
    cells = [(1,), (4,)] if len(shape) == 1 else [(1, 4), (4, 2)]  # a transposition, a 3-cycle
    for cell, exps in zip(cells, ([2, 0, 1, 0, 0], [0, -1, 0, 0, 3])):
        raw[cell] = exps
    sparse = on_powers(5, Fraction(1, 3), raw)
    for u, v in ((sparse, dense), (dense, sparse)):
        got = values(ga_mul(u, v, table))
        for idx, value in np.ndenumerate(ga_product(u, v, table)):
            assert equal(got[idx], value)


def test_sparse_ga_mul_overflow_guard():
    """One cell each: the contraction over the one-cell support is exact at
    counts of 2**30 and refuses, by name, counts near 2**32, whose products
    could pass 2**63."""
    big = CycArray.zeros((3,), 3)
    big.counts[0, 1] = -(1 << 30)
    square = ga_mul(big, big, _z3_table()).counts[0]  # 2**60 zeta^2 = -2**60 (1 + zeta)
    assert list(square) == [-(1 << 60), -(1 << 60)]  # exact, no wrap
    near = CycArray(3, Fraction(1), np.zeros((3, 2), dtype=np.int64))
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
    multiplied, not refused, and equal the reference sum."""
    u, v = CycArray.zeros((3, 3), 3), CycArray.zeros((3, 3), 3)
    u.counts[..., 0], v.counts[..., 0] = 1 << 30, 1 << 29
    got = ga_mul(u, v, _z3_table())
    want = ga_product(u, v, _z3_table())
    assert int(got.counts.max()) == 9 << 59
    for x in np.ndindex(3, 3):
        assert equal(values(got)[x], want[x])


def _pair_sums_reference(first, second, partner, groups, order):
    """out[g, b] = sum over c S + s in groups[g] and t of first[s, t]
    second[c, partner[b, t]] by the reference: the x^N - 1 convolution of
    the counts padded to N coefficients, reduced mod Phi_N, on Python ints
    in plain loops; a partner D adds nothing."""
    S, T, phi = first.shape
    D = second.shape[1]
    out = np.zeros((len(groups), len(partner), phi), dtype=object)
    for g, b in np.ndindex(len(groups), len(partner)):
        acc = zero(order)
        for cs in groups[g]:
            c, s = divmod(int(cs), S)
            for t in range(T):
                d = partner[b, t]
                if d < D:
                    acc = add(acc, mul(_padded(first[s, t], order), _padded(second[c, d], order)))
        out[g, b] = _canonical_ints(acc)
    return out


@pytest.mark.parametrize("chunk", [1, exactlin.KERNEL_CHUNK, 1 << 40])
@pytest.mark.parametrize("order", [1, 3, 4, 6])
def test_pair_sums_matches_the_python_int_reference(order, chunk, monkeypatch):
    """Random signed counts, some partners "no term" (one b has none at all):
    the Python-int sums count for count, with each chunk one row group of b,
    the default chunks, and one chunk for every b."""
    monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
    S, T, C, D, B = 3, 4, 5, 4, 6
    phi = euler_phi(order)
    rng = np.random.default_rng(order)
    first = rng.integers(-9, 10, size=(S, T, phi))
    second = rng.integers(-9, 10, size=(C, D, phi))
    partner = rng.integers(0, D + 1, size=(B, T))
    partner[0] = D
    assert np.any(partner[1:] == D) and np.any(partner < D)
    groups = rng.permutation(C * S).reshape(3, 5)
    got = pair_sums(first, second, partner, groups, order)
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object),
                          _pair_sums_reference(first, second, partner, groups, order))


def _pair_operands(S, T, C, phi, m, signs, rng):
    first = np.full((S, T, phi), m, dtype=np.int64)
    second = np.full((C, T, phi), m, dtype=np.int64)
    if signs == "mixed":
        first *= rng.choice([-1, 1], size=first.shape)
        second *= rng.choice([-1, 1], size=second.shape)
    return first, second


@pytest.mark.parametrize("signs", ["equal", "mixed"])
@pytest.mark.parametrize("limit, dtype", [(24, np.float32), (53, np.float64), (63, np.int64)])
def test_pair_sums_at_each_tier_edge(limit, dtype, signs, spies):
    """All-max counts +-m, m the largest with 2 bound = 2 T phi m max|M|
    below 2**24 (float32) or 2**53 (float64), M the multiplication matrix of
    first, or with k bound below 2**63 (int64): the tier is taken and the
    sums are the Python-int reference count for count.  For int64 with equal
    signs every term is T m**2 q, q the largest canonical count of
    (1 + zeta)**2 = zeta: where k T m**2 q passes 2**63 while the bound
    stays below it, the sums are refused by name."""
    S, T, C, k, order = 2, 3, 2, 4, 3
    phi = euler_phi(order)
    rng = np.random.default_rng(limit)
    partner = np.array([rng.permutation(T) for _ in range(2)])
    groups = rng.permutation(C * S).reshape(-1, k)
    signed = _pair_operands(S, T, C, phi, 1, signs, rng)
    grow = _mult_largest(signed[0].swapaxes(0, 1), order)
    m = math.isqrt(((1 << limit) - 1) // ((k if limit == 63 else 2) * T * phi * grow))
    first, second = (x * m for x in signed)
    got = pair_sums(first, second, partner, groups, order)
    assert spies["matmul"].calls
    assert all((x.dtype, y.dtype) == (dtype, dtype) for x, y in spies["matmul"].calls)
    assert np.array_equal(got.astype(object),
                          _pair_sums_reference(first, second, partner, groups, order))
    if signs == "equal" and limit == 63:
        q = max(abs(x) for x in _canonical_ints(mul((1, 1, 0), (1, 1, 0))))
        assert int(np.abs(got).max()) == k * T * m * m * q
        past = math.isqrt(((1 << 63) - 1) // (k * T * q)) + 1
        assert T * phi * past * past * grow < 1 << 63  # the matmul still takes int64
        with pytest.raises(CotwistError, match="an exact sum would overflow int64"):
            pair_sums(*(x * past for x in signed), partner, groups, order)


@pytest.mark.parametrize("past", [False, True])
@pytest.mark.parametrize("limit, dtype", [(24, np.float32), (53, np.float64)])
def test_pair_sums_k_term_float_edge(limit, dtype, past, spies, monkeypatch):
    """All-max counts m, m the largest with 2 k bound below 2**24 (float32) or
    2**53 (float64), bound = T phi m max|M| the contraction's: the k terms
    are summed in the matmul's dtype, with no ``sum_counts``; at m + 1,
    where 2 k bound reaches the limit while the matmul keeps its dtype, each
    chunk's terms are cast to int64 and summed by ``sum_counts``.  Either
    way the sums are the Python-int reference count for count."""
    S, T, C, k, order = 2, 3, 2, 2, 3
    phi = euler_phi(order)
    first, second = _pair_operands(S, T, C, phi, 1, "equal", None)
    grow = _mult_largest(first.swapaxes(0, 1), order)
    m = math.isqrt(((1 << limit) - 1) // (2 * k * T * phi * grow)) + past
    bound = T * phi * m * m * grow
    assert (2 * k * bound >= 1 << limit) == past
    assert 2 * bound < 1 << limit  # the matmul keeps its dtype
    summed, kernel = [], exactlin.sum_counts
    monkeypatch.setattr(exactlin, "sum_counts",
                        lambda counts, axis: summed.append(counts.dtype) or kernel(counts, axis))
    rng = np.random.default_rng(limit + past)
    partner = np.array([rng.permutation(T) for _ in range(2)])
    groups = rng.permutation(C * S).reshape(-1, k)
    first, second = first * m, second * m
    got = pair_sums(first, second, partner, groups, order)
    assert [(x.dtype, y.dtype) for x, y in spies["matmul"].calls] == [(dtype, dtype)]
    assert summed == ([np.int64] if past else [])
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object),
                          _pair_sums_reference(first, second, partner, groups, order))


def _direct_product_table(table):
    """The Cayley table of K x K, (g, h) at index g |K| + h."""
    m = len(table)
    return (table[:, None, :, None] * m + table[None, :, None, :]).reshape(m * m, m * m)


@pytest.mark.parametrize("chunk", [1, 1 << 40])
@pytest.mark.parametrize("square, order", [(False, 6), (True, 1)], ids=["S3", "S3 x S3"])
def test_dense_pair_products_are_pair_sums(square, order, chunk, monkeypatch):
    """Dense products in C[K x K] for K = S3 and S3 x S3 go through one
    pair_sums and equal, count for count, the Python-int sum of u[a1, a2]
    v[b1, b2] at (a1 b1, a2 b2), reduced mod Phi_N."""
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
    red = _reduction_table(order).astype(object)
    cu, cv = (np.concatenate([x.counts, np.zeros((m, m, order - x.counts.shape[-1]),
                                                 dtype=np.int64)], axis=-1).astype(object)
              for x in (u, v))  # the counts padded to N coefficients
    want = np.zeros_like(cu)
    for a1, a2, i in zip(*np.nonzero(cu)):
        want[np.ix_(table[a1], table[a2])] += cu[a1, a2, i] * np.roll(cv, i, axis=-1)
    assert got.scale == u.scale * v.scale
    assert np.array_equal(got.counts.astype(object), want @ red)


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
    counts = np.zeros((3, 3, 2), dtype=np.int64)
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
    nonzero = basis.counts.any(axis=-1)
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
    rhs = CycArray(3, Fraction(1), np.array([[1, 0], [0, 0], [0, 1]]))  # 1, 0, zeta
    sol = cyc_solve(a, rhs)
    assert isinstance(sol, CycArray) and sol.shape == (3,)
    assert cyc_tensordot(a, sol, axes=([1], [0])).eq(rhs)
    assert cyc_nullspace(a).shape == (0, 3)

    # singular system: the nullspace row annihilates the matrix and is reduced
    sing = CycArray.from_exponents(3, np.array([[0, 1], [1, 2]]))  # [[1, z], [z, z^2]]
    null = cyc_nullspace(sing)
    assert null.shape == (1, 2)
    assert is_zero(cyc_tensordot(sing, null, axes=([1], [1])))
    assert null.eq(CycArray(3, Fraction(1), np.array([[[0, -1], [1, 0]]])))  # [-z, 1]
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
    # just under the bound: 2^40 * 2^20 * 2 (contracted) * 2 (phi) < 2^63
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
    """Cells of value 0 are not support, whatever raw counts they came from:
    two pair elements with raw counts in all 81 cell pairs but one cell of
    value each take one contraction over the one-cell support, not one over
    K^4, and give the plain reference."""
    table = _z3_table()
    u, v = np.full((3, 3, 3), 2), np.full((3, 3, 3), -1)  # all equal: value 0
    u[1, 2, 1] += 1  # zeta at 1 x 2
    v[2, 2, 2] += 3  # 3 zeta^2 at 2 x 2
    u, v = on_powers(3, 1, u), on_powers(3, 1, v)
    shapes = []
    kernel = exactlin.contract_counts
    monkeypatch.setattr(exactlin, "contract_counts", lambda src, at, b, order:
                        shapes.append((at.shape, b.shape)) or kernel(src, at, b, order))
    want = CycArray.zeros((3, 3), 3)
    want.counts[0, 1, 0] = 3  # (1 x 2)(2 x 2) = 0 x 1 with value 3 zeta^3
    got = ga_mul(u, v, table)
    assert got.eq(want)
    assert shapes == [((9, 1), (1, 1, 2))]  # index [(x, y), support cell], not K^4 cells
    for idx, value in np.ndenumerate(ga_product(u, v, table)):
        assert equal(values(got)[idx], value)


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
    counts = np.zeros((3, 2), dtype=np.int64)
    counts[0, 0] = 2
    counts[1, 0] = 1
    u = CycArray(3, Fraction(1), counts)
    uinv = invert_in_group_algebra(u, table)
    assert ga_mul(u, uinv, table).eq(ga_identity(3, 3))
    assert ga_mul(uinv, u, table).eq(ga_identity(3, 3))

    # e + g + g^2 annihilates (1 - g): not invertible
    counts = np.zeros((3, 2), dtype=np.int64)
    counts[:, 0] = 1
    ones = CycArray(3, Fraction(1), counts)
    with pytest.raises(CotwistError):
        invert_in_group_algebra(ones, table)


def _element(order, cells):
    """The element of C[S3] with the given counts on the N powers of zeta at
    the given group indices."""
    counts = np.zeros((6, order), dtype=np.int64)
    for index, cell in cells.items():
        counts[index] = cell
    return on_powers(order, 1, counts)


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
