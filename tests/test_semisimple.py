"""Wedderburn decomposition on algebras with known spectra, plus the
randomized splitter and its retry machinery."""

import re
from fractions import Fraction

import numpy as np
import pytest

from cotwist import semisimple
from cotwist.dual_algebras import SCAlgebra, build_block_algebra
from cotwist.errors import AuditError, CotwistError, SeedRetryError
from cotwist.exactlin import CycArray, cyc_nullspace, cyc_tensordot
from cotwist.groups import double_cosets, stabilizer_Kg
from cotwist.semisimple import (_CENTER_DRAW_BOUND, _commutator_rows, _commutator_tensor,
                                _exact_center_basis, _unit_if_center, algebra_audit,
                                center_basis, derived_seed, split_simple_retrying,
                                wedderburn_dims_retrying, with_seed_retries)


def float_algebra(mul, unit_vec):
    mul = np.asarray(mul, dtype=complex)
    return SCAlgebra(mul, np.asarray(unit_vec, dtype=complex), name="test")


def matrix_units_algebra(n):
    """M_n in the matrix-unit basis E_ij, flat index i*n+j."""
    d = n * n
    mul = np.zeros((d, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mul[i * n + j, k * n + l, i * n + l] = 1.0
    unit = np.zeros(d, dtype=complex)
    for i in range(n):
        unit[i * n + i] = 1.0
    return float_algebra(mul, unit)


def group_algebra(table):
    """C[K] for a Cayley table, as a float structure-constant algebra."""
    k = table.shape[0]
    mul = np.zeros((k, k, k), dtype=complex)
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mul[a, b, table] = 1.0
    unit = np.zeros(k, dtype=complex)
    unit[0] = 1.0
    return float_algebra(mul, unit)


def cyclic_table(k):
    return ((np.arange(k)[:, None] + np.arange(k)[None, :]) % k).astype(np.int32)


def s3_mul():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=np.int32)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            mul[i, j] = index[tuple(a[b[k]] for k in range(3))]
    return mul


def exact_group_algebra(table, order):
    """C[K] for a Cayley table, as an exact algebra over Q(zeta_order)."""
    k = table.shape[0]
    counts = np.zeros((k, k, k, order), dtype=np.int64)
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    counts[a, b, table, 0] = 1
    unit = CycArray.zeros((k,), order)
    unit.counts[0, 0] = 1
    return SCAlgebra(CycArray(order, Fraction(1), counts), unit, name="C[K]")


def direct_sum_m1_m2():
    """M_1 + M_2 as a block-diagonal float structure-constant algebra."""
    a1 = matrix_units_algebra(1)
    a2 = matrix_units_algebra(2)
    mul = np.zeros((5, 5, 5), dtype=complex)
    mul[:1, :1, :1] = a1.mul
    mul[1:, 1:, 1:] = a2.mul
    return float_algebra(mul, np.concatenate([a1.unit, a2.unit]))


def test_matrix_algebra_dims():
    for n in (1, 2, 3):
        A = matrix_units_algebra(n)
        assert algebra_audit(A)
        spec = wedderburn_dims_retrying(A, seed=0)
        assert spec.dims == [n]
        assert spec.idempotent_residual < 1e-8


def test_cyclic_group_algebra_dims():
    for k in (2, 4, 5):
        spec = wedderburn_dims_retrying(group_algebra(cyclic_table(k)), seed=0)
        assert spec.dims == [1] * k


def test_s3_group_algebra_dims():
    spec = wedderburn_dims_retrying(group_algebra(s3_mul()), seed=0)
    assert spec.dims == [1, 1, 2]


def test_direct_sum_dims():
    assert wedderburn_dims_retrying(direct_sum_m1_m2(), seed=0).dims == [1, 2]


def loop_residual(A, idems):
    """max(|e_a e_b - delta_ab e_a| over a <= b, |sum e_a - unit|), pair by pair."""
    mul, unit = A.mul_complex(), A.unit_complex()
    worst = float(np.max(np.abs(idems.sum(axis=0) - unit)))
    for a in range(len(idems)):
        for b in range(a, len(idems)):
            prod = np.einsum("i,j,ijk->k", idems[a], idems[b], mul)
            worst = max(worst, float(np.max(np.abs(prod - (a == b) * idems[a]))))
    return worst


def perturbed_m1_m2():
    """M_1 + M_2 with 1e-10 noise on the products across the two blocks.

    The residual is then ~3e-10 and largest at the cross term e_0 e_1, so a
    residual that missed the pairs a < b would differ from the loop's.
    """
    A = direct_sum_m1_m2()
    noise = 1e-10 * np.random.default_rng(1).standard_normal(A.mul.shape)
    noise[1:, 1:] = 0
    noise[0, 0] = 0
    return float_algebra(A.mul + noise, A.unit)


@pytest.mark.parametrize("make", [lambda: exact_group_algebra(s3_mul(), 3), direct_sum_m1_m2,
                                  perturbed_m1_m2],
                         ids=["exact C[S3]", "float M2+C", "float M2+C perturbed"])
def test_idempotent_residual_matches_pairwise_loop(make):
    """The batched residual is the pairwise one, on non-commutative algebras."""
    A = make()
    spec = wedderburn_dims_retrying(A, seed=0)
    assert spec.dims == ([1, 1, 2] if A.is_exact else [1, 2])
    assert abs(loop_residual(A, spec.idempotents) - spec.idempotent_residual) < 1e-12


def test_sum_of_squares_matches_dim():
    spec = wedderburn_dims_retrying(group_algebra(s3_mul()), seed=3)
    assert sum(d * d for d in spec.dims) == 6


def test_commutative_float_center_regression(p3_pair):
    """A plainly-commutative float algebra must report a full center.

    Guards the SVD threshold choice: the commutator system of a commutative
    algebra is exactly zero, so thresholds must scale with the structure
    constants, not with the system's own singular values.
    """
    H, _ = p3_pair
    plain = group_algebra(H.mul)
    cb = center_basis(plain)
    assert cb.shape[0] == 9
    assert wedderburn_dims_retrying(plain, seed=0).dims == [1] * 9


def _commutator_system(mul: CycArray) -> CycArray:
    """The full (n^2, n) commutator system: row (j, k), column i, entry [e_i, e_j]_k."""
    n = mul.shape[0]
    diff = mul.counts - mul.counts.transpose(1, 0, 2, 3)
    return CycArray(mul.order, mul.scale, diff.transpose(1, 2, 0, 3).reshape(n * n, n, mul.order))


def test_exact_center_of_block(p3_diag_bundle, nullspace_calls):
    """The M_3 block's center is certified as span(unit): no nullspace solve,
    and the basis is the reduced nullspace of the full commutator system,
    which the narrowing pass returns."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])      # the M_3 block
    cb = center_basis(blk)
    assert cb.shape[0] == 1
    basis = _exact_center_basis(blk)
    assert nullspace_calls == []
    expected = cyc_nullspace(_commutator_system(blk.mul))
    assert basis.eq(expected)
    assert np.array_equal(cb, expected.embed())
    assert wedderburn_dims_retrying(blk, seed=0).dims == [3]


def test_short_modular_rank_falls_back_to_narrowing(p3_diag_bundle, nullspace_calls,
                                                    monkeypatch):
    """A modular rank short of n - 1 (an unlucky prime or draw) is no
    certificate: the narrowing pass runs and returns the same basis."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    certified = _exact_center_basis(blk)
    ranks = []
    monkeypatch.setattr(semisimple, "_modular_rank",
                        lambda mat: ranks.append(mat.shape) or blk.dim - 2)
    narrowed = _exact_center_basis(blk)
    assert ranks == [(2 * blk.dim, blk.dim)]
    assert len(nullspace_calls) > 0
    assert np.array_equal(narrowed.counts, certified.counts)
    assert narrowed.scale == certified.scale


@pytest.fixture
def nullspace_calls(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return cyc_nullspace(mat)

    monkeypatch.setattr(semisimple, "cyc_nullspace", counting)
    return calls


def test_exact_center_of_s3_is_class_sums(nullspace_calls):
    """C[S3] as an exact algebra: a center that is neither full nor 1-dim.

    The reduced basis is the class sums, each 1 at its class's last element:
    {e}, the three transpositions, the two 3-cycles.  Only e commutes with
    everything, so the narrowing solves once for each of the other five.
    """
    table = s3_mul()
    A = exact_group_algebra(table, 3)
    classes = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])
    expected = CycArray.zeros((3, 6), 3)
    expected.counts[..., 0] = classes
    basis = _exact_center_basis(A)
    noncentral = int(np.count_nonzero(np.any(table != table.T, axis=0)))
    assert noncentral == 5
    assert len(nullspace_calls) == noncentral
    assert basis.shape == (3, 6)
    assert basis.eq(expected)
    assert np.array_equal(center_basis(A), classes.astype(complex))
    assert wedderburn_dims_retrying(A, seed=0).dims == [1, 1, 2]


def test_exact_center_of_commutative_algebra_takes_no_solve(nullspace_calls):
    """Every commutator column of C[Z/5] is zero: no solve, identity basis."""
    identity = CycArray.zeros((5, 5), 5)
    identity.counts[np.arange(5), np.arange(5), 0] = 1
    A = exact_group_algebra(cyclic_table(5), 5)
    assert _exact_center_basis(A).eq(identity)
    assert nullspace_calls == []


def test_commutative_block_center_skips_the_closing_contraction(p3_diag_bundle,
                                                                nullspace_calls, monkeypatch):
    """The commutative block over H: identity basis, no solve and no closing
    contraction.  Constants patched off commutativity in a checkerboard,
    which keeps every row and column sum and so the unit, reach the modular
    certificate, the narrowing pass and the closing check."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append(axes) or contract(a, b, axes))
    formed = count_calls(monkeypatch, "_commutator_tensor", "_commutator_rows")
    assert _exact_center_basis(blk).eq(identity)
    assert contractions == [] and nullspace_calls == []
    assert formed == []

    patched = blk.mul.copy()
    patched.counts[[1, 1, 4, 4], [2, 3, 2, 3], 0, 0] += [1, -1, -1, 1]
    basis = _exact_center_basis(SCAlgebra(patched, blk.unit, name="patched"))
    assert formed == ["_commutator_rows", "_commutator_tensor"]
    assert nullspace_calls and basis.shape[0] < n
    assert contractions[-2:] == [([1], [0]), ([1], [1])]


def count_calls(monkeypatch, *names):
    """Names of the listed ``semisimple`` functions, in call order."""
    calls = []
    for name in names:
        fn = getattr(semisimple, name)
        monkeypatch.setattr(semisimple, name,
                            lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
    return calls


def test_noncentral_unit_refused_when_built(p3_diag_bundle):
    """The M_3 block with unit + e_0 as its unit: the center certificate on
    ``mul`` still holds, so the unit check that ``SCAlgebra`` runs when it is
    built is what refuses it, naming the algebra."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    bad = blk.unit.copy()
    bad.counts[0, 0] += 1
    assert _unit_if_center(blk.mul, bad) is not None
    with pytest.raises(AuditError, match=re.escape(f"{blk.name}: the counit is not")):
        SCAlgebra(blk.mul, bad, name=blk.name)


def test_narrowed_center_rejects_a_noncentral_basis(monkeypatch):
    """C[S3] with a nullspace that keeps every row: the narrowing ends on the
    identity basis, which the closing check refuses."""
    A = exact_group_algebra(s3_mul(), 3)

    def keep_all(mat):
        kept = CycArray.zeros((mat.shape[1], mat.shape[1]), mat.order)
        kept.counts[np.arange(mat.shape[1]), np.arange(mat.shape[1]), 0] = 1
        return kept

    monkeypatch.setattr(semisimple, "cyc_nullspace", keep_all)
    with pytest.raises(CotwistError, match="center verification failed against the full product"):
        _exact_center_basis(A)


@pytest.fixture(scope="module")
def intermediate_block(tmp_path_factory):
    """A criterion-9 coset block (|K_g| = 3, dims [3, 3, 3])."""
    from intermediate_instance import write_instance

    from cotwist.correspondence import build_instance

    inst = build_instance(write_instance(tmp_path_factory.mktemp("intermediate")))
    z = next(z for z in double_cosets(inst.G, inst.H) if z.representative == 27)
    return build_block_algebra(inst.t, z)


@pytest.fixture(scope="module")
def p7_simple_block():
    """The M_7 block of p=7, gamma diag(1, 6)."""
    from cotwist.correspondence import Config, SymplecticConstruction, build_instance

    inst = build_instance(Config(SymplecticConstruction(7, 1, [[[1, 0], [0, 6]]])))
    return build_block_algebra(inst.t, double_cosets(inst.G, inst.H)[1])  # [0] is H


def swap_algebras(wreath_bundle):
    """The wreath swap coset's block and U_g (K_g = {e}, both M_9)."""
    from cotwist.correspondence import invariant_algebra_Ug

    inst, ctx, zs = wreath_bundle
    z = next(z for z in zs if len(z.elements) == 81)
    g = z.representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    assert Kg.order == 1
    return (build_block_algebra(inst.t, z),
            invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H))


@pytest.fixture
def simple_exact_algebras(p3_diag_bundle, wreath_bundle, p7_simple_block):
    """Every exact algebra with a 1-dim center in the shipped fixtures."""
    inst, _, zs = p3_diag_bundle
    swap_block, swap_Ug = swap_algebras(wreath_bundle)
    return {"p=3 M3 block": build_block_algebra(inst.t, zs[1]), "wreath swap block": swap_block,
            "wreath swap U_g": swap_Ug, "p=7 M7 block": p7_simple_block}


def seeded_draws(n):
    return np.random.default_rng(0).integers(1, _CENTER_DRAW_BOUND, size=(2, n))


def test_float_commutator_rows_are_exact(simple_exact_algebras, intermediate_block):
    """The float64 rows equal the exact contraction of the draws with the
    commutator tensor, counts for counts."""
    algebras = dict(simple_exact_algebras, **{"criterion-9 block": intermediate_block})
    for name, A in algebras.items():
        draws = seeded_draws(A.dim)
        y = CycArray.zeros((2, A.dim), A.mul.order)
        y.counts[..., 0] = draws
        expected = cyc_tensordot(y, _commutator_tensor(A.mul), axes=([1], [1]))
        rows = _commutator_rows(A.mul, draws)
        assert np.array_equal(rows.counts, expected.counts), name
        assert rows.scale == expected.scale, name


def test_simple_slice_algebras_split_without_a_gather(wreath_bundle, monkeypatch):
    """The wreath swap coset's block and U_g (M_9, |Z| = 81) are built in slice
    form, and their unit check, center certificate and exact split give [9]
    without ever gathering the 81^3 constants."""
    from cotwist import dual_algebras

    gathers, gather = [], dual_algebras.gather_slice
    monkeypatch.setattr(dual_algebras, "gather_slice",
                        lambda S, perms: gathers.append(S.shape) or gather(S, perms))
    for A in swap_algebras(wreath_bundle):
        assert A.perms is not None and A.dim == 81
        assert wedderburn_dims_retrying(A, seed=0).dims == [9], A.name
    assert gathers == []


def test_corrupted_slice_count_fails_the_unit_check(wreath_bundle):
    """One count of the slice S changed by 1 breaks a row sum of S, which the
    unit check reads: the algebra is refused by name.  The sums it reads off
    the slice are those of the gathered constants, count for count."""
    from cotwist.dual_algebras import _unit_sides, gather_slice

    for A in swap_algebras(wreath_bundle):
        bad = A.product.copy()
        bad.counts[5, 7, 0] += 1
        dense = _unit_sides(gather_slice(bad, A.perms), A.unit)
        for side, expected in zip(_unit_sides(bad, A.unit, A.perms), dense):
            assert np.array_equal(side.counts, expected.counts), A.name
        with pytest.raises(AuditError, match=re.escape(f"{A.name}: the counit is not")):
            SCAlgebra.from_slice(bad, A.perms, A.unit, name=A.name)


def test_slice_rows_must_be_permutations(wreath_bundle):
    block, _ = swap_algebras(wreath_bundle)
    perms = block.perms.copy()
    perms[3, 0] = perms[3, 1]
    with pytest.raises(AuditError, match="slice rows are not basis permutations"):
        SCAlgebra.from_slice(block.product, perms, block.unit, name=block.name)


def test_counts_past_the_float_bound_take_the_narrowing_pass(p3_diag_bundle, nullspace_calls,
                                                              monkeypatch):
    """The M_3 block on counts scaled by 2^40 (the same values): past the
    2^53 bound there are no rows and no certificate, and the narrowing pass
    returns the certified basis."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    certified = _exact_center_basis(blk)
    scaled = CycArray(blk.mul.order, blk.mul.scale / (1 << 40), blk.mul.counts << 40)
    assert scaled.eq(blk.mul)
    assert _commutator_rows(scaled, seeded_draws(blk.dim)) is None
    ranks = count_calls(monkeypatch, "_modular_rank")
    narrowed = _exact_center_basis(SCAlgebra(scaled, blk.unit))
    assert ranks == [] and len(nullspace_calls) > 0
    assert np.array_equal(narrowed.counts, certified.counts)
    assert narrowed.scale == certified.scale


def test_one_dim_center_decided_exactly(simple_exact_algebras, monkeypatch):
    """An exact algebra whose center is span(unit) gets the float route's
    dims with no complex embedding of ``mul`` and no eigenproblem."""
    embeds, eigs = [], []
    embed, eig = CycArray.embed, np.linalg.eig
    for name, A in simple_exact_algebras.items():
        floating = SCAlgebra(A.mul_complex(), A.unit_complex())
        expected = wedderburn_dims_retrying(floating, seed=0).dims
        exact = SCAlgebra(A.mul, A.unit)
        with monkeypatch.context() as patch:
            patch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
            patch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
            spec = wedderburn_dims_retrying(exact, seed=0)
        assert spec.dims == expected == [int(round(np.sqrt(A.dim)))], name
        assert spec.idempotent_residual == 0.0
        assert spec.idempotents is None
        assert all(len(shape) < 3 for shape in embeds) and eigs == [], name


@pytest.fixture(scope="module")
def commutative_exact_algebras(p3_diag_bundle, p3_gauge_diag_bundle, wreath_bundle):
    """Every commutative exact algebra the fixtures build: the block and U_g of
    the commutative cosets with K_g = H of p=3 (plain and gauge-transformed),
    p=5 unipotent and the wreath table."""
    from cotwist.correspondence import (Config, SymplecticConstruction, build_instance,
                                        invariant_algebra_Ug, prepare_instance)

    inst = build_instance(Config(SymplecticConstruction(5, 1, [[[1, 1], [0, 1]]])))
    p5 = inst, prepare_instance(inst, seed=0), double_cosets(inst.G, inst.H)
    algebras = {}
    for label, (inst, ctx, zs) in (("p=3", p3_diag_bundle), ("p=3 gauge", p3_gauge_diag_bundle),
                                   ("p=5 unipotent", p5), ("wreath", wreath_bundle)):
        for z in zs:
            g = z.representative
            Kg = stabilizer_Kg(inst.G, inst.H, g)
            if Kg.order == inst.H.order:
                algebras[f"{label} block {g}"] = build_block_algebra(inst.t, z)
                algebras[f"{label} U_g {g}"] = invariant_algebra_Ug(
                    ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)
    commutative = {name: A for name, A in algebras.items() if center_basis(A).shape[0] == A.dim}
    assert len(commutative) == 2 * (1 + 1 + 5 + 9)
    return commutative


def float_twin_dims(A):
    return wedderburn_dims_retrying(SCAlgebra(A.mul_complex(), A.unit_complex()), seed=0).dims


def test_commutative_exact_algebras_split_exactly(commutative_exact_algebras, monkeypatch):
    """A commutative exact algebra whose trace form is certified nondegenerate
    gets the float twin's dims, n blocks of 1, with no complex embedding of
    ``mul``, no eigenproblem and no float idempotents."""
    embeds, eigs = [], []
    embed, eig = CycArray.embed, np.linalg.eig
    for name, A in commutative_exact_algebras.items():
        expected = float_twin_dims(A)
        exact = SCAlgebra(A.mul, A.unit)
        with monkeypatch.context() as patch:
            patch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
            patch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
            spec = wedderburn_dims_retrying(exact, seed=0)
        assert spec.dims == expected == [1] * A.dim, name
        assert spec.idempotent_residual == 0.0 and spec.idempotents is None, name
        assert all(len(shape) < 3 for shape in embeds) and eigs == [], name


@pytest.mark.parametrize("fault", ["short rank", "overflow"])
def test_commutative_split_without_certificate_takes_the_float_route(
        commutative_exact_algebras, monkeypatch, fault):
    """A short modular rank of the trace form, or an overflow of its
    contraction, is no certificate: the float route splits, with the same dims."""
    A = commutative_exact_algebras["p=5 unipotent block 0"]
    expected = float_twin_dims(A)
    eigs, eig = [], np.linalg.eig
    if fault == "short rank":
        monkeypatch.setattr(semisimple, "_modular_rank", lambda mat: mat.shape[0] - 1)
    else:
        def overflow(*args, **kwargs):
            raise CotwistError("exact contraction would overflow int64 counts")
        monkeypatch.setattr(semisimple, "cyc_tensordot", overflow)
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    spec = wedderburn_dims_retrying(SCAlgebra(A.mul, A.unit), seed=0)
    assert spec.dims == expected == [1] * A.dim
    assert eigs == [(A.dim, A.dim)] and spec.idempotents.shape == (A.dim, A.dim)


def dual_numbers():
    """Exact C[x]/(x^2) on 1, x: commutative, not semisimple."""
    counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
    counts[[0, 0, 1], [0, 1, 0], [0, 1, 1], 0] = 1
    unit = CycArray.zeros((2,), 3)
    unit.counts[0, 0] = 1
    return SCAlgebra(CycArray(3, Fraction(1), counts), unit, name="dual numbers")


def test_dual_numbers_refused_without_certificate():
    """The trace form of C[x]/(x^2) has rank 1 (x is in its kernel), so no
    certificate: the float route runs and refuses the algebra."""
    A = dual_numbers()
    assert algebra_audit(A)
    assert center_basis(A).shape[0] == 2
    with pytest.raises(CotwistError):
        wedderburn_dims_retrying(A, seed=0)


def test_canonically_symmetric_counts_take_no_certificate(p3_gauge_diag_bundle, monkeypatch):
    """The gauge-transformed p=3 H-coset block has counts that are symmetric
    only canonically: its center is the identity basis with no certificate
    attempt and no commutator tensor."""
    inst, _, zs = p3_gauge_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    counts = blk.mul.counts
    assert not np.array_equal(counts, counts.transpose(1, 0, 2, 3))
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    formed = count_calls(monkeypatch, "_unit_if_center", "_commutator_tensor")
    assert _exact_center_basis(blk).eq(identity)
    assert formed == []


def upper_triangular_t2():
    """Exact T_2 on E11, E12, E22: dim 3, center the scalars, not semisimple."""
    counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        counts[i, j, k, 0] = 1
    unit = CycArray.zeros((3,), 3)
    unit.counts[[0, 2], 0] = 1
    return SCAlgebra(CycArray(3, Fraction(1), counts), unit, name="T2")


def test_t2_one_dim_center_is_not_a_square():
    A = upper_triangular_t2()
    assert algebra_audit(A)
    assert center_basis(A).shape[0] == 1
    floating = SCAlgebra(A.mul_complex(), A.unit_complex())
    for alg in (floating, A):
        with pytest.raises(CotwistError, match="is not close to an integer"):
            wedderburn_dims_retrying(alg, seed=0)


def test_doubled_unit_refused_when_built(p3_diag_bundle):
    """2u is central but no unit, and is refused exactly when the algebra is
    built; a unit doubled on counts and halved on scale is the same unit,
    and the one-block split takes it."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    with pytest.raises(AuditError, match=re.escape(f"{blk.name}: the counit is not")):
        SCAlgebra(blk.mul, blk.unit.scale_by(2), name=blk.name)
    same = CycArray(blk.unit.order, Fraction(1, 2), 2 * blk.unit.counts)
    assert wedderburn_dims_retrying(SCAlgebra(blk.mul, same), seed=0).dims == [3]


def test_idempotent_posing_as_unit_refused_when_built():
    """Exact M_2 with the idempotent E11 posing as its unit: E11 E11 = E11,
    but E11 e_j != e_j, and the algebra is refused when built.  A float
    algebra is not audited when built; its route fails on the trace,
    trace L_E11 = 2 (sqrt 2 is not an integer)."""
    floating = matrix_units_algebra(2)
    counts = np.zeros((4, 4, 4, 3), dtype=np.int64)
    counts[..., 0] = floating.mul.real.astype(np.int64)
    e11 = CycArray.zeros((4,), 3)
    e11.counts[0, 0] = 1
    with pytest.raises(AuditError, match=r"exact M_2: the counit is not"):
        SCAlgebra(CycArray(3, Fraction(1), counts), e11, name="exact M_2")
    with pytest.raises(CotwistError, match="is not close to an integer"):
        wedderburn_dims_retrying(SCAlgebra(floating.mul, e11.embed()), seed=0)


def test_swap_coset_takes_no_commutator_tensor(wreath_bundle, monkeypatch):
    """On the wreath swap coset neither the block nor U_g forms the |Z|^3
    commutator tensor, contracts ``mul`` in the center, or embeds ``mul``."""
    formed = count_calls(monkeypatch, "_commutator_tensor")
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append((a.shape, b.shape))
                        or contract(a, b, axes))
    embeds, embed = [], CycArray.embed
    monkeypatch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
    for A in swap_algebras(wreath_bundle):
        contractions.clear()
        assert wedderburn_dims_retrying(A, seed=0).dims == [9]
        assert contractions == [((1,), (81,))]   # the unit over its last entry
    assert formed == []
    assert all(len(shape) < 3 for shape in embeds)


def test_wedderburn_exact_input(p3_diag_bundle):
    inst, _, zs = p3_diag_bundle
    blk0 = build_block_algebra(inst.t, zs[0])
    assert wedderburn_dims_retrying(blk0, seed=0).dims == [1] * 9


def test_split_simple_gives_matrix_rep(p3_diag_bundle):
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    pi = split_simple_retrying(blk, seed=0)
    assert pi.shape == (9, 3, 3)
    mulc = blk.mul_complex()
    # homomorphism: pi(x) pi(y) = sum_z mul[x,y,z] pi(z)
    lhs = np.einsum("xab,ybc->xyac", pi, pi)
    rhs = np.einsum("xyz,zac->xyac", mulc, pi)
    assert np.max(np.abs(lhs - rhs)) < 1e-7
    # unit maps to the identity
    ident = np.einsum("x,xab->ab", blk.unit_complex(), pi)
    assert np.max(np.abs(ident - np.eye(3))) < 1e-8


def test_split_simple_seeds_give_equivalent_reps(p3_diag_bundle):
    """Two random splittings are intertwined by an invertible matrix."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    pa = split_simple_retrying(blk, seed=3)
    pb = split_simple_retrying(blk, seed=40)
    n = pa.shape[1]
    # solve T pa(x) = pb(x) T for all x: stack the Sylvester systems
    blocks = (np.einsum("xab,cd->xacbd", pb, np.eye(n))
              - np.einsum("ab,xdc->xacbd", np.eye(n), pa))
    system = blocks.reshape(pa.shape[0] * n * n, n * n)
    svals = np.linalg.svd(system, compute_uv=False)
    assert svals[-1] < 1e-8 * svals[0]          # an intertwiner exists
    assert svals[-2] > 1e-4 * svals[0]          # and it is unique (irreducible)


def test_split_simple_rejects_nonsimple():
    A = group_algebra(cyclic_table(4))
    with pytest.raises(CotwistError):
        split_simple_retrying(A, seed=0)


def test_derived_seed_deterministic():
    assert derived_seed(7, 3) == derived_seed(7, 3)
    assert derived_seed(7, 3) != derived_seed(7, 4)
    assert derived_seed(8, 3) != derived_seed(7, 3)


def test_with_seed_retries():
    calls = []

    def flaky(seed):
        calls.append(seed)
        if len(calls) < 3:
            raise SeedRetryError("degenerate")
        return seed

    out = with_seed_retries(flaky, 5)
    assert out == calls[2]
    assert calls[0] == 5
    assert len(set(calls)) == 3

    def hopeless(seed):
        raise SeedRetryError("always")

    with pytest.raises(CotwistError):
        with_seed_retries(hopeless, 5)


def test_algebra_audit_rejects_nonassociative():
    # unit laws hold, but (u1 u1) u1 = u0 while u1 (u1 u1) = 0
    mul = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        mul[0, i, i] = 1
        mul[i, 0, i] = 1
    mul[1, 1, 2] = 1
    mul[2, 1, 0] = 1
    A = float_algebra(mul, [1, 0, 0])
    assert not algebra_audit(A)


def test_algebra_audit_rejects_broken_unit():
    mul = np.zeros((2, 2, 2), dtype=complex)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 0] = 1  # u1 * unit = u0, wrong
    mul[1, 1, 1] = 1
    A = float_algebra(mul, [1, 0])
    assert not algebra_audit(A)
