"""Wedderburn decomposition on exact algebras with known spectra: the trace-form
split mod l and its two certificates, plus the seeded float splitter of a
simple algebra and its retry machinery."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from cotwist import dual_algebras, semisimple
from cotwist.dual_algebras import SCAlgebra, build_block_algebra
from cotwist.errors import AuditError, CotwistError, SeedRetryError
from cotwist.exactlin import CycArray, _modular_image, _modular_root, cyc_tensordot
from cotwist.groups import double_cosets, stabilizer_Kg
from cotwist.semisimple import (_CENTER_DRAW_BOUND, _commutator_rows,
                                _split_mod, algebra_audit, center_basis, derived_seed,
                                split_simple_retrying, wedderburn_dims, with_seed_retries)


def exact_algebra(counts, unit, order=1, name="test"):
    """The algebra with integer constants counts[i, j, k] and integer unit over Q(zeta_order)."""
    full = np.zeros((*np.shape(counts), order), dtype=np.int64)
    full[..., 0] = counts
    u = CycArray.zeros((len(unit),), order)
    u.counts[:, 0] = unit
    return SCAlgebra(CycArray(order, Fraction(1), full), u, name=name)


def matrix_units(n):
    """Constants and unit of M_n in the matrix-unit basis E_ij, flat index i*n+j."""
    d = n * n
    mul = np.zeros((d, d, d), dtype=np.int64)
    i, j, l = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mul[i * n + j, j * n + l, i * n + l] = 1
    return mul, np.eye(n, dtype=np.int64).ravel()


def matrix_units_algebra(n):
    return exact_algebra(*matrix_units(n), name=f"M_{n}")


def group_algebra(table, order=1):
    """C[K] for a Cayley table whose index 0 is the identity, over Q(zeta_order)."""
    k = table.shape[0]
    mul = np.zeros((k, k, k), dtype=np.int64)
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mul[a, b, table] = 1
    return exact_algebra(mul, np.eye(k, dtype=np.int64)[0], order, name="C[K]")


def cyclic_table(k):
    return ((np.arange(k)[:, None] + np.arange(k)[None, :]) % k).astype(np.int32)


def permutation_table(perms):
    """Cayley table of permutation tuples under composition, (a b)(k) = a(b(k))."""
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms])


def s3_mul():
    return permutation_table([(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)])


def symmetric_table(k, even=False):
    """S_k, or A_k, in lexicographic order: the identity first."""
    perms = [p for p in itertools.permutations(range(k))
             if not even or sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    return permutation_table(perms)


def direct_sum_m1_m2():
    """M_1 + M_2 as a block-diagonal exact algebra."""
    mul1, unit1 = matrix_units(1)
    mul2, unit2 = matrix_units(2)
    mul = np.zeros((5, 5, 5), dtype=np.int64)
    mul[:1, :1, :1] = mul1
    mul[1:, 1:, 1:] = mul2
    return exact_algebra(mul, np.concatenate([unit1, unit2]), name="M_1 + M_2")


def count_calls(monkeypatch, *names):
    """Names of the listed ``semisimple`` functions, in call order."""
    calls = []
    for name in names:
        fn = getattr(semisimple, name)
        monkeypatch.setattr(semisimple, name,
                            lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
    return calls


@pytest.fixture
def mod_splits(monkeypatch):
    """The primes of every trace-form split mod l, in call order."""
    primes, split = [], semisimple._split_mod

    def recording(mul, ell, omega, name):
        primes.append(ell)
        return split(mul, ell, omega, name)

    monkeypatch.setattr(semisimple, "_split_mod", recording)
    return primes


def test_matrix_algebra_dims(mod_splits):
    for n in (1, 2, 3):
        A = matrix_units_algebra(n)
        assert algebra_audit(A)
        assert wedderburn_dims(A).dims == [n]
    assert mod_splits == []   # center span(unit): the split's case r = 1


def test_cyclic_group_algebra_dims(mod_splits):
    for k in (2, 4, 5):
        assert wedderburn_dims(group_algebra(cyclic_table(k), k)).dims == [1] * k
    assert mod_splits == []   # commutative: the split's case r = n


def test_s3_group_algebra_dims(mod_splits):
    assert wedderburn_dims(group_algebra(s3_mul())).dims == [1, 1, 2]
    assert mod_splits == [_modular_root(1)[0]]


def test_s4_and_a4_group_algebra_dims(mod_splits):
    """C[S_4] and C[A_4] over Q.  A_4's center does not split over Q (its two
    nontrivial linear characters take values in Q(zeta_3)); the split needs
    no idempotents, only the ranks of M - d^2 I over F_l."""
    assert wedderburn_dims(group_algebra(symmetric_table(4))).dims == [1, 1, 2, 3, 3]
    assert wedderburn_dims(group_algebra(symmetric_table(4, even=True))).dims == [1, 1, 1, 3]
    assert len(mod_splits) == 2


def test_direct_sum_dims(mod_splits):
    assert wedderburn_dims(direct_sum_m1_m2()).dims == [1, 2]
    assert len(mod_splits) == 1


def test_sum_of_squares_matches_dim():
    for table in (s3_mul(), symmetric_table(4), symmetric_table(4, even=True)):
        assert sum(d * d for d in wedderburn_dims(group_algebra(table)).dims) == table.shape[0]


def test_trace_forms_agree_with_both_certificates(p3_diag_bundle):
    """The trace-form split, run on algebras that the center certificates
    decide, gives their answers: r = 1 with M = [n], and r = n with M = I."""
    inst, _, zs = p3_diag_bundle
    for A, dims in ((matrix_units_algebra(3), [3]), (build_block_algebra(inst.t, zs[1]), [3]),
                    (group_algebra(cyclic_table(5), 5), [1] * 5),
                    (build_block_algebra(inst.t, zs[0]), [1] * 9)):
        assert center_basis(A) is not None, A.name
        assert _split_mod(A.mul, *_modular_root(A.mul.order), A.name) == dims, A.name


def test_exact_center_of_block(p3_diag_bundle, mod_splits):
    """The M_3 block's center is certified as span(unit), the unit itself as
    its basis, and the block is one block of 3 with no split mod l."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])      # the M_3 block
    basis = center_basis(blk)
    assert basis.shape == (1, 9) and basis.eq(blk.unit.reshape(1, 9))
    assert wedderburn_dims(blk).dims == [3]
    assert mod_splits == []


def test_exact_center_of_s3_is_class_sums():
    """C[S3] over Q(zeta_3): a center that is neither full nor 1-dim, so no
    certificate.  The split's center mod l is the class sums, each 1 at its
    free column: {e}, the three transpositions, the two 3-cycles."""
    A = group_algebra(s3_mul(), 3)
    assert center_basis(A) is None
    ell, omega = _modular_root(3)
    a = _modular_image(A.mul.counts, ell, omega)
    classes = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])
    assert np.array_equal(semisimple._center_mod(a, ell)[0], classes)
    assert wedderburn_dims(A).dims == [1, 1, 2]


def test_exact_center_of_commutative_algebra_takes_no_solve(mod_splits):
    """C[Z/5] is canonically symmetric: the identity basis, no commutator rows
    and no split mod l."""
    identity = CycArray.zeros((5, 5), 5)
    identity.counts[np.arange(5), np.arange(5), 0] = 1
    A = group_algebra(cyclic_table(5), 5)
    assert center_basis(A).eq(identity)
    assert wedderburn_dims(A).dims == [1] * 5
    assert mod_splits == []


def test_commutative_block_center_forms_no_commutator_rows(p3_diag_bundle, monkeypatch):
    """The commutative block over H: identity basis, no contraction and no
    commutator rows.  Constants patched off commutativity in a checkerboard,
    which keeps every row and column sum and so the unit, form the
    certificate's rows, which certify no 1-dim center."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append(axes) or contract(a, b, axes))
    formed = count_calls(monkeypatch, "_commutator_rows")
    assert center_basis(blk).eq(identity)
    assert contractions == [] and formed == []

    patched = blk.mul.copy()
    patched.counts[[1, 1, 4, 4], [2, 3, 2, 3], 0, 0] += [1, -1, -1, 1]
    assert center_basis(SCAlgebra(patched, blk.unit, name="patched")) is None
    assert formed == ["_commutator_rows"]


def test_short_modular_rank_falls_back_to_the_trace_forms(p3_diag_bundle, mod_splits,
                                                          monkeypatch):
    """A modular rank short of n - 1 (an unlucky prime or draw) is no
    certificate: the split mod l runs and gives the same one block."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    ranks = []
    monkeypatch.setattr(semisimple, "_modular_rank",
                        lambda mat: ranks.append(mat.shape) or blk.dim - 2)
    assert center_basis(blk) is None
    assert wedderburn_dims(blk).dims == [3]
    assert ranks == [(2 * blk.dim, blk.dim)] * 2 and len(mod_splits) == 1


def test_noncentral_unit_refused_when_built(p3_diag_bundle):
    """The M_3 block with unit + e_0 as its unit: the center certificate,
    which reads only ``mul``, still holds, so the unit check that
    ``SCAlgebra`` runs when it is built is what refuses it, naming the algebra."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    bad = blk.unit.copy()
    bad.counts[0, 0] += 1
    assert center_basis(blk).shape == (1, blk.dim)
    with pytest.raises(AuditError, match=re.escape(f"{blk.name}: the counit is not")):
        SCAlgebra(blk.mul, bad, name=blk.name)


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
        counts = A.mul.counts
        commutators = CycArray(A.mul.order, A.mul.scale, counts - counts.transpose(1, 0, 2, 3))
        expected = cyc_tensordot(y, commutators, axes=([1], [1]))
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
        assert wedderburn_dims(A).dims == [9], A.name
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


def test_counts_past_the_float_bound_take_the_trace_forms(p3_diag_bundle, mod_splits,
                                                         monkeypatch):
    """The M_3 block on counts scaled by 2^40 (the same values): past the
    2^53 bound there are no rows and no certificate, and the split mod l,
    which reduces the counts first, gives the one block."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    scaled = CycArray(blk.mul.order, blk.mul.scale / (1 << 40), blk.mul.counts << 40)
    assert scaled.eq(blk.mul)
    assert _commutator_rows(scaled, seeded_draws(blk.dim)) is None
    ranks = count_calls(monkeypatch, "_modular_rank")
    assert wedderburn_dims(SCAlgebra(scaled, blk.unit)).dims == [3]
    assert ranks == [] and len(mod_splits) == 1


def test_one_dim_center_decided_exactly(simple_exact_algebras, mod_splits, monkeypatch):
    """An exact algebra whose center is span(unit) is one block of sqrt(n),
    with no complex embedding of ``mul``, no eigenproblem and no split mod l."""
    embeds, eigs = [], []
    embed, eig = CycArray.embed, np.linalg.eig
    monkeypatch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    for name, A in simple_exact_algebras.items():
        assert wedderburn_dims(A).dims == [int(round(np.sqrt(A.dim)))], name
    assert embeds == [] and eigs == [] and mod_splits == []


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
    commutative = {name: A for name, A in algebras.items()
                   if (center := center_basis(A)) is not None and center.shape[0] == A.dim}
    assert len(commutative) == 2 * (1 + 1 + 5 + 9)
    return commutative


def test_commutative_exact_algebras_split_exactly(commutative_exact_algebras, mod_splits,
                                                  monkeypatch):
    """A commutative exact algebra whose trace form is certified nondegenerate
    is n blocks of 1, with no complex embedding of ``mul``, no eigenproblem
    and no split mod l."""
    embeds, eigs = [], []
    embed, eig = CycArray.embed, np.linalg.eig
    monkeypatch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    for name, A in commutative_exact_algebras.items():
        assert wedderburn_dims(A).dims == [1] * A.dim, name
    assert embeds == [] and eigs == [] and mod_splits == []


@pytest.mark.parametrize("fault", ["short rank", "overflow"])
def test_commutative_split_without_certificate_takes_the_trace_forms(
        commutative_exact_algebras, mod_splits, monkeypatch, fault):
    """A short modular rank of the trace form, or an overflow of its
    contraction, is no certificate: the split mod l gives the same dims."""
    A = commutative_exact_algebras["p=5 unipotent block 0"]
    if fault == "short rank":
        monkeypatch.setattr(semisimple, "_modular_rank", lambda mat: mat.shape[0] - 1)
    else:
        def overflow(*args, **kwargs):
            raise CotwistError("exact contraction would overflow int64 counts")
        monkeypatch.setattr(semisimple, "cyc_tensordot", overflow)
    assert wedderburn_dims(A).dims == [1] * A.dim
    assert len(mod_splits) == 1


def dual_numbers():
    """Exact C[x]/(x^2) on 1, x: commutative, not semisimple."""
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    counts[[0, 0, 1], [0, 1, 0], [0, 1, 1]] = 1
    return exact_algebra(counts, [1, 0], order=3, name="dual numbers")


def test_dual_numbers_refused_without_certificate(mod_splits):
    """The trace form of C[x]/(x^2) has rank 1 (x is in its kernel) at every
    prime: no certificate, three primes tried, and the algebra refused by name."""
    A = dual_numbers()
    assert algebra_audit(A)
    assert center_basis(A).shape[0] == 2
    with pytest.raises(CotwistError, match=re.escape(
            "dual numbers: the trace form is degenerate mod 3 primes")):
        wedderburn_dims(A)
    assert len(set(mod_splits)) == semisimple.SPLIT_PRIMES == 3
    assert all(ell % 3 == 1 for ell in mod_splits) and mod_splits == sorted(mod_splits)[::-1]


def test_degenerate_prime_moves_to_the_next(monkeypatch):
    """C[S3] on counts multiplied by the first prime l and scale 1/l (the same
    values): the counts vanish mod l, so does the trace form, and the split
    moves to the next prime down.  Three primes forced degenerate raise the
    named error."""
    ell = _modular_root(3)[0]
    A = group_algebra(s3_mul(), 3)
    scaled = SCAlgebra(CycArray(3, Fraction(1, ell), A.mul.counts * ell), A.unit, name="C[S3]")
    primes, split = [], semisimple._split_mod
    monkeypatch.setattr(semisimple, "_split_mod", lambda mul, p, omega, name: (
        primes.append(p) or split(mul, p, omega, name)))
    assert wedderburn_dims(scaled).dims == [1, 1, 2]
    assert primes == [ell, _modular_root(3, ell)[0]] and primes[1] % 3 == 1

    primes.clear()
    monkeypatch.setattr(semisimple, "_split_mod", lambda mul, p, omega, name: primes.append(p))
    with pytest.raises(CotwistError, match=re.escape(
            "C[K]: the trace form is degenerate mod 3 primes")):
        wedderburn_dims(A)
    assert len(set(primes)) == 3


def test_corrupted_count_of_a_split_block_is_refused(intermediate_block, monkeypatch):
    """One count of criterion 9's [3, 3, 3] block changed by 1: the unit
    check refuses it when it is built, and past that check the split's
    certificate 2 refuses it by name.  The split assumes an associative
    algebra; it is the unit check that sees every single changed count."""
    mul = intermediate_block.mul.copy()
    mul.counts[0, 0, 0, 0] += 1
    with pytest.raises(AuditError, match="corrupted: the counit is not"):
        SCAlgebra(mul, intermediate_block.unit, name="corrupted")
    monkeypatch.setattr(dual_algebras, "determine_unit", lambda *args: None)
    with pytest.raises(CotwistError, match=re.escape(
            "corrupted: block multiplicities {1: 0, 2: 0, 3: 2, 4: 0, 5: 0} mod")):
        wedderburn_dims(SCAlgebra(mul, intermediate_block.unit, name="corrupted"))


def test_float_constants_refused_by_name():
    mul, unit = matrix_units(2)
    with pytest.raises(CotwistError, match="M_2: structure constants and unit must be exact, "
                                           "got ndarray and ndarray"):
        SCAlgebra(mul.astype(complex), unit.astype(complex), name="M_2")


def test_canonically_symmetric_counts_take_no_certificate(p3_gauge_diag_bundle, monkeypatch):
    """The gauge-transformed p=3 H-coset block has counts that are symmetric
    only canonically: its center is the identity basis with no certificate
    attempt."""
    inst, _, zs = p3_gauge_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    counts = blk.mul.counts
    assert not np.array_equal(counts, counts.transpose(1, 0, 2, 3))
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    formed = count_calls(monkeypatch, "_commutator_rows", "_split_mod")
    assert center_basis(blk).eq(identity)
    assert wedderburn_dims(blk).dims == [1] * n
    assert formed == []


def upper_triangular_t2():
    """Exact T_2 on E11, E12, E22: dim 3, center the scalars, not semisimple."""
    counts = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        counts[i, j, k] = 1
    return exact_algebra(counts, [1, 0, 1], order=3, name="T2")


def test_t2_one_dim_center_is_not_a_square():
    A = upper_triangular_t2()
    assert algebra_audit(A)
    assert center_basis(A).shape[0] == 1
    with pytest.raises(CotwistError, match="T2: a one-dim center needs a square dimension"):
        wedderburn_dims(A)


def test_doubled_unit_refused_when_built(p3_diag_bundle):
    """2u is central but no unit, and is refused exactly when the algebra is
    built; a unit doubled on counts and halved on scale is the same unit,
    and the one-block split takes it."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    with pytest.raises(AuditError, match=re.escape(f"{blk.name}: the counit is not")):
        SCAlgebra(blk.mul, blk.unit.scale_by(2), name=blk.name)
    same = CycArray(blk.unit.order, Fraction(1, 2), 2 * blk.unit.counts)
    assert wedderburn_dims(SCAlgebra(blk.mul, same)).dims == [3]


def test_idempotent_posing_as_unit_refused_when_built():
    """Exact M_2 with the idempotent E11 posing as its unit: E11 E11 = E11,
    but E11 e_j != e_j, and the algebra is refused when built."""
    mul, _ = matrix_units(2)
    with pytest.raises(AuditError, match=r"exact M_2: the counit is not"):
        exact_algebra(mul, [1, 0, 0, 0], order=3, name="exact M_2")


def test_swap_coset_takes_no_commutator_tensor(wreath_bundle, mod_splits, monkeypatch):
    """On the wreath swap coset neither the block nor U_g is reduced mod l,
    contracts ``mul`` in the center, or embeds ``mul``."""
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append((a.shape, b.shape))
                        or contract(a, b, axes))
    embeds, embed = [], CycArray.embed
    monkeypatch.setattr(CycArray, "embed", lambda self: embeds.append(self.shape) or embed(self))
    for A in swap_algebras(wreath_bundle):
        assert wedderburn_dims(A).dims == [9]
    assert contractions == [] and embeds == [] and mod_splits == []


def test_wedderburn_exact_input(p3_diag_bundle):
    inst, _, zs = p3_diag_bundle
    blk0 = build_block_algebra(inst.t, zs[0])
    assert wedderburn_dims(blk0).dims == [1] * 9


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
    ident = np.einsum("x,xab->ab", blk.unit.embed(), pi)
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
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        mul[0, i, i] = 1
        mul[i, 0, i] = 1
    mul[1, 1, 2] = 1
    mul[2, 1, 0] = 1
    assert not algebra_audit(exact_algebra(mul, [1, 0, 0]))


def test_algebra_audit_rejects_broken_unit():
    """A unit that fails the unit laws never reaches the audit: the algebra
    is refused by name when it is built."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 0] = 1  # u1 * unit = u0, wrong
    mul[1, 1, 1] = 1
    with pytest.raises(AuditError, match="broken: the counit is not a two-sided unit"):
        exact_algebra(mul, [1, 0], name="broken")
