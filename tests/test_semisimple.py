"""Wedderburn decomposition on exact algebras with known spectra: the graded
certificate of a slice-form algebra, the trace-form split of a commutative
one and the refusals by name."""

import copy
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cotwist import dual_algebras, semisimple
from cotwist.dual_algebras import SCAlgebra, build_block_algebra, gather_slice
from cotwist.errors import AuditError, CotwistError
from cotwist.exactlin import (CycArray, _largest, _modular_image, _modular_root,
                              canonical_counts, cyc_nullspace, cyc_tensordot)
from cotwist.groups import FiniteGroup, character_exponents, double_cosets, stabilizer_Kg
from cotwist.semisimple import (_grading_characters, _grading_product, _split_mod,
                                algebra_audit, center_basis, wedderburn_dims)
from cyc_reference import copied
from float_reference import embedded


def function_algebra(k, order=1):
    """C[Z/k] in its basis of minimal idempotents, the dual of the trivial
    twist on Z/k, over Q(zeta_order): the slice S = E_00 with P[x, a] =
    a - x, so e_a e_b = [a = b] e_a."""
    S = CycArray.zeros((k, k), order)
    S.counts[0, 0, 0] = 1
    return SCAlgebra(S, (np.arange(k)[None, :] - np.arange(k)[:, None]) % k, name=f"C[Z/{k}]")


def boolean_graded_algebra(C, order=2, name="graded"):
    """The algebra f_chi f_psi = C[chi, psi] f_{chi xor psi} on Q^ = (Z/2)^k
    for an integer (2^k, 2^k) matrix C, over Q(zeta_order), in slice form:
    mul[a, b, x] = S[a xor x, b xor x] with S = F C F / 4^k for the
    characters F[chi, x] = (-1)^(chi . x), since C = F S F.  The counit is
    its unit exactly when C is 1 on the trivial character's row and column."""
    n = len(C)
    x = np.arange(n)
    F = np.array([[(-1) ** bin(a & b).count("1") for b in x] for a in x])
    counts = np.zeros((n, n, order), dtype=np.int64)
    counts[..., 0] = F @ np.asarray(C) @ F
    return SCAlgebra(CycArray(order, Fraction(1, n * n), counts), x[:, None] ^ x[None, :],
                     name=name)


def group_algebra_counts(table):
    """Integer constants [a, b, ab] of C[K] for a Cayley table."""
    k = table.shape[0]
    mul = np.zeros((k, k, k), dtype=np.int64)
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mul[a, b, table] = 1
    return mul


def permutation_table(perms):
    """Cayley table of permutation tuples under composition, (a b)(k) = a(b(k))."""
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms])


def s3_mul():
    return permutation_table([(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)])


def graded_matrix_algebra(n, copies=1):
    """M_n^copies in slice form, C_c[(Z/n)^2] (x) C^copies for copies | n: the
    dual of the twist zeta_n^{a M b} / n^2 on (Z/n)^2, M = [[1, 1], [0, 1]],
    times the trivial twist on Z/copies, so mul[a, b, x] = J[a - x, b - x]
    on Q = (Z/n)^2 x Z/copies.  M - M^T is invertible mod every n."""
    shape = (n, n, copies)
    q = np.stack(np.unravel_index(np.arange(n * n * copies), shape), axis=-1)  # [x, coordinate]
    perms = np.ravel_multi_index(((q[None] - q[:, None]) % shape).transpose(2, 0, 1), shape)
    J = CycArray.from_exponents(n, q[:, None, 0] * (q[None, :, 0] + q[None, :, 1])
                                + q[:, None, 1] * q[None, :, 1], Fraction(1, n * n))
    J.counts[(q[:, None, 2] != 0) | (q[None, :, 2] != 0)] = 0
    return SCAlgebra(J, perms, name=f"graded M_{n}^{copies}")


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
    """The prime of every commutative split mod l (``_split_mod``), in call order."""
    primes, split = [], semisimple._split_mod
    monkeypatch.setattr(semisimple, "_split_mod",
                        lambda A, ell, omega: primes.append(ell) or split(A, ell, omega))
    return primes


def test_matrix_algebra_dims(mod_splits):
    """M_1 is commutative of dim 1: one block, from its trace form.  M_2 and
    M_3, in slice form as C_c[(Z/n)^2], are split to [n] by the graded
    certificate with no split mod l."""
    assert wedderburn_dims(graded_matrix_algebra(1)).dims == [1]
    assert mod_splits == [_modular_root(1)[0]]
    for n in (2, 3):
        graded = graded_matrix_algebra(n)
        assert algebra_audit(graded)
        assert wedderburn_dims(graded).dims == [n], graded.name
    assert len(mod_splits) == 1


def test_cyclic_group_algebra_dims(mod_splits):
    for k in (2, 4, 5):
        assert wedderburn_dims(function_algebra(k, k)).dims == [1] * k
    # commutative: n blocks of 1, the trace form certified at the first prime
    assert mod_splits == [_modular_root(k)[0] for k in (2, 4, 5)]


def test_direct_sum_dims(mod_splits):
    """M_2 + M_2 in slice form, C_c[(Z/2)^2 x Z/2] with the trivial class on
    Z/2, has a two-dim graded center, |R| = 2, and splits to [2, 2]."""
    graded = graded_matrix_algebra(2, 2)
    assert algebra_audit(graded)
    assert center_basis(graded).shape == (2, 8)
    assert wedderburn_dims(graded).dims == [2, 2]
    assert mod_splits == []


def test_sum_of_squares_matches_dim():
    """Graded algebras over N = 2, 3, 4 and 6, composite N included:
    |R| d^2 = n, with d = n, |R| = copies."""
    for n, copies in ((2, 1), (3, 1), (2, 2), (4, 1), (4, 2), (4, 4), (6, 1), (6, 3)):
        A = graded_matrix_algebra(n, copies)
        dims = wedderburn_dims(A).dims
        assert dims == [n] * copies and sum(d * d for d in dims) == A.dim, A.name


def test_trace_forms_agree_with_both_certificates(p3_diag_bundle):
    """The trace form T has full rank mod l, as a semisimple algebra's must,
    on the algebras both certificates decide: the M_3 block (graded, one
    block), C[Z/5] and the commutative block (n blocks of 1).  Only the
    commutative ones read their dims off T."""
    inst, _, zs = p3_diag_bundle
    for A, dims in ((build_block_algebra(inst.t, zs[1]), [3]),
                    (function_algebra(5, 5), [1] * 5),
                    (build_block_algebra(inst.t, zs[0]), [1] * 9)):
        assert center_basis(A).shape == (len(dims), A.dim), A.name
        assert _split_mod(A, *_modular_root(A.product.order)) == [1] * A.dim, A.name
        assert wedderburn_dims(A).dims == dims, A.name


def test_exact_center_of_block(p3_diag_bundle, mod_splits):
    """The M_3 block's center is certified as the line of the trivial
    character, f_1 = sum_x delta_x, which is its unit, and the block is one
    block of 3 with no split mod l."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])      # the M_3 block
    basis = center_basis(blk)
    assert basis.shape == (1, 9) and basis.eq(blk.unit.reshape(1, 9))
    assert wedderburn_dims(blk).dims == [3]
    assert mod_splits == []


def test_exact_center_of_s3_is_class_sums():
    """C[S3] over Q(zeta_3): its exact center, the nullspace of the
    commutator system, is the class sums, each 1 at its free column: {e},
    the three transpositions, the two 3-cycles."""
    mul = np.zeros((6, 6, 6, 3), dtype=np.int64)
    mul[..., 0] = group_algebra_counts(s3_mul())
    commutators = (mul - mul.swapaxes(0, 1)).transpose(2, 1, 0, 3).reshape(36, 6, 3)  # [(k, j), i]
    center = cyc_nullspace(CycArray(3, Fraction(1), commutators))
    classes = CycArray.zeros((3, 6), 3)
    classes.counts[[0, 1, 1, 1, 2, 2], [0, 1, 2, 3, 4, 5], 0] = 1
    assert center.eq(classes)


def test_exact_center_of_commutative_algebra_takes_no_solve(mod_splits, monkeypatch):
    """C[Z/5] is canonically symmetric: the identity basis, no commutator rows,
    and a split mod l that echelons only its trace form, no commutator system."""
    identity = CycArray.zeros((5, 5), 5)
    identity.counts[np.arange(5), np.arange(5), 0] = 1
    A = function_algebra(5, 5)
    assert center_basis(A).eq(identity)
    shapes, rank = [], semisimple._rank_mod
    monkeypatch.setattr(semisimple, "_rank_mod",
                        lambda a, ell: shapes.append(a.shape) or rank(a, ell))
    assert wedderburn_dims(A).dims == [1] * 5
    assert mod_splits == [_modular_root(5)[0]] and shapes == [(5, 5)]


def test_commutative_block_center_forms_no_grading(p3_diag_bundle, monkeypatch):
    """The commutative block over H: identity basis, no contraction and no
    grading.  Its slice patched off commutativity in a checkerboard, which
    keeps every row and column sum and so the unit, forms the grading, whose
    2-cocycle check refutes associativity by name (the center certificate
    alone would pass it as span(unit))."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append(axes) or contract(a, b, axes))
    formed = count_calls(monkeypatch, "_grading_characters")
    assert center_basis(blk).eq(identity)
    assert contractions == [] and formed == []

    patched = copied(blk.product)
    patched.counts[[1, 1, 4, 4], [2, 3, 2, 3], 0] += [1, -1, -1, 1]
    A = SCAlgebra(patched, blk.perms, name="patched")
    with pytest.raises(CotwistError, match="patched: the constants are not associative"):
        center_basis(A)
    assert contractions == [] and formed == ["_grading_characters"]


def faulty_grading(fault):
    """``_grading_characters`` with one fault: P with rows 1 and 2 swapped,
    N + 1 for N, or the trivial character listed twice."""
    grading = semisimple._grading_characters

    def patched(perms, order):
        if fault == "rows swapped":
            perms = perms.copy()
            perms[[1, 2]] = perms[[2, 1]]
        elif fault == "exponent":
            order += 1
        found = grading(perms, order)
        if fault != "second zero row":
            return found
        E, products = found
        return np.concatenate([E[:1], E[:-1]]), products
    return patched


#: the refusal each fault of ``faulty_grading`` meets
GRADING_REFUSALS = {"rows swapped": "its basis permutations are no abelian group",
                    "exponent": "its basis permutations are no abelian group",
                    "second zero row": "the constants are not associative"}


@pytest.mark.parametrize("fault", list(GRADING_REFUSALS))
def test_failed_grading_is_refused_by_name(simple_exact_algebras, mod_splits, monkeypatch,
                                           fault):
    """No grading certificate - P with two rows swapped (Q's table is then
    not symmetric), N + 1 for N (the exponent of Q does not divide it) - or
    the trivial character listed twice (a second zero row of C - C^T, and
    rows of C that no longer match the table of Q^, so the 2-cocycle check
    refutes): the algebra is refused by name, with no split mod l."""
    patched = faulty_grading(fault)
    monkeypatch.setattr(semisimple, "_grading_characters", patched)
    for name, A in simple_exact_algebras.items():
        assert (patched(A.perms, A.product.order) is None) == (fault != "second zero row"), name
        with pytest.raises(CotwistError, match=re.escape(f"{A.name}: {GRADING_REFUSALS[fault]}")):
            wedderburn_dims(A)
    assert mod_splits == []


def test_grading_refuses_a_commutative_loop():
    """A symmetric table with an identity that is no group, the commutative
    loop of order 6 below ((2 2) 4 = 3, 2 (2 4) = 2), still lists six
    "characters"; the check q_s o q_y = q_{Q[s, y]} on the generators is
    what refuses it."""
    loop = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                     [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]])
    assert character_exponents(FiniteGroup(loop), 6).shape == (6, 6)
    assert _grading_characters(np.argsort(loop, axis=1), 6) is None


@pytest.fixture(scope="module")
def intermediate_block(intermediate_bundle):
    """A criterion-9 coset block (|K_g| = 3, dims [3, 3, 3])."""
    inst, _, _ = intermediate_bundle
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


def exact_grading(A):
    """(E, products, C): the characters of the translation group of a
    slice-form algebra, the table of their products, and
    C[chi, psi] = sum_{a, b} chi(a) S[a, b] psi(b), exactly."""
    E, products = _grading_characters(A.perms, A.product.order)
    F = CycArray.from_exponents(A.product.order, E)                   # [chi, x]
    return E, products, cyc_tensordot(cyc_tensordot(F, A.product, axes=([1], [0])), F,
                                      axes=([1], [1]))


def grading_prime(A):
    """(l, omega) of the graded certificate's first prime: n l^2 < 2^53."""
    return _modular_root(A.product.order, math.isqrt((1 << 53) // A.dim))


def central_characters(C):
    """The characters whose row of C - C^T is exactly zero."""
    diff = canonical_counts(C.counts - C.counts.swapaxes(0, 1), C.order)
    return np.flatnonzero(~diff.any(axis=(1, 2)))


def test_float_grading_products_are_exact(simple_exact_algebras, intermediate_block):
    """The two float64 products give the image mod l of the exact
    C = F^T S F, count for count.  Only the trivial character is central in
    the one-block algebras; three are in criterion 9's [3, 3, 3] block."""
    algebras = dict(simple_exact_algebras, **{"criterion-9 block": intermediate_block})
    for name, A in algebras.items():
        E, _, C = exact_grading(A)
        assert not E[0].any() and len(E) == A.dim, name
        ell, omega = grading_prime(A)
        modular = _grading_product(A.product, E, ell, omega)
        assert A.dim * (ell - 1) ** 2 < 1 << 53, name
        assert np.array_equal(modular, _modular_image(C.counts, ell, omega)), name
        central = central_characters(C)
        assert central[0] == 0, name
        assert central.size == (1 if name in simple_exact_algebras else 3), name


def test_exact_grading_has_one_zero_row_per_block(general_slice_algebras):
    """On the blocks and U_g of criteria 9 and 10 the exact C - C^T has r zero
    rows, r the number of blocks they split to, and the trivial row among
    them: the lines f_chi that they name span the center.  Every exact
    C[chi, chi^-1] is nonzero (condition (i)): each f_chi is invertible."""
    for A, dims in general_slice_algebras:
        E, products, C = exact_grading(A)
        central = central_characters(C)
        assert central.size == len(dims) and central[0] == 0, A.name
        modular = _grading_product(A.product, E, *grading_prime(A))
        assert np.array_equal(np.flatnonzero(~np.any(modular != modular.T, axis=1)),
                              central), A.name
        inverse = np.argmax(products == 0, axis=1)
        assert np.array_equal(products[np.arange(A.dim), inverse], np.zeros(A.dim)), A.name
        at_inverse = CycArray(C.order, C.scale, C.counts[np.arange(A.dim), inverse])
        assert not at_inverse.zero_mask().any(), A.name


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
    """One count of the slice S changed by 1 breaks a row and a column sum of
    S, which the unit check reads: the algebra is refused by name.  The sides
    u e_j and e_j u of the gathered constants at x are those sums read at
    P[x, j], count for count."""
    from cotwist.dual_algebras import gather_slice

    for A in swap_algebras(wreath_bundle):
        bad = copied(A.product)
        bad.counts[5, 7, 0] += 1
        dense = gather_slice(bad, A.perms).counts
        for sides, sums in (("ab...->b...", "ij...->j..."), ("ab...->a...", "ij...->i...")):
            side = np.einsum(sides, dense)                          # [j, x]
            assert np.array_equal(side, np.einsum(sums, bad.counts)[A.perms.T]), A.name
        with pytest.raises(AuditError, match=re.escape(f"{A.name}: the counit is not")):
            SCAlgebra(bad, A.perms, name=A.name)


def test_slice_rows_must_be_permutations(wreath_bundle):
    block, _ = swap_algebras(wreath_bundle)
    perms = block.perms.copy()
    perms[3, 0] = perms[3, 1]
    with pytest.raises(AuditError, match="slice rows are not basis permutations"):
        SCAlgebra(block.product, perms, name=block.name)


def test_counts_past_the_float_bound_take_the_trace_forms(p3_diag_bundle, mod_splits):
    """Blocks on counts scaled by 2^40 (the same values), far past 2^53 in
    any float64 product of the counts.  The commutative block takes the
    trace form mod l, which reduces the counts first: n blocks of 1.  The
    M_3 block: the grading reduces the slice before its float64 products,
    so it certifies span(unit) with no split mod l."""
    inst, _, zs = p3_diag_bundle
    commutative = build_block_algebra(inst.t, zs[0])
    S = commutative.product
    scaled = CycArray(S.order, S.scale / (1 << 40), S.counts << 40)
    assert scaled.eq(S)
    assert wedderburn_dims(SCAlgebra(scaled, commutative.perms)).dims == [1] * 9
    assert mod_splits == [_modular_root(S.order)[0]]
    blk = build_block_algebra(inst.t, zs[1])
    S = blk.product
    sliced = SCAlgebra(CycArray(S.order, S.scale / (1 << 40), S.counts << 40), blk.perms)
    assert center_basis(sliced).eq(blk.unit.reshape(1, blk.dim))
    assert wedderburn_dims(sliced).dims == [3] and len(mod_splits) == 1


def test_one_dim_center_decided_exactly(simple_exact_algebras, mod_splits, monkeypatch):
    """An exact algebra whose center is span(unit) is one block of sqrt(n),
    with no eigenproblem, no split mod l and no elimination: the p=3, p=7 and wreath one-block algebras are
    decided by the translation grading with no ``_rank_mod`` call."""
    from cotwist import exactlin

    eigs, echelons = [], []
    eig, rank = np.linalg.eig, exactlin._rank_mod
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    for module in (exactlin, semisimple):
        monkeypatch.setattr(module, "_rank_mod",
                            lambda a, ell: echelons.append(a.shape) or rank(a, ell))
    for name, A in simple_exact_algebras.items():
        assert wedderburn_dims(A).dims == [int(round(np.sqrt(A.dim)))], name
    assert eigs == [] and mod_splits == [] and echelons == []


@pytest.fixture(scope="module")
def commutative_exact_algebras(p3_diag_bundle, p3_gauge_diag_bundle, wreath_bundle):
    """Every commutative exact algebra the fixtures build: the block and U_g of
    the commutative cosets with K_g = H of p=3 (plain and gauge-transformed),
    p=5 unipotent and the wreath table."""
    from cotwist.correspondence import (Config, SymplecticConstruction, build_instance,
                                        invariant_algebra_Ug, prepare_instance)

    inst = build_instance(Config(SymplecticConstruction(5, 1, [[[1, 1], [0, 1]]])))
    p5 = inst, prepare_instance(inst), double_cosets(inst.G, inst.H)
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
                   if center_basis(A).shape[0] == A.dim}
    assert len(commutative) == 2 * (1 + 1 + 5 + 9)
    return commutative


def test_commutative_exact_algebras_split_exactly(commutative_exact_algebras, mod_splits,
                                                  monkeypatch):
    """A commutative exact algebra whose trace form is certified nondegenerate
    is n blocks of 1, with no eigenproblem and one split mod l, at the first
    prime."""
    eigs, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    for name, A in commutative_exact_algebras.items():
        assert wedderburn_dims(A).dims == [1] * A.dim, name
    assert eigs == []
    assert mod_splits == [_modular_root(A.product.order)[0]
                          for A in commutative_exact_algebras.values()]


@pytest.mark.parametrize("fault", ["short rank", "overflow"])
def test_commutative_split_without_certificate_takes_the_trace_forms(
        commutative_exact_algebras, mod_splits, monkeypatch, fault):
    """A short rank mod l of the trace form is no certificate: the split moves
    to the next prime, where it gives the same dims.  Slice counts near 2^62
    (the same values) overflow nothing, since the split reduces them mod l
    first: the trace form is still certified at the first prime."""
    A = commutative_exact_algebras["p=5 unipotent block 0"]
    ell = _modular_root(A.product.order)[0]
    if fault == "short rank":
        shapes, rank = [], semisimple._rank_mod

        def short(a, ell):
            shapes.append(a.shape)
            return rank(a, ell) - (len(shapes) == 1)

        monkeypatch.setattr(semisimple, "_rank_mod", short)
        assert wedderburn_dims(A).dims == [1] * A.dim
        assert shapes[0] == (A.dim, A.dim)
        assert mod_splits == [ell, _modular_root(A.product.order, ell)[0]]
    else:
        counts = A.product.counts
        shift = 62 - _largest(counts).bit_length()
        big = copy.copy(A)  # built on the small counts: its unit sums would overflow
        big.product = CycArray(A.product.order, A.product.scale / (1 << shift), counts << shift)
        big._mul = None     # constants gathered from the small counts, if any
        assert big.product.eq(A.product) and 1 << 61 <= _largest(big.product.counts) < 1 << 62
        assert big.perms is not None
        assert wedderburn_dims(big).dims == [1] * A.dim
        assert mod_splits == [ell]


def test_commutative_slice_algebras_split_without_a_gather(commutative_exact_algebras,
                                                           monkeypatch):
    """The block and U_g of every p=5 unipotent coset (commutative, |Z| = 25)
    are built in slice form, and their unit check, center and trace-form
    certificate give [1] * 25 without ever gathering the 25^3 constants."""
    gathers, gather = [], dual_algebras.gather_slice
    monkeypatch.setattr(dual_algebras, "gather_slice",
                        lambda S, perms: gathers.append(S.shape) or gather(S, perms))
    unipotent = [A for name, A in commutative_exact_algebras.items()
                 if name.startswith("p=5 unipotent")]
    assert len(unipotent) == 10
    for A in unipotent:
        assert A.perms is not None and A.dim == 25
        fresh = SCAlgebra(A.product, A.perms, name=A.name)
        assert wedderburn_dims(fresh).dims == [1] * 25, A.name
    assert gathers == []


@pytest.fixture(scope="module")
def general_slice_algebras(intermediate_bundle):
    """The blocks and U_g at the cosets with |K_g| < |H| of criterion 9 (at
    27 and 54, [3, 3, 3]) and of criterion 10's second twist (at 64 and 128,
    [4, 4, 4, 4]), with the dims they split to: built in slice form, and
    neither one block nor commutative."""
    from instances import CRITERION_10, build_instance

    from cotwist.correspondence import invariant_algebra_Ug, prepare_instance

    inst = build_instance(*CRITERION_10[1])
    criterion_10 = inst, prepare_instance(inst), double_cosets(inst.G, inst.H)
    algebras = []
    for (inst, ctx, zs), reps, dims in ((intermediate_bundle, (27, 54), [3, 3, 3]),
                                        (criterion_10, (64, 128), [4, 4, 4, 4])):
        for z in (z for z in zs if z.representative in reps):
            g = z.representative
            Kg = stabilizer_Kg(inst.G, inst.H, g)
            for A in (build_block_algebra(inst.t, z),
                      invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)):
                algebras.append((A, dims))
    return algebras


def test_split_reads_the_slice(general_slice_algebras, commutative_exact_algebras, mod_splits,
                               monkeypatch):
    """With ``gather_slice`` and the elimination ``_rank_mod`` raising, the
    blocks and U_g of criteria 9 and 10 split to [3, 3, 3] and [4, 4, 4, 4]
    from their slices, their graded centers of dimension 3 and 4: no n^3
    constants are gathered and nothing is eliminated.  A commutative slice
    algebra whose first prime is made degenerate takes the next prime,
    still with no gather."""
    from cotwist import exactlin

    def forbidden(*args):
        raise AssertionError(f"called on {args[0].shape}")

    rank = exactlin._rank_mod
    monkeypatch.setattr(dual_algebras, "gather_slice", forbidden)
    for module in (exactlin, semisimple):
        monkeypatch.setattr(module, "_rank_mod", forbidden)
    assert len(general_slice_algebras) == 8
    for A, dims in general_slice_algebras:
        assert A.perms is not None, A.name
        fresh = SCAlgebra(A.product, A.perms, name=A.name)
        assert center_basis(fresh).shape == (len(dims), A.dim), A.name
        assert wedderburn_dims(fresh).dims == dims, A.name
    assert mod_splits == []

    A = commutative_exact_algebras["p=5 unipotent U_g 0"]
    fresh = SCAlgebra(A.product, A.perms, name=A.name)
    ranks = []

    def short(a, ell):  # the first prime's trace form loses a pivot
        ranks.append(ell)
        return rank(a, ell) - (len(ranks) == 1)

    monkeypatch.setattr(semisimple, "_rank_mod", short)
    assert wedderburn_dims(fresh).dims == [1] * 25
    ell = _modular_root(A.product.order)[0]
    assert mod_splits == ranks == [ell, _modular_root(A.product.order, ell)[0]]


def dual_numbers():
    """Exact C[x]/(x^2), graded by Z/2 with x = f_1: f_1 f_1 = 0, over
    Q(zeta_3): commutative, not semisimple."""
    return boolean_graded_algebra([[1, 1], [1, 0]], order=3, name="dual numbers")


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
    assert all(ell % 3 == 1 for ell in mod_splits)
    assert mod_splits == sorted(mod_splits)[::-1]


def test_degenerate_prime_moves_to_the_next(monkeypatch):
    """Slice-form M_3 on counts multiplied by the graded certificate's first
    prime l and scale 1/l (the same values): the counts vanish mod l, so
    does C, condition (i) fails, and the certificate moves to the next prime
    down.  Three primes forced degenerate raise the named error."""
    A = graded_matrix_algebra(3)
    ell = grading_prime(A)[0]
    S = A.product
    scaled = SCAlgebra(CycArray(3, S.scale / ell, S.counts * ell), A.perms, name="scaled M_3")
    primes, product = [], semisimple._grading_product
    monkeypatch.setattr(semisimple, "_grading_product", lambda S, E, p, omega: (
        primes.append(p) or product(S, E, p, omega)))
    assert wedderburn_dims(scaled).dims == [3]
    assert primes == [ell, _modular_root(3, ell)[0]] and primes[1] % 3 == 1

    primes.clear()
    monkeypatch.setattr(semisimple, "_grading_product", lambda S, E, p, omega: (
        primes.append(p) or np.zeros((len(E), len(E)), dtype=np.int64)))
    with pytest.raises(CotwistError, match=re.escape(
            "graded M_3^1: the graded certificate fails mod 3 primes")):
        wedderburn_dims(A)
    assert len(set(primes)) == 3


def test_corrupted_count_of_a_split_block_is_refused(intermediate_block, monkeypatch):
    """One diagonal count S[i, i] of the slice of criterion 9's [3, 3, 3]
    block raised at zeta^k: the unit check refuses it when it is built, and
    past that check the 2-cocycle check of the grading refutes
    associativity by name, for each of the 27 * 3 corruptions.  The
    trace-form split that the graded certificate replaced assumed
    associativity and accepted 57 of them as [3, 3, 3]."""
    S, perms = intermediate_block.product, intermediate_block.perms
    bad = copied(S)
    bad.counts[0, 0, 0] += 1
    with pytest.raises(AuditError, match="corrupted: the counit is not"):
        SCAlgebra(bad, perms, name="corrupted")
    monkeypatch.setattr(dual_algebras, "determine_unit", lambda *args: None)
    for i, k in itertools.product(range(S.shape[0]), range(S.order)):
        bad = copied(S)
        bad.counts[i, i, k] += 1
        A = SCAlgebra(bad, perms, name=f"corrupted at {i}, {k}")
        with pytest.raises(CotwistError, match=re.escape(
                f"{A.name}: the constants are not associative")):
            wedderburn_dims(A)


def test_float_constants_refused_by_name():
    A = graded_matrix_algebra(2)
    with pytest.raises(CotwistError, match="M_2: structure constants must be exact, "
                                           "got ndarray"):
        SCAlgebra(embedded(A.product), A.perms, name="M_2")


def test_canonically_symmetric_counts_take_no_certificate(p3_gauge_diag_bundle, mod_splits,
                                                         monkeypatch):
    """The gauge-transformed p=3 H-coset block has counts that are symmetric
    only canonically: its center is the identity basis with no certificate
    attempt, and it is split as a commutative algebra."""
    inst, _, zs = p3_gauge_diag_bundle
    blk = build_block_algebra(inst.t, zs[0])
    counts = blk.mul.counts
    assert not np.array_equal(counts, counts.transpose(1, 0, 2, 3))
    n = blk.dim
    identity = CycArray.zeros((n, n), blk.mul.order)
    identity.counts[np.arange(n), np.arange(n), 0] = 1
    formed = count_calls(monkeypatch, "_grading_characters")
    assert center_basis(blk).eq(identity)
    assert wedderburn_dims(blk).dims == [1] * n
    assert formed == [] and mod_splits == [_modular_root(blk.product.order)[0]]


def test_canonically_symmetric_scans_its_counts_once(monkeypatch):
    """Both compares take the guard 2 max|c| G < 2**64 (G = 2 at N = 3) from
    one scan of the counts, which their transpose shares.  Counts of 2**62 - 1
    are decided both ways; 2**62 is refused by name, in the last row or not."""
    from cotwist import exactlin

    scans = []
    for module in (exactlin, semisimple):
        monkeypatch.setattr(module, "_largest", lambda c: scans.append(c.shape) or _largest(c))
    q = (1 << 62) - 1
    counts = np.zeros((3, 3, 3), dtype=np.int64)
    counts[0, 2, 0], counts[2, 0] = q, [0, -q, -q]  # equal canonically: 1 = -zeta - zeta^2
    assert semisimple._canonically_symmetric(CycArray(3, 1, counts))
    counts[1, 0, 0] = q
    assert not semisimple._canonically_symmetric(CycArray(3, 1, counts))
    assert scans == [(3, 3, 3)] * 2
    for row in (2, 1):
        big = counts.copy()
        big[row, 0, 0] = 1 << 62
        with pytest.raises(CotwistError, match="canonical counts of a difference would overflow"):
            semisimple._canonically_symmetric(CycArray(3, 1, big))


def test_exterior_algebra_refused_by_the_graded_certificate(mod_splits):
    """The exterior algebra on two generators, graded by (Z/2)^2 (f_1 f_2 =
    f_3 = -f_2 f_1, f_1^2 = f_2^2 = 0): noncommutative, associative and not
    semisimple.  Its center is span(f_0, f_3), |R| = 2 with n / |R| = 2 no
    square, and f_1 f_1 = 0 fails condition (i): refused by name at every
    prime, with no split mod l."""
    C = np.zeros((4, 4), dtype=np.int64)
    C[0], C[:, 0], C[1, 2], C[2, 1] = 1, 1, 1, -1
    A = boolean_graded_algebra(C, name="exterior")
    assert algebra_audit(A)
    with pytest.raises(CotwistError, match=re.escape(
            "exterior: the graded certificate fails mod 3 primes")):
        wedderburn_dims(A)
    assert mod_splits == []


def test_doubled_unit_refused_when_built(p3_diag_bundle):
    """The M_3 block's slice halved: the counit is twice the unit, central
    but no unit, and is refused exactly when the algebra is built; the
    slice doubled on counts and halved on scale is the same algebra, and
    the graded split takes it."""
    inst, _, zs = p3_diag_bundle
    blk = build_block_algebra(inst.t, zs[1])
    S = blk.product
    with pytest.raises(AuditError, match=re.escape(f"{blk.name}: the counit is not")):
        SCAlgebra(S.scale_by(Fraction(1, 2)), blk.perms, name=blk.name)
    same = CycArray(S.order, S.scale / 2, 2 * S.counts)
    assert wedderburn_dims(SCAlgebra(same, blk.perms)).dims == [3]


def test_idempotent_posing_as_unit_refused_when_built():
    """The slice E_01 on Z/2, P[x, a] = a xor x: its entries sum to 1, so the
    counit u has u u = u, but its column sums sit at cell 1 and its row sums
    at cell 0, so u e_j != e_j, and the algebra is refused when built."""
    S = CycArray.zeros((2, 2), 3)
    S.counts[0, 1, 0] = 1
    P = np.array([[0, 1], [1, 0]])
    u = CycArray.from_exponents(3, np.zeros(2, dtype=np.int64))
    mul = gather_slice(S, P)
    assert cyc_tensordot(u, cyc_tensordot(u, mul, axes=([0], [0])), axes=([0], [0])).eq(u)
    with pytest.raises(AuditError, match=r"E_01: the counit is not"):
        SCAlgebra(S, P, name="E_01")


def test_swap_coset_takes_no_commutator_tensor(wreath_bundle, mod_splits, monkeypatch):
    """On the wreath swap coset neither the block nor U_g is reduced mod l or
    contracts ``mul`` in the center."""
    contractions, contract = [], semisimple.cyc_tensordot
    monkeypatch.setattr(semisimple, "cyc_tensordot",
                        lambda a, b, axes: contractions.append((a.shape, b.shape))
                        or contract(a, b, axes))
    for A in swap_algebras(wreath_bundle):
        assert wedderburn_dims(A).dims == [9]
    assert contractions == [] and mod_splits == []


def test_wedderburn_exact_input(p3_diag_bundle):
    inst, _, zs = p3_diag_bundle
    blk0 = build_block_algebra(inst.t, zs[0])
    assert wedderburn_dims(blk0).dims == [1] * 9


def test_algebra_audit_rejects_nonassociative():
    """Graded by (Z/2)^2 with C = 1 but C[1, 2] = 2: the unit laws hold, but
    (f_1 f_1) f_2 = f_2 while f_1 (f_1 f_2) = 2 f_2."""
    C = np.ones((4, 4), dtype=np.int64)
    C[1, 2] = 2
    assert not algebra_audit(boolean_graded_algebra(C))
    assert algebra_audit(boolean_graded_algebra(np.ones((4, 4), dtype=np.int64)))


def test_algebra_audit_rejects_broken_unit():
    """A unit that fails the unit laws never reaches the audit: graded by Z/2
    with f_1 f_0 = 2 f_1, the algebra is refused by name when it is built."""
    with pytest.raises(AuditError, match="broken: the counit is not a two-sided unit"):
        boolean_graded_algebra([[1, 1], [2, 1]], name="broken")
