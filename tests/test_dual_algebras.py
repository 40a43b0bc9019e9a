"""Dual algebras of the two deformed coproducts, their actions, blocks, iso.

The product oracles here recompute structure constants with the reference
arithmetic of ``cyc_reference`` in plain loops, straight from the defining
formulas, independently of the vectorized builders.
"""

import numpy as np
import pytest

from cotwist.dual_algebras import (SCAlgebra, a2_to_a1op_iso, ad_invariant, build_block_algebra,
                                   gather_slice)
from cotwist.errors import AuditError
from cotwist.exactlin import CycArray
from cotwist.groups import FiniteGroup, build_elementary_abelian_symplectic
from cotwist.semisimple import algebra_audit
from cyc_reference import add, equal, mul, on_powers, values, zero


def test_a1_product_object_loop_oracle(p3_twist, p3_duals):
    t = p3_twist
    A1 = p3_duals[0]
    J = values(t.J)
    table = t.group.mul
    inv = t.group.inv
    got = values(A1.mul)
    rng = np.random.default_rng(1)
    for _ in range(12):
        h, hp = int(rng.integers(9)), int(rng.integers(9))
        for x in range(9):
            want = J[table[inv[x], h], table[inv[x], hp]]
            assert equal(got[h, hp, x], want)


def test_a2_product_object_loop_oracle(p3_twist, p3_duals):
    t = p3_twist
    A2 = p3_duals[1]
    Jinv = values(t.Jinv)
    table = t.group.mul
    inv = t.group.inv
    got = values(A2.mul)
    rng = np.random.default_rng(2)
    for _ in range(12):
        h, hp = int(rng.integers(9)), int(rng.integers(9))
        for x in range(9):
            want = Jinv[table[h, inv[x]], table[hp, inv[x]]]
            assert equal(got[h, hp, x], want)


def test_duals_are_unital_associative(p3_duals):
    A1, A2 = p3_duals[0], p3_duals[1]
    assert algebra_audit(A1)
    assert algebra_audit(A2)
    # the unit is the all-ones (counit) vector
    for A in (A1, A2):
        assert np.array_equal(A.unit.counts[:, 0], np.ones(9, dtype=np.int64))
        assert not A.unit.counts[:, 1:].any()


def test_duals_are_noncommutative(p3_duals):
    A1 = p3_duals[0]
    m = A1.mul
    swapped = CycArray(m.order, m.scale, np.swapaxes(m.counts, 0, 1))
    assert not m.eq(swapped)


def test_translation_actions_verify(p3_duals):
    A1, A2, rho1, rho2 = p3_duals
    rho1.verify(A1)
    rho2.verify(A2)
    # freeness: no nonidentity element fixes any basis point
    for rho in (rho1, rho2):
        fixed = rho.perms[1:] == np.arange(9)[None, :]
        assert not fixed.any()


def test_rho_conventions(p3_pair, p3_duals):
    H, _ = p3_pair
    _, _, rho1, rho2 = p3_duals
    # rho1(h): delta_y -> delta_{h y};  rho2(h): delta_y -> delta_{y h^-1}
    for h in range(9):
        for y in range(9):
            assert rho1.perms[h, y] == H.mul[h, y]
            assert rho2.perms[h, y] == H.mul[y, H.inv[h]]


def test_action_automorphism_spot_check(p3_duals):
    """rho(a) applied to a product equals the product of images, exactly."""
    A1, _, rho1, _ = p3_duals
    rng = np.random.default_rng(3)
    obj = A1.mul
    for _ in range(8):
        a = int(rng.integers(9))
        h, hp = int(rng.integers(9)), int(rng.integers(9))
        lhs = CycArray.zeros((9,), obj.order).scale_by(obj.scale)
        lhs.counts[rho1.perms[a]] = obj.counts[h, hp]  # rho1(a): delta_y -> delta_perms[a][y]
        rhs = CycArray(obj.order, obj.scale,
                       obj.counts[rho1.perms[a, h], rho1.perms[a, hp]].copy())
        assert lhs.eq(rhs)


def test_identity_coset_block_is_commutative_here(p3_diag_bundle):
    """The block over H itself is NOT A1*: it is the ambient product, which
    for this instance splits into nine characters and so must be commutative
    (while A1* is a full 3x3 matrix algebra)."""
    inst, ctx, zs = p3_diag_bundle
    z0 = zs[0]
    assert z0.representative == 0
    blk = build_block_algebra(inst.t, z0)
    assert blk.dim == 9
    swapped = CycArray(blk.mul.order, blk.mul.scale,
                       np.swapaxes(blk.mul.counts, 0, 1))
    assert blk.mul.eq(swapped)
    assert not blk.mul.eq(ctx.A1s.mul)


def test_block_algebra_reference_formula(reference_case):
    """Cells of a block against sum_{s,t} Jinv[s,t] J[x^-1 s^-1 a, x^-1 t^-1 b],
    summed in the reference arithmetic (the gauge twist has two-term cells).
    Every cell where |Z| <= 9; on the criterion-9 coset (|Z| = 27) and the
    wreath swap coset (|Z| = 81) every (a, b) at the representative and at
    two seeded x."""
    inst, _, z = reference_case
    t, G = inst.t, inst.G
    blk = build_block_algebra(t, z)
    xs = np.arange(z.size)
    if z.size > 9:
        g = np.flatnonzero(z.elements == z.representative)
        xs = np.unique(np.concatenate([g, np.random.default_rng(8).choice(z.size, 2)]))
    J, Jinv = values(t.J), values(t.Jinv)
    loc = {int(h): i for i, h in enumerate(inst.H.elements)}
    got = values(blk.mul.take(xs, axis=2))
    for ia, a in enumerate(z.elements):
        for ib, b in enumerate(z.elements):
            for k, x in enumerate(z.elements[xs]):
                xinv = G.inv[x]
                want = zero(t.order)
                for s, hs in enumerate(inst.H.elements):
                    c = loc.get(int(G.mul[xinv, G.mul[G.inv[hs], a]]))
                    if c is None:
                        continue
                    for tt, ht in enumerate(inst.H.elements):
                        d = loc.get(int(G.mul[xinv, G.mul[G.inv[ht], b]]))
                        if d is not None:
                            want = add(want, mul(Jinv[s, tt], J[c, d]))
                assert equal(got[ia, ib, k], want), (a, b, x)


def test_block_algebras_unital_associative(p3_diag_bundle):
    inst, _, zs = p3_diag_bundle
    for z in zs:
        blk = build_block_algebra(inst.t, z)
        assert algebra_audit(blk)


def no_gather(S, perms):
    raise AssertionError(f"gather_slice called on {S.shape}")


def test_take_reads_sections_off_the_slice(p3_duals, p3_diag_bundle, monkeypatch):
    """``A.take(i, axis)`` equals ``A.mul.take(i, axis)`` count for count, for
    one index and for an array of them on every axis, on A1*, A2* and a
    block; it gathers nothing."""
    from cotwist import dual_algebras

    inst, _, zs = p3_diag_bundle
    algebras = [*p3_duals[:2], build_block_algebra(inst.t, zs[1])]
    wanted = [[(i, axis, A.mul.take(i, axis)) for axis in range(3) for i in (0, 4, [2, 0, 7])]
              for A in algebras]
    monkeypatch.setattr(dual_algebras, "gather_slice", no_gather)
    for A, cases in zip(algebras, wanted):
        A = SCAlgebra(A.product, A.perms, A.name)
        for i, axis, want in cases:
            got = A.take(i, axis)
            assert got.scale == want.scale and np.array_equal(got.counts, want.counts)


def test_index_certificate_refuses_a_non_automorphism(p3_duals, monkeypatch):
    """On the slice-form A1*, left translation conjugated by the swap of
    delta_1 and delta_2 fails the index identity P[p, p] == P, so the dense
    compare decides, and refuses it by name."""
    from cotwist import dual_algebras
    from cotwist.dual_algebras import GroupAction

    A1, _, rho1, _ = p3_duals
    fresh = SCAlgebra(A1.product, A1.perms, A1.name)
    gathers, gather = [], dual_algebras.gather_slice
    monkeypatch.setattr(dual_algebras, "gather_slice",
                        lambda S, perms: gathers.append(S.shape) or gather(S, perms))
    swap = np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])
    with pytest.raises(AuditError, match="basis permutation of element 1 is not an automorphism"):
        GroupAction(rho1.group, swap[rho1.perms][:, swap]).verify(fresh)
    assert gathers == [(9, 9)]


def test_automorphism_off_the_index_identity_takes_the_dense_compare(p3_twist, p3_duals,
                                                                     monkeypatch):
    """Row 0 of A1*'s P relabelled by u -> u^-1, under which the symplectic J
    is invariant, gives the same constants, but left translation no longer
    keeps P: verify passes through the dense compare, one gather.  The
    original P passes with ``gather_slice`` raising."""
    from cotwist import dual_algebras

    A1, _, rho1, _ = p3_duals
    perms = A1.perms.copy()
    perms[0] = p3_twist.group.inv[perms[0]]
    p = rho1.perms[rho1.group.generators[0]]
    assert not np.array_equal(perms[np.ix_(p, p)], perms)
    moved = SCAlgebra(A1.product, perms, "A1* relabelled")
    gathers, gather = [], dual_algebras.gather_slice
    monkeypatch.setattr(dual_algebras, "gather_slice",
                        lambda S, perms: gathers.append(S.shape) or gather(S, perms))
    rho1.verify(moved)
    assert gathers == [(9, 9)]
    assert np.array_equal(moved.mul.counts, A1.mul.counts)
    monkeypatch.setattr(dual_algebras, "gather_slice", no_gather)
    rho1.verify(SCAlgebra(A1.product, A1.perms, A1.name))


def test_determine_unit_rejects_wrong_candidate(p3_duals):
    """A1*'s slice passes.  With two rows of its P swapped, P[x, x] is no
    longer one cell, and with the group basis of C[Z/3] (unit e, in slice
    form S[u, v] = [u + v = 0], P[x, a] = a + x) the column sums are all
    ones, not one cell: each is refused, naming the algebra."""
    A1 = p3_duals[0]
    SCAlgebra(A1.product, A1.perms, "A1*")
    perms = A1.perms.copy()
    perms[[1, 2]] = perms[[2, 1]]
    with pytest.raises(AuditError, match=r"A1\*: the counit is not a two-sided unit"):
        SCAlgebra(A1.product, perms, "A1*")

    z3 = np.arange(3)
    S = CycArray.zeros((3, 3), 3)
    S.counts[z3, -z3 % 3, 0] = 1
    P = (z3[:, None] + z3[None, :]) % 3
    assert np.array_equal(gather_slice(S, P).counts[..., 0], P[:, :, None] == z3)  # [a + b = x]
    with pytest.raises(AuditError, match=r"C\[Z/3\]: the counit is not"):
        SCAlgebra(S, P, "C[Z/3]")


def test_determine_unit_sums_the_all_ones_counit(p3_duals, monkeypatch):
    """The counit is checked on the two sum vectors of the slice, with no
    exact contraction and no gather; the same constants on doubled counts
    and half the scale pass too; a one-sided unit and counts that could
    overflow the sums raise."""
    from cotwist import dual_algebras
    from cotwist.errors import CotwistError

    A1 = p3_duals[0]
    S = A1.product
    for name in ("cyc_tensordot", "gather_slice"):
        monkeypatch.setattr(dual_algebras, name, lambda *args, _name=name: pytest.fail(_name))
    SCAlgebra(S, A1.perms, "A1*")
    SCAlgebra(CycArray(3, S.scale / 2, 2 * S.counts), A1.perms, "A1*")
    # column sums (1, 0), row sums (2, -1): the counit is a left unit, not a right one
    left_only = CycArray.zeros((2, 2), 3)
    left_only.counts[[0, 0, 1], [0, 1, 1], 0] = [1, 1, -1]
    with pytest.raises(AuditError, match="left-unit: the counit is not"):
        SCAlgebra(left_only, np.array([[0, 1], [1, 0]]), "left-unit")
    huge = CycArray(3, S.scale, S.counts * (1 << 60))
    with pytest.raises(CotwistError, match=r"A1\*: the unit sums would overflow"):
        SCAlgebra(huge, A1.perms, "A1*")


def test_a2_to_a1op_iso(p3_twist, p3_duals):
    A1, A2, rho1, rho2 = p3_duals
    M = a2_to_a1op_iso(p3_twist, A1, A2, rho1, rho2)
    # audits run inside; spot-check the product reversal once more by hand
    obj_m = values(M)
    a1 = values(A1.mul)
    a2 = values(A2.mul)
    rng = np.random.default_rng(6)
    for _ in range(4):
        x, y = int(rng.integers(9)), int(rng.integers(9))
        # M(delta_x .2 delta_y) coefficient at h
        for h in range(9):
            lhs = zero(3)
            for w in range(9):
                lhs = add(lhs, mul(a2[x, y, w], obj_m[h, w]))
            rhs = zero(3)
            for u in range(9):
                for v in range(9):
                    rhs = add(rhs, mul(mul(obj_m[u, y], obj_m[v, x]), a1[u, v, h]))
            assert equal(lhs, rhs)


def test_iso_rejects_wrong_candidate(p3_twist, p3_duals):
    """Corrupting the twist's Q breaks the iso audit."""
    A1, A2, rho1, rho2 = p3_duals
    import cotwist.dual_algebras as da

    # sabotage: transpose A2's slice, so mul[a, b, x] becomes mul[b, a, x] and reversal fails
    S = A2.product
    bad = da.SCAlgebra(CycArray(S.order, S.scale, np.swapaxes(S.counts, 0, 1)), A2.perms, "bad")
    assert bad.mul.eq(CycArray(S.order, S.scale, np.swapaxes(A2.mul.counts, 0, 1)))
    with pytest.raises(AuditError):
        a2_to_a1op_iso(p3_twist, A1, bad, rho1, rho2)


def _s3() -> FiniteGroup:
    """S_3 as permutations of {0, 1, 2}, composed right to left; index 0 = identity."""
    from itertools import permutations

    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup(np.array([[index[tuple(p[q[k]] for k in range(3))] for q in perms]
                                 for p in perms]), name="S3")


def test_ad_invariant_rejects_a_generic_matrix_on_s3():
    s3 = _s3()
    generic = on_powers(3, 1, np.random.default_rng(6).integers(-3, 4, size=(6, 6, 3)))
    assert not ad_invariant(s3, generic)
    # M[a, b] = [a == b] + zeta [b == a^-1] is unchanged by conjugating a and b together
    diag = CycArray.zeros((6, 6), 3)
    diag.counts[np.arange(6), np.arange(6), 0] = 1
    diag.counts[np.arange(6), s3.inv, 1] += 1
    assert ad_invariant(s3, diag)


def test_ad_invariant_holds_for_every_shipped_twist(p3_gauge_diag_bundle, tmp_path):
    """The symplectic twists, the gauge-conjugated one and the criterion-9 table
    twist all take the one-slice builds."""
    from instances import CRITERION_9, write_instance

    from cotwist.correspondence import build_instance
    from cotwist.twist import symplectic_twist

    twists = [symplectic_twist(*build_elementary_abelian_symplectic(p, 1)) for p in (3, 5, 7)]
    twists += [p3_gauge_diag_bundle[0].t, build_instance(write_instance(tmp_path, *CRITERION_9)).t]
    for t in twists:
        assert ad_invariant(t.group, t.J) and ad_invariant(t.group, t.Jinv)
