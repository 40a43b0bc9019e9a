"""Finite groups, subgroups, double cosets, stabilizers, constructions."""

import itertools
import math
import re

import numpy as np
import pytest

from cotwist.errors import CotwistError
from cotwist.groups import (Bicharacter, FiniteGroup, Subgroup, _integer_det,
                            build_elementary_abelian, build_elementary_abelian_symplectic,
                            build_semidirect, double_cosets, stabilizer_Kg)


def s3_table():
    """Symmetric group on 3 letters via permutation composition."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=np.int32)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            mul[i, j] = index[tuple(a[b[k]] for k in range(3))]
    return FiniteGroup(mul, labels=[str(p) for p in perms], name="S3")


def test_group_axioms_rejected_when_broken():
    bad = np.array([[0, 1], [1, 1]], dtype=np.int32)  # not a Latin square
    with pytest.raises(CotwistError):
        FiniteGroup(bad)


def test_s3_basics():
    G = s3_table()
    assert G.order == 6
    assert np.array_equal(G.mul[0], np.arange(6))
    # inverses: g * g^-1 = e
    assert np.array_equal(G.mul[np.arange(6), G.inv], np.zeros(6, dtype=G.mul.dtype))


def test_conjugate_oracle():
    G = s3_table()
    for g in range(6):
        for h in range(6):
            expected = G.mul[G.mul[G.inv[g], h], g]
            assert G.conjugate(g, h) == expected


def test_elementary_abelian_symplectic_p3():
    H, sigma = build_elementary_abelian_symplectic(3, 1)
    assert H.order == 9
    assert np.array_equal(H.mul, build_elementary_abelian(3, 2).mul)
    vecs = np.array(H.labels)
    # sigma((x,y),(x',y')) has exponent x y' - y x'
    for a in range(9):
        for b in range(9):
            x, y = vecs[a]
            xp, yp = vecs[b]
            assert sigma.exponents[a, b] == (x * yp - y * xp) % 3
    sigma.verify()


def test_symplectic_rejects_bad_p():
    for p in (2, 4, 9, 1):
        with pytest.raises(CotwistError):
            build_elementary_abelian_symplectic(p, 1)


@pytest.mark.parametrize("p, n, message", [
    (101, 1, "group order 101^2 exceeds cap 10000"),
    (10**18 + 1, 0, "n must be >= 1"),
    (99, 1, "p must be an odd prime, got 99"),
])
def test_symplectic_refuses_before_the_power_and_the_primality_test(p, n, message):
    """The order cap is checked after n and before p is tested for primality.
    A huge p or n is refused at once, in a subprocess under a timeout:
    ``test_cli.py::test_huge_prime_or_rank_exits_2_at_the_order_cap``."""
    with pytest.raises(CotwistError, match=re.escape(message)):
        build_elementary_abelian_symplectic(p, n)


def test_bicharacter_refusals_by_name(p3_pair):
    """Each law is refused by name when a Bicharacter is built.  The first
    slot is corrupted on a non-generator row: multiplicativity is compared
    with generators only in the multiplied slot, at every a."""
    H, sigma = p3_pair
    assert 4 not in H.generating_words[0]
    x, y = np.array(H.labels).T
    first = sigma.exponents.copy()
    first[4, 1] += 1
    H4, _ = build_elementary_abelian_symplectic(3, 2)
    x1, _, y1, _ = np.array(H4.labels).T
    refused = [(H, first, "not multiplicative in the first slot"),
               (H, np.outer(x, y * y), "not multiplicative in the second slot"),
               (H, np.outer(x, x), "is not skew-symmetric"),
               (H4, np.outer(x1, y1) - np.outer(y1, x1), "is degenerate")]
    for group, exponents, message in refused:
        with pytest.raises(CotwistError, match=f"bicharacter {message}"):
            Bicharacter(group, 3, exponents % 3)


def test_bicharacter_verified_once_per_symplectic_build(monkeypatch):
    """build_elementary_abelian_symplectic and symplectic_twist together
    verify the bicharacter once, when it is built."""
    from cotwist.twist import symplectic_twist

    calls, verify = [], Bicharacter.verify
    monkeypatch.setattr(Bicharacter, "verify", lambda self: calls.append(self) or verify(self))
    H, sigma = build_elementary_abelian_symplectic(3, 1)
    symplectic_twist(H, sigma)
    assert len(calls) == 1 and calls[0] is sigma


def test_semidirect_orders_and_normality():
    H, _ = build_elementary_abelian_symplectic(3, 1)
    G1, H1 = build_semidirect(H, 3, [[[1, 1], [0, 1]]])
    assert G1.order == 27 and H1.order == 9
    G2, H2 = build_semidirect(H, 3, [[[1, 0], [0, 2]]])
    assert G2.order == 18 and H2.order == 9
    G0, H0 = build_semidirect(H, 3, [])
    assert G0.order == 9
    # H is normal: conjugates of H-elements stay in H
    for G, Hs in ((G1, H1), (G2, H2)):
        hset = set(int(x) for x in Hs.elements)
        for g in range(G.order):
            for h in Hs.elements:
                assert int(G.conjugate(g, int(h))) in hset


def test_semidirect_product_law_against_labels():
    H, _ = build_elementary_abelian_symplectic(3, 1)
    G, _ = build_semidirect(H, 3, [[[1, 1], [0, 1]]])
    rng = np.random.default_rng(2)
    for _ in range(40):
        i, j = int(rng.integers(27)), int(rng.integers(27))
        (v1, m1) = G.labels[i]
        (v2, m2) = G.labels[j]
        a1 = np.array(m1).reshape(2, 2)
        a2 = np.array(m2).reshape(2, 2)
        want_vec = tuple((np.array(v1) + a1 @ np.array(v2)) % 3)
        want_mat = tuple(((a1 @ a2) % 3).ravel())
        got_vec, got_mat = G.labels[G.mul[i, j]]
        assert got_vec == want_vec and got_mat == want_mat


def test_semidirect_rejects_singular_generator():
    H, _ = build_elementary_abelian_symplectic(3, 1)
    with pytest.raises(CotwistError):
        build_semidirect(H, 3, [[[1, 1], [1, 1]]])


def test_subgroup_validation():
    G = s3_table()
    with pytest.raises(CotwistError):
        Subgroup(G, np.array([1, 2]))  # no identity
    with pytest.raises(CotwistError):
        Subgroup(G, np.array([0, 1, 2]))  # not closed
    sub = Subgroup(G, np.array([0, 4, 5]))  # the 3-cycles
    assert sub.order == 3
    local = sub.as_group
    assert local.order == 3
    # local table mirrors the parent on sub.elements
    for i in range(3):
        for j in range(3):
            parent = G.mul[sub.elements[i], sub.elements[j]]
            assert sub.elements[local.mul[i, j]] == parent


def test_double_cosets_partition():
    G = s3_table()
    H = Subgroup(G, np.array([0, 1]))  # order 2
    zs = double_cosets(G, H)
    seen = np.concatenate([z.elements for z in zs])
    assert sorted(seen.tolist()) == list(range(6))
    assert sum(z.size for z in zs) == 6
    for z in zs:
        assert z.representative == int(z.elements.min())
        # H z H = z for every coset element as representative
        for g in z.elements:
            orbit = set()
            for a in H.elements:
                for b in H.elements:
                    orbit.add(int(G.mul[G.mul[int(a), int(g)], int(b)]))
            assert orbit == set(int(x) for x in z.elements)
    # S3 with |H| = 2: cosets of sizes 2 and 4
    assert sorted(z.size for z in zs) == [2, 4]


def test_stabilizer_brute_force_oracle():
    G = s3_table()
    H = Subgroup(G, np.array([0, 1]))
    hset = set(int(x) for x in H.elements)
    for g in range(6):
        Kg = stabilizer_Kg(G, H, g)
        brute = {a for a in hset if int(G.conjugate(g, a)) in hset}
        assert set(int(x) for x in Kg.elements) == brute


def test_stabilizer_equals_h_when_normal():
    H, _ = build_elementary_abelian_symplectic(3, 1)
    G, Hs = build_semidirect(H, 3, [[[1, 0], [0, 2]]])
    for z in double_cosets(G, Hs):
        Kg = stabilizer_Kg(G, Hs, z.representative)
        assert np.array_equal(Kg.elements, Hs.elements)


def test_stabilizer_is_h_exactly_where_g_normalizes_h(wreath_bundle):
    """stabilizer_Kg returns H itself, the same object, on the cosets whose g
    normalizes H: the 9 single cosets of the wreath table and all 5 cosets of
    p=5 unipotent.  The wreath swap coset gets a proper subgroup, {e}."""
    inst, _, zs = wreath_bundle
    H5, _ = build_elementary_abelian_symplectic(5, 1)
    G5, Hs5 = build_semidirect(H5, 5, [[[1, 1], [0, 1]]])
    for G, H, cosets, normalizing in ((inst.G, inst.H, zs, 9),
                                      (G5, Hs5, double_cosets(G5, Hs5), 5)):
        kept = 0
        for z in cosets:
            g = z.representative
            Kg = stabilizer_Kg(G, H, g)
            normal = set(G.mul[G.mul[g, H.elements], G.inv[g]]) == set(H.elements)
            assert (Kg is H) == normal
            kept += normal
            if not normal:
                assert Kg.order == 1 and Kg.elements.tolist() == [0]
        assert kept == normalizing and len(cosets) - kept == (G is inst.G)


@pytest.mark.parametrize("n, dim", [(2, 1), (2, 6), (3, 4), (4, 3), (6, 2)])
def test_elementary_abelian_is_coordinatewise_addition(n, dim):
    """(Z/n)^dim for prime and composite n: the labels are the vectors in
    lexicographic order, and a + b is the label of the coordinatewise sum mod n."""
    V = build_elementary_abelian(n, dim)
    vecs = list(itertools.product(range(n), repeat=dim))
    assert V.labels == vecs and V.order == n ** dim
    index = {v: i for i, v in enumerate(vecs)}
    want = [[index[tuple((x + y) % n for x, y in zip(a, b))] for b in vecs] for a in vecs]
    assert V.mul.tolist() == want


def test_elementary_abelian_refusals():
    for n, dim, message in ((1, 2, "n >= 2"), (3, 0, "dim >= 1"), (10, 5, "exceeds cap")):
        with pytest.raises(CotwistError, match=message):
            build_elementary_abelian(n, dim)


def test_semidirect_invertibility_mod_composite():
    """Invertibility mod 4 is gcd(det over Z, 4) = 1: [[0, 1], [2, 0]] (det -2)
    is refused as singular, [[1, 1], [0, 1]] builds (Z/4)^2 x| C_4; the
    verdict matches a brute-force inverse search on all 256 2x2 matrices mod 4."""
    V = build_elementary_abelian(4, 2)
    with pytest.raises(CotwistError, match="singular"):
        build_semidirect(V, 4, [[[0, 1], [2, 0]]])
    G, H = build_semidirect(V, 4, [[[1, 1], [0, 1]]])
    assert (G.order, H.order) == (64, 16)
    mats = np.array(list(itertools.product(range(4), repeat=4))).reshape(-1, 2, 2)
    products = np.einsum("aij,bjk->abik", mats, mats) % 4
    invertible = np.all(products == np.eye(2, dtype=int), axis=(2, 3)).any(axis=1)
    assert [math.gcd(_integer_det(m), 4) == 1 for m in mats] == invertible.tolist()
    assert invertible.sum() == 96


def test_file_round_trip(tmp_path):
    G = s3_table()
    path = tmp_path / "s3.txt"
    G.to_file(path)
    back = FiniteGroup.from_file(path)
    assert np.array_equal(back.mul, G.mul)


def test_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1 2\n")  # entry out of range
    with pytest.raises(CotwistError):
        FiniteGroup.from_file(bad)
    bad.write_text("3\n0 1\n")  # truncated
    with pytest.raises(CotwistError):
        FiniteGroup.from_file(bad)



def test_lights_test_and_bicharacter_read_only_generators():
    """Light's test and the bicharacter's laws read ``generators`` alone, so
    neither builds the breadth-first words of ``generating_words``."""
    H, sigma = build_elementary_abelian_symplectic(3, 1)
    G = FiniteGroup(H.mul)
    assert G.verify_associativity()
    Bicharacter(G, 3, sigma.exponents)
    assert "generators" in vars(G) and "generating_words" not in vars(G)

#: an order-5 loop: identity 0, every element its own inverse, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
#: an order-6 loop with generators [1, 2], where only the last one fails to associate
LOOP6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1], [3, 2, 5, 4, 1, 0],
         [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]


def test_verify_associativity_by_lights_test(wreath_bundle, tmp_path):
    """Light's test on the generators accepts S_3, the wreath table and
    (Z/3)^4, and refuses both loops: on the order-6 loop only the last
    generator decides.  ``from_file`` refuses the order-5 loop."""
    H4, _ = build_elementary_abelian_symplectic(3, 2)
    for G in (s3_table(), wreath_bundle[0].G, H4):
        assert G.verify_associativity()
    six = FiniteGroup(np.array(LOOP6))
    mul = six.mul
    assert six.generating_words[0].tolist() == [1, 2]
    assert np.array_equal(mul[:, mul[1, :]], mul[mul[:, 1], :])
    assert not six.verify_associativity()
    loop = FiniteGroup(np.array(LOOP5))
    assert not loop.verify_associativity()
    path = tmp_path / "loop.txt"
    loop.to_file(path)
    with pytest.raises(CotwistError, match="table is not associative"):
        FiniteGroup.from_file(path)


def _generating_words_oracle(G):
    """Check ``generating_words`` against its contract with plain loops."""
    gens, order, parent, via = G.generating_words
    # greedy in index order: each generator lies outside the span of those before
    for i, s in enumerate(gens):
        span, frontier = {0}, [0]
        while frontier:
            frontier = [int(G.mul[a, t]) for a in frontier for t in gens[:i]
                        if int(G.mul[a, t]) not in span]
            span.update(frontier)
        assert int(s) not in span
        assert all(a in span for a in range(1, s))
    # the breadth-first closure is the whole group, identity first
    assert sorted(order.tolist()) == list(range(G.order))
    assert order[0] == 0 and parent[0] == -1 and via[0] == -1
    position = np.empty(G.order, dtype=np.int64)
    position[order] = np.arange(G.order)
    for a in order[1:]:
        assert G.mul[parent[a], gens[via[a]]] == a
        assert position[parent[a]] < position[a]
    return gens


def test_generating_words_s3_and_trivial_group():
    assert _generating_words_oracle(s3_table()).tolist() == [1, 2]
    one = FiniteGroup(np.zeros((1, 1), dtype=np.int32))
    gens, order, parent, via = one.generating_words
    assert gens.size == 0 and order.tolist() == [0]
    assert parent.tolist() == [-1] and via.tolist() == [-1]


@pytest.mark.parametrize("n", [1, 2])
def test_generating_words_elementary_abelian(n):
    """(Z/3)^(2n) in lexicographic order: the unit vectors, 2n generators."""
    H, _ = build_elementary_abelian_symplectic(3, n)
    assert _generating_words_oracle(H).tolist() == [3 ** k for k in range(2 * n)]


def test_generating_words_wreath_and_intermediate_tables(wreath_bundle, intermediate_bundle):
    inst, _, _ = wreath_bundle
    assert len(_generating_words_oracle(inst.G)) >= 2
    assert len(_generating_words_oracle(intermediate_bundle[0].G)) >= 2
    assert len(_generating_words_oracle(inst.H.as_group)) == 2


def test_action_composition_checked_at_every_element(p3_duals):
    """A permutation corrupted at a non-generator is refused by the
    composition check perms[a s] = perms[a] o perms[s], which runs for every
    a but for the generators s only."""
    from cotwist.dual_algebras import GroupAction
    from cotwist.errors import AuditError

    A1, _, rho1, _ = p3_duals
    gens = rho1.group.generating_words[0]
    # 4 = 1 3 is a product of two generators, 8 = (2, 2) is not
    for bad in (4, 8):
        assert bad not in gens
        perms = rho1.perms.copy()
        perms[bad, [0, 1]] = perms[bad, [1, 0]]
        with pytest.raises(AuditError, match="do not compose like the group"):
            GroupAction(rho1.group, perms).verify(A1)


def test_trivial_action_is_not_free(p3_duals):
    """Every element acting as the identity composes like the group and by
    automorphisms, and only the freeness compare refuses it."""
    from cotwist.dual_algebras import GroupAction
    from cotwist.errors import AuditError

    A1, _, rho1, _ = p3_duals
    still = np.broadcast_to(np.arange(A1.dim), rho1.perms.shape)
    with pytest.raises(AuditError, match="action is not free"):
        GroupAction(rho1.group, still).verify(A1)


def test_action_automorphism_checked_on_generators(p3_duals, monkeypatch):
    """Left translation conjugated by the swap of delta_1 and delta_2 still
    composes like the group and acts freely, but not by automorphisms of A1*:
    the compare at the first generator refuses it.  A valid action on the
    slice-form A1* takes one index identity P[p, p] == P per generator and
    no dense compare."""
    from cotwist import dual_algebras
    from cotwist.dual_algebras import GroupAction
    from cotwist.errors import AuditError

    A1, _, rho1, _ = p3_duals
    swap = np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])
    with pytest.raises(AuditError, match="element 1 is not an automorphism"):
        GroupAction(rho1.group, swap[rho1.perms][:, swap]).verify(A1)
    calls, ix = [], np.ix_

    def counting(*idx):
        calls.append(len(idx))  # 2: the index identity on P, 3: the compare on mul
        return ix(*idx)

    monkeypatch.setattr(dual_algebras.np, "ix_", counting)
    rho1.verify(A1)
    assert calls == [2] * len(rho1.group.generating_words[0]) == [2, 2]
