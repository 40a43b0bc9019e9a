"""Projective representations from algebra actions: intertwiners, cocycles,
pullbacks, trace laws, and the cocycle-class oracle."""

import cmath

import numpy as np
import pytest

from cotwist.dual_algebras import GroupAction, build_A1_A2_star
from cotwist.errors import AuditError, CotwistError
from cotwist.groups import (Subgroup, build_elementary_abelian_symplectic, double_cosets,
                            stabilizer_Kg, stabilizer_local_indices)
from cotwist.projective import (COMPOSITE_TOL, ProjectiveRep, action_matrix,
                                cocycle_identity_holds, multiplicity_law_check,
                                projective_rep_from_action,
                                pullback_and_tensor_cocycle, regular_trace_law_holds,
                                skolem_noether, trace_vanishing_check,
                                twisted_group_algebra)
from cotwist.semisimple import (WedderburnSpectrum, split_simple_retrying,
                                wedderburn_dims_retrying)
from cotwist.twist import symplectic_twist


def m2_identity_rep():
    """pi for M_2 in the matrix-unit basis: pi(E_ij) = E_ij as 2x2 matrices."""
    pi = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            pi[i * 2 + j, i, j] = 1.0
    return pi


def conjugation_alpha(U):
    """alpha matrix (on the matrix-unit basis) of x -> U x U^-1."""
    Uinv = np.linalg.inv(U)
    alpha = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[i, j] = 1.0
            img = U @ E @ Uinv
            for k in range(2):
                for l in range(2):
                    # alpha[target, source]: image coefficients in the basis
                    alpha[k * 2 + l, i * 2 + j] = img[k, l]
    return alpha


def test_skolem_noether_recovers_conjugator():
    pi = m2_identity_rep()
    theta = 0.7
    U = np.array([[cmath.exp(1j * theta), 0.3], [0.0, 1.0]], dtype=complex)
    alpha = conjugation_alpha(U)
    T = skolem_noether(pi, alpha)
    # T must be proportional to U (both implement the same conjugation)
    ratios = T[np.abs(U) > 1e-9] / U[np.abs(U) > 1e-9]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8
    # gauge: Frobenius norm sqrt(n), first big entry positive real
    assert abs(np.linalg.norm(T) - np.sqrt(2)) < 1e-8
    # intertwining property directly
    lhs = np.einsum("ab,xbc->xac", T, pi)
    pia = np.einsum("ky,kab->yab", alpha, pi)
    rhs = np.einsum("xab,bc->xac", pia, T)
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_skolem_noether_identity_fast_path():
    pi = m2_identity_rep()
    T = skolem_noether(pi, np.eye(4, dtype=complex))
    assert np.array_equal(T, np.eye(2, dtype=complex))


def test_skolem_noether_rejects_reducible():
    # two scalar copies: intertwiner space of the swap has dimension 4
    pi = np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(CotwistError):
        skolem_noether(pi, swap)


def test_action_matrix():
    perm = np.array([2, 0, 1])
    M = action_matrix(perm)
    v = np.array([1.0, 2.0, 3.0])
    out = M @ v
    expected = np.zeros(3)
    expected[perm] = v
    assert np.allclose(out, expected)


def test_cocycle_identity_holds_detects_violation():
    # on Z/2 every counital 2-cochain is a cocycle; Z/3 is the smallest
    # cyclic group where a single off-value breaks the identity
    table2 = ((np.arange(2)[:, None] + np.arange(2)[None, :]) % 2).astype(np.int64)
    assert cocycle_identity_holds(table2, np.ones((2, 2), dtype=complex), 1e-12)
    anything = np.ones((2, 2), dtype=complex)
    anything[1, 1] = -1j
    assert cocycle_identity_holds(table2, anything, 1e-12)

    table3 = ((np.arange(3)[:, None] + np.arange(3)[None, :]) % 3).astype(np.int64)
    bad = np.ones((3, 3), dtype=complex)
    bad[1, 1] = 1j  # c(1,1) c(2,2) != c(1,0) c(1,2) at (a,b,d) = (1,1,2)
    assert not cocycle_identity_holds(table3, bad, 1e-12)


@pytest.fixture(scope="module")
def p3_reps(p3_twist, p3_duals):
    A1, A2, rho1, rho2 = p3_duals
    pi1 = split_simple_retrying(A1, seed=11)
    pi2 = split_simple_retrying(A2, seed=12)
    sub = Subgroup(p3_twist.group, np.arange(9))
    V1 = projective_rep_from_action(A1, rho1, pi1, sub)
    V2 = projective_rep_from_action(A2, rho2, pi2, sub)
    return V1, V2


def test_projective_reps_validate(p3_reps):
    V1, V2 = p3_reps
    for V in (V1, V2):
        assert V.dim == 3 and V.size == 9
        V.validate()
        assert np.max(np.abs(np.abs(V.c) - 1)) < 1e-9


def test_cocycle_is_the_pairwise_fit(p3_reps):
    """c[a, b] is the least-squares scalar of T[a] T[b] against T[ab]."""
    for V in p3_reps:
        mul = V.group.as_group.mul
        for a in range(V.size):
            for b in range(V.size):
                tgt = V.T[mul[a, b]]
                fit = np.vdot(tgt, V.T[a] @ V.T[b]) / np.vdot(tgt, tgt)
                assert abs(V.c[a, b] - fit) < 1e-12


def test_product_law_checked_on_extraction(monkeypatch, p3_twist, p3_duals):
    """A word-built T[a] perturbed off the product law is refused by name.

    Element 4 = 3 . 1 is no generator, so its T is the gauged word product,
    perturbed here; the residual check, which covers every T[a] before the
    product-law contraction, names it."""
    import cotwist.projective as proj

    A1, _, rho1, _ = p3_duals
    pi1 = split_simple_retrying(A1, seed=11)
    assert 4 not in rho1.group.generating_words[0]
    direct = skolem_noether(pi1, action_matrix(rho1.perms[4]))
    gauged = proj._gauged

    def perturbed(T, tol):
        T = gauged(T, tol)
        if np.allclose(T, direct):
            T = T.copy()
            T[0, 0] += 1e-3
        return T

    monkeypatch.setattr(proj, "_gauged", perturbed)
    with pytest.raises(CotwistError, match="intertwiner residual"):
        projective_rep_from_action(A1, rho1, pi1, Subgroup(p3_twist.group, np.arange(9)))


@pytest.fixture(scope="module")
def p5_duals():
    H, sigma = build_elementary_abelian_symplectic(5, 1)
    return build_A1_A2_star(symplectic_twist(H, sigma))


@pytest.mark.parametrize("duals", ["p3_duals", "p5_duals"])
def test_word_built_intertwiners_match_direct_solves(duals, request):
    """Every T[a] from a word equals the direct Skolem-Noether solve for
    alpha_a within the solve's own residual bound 10 * tol * n."""
    A1, A2, rho1, rho2 = request.getfixturevalue(duals)
    for A, rho, seed in ((A1, rho1, 11), (A2, rho2, 12)):
        pi = split_simple_retrying(A, seed=seed)
        V = projective_rep_from_action(A, rho, pi)
        bound = 10 * 1e-8 * pi.shape[1]
        for a in range(rho.group.order):
            direct = skolem_noether(pi, action_matrix(rho.perms[a]))
            assert np.max(np.abs(V.T[a] - direct)) <= bound


@pytest.mark.parametrize("corruption", ["entry", "another element's solve"])
def test_corrupted_generator_intertwiner_is_refused(corruption, monkeypatch, p3_duals):
    """A wrong intertwiner for generator 3 spoils every word through it."""
    import cotwist.projective as proj

    A1, _, rho1, _ = p3_duals
    pi1 = split_simple_retrying(A1, seed=11)
    solve, generator = proj.skolem_noether, action_matrix(rho1.perms[3])

    def corrupted(pi, alpha, tol):
        if not np.array_equal(alpha, generator):
            return solve(pi, alpha, tol)
        if corruption == "entry":
            T = solve(pi, alpha, tol).copy()
            T[0, 0] += 1e-3
            return T
        return solve(pi, action_matrix(rho1.perms[6]), tol)

    monkeypatch.setattr(proj, "skolem_noether", corrupted)
    with pytest.raises(CotwistError, match="intertwiner residual|not a scalar multiple"):
        projective_rep_from_action(A1, rho1, pi1)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (3, 2)])
def test_skolem_noether_runs_once_per_generator(p, n, monkeypatch):
    """(Z/p)^(2n) has 2n generators: 2n solves per action, not |H| - 1."""
    import cotwist.projective as proj

    H, sigma = build_elementary_abelian_symplectic(p, n)
    A1, A2, rho1, rho2 = build_A1_A2_star(symplectic_twist(H, sigma))
    calls, solve = [], proj.skolem_noether
    monkeypatch.setattr(proj, "skolem_noether",
                        lambda pi, alpha, tol: calls.append(1) or solve(pi, alpha, tol))
    for A, rho, seed in ((A1, rho1, 1), (A2, rho2, 2)):
        calls.clear()
        projective_rep_from_action(A, rho, split_simple_retrying(A, seed=seed))
        assert len(calls) == len(H.generating_words[0]) == 2 * n


def test_regular_trace_law(p3_reps):
    for V in p3_reps:
        assert regular_trace_law_holds(V)


def test_cocycle_class_oracle(p3_pair, p3_reps):
    """The gauge-invariant antisymmetrization pins the cocycle classes:
    eps_1(a,b) = c_1(a,b)/c_1(b,a) equals the symplectic pairing, and the
    class of V2 is its inverse (eps_2 = conj(eps_1))."""
    H, sigma = p3_pair
    V1, V2 = p3_reps
    eps1 = V1.c / V1.c.T
    eps2 = V2.c / V2.c.T
    zeta = cmath.exp(2j * cmath.pi / 3)
    expected = zeta ** sigma.exponents.astype(float)
    assert np.max(np.abs(eps1 - expected)) < 1e-8
    assert np.max(np.abs(eps2 - np.conj(eps1))) < 1e-8


def test_pullback_at_identity_gives_plain_spectrum(p3_pair, p3_reps):
    """At g = e the two classes cancel: symmetric product cocycle, hence a
    commutative twisted algebra and an all-ones spectrum."""
    H, _ = p3_pair
    V1, V2 = p3_reps
    K = Subgroup(H, np.arange(9))
    c_w, W = pullback_and_tensor_cocycle(V1, V2, 0, K)
    assert np.max(np.abs(c_w - c_w.T)) < 1e-9
    alg = twisted_group_algebra(K, c_w)
    dims = wedderburn_dims_retrying(alg, seed=0).dims
    assert dims == [1] * 9
    assert trace_vanishing_check(W, K)
    ok, mults = multiplicity_law_check(W, wedderburn_dims_retrying(alg, seed=0), 9)
    assert ok
    assert np.allclose(mults, np.ones(9))


def test_multiplicity_law_refuses_a_spectrum_without_idempotents(p3_pair, p3_reps):
    """An exact split carries no float idempotents, so the law refuses it by name."""
    H, _ = p3_pair
    V1, V2 = p3_reps
    _, W = pullback_and_tensor_cocycle(V1, V2, 0, Subgroup(H, np.arange(9)))
    with pytest.raises(CotwistError, match="float idempotents"):
        multiplicity_law_check(W, WedderburnSpectrum(dims=[1] * 9, idempotent_residual=0.0), 9)


def test_pullback_on_nontrivial_coset(p3_diag_bundle):
    """W's full validate(), product law included, on a |K_g| = 9 coset: the
    law pullback_and_tensor_cocycle derives from V1 and V2 does hold."""
    inst, ctx, zs = p3_diag_bundle
    g = zs[1].representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    c_w, W = pullback_and_tensor_cocycle(ctx.V1, ctx.V2, g, Kg)
    W.validate()
    assert trace_vanishing_check(W, inst.H)
    alg = twisted_group_algebra(Kg, c_w)
    spec = wedderburn_dims_retrying(alg, seed=0)
    assert spec.dims == [3]
    ok, mults = multiplicity_law_check(W, spec, inst.H.order)
    assert ok
    assert np.allclose(mults, [3.0], atol=1e-6)


@pytest.mark.parametrize("bundle", ["p5_diag_bundle", "wreath_bundle"])
def test_tensor_rep_is_the_kron_of_each_pair(bundle, request):
    """T_W from one broadcast product is bit-identical to np.kron per element of K_g."""
    inst, ctx, zs = request.getfixturevalue(bundle)
    for z in zs:
        g = z.representative
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        _, W = pullback_and_tensor_cocycle(ctx.V1, ctx.V2, g, Kg)
        a_loc, conj_loc = stabilizer_local_indices(ctx.V1.group, Kg, g)
        want = np.stack([np.kron(ctx.V2.T[a], ctx.V1.T[b]) for a, b in zip(a_loc, conj_loc)])
        assert np.array_equal(W.T, want)


def test_twisted_group_algebra_rejects_noncocycle(p3_pair):
    H, _ = p3_pair
    K = Subgroup(H, np.arange(9))
    rng = np.random.default_rng(8)
    c = np.exp(2j * np.pi * rng.random((9, 9)))
    c[0, :] = 1.0
    c[:, 0] = 1.0
    with pytest.raises(CotwistError):
        twisted_group_algebra(K, c)


def test_twisted_group_algebra_requires_counital(p3_pair):
    H, _ = p3_pair
    K = Subgroup(H, np.arange(9))
    c = np.ones((9, 9), dtype=complex)
    c[0, 3] = 1j
    with pytest.raises(CotwistError):
        twisted_group_algebra(K, c)


def test_projective_rep_validate_catches_broken_cocycle(p3_reps):
    V1, _ = p3_reps
    broken = ProjectiveRep(group=V1.group, dim=V1.dim, T=V1.T.copy(),
                           c=V1.c * np.exp(0.001j))
    with pytest.raises(AuditError):
        broken.validate()


def test_projective_rep_validate_catches_corrupted_matrix(p3_reps):
    """One T[a] perturbed, c left as it is: the gauge, the moduli and the
    cocycle identity cannot see it, the product law fails it by name.  W
    inherits its product law from V1 and V2 through this check."""
    V1, _ = p3_reps
    T = V1.T.copy()
    T[4, 0, 0] += 1e-3
    broken = ProjectiveRep(group=V1.group, dim=V1.dim, T=T, c=V1.c.copy())
    broken._validate_cocycle(COMPOSITE_TOL)
    with pytest.raises(AuditError, match="cocycle relation"):
        broken.validate()


def test_pullback_checks_the_tensor_cocycle(p3_pair, p3_reps):
    """W keeps its own cocycle checks: a broken c_1 shows in c_W by name."""
    H, _ = p3_pair
    V1, V2 = p3_reps
    K = Subgroup(H, np.arange(9))
    for value, message in ((V1.c[4, 5] * 1j, "cocycle identity fails"),
                           (0.0, "vanishing or diverging")):
        c = V1.c.copy()
        c[4, 5] = value
        broken = ProjectiveRep(group=V1.group, dim=V1.dim, T=V1.T, c=c)
        with pytest.raises(AuditError, match=message):
            pullback_and_tensor_cocycle(broken, V2, 0, K)


def test_trivial_group_projective():
    from cotwist.groups import FiniteGroup

    one = FiniteGroup(np.zeros((1, 1), dtype=np.int32))
    K = Subgroup(one, np.array([0]))
    alg = twisted_group_algebra(K, np.ones((1, 1), dtype=complex))
    assert wedderburn_dims_retrying(alg, seed=0).dims == [1]
