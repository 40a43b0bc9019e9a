"""Projective representations from algebra actions: the exact route through
characters of H (translation characters, the regular-trace law, the tensor
class on K_g and its laws) and the float library route (intertwiners,
cocycles), which cross-validates it."""

import cmath

import numpy as np
import pytest

from cotwist import projective, semisimple
from cotwist.cli import main as cli_main
from cotwist.correspondence import predicted_spectrum
from cotwist.dual_algebras import GroupAction, build_A1_A2_star
from cotwist.errors import AuditError, CotwistError
from cotwist.groups import (FiniteGroup, Subgroup, build_elementary_abelian_symplectic,
                            stabilizer_Kg, stabilizer_local_indices)
from cotwist.projective import (COMPOSITE_TOL, ProjectiveRep, action_matrix,
                                certify_characters, character_exponents, class_dims,
                                cocycle_identity_holds, multiplicity_law_holds,
                                projective_rep_from_action, regular_trace_law,
                                skolem_noether, tensor_class, trace_vanishing_holds,
                                translation_characters)
from cotwist.semisimple import split_simple_retrying
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


# ---------------------------------------------------------------------------
# the exact route


def cyclic_table(k):
    return (np.arange(k)[:, None] + np.arange(k)[None, :]) % k


def s3_table():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms])


def p3_class_inputs(p3_pair, p3_duals):
    """(chars, traces, H as its own subgroup) of the standalone (Z/3)^2."""
    A1, A2, rho1, rho2 = p3_duals
    E = character_exponents(p3_pair[0], 3)
    chars = translation_characters(A1, rho1, E), translation_characters(A2, rho2, E)
    traces = regular_trace_law(A1, chars[0]), regular_trace_law(A2, chars[1])
    return chars, traces, Subgroup(p3_pair[0], np.arange(9))


@pytest.mark.parametrize("table, order", [
    (build_elementary_abelian_symplectic(3, 1)[0].mul, 3),
    (build_elementary_abelian_symplectic(3, 2)[0].mul, 3),
    (cyclic_table(4), 4),
    (cyclic_table(4), 8),
    ((cyclic_table(2)[:, None, :, None] * 4 + cyclic_table(4)[None, :, None, :]).reshape(8, 8),
     4),
    (np.zeros((1, 1), dtype=int), 1),
])
def test_characters_are_every_homomorphism(table, order):
    """|H| distinct homomorphisms H -> mu_N, the trivial one first."""
    H = FiniteGroup(table)
    E = character_exponents(H, order)
    assert E.shape == (H.order, H.order)
    assert len({tuple(row) for row in E}) == H.order
    assert not E[0].any()
    assert np.array_equal(E[:, H.mul], (E[:, :, None] + E[:, None, :]) % order)


@pytest.mark.parametrize("table, order, message", [
    (s3_table(), 6, "abelian"),
    (cyclic_table(9), 3, "exponent"),
    (cyclic_table(4), 6, "exponent"),
])
def test_character_routine_refuses_what_it_cannot_read(table, order, message):
    with pytest.raises(CotwistError, match=message):
        character_exponents(FiniteGroup(table), order)


@pytest.mark.parametrize("duals, p", [("p3_duals", 3), ("p5_duals", 5)])
def test_one_character_per_translation(duals, p, request):
    """Each translation is implemented by exactly one character, and a -> chi_a
    is an injective homomorphism."""
    A1, A2, rho1, rho2 = request.getfixturevalue(duals)
    H = rho1.group
    E = character_exponents(H, p)
    for A, rho in ((A1, rho1), (A2, rho2)):
        X = translation_characters(A, rho, E)
        assert np.array_equal(X[H.mul], (X[:, None] + X[None, :]) % p)
        assert len({tuple(row) for row in X}) == H.order


def test_flipped_exponent_fails_the_generator_certificate(p3_duals):
    A1, _, rho1, _ = p3_duals
    X = translation_characters(A1, rho1, character_exponents(rho1.group, 3))
    s = int(rho1.group.generating_words[0][1])
    X[s, 4] = (X[s, 4] + 1) % 3
    with pytest.raises(AuditError, match=f"A1\\*: the character of generator {s} fails"):
        certify_characters(A1, rho1, X)


def test_translation_characters_certify_every_generator(p3_duals):
    """An action that agrees with left translation at delta_e but not elsewhere:
    the search at delta_e picks the same characters, and the certificate refuses."""
    A1, _, rho1, _ = p3_duals
    s = int(rho1.group.generating_words[0][0])
    perms = rho1.perms.copy()
    perms[s, [1, 2]] = perms[s, [2, 1]]
    with pytest.raises(AuditError, match=f"the character of generator {s} fails"):
        translation_characters(A1, GroupAction(rho1.group, perms),
                               character_exponents(rho1.group, 3))


def test_corrupted_exponent_fails_the_regular_trace_law(p3_duals):
    _, A2, _, rho2 = p3_duals
    X = translation_characters(A2, rho2, character_exponents(rho2.group, 3))
    assert np.array_equal(regular_trace_law(A2, X), [3] + [0] * 8)
    X[5, 7] = (X[5, 7] + 1) % 3
    with pytest.raises(AuditError, match="A2\\*: regular trace law fails"):
        regular_trace_law(A2, X)


def test_regular_trace_law(p3_pair, p3_duals):
    """tr T[a] = 3 [a = e] for both translation representations of (Z/3)^2."""
    _, traces, _ = p3_class_inputs(p3_pair, p3_duals)
    for t in traces:
        assert np.array_equal(t, [3] + [0] * 8)


def test_cocycle_class_oracle(p3_pair, p3_duals, p3_reps):
    """The exact commutators are the symplectic pairing and its inverse, and
    equal the gauge-invariant c(a, b)/c(b, a) of the float representations."""
    H, sigma = p3_pair
    (X1, X2), _, _ = p3_class_inputs(p3_pair, p3_duals)
    beta1, beta2 = -X1.T % 3, X2.T  # beta_1(a, b) = chi_b(a)^-1, beta_2(a, b) = chi_b(a)
    assert np.array_equal(beta1, sigma.exponents % 3)
    assert np.array_equal(beta2, -beta1 % 3)
    zeta = cmath.exp(2j * cmath.pi / 3)
    for beta, V in zip((beta1, beta2), p3_reps):
        assert np.max(np.abs(V.c / V.c.T - zeta ** beta)) < 1e-8


def test_pullback_at_identity_gives_plain_spectrum(p3_pair, p3_duals):
    """At g = e the two classes cancel: beta_W = 1, spectrum [1] * 9, both laws hold."""
    chars, traces, K = p3_class_inputs(p3_pair, p3_duals)
    W = tensor_class(chars, traces, K, K, 0, 3)
    assert not W.beta.any()
    assert class_dims(W) == [1] * 9
    assert trace_vanishing_holds(W) and multiplicity_law_holds(W)


def test_pullback_on_nontrivial_coset(p3_diag_bundle):
    """On a |K_g| = 9 coset beta_W is nondegenerate: radical {e}, one block of 3."""
    inst, ctx, zs = p3_diag_bundle
    g = zs[1].representative
    dims, W = predicted_spectrum(zs[1], g, ctx, stabilizer_Kg(inst.G, inst.H, g))
    assert dims == [3]
    assert np.count_nonzero(~W.beta.any(axis=1)) == 1
    assert trace_vanishing_holds(W) and multiplicity_law_holds(W)


@pytest.mark.parametrize("bundle", ["p5_diag_bundle", "wreath_bundle"])
def test_tensor_rep_is_the_kron_of_each_pair(bundle, request):
    """The exact commutator beta_W is that of T_W[a] = np.kron(T_2[a], T_1[a'])
    built from the float representations, on every coset."""
    inst, ctx, zs = request.getfixturevalue(bundle)
    V1, V2 = (projective_rep_from_action(A, rho, split_simple_retrying(A, seed=seed), inst.H)
              for A, rho, seed in ((ctx.A1s, ctx.rho1, 11), (ctx.A2s, ctx.rho2, 12)))
    zeta = cmath.exp(2j * cmath.pi / inst.t.order)
    for z in zs:
        g = z.representative
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        _, W = predicted_spectrum(z, g, ctx, Kg)
        a_loc, conj_loc = stabilizer_local_indices(inst.H, Kg, g)
        T = np.stack([np.kron(V2.T[a], V1.T[b]) for a, b in zip(a_loc, conj_loc)])
        ab, ba = T[:, None] @ T[None], T[None] @ T[:, None]  # [i, j]: T_i T_j, T_j T_i
        assert np.max(np.abs(ab - zeta ** W.beta[:, :, None, None] * ba)) < 1e-6


def test_pullback_checks_the_tensor_cocycle(p3_pair, p3_duals):
    """A corrupted character breaks the bicharacter law of beta_W: the multiplicity law fails."""
    (X1, X2), traces, K = p3_class_inputs(p3_pair, p3_duals)
    X1 = X1.copy()
    X1[4, 5] = (X1[4, 5] + 1) % 3
    W = tensor_class((X1, X2), traces, K, K, 0, 3)
    assert trace_vanishing_holds(W)
    assert not multiplicity_law_holds(W)


def test_class_laws_refuse_a_class_that_is_no_alternating_bicharacter(p3_pair, p3_duals):
    chars, traces, K = p3_class_inputs(p3_pair, p3_duals)
    W = tensor_class(chars, traces, K, K, 0, 3)
    W.beta[1:, 0] = 1  # beta_W(b, e) != 1: e moves out of the radical's columns
    assert not trace_vanishing_holds(W) and not multiplicity_law_holds(W)
    x, y = np.divmod(np.arange(9), 3)
    W.beta[:] = (np.outer(x, x) + np.outer(y, y)) % 3  # a bicharacter, symmetric, not alternating
    assert trace_vanishing_holds(W) and not multiplicity_law_holds(W)
    W.beta[:] = 0
    W.beta[1, 2] = 1  # not alternating, and |K_g|/|R| = 9/8
    assert not multiplicity_law_holds(W)
    with pytest.raises(CotwistError, match="not the square of an integer"):
        class_dims(W)


def test_trivial_group_projective():
    one = FiniteGroup(np.zeros((1, 1), dtype=np.int32))
    K = Subgroup(one, np.array([0]))
    X = character_exponents(one, 1)
    W = tensor_class((X, X), (np.array([1]), np.array([1])), K, K, 0, 1)
    assert class_dims(W) == [1]
    assert trace_vanishing_holds(W) and multiplicity_law_holds(W)


def test_spectrum_runs_no_float_projective_route(monkeypatch, tmp_path, capsys):
    """`cotwist spectrum` on p=3 `1,1,0,1`, on criterion 9's table and on
    criterion 10's second twist runs no float step: every ``np.linalg``
    function and ``SCAlgebra.mul_complex`` raise when called, no
    Skolem-Noether system is solved and no simple algebra is split in
    floating point.  The two tables hold the blocks and U_g whose split is
    neither one block nor commutative: [3, 3, 3] and [4, 4, 4, 4]."""
    import json

    from intermediate_instance import write_instance as write_criterion_9
    from p2_instance import write_instance as write_criterion_10

    from cotwist import correspondence
    from cotwist.dual_algebras import SCAlgebra

    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called on the spectrum path")
        return raiser

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden(f"np.linalg.{name}"))
    monkeypatch.setattr(SCAlgebra, "mul_complex", forbidden("SCAlgebra.mul_complex"))
    monkeypatch.setattr(projective, "skolem_noether", forbidden("skolem_noether"))
    monkeypatch.setattr(semisimple, "split_simple_retrying", forbidden("split_simple_retrying"))
    splits, split = [], correspondence.wedderburn_dims

    def recording(A):
        spectrum = split(A)
        splits.append(spectrum.dims)
        return spectrum

    monkeypatch.setattr(correspondence, "wedderburn_dims", recording)
    (tmp_path / "c9").mkdir()
    (tmp_path / "c10").mkdir()
    runs = {"p=3": (["--p", "3", "--gamma", "1,1,0,1"], [1] * 9),
            "criterion 9": (write_criterion_9(tmp_path / "c9"), [3, 3, 3]),
            "criterion 10": (write_criterion_10(tmp_path / "c10", 1), [4, 4, 4, 4])}
    for label, (source, general) in runs.items():
        if not isinstance(source, list):
            config = tmp_path / label / "config.json"
            config.parent.mkdir(exist_ok=True)
            config.write_text(json.dumps({"construction": source.construction.describe()}))
            source = ["--config", str(config)]
        out = tmp_path / f"{label}.json"
        splits.clear()
        assert cli_main(["spectrum", *source, "--out", str(out)]) == 0, label
        cosets = json.loads(out.read_text())["cosets"]
        assert general in splits, label
        assert any(c["dims_direct"] == c["dims_invariant"] == c["dims_predicted"] == general
                   for c in cosets), label


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


