"""Projective representations from algebra actions, read exactly through
characters of H: translation characters, the regular-trace law, the tensor
class on K_g and its laws.  A float split with Skolem-Noether intertwiners
(``float_reference``) cross-validates the class."""

import cmath

import numpy as np
import pytest

from cotwist.cli import main as cli_main
from cotwist.correspondence import predicted_spectrum
from cotwist.dual_algebras import GroupAction, build_A1_A2_star
from cotwist.errors import AuditError, CotwistError
from cotwist.exactlin import CycArray, cyc_tensordot
from cotwist.groups import (FiniteGroup, Subgroup, build_elementary_abelian_symplectic,
                            stabilizer_Kg, stabilizer_local_indices)
from cotwist.projective import (certify_characters, character_exponents, class_dims,
                                multiplicity_law_holds, regular_trace_law, tensor_class,
                                trace_vanishing_holds, translation_characters)
from cotwist.twist import symplectic_twist
from float_reference import intertwiner, irreducible_rep


def float_translations(A, rho, seed):
    """T[a] implementing each translation alpha_a on a float split of A."""
    pi = irreducible_rep(A, seed)
    return np.stack([intertwiner(pi, perm) for perm in rho.perms])


def commutator_defect(T, beta, order) -> float:
    """max |T_i T_j - zeta_N^beta[i, j] T_j T_i|: zero or not whatever scale each T_i takes."""
    ab, ba = T[:, None] @ T[None], T[None] @ T[:, None]  # [i, j]: T_i T_j, T_j T_i
    zeta = cmath.exp(2j * cmath.pi / order)
    return float(np.max(np.abs(ab - zeta ** beta[:, :, None, None] * ba)))


@pytest.fixture(scope="module")
def p5_duals():
    H, sigma = build_elementary_abelian_symplectic(5, 1)
    return build_A1_A2_star(symplectic_twist(H, sigma))


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
    """|H| distinct homomorphisms H -> mu_N, the trivial one first, listed
    once per group and order and kept read-only."""
    H = FiniteGroup(table)
    E = character_exponents(H, order)
    assert character_exponents(H, order) is E and not E.flags.writeable
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


def test_translation_characters_at_81_screen_then_search_the_kept():
    """|H| = 81 (``--p 3 --n 2``): the characters are screened on sums over y
    and only the kept ones searched at every y.  In units of one (81, 81,
    phi) int64 array, the search holds the sections of the constants at
    delta_e and at each of the four alpha_s(delta_e), 5 units, and one copy
    of them for its contraction, and its ``tracemalloc`` peak stays under
    15, where a search of every character at every y holds the 5 units of
    its (5, 81, 81) result besides.  The certificate holds one generator's
    characters and contractions at a time, and stays under 10 units, where
    all four at once take 24.  A tampered translation fails the
    certificate, and a character list with a generator's character twice,
    or without it, is refused, as not exactly one character passes for it."""
    import tracemalloc

    H, sigma = build_elementary_abelian_symplectic(3, 2)
    A1, _, rho1, _ = build_A1_A2_star(symplectic_twist(H, sigma))
    E = character_exponents(rho1.group, 3)

    def peak(f, *args):
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    X, search = peak(translation_characters, A1, rho1, E)
    _, certificate = peak(certify_characters, A1, rho1, X)
    unit = 81 * 81 * A1.product.counts.shape[-1] * 8
    assert search < 15 * unit and certificate < 10 * unit, (search / unit, certificate / unit)
    s = int(rho1.group.generating_words[0][0])
    perms = rho1.perms.copy()
    perms[s, [1, 2]] = perms[s, [2, 1]]
    with pytest.raises(AuditError, match=f"A1\\*: the character of generator {s} fails"):
        translation_characters(A1, GroupAction(rho1.group, perms), E)
    chi = np.flatnonzero(np.all(E == X[s], axis=1))
    for tampered in (np.concatenate([E, E[chi]]), np.delete(E, chi, axis=0)):
        with pytest.raises(AuditError, match="A1\\*: not exactly one character implements"):
            translation_characters(A1, rho1, tampered)


def test_corrupted_exponent_fails_the_regular_trace_law(p3_duals):
    _, A2, _, rho2 = p3_duals
    X = translation_characters(A2, rho2, character_exponents(rho2.group, 3))
    assert np.array_equal(regular_trace_law(A2, X), [3] + [0] * 8)
    X[5, 7] = (X[5, 7] + 1) % 3
    with pytest.raises(AuditError, match="A2\\*: regular trace law fails"):
        regular_trace_law(A2, X)


def dense_character_agreement(mul, X, gens, moved) -> np.ndarray:
    """Per generator s, whether chi_s delta_b = delta_{alpha_s(b)} chi_s for
    every b, contracted on the gathered constants ``mul`` [a, b, y]."""
    k, m = len(gens), mul.shape[0]
    chars = CycArray.from_exponents(mul.order, X[gens])             # [s, h]
    left = cyc_tensordot(mul, chars, axes=([0], [1])).counts   # [b, y, s]: chi_s delta_b
    right = cyc_tensordot(mul, chars, axes=([1], [1])).counts  # [a, y, s]: delta_a chi_s
    right = right[moved.T[:, None], np.arange(m)[:, None], np.arange(k)]
    return np.all(left == right, axis=(0, 1, 3))


@pytest.mark.parametrize("bundle", ["p3_diag_bundle", "wreath_bundle", "intermediate_bundle"])
def test_slice_readers_match_the_dense_readers(bundle, request, monkeypatch):
    """On A1* and A2* of p = 3, the wreath table and criterion 9's instance,
    the characters and traces read off the slice, with ``gather_slice``
    raising, are those the gathered constants give: each character passes
    its certificate contracted on ``mul``, and the regular trace law holds
    for tau_h = sum_x mul[h, x, x].  A flipped exponent of each generator
    fails both certificates, the slice's by name."""
    from cotwist import dual_algebras
    from cotwist.dual_algebras import SCAlgebra

    _, ctx, _ = request.getfixturevalue(bundle)
    pairs = ((ctx.A1s, ctx.rho1), (ctx.A2s, ctx.rho2))
    gathered = [A.mul for A, _ in pairs]

    def no_gather(S, perms):
        raise AssertionError(f"gather_slice called on {S.shape}")

    monkeypatch.setattr(dual_algebras, "gather_slice", no_gather)
    for (A, rho), mul, X, trace in zip(pairs, gathered, ctx.chars, ctx.traces):
        A = SCAlgebra(A.product, A.perms, A.name)
        m, order = A.dim, A.product.order
        gens = np.array(rho.group.generators)
        moved = rho.perms[gens]
        E = character_exponents(rho.group, order)
        assert np.array_equal(translation_characters(A, rho, E), X)
        assert dense_character_agreement(mul, X, gens, moved).all()
        assert np.array_equal(regular_trace_law(A, X), trace)
        tau = CycArray(order, mul.scale, mul.counts[:, np.arange(m), np.arange(m)].sum(axis=1))
        regular = CycArray.zeros((m,), order)
        regular.counts[0, 0] = m
        assert cyc_tensordot(CycArray.from_exponents(order, X), tau, axes=1).eq(regular)
        for i, s in enumerate(gens):
            bad = X.copy()
            bad[s, 1] = (bad[s, 1] + 1) % order
            assert not dense_character_agreement(mul, bad, gens, moved)[i]
            with pytest.raises(AuditError, match=f"character of generator {s} fails"):
                certify_characters(A, rho, bad)


def test_regular_trace_law(p3_pair, p3_duals):
    """tr T[a] = 3 [a = e] for both translation representations of (Z/3)^2."""
    _, traces, _ = p3_class_inputs(p3_pair, p3_duals)
    for t in traces:
        assert np.array_equal(t, [3] + [0] * 8)


def test_cocycle_class_oracle(p3_pair, p3_duals):
    """The exact commutators are the symplectic pairing and its inverse, and
    are those of the intertwiners of a float split: T_a T_b = zeta^beta(a, b) T_b T_a."""
    H, sigma = p3_pair
    A1, A2, rho1, rho2 = p3_duals
    (X1, X2), _, _ = p3_class_inputs(p3_pair, p3_duals)
    beta1, beta2 = -X1.T % 3, X2.T  # beta_1(a, b) = chi_b(a)^-1, beta_2(a, b) = chi_b(a)
    assert np.array_equal(beta1, sigma.exponents % 3)
    assert np.array_equal(beta2, -beta1 % 3)
    for beta, A, rho, seed in ((beta1, A1, rho1, 11), (beta2, A2, rho2, 12)):
        assert commutator_defect(float_translations(A, rho, seed), beta, 3) < 1e-8


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
    built from the float intertwiners, on every coset."""
    inst, ctx, zs = request.getfixturevalue(bundle)
    T1, T2 = (float_translations(A, rho, seed)
              for A, rho, seed in ((ctx.A1s, ctx.rho1, 11), (ctx.A2s, ctx.rho2, 12)))
    for z in zs:
        g = z.representative
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        _, W = predicted_spectrum(z, g, ctx, Kg)
        a_loc, conj_loc = stabilizer_local_indices(inst.H, Kg, g)
        T = np.stack([np.kron(T2[a], T1[b]) for a, b in zip(a_loc, conj_loc)])
        assert commutator_defect(T, W.beta, inst.t.order) < 1e-6


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


def test_coset_laws_build_no_words_for_k_g(intermediate_bundle, monkeypatch):
    """The per-coset laws read the generators of K_g, not its words: after
    criterion 9's coset pipeline, no K_g of order 3 has built them."""
    import cotwist.correspondence as corr

    inst, ctx, zs = intermediate_bundle
    seen = []
    stabilizer = corr.stabilizer_Kg
    monkeypatch.setattr(corr, "stabilizer_Kg", lambda *a: seen.append(stabilizer(*a)) or seen[-1])
    for z in zs:
        assert not corr._coset_pipeline(ctx, z)[1]
    proper = [Kg for Kg in seen if Kg.order == 3]
    assert proper and all("as_group" in vars(Kg) for Kg in proper)
    assert not any("generating_words" in vars(Kg.as_group) for Kg in proper)


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
    function raises when called.  The two tables hold the blocks and U_g
    whose split is neither one block nor commutative: [3, 3, 3] and
    [4, 4, 4, 4]."""
    import json

    from instances import CRITERION_9, CRITERION_10, write_instance

    from cotwist import correspondence

    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called on the spectrum path")
        return raiser

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden(f"np.linalg.{name}"))
    splits, split = [], correspondence.wedderburn_dims

    def recording(A):
        spectrum = split(A)
        splits.append(spectrum.dims)
        return spectrum

    monkeypatch.setattr(correspondence, "wedderburn_dims", recording)
    runs = {"p=3": (["--p", "3", "--gamma", "1,1,0,1"], [1] * 9),
            "criterion 9": (CRITERION_9, [3, 3, 3]),
            "criterion 10": (CRITERION_10[1], [4, 4, 4, 4])}
    for label, (source, general) in runs.items():
        if not isinstance(source, list):
            (tmp_path / label).mkdir()
            write_instance(tmp_path / label, *source)
            source = ["--config", str(tmp_path / label / "config.json")]
        out = tmp_path / f"{label}.json"
        splits.clear()
        assert cli_main(["spectrum", *source, "--out", str(out)]) == 0, label
        cosets = json.loads(out.read_text())["cosets"]
        assert general in splits, label
        assert any(c["dims_direct"] == c["dims_invariant"] == c["dims_predicted"] == general
                   for c in cosets), label
