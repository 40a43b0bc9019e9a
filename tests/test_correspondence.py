"""The comparison map F_g, the invariant algebra, route agreement, reports."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from cotwist.correspondence import (Config, SymplecticConstruction, TableConstruction,
                                    build_instance, f_g_map, full_report,
                                    image_matches_invariants, invariant_algebra_Ug,
                                    pair_orbits, predicted_spectrum, prepare_instance,
                                    render_json, render_table)
from cotwist.dual_algebras import build_block_algebra
from cotwist.errors import AuditError, CotwistError
from cotwist.exactlin import CycArray
from cotwist.groups import FiniteGroup, Subgroup, stabilizer_Kg, stabilizer_local_indices
from cotwist.twist import assemble_twist, make_twist, save_twist_file
from cyc_reference import add, copied, equal, mul, values, zero
from float_reference import embedded
from instances import WREATH, coset_algebras, write_instance


def test_f_matrix_shape_and_supports(p3_diag_bundle):
    inst, ctx, zs = p3_diag_bundle
    for z in zs:
        g = z.representative
        F, audit = f_g_map(ctx, z, g, *coset_algebras(ctx, z))
        assert audit.ok
        assert F.shape == (81, z.size)
        # each pair (h, h') factors exactly one element: one 1 per row
        assert np.array_equal(F.sum(axis=1), np.ones(81, dtype=np.int64))
        # each element has |K_g| factorizations
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        assert np.array_equal(F.sum(axis=0), np.full(z.size, Kg.order))


def test_f_image_equals_invariants(p3_diag_bundle):
    inst, ctx, zs = p3_diag_bundle
    for z in zs:
        g = z.representative
        F, _ = f_g_map(ctx, z, g, *coset_algebras(ctx, z))
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        orbit_id, _ = pair_orbits(ctx.rho1, ctx.rho2, inst.H, Kg, g)
        assert image_matches_invariants(F, orbit_id)


def test_image_matches_invariants_negative():
    F = np.zeros((4, 2), dtype=np.int64)
    F[0, 0] = F[1, 0] = F[2, 1] = F[3, 1] = 1
    good = np.array([0, 0, 1, 1])
    assert image_matches_invariants(F, good)
    assert not image_matches_invariants(F, np.array([0, 1, 0, 1]))  # split supports
    assert not image_matches_invariants(F, np.array([0, 0, 0, 1]))  # sizes differ
    F2 = F.copy()
    F2[:, 1] = F2[:, 0]
    assert not image_matches_invariants(F2, good)  # duplicate orbit


def all_images(ctx, H, Kg, g) -> np.ndarray:
    """Every image a.q of the pair action as a |K_g| x |H|^2 table [a, q]:
    (h, h') at q = h |H| + h' goes to (h a^-1, (g^-1 a g) h')."""
    a_loc, conj_loc = stabilizer_local_indices(H, Kg, g)
    m = H.order
    p2, p1 = ctx.rho2.perms[a_loc], ctx.rho1.perms[conj_loc]
    return (p2[:, :, None] * m + p1[:, None, :]).reshape(Kg.order, m * m)


def test_pair_orbits_free_and_sized(request):
    """On every coset of p3_diag, criterion 9, the wreath table (whose swap
    coset has K_g = {e}, with no generators) and the composite instance, the
    orbits are those of the table of all images: no point has two equal
    images, the representatives are the least images in ascending order, each
    point is labelled by the orbit of its least image, each orbit has |K_g|
    points and every image keeps its point's label."""
    for source in ("p3_diag_bundle", "intermediate_bundle", "wreath_bundle",
                   "composite_bundle"):
        inst, ctx, zs = request.getfixturevalue(source)
        orders = set()
        for z in zs:
            g = z.representative
            Kg = stabilizer_Kg(inst.G, inst.H, g)
            images = all_images(ctx, inst.H, Kg, g)
            sorted_images = np.sort(images, axis=0)
            assert np.all(sorted_images[1:] > sorted_images[:-1])
            first = sorted_images[0]
            orbit_id, reps = pair_orbits(ctx.rho1, ctx.rho2, inst.H, Kg, g)
            assert reps.tolist() == sorted(set(first.tolist()))
            assert np.array_equal(reps[orbit_id], first)
            assert np.all(np.bincount(orbit_id) == Kg.order)
            assert np.all(orbit_id[images] == orbit_id)
            orders.add(Kg.order)
        assert source != "wreath_bundle" or 1 in orders


def test_pair_orbits_refuse_corrupted_actions(p3_diag_bundle):
    """Each generator s of K_g made to act as the identity on one leg, in a
    copy of that leg's GroupAction.  On the A2* leg, e and s then share every
    image, so some labels merge into a class of the wrong size: the action is
    not free.  On the A1* leg the A2* leg still acts freely and every class
    keeps |K_g| points, but s moves labels: no group action.  Each is refused
    by its own name."""
    inst, ctx, zs = p3_diag_bundle
    g = zs[1].representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    a_loc, conj_loc = stabilizer_local_indices(inst.H, Kg, g)

    def without(rho, row):
        perms = rho.perms.copy()
        perms[row] = np.arange(perms.shape[1])
        return dataclasses.replace(rho, perms=perms)

    for s in Kg.as_group.generators:
        with pytest.raises(AuditError, match=re.escape("pair translation action is not free")):
            pair_orbits(ctx.rho1, without(ctx.rho2, a_loc[s]), inst.H, Kg, g)
        with pytest.raises(AuditError, match=re.escape(
                "pair orbits are not disjoint (action is not a group action)")):
            pair_orbits(without(ctx.rho1, conj_loc[s]), ctx.rho2, inst.H, Kg, g)


def test_pair_orbits_form_no_table_of_all_images():
    """At |H| = |K_g| = 81 (``--p 3 --n 2``, coset 0) the orbits take less
    memory than one |K_g| x |H|^2 int64 table of images, 4.25 MB."""
    inst = build_instance(Config(SymplecticConstruction(p=3, n=2)))
    ctx = prepare_instance(inst)
    Kg = stabilizer_Kg(inst.G, inst.H, 0)
    assert Kg.order == inst.H.order == 81
    tracemalloc.start()
    try:
        pair_orbits(ctx.rho1, ctx.rho2, inst.H, Kg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Kg.order * inst.H.order ** 2 * 8, peak


def test_invariant_algebra_float_oracle(p3_diag_bundle):
    """Independent check: project random pairs into the invariants with the
    averaging projector and multiply numerically in A2* (x) A1*."""
    inst, ctx, zs = p3_diag_bundle
    g = zs[1].representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    orbit_id, reps = pair_orbits(ctx.rho1, ctx.rho2, inst.H, Kg, g)
    Ug = invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)

    m = inst.H.order
    mul2 = embedded(ctx.A2s.mul)        # (m, m, m)
    mul1 = embedded(ctx.A1s.mul)
    ug = embedded(Ug.mul)               # (r, r, r)
    r = len(reps)

    def orbit_sum_vec(i):
        v = np.zeros(m * m)
        v[orbit_id == i] = 1.0
        return v

    rng = np.random.default_rng(10)
    for _ in range(6):
        i, j = int(rng.integers(r)), int(rng.integers(r))
        vi = orbit_sum_vec(i).reshape(m, m)
        vj = orbit_sum_vec(j).reshape(m, m)
        # product in the tensor algebra: (a (x) b)(c (x) d) legwise
        prod = np.einsum("ab,cd,ace,bdf->ef", vi, vj, mul2, mul1)
        # expected from Ug structure constants, expanded back to pair space
        expanded = np.zeros((m, m), dtype=complex)
        for k in range(r):
            expanded += ug[i, j, k] * orbit_sum_vec(k).reshape(m, m)
        assert np.max(np.abs(prod - expanded)) < 1e-9


def test_invariant_algebra_reference_formula(reference_case):
    """U_g[i, j, l] is the coefficient of the pair rep_l in o_i o_j, the product
    of two orbit sums in A2* (x) A1*, summed in the reference arithmetic from
    A2*[h, h', x] = Jinv[h x^-1, h' x^-1] and A1*[h, h', x] = J[x^-1 h, x^-1 h'].
    Every row where U_g has at most 9 orbits; on the criterion-9 coset (27
    orbits) and the wreath swap coset (81 orbits) row 0 and two seeded rows."""
    inst, ctx, z = reference_case
    g = z.representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    orbit_id, reps = pair_orbits(ctx.rho1, ctx.rho2, inst.H, Kg, g)
    U = invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)
    rows = np.arange(len(reps))
    if len(reps) > 9:
        rows = np.unique(np.concatenate([[0], np.random.default_rng(9).choice(len(reps), 2)]))
    got = values(U.mul.take(rows, 0))
    t = inst.t
    J, Jinv = values(t.J), values(t.Jinv)
    table, inv, m = t.group.mul, t.group.inv, inst.H.order
    orbits = [np.divmod(np.flatnonzero(orbit_id == k), m) for k in range(len(reps))]
    for k, i in enumerate(rows):
        p1, p2 = orbits[i]
        for j, (q1, q2) in enumerate(orbits):
            for l, rep in enumerate(reps):
                u1, u2 = divmod(int(rep), m)
                want = zero(t.order)
                for a1, a2 in zip(p1, p2):
                    for b1, b2 in zip(q1, q2):
                        left = Jinv[table[a1, inv[u1]], table[b1, inv[u1]]]
                        right = J[table[inv[u2], a2], table[inv[u2], b2]]
                        want = add(want, mul(left, right))
                assert equal(got[k, j, l], want), (i, j, l)


def test_orbit_sums_overflow_is_named(monkeypatch, p3_diag_bundle):
    """The |K_g|-term sums of each chunk of the block's and U_g's contractions
    refuse, by name, contraction counts of 2**62, whose sums could reach 2**63."""
    from cotwist import exactlin

    inst, ctx, zs = p3_diag_bundle
    z = zs[1]
    Kg = stabilizer_Kg(inst.G, inst.H, z.representative)
    assert Kg.order > 1
    chunks = exactlin.contract_chunks
    monkeypatch.setattr(exactlin, "contract_chunks",
                        lambda *args, **kwargs:
                        ((lo, part * 0 + (1 << 62)) for lo, part in chunks(*args, **kwargs)))
    with pytest.raises(CotwistError, match="exact sum would overflow int64"):
        build_block_algebra(inst.t, z)
    with pytest.raises(CotwistError, match="exact sum would overflow int64"):
        invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, z.representative, inst.H)


@pytest.mark.parametrize("source", ["p3_diag_bundle", "wreath_bundle", "intermediate_bundle",
                                    "composite_bundle"])
def test_chunk_boundaries_change_nothing(source, monkeypatch, request):
    """Every coset's block and U_g are the same counts whether each chunk of
    their contractions holds one row group (one point b of a block slice, one
    orbit l of a U_g row) or every row: the p=3 diag instance, the wreath
    table (K_g = {e}), criterion 9 (|K_g| = 3) and the composite N = 4
    instance."""
    from cotwist import exactlin

    inst, ctx, zs = request.getfixturevalue(source)
    calls = []  # [row groups, chunks yielded] per contraction

    def counted(src, at, b, rows, group=1, kernel=exactlin.contract_chunks):
        calls.append([rows // group, 0])
        for chunk in kernel(src, at, b, rows, group):
            calls[-1][1] += 1
            yield chunk

    monkeypatch.setattr(exactlin, "contract_chunks", counted)

    def builds():
        out = []
        for z in zs:
            g = z.representative
            Kg = stabilizer_Kg(inst.G, inst.H, g)
            out += [build_block_algebra(inst.t, z),
                    invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)]
        return out

    want = builds()
    for chunk, per_call in ((1, lambda groups: groups), (1 << 40, lambda groups: 1)):
        monkeypatch.setattr(exactlin, "KERNEL_CHUNK", chunk)
        calls.clear()
        got = builds()
        assert calls and all(n == per_call(groups) for groups, n in calls), (chunk, calls)
        for A, B in zip(got, want):
            assert A.product.scale == B.product.scale, A.name
            assert np.array_equal(A.product.counts, B.product.counts), (chunk, A.name)
            assert np.array_equal(A.perms, B.perms), A.name


def test_p5_coset_builds_stay_under_one_mib():
    """Each coset of ``spectrum --p 5 --gamma 1,1,0,1`` builds its block and its
    U_g under a 1 MiB ``tracemalloc`` peak: no whole-coset product, gather
    index or transport array is formed, only chunks of about KERNEL_CHUNK
    counts and the slice itself."""
    from cotwist.groups import double_cosets
    from instances import build_peaks

    inst = build_instance(Config(SymplecticConstruction(5, 1, [[[1, 1], [0, 1]]])))
    ctx = prepare_instance(inst)
    peaks = [build_peaks(ctx, z) for z in double_cosets(inst.G, inst.H)]
    assert len(peaks) == 5 and all(max(p) < 1 << 20 for p in peaks), peaks


def test_invariant_dimension_and_unit(p3_diag_bundle):
    inst, ctx, zs = p3_diag_bundle
    from cotwist.semisimple import algebra_audit

    for z in zs:
        g = z.representative
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        Ug = invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)
        assert Ug.dim * Kg.order == inst.H.order ** 2
        assert algebra_audit(Ug)


def test_three_routes_agree_everywhere(p3_unipotent_report, p3_diag_report):
    for report, n_cosets in ((p3_unipotent_report, 3), (p3_diag_report, 2)):
        assert report.ok, report.failures
        assert len(report.cosets) == n_cosets
        for c in report.cosets:
            assert c.dims_direct == c.dims_invariant == c.dims_predicted
            assert sum(d * d for d in c.dims_direct) == c.size
            assert c.identities_ok and c.kaplansky_ok


def test_expected_spectra_frozen(p3_unipotent_report, p3_diag_report):
    for c in p3_unipotent_report.cosets:
        assert c.dims_direct == [1] * 9
    assert p3_diag_report.cosets[0].dims_direct == [1] * 9
    assert p3_diag_report.cosets[1].dims_direct == [3]
    assert p3_diag_report.totals["group_order"] == 18
    assert p3_unipotent_report.totals["group_order"] == 27


def test_representative_invariance_exhaustive(p3_diag_bundle):
    """Every element of the nontrivial coset predicts the same spectrum."""
    inst, ctx, zs = p3_diag_bundle
    z = zs[1]
    dims = None
    for g2 in z.elements:
        Kg2 = stabilizer_Kg(inst.G, inst.H, int(g2))
        got, _ = predicted_spectrum(z, int(g2), ctx, Kg2)
        if dims is None:
            dims = got
        assert got == dims
    assert dims == [3]


def test_predicted_spectrum_rejects_outsider(p3_diag_bundle):
    inst, ctx, zs = p3_diag_bundle
    Kg = stabilizer_Kg(inst.G, inst.H, 0)
    with pytest.raises(CotwistError):
        predicted_spectrum(zs[1], 0, ctx, Kg)


def test_bad_tensor_class_is_reported_per_coset(monkeypatch):
    """A beta_W with beta_W(b, e) != 1 on the identity coset of p=3 diag(1,2):
    the report names both per-coset laws, and the routes disagree."""
    import cotwist.correspondence as corr

    exact = corr.tensor_class

    def corrupted(chars, traces, H, Kg, g, order):
        W = exact(chars, traces, H, Kg, g, order)
        if g == 0:
            W.beta[1:, 0] = 1
        return W

    monkeypatch.setattr(corr, "tensor_class", corrupted)
    report = full_report(Config(SymplecticConstruction(p=3, gamma_generators=[[[1, 0], [0, 2]]])))
    assert "coset 0: trace vanishing law fails for the tensor representation" in report.failures
    assert "coset 0: multiplicity law (|H|/|K_g|) * d fails" in report.failures
    assert any(f.startswith("coset 0: route disagreement") for f in report.failures)
    assert not any(f.startswith("coset 9") for f in report.failures)


def test_gauge_twist_multi_term_full_pipeline(p3_gauge_diag_bundle):
    """A gauge-conjugated twist has multi-term coefficients and must produce
    the identical spectra through every route, exercising the generic
    (non-single-term) batching paths end to end."""
    from cotwist.correspondence import _coset_pipeline

    inst, ctx, zs = p3_gauge_diag_bundle
    assert np.count_nonzero(inst.t.J.fewest_counts(), axis=-1).max() > 1
    expected = [[1] * 9, [3]]
    for z, want in zip(zs, expected):
        spectrum, errs = _coset_pipeline(ctx, z)
        assert not errs, errs
        assert spectrum.dims_direct == want
        # F_g audits across the multi-term paths
        F, audit = f_g_map(ctx, z, z.representative, *coset_algebras(ctx, z))
        assert audit.ok


def test_report_json_shape(p3_diag_report):
    text = render_json(p3_diag_report)
    assert text.endswith("\n")
    d = json.loads(text)
    assert list(d) == ["instance", "seed", "tol", "global_checks", "cosets",
                       "failures", "totals"]
    assert d["tol"] == 1e-8
    assert d["global_checks"]["minimality_rank"] == 9
    assert d["global_checks"]["square_dim"] == 3
    assert d["failures"] == []
    assert list(d["cosets"][0]) == ["rep", "size", "k_size", "dims_direct", "dims_invariant",
                                    "dims_predicted", "kaplansky_ok", "identities_ok"]
    table = render_table(p3_diag_report)
    assert "all checks passed" in table
    assert "[3]" in table


def test_report_byte_determinism_and_seed_stability(p3_diag_report):
    again = full_report(Config(SymplecticConstruction(3, 1, [[[1, 0], [0, 2]]])))
    assert render_json(again) == render_json(p3_diag_report)
    other_seed = full_report(Config(SymplecticConstruction(3, 1, [[[1, 0], [0, 2]]]),
                                    seed=1234))
    assert [c.dims_direct for c in other_seed.cosets] == \
        [c.dims_direct for c in p3_diag_report.cosets]


def test_report_parallel_jobs_identical(p3_unipotent_report):
    par = full_report(Config(SymplecticConstruction(3, 1, [[[1, 1], [0, 1]]])), jobs=3)
    assert render_json(par) == render_json(p3_unipotent_report)


def test_global_only_skips_cosets():
    rep = full_report(Config(SymplecticConstruction(3, 1, [])), global_only=True)
    assert rep.ok and rep.cosets == []
    assert rep.global_checks["minimality_rank"] == 9


def test_corrupted_twist_report(tmp_path, p3_pair):
    H, sigma = p3_pair
    from cotwist.twist import symplectic_twist

    t = symplectic_twist(H, sigma)
    Jbad = copied(t.J)
    Jbad.counts[1, 2, 0] += 1
    tb, audit = assemble_twist(Subgroup(H, np.arange(9)), Jbad)
    assert not audit.ok
    gf, tf = tmp_path / "g.txt", tmp_path / "t.txt"
    H.to_file(gf)
    save_twist_file(tf, tb)
    rep = full_report(Config(TableConstruction(str(gf), list(range(9)), str(tf))))
    assert not rep.ok and rep.cosets == []
    assert any("2-cocycle" in f for f in rep.failures)
    assert any("skipped" in f for f in rep.failures)


def test_nonminimal_twist_refused(p3_pair):
    """A valid but non-minimal twist passes axioms yet is refused for coset
    analysis (the correspondence needs minimality)."""
    H, _ = p3_pair
    J = CycArray.zeros((9, 9), 3)
    J.counts[0, 0, 0] = 1
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        gf = Path(d) / "g.txt"
        tf = Path(d) / "t.txt"
        H.to_file(gf)
        t = make_twist(Subgroup(H, np.arange(9)), J)
        save_twist_file(tf, t)
        rep = full_report(Config(TableConstruction(str(gf), list(range(9)), str(tf))))
    assert not rep.ok and rep.cosets == []
    assert any("not minimal" in f for f in rep.failures)


def test_trivial_subgroup_table_instance(tmp_path):
    """H = {e} inside C2: both cosets are singletons with spectrum [1]."""
    c2 = FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.int32))
    gf, tf = tmp_path / "c2.txt", tmp_path / "triv.txt"
    c2.to_file(gf)
    J = CycArray.zeros((1, 1), 1)
    J.counts[0, 0, 0] = 1
    t = make_twist(Subgroup(c2, np.array([0])), J)
    save_twist_file(tf, t)
    rep = full_report(Config(TableConstruction(str(gf), [0], str(tf))))
    assert rep.ok, rep.failures
    assert len(rep.cosets) == 2
    for c in rep.cosets:
        assert c.dims_direct == [1] == c.dims_invariant == c.dims_predicted
        assert c.size == 1 and c.k_size == 1


def test_wreath_table_instance_swap_coset(tmp_path):
    """(Z/3)^2 wr C_2 with H the first factor, which is not normal.

    The swap coset H s H has |K_s| = 1 < |H| and all three routes give [9]
    (|H|/|K_s| = 9); the other nine double cosets are cosets of H.
    """
    rep = full_report(write_instance(tmp_path, *WREATH))
    assert rep.ok, rep.failures
    swap = [c for c in rep.cosets if c.rep == 81]
    assert len(swap) == 1 and swap[0].size == 81 and swap[0].k_size == 1
    assert swap[0].dims_direct == swap[0].dims_invariant == swap[0].dims_predicted == [9]
    others = [c for c in rep.cosets if c.rep != 81]
    assert len(others) == 9
    for c in others:
        assert c.k_size == 9 and c.dims_direct == [1] * 9


def test_build_instance_rejects_unknown_construction():
    with pytest.raises(CotwistError):
        build_instance(Config(construction=object()))


def test_f_g_rejects_unverified_twist(p3_pair):
    """F_g takes its duals from an InstanceContext, which an unverified twist
    never gets: prepare_instance refuses it."""
    H, sigma = p3_pair
    from cotwist.correspondence import Instance
    from cotwist.twist import TwistAudit, TwistData

    sub = Subgroup(H, np.arange(9))
    t = TwistData(subgroup=sub, order=3, J=CycArray.zeros((9, 9), 3))
    inst = Instance(G=H, H=sub, t=t, audit=TwistAudit(), description={})
    with pytest.raises(CotwistError, match="axiom audit"):
        prepare_instance(inst)


def test_f_g_names_a_corrupted_block(monkeypatch, p3_diag_bundle):
    """One count added to the block's constants fails the isomorphism onto U_g."""
    inst, ctx, zs = p3_diag_bundle
    for z in zs:
        blk, Ug = coset_algebras(ctx, z)
        blk.mul.counts[0, 0, 0, 0] += 1
        with pytest.raises(AuditError, match=r"homomorphism into A2\* \(x\) A1\*") as err:
            f_g_map(ctx, z, z.representative, blk, Ug)
        assert "image" not in str(err.value)


def test_f_g_names_a_split_orbit_labelling(monkeypatch, p3_diag_bundle):
    """An orbit labelling whose orbits cut across a column of F fails the image
    check by name; the homomorphism check, which needs pi, is not reached."""
    import cotwist.correspondence as corr

    inst, ctx, zs = p3_diag_bundle
    orbits = corr.pair_orbits

    def split(*args):
        orbit_id, reps = orbits(*args)
        orbit_id = orbit_id.copy()
        # swap the second members of orbits 0 and 1: sizes and minima unchanged
        a, b = np.flatnonzero(orbit_id == 0)[1], np.flatnonzero(orbit_id == 1)[1]
        orbit_id[[a, b]] = orbit_id[[b, a]]
        return orbit_id, reps

    z = zs[1]  # K_g = H: one orbit of nine pairs per coset element
    algebras = coset_algebras(ctx, z)
    monkeypatch.setattr(corr, "pair_orbits", split)
    with pytest.raises(AuditError, match="image = K_g-invariants") as err:
        f_g_map(ctx, z, z.representative, *algebras)
    assert "homomorphism" not in str(err.value)


def test_f_g_names_broken_equivariance(monkeypatch, p3_diag_bundle):
    """F at every translated representative shifted by one column fails the
    equivariance sample by name, and only it."""
    import cotwist.correspondence as corr

    inst, ctx, zs = p3_diag_bundle
    enumerate_at = corr._enumerate_factorizations
    z = zs[1]

    def shifted(G, H, Z, g):
        F = enumerate_at(G, H, Z, g)
        return F if g == z.representative else np.roll(F, 1, axis=1)

    monkeypatch.setattr(corr, "_enumerate_factorizations", shifted)
    with pytest.raises(AuditError, match="equivariance under translation") as err:
        f_g_map(ctx, z, z.representative, *coset_algebras(ctx, z))
    assert "image" not in str(err.value) and "homomorphism" not in str(err.value)


# ---------------------------------------------------------------------------
# one slice per coset: the translation shortcut against the per-point builds


def per_point_block(t, z) -> CycArray:
    """A block's constants [a, b, x], the slice at every point x formed by
    ``_block_slice`` from that point's shifts h_s x h_c: no translation."""
    from cotwist.dual_algebras import _block_slice

    G, hg, zs = t.subgroup.parent, t.subgroup.elements.astype(np.int64), z.elements
    loc = np.full(G.order, -1)
    loc[zs] = np.arange(len(zs))
    j, jinv = t.terms
    slices = [_block_slice(jinv, j, loc[G.mul[G.mul[hg, x][:, None], hg[None, :]]], len(zs))
              for x in zs]
    return CycArray(t.order, t.J.scale * t.Jinv.scale, np.stack(slices, axis=2))


def all_rows_Ug(ctx, Kg, g) -> CycArray:
    """U_g's constants [i, j, l], the row o_i o_j of every orbit i formed by
    ``pair_sums`` from the rows h1 of A2* and h2 of A1*, (h1, h2) its
    representative: no orbit transport."""
    from cotwist.exactlin import pair_sums

    H, A1s, A2s = ctx.instance.H, ctx.A1s, ctx.A2s
    orbit_id, reps = pair_orbits(ctx.rho1, ctx.rho2, H, Kg, g)
    m, r = H.order, len(reps)
    members = np.argsort(orbit_id, kind="stable").reshape(r, -1)  # [l, k]: orbit l
    x1, x2 = np.divmod(members, m)
    partner = np.full((r, m), m)
    partner[np.arange(r)[:, None], x1] = x2
    rows = [pair_sums(A2s.take(h1, 0).fewest_counts(), A1s.take(h2, 0).fewest_counts(),
                      partner, x2 * m + x1) for h1, h2 in (divmod(int(q), m) for q in reps)]
    return CycArray(A2s.product.order, A2s.product.scale * A1s.product.scale, np.stack(rows))


@pytest.mark.parametrize("source", ["p3_unipotent", "p3_diag_bundle", "p5_unipotent",
                                    "wreath_bundle", "intermediate"])
def test_one_slice_equals_per_point_builds(source, request):
    """The block at every point and U_g at every row, formed here one point
    and one row at a time (``per_point_block``, ``all_rows_Ug``), are
    exactly the gathered constants of the one-slice builds, on every coset,
    including the wreath swap coset (K_g = {e}) and the criterion-9 cosets
    (|K_g| = 3).

    The readers of the slice agree with these constants too: the sides
    u e_j and e_j u at x are the column and row sums of S at P[x, j], which
    the unit check reads, and the commutativity test gives the same answer.
    The translation group Q of the slice grades them as the center
    certificate says: f_chi f_psi = C[chi, psi] f_{chi psi} with
    C = F^T S F read from the slice (``semisimple.center_basis``)."""
    from cotwist.exactlin import canonical_counts, cyc_tensordot
    from cotwist.groups import double_cosets
    from cotwist.semisimple import _canonically_symmetric, _grading_characters

    configs = {"p3_unipotent": lambda: Config(SymplecticConstruction(3, 1, [[[1, 1], [0, 1]]])),
               "p5_unipotent": lambda: Config(SymplecticConstruction(5, 1, [[[1, 1], [0, 1]]]))}
    if source in configs:
        inst = build_instance(configs[source]())
        ctx = prepare_instance(inst)
        zs = double_cosets(inst.G, inst.H)
    else:
        inst, ctx, zs = request.getfixturevalue(
            "intermediate_bundle" if source == "intermediate" else source)
    for z in zs:
        g = z.representative
        Kg = stabilizer_Kg(inst.G, inst.H, g)
        blk, Ug = coset_algebras(ctx, z)
        for fast, mul in ((blk, per_point_block(inst.t, z)), (Ug, all_rows_Ug(ctx, Kg, g))):
            assert np.array_equal(fast.mul.counts, mul.counts), fast.name
            assert fast.mul.scale == mul.scale, fast.name
            S, P = fast.product, fast.perms
            for sides, sums in (("ab...->b...", "ij...->j..."), ("ab...->a...", "ij...->i...")):
                side = np.einsum(sides, mul.counts)                          # [j, x]
                assert np.array_equal(side, np.einsum(sums, S.counts)[P.T]), fast.name
            assert _canonically_symmetric(S) == _canonically_symmetric(mul), fast.name
            E, _ = _grading_characters(P, S.order)
            F = CycArray.from_exponents(S.order, E)                                  # [chi, x]
            C = cyc_tensordot(cyc_tensordot(F, S, axes=([1], [0])), F, axes=([1], [1]))
            prod = cyc_tensordot(F, cyc_tensordot(F, mul, axes=([1], [0])), axes=([1], [1]))
            # prod[psi, chi] = f_chi f_psi = C[chi, psi] f_{chi psi}: its value at delta_0
            # times (chi psi)(x), a shift of the counts by the exponent
            at_0 = CycArray(S.order, prod.scale, prod.counts[:, :, 0].swapaxes(0, 1))
            assert at_0.eq(C), fast.name
            shift = (np.arange(S.order) - (E[:, None, :] + E[None, :, :])[..., None]) % S.order
            graded = np.take_along_axis(prod.counts[:, :, :1], shift, axis=-1)
            assert np.array_equal(canonical_counts(prod.counts, S.order),
                                  canonical_counts(graded, S.order)), fast.name


def test_non_invariant_twist_is_refused_by_name(monkeypatch, p3_diag_bundle, tmp_path):
    """With ``ad_invariant`` refusing every twist, the block and U_g builds
    raise AuditError naming their algebra, and ``cotwist spectrum --p 3
    --gamma 1,0,0,2`` records one named failure per coset, and no other,
    and exits 1."""
    import json

    import cotwist.correspondence as corr
    import cotwist.dual_algebras as duals
    from cotwist.cli import main

    for module in (duals, corr):
        monkeypatch.setattr(module, "ad_invariant", lambda group, M: False)
    inst, ctx, zs = p3_diag_bundle
    z = zs[1]
    g = z.representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    with pytest.raises(AuditError, match=re.escape(f"block[{g}]: J is not Ad(H)-invariant")):
        build_block_algebra(inst.t, z)
    refusal = re.escape(f"invariants at g={g}: J is not Ad(H)-invariant")
    with pytest.raises(AuditError, match=refusal):
        invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)
    out = tmp_path / "report.json"
    assert main(["spectrum", "--p", "3", "--gamma", "1,0,0,2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["cosets"] == []
    assert report["failures"] == [
        f"coset {c.representative}: block[{c.representative}]: J is not Ad(H)-invariant, "
        "so one slice does not fix it" for c in zs]


def test_tampered_orbit_labelling_fails_the_transport(monkeypatch, p3_diag_bundle):
    """Two pairs swapped between orbits 0 and 1 after ``pair_orbits``
    certified them leave every orbit its size; the one-row gather names the
    broken transport instead of yielding wrong constants."""
    import cotwist.correspondence as corr

    inst, ctx, zs = p3_diag_bundle
    orbits = corr.pair_orbits

    def tampered(*args):
        orbit_id, reps = orbits(*args)
        orbit_id = orbit_id.copy()
        a, b = np.flatnonzero(orbit_id == 0)[1], np.flatnonzero(orbit_id == 1)[1]
        orbit_id[[a, b]] = orbit_id[[b, a]]
        return orbit_id, reps

    monkeypatch.setattr(corr, "pair_orbits", tampered)
    g = zs[1].representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    with pytest.raises(AuditError, match="orbit transport"):
        invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)


def test_orbit_labelling_with_a_repeated_a2_point_is_refused(monkeypatch, p3_diag_bundle):
    """A swap that puts two pairs with the same A2* point x1 into one orbit
    keeps every orbit its size; U_g refuses it by name before any product,
    since each (x1, orbit) must hold at most one pair."""
    import cotwist.correspondence as corr

    inst, ctx, zs = p3_diag_bundle
    orbits, m = corr.pair_orbits, inst.H.order

    def tampered(*args):
        orbit_id, reps = orbits(*args)
        orbit_id = orbit_id.copy()
        a, c = np.flatnonzero(orbit_id == 0)[1:3]  # c stays in orbit 0
        b = next(q for q in np.flatnonzero(orbit_id == 1) if q // m == c // m)
        orbit_id[[a, b]] = orbit_id[[b, a]]
        return orbit_id, reps

    monkeypatch.setattr(corr, "pair_orbits", tampered)
    g = zs[1].representative
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    with pytest.raises(AuditError, match="A2\\* leg does not act freely"):
        invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)
