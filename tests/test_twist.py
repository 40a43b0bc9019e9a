"""Twist construction, exact axiom audits, inversion, triangularity, Q element."""

from fractions import Fraction

import numpy as np
import pytest

from cotwist.errors import AuditError, CotwistError
from cotwist.exactlin import CycArray, cyc_tensordot, ga_identity, ga_mul
from cotwist.groups import FiniteGroup, Subgroup, build_elementary_abelian_symplectic
from cotwist.twist import (assemble_twist, load_twist_matrix, make_twist,
                           q_element_and_antipode_check, save_twist_file,
                           square_dimension_check, symplectic_twist,
                           triangular_structure, verify_twist_axioms, _sides_agree,
                           _single_terms)
from cotwist.scalars import _reduction_table
from cyc_reference import add, cocycle_on_every_triple, copied, equal, mul, values, zero

AXIOM_NAMES = [
    "2-cocycle equation",
    "counit (left leg)",
    "counit (right leg)",
    "invertibility",
    "coassociativity of the first deformed coproduct",
    "coassociativity of the second deformed coproduct",
]


def test_symplectic_twist_entries(p3_pair, p3_twist):
    H, sigma = p3_pair
    t = p3_twist
    assert t.verified
    # one root of unity per cell: the canonical counts of zeta^sigma(a, b)
    assert np.array_equal(t.J.counts, CycArray.from_exponents(3, sigma.exponents).counts)
    assert t.J.scale == Fraction(1, 9)


def test_axiom_audit_names_and_results(p3_twist, p3_diag_bundle):
    """Both constructions take the six named checks; the symplectic instance's
    are run on H as a subgroup of G, with conj(J) the inverse."""
    audit = verify_twist_axioms(p3_twist)
    assert [name for name, _ in audit.checks] == AXIOM_NAMES
    assert audit.ok
    inst = p3_diag_bundle[0]
    assert inst.t.subgroup is inst.H and inst.H.parent is inst.G
    assert inst.audit.checks == [(name, True) for name in AXIOM_NAMES]
    assert inst.t.Jinv.eq(inst.t.J.conj())


def test_jinv_is_exact_two_sided_inverse(p3_twist):
    t = p3_twist
    m = t.size
    j = t.J.reshape(m * m)
    jinv = t.Jinv.reshape(m * m)
    e = ga_identity(m * m, t.order)
    assert ga_mul(j, jinv, t.pair_mul).eq(e)
    assert ga_mul(jinv, j, t.pair_mul).eq(e)


def test_closed_form_inverse_equals_general_solve(p3_twist):
    """The adjoint inverse J* / scale^2 that the pointwise audit derives is
    the one the general solve in C[H x H] finds, count for count, on the
    symplectic twist (where it is conj(J)) and on the wreath table's twist,
    audited on H inside G."""
    from cotwist.exactlin import invert_in_group_algebra
    from instances import WREATH, build_parts

    _, H, J = build_parts(*WREATH)
    wreath, audit = assemble_twist(H, J)
    assert audit.ok
    for t in (p3_twist, wreath):
        assert t.fourier is not None
        general = invert_in_group_algebra(t.J.reshape(81), t.pair_mul).reshape(9, 9)
        assert np.array_equal(t.Jinv.counts, general.counts) and t.Jinv.scale == general.scale
    assert p3_twist.Jinv.eq(p3_twist.J.conj())


def test_table_twist_inverse_from_q(p3_gauge_diag_bundle, solve_shapes):
    """A twist whose J-hat is not single-term is inverted through Q, not in C[H x H].

    The gauge-transformed twist has two-term cells.  Its Q has three cells,
    whose support generates a subgroup S of order 3, so the audit runs one
    |S| x |S| solve (Q^-1) and none of size |H| or |H|^2, and the certified
    J^-1 has the counts and scale of the general solve's.
    """
    from cotwist.exactlin import invert_in_group_algebra
    from cotwist.groups import FiniteGroup

    inst, _, _ = p3_gauge_diag_bundle
    J = inst.t.J
    bare = FiniteGroup(inst.t.group.mul.copy())
    t, audit = assemble_twist(Subgroup(bare, np.arange(9)), J)
    assert audit.ok
    assert solve_shapes == [(3, 3)]
    general = invert_in_group_algebra(J.reshape(81), t.pair_mul).reshape(9, 9)
    assert solve_shapes[-1] == (81, 81)
    assert np.array_equal(t.Jinv.counts, general.counts)
    assert t.Jinv.scale == general.scale


def test_invertible_non_twist_takes_general_solve(p3_pair, p3_twist, solve_shapes):
    """J with a zero-sum rectangle added stays invertible but is no twist: the
    Q-derived candidate fails its product check, the general solve inverts J,
    and the audit names the same axioms as with the general solve alone."""
    H, _ = p3_pair
    J = _perturbed(p3_twist.J, {(1, 2): 1, (3, 4): 1, (1, 4): -1, (3, 2): -1})
    t, audit = assemble_twist(Subgroup(H, np.arange(9)), J)
    assert solve_shapes == [(9, 9), (81, 81)]
    assert audit.failed == ["2-cocycle equation",
                            "coassociativity of the first deformed coproduct",
                            "coassociativity of the second deformed coproduct"]
    unit = ga_identity(81, 3).reshape(9, 9)
    assert ga_mul(J, t.Jinv, H.mul.astype(np.int64)).eq(unit)


def test_wrong_adjoint_inverse_fails_by_name(p3_pair, p3_twist, monkeypatch):
    """The derived J^-1 is certified by its transform, not trusted: an adjoint
    patched to twice its value fails, by name, and is dropped."""
    from cotwist import twist

    adjoint = twist._adjoint_inverse
    monkeypatch.setattr(twist, "_adjoint_inverse", lambda t, f: adjoint(t, f).scale_by(2))
    t, audit = assemble_twist(Subgroup(p3_pair[0], np.arange(9)), p3_twist.J)
    assert t.fourier is not None
    assert audit.failed == ["invertibility",
                            "coassociativity of the second deformed coproduct"]
    assert not t.verified and t.Jinv is None


@pytest.fixture
def contractions(monkeypatch):
    """The X of every ``twist._sides_agree`` call, in call order."""
    from cotwist import twist

    calls, sides = [], twist._sides_agree
    monkeypatch.setattr(twist, "_sides_agree",
                        lambda X, shift: calls.append(X) or sides(X, shift))
    return calls


def test_symplectic_audit_takes_no_contraction(p3_pair, contractions):
    """The symplectic twist's J-hat is one root of unity per cell, so its six
    checks are pointwise and none contracts in C[H]^(x 3)."""
    t = symplectic_twist(*p3_pair)
    assert t.verified and t.Jinv.eq(t.J.conj())
    assert t.fourier is not None and t.fourier.scale == 1
    assert contractions == []


def test_gauge_twist_audit_contracts_its_inverse(p3_gauge_diag_bundle, contractions):
    """The gauge-transformed twist's J-hat has cells of several terms, so it is
    audited by contractions; its J^-1 is not conj(J): coassociativity of
    Delta2 is contracted on J^-1, and Delta1 still reuses the 2-cocycle one."""
    J = p3_gauge_diag_bundle[0].t.J
    t, audit = assemble_twist(p3_gauge_diag_bundle[0].t.subgroup, J)
    assert audit.ok and [name for name, _ in audit.checks] == AXIOM_NAMES
    assert t.fourier is None
    assert not t.Jinv.eq(J.conj())
    assert len(contractions) == 2
    assert contractions[0] is J and contractions[1] is t.Jinv


def test_trivial_twist_on_nonabelian_group_contracts_delta1(contractions):
    """J = 1 x 1 on C[S3]: J^-1 = J = conj(J), but a^-1 y != y a^-1, so
    coassociativity of Delta1 is contracted with its own shift."""
    from cotwist.groups import FiniteGroup
    from test_semisimple import s3_mul

    J = CycArray.zeros((6, 6), 1)
    J.counts[0, 0, 0] = 1
    t, audit = assemble_twist(Subgroup(FiniteGroup(s3_mul()), np.arange(6)), J)
    assert audit.ok and t.Jinv.eq(J.conj()) and t.fourier is None
    assert len(contractions) == 2 and all(X is J for X in contractions)


def test_corrupted_twist_names_cocycle_axiom(p3_pair, p3_twist):
    H, _ = p3_pair
    Jbad = copied(p3_twist.J)
    Jbad.counts[1, 2, 0] += 1
    t, audit = assemble_twist(Subgroup(H, np.arange(9)), Jbad)
    assert not t.verified and not audit.ok
    assert "2-cocycle equation" in audit.failed
    assert audit.failed == [name for name in AXIOM_NAMES if name != "invertibility"]
    with pytest.raises(AuditError):
        make_twist(Subgroup(H, np.arange(9)), Jbad)
    with pytest.raises(CotwistError):
        t.require_verified()


def _perturbed(J: CycArray, changes) -> CycArray:
    out = copied(J)
    for (a, b), delta in changes.items():
        out.counts[a, b, 0] += delta
    return out


@pytest.mark.parametrize("changes, failing", [
    # a zero-sum rectangle keeps both counits; the cocycle and both
    # coassociativity audits (run at x = e only) must still fail
    ({(1, 2): 1, (3, 4): 1, (1, 4): -1, (3, 2): -1},
     ["2-cocycle equation", "coassociativity of the first deformed coproduct",
      "coassociativity of the second deformed coproduct"]),
    # zero row sum, nonzero column sums: only the left-leg counit breaks
    ({(1, 2): 1, (1, 3): -1},
     ["2-cocycle equation", "counit (left leg)",
      "coassociativity of the first deformed coproduct",
      "coassociativity of the second deformed coproduct"]),
    ({(2, 1): 1, (3, 1): -1},
     ["2-cocycle equation", "counit (right leg)",
      "coassociativity of the first deformed coproduct",
      "coassociativity of the second deformed coproduct"]),
])
def test_corrupted_twist_names_each_failing_axiom(p3_pair, p3_twist, changes, failing):
    H, _ = p3_pair
    t, audit = assemble_twist(Subgroup(H, np.arange(9)), _perturbed(p3_twist.J, changes))
    assert not t.verified
    assert audit.failed == failing


def test_counit_corruption_fails_only_the_counits(p3_pair, p3_twist):
    """2J satisfies the cocycle equation and coassociativity but not the counits."""
    H, _ = p3_pair
    t, audit = assemble_twist(Subgroup(H, np.arange(9)), p3_twist.J.scale_by(2))
    assert not t.verified
    assert audit.failed == ["counit (left leg)", "counit (right leg)"]


def test_counit_past_int64_is_a_failed_check():
    """On H = Z/2 = {e, s}, J[e, e] = -2**63 and J[s, e] = 1 - 2**63: the
    left leg's sum at e, 1 - 2**64, is not the counit's 1, but it wraps in
    int64 to 1.  The int64 guard refuses such sums, and the audit records
    failed checks, not passes."""
    J = CycArray.zeros((2, 2), 3)
    J.counts[:, 0, 0] = [-(1 << 63), 1 - (1 << 63)]
    assert J.counts[:, :, 0].sum(axis=0).tolist() == [1, 0]  # the wrapped sums
    z2 = Subgroup(FiniteGroup(np.array([[0, 1], [1, 0]])), np.arange(2))
    t, audit = assemble_twist(z2, J)
    assert not t.verified
    assert {"counit (left leg)", "counit (right leg)"} <= set(audit.failed)


def _reference_sides_agree(X: CycArray, shift: np.ndarray) -> bool:
    """sum_a X[a,w] X[a.u, a.v] == sum_a X[u,a] X[a.v, a.w] for all u, v, w, by
    reference double sums (``cyc_reference``), apart from the package kernels."""
    m = X.shape[0]
    x = values(X)
    for u, v, w in np.ndindex(m, m, m):
        left, right = zero(X.order), zero(X.order)
        for a in range(m):
            left = add(left, mul(x[a, w], x[shift[a, u], shift[a, v]]))
            right = add(right, mul(x[u, a], x[shift[a, v], shift[a, w]]))
        if not equal(left, right):
            return False
    return True


@pytest.mark.parametrize("source", ["symplectic", "file", "gauge"])
def test_sides_agree_matches_reference_sums(source, p3_twist, p3_gauge_diag_bundle, tmp_path):
    """The three audits of _sides_agree against reference double sums, on the
    p=3 twist as built, as the wreath table instance reads it from its twist
    file (canonical counts over a common denominator) and gauge-transformed
    (multi-term cells): each passes, and fails once one cell of its X is
    multiplied by zeta."""
    if source == "symplectic":
        t = p3_twist
    elif source == "file":
        save_twist_file(tmp_path / "twist.txt", p3_twist)
        t, audit = assemble_twist(p3_twist.subgroup, load_twist_matrix(tmp_path / "twist.txt"))
        assert audit.ok
    else:
        t = p3_gauge_diag_bundle[0].t
    table = t.group.mul.astype(np.int64)
    inv = t.group.inv.astype(np.int64)
    right_shift, left_shift = table[:, inv].T, table[inv]
    times_zeta = _reduction_table(t.order)[1:t.J.counts.shape[-1] + 1]  # zeta^(l + 1), by l
    for X, shift in ((t.J, right_shift), (t.J, left_shift), (t.Jinv, right_shift)):
        rotated = copied(X)
        rotated.counts[1, 2] = X.counts[1, 2] @ times_zeta
        for Y, holds in ((X, True), (rotated, False)):
            assert _reference_sides_agree(Y, shift) is holds
            assert _sides_agree(Y, shift) is holds


def test_triangular_minimal(p3_twist):
    tri = triangular_structure(p3_twist)
    assert tri.rank == 9 and tri.minimal
    assert square_dimension_check(p3_twist) == 3


def test_minimality_rank_certified_mod_ell(rref_calls):
    """R at p=5 has full rank mod l, so no exact elimination runs."""
    tri = triangular_structure(symplectic_twist(*build_elementary_abelian_symplectic(5, 1)))
    assert tri.rank == 25 and tri.minimal
    assert rref_calls == []


def test_trivial_twist_is_valid_but_not_minimal(p3_pair):
    H, _ = p3_pair
    J = CycArray.zeros((9, 9), 3)
    J.counts[0, 0, 0] = 1  # J = e (x) e
    t = make_twist(Subgroup(H, np.arange(9)), J)
    assert t.verified
    tri = triangular_structure(t)
    assert tri.rank == 1 and not tri.minimal


def test_q_element_is_delta_e(p3_twist):
    """For the symplectic twist, Q collapses to the identity element."""
    Q, ok = q_element_and_antipode_check(p3_twist)
    assert ok
    expected = CycArray.zeros((9,), 3)
    expected.counts[0, 0] = 1
    assert Q.eq(expected)


def test_q_element_antipode_p5():
    H, sigma = build_elementary_abelian_symplectic(5, 1)
    t = symplectic_twist(H, sigma)
    Q, ok = q_element_and_antipode_check(t)
    assert ok
    expected = CycArray.zeros((25,), 5)
    expected.counts[0, 0] = 1
    assert Q.eq(expected)


def test_q_element_overflow_is_named():
    """On Z/2, Q[e] adds J[e, e] and J[s, s]: two counts of 2**62 would wrap
    to -2**63, so they are refused by name; one below, the sum is exact."""
    from cotwist.twist import _q_element

    mul = np.array([[0, 1], [1, 0]])
    J = CycArray.zeros((2, 2), 3)
    J.counts[[0, 1], [0, 1], 0] = 1 << 62
    with pytest.raises(CotwistError, match="the sums of Q would overflow int64"):
        _q_element(J, mul, np.arange(2))
    J.counts[[0, 1], [0, 1], 0] -= 1
    assert _q_element(J, mul, np.arange(2)).counts[0, 0] == (1 << 63) - 2


def test_square_dimension_rejects_nonsquare():
    from cotwist.groups import FiniteGroup

    c3 = FiniteGroup((np.arange(3)[:, None] + np.arange(3)[None, :]) % 3)
    J = CycArray.zeros((3, 3), 1)
    J.counts[0, 0, 0] = 1
    t = make_twist(Subgroup(c3, np.arange(3)), J)
    with pytest.raises(CotwistError):
        square_dimension_check(t)


def test_twist_file_round_trip(tmp_path, p3_twist):
    path = tmp_path / "twist.txt"
    save_twist_file(path, p3_twist)
    J = load_twist_matrix(path)
    assert J.order == 3
    H, _ = build_elementary_abelian_symplectic(3, 1)
    t2, audit = assemble_twist(Subgroup(H, np.arange(9)), J)
    assert audit.ok
    assert t2.J.eq(p3_twist.J)
    # the same counts and scale as the twist that was written
    assert J.scale == p3_twist.J.scale
    assert np.array_equal(J.counts, p3_twist.J.reduced().counts)


def test_twist_file_golden_lines(tmp_path, p3_pair, p3_twist):
    """The file format, pinned: J_ab = zeta^sigma(a,b) / 9 and a zero cell."""
    _, sigma = p3_pair
    literal = {0: "1/9*E(3)^0", 1: "1/9*E(3)^1", 2: "-1/9*E(3)^0;-1/9*E(3)^1"}
    path = tmp_path / "twist.txt"
    save_twist_file(path, p3_twist)
    lines = path.read_text().splitlines()
    assert lines == ["3 9"] + [literal[int(e)] for e in sigma.exponents.ravel()]

    J = CycArray.zeros((9, 9), 3)
    J.counts[0, 0, 0] = 1  # J = e (x) e: every other cell is zero
    save_twist_file(path, make_twist(Subgroup(p3_pair[0], np.arange(9)), J))
    assert path.read_text().splitlines() == ["3 9", "1/1*E(3)^0"] + ["0"] * 80


def test_twist_file_loads_noncanonical_literals(tmp_path):
    """Reducible exponents and repeated terms load to canonical counts over
    the lowest common denominator of the canonical coefficients."""
    path = tmp_path / "twist.txt"
    path.write_text("3 2\n1/1*E(3)^2\n1/2*E(3)^1;1/2*E(3)^1\n"
                    "-1/3*E(3)^-1;0/5*E(3)^0\n0\n")
    J = load_twist_matrix(path)
    assert J.order == 3 and J.scale == Fraction(1, 3)
    assert J.counts.tolist() == [[[-3, -3], [0, 3]], [[1, 1], [0, 0]]]


def test_twist_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in ("3\n0\n",                     # header lacks the dimension
                 "3 2\n0 0 0\n",                # wrong entry count
                 "3 1\nnonsense\n",             # unparseable literal
                 "3 1\n0;1/1*E(3)^0\n",         # bare 0 joined to a term
                 "3 1\n1/1*E(5)^0\n",           # term order != header order
                 "x 1\n0\n",                    # non-integer header
                 "3 0\n"):                      # empty matrix
        bad.write_text(text)
        with pytest.raises(CotwistError, match="twist file"):
            load_twist_matrix(bad)


def test_gauge_transformed_twist_still_valid(p3_pair, p3_twist):
    """Conjugating by an invertible u in C[H] preserves every axiom.

    J' = (u (x) u) J Delta0(u)^-1 has multi-term entries, exercising the
    generic (non-single-term) code paths downstream.
    """
    H, _ = p3_pair
    t = p3_twist
    m, n = 9, 3
    # u = (1 - zeta) e + zeta g, invertible (checked by construction below)
    u = CycArray.zeros((m,), n)
    u.counts[0, 0] = 1
    u.counts[0, 1] = -1
    u.counts[1, 1] = 1
    from cotwist.exactlin import invert_in_group_algebra

    uinv = invert_in_group_algebra(u, H.mul.astype(np.int64))
    uu = cyc_tensordot(u, u, axes=0).reshape(m * m)
    diag = CycArray.zeros((m * m,), n)
    diag.counts[np.arange(m) * m + np.arange(m)] = uinv.counts
    diag.scale = uinv.scale
    jp = ga_mul(ga_mul(uu, t.J.reshape(m * m), t.pair_mul), diag, t.pair_mul)
    t2 = make_twist(Subgroup(H, np.arange(m)), jp.reshape(m, m))
    assert t2.verified
    assert _single_terms(t2.J.counts, n) is None, "gauge transform should be multi-term"
    tri = triangular_structure(t2)
    assert tri.minimal
    _, ok = q_element_and_antipode_check(t2)
    assert ok


# ---------------------------------------------------------------------------
# the pointwise route against the contracted route


def _outcomes(subgroup, J):
    """The audited twist and every named outcome of its audit and, once it
    passes, of its global checks."""
    t, audit = assemble_twist(subgroup, J)
    out = {"checks": audit.checks, "Jinv": t.Jinv}
    if t.verified:
        tri = triangular_structure(t)
        out["Q"], out["antipode"] = q_element_and_antipode_check(t)
        out["rank"], out["minimal"] = tri.rank, tri.minimal
    return t, out


def _inverse_transform(chars, hat):
    """X[a, b] = |H|^-2 sum_{chi, psi} X-hat(chi, psi) chi-bar(a) psi-bar(b) on
    canonical counts over the lowest common denominator, as the characters'
    orthogonality gives F-bar^T F = |H| I."""
    from cotwist.twist import _over_common_denominator

    m = len(chars)
    Fbar = CycArray.from_exponents(hat.order, -chars)
    X = cyc_tensordot(cyc_tensordot(Fbar, hat, axes=([0], [0])), Fbar, axes=([1], [0]))
    return _over_common_denominator(X.scale_by(Fraction(1, m * m)))


def _transform_corrupted(t, cell, by=1):
    """The J whose J-hat is t's with the exponent of one cell moved ``by``."""
    f = t.fourier
    exp = f.exp.astype(np.int64)
    exp[cell] += by
    return _inverse_transform(f.chars, CycArray.from_exponents(f.order, exp % f.order, f.scale))


def _equivalence_cases():
    """(name, subgroup, J, pointwise) for every shipped twist and for
    corruptions; ``pointwise`` says whether J-hat is single-term."""
    from instances import COMPOSITE, CRITERION_10, DEGENERATE, WREATH, build_parts

    cases = []
    for p in (3, 5):
        H, sigma = build_elementary_abelian_symplectic(p, 1)
        J = CycArray.from_exponents(p, sigma.exponents, Fraction(1, p * p))
        cases.append((f"symplectic-p{p}", Subgroup(H, np.arange(p * p)), J, True))
    for name, spec in (("wreath", WREATH), ("criterion10-first", CRITERION_10[0]),
                       ("criterion10-second", CRITERION_10[1]),
                       ("composite-N4", COMPOSITE), ("degenerate-N4", DEGENERATE)):
        _, H, J = build_parts(*spec)
        cases.append((name, H, J, True))
    H, sigma = build_elementary_abelian_symplectic(3, 1)
    sub, t = Subgroup(H, np.arange(9)), symplectic_twist(H, sigma)
    for name, changes in (("rectangle", {(1, 2): 1, (3, 4): 1, (1, 4): -1, (3, 2): -1}),
                          ("left-counit", {(1, 2): 1, (1, 3): -1}),
                          ("right-counit", {(2, 1): 1, (3, 1): -1}), ("one-cell", {(1, 2): 1})):
        cases.append((f"perturbed-{name}", sub, _perturbed(t.J, changes), False))
    cases.append(("scaled", sub, t.J.scale_by(2), True))
    for a, b in ((4, 7), (0, 5), (5, 0)):
        cases.append((f"hat-cell-{a}-{b}", sub, _transform_corrupted(t, (a, b)), True))
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


@pytest.mark.parametrize("name, subgroup, J, pointwise", EQUIVALENCE_CASES,
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_pointwise_route_gives_the_contracted_outcomes(name, subgroup, J, pointwise, monkeypatch):
    """Each shipped twist, and each corruption, gets the same named outcomes
    whether its J-hat is read pointwise or its identities are contracted in
    C[H]^(x k): the six checks, the certified J^-1, the rank of R, minimality,
    Q and the antipode identity.  Every shipped twist takes the pointwise
    route, at N = 2, 3, 4 and 5."""
    from cotwist import twist

    t, pointwise_out = _outcomes(subgroup, J)
    assert (t.fourier is not None) is pointwise
    monkeypatch.setattr(twist, "_fourier", lambda t: None)
    t, contracted_out = _outcomes(subgroup, J)
    assert t.fourier is None
    for key, value in contracted_out.items():
        other = pointwise_out[key]
        if isinstance(value, CycArray):
            assert np.array_equal(value.counts, other.counts) and value.scale == other.scale, key
        else:
            assert value == other, key


@pytest.mark.parametrize("cell, failing", [
    ((4, 7), ["2-cocycle equation", "coassociativity of the first deformed coproduct",
              "coassociativity of the second deformed coproduct"]),
    ((0, 5), ["2-cocycle equation", "counit (left leg)",
              "coassociativity of the first deformed coproduct",
              "coassociativity of the second deformed coproduct"]),
    ((5, 0), ["2-cocycle equation", "counit (right leg)",
              "coassociativity of the first deformed coproduct",
              "coassociativity of the second deformed coproduct"]),
])
def test_moved_exponent_fails_pointwise_by_name(p3_pair, p3_twist, cell, failing, contractions):
    """One cell of J-hat moved to another root of unity keeps J-hat
    single-term: the pointwise checks name the failures, with no contraction."""
    t, audit = assemble_twist(Subgroup(p3_pair[0], np.arange(9)),
                              _transform_corrupted(p3_twist, cell))
    assert t.fourier is not None and audit.failed == failing and contractions == []


@pytest.mark.parametrize("n, dim", [(3, 2), (4, 2), (2, 4), (3, 3)])
def test_cocycle_check_on_generators_is_the_full_check(n, dim):
    """The 2-cocycle check on the generators of H-hat decides as the check on
    every triple does: on bilinear tables plus coboundaries f(x) + f(y) -
    f(xy), which pass, and on random tables, a cocycle with one cell moved at
    a pair of non-generators, and, for each generator s, a cocycle plus
    u(x K, y K), K the subgroup the other generators generate and u(K, .) = 0,
    which fail at s alone."""
    from cotwist.groups import (build_elementary_abelian, character_exponents,
                                character_products, close_under_products, greedy_generators)
    from cotwist.twist import Fourier, _cocycle_holds

    group = build_elementary_abelian(n, dim)
    E = character_exponents(group, n)
    prod = character_products(E, group.generators, n)
    m, rng, gens = len(E), np.random.default_rng(n * 10 + dim), greedy_generators(prod)
    others = [x for x in range(1, m) if x not in gens]

    def decide(exp):
        f = Fourier(order=n, chars=E, prod=prod, dual=np.argmax(prod == 0, axis=1),
                    exp=(exp % n).astype(np.int16), scale=Fraction(1))
        full = cocycle_on_every_triple(exp, prod, n)
        assert _cocycle_holds(f) is full
        return full

    for _ in range(3):
        a, b = rng.integers(m, size=(2, 3))
        bilinear = sum(np.outer(E[:, i], E[:, j]) for i, j in zip(a, b))
        f = rng.integers(n, size=m)
        cocycle = bilinear + f[:, None] + f[None] - f[prod]
        assert decide(cocycle)
        assert not decide(rng.integers(n, size=(m, m)))
        moved = cocycle.copy()
        moved[rng.choice(others), rng.choice(others)] += 1
        assert not decide(moved)
        for i in range(len(gens)):
            K = np.arange(m) == 0
            close_under_products(K, gens[:i] + gens[i + 1:], prod)
            coset = np.unique(prod[:, K].min(axis=1), return_inverse=True)[1].ravel()  # K is 0
            u = rng.integers(n, size=(coset.max() + 1,) * 2)
            u[0], u[1:, 0] = 0, 1  # u(s, 0) - u(0, z) = 1: no cocycle
            assert not decide(cocycle + u[np.ix_(coset, coset)])


def test_character_products_are_pointwise_sums():
    """The row of chi psi is the row E[chi] + E[psi] mod N and that of chi-bar
    is -E[chi] mod N: on (Z/n)^dim at N = n, for prime and composite n, on
    (Z/2)^3 read at N = 4, on Z/4 x Z/2 read at N = 4 and N = 8, and on {e}.
    Rows are compared at the generators, whose values fix a character."""
    from cotwist.groups import build_elementary_abelian, character_exponents, character_products

    z4 = (np.arange(4)[:, None] + np.arange(4)) % 4
    z2 = (np.arange(2)[:, None] + np.arange(2)) % 2
    z4z2 = FiniteGroup((z4[:, None, :, None] * 2 + z2[None, :, None, :]).reshape(8, 8))
    cases = [(build_elementary_abelian(n, dim), n)
             for n, dim in ((3, 2), (4, 2), (2, 4), (3, 3), (3, 6), (4, 3), (6, 2))]
    cases += [(build_elementary_abelian(2, 3), 4), (z4z2, 4), (z4z2, 8),
              (FiniteGroup(np.zeros((1, 1), dtype=np.int64)), 3)]
    for group, order in cases:
        E = character_exponents(group, order)
        gens = group.generators
        prod = character_products(E, gens, order)
        at = E[:, gens]
        assert np.array_equal(at[prod], (at[:, None] + at[None]) % order)
        assert np.array_equal(at[np.argmax(prod == 0, axis=1)], -at % order)
