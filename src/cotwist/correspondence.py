"""The theorem engine: per-double-coset spectra by three independent routes.

Route (a) computes each block of the dual algebra directly and splits it.
Route (b) forms the invariant algebra U_g of the stabilizer action on
A_2* (x) A_1* in exact arithmetic and splits that.  Route (c) predicts the
spectrum from the class of the pulled-back tensor cocycle on the stabilizer
K_g, read exactly from characters of H as an alternating bicharacter,
scaled by |H|/|K_g|.  The report machinery runs all
three per coset, asserts the multisets agree, checks Kaplansky divisibility
against |G|, and verifies representative independence.

The comparison map F_g links routes (a) and (b): it sends each basis point
of the block to an orbit sum of the pair action, and ``f_g_map`` audits
exactly that it is an isomorphism of the block onto U_g.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .dual_algebras import SCAlgebra, ad_invariant, build_A1_A2_star, build_block_algebra
from .errors import AuditError, CotwistError
from .exactlin import CycArray, chunk_rows, pair_sums
from .groups import (DoubleCoset, FiniteGroup, Subgroup, build_elementary_abelian_symplectic,
                     build_semidirect, character_exponents, double_cosets, stabilizer_Kg,
                     stabilizer_local_indices)
from .projective import (class_dims, multiplicity_law_holds, regular_trace_law, tensor_class,
                         trace_vanishing_holds, translation_characters)
from .semisimple import wedderburn_dims
from .twist import (TwistAudit, TwistData, assemble_twist, load_twist_matrix,
                    q_element_and_antipode_check, square_dimension_check, triangular_structure)

#: number of (a, a') translation pairs sampled by the F_g equivariance audit
EQUIVARIANCE_SAMPLES = 20


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SymplecticConstruction:
    """Elementary-abelian H = (Z/pZ)^{2n} with its symplectic twist, inside
    G = H x| Gamma for the group Gamma generated by the given matrices."""

    p: int
    n: int = 1
    gamma_generators: list = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "type": "symplectic",
            "p": self.p,
            "n": self.n,
            "gamma_generators": [
                [[int(x) for x in row] for row in np.asarray(g)]
                for g in self.gamma_generators
            ],
        }


@dataclass
class TableConstruction:
    """Explicit Cayley-table group with a subgroup and a twist-matrix file."""

    group_file: str
    subgroup: list
    twist_file: str

    def describe(self) -> dict:
        return {
            "type": "table",
            "group_file": str(self.group_file),
            "subgroup": [int(x) for x in self.subgroup],
            "twist_file": str(self.twist_file),
        }


@dataclass
class Config:
    construction: object
    seed: int = 0
    out: str = "-"


@dataclass
class Instance:
    """A fully built problem instance plus the twist audit that produced it."""

    G: FiniteGroup
    H: Subgroup
    t: TwistData
    audit: TwistAudit
    description: dict


def build_instance(config: Config) -> Instance:
    """Construct (G, H, twist) from a config; the twist is audited on H inside G,
    not assumed, by the same six checks on either construction."""
    c = config.construction
    if isinstance(c, SymplecticConstruction):
        h_group, sigma = build_elementary_abelian_symplectic(c.p, c.n)
        G, H = build_semidirect(h_group, c.p, list(c.gamma_generators))
        J = CycArray.from_exponents(sigma.order, sigma.exponents, Fraction(1, H.order))
        t, audit = assemble_twist(H, J)  # H has h_group's local indices
    elif isinstance(c, TableConstruction):
        G = FiniteGroup.from_file(c.group_file)
        H = Subgroup(G, np.asarray(c.subgroup, dtype=np.int64))
        t, audit = assemble_twist(H, load_twist_matrix(c.twist_file))
    else:
        raise CotwistError(f"unknown construction {type(c).__name__}")
    return Instance(G=G, H=H, t=t, audit=audit, description=c.describe())


# ---------------------------------------------------------------------------
# the stabilizer action on pairs


def pair_orbits(rho1, rho2, H: Subgroup, Kg: Subgroup, g: int):
    """Orbits of K_g on the pair basis delta_h (x) delta_h': (orbit_id per
    flat index q = h*|H| + h', minimal reps).

    a in K_g sends (h, h') to (h a^{-1}, (g^{-1} a g) h'): the
    right-translation action on the A_2* leg tensored with the conjugated
    left-translation action on the A_1* leg.  Every orbit has exactly |K_g|
    points, or AuditError; orbits are numbered by ascending minimal
    representative.  Raises when conjugation by g throws a stabilizer
    element out of H.

    The A_2* leg acts freely, so the least member of the orbit of (h, h') is
    (t, (g^{-1} a g) h'), t the least point of h K_g and a the one element
    with h a^{-1} = t.  That label is an image of its own pair.  A label
    class of the wrong size is refused as a non-free action, a label that a
    generator of K_g moves as a non-action.  Past both, the labels are
    constant on orbits (rho1 and rho2 are certified actions), so each class
    is the orbit of its label, and an orbit of |K_g| points has a trivial
    stabilizer.  No |K_g| x |H|^2 table of images is formed.
    """
    a_loc, conj_loc = stabilizer_local_indices(H, Kg, g)
    m = H.order
    p2, p1 = rho2.perms[a_loc], rho1.perms[conj_loc]  # [a, h]
    least = (p2.min(0)[:, None] * m + p1[p2.argmin(0)]).ravel()
    reps, orbit_id = np.unique(least, return_inverse=True)
    if np.any(np.bincount(orbit_id) != Kg.order):
        raise AuditError("pair translation action is not free")
    for s in Kg.as_group.generators:
        if np.any(least[(p2[s][:, None] * m + p1[s]).ravel()] != least):
            raise AuditError("pair orbits are not disjoint (action is not a group action)")
    return orbit_id.astype(np.int64, copy=False), reps.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# U_g: the invariant algebra (route b)


def _orbit_row(A2s: SCAlgebra, A1s: SCAlgebra, pairs: np.ndarray,
               partner: np.ndarray) -> np.ndarray:
    """Row o_0 o_j of the orbit-sum structure constants, as counts [j, l, N].

    o_0 is the orbit symmetrization of delta_e (x) delta_e, so o_0 o_j is
    the symmetrization of (delta_e (x) delta_e) o_j, and freeness makes its
    coefficient on o_l the sum of those of (delta_e (x) delta_e) o_j over
    the members of orbit l.  With mul2 and mul1 the constants of ``A2s``
    and ``A1s``, the pair (y1, y2) of orbit j gives mul2[e, y1, x1]
    mul1[e, y2, x2] at (x1, x2).  The A_2* leg acts freely, so orbit l holds
    at most one member (x1, partner[l, x1]) per x1, and the row is the
    :func:`pair_sums` of mul2[e] and mul1[e] at ``partner`` over the members
    y2 |H| + y1 of orbit j (``pairs[j]``), each read off its slice by
    :meth:`SCAlgebra.take`; the scale is mul2.scale * mul1.scale.
    """
    return pair_sums(A2s.take(0, 0).counts, A1s.take(0, 0).counts, partner, pairs,
                     A2s.product.order)


def _orbit_transport(orbit_id: np.ndarray, members: np.ndarray, reps: np.ndarray,
                     H: FiniteGroup) -> np.ndarray:
    """sigma[i, j]: the orbit that the translation moving rep i to (e, e) sends orbit j to.

    With (h2, h1) = reps[i], the translation is (p2, p1) -> (h2^-1 p2, p1 h1^-1)
    on the pair basis.  Raises AuditError unless, for every i, it sends each
    orbit's members into a single orbit, permutes the orbits, and sends
    orbit i to the orbit of (e, e).  The representatives are taken a chunk
    of :func:`chunk_rows` at a time, so the moved pairs and their orbit
    labels are never formed for all of them at once.
    """
    m, r = H.order, len(reps)
    mul, inv = H.mul.astype(np.int64), H.inv.astype(np.int64)
    h2, h1 = np.divmod(reps, m)
    left, right = mul[inv[h2]] * m, mul[:, inv[h1]].T                   # [i, p2], [i, p1]
    sigma = np.empty((r, r), dtype=np.int64)
    step = chunk_rows(m * m)
    for lo in range(0, r, step):
        i = np.arange(lo, min(r, lo + step))
        moved = (left[i][:, :, None] + right[i][:, None, :]).reshape(len(i), m * m)
        labels = orbit_id[moved][:, members]  # [i, j, k]
        sigma[i] = labels[:, :, 0]
        if not (np.all(labels == sigma[i][:, :, None])
                and np.all(np.sort(sigma[i], axis=1) == np.arange(r))
                and np.all(sigma[i, i] == orbit_id[0])):
            raise AuditError("orbit transport: translations do not permute the pair orbits")
    return sigma


def invariant_algebra_Ug(A1s: SCAlgebra, A2s: SCAlgebra, rho1, rho2,
                         Kg: Subgroup, g: int, H: Subgroup) -> SCAlgebra:
    """The algebra of K_g-invariants in A_2* (x) A_1*, in the orbit-sum basis.

    The stabilizer acts on the pair basis by right translation on the A_2*
    leg and conjugated left translation on the A_1* leg; invariants are
    spanned by orbit sums.  Structure constants are exact; ``pair_orbits``
    certifies every orbit to have |K_g| points, so the dimension is |H|^2 / |K_g|.

    One row fixes the constants when J and Jinv are Ad(H)-invariant, which
    ``ad_invariant`` certifies exactly on the slices of A_1* and A_2* at e
    (they are J and Jinv); it always holds for abelian H, and AuditError
    names U_g where it fails.  Then left translation delta_p -> delta_{u p} is
    an automorphism of A_2* (its product at x is Jinv[p x^-1, p' x^-1], and
    u p (u x)^-1 = u (p x^-1) u^-1) and right translation
    delta_p -> delta_{p u'} one of A_1* (J[x^-1 p, x^-1 p'] likewise).  Their
    tensor T(u, u') commutes with the K_g action, which translates the other
    sides, so it permutes the orbit sums and U[i, j, l] =
    U[sigma(i), sigma(j), sigma(l)] for the induced orbit permutation
    sigma.  Every orbit i holds T(h2, h1)(e, e) for its representative
    (h2, h1), so with sigma_i induced by T(h2^-1, h1^-1), row i is the row of
    the orbit of (e, e) gathered through sigma_i (``_orbit_transport``):
    U[i, j, l] = row[sigma[i, j], sigma[i, l]].  Only that row is formed
    (:func:`_orbit_row`).

    U_g is the ``SCAlgebra`` with P = sigma and the slice
    C[a, b] = U[a, b, 0] = row[sigma[a, b], sigma[a, 0]], the products
    landing on the orbit of (e, e), which is orbit 0.  The invariance under
    sigma_l and sigma[l, l] = 0, which ``_orbit_transport`` audits, give
    U[i, j, l] = U[sigma[l, i], sigma[l, j], 0] = C[sigma[l, i], sigma[l, j]].
    """
    name, Hg = f"invariants at g={g}", H.as_group
    if not (ad_invariant(Hg, A1s.take(0, 2)) and ad_invariant(Hg, A2s.take(0, 2))):
        raise AuditError(f"{name}: J is not Ad(H)-invariant, so one row does not fix it")
    orbit_id, reps = pair_orbits(rho1, rho2, H, Kg, g)
    m, r = H.order, len(reps)
    members = np.argsort(orbit_id, kind="stable").reshape(r, -1)  # [l, k]: orbit l
    x1, x2 = np.divmod(members, m)
    partner = np.full((r, m), m)  # [l, x1]: the x2 with (x1, x2) in orbit l, m where none
    partner[np.arange(r)[:, None], x1] = x2
    if np.count_nonzero(partner < m) != members.size:
        raise AuditError("pair orbits: the A2* leg does not act freely")
    pairs = x2 * m + x1  # [j, k]: the members of orbit j as y2 |H| + y1
    sigma = _orbit_transport(orbit_id, members, reps, Hg)
    S = _orbit_row(A2s, A1s, pairs, partner)[sigma, sigma[:, [0]]]  # row of (e, e)
    scale = A2s.product.scale * A1s.product.scale
    return SCAlgebra(CycArray(A2s.product.order, scale, S), sigma, name)


# ---------------------------------------------------------------------------
# F_g: the comparison isomorphism onto U_g


def _enumerate_factorizations(G: FiniteGroup, H: Subgroup, Z: DoubleCoset, g: int) -> np.ndarray:
    """0/1 matrix F of shape (|H|^2, |Z|): F[h*|H|+h', z] = [h g h' = Z[z]]."""
    elems = H.elements.astype(np.int64)
    m = elems.size
    left = G.mul[elems, g]
    products = G.mul[np.ix_(left, elems)]
    cols = np.searchsorted(Z.elements, products)
    cols = np.clip(cols, 0, len(Z.elements) - 1)
    if not np.array_equal(Z.elements[cols], products):
        raise AuditError("factorizations h g h' leave the double coset")
    F = np.zeros((m * m, len(Z.elements)), dtype=np.int64)
    F[np.arange(m * m), cols.ravel()] = 1
    return F


def image_matches_invariants(F: np.ndarray, orbit_id: np.ndarray) -> bool:
    """Whether the columns of F are exactly the orbit indicators, one per orbit.

    Column x must be the indicator of pi(x), the orbit of its first support
    point, and x -> pi(x) must be a bijection onto the orbits.
    """
    pi = orbit_id[F.argmax(axis=0)]
    n_orbits = int(orbit_id.max()) + 1
    return bool(F.shape[1] == n_orbits == np.unique(pi).size
                and np.array_equal(F, orbit_id[:, None] == pi[None, :]))


def f_g_map(ctx: InstanceContext, Z: DoubleCoset, g: int, blk: SCAlgebra, Ug: SCAlgebra):
    """The comparison map F_g: block of coset Z -> A_2* (x) A_1*, with audits.

    Returns (F, audit).  F is the 0/1 integer matrix (|H|^2 x |Z|) sending
    delta_x to the sum of delta_h (x) delta_h' over the factorizations
    x = h g h'.  G, H and the twist come from ``ctx.instance``, the duals and
    their actions from ``ctx``; ``blk`` is Z's block
    (``build_block_algebra``) and ``Ug`` the invariant algebra at g
    (``invariant_algebra_Ug``), as the caller built them.  The audits are
    exact; any failure raises AuditError naming it.

    - Image: column x is the indicator of one orbit pi(x) of the K_g pair
      action, and pi is a bijection onto the orbits.  So F(delta_x) = o_pi(x),
      the orbit sum, and F is onto the invariants.  It is injective too, its
      columns having disjoint nonempty supports.
    - Homomorphism: the o_l are independent, so F(delta_x delta_y) =
      F(delta_x) F(delta_y) holds exactly when blk[x, y, w] = U[pi(x), pi(y),
      pi(w)] for all x, y, w, with blk the block's constants and U those of
      ``Ug``.  U's constants are those of the orbit sums in
      A_2* (x) A_1*, because ``GroupAction.verify`` has shown rho1 and rho2
      to be free actions by automorphisms.  So this one compare certifies
      that the algebras of routes (a) and (b) are exactly isomorphic.
    - Equivariance: F at a translated representative a g a' is F with its
      rows translated, on EQUIVARIANCE_SAMPLES seeded pairs (a, a').
    """
    inst = ctx.instance
    G, H = inst.G, inst.H
    if g not in set(int(x) for x in Z.elements):
        raise CotwistError(f"representative {g} is not in the double coset")
    F = _enumerate_factorizations(G, H, Z, g)
    Kg = stabilizer_Kg(G, H, g)
    orbit_id, _ = pair_orbits(ctx.rho1, ctx.rho2, H, Kg, g)
    audit = TwistAudit()
    audit.record("image = K_g-invariants (columns are orbit indicators, bijectively)",
                 image_matches_invariants(F, orbit_id))
    if audit.ok:  # pi is defined only on a bijective image
        pi = orbit_id[F.argmax(axis=0)]
        audit.record("homomorphism into A2* (x) A1*",
                     blk.mul.eq(Ug.mul.take(pi, 0).take(pi, 1).take(pi, 2)))

    mul_h = H.as_group.mul
    m = H.order
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(EQUIVARIANCE_SAMPLES):
        a = int(rng.integers(m))
        ap = int(rng.integers(m))
        g2 = int(G.mul[G.mul[int(H.elements[a]), g], int(H.elements[ap])])
        F2 = _enumerate_factorizations(G, H, Z, g2)
        rows = (mul_h[:, a][:, None] * m + mul_h[ap, :][None, :]).ravel()
        if not np.array_equal(F2, F[rows]):
            ok = False
            break
    audit.record(f"equivariance under translation ({EQUIVARIANCE_SAMPLES} samples)", ok)

    if not audit.ok:
        raise AuditError(f"F_g audits failed: {', '.join(audit.failed)}")
    return F, audit


# ---------------------------------------------------------------------------
# route (c): the predicted spectrum


def predicted_spectrum(Z: DoubleCoset, g: int, ctx: InstanceContext, Kg: Subgroup):
    """Block dimensions predicted by the class of the stabilizer cocycle: (dims, W).

    W is the tensor representation on K_g, read exactly from the translation
    characters (:func:`cotwist.projective.tensor_class`); its class gives
    the blocks of C_c[K_g], each scaled by |H|/|K_g| (asserted integral).
    """
    if g not in set(int(x) for x in Z.elements):
        raise CotwistError(f"representative {g} is not in the double coset")
    H = ctx.instance.H
    if H.order % Kg.order != 0:
        raise CotwistError(
            f"|K_g| = {Kg.order} does not divide |H| = {H.order} (bad stabilizer)")
    W = tensor_class(ctx.chars, ctx.traces, H, Kg, g, ctx.instance.t.order)
    return class_dims(W), W


# ---------------------------------------------------------------------------
# per-coset assembly


@dataclass
class CosetSpectrum:
    rep: int
    size: int
    k_size: int
    dims_direct: list
    dims_invariant: list
    dims_predicted: list
    kaplansky_ok: bool
    identities_ok: bool


@dataclass
class InstanceContext:
    """Shared per-instance precomputation for the coset pipelines; ``chars`` and
    ``traces`` are the translation characters X[a] and traces tr T[a] of A_1*, A_2*."""

    instance: Instance
    A1s: SCAlgebra
    A2s: SCAlgebra
    rho1: object
    rho2: object
    chars: tuple
    traces: tuple


def prepare_instance(instance: Instance) -> InstanceContext:
    """Build the dual algebras, their actions, and the character of each translation;
    the regular trace law is audited once per dual algebra."""
    t = instance.t
    t.require_verified()
    A1s, A2s, rho1, rho2 = build_A1_A2_star(t)
    E = character_exponents(t.group, t.order)
    chars = translation_characters(A1s, rho1, E), translation_characters(A2s, rho2, E)
    traces = regular_trace_law(A1s, chars[0]), regular_trace_law(A2s, chars[1])
    return InstanceContext(instance=instance, A1s=A1s, A2s=A2s, rho1=rho1, rho2=rho2,
                           chars=chars, traces=traces)


def _coset_pipeline(ctx: InstanceContext, Z: DoubleCoset):
    """All three routes plus the per-coset laws; returns (spectrum, failures)."""
    inst = ctx.instance
    G, H, t = inst.G, inst.H, inst.t
    g = Z.representative
    failures: list[str] = []
    tag = f"coset {g}"

    Kg = stabilizer_Kg(G, H, g)

    blk = build_block_algebra(t, Z)
    dims_direct = wedderburn_dims(blk).dims

    Ug = invariant_algebra_Ug(ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, H)
    dims_invariant = wedderburn_dims(Ug).dims

    dims_predicted, W = predicted_spectrum(Z, g, ctx, Kg)

    if not trace_vanishing_holds(W):
        failures.append(f"{tag}: trace vanishing law fails for the tensor representation")
    if not multiplicity_law_holds(W):
        failures.append(f"{tag}: multiplicity law (|H|/|K_g|) * d fails")

    kaplansky_ok = all(G.order % d == 0 for d in dims_direct)
    if not kaplansky_ok:
        failures.append(f"{tag}: a block dimension does not divide |G| = {G.order}")

    # sum d^2 = |Z| and dim U_g = |H|^2/|K_g| were enforced when the block and
    # U_g were split and built
    routes_ok = dims_direct == dims_invariant == dims_predicted
    if not routes_ok:
        failures.append(
            f"{tag}: route disagreement direct={dims_direct} "
            f"invariant={dims_invariant} predicted={dims_predicted}")

    # representative invariance: the coset's largest element other than g
    # must predict the same multiset
    others = Z.elements[Z.elements != g]
    g2 = int(others.max()) if others.size else g
    Kg2 = stabilizer_Kg(G, H, g2)
    dims_again, _ = predicted_spectrum(Z, g2, ctx, Kg2)
    if dims_again != dims_predicted:
        failures.append(
            f"{tag}: representative {g2} predicts {dims_again} != {dims_predicted}")

    spectrum = CosetSpectrum(rep=int(g), size=int(Z.size), k_size=int(Kg.order),
                             dims_direct=dims_direct, dims_invariant=dims_invariant,
                             dims_predicted=dims_predicted, kaplansky_ok=kaplansky_ok,
                             identities_ok=routes_ok)
    return spectrum, failures


# ---------------------------------------------------------------------------
# the full report


@dataclass
class Report:
    """The run's report; its fields, in order, are the JSON report's keys."""

    instance: dict
    seed: int
    tol: float = field(default=1e-8, init=False)  # fixed by the format; every check is exact
    global_checks: dict
    cosets: list
    failures: list
    totals: dict

    @property
    def ok(self) -> bool:
        return not self.failures


def _global_checks(instance: Instance):
    """The five instance-level checks; failures annotated by name."""
    t = instance.t
    m = instance.H.order
    failures = [f"twist axiom failed: {name}" for name in instance.audit.failed]
    checks = {
        "twist_axioms": instance.audit.ok,
        "triangularity": False,
        "minimality_rank": 0,
        "q_identity": False,
        "square_dim": 0,
    }
    if not instance.audit.ok:
        failures.append("twist failed verification; remaining global checks skipped")
        return checks, failures
    try:
        tri = triangular_structure(t)
        checks["triangularity"] = True
        checks["minimality_rank"] = int(tri.rank)
        if not tri.minimal:
            failures.append(
                f"twist is not minimal: rank {tri.rank} != |H| = {m}")
    except (CotwistError, MemoryError) as exc:
        failures.append(f"triangularity failed: {_failure_text(exc)}")
    try:
        _, q_ok = q_element_and_antipode_check(t)
        checks["q_identity"] = bool(q_ok)
        if not q_ok:
            failures.append("antipode identity for the Q element fails")
    except (CotwistError, MemoryError) as exc:
        failures.append(f"Q element check failed: {_failure_text(exc)}")
    try:
        checks["square_dim"] = int(square_dimension_check(t))
    except CotwistError as exc:
        failures.append(f"square dimension check failed: {exc}")
    return checks, failures


def _failure_text(exc: Exception) -> str:
    """A failed check's text; an allocation numpy could not make is named as one."""
    return f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)


def full_report(config: Config, jobs: int = 1, global_only: bool = False) -> Report:
    """Global audits plus the three-route comparison on every double coset."""
    instance = build_instance(config)
    G, H = instance.G, instance.H
    checks, failures = _global_checks(instance)
    global_ok = (checks["twist_axioms"] and checks["triangularity"]
                 and checks["q_identity"]
                 and checks["minimality_rank"] == H.order
                 and checks["square_dim"] ** 2 == H.order)

    cosets: list[CosetSpectrum] = []
    totals = {
        "group_order": int(G.order),
        "subgroup_order": int(H.order),
        "coset_size_total": 0,
        "block_square_total": 0,
    }
    ctx = None
    if not global_only:
        if not global_ok:
            failures.append("coset analysis skipped: global checks failed")
        else:
            # an H whose characters cannot carry route (c) is refused (exit 2)
            character_exponents(instance.t.group, instance.t.order)
            try:
                ctx = prepare_instance(instance)
            except (CotwistError, MemoryError) as exc:
                failures.append(
                    f"instance preparation failed: {_failure_text(exc)}; coset analysis skipped")
    if ctx is not None:
        zs = double_cosets(G, H)

        def run_one(z):
            try:
                return _coset_pipeline(ctx, z)
            except (CotwistError, MemoryError) as exc:
                return None, [f"coset {z.representative}: {_failure_text(exc)}"]

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_one, zs))
        else:
            results = [run_one(z) for z in zs]
        for spectrum, errs in results:
            if spectrum is not None:
                cosets.append(spectrum)
            failures.extend(errs)
        totals["coset_size_total"] = int(sum(c.size for c in cosets))
        totals["block_square_total"] = int(
            sum(sum(d * d for d in c.dims_direct) for c in cosets))
        # double_cosets raises on a bad partition; the sum is a check only
        # once every coset finished, not an echo of a coset's failure
        if len(cosets) == len(zs) and totals["coset_size_total"] != G.order:
            failures.append(
                f"double cosets sum to {totals['coset_size_total']} != |G| = {G.order}")
    return Report(instance=instance.description, seed=int(config.seed),
                  global_checks=checks, cosets=cosets, failures=failures, totals=totals)


# ---------------------------------------------------------------------------
# rendering


def _fields(obj) -> dict:
    """A dataclass's fields in order, one level (``asdict`` deep-copies every value)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def render_json(report: Report) -> str:
    return json.dumps(report, default=_fields, indent=2) + "\n"


def _runs(dims: list) -> str:
    """A dims list as its runs of equal entries, for the table: [1]×729 for
    729 ones, [2] + [1]×4 for [2, 1, 1, 1, 1], [] for none."""
    runs = [(d, len(list(run))) for d, run in itertools.groupby(dims)]
    return " + ".join(f"[{d}]×{k}" if k > 1 else f"[{d}]" for d, k in runs) or "[]"


def render_table(report: Report) -> str:
    lines = []
    inst = report.instance
    kind = inst.get("type", "?")
    if kind == "symplectic":
        head = (f"symplectic p={inst['p']} n={inst['n']} "
                f"generators={len(inst['gamma_generators'])}")
    elif kind == "table":
        head = f"table group={inst['group_file']} twist={inst['twist_file']}"
    else:
        head = "instance ?"
    lines.append(head)
    lines.append(f"seed={report.seed} tol={report.tol:.12g}")
    g = report.global_checks
    lines.append(
        "global: axioms={} triangular={} rank={} q={} sqrt_dim={}".format(
            "ok" if g["twist_axioms"] else "FAIL",
            "ok" if g["triangularity"] else "FAIL",
            g["minimality_rank"], "ok" if g["q_identity"] else "FAIL",
            g["square_dim"]))
    header = (f"{'rep':>5} {'size':>5} {'|K_g|':>5} {'direct':>20} "
              f"{'invariant':>20} {'predicted':>20} {'kap':>4} {'ids':>4}")
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.cosets:
        lines.append(
            f"{c.rep:>5} {c.size:>5} {c.k_size:>5} "
            f"{_runs(c.dims_direct):>20} {_runs(c.dims_invariant):>20} "
            f"{_runs(c.dims_predicted):>20} "
            f"{'ok' if c.kaplansky_ok else 'NO':>4} "
            f"{'ok' if c.identities_ok else 'NO':>4}")
    if report.failures:
        lines.append("failures:")
        for f in report.failures:
            lines.append(f"  - {f}")
    else:
        lines.append("all checks passed")
    t = report.totals
    lines.append(
        f"totals: |G|={t['group_order']} |H|={t['subgroup_order']} "
        f"cosets={len(report.cosets)} Σ|Z|={t['coset_size_total']} Σd²={t['block_square_total']}")
    return "\n".join(lines) + "\n"
