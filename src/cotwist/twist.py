"""Drinfeld twists on group algebras: construction and exact audits.

A twist for a finite group H is an invertible element J of C[H] x C[H]
satisfying the 2-cocycle equation

    (J x 1) . (Delta0 x id)(J) = (1 x J) . (id x Delta0)(J)

and the counit normalization (eps x id)(J) = (id x eps)(J) = 1, where
Delta0(x) = x x x is the unmodified coproduct.  Everything in this module is
exact: coefficients are cyclotomic numbers and every identity is checked
with zero tolerance.

When H has its |H| characters into the N-th roots of unity and J's Fourier
transform J-hat(chi, psi) = sum_ab J[a, b] chi(a) psi(b) is one scale times
one root of unity in every cell, as for every shipped twist, each identity
is audited pointwise on the exponent table of J-hat mod N (:class:`Fourier`):
the transform is an injective algebra map C[H^k] -> Fun(H-hat^k), so each
pointwise identity is equivalent to the one in C[H]^(x k).  Any other J is
audited by contractions in C[H]^(x k).  The arguments are in README, "The
twist audit, exactly".

J^-1 is computed by the audit: pointwise, as J's adjoint J* / scale^2,
J*[a, b] = conj(J[a^-1, b^-1]), whose transform is conj(J-hat) / scale^2
= 1 / J-hat (for J = sigma / |H| it is conj(J)); else from the antipode
element Q by one solve in C[H_Q], H_Q the subgroup the support of Q
generates (an |H_Q| x |H_Q| system, at most |H| x |H|), and by the exact
solve in C[H x H] only if that candidate fails.  Either way the axiom audit
certifies it, pointwise or by one exact product.

The deformed coproducts Delta1(x) = (x x x) J and Delta2(x) = J^-1 (x x x)
are the coalgebra structures whose dual algebras downstream modules build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import AuditError, CotwistError
from .exactlin import (
    CycArray,
    _largest,
    contract_counts,
    cyc_rank,
    cyc_tensordot,
    ga_identity,
    ga_mul,
    invert_in_group_algebra,
    sum_counts,
)
from .groups import (Bicharacter, FiniteGroup, Subgroup, character_exponents, character_products,
                     greedy_generators)
from .scalars import format_cyclotomic, parse_cyclotomic


@dataclass
class TwistData:
    """A twist on C[H]: the subgroup H, the matrix J and its inverse.

    ``J`` and ``Jinv`` are (|H|, |H|) exact cyclotomic arrays over H-local
    indices (row = left tensor leg, column = right leg).  ``Jinv`` and
    ``verified`` are set only by :func:`verify_twist_axioms`, which computes
    and certifies ``Jinv``; downstream constructions refuse unverified twists.
    """

    subgroup: Subgroup
    order: int
    J: CycArray
    Jinv: CycArray | None = field(default=None, init=False)
    verified: bool = False

    @cached_property
    def group(self) -> FiniteGroup:
        """H with its own local Cayley table (indices 0..|H|-1)."""
        return self.subgroup.as_group

    @property
    def size(self) -> int:
        return self.group.order

    @cached_property
    def pair_mul(self) -> np.ndarray:
        """Cayley table of H x H on flat indices h1 * |H| + h2."""
        return _pair_table(self.group.mul)

    @cached_property
    def fourier(self) -> Fourier | None:
        """J's transform where it is single-term (:func:`_fourier`), else None;
        formed once per audit, which reads it first."""
        return _fourier(self)

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(J.fewest_counts(), Jinv.fewest_counts()), formed once per twist.

        Read only after the axiom audit, which certifies ``Jinv``
        (CotwistError before it); the block builds of every coset read them.
        """
        self.require_verified()
        return self.J.fewest_counts(), self.Jinv.fewest_counts()

    def require_verified(self) -> None:
        if not self.verified:
            raise CotwistError("twist has not passed the axiom audit")


@dataclass
class TwistAudit:
    """Outcome of the exact twist-axiom checks, one named entry per axiom."""

    checks: list[tuple[str, bool]] = field(default_factory=list)

    def record(self, name: str, ok: bool, note: str = "") -> None:
        """One check's outcome; a note on why it went undecided joins its name."""
        self.checks.append((f"{name} ({note})" if note else name, bool(ok)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


@dataclass
class TriangularStructure:
    """The minimality certificate of R = (J_21)^-1 J: its rank, |H| exactly
    when the twist is minimal."""

    rank: int
    minimal: bool


@dataclass(frozen=True)
class Fourier:
    """J-hat(chi, psi) = scale * zeta_N^exp[chi, psi] in every cell.

    ``chars`` holds the certified characters E[chi, h] of H (row 0 the
    trivial one), ``prod[chi, psi]`` the row of chi psi and ``dual[chi]``
    that of chi-bar; ``exp`` is int16 while 4 N fits, so that the sums of
    four exponents do.
    """

    order: int
    chars: np.ndarray
    prod: np.ndarray
    dual: np.ndarray
    exp: np.ndarray
    scale: Fraction


def _pair_table(mul: np.ndarray) -> np.ndarray:
    m = mul.shape[0]
    a1, a2 = np.divmod(np.arange(m * m), m)
    left = mul[np.ix_(a1, a1)].astype(np.int64)
    right = mul[np.ix_(a2, a2)].astype(np.int64)
    return left * m + right


def _swap_legs(X: CycArray) -> CycArray:
    """X_21: the (|H|, |H|) element with its tensor legs exchanged."""
    return X.transpose((1, 0))


# ---------------------------------------------------------------------------
# construction


def symplectic_twist(H: FiniteGroup, sigma: Bicharacter) -> TwistData:
    """The minimal twist J_{ab} = sigma(a, b) / |H| of a symplectic
    bicharacter on all of H, audited like any twist (:func:`make_twist`)."""
    J = CycArray.from_exponents(sigma.order, sigma.exponents, Fraction(1, H.order))
    return make_twist(Subgroup(H, np.arange(H.order)), J)


def assemble_twist(subgroup: Subgroup, J: CycArray):
    """Build a TwistData and audit it, without raising on axiom failure.

    Returns (t, audit); ``t.verified`` mirrors ``audit.ok``.  Inversion
    failure (a singular candidate) is folded into the audit rather than
    raised, so callers can report exactly which axioms broke.
    """
    m = subgroup.order
    if J.shape != (m, m):
        raise CotwistError(f"twist matrix shape {J.shape} != ({m}, {m})")
    t = TwistData(subgroup=subgroup, order=J.order, J=J)
    return t, verify_twist_axioms(t)


def make_twist(subgroup: Subgroup, J: CycArray) -> TwistData:
    """Build a verified TwistData from an exact (|H|, |H|) coefficient matrix.

    ``J`` is indexed by the local indices of ``subgroup`` (row = left leg)
    and its order N is the twist's.  The inverse is computed exactly and all
    twist axioms are audited; any failure raises ``AuditError`` naming the
    failing axioms.
    """
    return _accepted(*assemble_twist(subgroup, J))


def _accepted(t: TwistData, audit: TwistAudit) -> TwistData:
    if not audit.ok:
        raise AuditError(f"twist axioms failed: {', '.join(audit.failed)}")
    return t


# ---------------------------------------------------------------------------
# the Fourier transform on H's characters


def _transform(chars: np.ndarray, X: CycArray) -> CycArray:
    """X-hat[chi, psi] = sum_ab X[a, b] chi(a) psi(b) = (F X F^T)[chi, psi],
    F[chi, a] = zeta^chars[chi, a]: two exact contractions, O(|H|^3 N^2)."""
    F = CycArray.from_exponents(X.order, chars)
    return cyc_tensordot(cyc_tensordot(F, X, axes=([1], [0])), F, axes=([1], [1]))


def _fourier(t: TwistData) -> Fourier | None:
    """J-hat on the certified characters of H (:func:`character_exponents`)
    when it is single-term, else None.

    Single-term: every cell's fewest-term counts (:meth:`CycArray.fewest_counts`)
    are one nonzero count c at some k, and c is the same in every cell once,
    for even N, a negative c is folded into k + N/2 (zeta^(N/2) = -1).  Then
    J-hat = scale * zeta^exp with scale = c * J.scale.  Each (c, k) pair is
    canonical: c zeta^k = c' zeta^k' with c, c' rational makes zeta^(k - k')
    = +-1, and -1 is zeta^(N/2) for even N and no N-th root for odd N.  None
    also when H is not abelian, its exponent does not divide N, or the
    transform's counts or arrays do not fit.
    """
    n = t.order
    try:
        chars = character_exponents(t.group, n)
        hat = _transform(chars, t.J).fewest_counts()
    except (CotwistError, MemoryError):
        return None
    if (np.count_nonzero(hat, axis=-1) != 1).any():
        return None
    exp = np.argmax(hat != 0, axis=-1)
    coef = np.take_along_axis(hat, exp[..., None], axis=-1)[..., 0]
    if n % 2 == 0:
        exp = np.where(coef < 0, exp + n // 2, exp) % n
        coef = np.abs(coef)
    if (coef != coef.flat[0]).any():
        return None
    prod = character_products(chars, t.group.generators, n)
    return Fourier(order=n, chars=chars, prod=prod, dual=np.argmax(prod == 0, axis=1),
                   exp=exp.astype(np.int16 if 4 * n < 1 << 15 else np.int64),
                   scale=t.J.scale * int(coef.flat[0]))


def _adjoint_inverse(t: TwistData, f: Fourier) -> CycArray:
    """J* / scale^2, J*[a, b] = conj(J[a^-1, b^-1]), on canonical counts over
    the lowest common denominator.  Its transform is conj(J-hat) / scale^2
    = zeta^-exp / scale = 1 / J-hat, so it is J^-1 where J-hat is single-term."""
    adjoint = _antipode(t.J, t.group.inv.astype(np.int64)).conj()
    return _over_common_denominator(adjoint.scale_by(1 / (f.scale * f.scale)))


def _cocycle_holds(f: Fourier) -> bool:
    """J-hat(s, y) J-hat(sy, z) = J-hat(y, z) J-hat(s, yz) for the generators
    s of H-hat and every y, z; both sides carry scale^2, so only the
    exponents are compared, mod N.  That is the equation on every triple:
    it says (f_s f_y) f_z = f_s (f_y f_z) for f_x f_y = J-hat(x, y) f_xy; the
    f_x that associate so form the left nucleus, a subalgebra, and no cell
    of J-hat is 0, so every f_x is a multiple of a product of the f_s."""
    s, e, prod = np.asarray(greedy_generators(f.prod), dtype=np.int64), f.exp, f.prod
    diff = e[s][:, :, None] + e[prod[s]] - e[None] - e[s][:, prod]  # [s, y, z]
    return not (diff % f.order).any()


def _antipode_holds(f: Fourier) -> bool:
    """(S x S)(J) = (Q x Q) J_21^-1 Delta0(Q^-1), pointwise:
    J-hat(x-bar, y-bar) Q-hat(xy) = Q-hat(x) Q-hat(y) / J-hat(y, x), with
    Q-hat(x) = J-hat(x-bar, x).  The left side carries scale^2 and the
    right side scale, so the identity needs scale 1, and then the exponents
    mod N."""
    e, d = f.exp, f.dual
    q = e[d, np.arange(len(d))]
    diff = e[np.ix_(d, d)] + q[f.prod] - q[:, None] - q[None] + e.T
    return f.scale == 1 and not (diff % f.order).any()


# ---------------------------------------------------------------------------
# exact axiom audits


def _sides_agree(X: CycArray, shift: np.ndarray) -> bool:
    """Exact test of  sum_a X[a,w] X[a.u, a.v] == sum_a X[u,a] X[a.v, a.w].

    ``shift[a]`` is the permutation y -> a.y of a group action on H.  The two
    sides are the (u, v, w) coefficients of the identities audited below:

    * with a.y = y a^-1 and X = J, the 2-cocycle equation
      (J x 1)(Delta0 x id)(J) = (1 x J)(id x Delta0)(J);
    * with a.y = a^-1 y and X = J, (Delta1 x id)Delta1(e) = (id x Delta1)Delta1(e);
    * with a.y = y a^-1 and X = J^-1, (Delta2 x id)Delta2(e) = (id x Delta2)Delta2(e).

    Both sides contract one gathered matrix A[(u, v), a] = X[a.u, a.v]:
    left[(u, v), w] = sum_a A[(u, v), a] X[a, w] and right[u, v, w] =
    sum_a A[(v, w), a] X^T[a, u].  So one :func:`contract_counts` of A,
    gathered inside it, with [X | X^T] gives both, on the fewest-term counts
    (:meth:`CycArray.fewest_counts`); the sides agree when the canonical
    counts of their difference are 0 (:meth:`CycArray.eq`).
    """
    m, n = X.shape[0], X.order
    counts = X.fewest_counts()
    u, v, a = np.ogrid[:m, :m, :m]
    at = (shift[a, u] * m + shift[a, v]).reshape(m * m, m)              # [(u, v), a]
    pair = np.concatenate([counts, counts.transpose(1, 0, 2)], axis=1)  # [X | X^T]
    both = contract_counts(counts.reshape(m * m, n), at, pair)
    left = both[:, :m].reshape(m, m, m, n)
    right = both[:, m:].reshape(m, m, m, n).transpose(2, 0, 1, 3)  # [v, w, u] -> [u, v, w]
    return CycArray(n, X.scale, left).eq(CycArray(n, X.scale, right))


def _certified(check, *args) -> tuple[bool, str]:
    """An exact check's outcome and a note; one whose counts would overflow
    int64 fails, and so does one that runs out of memory, noted as such."""
    try:
        return bool(check(*args)), ""
    except CotwistError:
        return False, ""
    except MemoryError as exc:
        return False, f"out of memory: {exc}"


def _counit_ok(J: CycArray, axis: int) -> bool:
    summed = CycArray(J.order, J.scale, sum_counts(J.counts, axis=axis))
    return summed.eq(ga_identity(J.shape[0], J.order))


def verify_twist_axioms(t: TwistData) -> TwistAudit:
    """Exact audit of the twist axioms; returns a named pass/fail report.

    Checks, in order: the 2-cocycle equation, both counit normalizations,
    invertibility, and coassociativity of both deformed coproducts.  Never
    raises on a failed check; a check whose exact counts would overflow int64,
    or whose arrays do not fit in memory, is not certified and is recorded as
    failed, the latter with an ``out of memory`` note.

    Where J-hat is single-term (``t.fourier``), every check is pointwise
    (:func:`_pointwise_audit`); else each is a contraction in C[H]^(x k)
    (:func:`_contracted_audit`).  The choice is made from J and H alone.
    ``t.Jinv`` is set to the computed inverse only if it is certified, and
    ``t.verified`` to the audit's outcome.
    """
    t.Jinv = None
    for cached in ("fourier", "terms"):  # those of an earlier audit
        t.__dict__.pop(cached, None)
    audit = (_contracted_audit if t.fourier is None else _pointwise_audit)(t)
    t.verified = audit.ok
    return audit


def _keep_inverse(t: TwistData, candidates, is_inverse) -> str:
    """Set ``t.Jinv`` to the first candidate that ``is_inverse`` certifies;
    returns the note of a candidate that ran out of memory, if any."""
    note = ""
    for candidate in candidates:
        try:
            jinv = candidate()
            if is_inverse(jinv):
                t.Jinv = jinv
                break
        except CotwistError:  # singular, or counts overflowing int64
            pass
        except MemoryError as exc:
            note = f"out of memory: {exc}"
    return note


def _pointwise_audit(t: TwistData) -> TwistAudit:
    """The six checks on J-hat = scale * zeta^exp (README, "The twist audit,
    exactly").

    The 2-cocycle equation is :func:`_cocycle_holds`; the counits are
    J-hat(1, .) = 1 (left leg) and J-hat(., 1) = 1 (right leg).  No cell of
    J-hat is 0, so J is invertible and J^-1 has the transform 1 / J-hat: the
    candidate, J's adjoint over scale^2 (:func:`_adjoint_inverse`), is
    certified by its own transform, formed as J-hat is, equal to 1 / J-hat.
    It is written like the contracted route's inverse, on canonical counts
    over the lowest common denominator.  H is abelian, so both coassociativity
    laws are the 2-cocycle equation, for J-hat and for 1 / J-hat, and reuse
    its outcome.
    """
    f, audit = t.fourier, TwistAudit()
    cocycle = _certified(_cocycle_holds, f)
    audit.record("2-cocycle equation", *cocycle)
    audit.record("counit (left leg)", f.scale == 1 and not f.exp[0].any())
    audit.record("counit (right leg)", f.scale == 1 and not f.exp[:, 0].any())
    inverse = CycArray.from_exponents(f.order, -f.exp, 1 / f.scale)
    note = _keep_inverse(t, [lambda: _adjoint_inverse(t, f)],
                         lambda jinv: _transform(f.chars, jinv).eq(inverse))
    invertible = t.Jinv is not None
    audit.record("invertibility", invertible, note)
    audit.record("coassociativity of the first deformed coproduct", *cocycle)
    audit.record("coassociativity of the second deformed coproduct",
                 *(cocycle if invertible else (False, "")))
    return audit


def _contracted_audit(t: TwistData) -> TwistAudit:
    """The six checks by contractions in C[H]^(x k), for a J-hat that is not
    single-term or an H without |H| characters into mu_N.

    The inverse is the first of two candidates that passes the one exact
    check J . K = 1 x 1 (a one-sided inverse in C[H x H] is two-sided and
    unique): the inverse read off the antipode element
    (:func:`_inverse_from_q`), or the solution K of J K = 1 x 1 in C[H x H]
    when Q is singular, a count would overflow int64, or the product check
    fails (J is not a twist).  The first is written like the solve's result,
    on canonical counts over the lowest common denominator, so
    ``invertibility`` has the outcome it would have with the solve alone.

    Coassociativity is checked at x = e only, which is equivalent.  The
    three identities are one :func:`_sides_agree` each, but the 2-cocycle
    outcome is reused for Delta1 when H is abelian and for Delta2 when the
    certified inverse is exactly conj(J).  A reused outcome is judged on J's
    counts, an overflow included.
    """
    audit = TwistAudit()
    group = t.group
    mul = group.mul.astype(np.int64)
    inv = group.inv.astype(np.int64)
    m = group.order
    right_shift = mul[:, inv].T  # [a, y] = y a^-1
    left_shift = mul[inv]        # [a, y] = a^-1 y

    cocycle = _certified(_sides_agree, t.J, right_shift)
    audit.record("2-cocycle equation", *cocycle)
    audit.record("counit (left leg)", *_certified(_counit_ok, t.J, 0))
    audit.record("counit (right leg)", *_certified(_counit_ok, t.J, 1))

    unit = ga_identity(m * m, t.order).reshape(m, m)
    candidates = [lambda: _inverse_from_q(t.J, mul, inv),
                  lambda: invert_in_group_algebra(t.J.reshape(m * m), t.pair_mul).reshape(m, m)]
    note = _keep_inverse(t, candidates, lambda jinv: ga_mul(t.J, jinv, mul).eq(unit))
    invertible = t.Jinv is not None
    audit.record("invertibility", invertible, note)

    abelian = np.array_equal(left_shift, right_shift)
    audit.record("coassociativity of the first deformed coproduct",
                 *(cocycle if abelian else _certified(_sides_agree, t.J, left_shift)))
    if not invertible:
        second = (False, "")
    elif _certified(lambda: t.Jinv.eq(t.J.conj()))[0]:
        second = cocycle
    else:
        second = _certified(_sides_agree, t.Jinv, right_shift)
    audit.record("coassociativity of the second deformed coproduct", *second)
    return audit


# ---------------------------------------------------------------------------
# triangular structure, antipode element, dimension


def triangular_structure(t: TwistData) -> TriangularStructure:
    """R = (J_21)^-1 J: its exact triangularity check and minimality rank.

    Triangularity (R_21 R = 1 x 1) is asserted; the rank of the coefficient
    matrix of R equals |H| exactly iff the twist is minimal.

    The identity itself follows from the certified J J^-1 = 1 x 1: R_21 =
    (J_21^-1 J)_21 = J^-1 J_21, so R_21 R = J^-1 J_21 J_21^-1 J = 1 x 1 in the
    associative algebra C[H x H].  It is still checked, as an exact
    certificate of the R formed here.  Where J-hat is single-term, R-hat(x, y)
    = J-hat(x, y) / J-hat(y, x) = zeta^(exp - exp^T), R_21 R = 1 x 1 is
    R-hat(y, x) R-hat(x, y) = 1, and rank R = rank R-hat, as R-hat = F R F^T
    with F invertible.  Else R and R_21 R are dense products in C[H x H].
    """
    t.require_verified()
    m, n, f = t.size, t.order, t.fourier
    if f is None:
        mul = t.group.mul
        R = ga_mul(_swap_legs(t.Jinv), t.J, mul)
        holds = ga_mul(_swap_legs(R), R, mul).eq(ga_identity(m * m, n).reshape(m, m))
    else:
        exp = (f.exp - f.exp.T) % n
        R = CycArray.from_exponents(n, exp)
        holds = not ((exp + exp.T) % n).any()
    if not holds:
        raise AuditError("triangularity failed: R_21 R != 1 x 1")
    rank = cyc_rank(R)
    return TriangularStructure(rank=rank, minimal=(rank == m))


def q_element_and_antipode_check(t: TwistData):
    """The element Q = m (S x id)(J) and the exact antipode identity.

    Returns (Q, ok) where Q is the group-algebra element sum_ab J_ab a^-1 b
    and ok records whether (S x S)(J) = (Q x Q) (J_21)^-1 Delta0(Q^-1) holds
    exactly.  Where J-hat is single-term, Q-hat(x) = J-hat(x-bar, x) has no
    zero, so Q is invertible, and the identity is :func:`_antipode_holds`.
    Else Q^-1 comes from one solve, CotwistError when Q is singular, and the
    right side is formed by dense products.
    """
    t.require_verified()
    mul = t.group.mul.astype(np.int64)
    inv = t.group.inv.astype(np.int64)
    Q = _q_element(t.J, mul, inv)
    if t.fourier is not None:
        return Q, _antipode_holds(t.fourier)
    Qinv = invert_in_group_algebra(Q, mul)
    rhs = ga_mul(ga_mul(cyc_tensordot(Q, Q, axes=0), _swap_legs(t.Jinv), mul),
                 _coproduct(Qinv), mul)
    return Q, _antipode(t.J, inv).eq(rhs)


def _q_element(J: CycArray, mul: np.ndarray, inv: np.ndarray) -> CycArray:
    """Q = m (S x id)(J) = sum_ab J_ab a^-1 b in C[H].  Each cell adds the m
    counts of the pairs with a^-1 b at it; CotwistError is raised unless
    m max|count| < 2**63."""
    m, n = J.shape[0], J.order
    if m * _largest(J.counts) >= 1 << 63:
        raise CotwistError("the sums of Q would overflow int64 counts")
    q_counts = np.zeros((m, n), dtype=np.int64)
    np.add.at(q_counts, mul[inv].ravel(), J.counts.reshape(m * m, n))  # at a^-1 b
    return CycArray(n, J.scale, q_counts)


def _antipode(X: CycArray, inv: np.ndarray) -> CycArray:
    """(S x S)(X): coefficient X[u^-1, v^-1] at u x v."""
    return X.take(inv, axis=0).take(inv, axis=1)


def _coproduct(x: CycArray) -> CycArray:
    """Delta0(x) = sum_h x_h h x h, supported on the diagonal of H x H."""
    m = x.shape[0]
    out = CycArray.zeros((m, m), x.order)
    out.counts[np.arange(m), np.arange(m)] = x.counts
    out.scale = x.scale
    return out


def _over_common_denominator(X: CycArray) -> CycArray:
    """The same values on canonical counts over their lowest common
    denominator, as :func:`cyc_solve` returns values; CotwistError when a
    count would overflow int64."""
    X = X.reduced()
    num, den = X.scale.numerator, X.scale.denominator
    if _largest(X.counts) * abs(num) >= 1 << 63:
        raise CotwistError("exact values over their common denominator overflow int64 counts")
    return CycArray(X.order, Fraction(1, den), X.counts * num)


def _inverse_from_q(J: CycArray, mul: np.ndarray, inv: np.ndarray) -> CycArray:
    """The candidate J^-1 = (Q^-1 x Q^-1) . (S x S)(J_21) . Delta0(Q).

    It is J^-1 when J is a twist (README, "The twist audit, exactly").  Q^-1
    comes from one |H_Q| x |H_Q| solve, H_Q the subgroup the support of Q
    generates (:func:`invert_in_group_algebra`).  The candidate comes on
    canonical counts over the lowest common denominator.  Raises CotwistError
    when Q is singular or a count would overflow int64.
    """
    Q = _q_element(J, mul, inv)
    Qinv = invert_in_group_algebra(Q, mul)
    return _over_common_denominator(
        ga_mul(ga_mul(cyc_tensordot(Qinv, Qinv, axes=0), _antipode(_swap_legs(J), inv), mul),
               _coproduct(Q), mul))


def square_dimension_check(t: TwistData) -> int:
    """For a minimal twist |H| must be a perfect square; returns sqrt(|H|)."""
    m = t.size
    d = math.isqrt(m)
    if d * d != m:
        raise CotwistError(f"|H| = {m} is not a perfect square")
    return d


# ---------------------------------------------------------------------------
# file format


def save_twist_file(path, t: TwistData) -> None:
    """Write ``N dim`` header then dim^2 cyclotomic literals row-major.

    Each literal lists the nonzero canonical coefficients of its cell
    (``J.canonical()`` times ``J.scale``), so equal twists give equal files.
    """
    canon = t.J.canonical()
    m = t.size
    with open(path, "w") as fh:
        fh.write(f"{t.order} {m}\n")
        for a in range(m):
            for b in range(m):
                coeffs = [t.J.scale * int(c) for c in canon[a, b]]
                fh.write(format_cyclotomic(coeffs, t.order) + "\n")


def load_twist_matrix(path) -> CycArray:
    """Read a twist file into one exact (dim, dim) CycArray of order N.

    The counts are the canonical coefficients of the literals over their
    lowest common denominator, the scale is one over it.  A malformed
    header or literal, a term of another order than the header's, or counts
    that overflow int64 raise CotwistError naming the file.
    """
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 2:
        raise CotwistError(f"twist file {path}: bad header")
    try:
        order, dim = int(header[0]), int(header[1])
        if order < 1 or dim < 1:
            raise ValueError(f"header needs a positive order and dimension, got {header}")
        if len(body) != dim * dim:
            raise ValueError(f"expected {dim * dim} entries, got {len(body)}")
        cells = [parse_cyclotomic(token, order) for token in body]
    except ValueError as exc:
        raise CotwistError(f"twist file {path}: {exc}") from None
    den = math.lcm(*(c.denominator for cell in cells for c in cell))
    canon = [[c.numerator * (den // c.denominator) for c in cell] for cell in cells]
    if max(abs(x) for cell in canon for x in cell) >= 1 << 63:
        raise CotwistError(f"twist file {path}: exact values over the common "
                           f"denominator {den} overflow int64 counts")
    counts = np.zeros((dim * dim, order), dtype=np.int64)
    counts[:, :len(canon[0])] = canon
    return CycArray(order, Fraction(1, den), counts.reshape(dim, dim, order))
