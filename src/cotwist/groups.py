"""Finite groups as Cayley tables, subgroups, double cosets, bicharacters.

Conventions: elements are 0-based indices, the identity is index 0, and the
representative of a coset is its minimal element index.  Group order is
capped at 10**4 so tables stay materializable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AuditError, CotwistError
from .scalars import _is_prime

MAX_GROUP_ORDER = 10_000


def close_under_products(reached: np.ndarray, gens, mul: np.ndarray) -> None:
    """Mark in ``reached`` every product of a marked element with ``gens``, until closed.

    ``reached`` is a boolean mask over the rows of the Cayley table ``mul``.
    Started from a set that holds e and lies in the subgroup ``gens``
    generate, it ends as that subgroup: in a finite group, the products of
    the generators already contain every inverse.
    """
    frontier = np.flatnonzero(reached)
    while frontier.size:
        new = np.zeros_like(reached)
        new[mul[frontier[:, None], gens]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)


def greedy_generators(mul: np.ndarray) -> list[int]:
    """In index order, each element of the Cayley table ``mul`` (identity 0)
    outside the subgroup generated by the ones before it."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    for a in range(1, len(mul)):
        if not reached[a]:
            gens.append(a)
            close_under_products(reached, gens, mul)
    return gens


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, mul: np.ndarray, labels=None, name: str = ""):
        mul = np.asarray(mul, dtype=np.int64)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if n > MAX_GROUP_ORDER:
            raise CotwistError(f"group order {n} exceeds cap {MAX_GROUP_ORDER}")
        bad = mul[(mul < 0) | (mul >= n)]
        if bad.size:
            raise CotwistError(f"table entry {bad[0]} is out of range for a group of order {n}")
        self.order = n
        self.mul = mul.astype(np.int32)
        self.labels = labels
        self.name = name
        self.inv = self._build_inverses()
        self._characters: dict[int, np.ndarray] = {}  # character_exponents, by order

    def _build_inverses(self) -> np.ndarray:
        n = self.order
        if not np.array_equal(self.mul[0], np.arange(n)) or not np.array_equal(
            self.mul[:, 0], np.arange(n)
        ):
            raise CotwistError("index 0 is not a two-sided identity")
        inv = np.full(n, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.mul == 0)
        inv[rows] = cols
        if np.any(inv < 0) or np.any(self.mul[inv, np.arange(n)] != 0):
            raise CotwistError("table has an element without a two-sided inverse")
        return inv

    # -- audits ----------------------------------------------------------

    def verify_associativity(self) -> bool:
        """Exact associativity audit by Light's test on ``generators``.

        a (s b) == (a s) b is compared for every a, b and generator s.  The
        middle elements that pass are closed under products in any magma: for
        passing s, t, a ((s t) b) = a (s (t b)) = (a s)(t b) = ((a s) t) b =
        (a (s t)) b.  The identity passes, and every element is a product of
        generators, so the whole table associates.
        """
        mul = self.mul
        for s in self.generators:
            if not np.array_equal(mul[:, mul[s, :]], mul[mul[:, s], :]):
                return False
        return True

    def conjugate(self, g: int, h: int) -> int:
        """g^-1 h g."""
        return self.mul[self.mul[self.inv[g], h], g]

    @cached_property
    def generators(self) -> list[int]:
        """:func:`greedy_generators` of the table, once per group."""
        return greedy_generators(self.mul)

    @cached_property
    def generating_words(self):
        """A greedy generating set and a word in it for every element, once per group.

        ``(gens, order, parent, via)``, read-only arrays.  ``gens`` lists, in
        index order, each element outside the subgroup generated by the ones
        before it; the trivial group has none.  ``order`` lists every element once,
        identity first, by breadth-first search over right multiplication by
        ``gens``, so that a = parent[a] * gens[via[a]] for every a other than
        the identity, with parent[a] listed before a.  ``parent`` and ``via``
        are -1 at the identity.
        """
        n, mul = self.order, self.mul
        gens = self.generators
        parent = np.full(n, -1, dtype=np.int64)
        via = np.full(n, -1, dtype=np.int64)
        order = [0]
        for a in order:  # grows while it is read: breadth first
            for i, s in enumerate(gens):
                b = int(mul[a, s])
                if b and parent[b] < 0:
                    parent[b], via[b] = a, i
                    order.append(b)
        words = np.array(gens, dtype=np.int64), np.array(order, dtype=np.int64), parent, via
        for w in words:
            w.flags.writeable = False
        return words

    # -- file format -------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "FiniteGroup":
        """Read a Cayley table: first line n, then n rows of n indices."""
        with open(path) as fh:
            tokens = fh.read().split()
        if not tokens:
            raise CotwistError(f"empty Cayley table file {path}")
        try:  # numpy parses each token as int() does, with int()'s error texts
            n, body = int(tokens[0]), np.array(tokens[1:], dtype=np.int64)
            if n < 1 or body.size != n * n:
                raise ValueError(f"expected {n} rows of {n} entries, got {body.size} entries")
            mul = body.reshape(n, n)
        except (ValueError, OverflowError) as exc:
            raise CotwistError(f"Cayley file {path}: {exc}") from None
        try:
            group = cls(mul, name=str(path))
        except CotwistError as exc:
            raise CotwistError(f"Cayley file {path}: {exc}") from None
        if not group.verify_associativity():
            raise CotwistError(f"Cayley file {path}: table is not associative")
        return group

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.order}\n")
            for row in self.mul:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")


@dataclass
class Subgroup:
    """A subgroup of ``parent`` given by a sorted array of element indices."""

    parent: FiniteGroup
    elements: np.ndarray

    def __post_init__(self):
        elements = np.unique(np.asarray(self.elements, dtype=np.int64))
        if elements.size == 0 or elements[0] != 0:
            raise CotwistError("subgroup must contain the identity (index 0)")
        if elements[-1] >= self.parent.order:
            raise CotwistError(f"subgroup index {elements[-1]} is out of range "
                               f"for a group of order {self.parent.order}")
        self.elements = elements.astype(np.int32)
        closed = np.isin(
            self.parent.mul[np.ix_(self.elements, self.elements)], self.elements
        )
        if not closed.all():
            raise CotwistError("set is not closed under multiplication")
        if not np.isin(self.parent.inv[self.elements], self.elements).all():
            raise CotwistError("set is not closed under inverses")

    @property
    def order(self) -> int:
        return int(self.elements.size)

    @cached_property
    def as_group(self) -> FiniteGroup:
        """The subgroup's own Cayley table on local indices 0..|H|-1."""
        lookup = np.full(self.parent.order, -1, dtype=np.int32)
        lookup[self.elements] = np.arange(self.order, dtype=np.int32)
        table = lookup[self.parent.mul[np.ix_(self.elements, self.elements)]]
        labels = None
        if self.parent.labels is not None:
            labels = [self.parent.labels[int(g)] for g in self.elements]
        return FiniteGroup(table, labels=labels, name=self.parent.name + "|sub")


@dataclass
class DoubleCoset:
    """One double coset H g H, elements sorted, representative minimal."""

    representative: int
    elements: np.ndarray

    @property
    def size(self) -> int:
        return int(self.elements.size)


@dataclass
class Bicharacter:
    """A root-of-unity valued pairing sigma(a, b) = zeta_order^exponents[a, b].

    Verified exactly when built: multiplicative in both slots, skew-symmetric
    and nondegenerate, else CotwistError naming the failed law.
    """

    group: FiniteGroup
    order: int
    exponents: np.ndarray

    def __post_init__(self):
        self.verify()

    def verify(self) -> None:
        """Multiplicativity is compared with a generator s (or the identity)
        in the multiplied slot: e[a s, c] == e[a, c] + e[s, c] for all a, c,
        and likewise in the second slot.  The s that pass are closed under
        products, e[a (s t), c] = e[(a s) t, c] = e[a, c] + e[s t, c], and
        every element is a product of generators."""
        e, mul, n = self.exponents, self.group.mul, self.order
        slots = [*self.group.generators, 0]
        for s in slots:
            if np.any((e[mul[:, s], :] - e - e[s][None, :]) % n):
                raise CotwistError("bicharacter not multiplicative in the first slot")
        for s in slots:
            if np.any((e[:, mul[:, s]] - e - e[:, s][:, None]) % n):
                raise CotwistError("bicharacter not multiplicative in the second slot")
        if np.any((e + e.T) % n):
            raise CotwistError("bicharacter is not skew-symmetric")
        degenerate = ~np.any(e % n, axis=1)
        if np.any(degenerate[1:]):
            raise CotwistError("bicharacter is degenerate")


def build_elementary_abelian(n: int, dim: int) -> FiniteGroup:
    """(Z/nZ)^dim for any modulus n >= 2, its elements labelled by their vectors.

    Elements are vectors (v_1..v_dim) over Z/nZ in lexicographic order, at
    index v . (n^(dim-1), .., n, 1), so the zero vector is index 0; these are
    the labels :func:`build_semidirect` reads.

    Raises for n < 2, dim < 1 and n^dim > 10**4.
    """
    if n < 2 or dim < 1:
        raise CotwistError(f"need a modulus n >= 2 and dim >= 1, got n = {n}, dim = {dim}")
    size = n ** dim
    if size > MAX_GROUP_ORDER:
        raise CotwistError(f"group order {size} exceeds cap {MAX_GROUP_ORDER}")
    powers = n ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    vecs = np.stack(
        np.meshgrid(*[np.arange(n)] * dim, indexing="ij"), axis=-1
    ).reshape(size, dim)
    # vecs are in lexicographic order and encode(v) = v . powers
    summed = (vecs[:, None, :] + vecs[None, :, :]) % n
    return FiniteGroup(summed @ powers, labels=[tuple(int(c) for c in v) for v in vecs],
                       name=f"(Z/{n})^{dim}")


def build_elementary_abelian_symplectic(p: int, n: int = 1):
    """(Z/pZ)^(2n) with the standard symplectic bicharacter.

    The group is :func:`build_elementary_abelian` (p, 2n): vectors
    (x_1..x_n, y_1..y_n) over Z/pZ in lexicographic order.  The pairing of
    (x, y) and (x', y') is zeta_p^(x.y' - y.x').

    Raises for non-prime or even p and for p^(2n) > 10**4.  The cap is
    checked before primality, and a 2n past the cap's bit length (p >= 3)
    before the power is formed, so a huge p or n is refused at once.
    """
    if p < 3 or p % 2 == 0:
        raise CotwistError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise CotwistError(f"n must be >= 1, got {n}")
    if 2 * n > MAX_GROUP_ORDER.bit_length() or p ** (2 * n) > MAX_GROUP_ORDER:
        raise CotwistError(f"group order {p}^{2 * n} exceeds cap {MAX_GROUP_ORDER}")
    if not _is_prime(p):
        raise CotwistError(f"p must be an odd prime, got {p}")
    group = build_elementary_abelian(p, 2 * n)
    vecs = np.array(group.labels, dtype=np.int64)
    x, y = vecs[:, :n], vecs[:, n:]
    exps = (x @ y.T - y @ x.T) % p
    return group, Bicharacter(group, p, exps.astype(np.int64))


def _matrix_key(m: np.ndarray) -> tuple:
    return tuple(int(x) for x in m.ravel())


def build_semidirect(h_group: FiniteGroup, p: int, generators):
    """Semidirect product of a labeled vector group with a matrix group.

    ``h_group`` must carry vector labels over Z/pZ for any modulus p (as
    :func:`build_elementary_abelian` gives them).  ``generators`` is a list
    of integer matrices acting on those vectors; the group Gamma they
    generate is closed by breadth-first multiplication.  Elements of
    G = H x| Gamma are pairs (h, gamma) with (h, g)(h', g') = (h + g h', g g'),
    indexed so that H = {(h, 1)} occupies indices 0..|H|-1.

    Returns (G, H_as_subgroup_of_G).
    """
    if h_group.labels is None:
        raise CotwistError("semidirect base group needs vector labels")
    dim = len(h_group.labels[0])
    nh = h_group.order
    vecs = np.array(h_group.labels, dtype=np.int64)
    powers = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)

    gens = []
    for g in generators:
        m = np.asarray(g, dtype=np.int64) % p
        if m.shape != (dim, dim):
            raise CotwistError(f"generator shape {m.shape} != ({dim}, {dim})")
        if math.gcd(_integer_det(m), p) != 1:  # invertible mod p, p prime or not
            raise CotwistError("generator matrix is singular mod p")
        gens.append(m)

    identity = np.eye(dim, dtype=np.int64)
    gamma: list[np.ndarray] = [identity]
    seen = {_matrix_key(identity)}
    queue = [identity]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = (cur @ g) % p
            key = _matrix_key(nxt)
            if key not in seen:
                if (len(gamma) + 1) * nh > MAX_GROUP_ORDER:
                    raise CotwistError(
                        f"semidirect product order exceeds cap {MAX_GROUP_ORDER}"
                    )
                seen.add(key)
                gamma.append(nxt)
                queue.append(nxt)

    ng = len(gamma)
    order = ng * nh
    # permutation action of each gamma on H indices
    act = np.empty((ng, nh), dtype=np.int64)
    for i, m in enumerate(gamma):
        act[i] = ((vecs @ m.T) % p) @ powers
    # gamma multiplication table
    gamma_lookup = {_matrix_key(m): i for i, m in enumerate(gamma)}
    gmul = np.empty((ng, ng), dtype=np.int64)
    for i, a in enumerate(gamma):
        for j, b in enumerate(gamma):
            gmul[i, j] = gamma_lookup[_matrix_key((a @ b) % p)]

    # index of (h, gamma_i) = i * nh + h ; identity (0, I) = 0
    hmul = h_group.mul.astype(np.int64)
    mul = np.empty((order, order), dtype=np.int64)
    for i in range(ng):
        acted = act[i]  # gamma_i applied to each h'
        for j in range(ng):
            block = hmul[:, acted] + nh * gmul[i, j]
            mul[i * nh : (i + 1) * nh, j * nh : (j + 1) * nh] = block

    labels = None
    if order <= 4096:
        labels = [
            (h_group.labels[k % nh], _matrix_key(gamma[k // nh])) for k in range(order)
        ]
    G = FiniteGroup(mul, labels=labels, name=f"{h_group.name} x| Gamma")
    if not G.verify_associativity():
        raise CotwistError("semidirect product table failed associativity audit")
    H = Subgroup(G, np.arange(nh))
    return G, H


def _integer_det(m: np.ndarray) -> int:
    """det m over Z, by fraction-free (Bareiss) elimination on Python ints.

    After pivot column c every entry a[r][k] (r, k > c) is a minor of m, and
    the division by the previous pivot is exact, so no fraction is formed.
    """
    a = [[int(x) for x in row] for row in m]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv], sign = a[piv], a[c], -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                a[r][k] = (a[r][k] * a[c][c] - a[r][c] * a[c][k]) // prev
        prev = a[c][c]
    return sign * prev


def double_cosets(G: FiniteGroup, H: Subgroup) -> list[DoubleCoset]:
    """All double cosets H g H, sorted by minimal representative.

    They partition G; sizes satisfy |HgH| = |H|^2 / |K_g|.
    """
    visited = np.zeros(G.order, dtype=bool)
    out = []
    h = H.elements
    for g in range(G.order):
        if visited[g]:
            continue
        elems = np.unique(G.mul[np.ix_(h, G.mul[g, h])])
        if visited[elems].any():
            raise CotwistError("double cosets failed to partition the group")
        visited[elems] = True
        out.append(DoubleCoset(representative=g, elements=elems))
    if not visited.all():
        raise CotwistError("double cosets failed to cover the group")
    return out


def stabilizer_Kg(G: FiniteGroup, H: Subgroup, g: int) -> Subgroup:
    """K_g = H intersect g H g^-1 as a subgroup of G.

    When g normalizes H the intersection is all of H, and ``H`` itself is
    returned, so its local group, generating words and characters, already
    formed, serve K_g too.
    """
    conj = G.mul[G.mul[g, H.elements], G.inv[g]]
    inter = np.intersect1d(H.elements, conj)
    return H if inter.size == H.order else Subgroup(G, inter)


def stabilizer_local_indices(H: Subgroup, Kg: Subgroup, g: int):
    """H-local indices of each a in K_g and of g^-1 a g, as two arrays.

    Raises AuditError when some a or g^-1 a g is not in H (K_g is not the
    stabilizer of g).
    """
    lookup = np.full(H.parent.order, -1, dtype=np.int64)
    lookup[H.elements] = np.arange(H.order)
    a_loc = lookup[Kg.elements]
    conj_loc = lookup[H.parent.conjugate(g, Kg.elements)]
    if np.any(a_loc < 0) or np.any(conj_loc < 0):
        raise AuditError("stabilizer element leaves H under conjugation")
    return a_loc, conj_loc


def _element_order(mul: np.ndarray, s: int) -> int:
    k, x = 1, int(s)
    while x:
        k, x = k + 1, int(mul[x, s])
    return k


def character_exponents(H: FiniteGroup, order: int) -> np.ndarray:
    """The characters of H into the N-th roots of unity, as exponents E[chi, h] mod N.

    Row 0 is the trivial character.  Each assignment of ord(s)-th roots to
    the generators s of ``H.generators`` is extended over the
    cosets M s^j of the subgroup M the generators before s generate, and
    kept when chi(a s) = chi(a) chi(s) for every a and s, which makes it a
    homomorphism.  Raises CotwistError unless H is abelian and its
    exponent divides N: only then are there |H| of them.  They are kept on
    H, read-only, so each (H, N) is listed once.
    """
    if order in H._characters:
        return H._characters[order]
    mul = H.mul
    if not np.array_equal(mul, mul.T):
        raise CotwistError(f"the predicted route needs an abelian H; H of order {H.order} is not")
    gens = H.generators
    orders = [_element_order(mul, s) for s in gens]
    if any(order % k for k in orders):
        raise CotwistError(f"the exponent of H does not divide the twist's order N = {order}")
    grid = np.meshgrid(*(np.arange(k) * (order // k) for k in orders), indexing="ij")
    assign = np.stack([x.ravel() for x in grid], axis=-1) if orders else np.zeros((1, 0), int)
    E = np.zeros((len(assign), H.order), dtype=np.int64)
    members, reached = np.zeros(1, dtype=np.int64), np.arange(H.order) == 0
    for i, s in enumerate(gens):
        cosets = [members]
        for j in range(1, orders[i]):
            coset = mul[cosets[-1], s]                                 # M s^j
            if reached[coset[0]]:
                break
            reached[coset] = True
            E[:, coset] = (E[:, members] + j * assign[:, [i]]) % order
            cosets.append(coset)
        members = np.concatenate(cosets)
    hom = np.ones(len(E), dtype=bool)
    for s in gens:
        hom &= np.all(E[:, mul[:, s]] == (E + E[:, [s]]) % order, axis=1)
    E = H._characters[order] = E[hom]
    E.flags.writeable = False
    return E


def character_products(E: np.ndarray, gens, order: int) -> np.ndarray:
    """[chi, psi] -> the row of chi psi in the characters E[chi, h] mod N of
    :func:`character_exponents`, ``gens`` the generators of H.

    A character is fixed by its exponents at the generators, N / ord(s)
    times a digit below ord(s), so chi psi is found by the mixed-radix key
    of the digit sums, which no digit carries out of.
    """
    if not len(gens):  # H = {e}
        return np.zeros((1, 1), dtype=np.int64)
    step = np.gcd.reduce(E[:, gens], axis=0)                  # N / ord(s)
    digits, radix = E[:, gens].T // step[:, None], order // step
    index = np.empty(np.prod(radix), dtype=np.int64)          # key -> chi
    index[np.ravel_multi_index(digits, radix)] = np.arange(len(E))
    sums = 2 * radix - 1          # keys of digit sums: the sum of two characters' keys
    by_sum = index[np.ravel_multi_index(np.indices(sums).reshape(len(gens), -1) % radix[:, None],
                                        radix)]
    keys = np.ravel_multi_index(digits, sums)
    return by_sum[keys[:, None] + keys[None]]
