"""Finite groups as Cayley tables, subgroups, double cosets, bicharacters.

Conventions: elements are 0-based indices, the identity is index 0, and the
representative of a coset is its minimal element index.  Group order is
capped at 10**4 so tables stay materializable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AuditError, CotwistError

MAX_GROUP_ORDER = 10_000

#: exhaustive associativity checks are run below this order, Light's test above
_EXHAUSTIVE_ASSOC_LIMIT = 1024


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

    def verify_associativity(self, generators=None) -> bool:
        """Exact associativity audit.

        Exhaustive for small orders; for larger tables with a known generating
        set, Light's test (middle element restricted to generators) is used,
        which is equivalent for tables with identity and inverses.
        """
        n, mul = self.order, self.mul
        if n <= _EXHAUSTIVE_ASSOC_LIMIT or generators is None:
            if generators is None and n > _EXHAUSTIVE_ASSOC_LIMIT:
                raise CotwistError(
                    f"exhaustive associativity audit refused for order {n}; "
                    "pass a generating set"
                )
            for a in range(n):
                left = mul[mul[a], :]        # (b, c) -> (a b) c
                right = mul[a, mul]          # (b, c) -> a (b c)
                if not np.array_equal(left, right):
                    return False
            return True
        for g in generators:
            # a (g b) == (a g) b  for all a, b
            left = mul[:, mul[g, :]]
            right = mul[mul[:, g], :]
            if not np.array_equal(left, right):
                return False
        return True

    def conjugate(self, g: int, h: int) -> int:
        """g^-1 h g."""
        return self.mul[self.mul[self.inv[g], h], g]

    # -- file format -------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "FiniteGroup":
        """Read a Cayley table: first line n, then n rows of n indices."""
        with open(path) as fh:
            tokens = fh.read().split()
        if not tokens:
            raise CotwistError(f"empty Cayley table file {path}")
        try:
            values = [int(t) for t in tokens]
            n, body = values[0], values[1:]
            if n < 1 or len(body) != n * n:
                raise ValueError(f"expected {n} rows of {n} entries, got {len(body)} entries")
            mul = np.array(body, dtype=np.int64).reshape(n, n)
        except (ValueError, OverflowError) as exc:
            raise CotwistError(f"Cayley file {path}: {exc}") from None
        try:
            return cls(mul, name=str(path))
        except CotwistError as exc:
            raise CotwistError(f"Cayley file {path}: {exc}") from None

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
    """A root-of-unity valued pairing sigma(a, b) = zeta_order^exponents[a, b]."""

    group: FiniteGroup
    order: int
    exponents: np.ndarray

    def verify(self) -> None:
        """Exact multiplicativity, skew-symmetry and nondegeneracy checks."""
        e, mul, n = self.exponents, self.group.mul, self.order
        for a in range(self.group.order):
            # e[a b, c] == e[a, c] + e[b, c]
            if np.any((e[mul[a], :] - e[a][None, :] - e) % n):
                raise CotwistError("bicharacter not multiplicative in the first slot")
            # e[b, a c] == e[b, a] + e[b, c]
            if np.any((e[:, mul[a]] - e[:, a][:, None] - e) % n):
                raise CotwistError("bicharacter not multiplicative in the second slot")
        if np.any((e + e.T) % n):
            raise CotwistError("bicharacter is not skew-symmetric")
        degenerate = ~np.any(e % n, axis=1)
        if np.any(degenerate[1:]):
            raise CotwistError("bicharacter is degenerate")


def build_elementary_abelian_symplectic(p: int, n: int = 1):
    """(Z/pZ)^(2n) with the standard symplectic bicharacter.

    Elements are vectors (x_1..x_n, y_1..y_n) over Z/pZ in lexicographic
    order, so the zero vector is index 0.  The pairing of (x, y) and
    (x', y') is zeta_p^(x.y' - y.x').

    Raises for non-prime or even p and for p^(2n) > 10**4.
    """
    if p < 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)) or p % 2 == 0:
        raise CotwistError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise CotwistError(f"n must be >= 1, got {n}")
    size = p ** (2 * n)
    if size > MAX_GROUP_ORDER:
        raise CotwistError(f"group order {size} exceeds cap {MAX_GROUP_ORDER}")
    dim = 2 * n
    powers = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    vecs = np.stack(
        np.meshgrid(*[np.arange(p)] * dim, indexing="ij"), axis=-1
    ).reshape(size, dim)
    # vecs are in lexicographic order and encode(v) = v . powers
    summed = (vecs[:, None, :] + vecs[None, :, :]) % p
    mul = summed.reshape(size * size, dim) @ powers
    group = FiniteGroup(
        mul.reshape(size, size),
        labels=[tuple(int(c) for c in v) for v in vecs],
        name=f"(Z/{p})^{dim}",
    )
    x, y = vecs[:, :n], vecs[:, n:]
    exps = (x @ y.T - y @ x.T) % p
    sigma = Bicharacter(group, p, exps.astype(np.int64))
    sigma.verify()
    return group, sigma


def _matrix_key(m: np.ndarray) -> tuple:
    return tuple(int(x) for x in m.ravel())


def build_semidirect(h_group: FiniteGroup, p: int, generators):
    """Semidirect product of a labeled vector group with a matrix group.

    ``h_group`` must carry vector labels over Z/pZ (as produced by
    :func:`build_elementary_abelian_symplectic`).  ``generators`` is a list
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
        if _gf_det(m, p) == 0:
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
    # generating set for Light's test: H basis vectors and the gamma generators
    light_gens = set()
    for v in np.eye(dim, dtype=np.int64):
        light_gens.add(int((v % p) @ powers))
    for m in gens:
        light_gens.add(int(gamma_lookup[_matrix_key(m)]) * nh)
    if not G.verify_associativity(generators=sorted(light_gens)):
        raise CotwistError("semidirect product table failed associativity audit")
    H = Subgroup(G, np.arange(nh))
    return G, H


def _gf_det(m: np.ndarray, p: int) -> int:
    """Determinant mod p by Gaussian elimination."""
    a = m.copy() % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r, c] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            det = -det
        det = (det * a[c, c]) % p
        inv = pow(int(a[c, c]), p - 2, p)
        a[c] = (a[c] * inv) % p
        for r in range(c + 1, n):
            if a[r, c]:
                a[r] = (a[r] - a[r, c] * a[c]) % p
    return det % p


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
    """K_g = H intersect g H g^-1 as a subgroup of G."""
    conj = G.mul[G.mul[g, H.elements], G.inv[g]]
    inter = np.intersect1d(H.elements, conj)
    return Subgroup(G, inter)


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
