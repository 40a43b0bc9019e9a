"""A table instance with a non-cyclic stabilizer whose pulled-back class decides the spectrum.

G = V x| <gamma> with V = (Z/2)^6, read as three 2-bit blocks (b1, b2, b3),
and gamma the cyclic shift (b1, b2, b3) -> (b3, b1, b2), so |G| = 192.
Element (v, s) has index 64 s + v with v = 16 b1 + 4 b2 + b3.  H = blocks 1
and 2 = {(16 b1 + 4 b2, 0)} sits at the indices 4 h, h = 4 b1 + b2, and
``Subgroup`` sorts its elements, so the twist file indexes H by h in
ascending G-index order.  On the cosets H gamma H and H gamma^2 H the
stabilizer K_g is one block of H, (Z/2)^2, so |H|/|K_g| = 4.

The twist is J[a, b] = (1/16) (-1)^B(a, b) for a = (u, w), b = (u', w'),
u and w the bits of b1 and b2.  ``TWISTS`` holds two choices of B:

- 0: B = u.u' + u.w' + w A w' with A = [[1, 1], [0, 1]].  The pulled-back
  class on K_g is nondegenerate, so each of those cosets is one block [8];
- 1: B = u.u' + u.w' + w.w'.  The class is trivial there: [4, 4, 4, 4].

Only the public API is used, and the instance goes through the files:
``FiniteGroup.to_file`` and ``save_twist_file`` write it, and the table
construction reads it back.
"""

from fractions import Fraction

import numpy as np

from cotwist import (Config, CycArray, FiniteGroup, Subgroup, TableConstruction, TwistData,
                     save_twist_file)

SUBGROUP = [4 * h for h in range(16)]
#: the matrix of the w, w' term of B for each twist
TWISTS = (np.array([[1, 1], [0, 1]]), np.eye(2, dtype=int))


def cayley_table() -> np.ndarray:
    """(v, s)(w, t) = (v + gamma^s w, s + t) on indices 64 s + v."""
    s, v = np.divmod(np.arange(192), 64)
    blocks = np.stack([v >> 4, (v >> 2) & 3, v & 3], axis=-1)
    # gamma^k w rolls w's blocks k places: shifted[k] = gamma^k w
    shifted = np.stack([np.roll(blocks, k, axis=-1) for k in range(3)])
    moved = shifted[s[:, None], np.arange(192)[None, :]]  # [x, y] = gamma^{s_x} v_y
    w = (moved[..., 0] << 4) | (moved[..., 1] << 2) | moved[..., 2]
    return ((s[:, None] + s[None, :]) % 3) * 64 + (v[:, None] ^ w)


def twist_exponents(which: int) -> np.ndarray:
    """B[a, b] mod 2 on H-local indices h = 4 b1 + b2, as (16, 16) exponents."""
    h = np.arange(16)
    u = np.stack([h >> 3 & 1, h >> 2 & 1], axis=-1)
    w = np.stack([h >> 1 & 1, h & 1], axis=-1)
    return (u @ u.T + u @ w.T + w @ TWISTS[which] @ w.T) % 2


def write_instance(out_dir, which: int) -> Config:
    """Write group.txt and twist.txt into ``out_dir``; returns their Config."""
    group_file, twist_file = out_dir / "group.txt", out_dir / "twist.txt"
    FiniteGroup(cayley_table(), name="(Z/2)^6 x| C3").to_file(group_file)
    xor = FiniteGroup(np.bitwise_xor.outer(np.arange(16), np.arange(16)))
    J = CycArray.from_exponents(2, twist_exponents(which), Fraction(1, 16))
    save_twist_file(twist_file, TwistData(Subgroup(xor, np.arange(16)), 2, J))
    return Config(TableConstruction(str(group_file), SUBGROUP, str(twist_file)))
