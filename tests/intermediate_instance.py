"""A table instance whose stabilizers K_g lie strictly between {e} and H.

G = V x| <gamma> with V = (Z/3)^3 and gamma the cyclic shift e1 -> e2 -> e3
-> e1 of coordinates, so |G| = 81.  Element (v, s), v = (x, y, z), has index
27 s + 9 x + 3 y + z.  H = span(e1, e2) = {(x, y, 0, 0)} sits at indices
9 x + 3 y and carries the symplectic twist of (Z/3)^2 (its local index 3 x + y
is that of ``build_elementary_abelian_symplectic``).  The cosets H gamma^s H
for s = 1, 2 have K_g = H n gamma^s H gamma^-s = span(e2) resp. span(e1), of
order 3, so |H|/|K_g| = 3.

Only the public API is used, and the instance goes through the files:
``FiniteGroup.to_file`` and ``save_twist_file`` write it, and the table
construction reads it back.
"""

import numpy as np

from cotwist import (Config, FiniteGroup, TableConstruction,
                     build_elementary_abelian_symplectic, save_twist_file,
                     symplectic_twist)

P = 3
SUBGROUP = [9 * x + 3 * y for x in range(P) for y in range(P)]


def cayley_table() -> np.ndarray:
    """(v, s)(w, t) = (v + gamma^s w, s + t) on indices 27 s + 9 x + 3 y + z."""
    s, rest = np.divmod(np.arange(P ** 4), P ** 3)
    v = np.stack([rest // P ** 2, rest // P % P, rest % P], axis=-1)
    # gamma (x, y, z) = (z, x, y) is a roll by one place; shifted[k] = gamma^k v
    shifted = np.stack([np.roll(v, k, axis=-1) for k in range(P)])
    total = (v[:, None, :] + shifted[s]) % P
    return (((s[:, None] + s[None, :]) % P) * P ** 3
            + total[..., 0] * P ** 2 + total[..., 1] * P + total[..., 2])


def write_instance(out_dir) -> Config:
    """Write group.txt and twist.txt into ``out_dir``; returns their Config."""
    h_group, sigma = build_elementary_abelian_symplectic(P, 1)
    group_file, twist_file = out_dir / "group.txt", out_dir / "twist.txt"
    FiniteGroup(cayley_table(), name="(Z/3)^3 x| C3").to_file(group_file)
    save_twist_file(twist_file, symplectic_twist(h_group, sigma))
    return Config(TableConstruction(str(group_file), SUBGROUP, str(twist_file)))
