"""Deterministic generator for the wreath-product table instance.

G = (Z/3)^2 wr C_2 = (H x H) x| <swap>, with H = (Z/3)^2 embedded as the
first factor.  H is not normal in G: the swap coset H s H has size |H|^2,
stabilizer K_s = {e} and predicted spectrum [9] (|H|/|K_s| = 9).  The
other 9 double cosets are single cosets H (0, b) with K_g = H.

Only the public API is used: the symplectic twist of H comes from
``build_elementary_abelian_symplectic`` and ``symplectic_twist``, and the
files are written with ``FiniteGroup.to_file`` and ``save_twist_file``.

Run as ``python3 perfbench/wreath.py OUT_DIR`` to write
``group.txt``, ``twist.txt`` and ``config.json`` into OUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

GROUP_FILE = "group.txt"
TWIST_FILE = "twist.txt"
CONFIG_FILE = "config.json"
#: the prime of H = (Z/P)^2; the benchmark's instance has |G| = 2 * P^4 = 162
P = 3


def wreath_table(h_mul: np.ndarray) -> np.ndarray:
    """Cayley table of (H x H) x| C_2 on indices s*|H|^2 + a*|H| + b.

    (a, b, s) (c, d, t) = (a + c', b + d', s + t) where (c', d') is (c, d)
    swapped when s = 1.  Index 0 is the identity and H = {(a, 0, 0)}.
    """
    m = h_mul.shape[0]
    idx = np.arange(2 * m * m)
    s, rest = np.divmod(idx, m * m)
    a, b = np.divmod(rest, m)
    left_s, right_s = s[:, None], s[None, :]
    c = np.where(left_s == 1, b[None, :], a[None, :])
    d = np.where(left_s == 1, a[None, :], b[None, :])
    first = h_mul[a[:, None], c]
    second = h_mul[b[:, None], d]
    return ((left_s + right_s) % 2) * m * m + first * m + second


def build():
    """(G, subgroup indices, twist data, swap representative) for the wreath."""
    from cotwist import (FiniteGroup, Subgroup, build_elementary_abelian_symplectic,
                         double_cosets, stabilizer_Kg, symplectic_twist)

    h_group, sigma = build_elementary_abelian_symplectic(P, 1)
    twist = symplectic_twist(h_group, sigma)
    m = h_group.order
    G = FiniteGroup(wreath_table(h_group.mul.astype(np.int64)), name=f"(Z/{P})^2 wr C2")
    subgroup = [a * m for a in range(m)]
    swap = m * m

    # self-checks: a group, H a subgroup with the same local table, not normal,
    # and the swap coset has trivial stabilizer
    if not G.verify_associativity():
        raise RuntimeError("wreath table is not associative")
    H = Subgroup(G, np.asarray(subgroup))
    if not np.array_equal(H.as_group.mul, h_group.mul):
        raise RuntimeError("embedded H does not match the twisted group")
    conj = G.mul[G.mul[G.inv[swap], H.elements], swap]
    if np.isin(conj, H.elements).all():
        raise RuntimeError("H is normal in the wreath product")
    if stabilizer_Kg(G, H, swap).order != 1:
        raise RuntimeError("swap coset stabilizer is not trivial")
    cosets = double_cosets(G, H)
    if len(cosets) != m + 1 or max(z.size for z in cosets) != m * m:
        raise RuntimeError("unexpected double coset structure")
    return G, subgroup, twist, swap


def write_instance(out_dir: Path) -> Path:
    """Write the table, twist and config files; returns the config path.

    The config names the table and twist files by their paths under
    ``out_dir`` as given, so relative paths resolve from the caller's cwd.
    """
    from cotwist import save_twist_file

    G, subgroup, twist, _ = build()
    out_dir.mkdir(parents=True, exist_ok=True)
    G.to_file(out_dir / GROUP_FILE)
    save_twist_file(out_dir / TWIST_FILE, twist)
    config = {"construction": {"type": "table", "group_file": str(out_dir / GROUP_FILE),
                               "subgroup": subgroup, "twist_file": str(out_dir / TWIST_FILE)}}
    path = out_dir / CONFIG_FILE
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    print(write_instance(Path(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
