"""Every test instance G = V x| <gamma>, with its twist on H, from one builder.

The builder takes (n, dim, gamma, h_dim, M):

- V = (Z/n)^dim (``build_elementary_abelian``), so vector v has index
  v . (n^(dim-1), .., n, 1), and G = V x| <gamma> (``build_semidirect``),
  where element (v, s) has index s |V| + v;
- H is the span of the first h_dim coordinates, at the G-indices
  n^(dim - h_dim) k, k the index of those coordinates in (Z/n)^h_dim, which
  is H's local index;
- J[a, b] = zeta_n^(a.M.b) / |H| on those coordinates, audited by
  ``assemble_twist`` as the table route audits a twist file.  It is a
  2-cocycle for every M; it is minimal when the form a.(M - M^T).b is
  nondegenerate mod n.

``build_instance`` returns the ``Instance`` in-process; ``write_instance``
writes the table route's ``group.txt``, ``twist.txt`` and ``config.json``.

Run as ``PYTHONPATH=src:tests python3 tests/instances.py`` to build ``Z729``,
run the global checks and all 22 cosets, and assert no failure,
``Z729_DIMS`` on all three routes, a peak RSS under 1 GB, and ``tracemalloc``
peaks under 48 MB for each block and U_g build of the widest cosets.
"""

import json
import resource
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from cotwist import (Config, CycArray, Subgroup, TableConstruction, TwistData, assemble_twist,
                     build_elementary_abelian, build_semidirect, double_cosets, save_twist_file,
                     stabilizer_Kg)
from cotwist.correspondence import (Instance, _coset_pipeline, _global_checks,
                                    invariant_algebra_Ug, prepare_instance)
from cotwist.dual_algebras import build_block_algebra

#: x.y' - y.x' on coordinates (x, y), and the unipotent form
SKEW, UNIPOTENT = np.array([[0, 1], [-1, 0]]), np.array([[1, 1], [0, 1]])
#: the peak resident memory Z729 must stay under, in bytes
RSS_LIMIT = 1 << 30
#: the tracemalloc peak each block and U_g build of Z729's widest cosets must stay under
BUILD_LIMIT = 48 << 20


def shift(dim: int, by: int, scaled=None) -> np.ndarray:
    """The matrix that moves coordinate i to i + by (mod dim); ``scaled`` =
    (i, k) also multiplies the coordinate that lands at i by k."""
    g = np.roll(np.eye(dim, dtype=np.int64), by, axis=0)
    if scaled:
        g[scaled[0]] *= scaled[1]
    return g


#: criterion 9: (Z/3)^3 x| C3, gamma (x, y, z) -> (z, x, y), H = span(e1, e2) with
#: the symplectic twist; the cosets at 27 and 54 have |K_g| = 3
CRITERION_9 = (3, 3, shift(3, 1), 2, SKEW)
#: criterion 10: (Z/2)^6 x| C3 on 2-bit blocks (b1, b2, b3), gamma the block shift
#: to (b3, b1, b2), H = blocks (u, w), B = u.u' + u.w' + w A w' with A = UNIPOTENT
#: (a nondegenerate class on K_g: [8]) or A = 1 (the trivial class: [4] x 4)
CRITERION_10 = tuple((2, 6, shift(6, 2), 4, np.block([[np.eye(2, dtype=int)] * 2,
                                                      [np.zeros((2, 2), dtype=int), A]]))
                     for A in (UNIPOTENT, np.eye(2, dtype=int)))
#: (Z/3)^2 wr C2 = (Z/3)^4 x| <swap of the halves>, H the first factor: the swap
#: coset at 81 has K_g = {e}
WREATH = (3, 4, shift(4, 2), 2, SKEW)
#: (Z/3)^6 x| C6, gamma the block shift that doubles the second coordinate of b3 on
#: its way to b1, H = blocks b1 and b2 = (x1, y1, x2, y2), J = zeta_3^(x.y' - y.x') / 81
Z729 = (3, 6, shift(6, 2, scaled=(1, 2)), 4, np.kron(np.eye(2, dtype=int), SKEW))
#: Z729's 22 cosets split as these dims, with the number of cosets that have them
Z729_DIMS = Counter({(27,): 2, (9,) * 9: 2, (9,): 9, (1,) * 81: 9})
#: composite N = 4: (Z/4)^3 x| C3, H = (Z/4)^2; |K_g| = 4 and [4, 4, 4, 4] at 64 and 128
COMPOSITE = (4, 3, shift(3, 1), 2, UNIPOTENT)
#: a twist at N = 4 that is not minimal: R's form 2 (x.y' - y.x') is degenerate mod 4
DEGENERATE = (4, 3, shift(3, 1), 2, SKEW)
#: composite N = 6 with two prime factors: (Z/6)^3 x| C3, H = (Z/6)^2; |K_g| = 6 and
#: [6] x 6 at 216 and 432
N6 = (6, 3, shift(3, 1), 2, UNIPOTENT)


def build_parts(n, dim, gamma, h_dim, M):
    """(G, H, J) as the module docstring describes them."""
    V = build_elementary_abelian(n, dim)
    G, _ = build_semidirect(V, n, [gamma])
    step = n ** (dim - h_dim)
    H = Subgroup(G, step * np.arange(n ** h_dim))
    a = np.array(V.labels[::step])[:, :h_dim]
    return G, H, CycArray.from_exponents(n, a @ np.asarray(M) @ a.T, Fraction(1, H.order))


def build_instance(n, dim, gamma, h_dim, M) -> Instance:
    """G, H and the audited twist, in-process: no file is written."""
    G, H, J = build_parts(n, dim, gamma, h_dim, M)
    t, audit = assemble_twist(H, J)
    return Instance(G=G, H=H, t=t, audit=audit, description={})


def write_instance(out_dir: Path, n, dim, gamma, h_dim, M) -> Config:
    """Write group.txt, twist.txt and config.json into ``out_dir``; returns their Config."""
    G, H, J = build_parts(n, dim, gamma, h_dim, M)
    group_file, twist_file = out_dir / "group.txt", out_dir / "twist.txt"
    G.to_file(group_file)
    save_twist_file(twist_file, TwistData(H, n, J))
    config = Config(TableConstruction(str(group_file), H.elements.tolist(), str(twist_file)))
    (out_dir / "config.json").write_text(
        json.dumps({"construction": config.construction.describe()}, indent=2) + "\n")
    return config


def coset_builds(ctx, z, g=None) -> list:
    """Coset ``z``'s block build and its U_g build at ``g`` (z's representative
    by default), as (build, *args) calls."""
    inst = ctx.instance
    g = z.representative if g is None else g
    Kg = stabilizer_Kg(inst.G, inst.H, g)
    return [(build_block_algebra, inst.t, z),
            (invariant_algebra_Ug, ctx.A1s, ctx.A2s, ctx.rho1, ctx.rho2, Kg, g, inst.H)]


def coset_algebras(ctx, z, g=None) -> tuple:
    """(block, U_g) of coset ``z`` at ``g``, the two algebras ``f_g_map`` compares."""
    return tuple(build(*args) for build, *args in coset_builds(ctx, z, g))


def build_peaks(ctx, z) -> tuple[int, int]:
    """The ``tracemalloc`` peaks, in bytes, of coset ``z``'s block build and U_g build."""
    peaks = []
    for build, *args in coset_builds(ctx, z):
        tracemalloc.start()
        try:
            build(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0], peaks[1]


def main() -> int:
    start = time.perf_counter()
    instance = build_instance(*Z729)
    built = time.perf_counter()
    checks, failures = _global_checks(instance)
    assert not failures, failures
    ctx = prepare_instance(instance)
    cosets = double_cosets(instance.G, instance.H)
    results = [_coset_pipeline(ctx, z) for z in cosets]
    done = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    widest = max(z.size for z in cosets)
    peaks = [build_peaks(ctx, z) for z in cosets if z.size == widest]
    block, ug = (max(p) / 2 ** 20 for p in zip(*peaks))
    print(f"|G| = {instance.G.order}: build {built - start:.1f} s, checks and "
          f"{len(results)} cosets {done - built:.1f} s, peak RSS {rss / 2 ** 20:.0f} MB; "
          f"|Z| = {widest}: block and U_g build peaks {block:.0f} and {ug:.0f} MB")
    failures = [f for _, errs in results for f in errs]
    assert not failures, failures
    assert checks["twist_axioms"] and checks["triangularity"] and checks["q_identity"], checks
    routes = [(s.dims_direct, s.dims_invariant, s.dims_predicted) for s, _ in results]
    assert all(a == b == c for a, b, c in routes), routes
    assert Counter(tuple(a) for a, _, _ in routes) == Z729_DIMS, routes
    assert rss < RSS_LIMIT, rss
    assert all(max(p) < BUILD_LIMIT for p in peaks), peaks
    return 0


if __name__ == "__main__":
    sys.exit(main())
