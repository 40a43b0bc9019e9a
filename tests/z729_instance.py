"""The |Z| = 729 instance, built in-process: no table file is written.

G = V x| <gamma> with V = (Z/3)^6 read as three blocks b1, b2, b3 of two
coordinates (the vector labels of ``build_elementary_abelian_symplectic(3,
3)``), and gamma the block shift b1 <- b3, b2 <- b1, b3 <- b2 that scales the
second coordinate of b3 by 2 on its way to b1, so gamma has order 6 and
|G| = 4374.  H = blocks b1 and b2 = {(x1, y1, x2, y2, 0, 0)} sits at the
G-indices 9 k, k = 27 x1 + 9 y1 + 3 x2 + y2 its local index, and carries
J = zeta_3^(x.y' - y.x') / 81 with x = (x1, x2), y = (y1, y2).

Its 22 double cosets split as ``EXPECTED_DIMS`` on all three routes: two
cosets of 729 points with K_g of order 9 whose block is one [27], two more
whose block is [9] x 9, and on the 18 cosets with K_g = H, [9] on 9 of them
and [1] x 81 on the other 9.

Run as ``PYTHONPATH=src:tests python3 tests/z729_instance.py`` to build it,
run the global checks and all 22 cosets, and assert no failure, those dims
on all three routes, and a peak RSS under 1 GB.
"""

import resource
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from cotwist import (CycArray, Subgroup, assemble_twist, build_elementary_abelian_symplectic,
                     build_semidirect, double_cosets)
from cotwist.correspondence import Instance, _coset_pipeline, _global_checks, prepare_instance

#: the dims of the 22 cosets, with the number of cosets that have them
EXPECTED_DIMS = Counter({(27,): 2, (9,) * 9: 2, (9,): 9, (1,) * 81: 9})
#: the peak resident memory the run must stay under, in bytes
RSS_LIMIT = 1 << 30


def gamma() -> np.ndarray:
    g = np.zeros((6, 6), dtype=np.int64)
    g[0, 4], g[1, 5] = 1, 2
    g[[2, 3, 4, 5], [0, 1, 2, 3]] = 1
    return g


def twist_exponents() -> np.ndarray:
    """x.y' - y.x' mod 3 on local indices k = 27 x1 + 9 y1 + 3 x2 + y2."""
    x1, y1, x2, y2 = (np.arange(81) // 3 ** (3 - i) % 3 for i in range(4))
    x, y = np.stack([x1, x2], axis=-1), np.stack([y1, y2], axis=-1)
    return (x @ y.T - y @ x.T) % 3


def build_instance() -> Instance:
    """G, H and the audited twist, by the recipe in the module docstring."""
    V = build_elementary_abelian_symplectic(3, 3)[0]
    G, _ = build_semidirect(V, 3, [gamma()])
    H = Subgroup(G, 9 * np.arange(81))
    t, audit = assemble_twist(H, CycArray.from_exponents(3, twist_exponents(), Fraction(1, 81)))
    return Instance(G=G, H=H, t=t, audit=audit, description={"kind": "z729"})


def analyse(instance: Instance):
    """(global checks, per-coset spectra, failures) of every coset, as a report runs them."""
    checks, failures = _global_checks(instance)
    if failures:
        return checks, [], failures
    ctx = prepare_instance(instance)
    spectra = []
    for z in double_cosets(instance.G, instance.H):
        spectrum, errs = _coset_pipeline(ctx, z)
        spectra.append(spectrum)
        failures.extend(errs)
    return checks, spectra, failures


def main() -> int:
    start = time.perf_counter()
    instance = build_instance()
    built = time.perf_counter()
    checks, spectra, failures = analyse(instance)
    done = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"|G| = {instance.G.order}: build {built - start:.1f} s, checks and "
          f"{len(spectra)} cosets {done - built:.1f} s, peak RSS {rss / 2 ** 20:.0f} MB")
    assert not failures, failures
    assert checks["twist_axioms"] and checks["triangularity"] and checks["q_identity"], checks
    routes = [(s.dims_direct, s.dims_invariant, s.dims_predicted) for s in spectra]
    assert all(a == b == c for a, b, c in routes), routes
    assert Counter(tuple(a) for a, _, _ in routes) == EXPECTED_DIMS, routes
    assert rss < RSS_LIMIT, rss
    return 0


if __name__ == "__main__":
    sys.exit(main())
