"""Shared fixtures: canonical instances built once per session."""

import numpy as np
import pytest

from cotwist import exactlin
from cotwist.correspondence import (Config, Instance, SymplecticConstruction, build_instance,
                                    full_report, prepare_instance)
from cotwist.dual_algebras import build_A1_A2_star
from cotwist.groups import build_elementary_abelian_symplectic, build_semidirect, double_cosets
from cotwist.twist import symplectic_twist

import instances


def make_config(p, gens, seed=0):
    return Config(SymplecticConstruction(p=p, n=1, gamma_generators=gens), seed=seed)


UNIPOTENT = [[[1, 1], [0, 1]]]
DIAG_12 = [[[1, 0], [0, 2]]]


@pytest.fixture
def rref_calls(monkeypatch):
    """The matrices passed to the exact elimination ``exactlin._rref``, recorded."""
    calls, rref = [], exactlin._rref
    monkeypatch.setattr(exactlin, "_rref", lambda mat: calls.append(mat) or rref(mat))
    return calls


@pytest.fixture
def solve_shapes(monkeypatch):
    """The matrix shapes passed to the exact solve ``exactlin.cyc_solve``, recorded."""
    shapes, solve = [], exactlin.cyc_solve
    monkeypatch.setattr(exactlin, "cyc_solve",
                        lambda mat, rhs: shapes.append(mat.shape) or solve(mat, rhs))
    return shapes


@pytest.fixture(scope="session")
def p3_pair():
    """(group, bicharacter) for (Z/3)^2."""
    return build_elementary_abelian_symplectic(3, 1)


@pytest.fixture(scope="session")
def p3_twist(p3_pair):
    h, sigma = p3_pair
    return symplectic_twist(h, sigma)


@pytest.fixture(scope="session")
def p3_duals(p3_twist):
    """(A1*, A2*, rho1, rho2) on the standalone (Z/3)^2."""
    return build_A1_A2_star(p3_twist)


@pytest.fixture(scope="session")
def p3_diag_bundle():
    """Instance, context, and double cosets for p=3, gamma=diag(1,2)."""
    inst = build_instance(make_config(3, DIAG_12))
    ctx = prepare_instance(inst)
    zs = double_cosets(inst.G, inst.H)
    return inst, ctx, zs


@pytest.fixture(scope="session")
def p3_unipotent_report():
    return full_report(make_config(3, UNIPOTENT))


@pytest.fixture(scope="session")
def p3_diag_report():
    return full_report(make_config(3, DIAG_12))


@pytest.fixture(scope="session")
def p3_gauge_diag_bundle(p3_pair):
    """Like ``p3_diag_bundle``, with the gauge-conjugated twist
    (u x u) J Delta0(u)^-1, u = (1 - zeta) e + zeta g, whose cells have two terms."""
    from cotwist.exactlin import CycArray, cyc_tensordot, ga_mul, invert_in_group_algebra
    from cotwist.twist import TwistAudit, make_twist

    H, sigma = p3_pair
    t0 = symplectic_twist(H, sigma)
    m, mul = 9, H.mul.astype(np.int64)
    u = CycArray.zeros((m,), 3)
    u.counts[0, 0], u.counts[0, 1], u.counts[1, 1] = 1, -1, 1
    uinv = invert_in_group_algebra(u, mul)
    diag = CycArray.zeros((m, m), 3)
    diag.counts[np.arange(m), np.arange(m)] = uinv.counts
    J = ga_mul(ga_mul(cyc_tensordot(u, u, axes=0), t0.J, mul), diag.scale_by(uinv.scale), mul)
    G, Hs = build_semidirect(H, 3, DIAG_12)
    inst = Instance(G=G, H=Hs, t=make_twist(Hs, J), audit=TwistAudit(), description={})
    return inst, prepare_instance(inst), double_cosets(G, Hs)


def instance_bundle(spec):
    """Instance, context, and double cosets of an ``instances`` spec, built in-process."""
    inst = instances.build_instance(*spec)
    return inst, prepare_instance(inst), double_cosets(inst.G, inst.H)


@pytest.fixture(scope="session")
def wreath_bundle():
    """(Z/3)^2 wr C_2 with H the first factor and its symplectic twist
    (``instances.WREATH``): the swap coset H 81 H has K_g = {e}."""
    return instance_bundle(instances.WREATH)


@pytest.fixture(scope="session")
def intermediate_bundle():
    """Criterion 9's instance (``instances.CRITERION_9``): the cosets at 27 and
    54 have |K_g| = 3."""
    return instance_bundle(instances.CRITERION_9)


@pytest.fixture(scope="session")
def composite_bundle():
    """The composite N = 4 instance (``instances.COMPOSITE``): the cosets at 64
    and 128 have |K_g| = 4."""
    return instance_bundle(instances.COMPOSITE)


#: inputs of the reference-formula tests: bundle fixture -> coset representative
#: (None: the bundle's second coset); the wreath swap coset 81 has K_g = {e},
#: criterion 9's coset 27 has |K_g| = 3
REFERENCE_COSETS = {"p3_diag_bundle": None, "p3_gauge_diag_bundle": None,
                    "wreath_bundle": 81, "intermediate_bundle": 27}


@pytest.fixture(params=list(REFERENCE_COSETS))
def reference_case(request):
    """(instance, context, coset) for each input of ``REFERENCE_COSETS``."""
    inst, ctx, zs = request.getfixturevalue(request.param)
    rep = REFERENCE_COSETS[request.param]
    return inst, ctx, zs[1] if rep is None else next(z for z in zs if z.representative == rep)


@pytest.fixture(scope="session")
def p5_diag_bundle():
    inst = build_instance(make_config(5, DIAG_12))
    ctx = prepare_instance(inst)
    zs = double_cosets(inst.G, inst.H)
    return inst, ctx, zs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the one-line-per-criterion acceptance summary."""
    import sys

    # use the module instance pytest actually executed, never a fresh import
    module = None
    for name, mod in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance" and hasattr(mod, "RESULTS"):
            module = mod
            if mod.RESULTS:
                break
    if module is None:
        return
    CRITERIA, RESULTS = module.CRITERIA, module.RESULTS
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(CRITERIA):
        status, detail = RESULTS.get(num, ("NOT RUN", ""))
        line = f"criterion {num}: {status} — {CRITERIA[num]}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line)
