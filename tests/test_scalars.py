"""The cyclotomic reduction table and the literal grammar, against float oracles."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from cotwist.exactlin import CycArray
from cotwist.scalars import _reduction_table, euler_phi, format_cyclotomic, parse_cyclotomic
from cyc_reference import add, embed, mul, on_powers, sub, values
from float_reference import embedded, zeta_embeddings


def rand_coeffs(rng, order, span=3):
    return tuple(Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 4)))
                 for _ in range(euler_phi(order)))


def test_euler_phi_table():
    table = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 12: 4, 15: 8}
    for n, phi in table.items():
        assert euler_phi(n) == phi


def test_zeta_embeds_as_primitive_root():
    for order in (3, 4, 5, 12):
        z = embedded(CycArray.from_exponents(order, np.array([1])))[0]
        assert abs(z - cmath.exp(2j * cmath.pi / order)) < 1e-12
        assert abs(zeta_embeddings(order)[1] - z) < 1e-12


def test_root_of_unity_relations():
    for order in (3, 5, 7, 12):
        red = _reduction_table(order)
        z = zeta_embeddings(order)
        assert np.allclose(red @ z[:euler_phi(order)], z), "row j is not zeta^j"
        assert not red.sum(axis=0).any(), "sum of all order-th roots != 0"


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_ring_ops_match_complex_oracle(order):
    """The reference arithmetic the other tests compare against, and conj."""
    rng = np.random.default_rng(11 + order)
    counts = rng.integers(-3, 4, size=(2, 25, order))
    a, b = on_powers(order, Fraction(1, 2), counts[0]), on_powers(order, 1, counts[1])
    for x, y, ex, ey, cx in zip(values(a), values(b), embedded(a), embedded(b),
                                embedded(a.conj())):
        assert abs(embed(add(x, y)) - (ex + ey)) < 1e-10
        assert abs(embed(sub(x, y)) - (ex - ey)) < 1e-10
        assert abs(embed(mul(x, y)) - ex * ey) < 1e-10
        assert abs(cx - ex.conjugate()) < 1e-10


def test_exact_equality_is_not_float():
    # 1 + zeta + zeta^2 = 0 exactly in Q(zeta_3)
    assert not any(parse_cyclotomic("1/1*E(3)^0;1/1*E(3)^1;1/1*E(3)^2", 3))
    # a float-looking near-miss stays nonzero
    near = parse_cyclotomic(f"1/1*E(3)^0;1/1*E(3)^1;1/1*E(3)^2;1/{10 ** 12}*E(3)^0", 3)
    assert near == (Fraction(1, 10 ** 12), 0)


def test_parse_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        coeffs = rand_coeffs(rng, 6)
        assert parse_cyclotomic(format_cyclotomic(coeffs, 6), 6) == coeffs
    assert format_cyclotomic((Fraction(0), Fraction(0)), 3) == "0"


def test_parse_literals():
    assert parse_cyclotomic("0", 3) == (0, 0)
    assert parse_cyclotomic("1/1*E(3)^0", 3) == (1, 0)
    assert parse_cyclotomic("1/1*E(5)^2", 5) == (0, 0, 1, 0)
    assert parse_cyclotomic("-1/2*E(4)^1", 4) == (0, Fraction(-1, 2))
    assert parse_cyclotomic("1/3*E(3)^0;2/3*E(3)^1", 3) == (Fraction(1, 3), Fraction(2, 3))
    # non-canonical terms reduce: zeta^2 = zeta^-1 = -1 - zeta, repeated exponents add
    assert parse_cyclotomic("1/1*E(3)^2", 3) == (-1, -1)
    assert parse_cyclotomic("1/1*E(3)^-1", 3) == (-1, -1)
    assert parse_cyclotomic("1/2*E(3)^1;1/2*E(3)^1", 3) == (0, 1)


def test_parse_rejects_malformed():
    for bad in ("", "E(3)", "2**3", "1/0*E(3)^0", "q", "1/1*E(5)^0", "nonsense",
                "0;1/1*E(3)^0"):
        with pytest.raises(ValueError):
            parse_cyclotomic(bad, 3)


def test_rational_detection():
    """A rational value parses to its constant coefficient alone."""
    assert parse_cyclotomic("7/2*E(5)^0", 5) == (Fraction(7, 2), 0, 0, 0)
    assert parse_cyclotomic("1/1*E(3)^1;1/1*E(3)^2", 3) == (-1, 0)
    assert any(parse_cyclotomic("1/1*E(5)^1", 5)[1:])
