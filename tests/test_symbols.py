import numpy as np
import pytest

import oracles
from spdelab.symbols import (
    SymbolSpec,
    builtin_symbol,
    check_marcinkiewicz,
    check_mihlin,
    coordinate_symbol,
    log_symbol,
    m1_symbol,
    m2_symbol,
    m3_symbol,
    product_power_symbol,
    sum_in_order,
)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("shape", [(5,), (1000,), (7, 40)])
def test_sum_in_order_is_np_sum_over_short_axes(shape, m):
    # np.sum adds fewer than 8 entries in index order: the bits agree
    x = np.random.default_rng(m).standard_normal(shape + (m,)) \
        * 10.0 ** np.arange(-6, 6, 12 / m)
    assert np.array_equal(sum_in_order(x), np.sum(x, axis=-1))


def test_a_symbol_with_a_primitive_is_time_dependent():
    def ev(t, xi):
        return -np.sum(xi ** 2, axis=-1) + 0j
    spec = dict(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4, d=1)
    assert not SymbolSpec(**spec).time_dependent
    psi = SymbolSpec(**spec, primitive=lambda t, xi: t * ev(t, xi))
    assert psi.time_dependent
    assert builtin_symbol("heat_osc").time_dependent
    assert not builtin_symbol("heat").time_dependent


def test_power_symbol_values():
    phi = builtin_symbol("power", gamma=2.0, d=1)
    xi = np.array([[1.0], [-2.0], [3.0]])
    assert np.allclose(phi.eval(0.0, xi), [1.0, 4.0, 9.0])
    assert phi.eval(0.0, np.zeros((1, 1)))[0] == 0.0


def test_heat_symbol_is_minus_power():
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    xi = np.array([[1.5], [0.5]])
    assert np.allclose(psi.eval(0.0, xi), [-2.25, -0.25])


def test_mihlin_passes_rational_family():
    phi = builtin_symbol("power", gamma=2.0, d=1)
    psi = builtin_symbol("power", gamma=2.0, d=1)
    for t_exp, s_exp in [(0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]:
        assert check_mihlin(m1_symbol(phi, s_exp)).passed
        assert check_mihlin(m2_symbol(phi, psi, t_exp, s_exp)).passed
        assert check_mihlin(m3_symbol(phi, psi, t_exp, s_exp)).passed


def test_mihlin_fails_unbounded():
    assert not check_mihlin(coordinate_symbol(0, d=2)).passed
    assert not check_mihlin(log_symbol(d=1)).passed


def test_marcinkiewicz_passes_product_power():
    rep = check_marcinkiewicz(product_power_symbol((1.0, 1.0)))
    assert rep.passed


def test_marcinkiewicz_fails_coordinate():
    assert not check_marcinkiewicz(coordinate_symbol(0, d=2)).passed


def test_oscillating_heat_time_profile():
    # psi(t, xi) = -(1 + sin^2 t)|xi|^2: factor at a sample point/time
    psi = builtin_symbol("heat_osc", d=1)
    xi = np.array([[2.0]])
    t = 0.7
    assert np.allclose(psi.eval(t, xi), -(1.0 + np.sin(t) ** 2) * 4.0)
    # its exact time integral drives the evolution tests
    assert oracles.int_one_plus_sin_sq(0.9) == pytest.approx(
        1.5 * 0.9 - 0.25 * np.sin(1.8))
