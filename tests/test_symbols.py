import json

import numpy as np
import pytest

import oracles
from spdelab import battery, symbols
from spdelab.symbols import (
    SymbolSpec,
    builtin_symbol,
    check_marcinkiewicz,
    check_mihlin,
    coordinate_symbol,
    fd_partial,
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


def _sqrt_first(d):
    """m(xi) = sqrt(xi_1): NaN wherever xi_1 < 0, so every scan meets NaN
    derivatives, read as inf, and ties among them."""
    return SymbolSpec(eval=lambda t, xi: np.sqrt(xi[..., 0]), gamma=1.0,
                      kappa=1.0, mu=1.0, n_depth=4, d=d, name="sqrt")


def _battery_symbols():
    """Each multiplier_battery symbol at d = 1, 2 and 3 once (the rectangle
    and failing cases are the same at every d), and the NaN symbol."""
    cases = {}
    for d in (1, 2, 3):
        for group in battery.multiplier_battery(d=d):
            cases.update({f"{name}-d{sym.d}": sym for name, sym in group})
    cases.update({f"sqrt-d{d}": _sqrt_first(d) for d in (1, 2)})
    return cases


BATTERY_SYMBOLS = _battery_symbols()


def _bits(report):
    # json repr is exact for floats and tells inf, -0.0 and 0.0 apart
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(BATTERY_SYMBOLS))
def test_mihlin_equals_loop_oracle(case):
    sym = BATTERY_SYMBOLS[case]
    assert _bits(check_mihlin(sym)) == _bits(oracles.mihlin_loops(sym))


# the rectangle scan at d = 3 makes 4,096 rectangles of 13,824 points for
# the full subset, some 20 s per symbol; multiplier_battery's rectangle
# case is 2-D, so the d = 3 symbols run only the Mihlin comparison
@pytest.mark.parametrize("case", sorted(c for c, sym in BATTERY_SYMBOLS.items()
                                        if sym.d <= 2))
def test_marcinkiewicz_equals_loop_oracle(case):
    sym = BATTERY_SYMBOLS[case]
    assert _bits(check_marcinkiewicz(sym)) == \
        _bits(oracles.marcinkiewicz_loops(sym))


def test_nan_derivatives_read_as_inf_and_fail():
    # the first NaN point wins the tie: later ones are not strictly above
    for check in (check_mihlin, check_marcinkiewicz):
        rep = check(_sqrt_first(2))
        assert rep.worst_constant == np.inf and not rep.passed
        assert rep.worst_location[1][0] < 0


def test_marcinkiewicz_one_fd_partial_call_per_rectangle(monkeypatch):
    # one call for the boundedness scan and one per (subset, rectangle),
    # 1 + 2 * 16 + 16^2 = 289 at d = 2; a call per frozen value and sign
    # pattern made 1,664
    calls = []

    def counted(fun, xi, alpha):
        calls.append(alpha)
        return fd_partial(fun, xi, alpha)
    monkeypatch.setattr(symbols, "fd_partial", counted)
    n_rect = symbols.DYADIC_HI - symbols.DYADIC_LO
    assert check_marcinkiewicz(product_power_symbol((1.0, 1.0))).passed
    assert len(calls) <= 1 + 2 * n_rect + n_rect ** 2 == 289


def test_samples_used_counts_the_sampled_frequencies():
    # Mihlin: 17 radii x 8 directions.  Marcinkiewicz adds the rectangle
    # nodes: 2 axes x 16 sides x 10 frozen values x 2 signs x 12 nodes, and
    # 16^2 rectangles x 4 sign patterns x 12^2 nodes
    sym = product_power_symbol((1.0, 1.0))
    assert check_mihlin(sym).samples_used == 136
    assert check_marcinkiewicz(sym).samples_used == 136 + 7_680 + 147_456
