import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab.spectral import (
    Field,
    GridSpec,
    apply_multiplier,
    apply_pseudo_diff,
    bessel_norm,
    evolution_apply,
    evolution_multiplier,
    field_from_bytes,
    field_to_bytes,
    field_to_csv,
    forward_transform,
    inverse_transform,
    kernel_p_psi,
    lp_norm,
    spatial_fft,
    symbol_cumulative_integrals,
    symbol_on_grid,
    symbol_time_integral,
)
from spdelab.symbols import SymbolSpec, builtin_symbol


def _random_field(grid, m=1, seed=0):
    gen = np.random.default_rng(seed)
    vals = gen.standard_normal((m, grid.n_points)) \
        + 1j * gen.standard_normal((m, grid.n_points))
    return Field(grid, m, vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(d=1, n=48, L=1.0)     # not a power of two
    with pytest.raises(ValueError):
        GridSpec(d=0, n=8, L=1.0)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_parseval_roundtrip(seed, d):
    grid = GridSpec(d=d, n=16, L=3.0)
    f = _random_field(grid, m=2, seed=seed)
    spec = forward_transform(f)
    back = inverse_transform(spec)
    assert np.allclose(back.values, f.values, atol=1e-12)
    assert np.sum(np.abs(spec.values) ** 2) == pytest.approx(
        np.sum(np.abs(f.values) ** 2))


def test_spatial_fft_over_trailing_axis():
    # batch axes lead, the d = 2 grid is the flattened trailing axis
    grid = GridSpec(d=2, n=8, L=3.0)
    gen = np.random.default_rng(1)
    arr = gen.standard_normal((2, 3, grid.n_points)) \
        + 1j * gen.standard_normal((2, 3, grid.n_points))
    want = np.fft.fftn(arr.reshape(2, 3, 8, 8), axes=(2, 3), norm="ortho")
    spec = spatial_fft(arr, grid)
    assert spec.shape == arr.shape
    assert np.array_equal(spec, want.reshape(2, 3, -1))
    back = spatial_fft(spec, grid, inverse=True)
    assert np.allclose(back, arr, atol=1e-13)


def test_symbol_at_zero_rule():
    phi = builtin_symbol("power", gamma=2.0, d=1)
    grid = GridSpec(d=1, n=8, L=2 * np.pi)
    vals = symbol_on_grid(phi, 0.0, grid)
    assert vals[0] == 0.0             # flat index 0 is xi = 0


def test_constant_multiplier_identity():
    grid = GridSpec(d=2, n=8, L=1.0)
    f = _random_field(grid, m=1, seed=5)
    out = apply_multiplier(f, np.ones(grid.n_points) + 0j)
    assert np.allclose(out.values, f.values, atol=1e-13)


def test_pseudo_diff_single_mode():
    # L_psi e^{i k x} = psi(k) e^{i k x}
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    x = grid.x_grid()[:, 0]
    f = Field(grid, 1, np.exp(1j * 3 * x)[None, :])
    out = apply_pseudo_diff(psi, 0.0, f)
    assert np.allclose(out.values, -9.0 * f.values, atol=1e-10)


def test_lp_norm_riemann():
    grid = GridSpec(d=1, n=64, L=2 * np.pi)
    f = Field(grid, 1, np.ones((1, grid.n_points), dtype=complex))
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(2 * np.pi))
    assert lp_norm(f, np.inf) == pytest.approx(1.0)


def test_bessel_norm_single_mode():
    # (1 + |k|^2)^{alpha/2} scaling of a pure mode, exact
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    phi = builtin_symbol("power", gamma=2.0, d=1)
    x = grid.x_grid()[:, 0]
    f = Field(grid, 1, np.exp(1j * 2 * x)[None, :])
    assert bessel_norm(f, phi, 2.0, 2.0) == pytest.approx(
        (1 + 4.0) * lp_norm(f, 2.0), rel=1e-12)


def test_time_integral_exact_for_time_independent():
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    vals = symbol_time_integral(psi, 0.8, 0.3, grid)
    assert np.allclose(vals, 0.5 * symbol_on_grid(psi, 0.0, grid))


def test_time_integral_simpson_vs_closed_form():
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    psi = builtin_symbol("heat_osc", d=1)
    t, s = 0.9, 0.2
    vals = symbol_time_integral(psi, t, s, grid)
    k = grid.freq_grid()[:, 0]
    want = -(oracles.int_one_plus_sin_sq(t) - oracles.int_one_plus_sin_sq(s)) * k ** 2
    assert np.max(np.abs(vals - want) / (1.0 + np.abs(want))) < 1e-8


def test_evolution_law_time_independent():
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    f = _random_field(grid, seed=2)
    two = evolution_apply(psi, 0.9, 0.4, evolution_apply(psi, 0.4, 0.1, f))
    one = evolution_apply(psi, 0.9, 0.1, f)
    num = np.sqrt(np.sum(np.abs(two.values - one.values) ** 2))
    den = np.sqrt(np.sum(np.abs(f.values) ** 2))
    assert num / den <= 1e-12


def test_evolution_law_time_dependent_simpson():
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat_osc", d=1)
    f = _random_field(grid, seed=4)
    two = evolution_apply(psi, 1.0, 0.5, evolution_apply(psi, 0.5, 0.0, f))
    one = evolution_apply(psi, 1.0, 0.0, f)
    num = np.sqrt(np.sum(np.abs(two.values - one.values) ** 2))
    den = np.sqrt(np.sum(np.abs(f.values) ** 2))
    assert num / den <= 1e-6


def test_cumulative_integrals_compose_exactly():
    # shared quadrature cells make exp(cum[i] - cum[j]) an exact evolution
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    psi = builtin_symbol("heat_osc", d=1)
    times = np.linspace(0.0, 1.0, 9)
    cums = symbol_cumulative_integrals(psi, times, grid)
    via_cells = cums[3] + (cums[7] - cums[3])
    assert np.array_equal(via_cells, cums[7]) or np.allclose(
        via_cells, cums[7], atol=1e-15)


def _cumulative_nodes(psi, times, grid):
    out = np.zeros((len(times), grid.n_points), dtype=complex)
    for i in range(1, len(times)):
        out[i] = out[i - 1] + oracles.symbol_time_integral_nodes(
            psi, times[i], times[i - 1], grid)
    return out


def _tdep_symbol(ev, d=1, at_zero=None):
    return SymbolSpec(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4,
                      time_dependent=True, d=d, at_zero=at_zero)


def _radial_over_norm(t, xi):
    # -(1 + cos^2 t) |xi|^2 / |xi| + i t |xi|: NaN at xi = 0 without at_zero
    r2 = np.sum(xi ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        return -(1.0 + np.cos(t) ** 2) * r2 / np.sqrt(r2) + 1j * t * np.sqrt(r2)


def _ignores_t_shape(t, xi):
    # np.max collapses a (K, 1) time column, so the result is (n_points,)
    return -(1.0 + np.sin(np.max(t)) ** 2) * np.sum(xi ** 2, axis=-1) + 0j


@pytest.mark.parametrize("psi, d, times", [
    (builtin_symbol("heat_osc", d=1), 1, np.linspace(0.0, 1.0, 9)),
    (builtin_symbol("heat_osc", d=2), 2, np.linspace(0.0, 1.0, 9)),
    (_tdep_symbol(_radial_over_norm, at_zero=0.0), 1, np.linspace(0.0, 1.0, 9)),
    (builtin_symbol("heat_osc", d=1), 1, np.array([0.0, 0.1, 0.35, 0.4, 0.9, 1.3])),
    (_tdep_symbol(_ignores_t_shape), 1, np.linspace(0.0, 1.0, 9)),
], ids=["heat_osc-d1", "heat_osc-d2", "at_zero", "non-uniform", "fallback"])
def test_cumulative_integrals_match_node_by_node(psi, d, times):
    # one batched symbol evaluation per Simpson cell leaves every bit in place
    grid = GridSpec(d=d, n=16, L=2 * np.pi)
    assert np.array_equal(symbol_cumulative_integrals(psi, times, grid),
                          _cumulative_nodes(psi, times, grid))


def test_symbol_on_grid_time_column():
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    times = np.array([0.0, 0.3, 0.7])
    for psi in (_tdep_symbol(_radial_over_norm, at_zero=0.0),
                _tdep_symbol(_ignores_t_shape)):
        vals = symbol_on_grid(psi, times, grid)
        assert vals.shape == (3, grid.n_points)
        for row, t in zip(vals, times):
            assert np.array_equal(row, symbol_on_grid(psi, t, grid))


def test_kernel_p_psi_mass():
    # Riemann sum of the kernel equals the multiplier at xi = 0 (here e^0 = 1)
    grid = GridSpec(d=1, n=128, L=4 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    ker = kernel_p_psi(psi, 0.3, 0.0, grid)
    mass = np.sum(ker.values[0]).real * grid.cell_volume
    assert mass == pytest.approx(1.0, abs=1e-12)
    # heat kernel: compare against the Gaussian closed form at a few points
    x = grid.x_grid()[:, 0]
    xc = np.minimum(x, grid.L - x)
    want = np.exp(-xc ** 2 / (4 * 0.3)) / np.sqrt(4 * np.pi * 0.3)
    err = np.max(np.abs(ker.values[0].real - want))
    assert err < 1e-10


def test_field_bytes_roundtrip():
    grid = GridSpec(d=1, n=8, L=1.0)
    f = _random_field(grid, m=2, seed=9)
    buf = field_to_bytes(f, dtype_code=1)
    g = field_from_bytes(buf)
    assert g.grid == grid and g.m == 2
    assert np.array_equal(g.values, f.values)
    # lossy code-0 roundtrip stays within float32 precision
    g32 = field_from_bytes(field_to_bytes(f, dtype_code=0))
    assert np.allclose(g32.values, f.values, rtol=1e-6, atol=1e-6)


def test_field_csv_rfc4180():
    grid = GridSpec(d=1, n=4, L=1.0)
    f = Field(grid, 1, np.arange(4, dtype=complex)[None, :])
    sink = io.StringIO()
    field_to_csv(f, sink)
    text = sink.getvalue()
    assert "\r\n" in text
    assert text.splitlines()[0] == "x0,re0,im0"
