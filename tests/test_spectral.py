import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab.errors import SymbolClassError, SymbolDomainError
from spdelab.solver import _quad_grid
from spdelab.spectral import (
    Field,
    GridSpec,
    bessel_multiplier,
    multiplier_kernel,
    spatial_fft,
    spatial_irfft,
    spatial_rfft,
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
    spec = spatial_fft(f.values, grid)
    back = spatial_fft(spec, grid, inverse=True)
    assert np.allclose(back, f.values, atol=1e-12)
    assert np.sum(np.abs(spec) ** 2) == pytest.approx(
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
    in_place = spatial_fft(spec, grid, inverse=True, out=spec)
    assert np.shares_memory(in_place, spec)
    assert in_place.tobytes() == back.tobytes()


def test_symbol_at_zero_rule():
    phi = builtin_symbol("power", gamma=2.0, d=1)
    grid = GridSpec(d=1, n=8, L=2 * np.pi)
    vals = symbol_on_grid(phi, 0.0, grid)
    assert vals[0] == 0.0             # flat index 0 is xi = 0


def test_pseudo_diff_single_mode():
    # L_psi e^{i k x} = psi(k) e^{i k x}
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    x = grid.x_grid()[:, 0]
    f = np.exp(1j * 3 * x)[None, :]
    out = spatial_fft(spatial_fft(f, grid) * symbol_on_grid(psi, 0.0, grid),
                      grid, inverse=True)
    assert np.allclose(out, -9.0 * f, atol=1e-10)


def test_bessel_multiplier_single_mode():
    # (1 + |k|^2)^{alpha/2} scaling of a pure mode, exact
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    phi = builtin_symbol("power", gamma=2.0, d=1)
    x = grid.x_grid()[:, 0]
    f = np.exp(1j * 2 * x)[None, :]
    out = spatial_fft(spatial_fft(f, grid) * bessel_multiplier(phi, grid, 2.0),
                      grid, inverse=True)
    assert np.allclose(out, (1 + 4.0) * f, rtol=0.0, atol=1e-12)


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


def _evolved(psi, t, s, grid, f_hat):
    # T(t, s) on a spectrum: exp(int_s^t psi) times it
    return np.exp(symbol_time_integral(psi, t, s, grid)) * f_hat


def test_evolution_law_time_independent():
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    f_hat = spatial_fft(_random_field(grid, seed=2).values, grid)
    two = _evolved(psi, 0.9, 0.4, grid, _evolved(psi, 0.4, 0.1, grid, f_hat))
    one = _evolved(psi, 0.9, 0.1, grid, f_hat)
    assert np.linalg.norm(two - one) / np.linalg.norm(f_hat) <= 1e-12


def test_evolution_law_time_dependent_simpson():
    grid = GridSpec(d=1, n=32, L=2 * np.pi)
    psi = builtin_symbol("heat_osc", d=1)
    f_hat = spatial_fft(_random_field(grid, seed=4).values, grid)
    two = _evolved(psi, 1.0, 0.5, grid, _evolved(psi, 0.5, 0.0, grid, f_hat))
    one = _evolved(psi, 1.0, 0.0, grid, f_hat)
    assert np.linalg.norm(two - one) / np.linalg.norm(f_hat) <= 1e-6


def test_cumulative_integrals_compose_exactly():
    # shared quadrature cells make exp(cum[i] - cum[j]) an exact evolution
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    psi = builtin_symbol("heat_osc", d=1)
    times = np.linspace(0.0, 1.0, 9)
    cums = symbol_cumulative_integrals(psi, times, grid)
    via_cells = cums[3] + (cums[7] - cums[3])
    assert np.array_equal(via_cells, cums[7]) or np.allclose(
        via_cells, cums[7], atol=1e-15)


def _tdep_symbol(ev, primitive, d=1, at_zero=None):
    return SymbolSpec(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4,
                      primitive=primitive, d=d, at_zero=at_zero)


def _radial_over_norm(t, xi):
    # -(1 + cos^2 t) |xi|^2 / |xi| + i t |xi|: NaN at xi = 0 without at_zero
    r2 = np.sum(xi ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        return -(1.0 + np.cos(t) ** 2) * r2 / np.sqrt(r2) + 1j * t * np.sqrt(r2)


def _radial_over_norm_primitive(t, xi):
    # int_0^t (1 + cos^2 r) dr = 3t/2 + sin(2t)/4; NaN at xi = 0 as above
    r2 = np.sum(xi ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        return (-(1.5 * t + 0.25 * np.sin(2.0 * t)) * r2 / np.sqrt(r2)
                + 0.5j * t * t * np.sqrt(r2))


def _ignores_t_shape(t, xi):
    # np.max collapses a (K, 1) time column, so the result is (n_points,)
    return -(1.0 + np.sin(np.max(t)) ** 2) * np.sum(xi ** 2, axis=-1) + 0j


def _ignores_t_shape_primitive(t, xi):
    return -oracles.int_one_plus_sin_sq(np.max(t)) * np.sum(xi ** 2, axis=-1) + 0j


AT_ZERO = _tdep_symbol(_radial_over_norm, _radial_over_norm_primitive,
                       at_zero=0.0)
FALLBACK = _tdep_symbol(_ignores_t_shape, _ignores_t_shape_primitive)


def _cumulative_nodes(psi, times, grid):
    # the primitive at one time per call, its xi = 0 value t at_zero
    prim = np.stack([np.asarray(psi.primitive(t, grid.freq_grid()), dtype=complex)
                     for t in times])
    if psi.at_zero is not None:
        prim[:, 0] = times * psi.at_zero
    return prim - prim[0]


# the quadrature nodes of a 16-time, quad_refine 8 problem, solution times
# and subcell midpoints: per solution cell, 7 cells 1/128 wide between the
# midpoints and one 1/256 wide at each end
NARROW = _quad_grid(np.linspace(0.0, 1.0, 17), 8)[0]


@pytest.mark.parametrize("psi, d, times", [
    (builtin_symbol("heat_osc", d=1), 1, np.linspace(0.0, 1.0, 9)),
    (builtin_symbol("heat_osc", d=2), 2, np.linspace(0.0, 1.0, 9)),
    (AT_ZERO, 1, np.linspace(0.0, 1.0, 9)),
    (builtin_symbol("heat_osc", d=1), 1, np.array([0.0, 0.1, 0.35, 0.4, 0.9, 1.3])),
    (FALLBACK, 1, np.linspace(0.0, 1.0, 9)),
    (builtin_symbol("heat_osc", d=1), 1, NARROW),
], ids=["heat_osc-d1", "heat_osc-d2", "at_zero", "non-uniform", "fallback",
        "narrow"])
def test_cumulative_integrals_match_node_by_node(psi, d, times):
    # the one primitive call on the time column leaves every bit of the
    # calls one node at a time, and the table is the integral of psi: the
    # Simpson-64 rule per cell, and heat_osc's closed form
    grid = GridSpec(d=d, n=16, L=2 * np.pi)
    table = symbol_cumulative_integrals(psi, times, grid)
    assert np.array_equal(table, _cumulative_nodes(psi, times, grid))
    cells = [oracles.simpson_rule(psi, b, a, grid, 64)
             for a, b in zip(times[:-1], times[1:])]
    simpson = np.concatenate([np.zeros((1, grid.n_points)), np.cumsum(cells, axis=0)])
    assert np.max(np.abs(table - simpson)) <= 1e-9 * np.max(np.abs(table))
    if psi.name == "heat_osc":
        k2 = np.sum(grid.freq_grid() ** 2, axis=-1)
        closed = -(oracles.int_one_plus_sin_sq(times)
                   - oracles.int_one_plus_sin_sq(times[0]))[:, None] * k2
        assert np.max(np.abs(table - closed)) <= 1e-14 * np.max(np.abs(closed))


def test_table_rejects_psi_whose_integral_grows_between_its_nodes():
    # +50 on (0.3, 0.32) only, between the nodes 0.25 and 0.375, where it
    # outweighs -|xi|^2 for |xi| <= 3: psi passes the sign check at every
    # node, and the integral over the cell has a positive real part
    def ev(t, xi):
        window = (t > 0.3) & (t < 0.32)
        return np.where(window, 50.0, -np.sum(xi ** 2, axis=-1)) + 0j

    def primitive(t, xi):
        inside = np.clip(t, 0.3, 0.32) - 0.3
        return 50.0 * inside - (t - inside) * np.sum(xi ** 2, axis=-1) + 0j
    psi = _tdep_symbol(ev, primitive)
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    times = np.linspace(0.0, 1.0, 9)
    symbol_on_grid(psi, times, grid, class_s=True)
    with pytest.raises(SymbolClassError, match="between t=0.25 and t=0.375"):
        symbol_cumulative_integrals(psi, times, grid)
    with pytest.raises(SymbolClassError):
        symbol_time_integral(psi, 0.375, 0.25, grid)
    symbol_cumulative_integrals(psi, times[times <= 0.25], grid)


def test_symbol_on_grid_time_column():
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    times = np.array([0.0, 0.3, 0.7])
    for psi in (AT_ZERO, FALLBACK):
        vals = symbol_on_grid(psi, times, grid)
        assert vals.shape == (3, grid.n_points)
        for row, t in zip(vals, times):
            assert np.array_equal(row, symbol_on_grid(psi, t, grid))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(-1.0, np.nan)],
                         ids=["real", "imag"])
def test_nan_on_the_grid_raises(bad):
    def ev(t, xi):
        r2 = np.sum(xi ** 2, axis=-1)
        return np.where(r2 == 9.0, bad, -r2 + 0j * t)
    grid = GridSpec(d=1, n=16, L=2 * np.pi)
    psi = _tdep_symbol(ev, lambda t, xi: t * ev(t, xi))
    for t, class_s in ((0.3, False), (np.array([0.1, 0.2]), True)):
        with pytest.raises(SymbolDomainError):
            symbol_on_grid(psi, t, grid, class_s=class_s)


def test_kernel_p_psi_mass():
    # Riemann sum of the kernel equals the multiplier at xi = 0 (here e^0 = 1)
    grid = GridSpec(d=1, n=128, L=4 * np.pi)
    psi = builtin_symbol("heat", gamma=2.0, d=1)
    ker = multiplier_kernel(np.exp(symbol_time_integral(psi, 0.3, 0.0, grid)),
                            grid)
    mass = np.sum(ker).real * grid.cell_volume
    assert mass == pytest.approx(1.0, abs=1e-12)
    # heat kernel: compare against the Gaussian closed form at a few points
    x = grid.x_grid()[:, 0]
    xc = np.minimum(x, grid.L - x)
    want = np.exp(-xc ** 2 / (4 * 0.3)) / np.sqrt(4 * np.pi * 0.3)
    err = np.max(np.abs(ker.real - want))
    assert err < 1e-10


# ---------------------------------------------------------------------------
# the real-to-complex half spectrum


@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_spectrum_transform_pair(d):
    # spatial_rfft keeps spatial_fft's values at the half grid's
    # frequencies; spatial_irfft inverts it into a strided real view
    grid = GridSpec(d=d, n=8, L=3.0)
    x = np.random.default_rng(d).standard_normal((4, 2, grid.n_points))
    half = spatial_rfft(x, grid)
    kept = spatial_fft(x, grid).reshape((4, 2) + grid.shape)[..., :grid.n // 2 + 1]
    assert half.shape == (4, 2, grid.half.n_points)
    assert np.max(np.abs(half - kept.reshape(half.shape))) < 1e-14
    freqs = grid.freq_grid().reshape(grid.shape + (d,))[..., :grid.n // 2 + 1, :]
    assert np.array_equal(grid.half.freq_grid(), freqs.reshape(-1, d))
    out = np.zeros((4, 3, 2, grid.n_points))
    spatial_irfft(half, grid, out=out[:, 1])
    assert np.max(np.abs(out[:, 1] - x)) < 1e-14
    assert not out[:, 0].any() and not out[:, 2].any()


def test_half_grid_table_is_the_full_table_at_the_kept_frequencies():
    # the quadrature table of the sim-pathwise-tdep benchmark problem,
    # heat_osc on the 64^2 grid over 16 cells refined 8x: bit for bit
    grid = GridSpec(d=2, n=64, L=2.0 * np.pi)
    psi = builtin_symbol("heat_osc", d=2)
    q_grid = _quad_grid(np.linspace(0.0, 1.0, 17), 8)[0]
    full = symbol_cumulative_integrals(psi, q_grid, grid)
    half = symbol_cumulative_integrals(psi, q_grid, grid.half)
    kept = full.reshape((len(q_grid),) + grid.shape)[..., :grid.n // 2 + 1]
    assert np.array_equal(half, kept.reshape(half.shape))
