from pathlib import Path

import numpy as np
import pytest

import oracles
from spdelab import cli, covariance, solver, spectral
from spdelab.covariance import builtin_kernel
from spdelab.errors import HypothesisViolationError, SymbolClassError
from spdelab.gaussian import QSpec
from spdelab.solver import (
    SPDEProblem,
    deterministic_forced,
    deterministic_homogeneous,
    ensemble_summary_rows,
    mode_residual,
    solve,
    stochastic_convolution_modewise,
    stochastic_convolution_pathwise,
)
from spdelab.spectral import Field, GridSpec, spatial_fft, symbol_on_grid
from spdelab.symbols import SymbolSpec, builtin_symbol

WIENER = builtin_kernel("wiener")
HEAT = builtin_symbol("heat", gamma=2.0)
GRID = GridSpec(d=1, n=32, L=2.0 * np.pi)


def _mode_field(grid, k=3, m=1):
    x = np.arange(grid.n) * grid.L / grid.n
    vals = np.tile(np.exp(1j * k * x), (m, 1))
    return Field(grid, m, vals)


def _problem(times=None, f=None, g=None, u0=None, psi=HEAT, J=1, **kw):
    if times is None:
        times = np.linspace(0.0, 0.5, 9)
    if u0 is None:
        u0 = _mode_field(GRID)
    return SPDEProblem(psi=psi, u0=u0, kernel=WIENER,
                       q=QSpec((1.0,) * J), times=np.asarray(times),
                       f=f, g=g, **kw)


def _constant_g(problem_times, grid, J=1, k=2, amp=1.0):
    x = np.arange(grid.n) * grid.L / grid.n
    prof = amp * np.exp(1j * k * x)
    g = np.tile(prof, (len(problem_times) - 1, 1, J, 1))
    return g


# ---------------------------------------------------------------------------
# validation


def test_problem_validation():
    with pytest.raises(ValueError):
        _problem(times=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        _problem(times=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        _problem(f=np.zeros((3, 1, 32)))     # wrong n_times
    with pytest.raises(ValueError):
        _problem(g=np.zeros((8, 1, 2, 32)))  # wrong J
    with pytest.raises(ValueError):
        _problem(quad_refine=0)


def test_problem_takes_a_kernel_with_r_above_2():
    # the problem holds only the equation: the a-priori check's
    # p >= q >= max(2, r) refused this kernel at p = q = 2
    kernel = builtin_kernel("heat", delta=1.0, r_exp=3.0)
    pb = SPDEProblem(psi=HEAT, u0=_mode_field(GRID), kernel=kernel,
                     q=QSpec((1.0,)), times=np.linspace(0.0, 0.5, 9))
    assert pb.kernel.r_exp == 3.0


def test_problem_rejects_growing_psi():
    with pytest.raises(SymbolClassError):
        _problem(psi=builtin_symbol("wrong_sign", gamma=2.0))
    # negative at t = 0 but growing from t = 0.25 on: every solution time counts
    late = SymbolSpec(
        eval=lambda t, xi: (t - 0.25) * np.sum(xi ** 2, axis=-1) + 0j,
        gamma=2.0, kappa=1.0, mu=1.0, n_depth=4, d=1,
        primitive=lambda t, xi: (0.5 * t - 0.25) * t * np.sum(xi ** 2, axis=-1) + 0j)
    with pytest.raises(SymbolClassError):
        _problem(psi=late)
    _problem(psi=late, times=np.linspace(0.0, 0.25, 5))


def _symbol(ev, primitive=None, d=1):
    return SymbolSpec(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4,
                      primitive=primitive, d=d)


def _transport(t, xi):
    # -|xi|^2 + i xi_0, with xi_0 = 0 on the Nyquist frequencies, where -xi
    # is xi itself on the grid: Hermitian there too
    r2 = np.sum(xi ** 2, axis=-1)
    nyquist = np.max(np.abs(xi[..., 0]))
    return -r2 + 1j * np.where(np.abs(xi[..., 0]) < nyquist, xi[..., 0], 0.0)


def test_problem_rejects_non_hermitian_psi():
    # each damps every mode (Re psi <= 0), but psi(-xi) != conj psi(xi) on
    # the grid, so the solution of real data would not be real
    def radial(t, xi):
        r = np.sqrt(np.sum(xi ** 2, axis=-1))
        return -r * r - 1j * r

    def odd(t, xi):                 # Hermitian but at the Nyquist frequency
        return -np.sum(xi ** 2, axis=-1) + 1j * xi[..., 0]

    def late(t, xi):                # Hermitian at t = 0 only
        return radial(t, xi).real + 1j * t * radial(t, xi).imag

    def late_primitive(t, xi):
        return t * radial(t, xi).real + 0.5j * t * t * radial(t, xi).imag
    for psi in (_symbol(radial), _symbol(odd), _symbol(late, late_primitive)):
        with pytest.raises(SymbolClassError, match="Hermitian"):
            _problem(psi=psi)
    _problem(psi=_symbol(_transport))


def test_solve_rejects_psi_growing_between_solution_times():
    # +5 on (0.52, 0.545) only: no solution time of linspace(0, 1, 17)
    # lands there, but the integral over the cell [0.5, 0.5625] grows
    def ev(t, xi):
        window = (t > 0.52) & (t < 0.545)
        return np.where(window, 5.0, -np.sum(xi ** 2, axis=-1)) + 0j

    def primitive(t, xi):
        inside = np.clip(t, 0.52, 0.545) - 0.52
        return 5.0 * inside - (t - inside) * np.sum(xi ** 2, axis=-1) + 0j
    spike = SymbolSpec(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4,
                       primitive=primitive, d=1)
    pb = _problem(psi=spike, times=np.linspace(0.0, 1.0, 17))
    with pytest.raises(SymbolClassError):
        solve(pb, 2, seed=0)


def test_pathwise_solve_builds_each_table_once(monkeypatch):
    calls = {"symbol_cumulative_integrals": 0, "symbol_on_grid": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(solver, "symbol_cumulative_integrals")
    counted(spectral, "symbol_on_grid")
    times = np.linspace(0.0, 0.5, 5)
    f = np.tile(_mode_field(GRID).values, (len(times), 1, 1))
    pb = _problem(times=times, psi=builtin_symbol("heat_osc", gamma=2.0),
                  f=f, g=_constant_g(times, GRID), quad_refine=2)
    solve(pb, 2, seed=0, estimator="pathwise")
    assert calls["symbol_cumulative_integrals"] == 2
    # one class-S check on every node of each table, and one on the
    # solution times when the problem is built
    assert calls["symbol_on_grid"] == 2 + 1


def test_real_data_scans_the_data_once_per_problem(monkeypatch):
    class CountingNumpy:
        """numpy, with its calls to `any` counted."""
        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def any(self, *args, **kwargs):
            CountingNumpy.calls += 1
            return np.any(*args, **kwargs)

    times = np.linspace(0.0, 0.5, 9)
    u0 = Field(GRID, 1, _mode_field(GRID).values.real)
    f = np.tile(u0.values, (len(times), 1, 1))
    pb = _problem(times=times, u0=u0, f=f, g=_constant_g(times, GRID).real)
    monkeypatch.setattr(solver, "np", CountingNumpy())
    ens = solve(pb, 2, seed=0, estimator="pathwise")
    for _ in ens.time_slices():
        pass
    # one scan of each of u0, f and g, not one per solution time
    assert pb.real_data and CountingNumpy.calls == 3


# ---------------------------------------------------------------------------
# deterministic parts against closed forms


def test_homogeneous_time_independent_exact():
    pb = _problem()
    out = deterministic_homogeneous(pb)
    x = np.arange(GRID.n) * GRID.L / GRID.n
    for i, t in enumerate(pb.times):
        want = np.exp(-9.0 * t) * np.exp(1j * 3 * x)
        assert np.max(np.abs(out[i, 0] - want)) < 1e-12


def test_homogeneous_time_dependent_oracle():
    pb = _problem(psi=builtin_symbol("heat_osc", gamma=2.0))
    out = deterministic_homogeneous(pb)
    x = np.arange(GRID.n) * GRID.L / GRID.n
    for i, t in enumerate(pb.times):
        want = np.exp(-9.0 * oracles.int_one_plus_sin_sq(t)) * np.exp(1j * 3 * x)
        assert np.max(np.abs(out[i, 0] - want)) < 1e-6


def test_forced_mode_oracle_and_trapezoid_rate():
    # f = e^{i2x}, constant in time; the forced mode obeys the closed form
    k = 2
    psik = -float(k * k)
    errs = []
    for n_t in (9, 17, 33):
        times = np.linspace(0.0, 0.5, n_t)
        f = np.tile(np.exp(1j * k * np.arange(GRID.n) * GRID.L / GRID.n),
                    (n_t, 1, 1))
        pb = _problem(times=times, u0=Field.zeros(GRID), f=f)
        out = deterministic_forced(pb)
        x = np.arange(GRID.n) * GRID.L / GRID.n
        want = oracles.forced_mode(psik, 1.0, 0.5) * np.exp(1j * k * x)
        errs.append(np.max(np.abs(out[-1, 0] - want)))
    assert errs[-1] < 5e-4
    # composite trapezoid converges at second order
    assert 3.0 < errs[0] / errs[1] < 5.2
    assert 3.0 < errs[1] / errs[2] < 5.2


def test_zero_problem_reduces_to_homogeneous():
    pb = _problem()
    for est in ("modewise", "pathwise"):
        ens = solve(pb, 4, seed=3, estimator=est)
        det = deterministic_homogeneous(pb)
        assert ens.samples.shape == (4, 9, 1, 32)
        assert np.max(np.abs(ens.samples - det[None])) == 0.0
        assert np.max(np.var(ens.samples, axis=0)) == 0.0


# ---------------------------------------------------------------------------
# stochastic convolution


def test_solution_linear_in_g_per_draw():
    times = np.linspace(0.0, 0.5, 9)
    g1 = _constant_g(times, GRID)
    pb1 = _problem(times=times, g=g1)
    pb2 = _problem(times=times, g=2.0 * g1)
    for est in ("modewise", "pathwise"):
        a = solve(pb1, 16, seed=5, estimator=est)
        b = solve(pb2, 16, seed=5, estimator=est)
        det = deterministic_homogeneous(pb1)
        assert np.allclose(b.samples - det[None], 2.0 * (a.samples - det[None]),
                           atol=1e-12)


def test_solve_deterministic_reproducible():
    times = np.linspace(0.0, 0.5, 9)
    pb = _problem(times=times, g=_constant_g(times, GRID))
    a = solve(pb, 8, seed=11, estimator="modewise")
    b = solve(pb, 8, seed=11, estimator="modewise")
    c = solve(pb, 8, seed=12, estimator="modewise")
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_estimators_match_ito_mode_variance():
    # per-mode variance at the final time against the Ito closed form
    k = 2
    times = np.linspace(0.0, 0.5, 9)
    g = _constant_g(times, GRID, k=k)
    pb = _problem(times=times, u0=Field.zeros(GRID), g=g)
    want = oracles.ito_mode_variance(-float(k * k), 1.0, 0.5)
    n = 4000
    for est in ("modewise", "pathwise"):
        ens = solve(pb, n, seed=7, estimator=est)
        uhat = spatial_fft(ens.samples, GRID)
        # physical mode amplitude: undo the unitary-FFT sqrt(n) factor
        mode = uhat[:, -1, 0, k] / np.sqrt(GRID.n)
        var = float(np.mean(np.abs(mode) ** 2))
        se = want * np.sqrt(2.0 / n)
        assert abs(var - want) < 4 * se + 1e-3 * want, est


def test_ell2_contraction_heat():
    pb = _problem(u0=Field(GRID, 1, np.exp(
        1j * 3 * np.arange(GRID.n) * GRID.L / GRID.n)[None, :] + 0.5))
    out = deterministic_homogeneous(pb)
    norms = [np.linalg.norm(out[i]) for i in range(len(pb.times))]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# one cell at a time against the sums over every earlier node and subcell

_TIMES = {"uniform": np.linspace(0.0, 0.5, 7),
          "nonuniform": np.array([0.0, 0.04, 0.1, 0.23, 0.25, 0.4, 0.5])}
_KERNELS = {"wiener": WIENER, "fbm": builtin_kernel("fbm", H=0.75)}


def _varied_problem(psi, times, m, J, quad_refine, kernel):
    """f, g and u0 that vary over time, component, factor and mode."""
    t = _TIMES[times]
    x = np.arange(GRID.n) * GRID.L / GRID.n
    comp = np.arange(1, m + 1)[:, None]
    f = (1.0 + t)[:, None, None] * np.exp(1j * comp * x)[None] \
        + np.cos(2 * x[None, None, :] + t[:, None, None])
    cell = np.arange(len(t) - 1)[:, None, None, None]
    fac = np.arange(1, J + 1)[None, None, :, None]
    g = (1.0 + cell) / fac * (np.cos(comp[None, :, :, None] * x)
                              + 0.5 * np.sin((fac + 1) * x + cell))
    return SPDEProblem(psi=builtin_symbol(psi, gamma=2.0),
                       u0=Field(GRID, m, np.cos(comp * x)), kernel=_KERNELS[kernel],
                       q=QSpec(tuple(1.0 / np.arange(1, J + 1))), times=t,
                       f=f, g=g, quad_refine=quad_refine)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("psi,times,m,J,quad_refine,kernel", [
    ("heat", "uniform", 1, 1, 1, "wiener"),
    ("heat", "nonuniform", 2, 2, 3, "fbm"),
    ("heat_osc", "nonuniform", 2, 2, 1, "wiener"),
    ("heat_osc", "uniform", 1, 2, 3, "fbm"),
])
def test_cell_steps_match_pair_oracles(psi, times, m, J, quad_refine, kernel):
    pb = _varied_problem(psi, times, m, J, quad_refine, kernel)
    assert _rel(deterministic_forced(pb), oracles.forced_trapezoid(pb)) < 1e-12
    # the stochastic convolution alone: the slices on a zero deterministic part
    paths, slices = stochastic_convolution_pathwise(pb, 6, seed=4)
    zero = np.zeros((pb.n_times, pb.m, pb.grid.n_points))
    assert _rel(solver._stacked(slices(zero), pb.n_times),
                oracles.pathwise_masked(pb, np.diff(paths.paths, axis=-1))) < 1e-12
    assert np.array_equal(stochastic_convolution_modewise(pb, 5, seed=9),
                          oracles.modewise_masked(pb, 5, seed=9))


def _wave_data(grid, times, data, m=2, J=2):
    """u0, f and g varying over time, component, factor and mode: cosines,
    or for complex data plane waves e^{i k.x} plus a cosine."""
    x = grid.x_grid()
    comp = np.arange(1, m + 1)[:, None]
    phase = comp * (x @ np.arange(1, grid.d + 1))[None]              # (m, N)
    wave = np.exp(1j * phase) + np.cos(2 * phase) if data == "complex" \
        else np.cos(phase)
    f = (1.0 + times)[:, None, None] * wave[None] \
        + np.sin(phase[None] + times[:, None, None])
    fac = np.arange(1, J + 1)[None, None, :, None]
    cell = np.arange(len(times) - 1)[:, None, None, None]
    g = (1.0 + cell) / fac * (wave[None, :, None]
                              + 0.5 * np.sin(fac * phase[None, :, None] + cell))
    return Field(grid, m, wave), f, g


@pytest.mark.parametrize("psi", ["heat_osc", "transport"])
@pytest.mark.parametrize("data", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2])
def test_pathwise_matches_full_spectrum_reference(psi, data, d):
    # the half-spectrum solve against the complex full-spectrum recurrences;
    # complex data goes as real and imaginary components on the same paths
    grid = GridSpec(d=d, n=16, L=2.0 * np.pi)
    times = _TIMES["nonuniform"]
    u0, f, g = _wave_data(grid, times, data)
    sym = builtin_symbol("heat_osc", gamma=2.0, d=d) if psi == "heat_osc" \
        else _symbol(_transport, d=d)
    pb = SPDEProblem(psi=sym, u0=u0, kernel=_KERNELS["fbm"], q=QSpec((1.0, 0.5)),
                     times=times, f=f, g=g, quad_refine=3)
    ens = solve(pb, 5, seed=4, estimator="pathwise")
    want = oracles.pathwise_full_spectrum(pb, np.diff(ens.paths.paths, axis=-1))
    assert ens.samples.dtype == (np.float64 if data == "real" else complex)
    assert _rel(ens.samples, want) < 1e-14


def test_pathwise_samples_are_real_fields():
    # float64 samples of real data, whose spectrum is Hermitian:
    # u-hat(-k) = conj u-hat(k) for every mode k
    times = _TIMES["uniform"]
    u0, f, g = _wave_data(GRID, times, "real", m=1, J=1)
    pb = _problem(times=times, u0=u0, f=f, g=g)
    ens = solve(pb, 8, seed=2, estimator="pathwise")
    assert ens.samples.dtype == np.float64
    u_hat = spatial_fft(ens.samples, GRID)
    mirror = u_hat[..., (-np.arange(GRID.n)) % GRID.n]
    assert np.max(np.abs(mirror - np.conj(u_hat))) < 1e-14 * np.max(np.abs(u_hat))


def test_pathwise_solve_peak_memory_is_near_the_real_ensemble():
    # the sim-pathwise-tdep problem on a 32^2 grid: the full-spectrum solve
    # held a complex ensemble and full-grid tables, 2.9x the bytes of the
    # real ensemble at its peak; the half-spectrum solve writes each time
    # slice into the real ensemble, 1.65x
    grid = GridSpec(d=2, n=32, L=2.0 * np.pi)
    times = np.linspace(0.0, 1.0, 17)
    x = grid.x_grid()
    bump = np.exp(-np.sum((x - np.pi) ** 2, axis=-1))[None]
    pb = SPDEProblem(psi=builtin_symbol("heat_osc", d=2), u0=Field(grid, 1, bump),
                     kernel=_KERNELS["fbm"], q=QSpec((1.0, 0.5)), times=times,
                     f=np.tile(bump, (17, 1, 1)), g=np.tile(bump, (16, 1, 2, 1)))
    ens, peak = oracles.traced_peak(solve, pb, 64, seed=0, estimator="pathwise")
    real_bytes = ens.samples.size * 8
    assert real_bytes == 64 * 17 * grid.n_points * 8
    assert peak < 2.0 * real_bytes


@pytest.mark.parametrize("case", ["zero_factor", "zero_first_cell", "linear",
                                  "odd_block"])
def test_modewise_fallbacks_match_oracle(case, monkeypatch):
    pb = _varied_problem("heat", "nonuniform", 2, 2, 3,
                         "fbm" if case == "odd_block" else "wiener")
    if case == "zero_factor":          # all-zero covariance: no draw for j = 0
        pb.g[:, :, 0] = 0.0
    elif case == "zero_first_cell":    # the rows of t_1 have zero variance
        pb.g[0] = 0.0
    elif case == "linear":             # rank-one Gram: the jitter ladder runs
        pb.kernel = builtin_kernel("linear")
    else:                              # blocks of 3 modes over 32
        rows, cols = (pb.n_times - 1) * pb.m, (pb.n_times - 1) * pb.quad_refine
        monkeypatch.setattr(solver, "_MODE_BLOCK_BYTES", 3 * 16 * rows * cols)
    drawn, one_at_a_time = set(), []
    substream, cholesky_one = solver._rng.substream, covariance._cholesky_one
    monkeypatch.setattr(solver._rng, "substream",
                        lambda seed, *key: drawn.add(key) or substream(seed, *key))
    monkeypatch.setattr(covariance, "_cholesky_one",
                        lambda a: one_at_a_time.append(a) or cholesky_one(a))
    got = stochastic_convolution_modewise(pb, 5, seed=9)
    monkeypatch.undo()
    assert np.array_equal(got, oracles.modewise_masked(pb, 5, seed=9))
    assert (case == "zero_factor") == all(j != 0 for _, j, _ in drawn)
    assert case not in ("zero_first_cell", "linear") or one_at_a_time


@pytest.mark.parametrize("kernel", ["wiener", "fbm"])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** 200, 2.0 ** -200],
                         ids=["g", "g*2^200", "g*2^-200"])
def test_modewise_exponent_floor_matches_unfloored_oracle(kernel, scale):
    # modes up to |k| = 32 reach exponents near -1024 at T = 1; the sampler
    # writes exact zeros below solver._EXP_FLOOR, the oracle exponentiates
    grid = GridSpec(d=1, n=64, L=2.0 * np.pi)
    g = np.random.default_rng(0).standard_normal((4, 1, 2, grid.n_points))
    pb = SPDEProblem(psi=HEAT, u0=Field.zeros(grid, 1), kernel=_KERNELS[kernel],
                     q=QSpec((1.0, 0.5)), times=np.linspace(0.0, 1.0, 5),
                     g=scale * g, quad_refine=4)
    expo = oracles.integrand_exponents(pb).real
    assert np.count_nonzero((expo > -745.0) & (expo < solver._EXP_FLOOR)) == 253
    assert np.array_equal(stochastic_convolution_modewise(pb, 5, seed=9),
                          oracles.modewise_masked(pb, 5, seed=9))


def test_modewise_nan_exponent_propagates(monkeypatch):
    # the floor compares real < floor, so a NaN exponent is not dropped
    pb = _varied_problem("heat", "uniform", 1, 1, 1, "wiener")
    cums = solver.symbol_cumulative_integrals

    def nan_at_mode_3(psi, q_grid, grid):
        out = cums(psi, q_grid, grid)
        out[3:, 3] = np.nan
        return out
    monkeypatch.setattr(solver, "symbol_cumulative_integrals", nan_at_mode_3)
    assert np.isnan(stochastic_convolution_modewise(pb, 2, seed=0)).any()


def test_stochastic_convolution_memory_does_not_scale_with_pairs():
    # the masked (n_t-1, C, n_points) multiplier tensor would take 64 MiB here;
    # the ensemble is 0.5 MiB and the cumulative table 4 MiB
    grid = GridSpec(d=1, n=512, L=2.0 * np.pi)
    times = np.linspace(0.0, 0.5, 33)
    x = grid.x_grid()[:, 0]
    pb = SPDEProblem(psi=HEAT, u0=Field(grid, 1, np.cos(x)[None]), kernel=WIENER,
                     q=QSpec((1.0,)), times=times,
                     g=np.tile(np.cos(2 * x), (32, 1, 1, 1)), quad_refine=8)
    tensor_bytes = 32 * 256 * 512 * 16
    for estimator in solver.ESTIMATORS:
        _, peak = oracles.traced_peak(
            lambda: solve(pb, 2, seed=1, estimator=estimator).samples)
        assert peak < tensor_bytes / 4


# ---------------------------------------------------------------------------
# per-mode residual


def test_mode_residual_deterministic_halving():
    k = 2
    maxes = []
    for n_t in (9, 17):
        times = np.linspace(0.0, 0.5, n_t)
        f = np.tile(np.exp(1j * k * np.arange(GRID.n) * GRID.L / GRID.n),
                    (n_t, 1, 1))
        pb = _problem(times=times, f=f)
        ens = solve(pb, 2, seed=1, estimator="pathwise")
        res = mode_residual(ens, k_index=k)
        maxes.append(res["max_abs"])
    assert maxes[1] < maxes[0]
    assert 1.5 < maxes[0] / maxes[1] < 2.8   # left-Riemann is first order


def test_mode_residual_stochastic_halving():
    # on rough paths the left-Riemann defect is still first order in dt
    rms = []
    for n_t in (17, 33):
        times = np.linspace(0.0, 0.5, n_t)
        g = _constant_g(times, GRID)
        pb = _problem(times=times, g=g)
        ens = solve(pb, 64, seed=3, estimator="pathwise")
        res = mode_residual(ens, k_index=2)
        assert res["rms"] <= res["max_abs"]
        assert len(res["per_time_max"]) == n_t
        rms.append(res["rms"])
    assert 1.4 < rms[0] / rms[1] < 2.9


def test_mode_residual_requirements():
    times = np.linspace(0.0, 0.5, 9)
    g = _constant_g(times, GRID)
    pb_osc = _problem(times=times, psi=builtin_symbol("heat_osc", gamma=2.0))
    ens = solve(pb_osc, 2, seed=1, estimator="pathwise")
    with pytest.raises(HypothesisViolationError):
        mode_residual(ens, 0)
    pb = _problem(times=times, g=g)
    ens_mw = solve(pb, 2, seed=1, estimator="modewise")
    with pytest.raises(ValueError):
        mode_residual(ens_mw, 0)


def test_mode_residual_memory_is_below_the_ensemble():
    # the full-spectrum transform of the whole ensemble took 4x the real
    # ensemble's bytes to read one mode; each slice's mode is one product
    params = cli._fill(cli.PARAMS["simulate"], {
        "grid": {"n": 256}, "n_samples": 64, "g": "constant"})
    pb = cli._build_problem(params)
    ens = solve(pb, 64, seed=0, estimator="pathwise")
    real_bytes = 8 * 64 * pb.n_times * pb.m * pb.grid.n_points
    res, peak = oracles.traced_peak(mode_residual, ens, k_index=3)
    assert np.isfinite(res["max_abs"]) and len(res["per_time_max"]) == pb.n_times
    assert peak < real_bytes


def test_mode_pseudo_covariance_tells_the_estimators_apart():
    # a bump g keeps one phase per mode: the pathwise u-hat_k of the real
    # field is e^{i theta} times a real Gaussian, so |E u_k^2| = E|u_k|^2;
    # modewise draws each mode from a circular law, where E u_k^2 = 0
    params = cli._fill(cli.PARAMS["simulate"], {
        "grid": {"n": 32}, "n_t": 4, "g": "constant"})
    pb = cli._build_problem(params)

    def mean_se(a):
        return a.mean(), np.sqrt(np.mean(np.abs(a - a.mean()) ** 2) / len(a))

    for estimator in solver.ESTIMATORS:
        ens = solve(pb, 4000, seed=0, estimator=estimator)
        u = spatial_fft(ens.samples[:, -1, 0], pb.grid)[:, 3]
        (second, se2), (pseudo, sep) = mean_se(np.abs(u) ** 2), mean_se(u ** 2)
        assert second > 20 * se2
        if estimator == "pathwise":
            assert abs(abs(pseudo) - second) <= np.hypot(se2, sep)
        else:
            assert abs(pseudo) < 2 * sep


# ---------------------------------------------------------------------------
# refined grid and summaries


def test_refined_path_times_structure():
    # the subcell edges, on which the pathwise estimator draws its paths
    times = np.linspace(0.0, 0.5, 5)
    edges = solver._quad_grid(times, 4)[1]
    assert len(edges) == 4 * 4 + 1
    assert np.allclose(edges[::4], times)


@pytest.mark.parametrize("times,n_sub", [
    (np.linspace(0.0, 1.0, 17), 8), (np.array([0.0, 0.1, 0.35, 0.4, 0.9, 1.3]), 3),
    (np.linspace(0.0, 0.5, 5), 1)], ids=["uniform", "non-uniform", "unrefined"])
def test_quad_grid_holds_only_the_nodes_the_estimators_read(times, n_sub):
    # the symbol table is built on nodes and read at mid_idx and sol_idx
    # only: every node is one of them
    nodes, edges, mid_idx, sol_idx = solver._quad_grid(times, n_sub)
    assert len(nodes) == (len(times) - 1) * (n_sub + 1) + 1
    assert np.array_equal(np.sort(np.concatenate((mid_idx, sol_idx))),
                          np.arange(len(nodes)))
    assert np.array_equal(nodes[sol_idx], times)
    assert np.array_equal(nodes[mid_idx], 0.5 * (edges[:-1] + edges[1:]))
    assert np.all(np.diff(nodes) > 0)


def test_ensemble_summary_rows():
    pb = _problem()
    ens = solve(pb, 3, seed=2, estimator="pathwise")    # modewise has no sup
    rows = ensemble_summary_rows(ens)
    assert len(rows) == pb.n_times
    t0, mf0, tv0, ms0 = rows[0]
    assert t0 == 0.0
    # u0 = e^{i3x}: L2 norm over the period is sqrt(L)
    assert mf0 == pytest.approx(np.sqrt(GRID.L), rel=1e-12)
    assert tv0 == 0.0          # every sample is u0 at t = 0
    assert ms0 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("estimator,noise,data", [
    pytest.param(estimator, noise, data, id=f"{estimator}-{noise}"
                 + ("-real" if data == "real" else ""))
    for data in ("complex", "real") for estimator in solver.ESTIMATORS
    for noise in (True, False)])
def test_ensemble_summary_rows_equal_whole_ensemble_formulas(estimator, noise,
                                                             data):
    # m = 2, J = 2, non-zero f and g (or no g), complex (e^{ikx}) or real:
    # the time slices give the whole-ensemble rows bit for bit, and each
    # slice of time_slices() is its time in `samples`, bit for bit
    times = np.linspace(0.0, 0.5, 9)
    x = np.arange(GRID.n) * GRID.L / GRID.n
    f = np.cos(3 * times)[:, None, None] * np.tile(np.sin(x), (1, 2, 1))
    wave = np.exp(2j * x) if data == "complex" else np.cos(2 * x)
    g = np.tile(wave, (8, 2, 2, 1)) * np.array([1.0, 0.5])[:, None]
    u0 = _mode_field(GRID, m=2) if data == "complex" else \
        Field(GRID, 2, np.tile(np.cos(3 * x), (2, 1)))
    pb = _problem(times=times, u0=u0, f=f, g=g if noise else None, J=2)
    ens = solve(pb, 7, seed=4, estimator=estimator)
    rows = ensemble_summary_rows(ens)       # before `samples` is built
    slices = [s.copy() for s in ens.time_slices()]
    assert len(slices) == pb.n_times
    assert all(s.dtype == ens.samples.dtype and np.array_equal(s, ens.samples[:, i])
               for i, s in enumerate(slices))
    assert np.all(ens.samples[:, 0] == ens.samples[0, 0])   # all start at u0
    assert rows == oracles.ensemble_summary_rows_full(ens)
    assert (rows[-1][2] > 1e-12) == noise      # the total variance


def test_noise_free_summary_does_not_depend_on_n_samples():
    # every sample is the same field: the rows read one of them, where the
    # mean of n equal floats was off in its last bit and np.var summed the
    # rounding residues into a total variance of about 1e-32
    x = np.arange(GRID.n) * GRID.L / GRID.n
    u0 = Field(GRID, 1, np.exp(-(x - np.pi) ** 2)[None])
    pb = _problem(times=np.linspace(0.0, 1.0, 3), u0=u0)
    rows = [ensemble_summary_rows(solve(pb, n, seed=0)) for n in (3, 4, 7)]
    assert rows[0] == rows[1] == rows[2]
    assert all(tv == 0.0 for _, _, tv, _ in rows[0])


def test_ensemble_summary_rows_memory_is_one_time_slice():
    # the whole-ensemble variance makes an ensemble-sized temporary; here
    # the ensemble is 18 MiB and each of its 9 time slices 2 MiB; with
    # noise, so that every sample is summarised
    times = np.linspace(0.0, 0.5, 9)
    pb = _problem(times=times, u0=_mode_field(GRID, m=2),
                  g=np.tile(_constant_g(times, GRID), (1, 2, 1, 1)))
    r = np.random.default_rng(0)
    shape = (2048, pb.n_times, 2, GRID.n_points)
    samples = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    ens = solver.SolutionEnsemble(problem=pb, samples=samples,
                                  estimator="pathwise")
    assert samples.nbytes >= 16 << 20
    _, peak = oracles.traced_peak(ensemble_summary_rows, ens)
    assert peak < samples.nbytes / 4


def test_readme_library_quickstart_runs():
    # the "Library quickstart" block of README.md, executed as written
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
