import tracemalloc

import numpy as np
import pytest

import oracles
from spdelab import solver, spectral
from spdelab.covariance import builtin_kernel
from spdelab.errors import (AlignmentError, HypothesisViolationError,
                            SymbolClassError)
from spdelab.gaussian import QSpec, sample_paths
from spdelab.solver import (
    SPDEProblem,
    deterministic_forced,
    deterministic_homogeneous,
    ensemble_summary_rows,
    mode_residual,
    refined_path_times,
    solve,
    stochastic_convolution_modewise,
    stochastic_convolution_pathwise,
)
from spdelab.spectral import Field, GridSpec, symbol_on_grid
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
    with pytest.raises(HypothesisViolationError):
        _problem(p=2.0, q_exp=4.0)           # p >= q violated
    with pytest.raises(ValueError):
        _problem(f=np.zeros((3, 1, 32)))     # wrong n_times
    with pytest.raises(ValueError):
        _problem(g=np.zeros((8, 1, 2, 32)))  # wrong J
    with pytest.raises(ValueError):
        _problem(quad_refine=0)


def test_problem_rejects_growing_psi():
    with pytest.raises(SymbolClassError):
        _problem(psi=builtin_symbol("wrong_sign", gamma=2.0))
    # negative at t = 0 but growing from t = 0.25 on: every solution time counts
    late = SymbolSpec(
        eval=lambda t, xi: (t - 0.25) * np.sum(xi ** 2, axis=-1) + 0j,
        gamma=2.0, kappa=1.0, mu=1.0, n_depth=4, time_dependent=True, d=1)
    with pytest.raises(SymbolClassError):
        _problem(psi=late)
    _problem(psi=late, times=np.linspace(0.0, 0.25, 5))


def test_solve_rejects_psi_growing_between_solution_times():
    # +5 on (0.52, 0.545) only: no solution time of linspace(0, 1, 17)
    # lands there, but Simpson nodes of the cell [0.5, 0.5625] do
    def ev(t, xi):
        window = (t > 0.52) & (t < 0.545)
        return np.where(window, 5.0, -np.sum(xi ** 2, axis=-1)) + 0j
    spike = SymbolSpec(eval=ev, gamma=2.0, kappa=1.0, mu=1.0, n_depth=4,
                       time_dependent=True, d=1)
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
    # one call per cell of the solution-time and quadrature tables, plus
    # the class-S check at each solution time
    n_cells = (len(times) - 1) * (1 + 2 * pb.quad_refine)
    assert calls["symbol_on_grid"] <= n_cells + len(times)


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
        assert np.max(ens.variance_field()) == 0.0


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
    from spdelab.spectral import spatial_fft
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
    paths = sample_paths(pb.kernel, refined_path_times(pb), pb.q, 6, seed=4)
    assert _rel(stochastic_convolution_pathwise(pb, paths),
                oracles.pathwise_masked(pb, paths)) < 1e-12
    assert np.array_equal(stochastic_convolution_modewise(pb, 5, seed=9),
                          oracles.modewise_masked(pb, 5, seed=9))


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
    paths = sample_paths(WIENER, refined_path_times(pb), pb.q, 2, seed=1)
    for run in (lambda: stochastic_convolution_pathwise(pb, paths),
                lambda: stochastic_convolution_modewise(pb, 2, seed=1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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


# ---------------------------------------------------------------------------
# alignment and summaries


def test_pathwise_alignment_errors():
    times = np.linspace(0.0, 0.5, 9)
    pb = _problem(times=times, g=_constant_g(times, GRID))
    bad = sample_paths(WIENER, times, pb.q, 4, seed=1)
    with pytest.raises(AlignmentError):
        stochastic_convolution_pathwise(pb, bad)
    wrong_j = sample_paths(WIENER, refined_path_times(pb), QSpec((1.0, 0.5)),
                           4, seed=1)
    with pytest.raises(AlignmentError):
        stochastic_convolution_pathwise(pb, wrong_j)


def test_refined_path_times_structure():
    pb = _problem(times=np.linspace(0.0, 0.5, 5), quad_refine=4)
    edges = refined_path_times(pb)
    assert len(edges) == 4 * 4 + 1
    assert np.allclose(edges[::4], pb.times)


def test_ensemble_summary_rows():
    pb = _problem()
    ens = solve(pb, 3, seed=2)
    rows = ensemble_summary_rows(ens)
    assert len(rows) == pb.n_times
    t0, mf0, tv0, ms0 = rows[0]
    assert t0 == 0.0
    # u0 = e^{i3x}: L2 norm over the period is sqrt(L)
    assert mf0 == pytest.approx(np.sqrt(GRID.L), rel=1e-12)
    assert tv0 == pytest.approx(0.0, abs=1e-20)
    assert ms0 == pytest.approx(1.0, rel=1e-12)
