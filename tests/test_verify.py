import numpy as np
import pytest

import oracles
from spdelab import battery, cli, verify
from spdelab.covariance import builtin_kernel
from spdelab.errors import HypothesisViolationError, SymbolClassError
from spdelab.gaussian import QSpec, StepFunction
from spdelab.malliavin import (
    ElementaryProcess,
    JointDesign,
    constant_functional,
    linear_functional,
    skorohod_moment_check,
)
from spdelab.solver import SPDEProblem
from spdelab.spectral import Field, GridSpec, spatial_fft, spatial_irfft
from spdelab.symbols import SymbolSpec, builtin_symbol
from spdelab.verify import (
    apriori_estimate_check,
    apriori_refinement,
    bessel_equivalence_check,
    envelope_fields,
    g_operator_check,
    kernel_envelope_check,
    lp_inequality_check,
    maximal_inequality_check,
)

WIENER = builtin_kernel("wiener")
HEAT = builtin_symbol("heat", gamma=2.0)
POWER2 = builtin_symbol("power", gamma=2.0)
POWER1 = builtin_symbol("power", gamma=1.0)

PHI = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [-0.5]]))
FULL = StepFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
U_LIN = ElementaryProcess([(linear_functional(FULL), [2.0, 1.0], PHI)])
Q1 = QSpec((1.0,))


def _drift(trace):
    ratios = [r for _, r in trace]
    return max(abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# maximal inequality


def test_maximal_gate():
    with pytest.raises(HypothesisViolationError):
        maximal_inequality_check(U_LIN, WIENER, Q1, 2.0, 4.0, 100, seed=0)
    with pytest.raises(HypothesisViolationError):
        maximal_inequality_check(U_LIN, builtin_kernel("heat", delta=1.0, r_exp=2.5),
                                 Q1, 4.0, 2.0, 100, seed=0)    # q < max(2, r)


@pytest.mark.parametrize("check", [
    lambda n: maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, n, seed=0),
    lambda n: skorohod_moment_check(U_LIN, WIENER, Q1, n, seed=0),
], ids=["maximal", "skorohod"])
@pytest.mark.parametrize("n", [0, 1])
def test_monte_carlo_checks_refuse_fewer_than_two_draws(check, n):
    # one draw has no standard error: the maximal check passed with a NaN
    # lhs_se, the Skorohod check failed on a NaN z-score
    with pytest.raises(ValueError, match="n_samples >= 2"):
        check(n)


def test_maximal_linear_wiener_stable():
    rep = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 3000, seed=11,
                                   sup_levels=(64, 128, 256))
    assert rep.passed and np.isfinite(rep.ratio)
    assert _drift(rep.refinement_trace) < 0.25
    rows = rep.details["levels"]
    assert [row["level"] for row in rows] == [64, 128, 256]
    assert all(row["rhs"][0] > 0 and row["rhs"][1] > 0 for row in rows)


def test_maximal_ratio_scale_invariant():
    a = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 800, seed=11,
                                 sup_levels=(16, 32))
    b = maximal_inequality_check(oracles.scaled(U_LIN, 3.0), WIENER, Q1, 4.0,
                                 2.0, 800, seed=11, sup_levels=(16, 32))
    # lhs and both rhs terms are p-homogeneous in u; the draws are shared
    assert a.ratio == pytest.approx(b.ratio, rel=1e-12)


def test_maximal_deterministic_derivative_term_vanishes():
    u = ElementaryProcess([(constant_functional(FULL, 1.0), [1.0], FULL)])
    rep = maximal_inequality_check(u, WIENER, Q1, 2.0, 2.0, 2000, seed=7,
                                   sup_levels=(64,))
    assert rep.rhs_components[1] == 0.0
    assert rep.rhs_components[0] == pytest.approx(1.0, rel=1e-12)  # ||u||^2 = T
    assert np.isfinite(rep.ratio) and rep.lhs > rep.rhs_components[0]


def test_functional_values_once_per_draw_block(monkeypatch):
    # the running Skorohod sums and the mixed norms share each block's
    # functional values; both used to evaluate them, and so did the moment
    # check beside its running_skorohod call
    calls = []
    evaluate = JointDesign.functional_values
    monkeypatch.setattr(JointDesign, "functional_values", lambda design, delta:
                        calls.append(len(delta)) or evaluate(design, delta))
    maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0,
                             2 * verify._DRAW_BLOCK + 1, seed=11, sup_levels=(16,))
    assert calls == [verify._DRAW_BLOCK, verify._DRAW_BLOCK, 1]
    calls.clear()
    skorohod_moment_check(U_LIN, WIENER, Q1, 500, seed=3)
    assert calls == [500]


def test_maximal_default_config_peak_is_below_30_mib():
    # a block of 2,048 draws holds its 8 MiB of increments, the 8 MiB
    # running integral, squared in place, and two 4 MiB (n, P) arrays; the
    # running sums' (n, P, m) temporaries and the squared copy used to put
    # it at 42 MiB, with the last block's arrays alive while the next drew
    params = cli._fill(cli.PARAMS["verify-maximal"], {})
    u = _battery_process(params["process"])
    _, peak = oracles.traced_peak(
        maximal_inequality_check, u, builtin_kernel(params["kernel"]), Q2,
        params["p"], params["q_exp"], params["n_samples"], seed=0,
        sup_levels=tuple(params["sup_levels"]))
    assert peak < 30 << 20


def test_maximal_deterministic_runs():
    # same seed, same partition -> byte-equal statistics
    a = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 500, seed=3,
                                 sup_levels=(32,))
    b = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 500, seed=3,
                                 sup_levels=(32,))
    assert a.lhs == b.lhs and a.rhs_components == b.rhs_components
    c = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 500, seed=4,
                                 sup_levels=(32,))
    assert c.lhs != a.lhs


def test_maximal_fbm_uses_kernel_r_exp():
    fbm = builtin_kernel("fbm", H=0.75)
    rep = maximal_inequality_check(U_LIN, fbm, Q1, 4.0, 2.5, 400, seed=5,
                                   sup_levels=(16,))
    assert rep.details["r"] == pytest.approx(1.0 / 0.75)


def test_maximal_takes_r_from_the_kernel_only():
    # an r_exp override ran the check outside its hypothesis: r = 2 on the
    # heat r = 3 kernel at p = q = 2 reported PASS
    heat_r3 = builtin_kernel("heat", delta=1.0, r_exp=3.0)
    with pytest.raises(TypeError, match="r_exp"):
        maximal_inequality_check(U_LIN, heat_r3, Q1, 2.0, 2.0, 100, seed=0,
                                 sup_levels=(16,), r_exp=2.0)
    with pytest.raises(HypothesisViolationError):
        maximal_inequality_check(U_LIN, heat_r3, Q1, 2.0, 2.0, 100, seed=0,
                                 sup_levels=(16,))


def _battery_process(name, T=1.0):
    return dict(battery.elementary_battery(J=2, m=2, T=T))[name]


Q2 = QSpec((1.0, 1.0))


@pytest.mark.parametrize("u,kernel,q,p,q_exp,n", [
    (U_LIN, WIENER, Q1, 4.0, 2.0, 500),
    (U_LIN, builtin_kernel("fbm", H=0.75), Q1, 4.0, 2.0, 500),
    # the benchmark's maximal-default config
    (_battery_process("linear-exact"), WIENER, Q2, 2.0, 2.0, 4096),
])
def test_maximal_lhs_non_decreasing_over_nested_levels(u, kernel, q, p,
                                                       q_exp, n):
    # every coarser node is a node of the finer partitions, and the levels
    # share their draws, so each draw's sup can only grow with the level
    for seed in range(4):
        rep = maximal_inequality_check(u, kernel, q, p, q_exp, n, seed=seed,
                                       sup_levels=(16, 32, 64))
        lhs = [row["lhs"] for row in rep.details["levels"]]
        assert lhs == sorted(lhs), f"seed {seed}: {lhs}"


def test_maximal_rhs_shared_by_every_level():
    rep = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 600, seed=2,
                                   sup_levels=(16, 48, 32))
    rows = rep.details["levels"]
    assert all(row["rhs"] == rows[0]["rhs"] for row in rows)
    assert rep.rhs_components == rows[0]["rhs"]


@pytest.mark.parametrize("T,levels,kernel", [
    (1.0, (64, 128, 256), WIENER),
    # 0.7 * i / 12 and 0.7 * 3i / 36 differ in the last bit at 9 nodes
    (0.7, (12, 36), builtin_kernel("fbm", H=0.75)),
])
def test_maximal_final_row_matches_single_level_run(T, levels, kernel):
    u = _battery_process("curved-two-term", T=T)
    full = maximal_inequality_check(u, kernel, Q2, 4.0, 2.0, 2500, seed=6,
                                    sup_levels=levels)
    alone = maximal_inequality_check(u, kernel, Q2, 4.0, 2.0, 2500, seed=6,
                                     sup_levels=levels[-1:])
    last, only = full.details["levels"][-1], alone.details["levels"][0]
    for key in ("lhs", "lhs_se", "rhs", "ratio"):
        assert last[key] == only[key], key
    assert (full.lhs, full.rhs_components, full.ratio) == \
        (alone.lhs, alone.rhs_components, alone.ratio)


def test_maximal_non_nested_levels_run():
    rep = maximal_inequality_check(U_LIN, WIENER, Q1, 4.0, 2.0, 1000, seed=1,
                                   sup_levels=(48, 64))
    assert rep.passed and np.isfinite(rep.ratio)
    rows = rep.details["levels"]
    assert [row["level"] for row in rows] == [48, 64]
    assert rows[1]["lhs_diff_se"] > 0


def test_maximal_standard_errors_match_seed_spread():
    reps = [maximal_inequality_check(U_LIN, WIENER, Q1, 2.0, 2.0, 400,
                                     seed=seed, sup_levels=(16, 32))
            for seed in range(16)]
    rows = np.array([[(row["lhs"], row["lhs_se"]) for row in rep.details["levels"]]
                     for rep in reps])                       # (seed, level, 2)
    spread = np.std(rows[:, :, 0], axis=0, ddof=1)
    se = np.mean(rows[:, :, 1], axis=0)
    assert np.all((0.5 < se / spread) & (se / spread < 2.0)), (se, spread)
    diff_spread = np.std(rows[:, 1, 0] - rows[:, 0, 0], ddof=1)
    diff_se = np.mean([rep.details["levels"][1]["lhs_diff_se"] for rep in reps])
    assert 0.5 < diff_se / diff_spread < 2.0, (diff_se, diff_spread)
    # the coupled levels share their draws: their difference is far less noisy
    assert np.all(diff_se < se)


# ---------------------------------------------------------------------------
# Littlewood-Paley


def _smooth_f(t, x, theta):
    return np.sin(x[:, 0]) * np.exp(-t) + 0.3 * np.cos(2.0 * x[:, 0])


LP_LEVELS = ((32, 16), (64, 32))


def test_lp_gate():
    with pytest.raises(HypothesisViolationError):
        lp_inequality_check(POWER2, HEAT, _smooth_f, 2.0, 4.0, 2.0)
    with pytest.raises(HypothesisViolationError):
        lp_inequality_check(POWER2, HEAT, _smooth_f, 4.0, 2.0, 3.0)


def test_lp_scalar_form_r_independent():
    # a single theta node collapses both r-powers exactly
    a = lp_inequality_check(POWER2, HEAT, _smooth_f, 4.0, 2.0, 4.0 / 3.0,
                            levels=LP_LEVELS)
    b = lp_inequality_check(POWER2, HEAT, _smooth_f, 4.0, 2.0, 2.0,
                            levels=LP_LEVELS)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-14)


def test_lp_ratio_scale_invariant():
    a = lp_inequality_check(POWER2, HEAT, _smooth_f, 4.0, 2.0, 2.0,
                            levels=LP_LEVELS)
    b = lp_inequality_check(POWER2, HEAT,
                            lambda t, x, th: 3.0 * _smooth_f(t, x, th),
                            4.0, 2.0, 2.0, levels=LP_LEVELS)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-12)


def test_lp_stable_on_smooth_battery_forcing():
    f_fn = battery.lp_forcing()
    rep = lp_inequality_check(POWER2, HEAT, f_fn, 2.0, 2.0, 2.0,
                              levels=((32, 16), (64, 32), (128, 64)))
    assert rep.passed and np.isfinite(rep.ratio) and rep.ratio > 0
    assert _drift(rep.refinement_trace) < 0.25
    assert rep.details["weight_power"] == pytest.approx(1.0)


def test_lp_theta_grid_runs():
    f_fn = battery.lp_forcing()
    rep = lp_inequality_check(POWER2, HEAT, f_fn, 2.0, 2.0, 4.0 / 3.0,
                              levels=LP_LEVELS, n_theta=4)
    assert np.isfinite(rep.ratio) and rep.ratio > 0
    assert rep.details["n_theta"] == 4


def _assert_matches_pairs(rep, levels, pairs):
    """lhs, rhs and every trace ratio against per-level oracle (lhs, rhs)."""
    assert rep.lhs == pytest.approx(pairs[-1][0], rel=1e-12)
    assert rep.rhs_components[0] == pytest.approx(pairs[-1][1], rel=1e-12)
    assert [lev for lev, _ in rep.refinement_trace] == \
        [float(n) for n, _ in levels]
    for (_, ratio), (lhs, rhs) in zip(rep.refinement_trace, pairs):
        assert ratio == pytest.approx(lhs / rhs, rel=1e-12)


HEAT_OSC = builtin_symbol("heat_osc", gamma=2.0)
POWER2_2D = builtin_symbol("power", gamma=2.0, d=2)
HEAT_2D = builtin_symbol("heat", gamma=2.0, d=2)


def _twisted(forcing, k=3):
    """e^{ikx} times a battery forcing: complex values, split into real and
    imaginary components on the half spectrum."""
    def f(t, x, theta):
        return np.exp(1j * k * x[:, 0]) * forcing(t, x, theta)
    return f


def _banded(forcing, lo=0.4, hi=0.6):
    """A forcing that is exactly zero for lo < t < hi, so that its nonzero
    cells make two runs."""
    def f(t, x, theta):
        vals = forcing(t, x, theta)
        return 0.0 * vals if lo < t < hi else vals
    return f


@pytest.mark.parametrize("phi,psi,forcing,p,q,r,n_theta,levels", [
    (POWER2, HEAT, battery.lp_forcing(), 2.0, 2.0, 2.0, 1, LP_LEVELS),
    (POWER2, HEAT_OSC, battery.lp_forcing(), 4.0, 3.0, 2.0, 1, LP_LEVELS),
    (POWER2, HEAT, battery.lp_forcing_mixed(m=2), 4.0, 2.0, 4.0 / 3.0, 1,
     LP_LEVELS),
    (POWER2, HEAT, battery.lp_forcing_mixed(m=2), 4.0, 2.0, 4.0 / 3.0, 4,
     ((128, 24),)),                         # 8 cells per transform
    (POWER2_2D, HEAT_2D, battery.lp_forcing_mixed(m=2), 2.0, 2.0, 2.0, 4,
     ((8, 6), (16, 8))),                    # 2-D, 4 cells per transform
    (POWER2, HEAT_OSC, _twisted(battery.lp_forcing_mixed(m=2)), 4.0, 2.0,
     4.0 / 3.0, 2, LP_LEVELS),              # complex f
    # zero on a middle band of cells: the transformed cells are two runs
    (POWER2, HEAT, _banded(battery.lp_forcing_mixed(m=2)), 4.0, 2.0,
     4.0 / 3.0, 4, ((128, 24),)),
    (POWER2, HEAT_OSC, _banded(battery.lp_forcing_mixed()), 4.0, 3.0, 2.0,
     1, LP_LEVELS),
])
def test_lp_matches_pair_oracle(phi, psi, forcing, p, q, r, n_theta, levels):
    rep = lp_inequality_check(phi, psi, forcing, p, q, r, levels=levels,
                              n_theta=n_theta)
    _assert_matches_pairs(rep, levels, oracles.lp_square_function_pairs(
        phi, psi, forcing, p, q, r, levels, n_theta=n_theta))


def _counted_irfft(monkeypatch):
    """The rows of each square-function inverse transform, as they run."""
    calls = []

    def counting_irfft(arr, grid):
        calls.append(len(arr))
        return spatial_irfft(arr, grid)

    monkeypatch.setattr(verify, "spatial_irfft", counting_irfft)
    return calls


def test_lp_batches_transforms(monkeypatch):
    calls = _counted_irfft(monkeypatch)
    for n, n_t in ((32, 16), (64, 32), (128, 64)):
        calls.clear()
        lp_inequality_check(POWER2, HEAT, battery.lp_forcing(), 2.0, 2.0, 2.0,
                            levels=((n, n_t),))
        # only the cells s < t inside the cos^2 window's support (the
        # middle half of [0, 1]) are transformed, in blocks of cells
        mids = (np.arange(n_t) + 0.5) / n_t
        live_below = np.cumsum(np.abs(mids - 0.5) < 0.25)[:-1]
        assert sum(calls) == np.sum(live_below) < n_t * (n_t - 1) // 2
        assert 0 < len(calls) < sum(calls)


def test_lp_zero_forcing_is_a_trivial_pass(monkeypatch):
    calls = _counted_irfft(monkeypatch)
    rep = lp_inequality_check(POWER2, HEAT, lambda t, x, th: np.zeros(len(x)),
                              2.0, 2.0, 2.0, levels=LP_LEVELS)
    assert rep.lhs == 0.0 and rep.rhs_components == [0.0]
    assert rep.ratio == 0.0 and rep.passed
    assert not calls


def test_lp_nan_cell_outside_the_window_fails():
    # the forcing is zero there but for one NaN cell, which is transformed
    base = battery.lp_forcing()

    def f(t, x, theta):
        return base(t, x, theta) * (np.nan if t < 0.04 else 1.0)

    rep = lp_inequality_check(POWER2, HEAT, f, 2.0, 2.0, 2.0,
                              levels=((32, 16),))
    assert not np.isfinite(rep.lhs)
    assert not rep.passed


def _radial(t, xi):                  # Re psi <= 0, but psi(-xi) = psi(xi)
    r = np.abs(xi[..., 0])
    return -r * r - 1j * r


@pytest.mark.parametrize("phi,psi", [
    # coordinate is odd in xi, and Re phi must be even
    (builtin_symbol("coordinate", d=1), builtin_symbol("heat", gamma=1.0)),
    (POWER2, SymbolSpec(eval=_radial, gamma=2.0, kappa=1.0, mu=1.0,
                        n_depth=4, d=1, name="radial")),
])
def test_lp_rejects_multipliers_that_are_not_hermitian(phi, psi):
    # the half spectrum needs Hermitian multipliers
    with pytest.raises(SymbolClassError, match="Hermitian"):
        lp_inequality_check(phi, psi, battery.lp_forcing(), 2.0, 2.0, 2.0,
                            levels=((16, 4),))


# ---------------------------------------------------------------------------
# Bessel equivalence


def _band_fields():
    grid = GridSpec(d=1, n=64, L=2.0 * np.pi)
    return battery.bessel_field_battery(grid, m=1, count=6, seed=2)


def test_lp_power_riemann():
    # the one L^p routine: a Riemann sum with cell volume (L/n)^d, the
    # Euclidean norm over the component axes
    grid = GridSpec(d=1, n=64, L=2 * np.pi)
    ones = np.ones((2, grid.n_points))
    assert verify._lp_power(ones[:1], grid, 2.0, 0) == pytest.approx(2 * np.pi)
    assert verify._lp_power(ones, grid, 3.0, 0) == pytest.approx(
        2 ** 1.5 * 2 * np.pi)


def test_bessel_alpha_zero_is_exactly_half():
    rep = bessel_equivalence_check(POWER2, 0.0, 2.0, _band_fields())
    # (1 + L)^0 u = u and L^0 u = u, so every ratio is 1/(1+1)
    assert rep["passed"]
    for r in rep["ratios"]:
        assert r == pytest.approx(0.5, abs=1e-12)
    assert rep["C1_hat"] == pytest.approx(0.5, abs=1e-12)
    assert rep["C2_hat"] == pytest.approx(0.5, abs=1e-12)


def test_bessel_sandwich_constants_bracket_one_sided():
    rep = bessel_equivalence_check(POWER2, 2.0, 4.0, _band_fields())
    assert rep["passed"]
    assert 0.0 < rep["C1_hat"] <= rep["C2_hat"] <= 1.0


def test_bessel_rejects_negative_alpha():
    with pytest.raises(ValueError):
        bessel_equivalence_check(POWER2, -1.0, 2.0, _band_fields())


# ---------------------------------------------------------------------------
# G operator


def test_g_operator_gates():
    with pytest.raises(HypothesisViolationError):
        g_operator_check(POWER1, HEAT, _smooth_f, 2.0)
    with pytest.raises(ValueError):
        g_operator_check(POWER2, builtin_symbol("heat_osc", gamma=2.0),
                         _smooth_f, 2.0)
    with pytest.raises(ValueError):       # no report without a forcing
        g_operator_check(POWER2, HEAT, [], 2.0)
    with pytest.raises(ValueError):
        g_operator_check(POWER2, HEAT, _smooth_f, 2.0, levels=())


CONST1 = builtin_symbol("constant", c=1.0)
HEAT1 = builtin_symbol("heat", gamma=1.0)


def _max_ratio_pairs(per_forcing):
    """Per level, the (lhs, rhs) of the forcing with the largest ratio."""
    return [max(row, key=lambda lr: lr[0] / lr[1]) for row in per_forcing]


@pytest.mark.parametrize("phi,psi,m,p,levels", [
    (POWER2, HEAT, 1, 2.0, ((32, 12), (64, 24))),
    (POWER2, HEAT, 2, 4.0, ((32, 12), (64, 24))),
    (POWER2_2D, HEAT_2D, 1, 4.0, ((8, 6), (16, 8))),
    (CONST1, HEAT1, 1, 4.0, ((32, 12), (64, 24))),   # phi(0) = 1, psi(0) = 0
])
def test_g_operator_matches_pair_oracle(phi, psi, m, p, levels):
    forcings = battery.g_operator_forcings(m=m)
    rep = g_operator_check(phi, psi, forcings, p, levels=levels)
    _assert_matches_pairs(rep, levels, _max_ratio_pairs(
        oracles.g_operator_pairs(phi, psi, forcings, p, levels)))


def test_g_operator_one_inverse_transform_per_forcing_per_level(monkeypatch):
    calls = []

    def counting_fft(arr, grid, inverse=False, out=None):
        calls.append(inverse)
        return spatial_fft(arr, grid, inverse=inverse, out=out)

    monkeypatch.setattr(verify, "spatial_fft", counting_fft)
    levels = ((32, 12), (64, 24))
    g_operator_check(POWER2, HEAT, battery.g_operator_forcings(), 2.0,
                     levels=levels)
    assert calls.count(True) == 3 * len(levels)      # not one per time cell


def test_g_operator_closed_form_with_mean_mode():
    # f = 1 + cos x + cos 2x on [0, 1]: (G f)(t) = t + (1 - e^{-t}) cos x
    # + (1 - e^{-2t})/2 cos 2x for phi = 1, psi = -|xi|, exact at midpoints
    n, n_t = 32, 16
    rep = g_operator_check(
        CONST1, HEAT1,
        lambda t, x, th: 1.0 + np.cos(x[:, 0]) + np.cos(2.0 * x[:, 0]), 4.0,
        levels=((n, n_t),))
    x = np.arange(n) * 2.0 * np.pi / n
    t = (np.arange(n_t)[:, None] + 0.5) / n_t
    gf = t + (1.0 - np.exp(-t)) * np.cos(x) \
        + 0.5 * (1.0 - np.exp(-2.0 * t)) * np.cos(2.0 * x)
    lhs = (np.sum(gf ** 4) * (2.0 * np.pi / n) / n_t) ** 0.25
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)


def _nan_on_one_cell(t, x, theta):
    vals = battery.lp_forcing()(t, x, theta)
    return vals * np.nan if t < 0.05 else vals


@pytest.mark.parametrize("first", [True, False])
def test_g_operator_fails_on_a_nan_forcing(first):
    # a NaN ratio is the level's ratio, whichever place its forcing has,
    # and the report's lhs and rhs are that forcing's
    forcings = battery.g_operator_forcings()
    forcings = ([_nan_on_one_cell] + forcings if first
                else forcings + [_nan_on_one_cell])
    rep = g_operator_check(POWER2, HEAT, forcings, 2.0,
                           levels=((32, 12), (64, 24)))
    assert not rep.passed
    assert not np.isfinite(rep.lhs) and not np.isfinite(rep.ratio)
    assert all(not np.isfinite(r) for _, r in rep.refinement_trace)


def test_g_operator_stable():
    rep = g_operator_check(POWER2, HEAT, battery.g_operator_forcings(), 2.0,
                           levels=((32, 12), (64, 24)))
    assert rep.passed and np.isfinite(rep.ratio) and rep.ratio > 0
    assert _drift(rep.refinement_trace) < 0.25
    assert rep.details["n_functions"] == 3


# ---------------------------------------------------------------------------
# kernel envelope


ENV_GRID = GridSpec(d=1, n=256, L=4.0 * np.pi)


def test_envelope_constants_stable_for_quadratic_symbol():
    rep = kernel_envelope_check(POWER2, HEAT, (0.1, 0.2, 0.4), ENV_GRID)
    assert rep["passed"] and all(rep["stable"].values())
    # heat-kernel self-similarity: the fitted constants barely move
    cs = rep["C_kernel"]
    assert max(cs) / min(cs) - 1.0 < 0.02
    assert rep["exponents"]["kernel"] == pytest.approx(3.0)
    assert rep["exponents"]["grad"] == pytest.approx(4.0)
    assert rep["exponents"]["ds"] == pytest.approx(5.0)


@pytest.mark.parametrize("phi,pred", [
    (POWER2, 2.0 ** (-(2.0 + 1.0) / 2.0)),
    (POWER1, 2.0 ** (-(1.0 + 1.0) / 2.0)),
])
def test_envelope_sup_scales_with_tau(phi, pred):
    rep = kernel_envelope_check(phi, HEAT, (0.1, 0.2, 0.4), ENV_GRID)
    sups = rep["sup_kernel"]
    assert sups[1] / sups[0] == pytest.approx(pred, rel=0.03)
    assert sups[2] / sups[1] == pytest.approx(pred, rel=0.03)


def test_envelope_fields_shapes_and_symmetry():
    k_abs, g_abs, ds_abs, xdist = envelope_fields(POWER2, HEAT, 0.2, ENV_GRID)
    n = ENV_GRID.n_points
    assert k_abs.shape == g_abs.shape == ds_abs.shape == xdist.shape == (n,)
    # even kernel on the torus: |x| distance pairs carry equal values
    assert k_abs[1] == pytest.approx(k_abs[-1], rel=1e-8)
    assert xdist[0] == 0.0 and np.max(xdist) <= ENV_GRID.L / 2.0


# ---------------------------------------------------------------------------
# a-priori estimate


def _apriori_problem(n, n_t, c=1.0, kernel=WIENER, with_g=True):
    grid = GridSpec(d=1, n=n, L=2.0 * np.pi)
    x = grid.x_grid()[:, 0]
    times = np.linspace(0.0, 0.5, n_t + 1)
    u0 = Field(grid, 1, (c * np.cos(x))[None, :].astype(complex))
    f = c * np.tile(np.sin(x)[None, None, :], (n_t + 1, 1, 1)).astype(complex)
    g = None
    if with_g:
        g = c * np.tile(np.cos(2.0 * x)[None, None, None, :],
                        (n_t, 1, 1, 1)).astype(complex)
    return SPDEProblem(psi=HEAT, u0=u0, kernel=kernel, q=Q1, times=times,
                       f=f, g=g)


def _apriori_p2(problem, n_samples, seed):
    """The a-priori check at p = q = 2 with the Bessel scale POWER2."""
    return apriori_estimate_check(problem, POWER2, 2.0, 2.0, n_samples, seed)


def test_apriori_exponent_hypothesis():
    # p >= q >= max(2, r), with r the kernel's; SPDEProblem checked it
    # with its own exponents and refused the r = 3 kernel even in simulate
    with pytest.raises(HypothesisViolationError, match="p >= q"):
        apriori_estimate_check(_apriori_problem(16, 8), POWER2, 2.0, 4.0,
                               8, seed=0)
    r3 = builtin_kernel("heat", delta=1.0, r_exp=3.0)
    with pytest.raises(HypothesisViolationError, match="r=3.0"):
        apriori_estimate_check(_apriori_problem(16, 8, kernel=r3), POWER2,
                               2.0, 2.0, 8, seed=0)


def test_apriori_ratio_scale_invariant():
    a = _apriori_p2(_apriori_problem(32, 16), 64, seed=3)
    b = _apriori_p2(_apriori_problem(32, 16, c=5.0), 64, seed=3)
    # every norm term is 1-homogeneous in (u0, f, g) and the noise is shared
    assert a.ratio == pytest.approx(b.ratio, rel=1e-10)
    assert a.passed and np.isfinite(a.ratio)


def test_apriori_orders():
    rep = _apriori_p2(_apriori_problem(32, 16), 32, seed=3)
    d = rep.details
    assert d["alpha_u"] == pytest.approx(2.0)       # 2 g_psi / g_phi
    assert d["alpha_g"] == pytest.approx(1.0)       # q' = 2
    assert d["alpha_0"] == pytest.approx(1.0)       # (1 - 1/p) * alpha_u
    assert all(d[k] > 0 for k in ("term_u", "term_du", "term_g", "term_u0",
                                  "term_f"))


def test_apriori_deterministic_has_no_g_term():
    pb = _apriori_problem(32, 16, with_g=False)
    rep = _apriori_p2(pb, 4, seed=1)
    assert rep.details["term_g"] == 0.0
    assert np.isfinite(rep.ratio) and rep.ratio > 0


def test_apriori_peak_is_below_five_ensembles():
    # the default config's finest level, (128, 64) with 48 samples: the
    # full-spectrum transform of the whole ensemble and the products made
    # from it held about 9 times the real ensemble's bytes at once
    params = cli._fill(cli.PARAMS["verify-apriori"], {})
    n, n_t = params["levels"][-1]
    pb = cli._build_problem(params, n=n, n_t=n_t)
    ensemble_bytes = 8 * params["n_samples"] * pb.n_times * pb.m * n
    phi = cli._symbol(params["phi"], pb.grid.d)
    _, peak = oracles.traced_peak(apriori_estimate_check, pb, phi,
                                  params["p"], params["q_exp"],
                                  params["n_samples"], seed=0)
    assert peak < 5 * ensemble_bytes


def test_apriori_peak_is_below_half_an_ensemble():
    # the default config's finest level: the norms read each time slice
    # of the stream, so the ensemble (3.05 MiB) is never built
    params = cli._fill(cli.PARAMS["verify-apriori"], {})
    n, n_t = params["levels"][-1]
    pb = cli._build_problem(params, n=n, n_t=n_t)
    ensemble_bytes = 8 * params["n_samples"] * pb.n_times * pb.m * n
    phi = cli._symbol(params["phi"], pb.grid.d)
    _, peak = oracles.traced_peak(apriori_estimate_check, pb, phi,
                                  params["p"], params["q_exp"],
                                  params["n_samples"], seed=0)
    assert peak < ensemble_bytes / 2


def test_apriori_refinement_trace():
    rep = apriori_refinement(lambda n, n_t: _apriori_problem(n, n_t), POWER2,
                             2.0, 2.0, ((16, 8), (32, 16)), 48, seed=3)
    assert [lev for lev, _ in rep.refinement_trace] == [16.0, 32.0]
    assert rep.passed and _drift(rep.refinement_trace) < 0.25
