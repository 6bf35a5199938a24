"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Every test prints a single ``[acceptance] NN <name>: PASS`` line once its
assertions hold, so ``pytest -v -s tests/test_acceptance.py`` reads as a
criterion-by-criterion report.  Tolerances and sample sizes are fixed
here, not tuned at run time.
"""

import json
import time

import numpy as np
import pytest

import oracles
from spdelab import battery, cli
from spdelab.covariance import builtin_kernel
from spdelab.gaussian import (
    QSpec,
    StepFunction,
    canonical_partition,
    inner_H_U0,
    sample_paths,
    wiener_integral_path,
)
from spdelab.malliavin import (
    ElementaryProcess,
    constant_functional,
    linear_functional,
    skorohod_moment_check,
)
from spdelab.solver import SPDEProblem, _quad_grid, solve
from spdelab.spectral import (Field, GridSpec, spatial_fft,
                              symbol_cumulative_integrals)
from spdelab.symbols import builtin_symbol, check_marcinkiewicz, check_mihlin
from spdelab.verify import (
    apriori_refinement,
    kernel_envelope_check,
    lp_inequality_check,
    maximal_inequality_check,
)

HEAT = builtin_symbol("heat", gamma=2.0)
HEAT_OSC = builtin_symbol("heat_osc", gamma=2.0)
POWER2 = builtin_symbol("power", gamma=2.0)
Q1 = QSpec((1.0,))
Q2 = QSpec((1.0, 1.0))


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {num:02d} {name}: PASS{suffix}")


def _drift(ratios):
    return max(abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------


def test_criterion_01_wiener_integral_isometry():
    start = time.monotonic()
    n = 100_000
    worst = 0.0
    for kern in battery.kernel_battery():
        for i, h in enumerate(battery.step_battery(J=2)):
            paths = sample_paths(kern, canonical_partition([h]), Q2, n,
                                 seed=101 + i)
            var = float(np.var(wiener_integral_path(h, paths)))
            want = inner_H_U0(h, h, kern)
            se = want * np.sqrt(2.0 / n)       # Gaussian fourth moment
            assert abs(var - want) <= 4.0 * se, \
                f"{kern.name}/h{i}: var {var} vs {want} (4se {4 * se})"
            worst = max(worst, abs(var - want) / se)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, "wiener-integral isometry",
            f"8 cases, n={n}, worst |z|={worst:.2f}, {elapsed:.1f}s")


def test_criterion_02_skorohod_exact_case():
    n = 100_000
    full = StepFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    u = ElementaryProcess([(linear_functional(full), [1.0], full)])
    stats = []
    for seed, kern in zip((19, 20), battery.kernel_battery()):
        assert inner_H_U0(full, full, kern) == pytest.approx(1.0)
        scal = oracles.skorohod_integral(u, kern, Q1, n, seed=seed)[:, 0]
        mean, var = float(np.mean(scal)), float(np.var(scal))
        assert abs(mean) <= 4.0 * np.sqrt(2.0 / n)
        assert abs(var - 2.0) <= 4.0 * np.sqrt(
            oracles.VAR_OF_SQUARED_CHI2_CENTERED / n)
        stats.append((kern.name, mean, var))
    _report(2, "skorohod exact case",
            "; ".join(f"{k}: mean {m:.4f}, var {v:.4f}" for k, m, v in stats))


def test_criterion_03_moment_identity_battery():
    n = 100_000
    zs = []
    for name, proc, kern in battery.skorohod_battery():
        rep = skorohod_moment_check(proc, kern, Q2, n, seed=7, name=name)
        assert rep.z_score <= 4.0, f"{name}: z={rep.z_score}"
        assert rep.passed
        zs.append(rep.z_score)
    _report(3, "moment identity battery",
            f"8 cases, n={n}, max z={max(zs):.2f}")


def test_criterion_04_evolution_composition_law():
    # T(t,s) = exp of a difference of symbol_cumulative_integrals, the
    # tables the solver evolves with: T(t,r) T(r,s) from the table on
    # (s, r, t) against T(t,s) from the table on (s, t), on one field
    grid = GridSpec(d=1, n=64, L=2.0 * np.pi)
    f = battery.bessel_field_battery(grid, m=1, count=1, seed=4)[0]
    f_hat = spatial_fft(f.values, grid)
    fn = np.linalg.norm(f_hat)
    triples = [(0.0, 0.3, 0.7), (0.1, 0.4, 1.0), (0.2, 0.35, 0.5)]
    errs = {}
    for psi, tol in ((HEAT, 1e-12), (HEAT_OSC, 1e-6)):
        worst = 0.0
        for s, r, t in triples:
            c3 = symbol_cumulative_integrals(psi, [s, r, t], grid)
            c2 = symbol_cumulative_integrals(psi, [s, t], grid)
            two = np.exp(c3[2] - c3[1]) * (np.exp(c3[1] - c3[0]) * f_hat)
            one = np.exp(c2[1] - c2[0]) * f_hat
            worst = max(worst, np.linalg.norm(two - one) / fn)
        assert worst <= tol, f"{psi.name}: {worst} > {tol}"
        errs[psi.name] = worst
    # the deterministic parts read the solution-time table, the stochastic
    # convolution the refined quadrature table: they agree at the solution
    # times
    times = np.linspace(0.0, 1.0, 17)
    q_grid, _, _, sol_idx = _quad_grid(times, 8)
    for psi in (HEAT, HEAT_OSC):
        pb = SPDEProblem(psi=psi, u0=f, kernel=builtin_kernel("wiener"), q=Q1,
                         times=times, quad_refine=8)
        quad = symbol_cumulative_integrals(psi, q_grid, grid.half)[sol_idx]
        gap = np.max(np.abs(pb.cums - quad)) / np.max(np.abs(quad))
        assert gap <= 1e-12, f"{psi.name}: tables differ by {gap}"
        errs[psi.name + " tables"] = gap
    _report(4, "evolution composition law",
            f"heat {errs['heat']:.2e} <= 1e-12, "
            f"heat_osc {errs['heat_osc']:.2e} <= 1e-6; solution-time and "
            f"quadrature tables within {errs['heat tables']:.1e} (heat), "
            f"{errs['heat_osc tables']:.1e} (heat_osc) <= 1e-12")


def _mode_variances(ens):
    hat = np.fft.fft(ens.samples[:, -1, 0, :], axis=-1, norm="ortho")
    mu = hat.mean(axis=0)
    dev2 = np.abs(hat - mu[None, :]) ** 2
    var = dev2.mean(axis=0)
    se = np.sqrt(np.maximum(np.mean(dev2 ** 2, axis=0) - var ** 2, 0.0)
                 / hat.shape[0])
    return var, se


def test_criterion_05_cross_estimator_agreement():
    n = 10_000
    grid = GridSpec(d=1, n=64, L=2.0 * np.pi)
    bump = battery.bump_profile(box=grid.L, width_frac=1.0 / 8.0)(grid.x_grid())
    times = np.linspace(0.0, 0.5, 9)
    g = np.tile(bump[None, None, None, :], (8, 1, 1, 1)).astype(complex)
    worst = {}
    for kern in battery.kernel_battery():
        pb = SPDEProblem(psi=HEAT, u0=Field.zeros(grid, 1), kernel=kern,
                         q=Q1, times=times, g=g, quad_refine=8)
        vm, sm = _mode_variances(solve(pb, n, seed=31, estimator="modewise"))
        vp, sp = _mode_variances(solve(pb, n, seed=77, estimator="pathwise"))
        se = np.hypot(sm, sp)
        floor = 1e-12 * float(np.max(vm))     # roundoff on dead modes
        assert np.all(np.abs(vm - vp) <= 4.0 * se + floor), kern.name
        live = se > 0
        worst[kern.name] = float(np.max(np.abs(vm - vp)[live] / se[live]))
    _report(5, "cross-estimator agreement",
            f"n={n}, refine x8, max z: " +
            ", ".join(f"{k} {z:.2f}" for k, z in worst.items()))


def test_criterion_06_multiplier_checkers():
    start = time.monotonic()
    mihlin, marcinkiewicz, failing = battery.multiplier_battery(d=1)
    assert len(mihlin) == 12          # m1, m2, m3 over 4 exponent pairs
    for name, sym in mihlin:
        assert check_mihlin(sym).passed, name
    for name, sym in marcinkiewicz:
        assert check_marcinkiewicz(sym).passed, name
    for name, sym in failing:
        assert not check_mihlin(sym).passed, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(6, "multiplier checkers",
            f"12 pass mihlin, 1 passes rectangle, 2 fail, {elapsed:.1f}s")


def test_criterion_07_square_function_ratio():
    levels = ((32, 16), (64, 32), (128, 64))
    forms = (("scalar", battery.lp_forcing(), 1),
             ("theta4", battery.lp_forcing_mixed(), 4))
    drifts = {}
    for label, f_fn, n_theta in forms:
        ratios = []
        for n, n_t in levels:
            start = time.monotonic()
            rep = lp_inequality_check(POWER2, HEAT, f_fn, 2.0, 2.0, 4.0 / 3.0,
                                      levels=((n, n_t),), n_theta=n_theta)
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"{label} level {n}: {elapsed:.1f}s"
            assert np.isfinite(rep.ratio) and rep.ratio > 0
            ratios.append(rep.ratio)
        drifts[label] = _drift(ratios)
        assert drifts[label] < 0.25, f"{label}: {ratios}"
    _report(7, "square-function ratio",
            f"drift scalar {drifts['scalar']:.3f}, "
            f"theta4 {drifts['theta4']:.3f} (< 0.25)")


def test_criterion_08_maximal_inequality():
    n = 8000
    worst = 0.0
    for name, proc, kern in battery.skorohod_battery():
        rep = maximal_inequality_check(proc, kern, Q2, 2.0, 2.0, n, seed=17,
                                       sup_levels=(64, 128, 256), name=name)
        assert rep.passed and np.isfinite(rep.ratio), name
        d = _drift([r for _, r in rep.refinement_trace])
        assert d < 0.25, f"{name}: drift {d}"
        worst = max(worst, d)

    # deterministic u: the running integral is a Brownian path at the nodes
    full = StepFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    u_det = ElementaryProcess([(constant_functional(full, 1.0), [1.0], full)])
    n_det, n_oracle, level = 20_000, 200_000, 512
    rep = maximal_inequality_check(u_det, builtin_kernel("wiener"), Q1,
                                   2.0, 2.0, n_det, seed=23,
                                   sup_levels=(level,))
    assert rep.rhs_components[1] == 0.0
    nodes = np.linspace(0.0, 1.0, level + 1)
    om, ose = oracles.sup_brownian_sq(nodes, n_oracle, seed=99)
    se_lhs = ose * np.sqrt(n_oracle / n_det)   # same law, fewer samples
    gap = abs(rep.lhs - om)
    assert gap <= 4.0 * np.hypot(se_lhs, ose), f"{rep.lhs} vs {om} +- {ose}"
    _report(8, "maximal inequality",
            f"battery worst drift {worst:.3f}; deterministic case "
            f"lhs {rep.lhs:.4f} vs oracle {om:.4f} (gap {gap:.4f})")


def test_criterion_09_kernel_envelope():
    grid = GridSpec(d=1, n=256, L=4.0 * np.pi)
    rep = kernel_envelope_check(POWER2, HEAT, (0.1, 0.2, 0.4), grid,
                                var_tol=0.2)
    assert rep["passed"]
    spreads = {}
    for key in ("C_kernel", "C_grad", "C_ds"):
        cs = rep[key]
        spreads[key] = max(cs) / min(cs) - 1.0
        assert spreads[key] < 0.2, f"{key}: {cs}"
    _report(9, "kernel envelope",
            ", ".join(f"{k} varies {v:.1%}" for k, v in spreads.items()))


def test_criterion_10_apriori_estimate():
    start = time.monotonic()

    def builder(kern):
        def build(n, n_t):
            grid = GridSpec(d=1, n=n, L=2.0 * np.pi)
            bump = battery.bump_profile(box=grid.L,
                                        width_frac=1.0 / 8.0)(grid.x_grid())
            times = np.linspace(0.0, 1.0, n_t + 1)
            win = np.sin(np.pi * times / times[-1]) ** 2
            u0 = Field(grid, 1, bump[None, :].astype(complex))
            f = (win[:, None, None] * bump[None, None, :]).astype(complex)
            g = np.tile(bump[None, None, None, :],
                        (n_t, 1, 1, 1)).astype(complex)
            return SPDEProblem(psi=HEAT, u0=u0, kernel=kern, q=Q1,
                               times=times, f=f, g=g)
        return build

    drifts = {}
    for kern in battery.kernel_battery():
        rep = apriori_refinement(builder(kern), POWER2, 2.0, 2.0,
                                 ((32, 16), (64, 32), (128, 64)),
                                 48, seed=13)
        ratios = [r for _, r in rep.refinement_trace]
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        drifts[kern.name] = _drift(ratios)
        assert drifts[kern.name] < 0.25, f"{kern.name}: {ratios}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(10, "a-priori estimate",
            f"drift wiener {drifts['wiener']:.3f}, "
            f"fbm {drifts['fbm']:.3f}, {elapsed:.0f}s")


def test_criterion_11_artifact_determinism(tmp_path):
    configs = {
        "simulate": {"seed": 9, "params": {
            "grid": {"n": 16}, "n_t": 8, "T": 0.5, "n_samples": 8,
            "g": "constant", "lambdas": [1.0], "estimator": "modewise"}},
        "verify-skorohod": {"seed": 3, "params": {"n_samples": 2000}},
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        code_a = cli.main([command, "--config", str(cfg), "--out", str(out_a)])
        code_b = cli.main([command, "--config", str(cfg), "--out", str(out_b)])
        assert code_a == code_b == 0
        for ext in (".json", ".csv"):
            fa = (out_a / (command + ext)).read_bytes()
            fb = (out_b / (command + ext)).read_bytes()
            assert fa == fb, f"{command}{ext} differs between reruns"
    _report(11, "artifact determinism",
            "simulate + verify-skorohod byte-identical on rerun")
