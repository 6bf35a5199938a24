"""The benchmark's workloads: spdelab command lists built from a seed.

An *op* runs every command of a workload once, from config file to
artifacts.  The seed only enters the config's ``seed`` field, so every op
of a run does the same work.  README.md explains why each workload exists.
"""

from __future__ import annotations

# Sizes are the ROADMAP "scale configs".
_SIM_2D = {
    "grid": {"d": 2, "n": 64},          # 64^2 = 4096 modes
    "lambdas": [1.0, 0.5],
    "n_t": 16,
    "quad_refine": 8,
    "u0": "bump",
    "f": "bump",
    "g": "constant",
    "n_samples": 64,
}

_OPERATOR_LEVELS = [[128, 64], [256, 128], [512, 256]]

# workload -> list of (command, params)
WORKLOADS = {
    "sim-modewise-2d": [
        ("simulate", dict(_SIM_2D, psi={"name": "heat", "gamma": 2.0, "d": 2},
                          kernel="wiener", estimator="modewise")),
    ],
    "sim-pathwise-tdep": [
        ("simulate", dict(_SIM_2D, psi={"name": "heat_osc", "d": 2},
                          kernel={"name": "fbm", "H": 0.75},
                          estimator="pathwise")),
    ],
    "maximal-default": [
        ("verify-maximal", {"process": "linear-exact", "kernel": "wiener",
                            "p": 2.0, "n_samples": 4096,
                            "sup_levels": [64, 128, 256]}),
    ],
    "operator-checks": [
        ("verify-lp", {"levels": _OPERATOR_LEVELS}),
        ("verify-goperator", {"levels": _OPERATOR_LEVELS}),
    ],
}

_CLI = ("cli.load_config", "cli.run")

# Spans each workload must exercise; a traced run in which one stays
# silent is wired wrongly (or the code path moved) and is reported as
# not correct.
EXPECTED_SPANS = {
    "sim-modewise-2d": _CLI + (
        "solver.solve", "solver.stochastic_convolution_modewise",
        "solver.deterministic_forced", "solver.ensemble_summary_rows",
        "covariance.cholesky_psd", "covariance.cholesky",
        "covariance.increment_gram", "rng.substream",
        "spectral.symbol_cumulative_integrals", "fft"),
    "sim-pathwise-tdep": _CLI + (
        "solver.solve", "solver.stochastic_convolution_pathwise",
        "solver.deterministic_forced", "solver.ensemble_summary_rows",
        "gaussian.sample_paths", "spectral.symbol_cumulative_integrals",
        "spectral.symbol_on_grid", "fft"),
    "maximal-default": _CLI + (
        "verify.maximal_inequality_check", "malliavin.JointDesign.init",
        "malliavin.JointDesign.draw", "malliavin.JointDesign.running_skorohod",
        "malliavin.mixed_norm_terms", "malliavin.JointDesign.du_cell_norms"),
    "operator-checks": _CLI + (
        "verify.lp_inequality_check", "verify.g_operator_check", "fft"),
}


def configs(workload: str, seed: int):
    """[(command, config dict)] for one op of `workload` at `seed`."""
    return [(command, {"seed": int(seed), "params": params})
            for command, params in WORKLOADS[workload]]
