import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab import battery, cli
from spdelab.errors import SchemaError


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_rows(path):
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config validation


def test_unknown_command_rejected():
    with pytest.raises(SchemaError):
        cli.load_config("frobnicate")


def test_unknown_top_level_key_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.json", {"seeds": 3})
    assert cli.main(["kernels", "--config", cfg]) == 2


def test_unknown_param_key_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.json",
                     {"params": {"n_samples": 10, "bogus": 1}})
    assert cli.main(["verify-skorohod", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2


def test_command_name_mismatch_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.json", {"command": "simulate"})
    assert cli.main(["kernels", "--config", cfg]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["kernels", "--config", str(path)]) == 2


def test_non_integer_seed_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.json", {"seed": "zero"})
    assert cli.main(["kernels", "--config", cfg]) == 2


def test_unknown_process_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json",
                     {"params": {"process": "nope", "n_samples": 10}})
    assert cli.main(["verify-maximal", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2


def test_unknown_u0_kind_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {"params": {"u0": "spiral"}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("params", [
    {"psi": "nosuch"},
    {"n_samples": "abc"},
    {"grid": {"n": 30}},
    {"kernel": {"name": "fbm", "H": 0.3}},
    {"n_samples": 0, "g": "constant"},
])
def test_bad_simulate_param_exits_2(tmp_path, capsys, params):
    cfg = _write_cfg(tmp_path, "bad.json", {"params": params})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "r" / "simulate.csv").exists()


def _assert_rejected(tmp_path, capsys, command, params, *flags, **top):
    cfg = _write_cfg(tmp_path, "bad.json", {"params": params, **top})
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path / "r"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "r" / f"{command}.csv").exists()


@pytest.mark.parametrize("threads,flags,top", [
    # a seed < 0 raised a ValueError traceback where draws were made, and
    # so did --out "" and SPDELAB_THREADS=abc
    (None, ["--seed", "-3"], {}),
    (None, ["--out", ""], {}),
    ("abc", [], {}),
    # these ran: 0 and -4 threads on one thread, "no" wrote a plot and 0
    # none, a null output_dir wrote into ./None and 5 into ./5
    ("0", [], {}),
    ("-4", [], {}),
    (None, [], {"emit_plots": 0}),
    (None, [], {"emit_plots": "no"}),
    (None, [], {"output_dir": None}),
    (None, [], {"output_dir": 5}),
])
def test_bad_top_level_value_exits_2(tmp_path, capsys, monkeypatch, threads,
                                     flags, top):
    if threads is not None:
        monkeypatch.setenv("SPDELAB_THREADS", threads)
    _assert_rejected(tmp_path, capsys, "verify-skorohod", {"n_samples": 8},
                     *flags, **top)


@pytest.mark.parametrize("levels", [[], [0], ["a"], 64, [-4]])
def test_bad_sup_levels_exit_2(tmp_path, capsys, levels):
    _assert_rejected(tmp_path, capsys, "verify-maximal",
                     {"n_samples": 10, "sup_levels": levels})


@pytest.mark.parametrize("levels", [[[30, 16]], [[32, 0]], [],
                                    [[32.7, 16]], [[32, 16.5]]])
@pytest.mark.parametrize("command", ["verify-lp", "verify-goperator",
                                     "verify-apriori"])
def test_bad_levels_exit_2(tmp_path, capsys, command, levels):
    _assert_rejected(tmp_path, capsys, command, {"levels": levels})


# a heat kernel with r = 3: simulate takes no exponents, so it runs
_HEAT_R3 = {"name": "heat", "delta": 1.0, "r_exp": 3.0}


@pytest.mark.parametrize("command,params", [
    ("verify-maximal", {"p": 1.0, "n_samples": 10}),
    # r = 3 from the kernel: p = q = 2 is below max(2, r)
    ("verify-apriori", {"kernel": _HEAT_R3, "g": "constant",
                        "levels": [[8, 2]], "n_samples": 2}),
    ("verify-apriori", {"p": 1.0}),
    ("verify-lp", {"q_exp": 3.0}),
    ("verify-goperator", {"phi": {"name": "power", "gamma": 1.0}}),
    ("verify-goperator", {"psi": {"name": "heat_osc"}}),
    # these ran to PASS: the G check needs p >= 2, and r < 1 has no
    # conjugate exponent (r = 0 raised ZeroDivisionError)
    ("verify-goperator", {"p": 0.5, "levels": [[16, 4]]}),
    ("verify-goperator", {"p": 1.0, "levels": [[16, 4]]}),
    ("verify-goperator", {"p": 1.5, "levels": [[16, 4]]}),
    ("verify-lp", {"r_exp": 0.0, "levels": [[8, 2]]}),
    ("verify-lp", {"r_exp": 0.5, "levels": [[8, 2]]}),
])
def test_hypothesis_violation_exits_2(tmp_path, capsys, command, params):
    _assert_rejected(tmp_path, capsys, command, params)


@pytest.mark.parametrize("command,params", [
    ("simulate", {"psi": {"name": "wrong_sign", "d": 1}, "g": "constant",
                  "grid": {"n": 128}}),
    ("verify-lp", {"psi": {"name": "wrong_sign"}, "levels": [[32, 16]]}),
    ("verify-goperator", {"psi": {"name": "wrong_sign"}, "levels": [[32, 16]]}),
    ("verify-kernelenv", {"psi": {"name": "wrong_sign"}}),
])
def test_wrong_sign_psi_exits_2(tmp_path, capsys, command, params):
    _assert_rejected(tmp_path, capsys, command, params)


def test_lp_odd_phi_exits_2(tmp_path, capsys):
    # ran to PASS: the square function runs on the half spectrum, which
    # needs an even Re phi, and coordinate is odd in xi
    _assert_rejected(tmp_path, capsys, "verify-lp", {
        "phi": {"name": "coordinate", "d": 1},
        "psi": {"name": "heat", "gamma": 1.0}})


@pytest.mark.parametrize("command,params", [
    ("simulate", {"n_t": 2.5}),
    ("simulate", {"n_samples": True}),
    ("simulate", {"grid": "x"}),
    ("verify-kernelenv", {"grid": "x"}),
    ("verify-bessel", {"grid": "x"}),
    ("simulate", {"estimator": "zzz"}),
    ("verify-apriori", {"estimator": "zzz"}),
    ("verify-multiplier", {"d": 4}),
    ("verify-multiplier", {"d": 8}),
    ("verify-lp", {"box": -1}),
    ("verify-goperator", {"box": -1}),
    ("verify-goperator", {"a": 1, "b": 0}),
    ("verify-skorohod", {"T": -1}),
    ("verify-maximal", {"T": -1}),
    ("verify-lp", {"a": 1, "b": 0, "levels": [[32, 16]]}),
    ("verify-apriori", {"box": -1, "levels": [[32, 16]]}),
    # alpha < 0 raised a ValueError traceback; p <= 1 ran to PASS, but
    # the L^p sum is no norm there and the equivalence needs 1 < p
    ("verify-bessel", {"alpha": -1.0, "grid": {"n": 8}, "count": 1}),
    ("verify-bessel", {"p": 0.5, "grid": {"n": 8}, "count": 1}),
    ("verify-bessel", {"p": 1.0, "grid": {"n": 8}, "count": 1}),
    # a symbol of another dimension than the grid raised a ValueError
    # traceback, or in simulate, where phi was not read, ran to PASS (phi
    # is now an unknown key there)
    ("verify-lp", {"psi": {"name": "heat", "d": 2}, "levels": [[8, 2]]}),
    ("verify-goperator", {"psi": {"name": "heat", "d": 2}, "levels": [[8, 2]]}),
    ("verify-bessel", {"phi": {"name": "power", "d": 2}, "grid": {"n": 8},
                       "count": 1}),
    ("verify-kernelenv", {"psi": {"name": "heat", "d": 2}, "grid": {"n": 16}}),
    ("verify-apriori", {"phi": {"name": "power", "d": 2}, "levels": [[8, 2]],
                        "n_samples": 2}),
    ("simulate", {"phi": {"name": "power", "d": 2}, "grid": {"n": 8},
                  "n_samples": 2}),
    # a symbol dimension that is not an integer raised a TypeError traceback
    ("verify-lp", {"phi": {"name": "power", "d": 1.5}, "levels": [[8, 2]]}),
    ("verify-goperator", {"phi": {"name": "power", "d": 1.5},
                          "levels": [[8, 2]]}),
    # a bool is a numbers.Real: d = true ran as d = 1
    ("verify-lp", {"psi": {"name": "heat", "d": True}, "levels": [[8, 2]]}),
    ("simulate", {"psi": {"name": "heat_osc", "d": True}, "grid": {"n": 8},
                  "n_samples": 2}),
    # an unknown key inside grid was ignored, and a lambdas entry given as
    # a string was read by float(): both ran to exit 0
    ("simulate", {"grid": {"n": 8, "N": 3}, "n_samples": 2}),
    ("verify-bessel", {"grid": {"n": 8, "x": 1}, "count": 1}),
    ("verify-kernelenv", {"grid": {"n": 16, "D": 1}}),
    ("simulate", {"lambdas": ["1.0"], "g": "constant", "grid": {"n": 8},
                  "n_samples": 2}),
    ("verify-apriori", {"lambdas": [1.0, "0.5"], "g": "constant",
                        "levels": [[8, 2]], "n_samples": 2}),
    # modewise draws each mode on its own, which put term_u about 23% low
    # at p = 4 and biased the check toward PASS; it now solves pathwise
    # only, and an estimator key is unknown
    ("verify-apriori", {"estimator": "modewise", "p": 4.0, "levels": [[8, 2]],
                        "n_samples": 2}),
    # one draw has no standard error: verify-maximal ran to PASS with
    # "lhs_se": "nan" in every level row, verify-skorohod to exit 1 with a
    # NaN z-score
    ("verify-maximal", {"n_samples": 1}),
    ("verify-skorohod", {"n_samples": 1}),
])
def test_bad_value_exits_2_where_it_enters(tmp_path, capsys, command, params):
    # each of these used to raise a traceback or to run to exit 0
    _assert_rejected(tmp_path, capsys, command, params)


@pytest.mark.parametrize("command", ["verify-lp", "verify-goperator"])
def test_whole_float_symbol_dimension_reads_as_integer(tmp_path, command):
    # d = 2.0 raised a TypeError traceback here, while d = 1.0 ran in the
    # commands that take the grid's d; both now read as integers
    reports = []
    for d in (2, 2.0):
        cfg = _write_cfg(tmp_path, "cfg.json", {"params": {
            "phi": {"name": "power", "d": d}, "levels": [[8, 2]]}})
        out = tmp_path / str(d)
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads((out / f"{command}.json").read_text())["report"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command,params", [
    ("verify-skorohod", {"T": 1e400, "n_samples": 100}),   # JSON 1e400 is inf
    ("simulate", {"T": 1e400}),
    ("verify-skorohod", {"T": 10 ** 400, "n_samples": 100}),  # overflows a float
    ("verify-lp", {"a": float("-inf"), "levels": [[32, 16]]}),
    ("verify-bessel", {"band_frac": -1}),
    ("verify-kernelenv", {"var_tol": -1}),
])
def test_non_finite_or_out_of_range_float_exits_2(tmp_path, capsys, command, params):
    # each of these used to run to a FAIL report (exit 1) or a traceback
    _assert_rejected(tmp_path, capsys, command, params)


@pytest.mark.parametrize("taus", [[1e400], [float("nan")], [0.0], [-0.1], [],
                                  ["0.1"], [0.1]])
def test_bad_t_minus_s_exits_2(tmp_path, capsys, taus):
    # the first five used to write a FAIL report or raise (exit 1); a
    # string was read as a number; one lag always passed, since the
    # stability test max/min - 1 over one constant is 0
    _assert_rejected(tmp_path, capsys, "verify-kernelenv", {"t_minus_s": taus})


@pytest.mark.parametrize("lambdas", [[1e400, 1.0], [float("nan"), 1.0],
                                     [10 ** 400, 1.0]])
@pytest.mark.parametrize("command,params", [
    ("simulate", {"g": "constant", "n_samples": 4}),
    ("verify-apriori", {"g": "constant", "n_samples": 4,
                        "levels": [[32, 16]]}),
])
def test_non_finite_lambda_exits_2(tmp_path, capsys, command, params, lambdas):
    # g carries coordinates in the sqrt(lambda_j) e_j basis, so no formula
    # reads a lambda: a non-finite one used to run to PASS
    _assert_rejected(tmp_path, capsys, command, dict(params, lambdas=lambdas))


# The JSON types each key of the tables accepts; any other type must exit 2.
_ACCEPTS = {
    "command": {str}, "seed": {int}, "emit_plots": {bool},
    "output_dir": {str}, "params": {dict},
    **dict.fromkeys(("psi", "phi"), {str, dict, type(None)}),
    "kernel": {str, dict},
    "grid": {dict, type(None)},
    **dict.fromkeys(("u0", "f", "g", "estimator", "process", "forcing"), {str}),
    **dict.fromkeys(("n_t", "m", "n_samples", "quad_refine", "J", "n_theta",
                     "count", "d"), {int}),
    **dict.fromkeys(("T", "p", "q_exp", "r_exp", "a", "b", "box", "alpha",
                     "band_frac", "var_tol"), {int, float}),
    **dict.fromkeys(("lambdas", "levels", "sup_levels", "t_minus_s"), {list}),
    # phi is needed there: a null phi raised a traceback
    ("verify-apriori", "phi"): {str, dict},
}
# the Python types json.load gives for each JSON kind the table names
_JSON_TYPES = {"int": {int}, "number": {int, float}, "string": {str},
               "list": {list}, "object": {dict}, "null": {type(None)},
               "bool": {bool}}
# empty containers and strings iterate as empty sequences: draw them often
_JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.just("") | st.text(max_size=6),
    list: st.just([]) | st.lists(
        st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=3),
    dict: st.just({}) | st.dictionaries(st.text(max_size=4), st.integers(),
                                        max_size=2),
}
# small valid configs, so that a bad value that slips through runs quickly
_SMALL = {
    "simulate": {"grid": {"n": 8}, "n_t": 2, "n_samples": 2, "quad_refine": 1},
    "verify-maximal": {"n_samples": 8, "sup_levels": [4]},
    "verify-lp": {"levels": [[8, 2]]},
    "verify-bessel": {"grid": {"n": 8}, "count": 1},
    "verify-multiplier": {},
    "verify-kernelenv": {"grid": {"n": 64}, "t_minus_s": [0.1, 0.2]},
    "verify-goperator": {"levels": [[8, 2]]},
    "verify-apriori": {"levels": [[8, 2]], "n_samples": 2, "quad_refine": 1},
    "verify-skorohod": {"n_samples": 8},
    "kernels": {},
}


# each table with the command it is tried with, and where in a config its
# keys sit: a command's params under "params", TOP's keys at the top
_TABLES = [(command, table, "params") for command, table in cli.PARAMS.items()] \
    + [("kernels", cli.TOP, None)]


def _config(where, key, value, params=()):
    """A config of `params` with `key` set to `value` among them, where
    `where` is "params", or beside them at the top."""
    config = {"params": dict(params)}
    (config[where] if where else config)[key] = value
    return config


# every known key of every table with each JSON type it never accepts, one
# unknown key per table, and simulate's former a-priori keys (p, q_exp and
# phi belong to verify-apriori, and {"p": 1.0} now fails as an unknown key)
_BAD_CASES = [(command, where, key, kind) for command, table, where in _TABLES
              for key in sorted(table) for kind in _JSON_VALUES
              if kind not in _ACCEPTS.get((command, key), _ACCEPTS.get(key))] \
    + [(command, where, None, int) for command, _, where in _TABLES] \
    + [("simulate", "params", key, float) for key in ("p", "q_exp", "phi")]


def test_small_configs_cover_every_command_and_run(tmp_path):
    assert set(_SMALL) == set(cli.COMMANDS)
    # the kinds the table declares for each key are the ones written above
    declared = {(command, key): {t for kind in rule.kinds.split("|")
                                 for t in _JSON_TYPES[kind]}
                for command, table, _ in _TABLES for key, rule in table.items()}
    assert declared == {(command, key): _ACCEPTS.get((command, key),
                                                     _ACCEPTS.get(key))
                        for command, key in declared}
    for command, params in _SMALL.items():
        cfg = _write_cfg(tmp_path, "ok.json", {"params": params})
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "r")]) == 0


# R and the density of the heat and Bessel kernels at a few (t, s), as
# `values`; run both in a fresh interpreter and in this one
_KERNEL_VALUES = """
import numpy as np
from spdelab.covariance import builtin_kernel

t, s = np.array([0.1, 0.5, 1.0, 3.0]), np.array([0.2, 0.5, 0.3, 1e-9])
values = {name: [k.R(t, s).tolist(), k.density(t, s).tolist()]
          for name, k in (("heat", builtin_kernel("heat", delta=1.0)),
                          ("bessel", builtin_kernel("bessel", delta=0.5)))}
"""

# Imports spdelab, runs the commands of argv[2] in order with output dir
# argv[1], and prints as its last stdout line the scipy modules loaded
# after the import and after each command, then _KERNEL_VALUES's values.
_FRESH_RUN = """
import contextlib, json, sys
import spdelab, spdelab.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = [["import", None, scipy_loaded()]]
out, small = sys.argv[1], json.loads(sys.argv[2])
for command, params in small.items():
    path = f"{out}/{command}.config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"params": params}, fh)
    with contextlib.redirect_stdout(sys.stderr):
        code = spdelab.cli.main([command, "--config", path, "--out", out])
    steps.append([command, code, scipy_loaded()])
""" + _KERNEL_VALUES + """
print(json.dumps({"steps": steps, "values": values}))
"""


def test_scipy_loads_only_for_heat_and_bessel_kernels(tmp_path):
    # every command but kernels, then kernels, in one fresh interpreter
    small = {c: p for c, p in _SMALL.items() if c != "kernels"}
    small["kernels"] = _SMALL["kernels"]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(fresh),
                           json.dumps(small)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    steps = result["steps"]
    assert [step[0] for step in steps] == ["import", *small]
    assert all(code in (None, 0) for _, code, _ in steps), steps
    assert [name for name, _, mods in steps if mods] == ["kernels"]
    assert {"scipy.special", "scipy.interpolate"} <= set(steps[-1][2])
    # the fresh interpreter, whose builders imported scipy on first use,
    # writes and computes what this one does with scipy loaded beforehand
    # (the kernels artifacts hold no value computed by scipy, R does)
    from scipy import interpolate, special  # noqa: F401

    warm = tmp_path / "warm"
    cfg = _write_cfg(tmp_path, "kernels.json", {"params": _SMALL["kernels"]})
    assert cli.main(["kernels", "--config", cfg, "--out", str(warm)]) == 0
    for ext in ("json", "csv"):
        assert (fresh / f"kernels.{ext}").read_bytes() == \
            (warm / f"kernels.{ext}").read_bytes()
    warm_values = {}
    exec(_KERNEL_VALUES, warm_values)
    assert result["values"] == warm_values["values"]


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.data())
def test_unknown_key_or_wrong_type_exits_2(tmp_path_factory, data):
    cfg = tmp_path_factory.getbasetemp() / "bad.json"
    for command, where, key, kind in _BAD_CASES:
        allowed = cli.PARAMS[command] if where else cli.TOP
        if key is None:
            key = data.draw(st.text(min_size=1, max_size=8).filter(
                lambda k: k not in allowed))
        config = _config(where, key, data.draw(_JSON_VALUES[kind]),
                         _SMALL[command])
        cfg.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(cfg.parent / "r")])
        assert code == 2, (command, config)
        assert err.getvalue().startswith("config error")
        assert "Traceback" not in err.getvalue()


def _outside(rule, valid):
    """Values just outside the bounds and choices of `rule`, each made from
    `valid`, a value that the rule accepts."""
    if rule.choices:
        yield f"{valid}-x"
    if rule.keys is not None:
        for key, sub in rule.keys.items():
            yield from ({**valid, key: bad} for bad in _outside(sub, valid[key]))
    elif isinstance(valid, (list, str)):   # the bounds limit the length
        if rule.least is not None:
            yield valid[:rule.least - 1]
        if rule.most is not None:
            yield valid + valid[-1:] * (rule.most + 1 - len(valid))
        if rule.each is not None:
            yield from ([bad] + valid[1:] for bad in _outside(rule.each, valid[0]))
    else:
        whole = rule.kinds == "int"
        if rule.above is not None:
            yield rule.above
        if rule.least is not None:
            yield rule.least - 1 if whole else math.nextafter(rule.least, -math.inf)
        if rule.most is not None:
            yield rule.most + 1 if whole else math.nextafter(rule.most, math.inf)


def _inside(rule, valid):
    """Values just inside the bounds of `rule`, made as in _outside."""
    if rule.keys is not None:
        for key, sub in rule.keys.items():
            yield from ({**valid, key: ok} for ok in _inside(sub, valid[key]))
    elif isinstance(valid, (list, str)):
        if rule.least is not None:
            yield (valid * rule.least)[:max(rule.least, 1)]
        if rule.each is not None:
            yield from ([ok] + valid[1:] for ok in _inside(rule.each, valid[0]))
    elif not rule.choices:
        whole = rule.kinds == "int"
        if rule.above is not None:
            yield rule.above + 1 if whole else math.nextafter(rule.above, math.inf)
        for bound in (rule.least, rule.most):
            if bound is not None:
                yield bound


# every bound and every choice of the tables, with a value just outside it
_OUT_OF_RANGE = [(command, where, key, bad) for command, table, where in _TABLES
                 for key, rule in table.items()
                 for bad in _outside(rule, rule.default)]


def test_out_of_range_values_exit_2(tmp_path):
    # the bounds are read from the tables; any config that runs past them,
    # or reaches a traceback, is a bug
    assert {command for command, where, _, _ in _OUT_OF_RANGE if where} == \
        set(cli.COMMANDS) - {"kernels"}
    assert {key for _, where, key, _ in _OUT_OF_RANGE if not where} == \
        {"command", "seed", "output_dir"}
    cfg = tmp_path / "bad.json"
    for command, where, key, bad in _OUT_OF_RANGE:
        cfg.write_text(json.dumps(_config(where, key, bad)), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(tmp_path / "r")])
        assert code == 2, (command, key, bad)
        assert err.getvalue().startswith("config error"), (command, key, bad)
        assert "Traceback" not in err.getvalue()


def test_values_just_inside_the_bounds_load(tmp_path):
    # the bounds are tight: the value next to each one passes the table
    cfg = tmp_path / "ok.json"
    cases = [(command, where, key, ok) for command, table, where in _TABLES
             for key, rule in table.items() for ok in _inside(rule, rule.default)]
    assert len(cases) >= len(_OUT_OF_RANGE) // 2
    for command, where, key, ok in cases:
        cfg.write_text(json.dumps(_config(where, key, ok)), encoding="utf-8")
        config = cli.load_config(command, path=str(cfg))
        assert (config.params if where else vars(config))[key] == ok


def test_readme_tables_list_the_params():
    # README.md has one table for the top-level keys and one per command:
    # every key, and each default that is a plain number, bool or string
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    titles = [(f"`{command}`", table) for command, table in cli.PARAMS.items()
              if table] + [("Top-level keys", cli.TOP)]
    for title, table in titles:
        section = text.split(f"**{title}**\n\n", 1)[1].split("\n\n")[0]
        cells = {row.split("|")[1].strip(" `"): row.split("|")[2].strip()
                 for row in section.splitlines()[2:]}
        want = {f"grid.{k}" if key == "grid" else key: sub
                for key, rule in table.items()
                for k, sub in (rule.keys or {None: rule}).items()}
        assert set(cells) == set(want), title
        for key, rule in want.items():
            if isinstance(rule.default, (bool, str)):
                assert cells[key].strip("`") == \
                    json.dumps(rule.default).strip('"'), (title, key)
            elif isinstance(rule.default, (int, float)) \
                    and "π" not in cells[key]:
                assert float(cells[key]) == rule.default, (title, key)


def test_process_choices_are_the_battery():
    names = [name for name, _ in battery.elementary_battery()]
    assert list(cli.PARAMS["verify-maximal"]["process"].choices) == names


@pytest.mark.parametrize("command,params", [
    # numpy refused these two allocations with a MemoryError traceback
    ("verify-kernelenv", {"grid": {"d": 6}}),          # 2^48 points
    ("verify-maximal", {"sup_levels": [2 ** 40]}),     # a 2^40-cell partition
    # sizes past the float range, which the cap's message must not spell
    # out; the second raised a ValueError traceback in numpy
    ("verify-kernelenv", {"grid": {"d": 10 ** 7, "n": 4}}),
    ("verify-kernelenv", {"grid": {"n": 2 ** 1000}}),
])
def test_config_over_the_array_cap_exits_2(tmp_path, capsys, command, params):
    _assert_rejected(tmp_path, capsys, command, params)


# N = 8 * 4096 + 1 path nodes: an 8.6 GB path Gram (pathwise), a 17 GB
# complex increment Gram (modewise), against 16.8 MB of samples and grids
_NOISY_LONG = {"grid": {"n": 16}, "n_t": 4096, "quad_refine": 8,
               "n_samples": 1, "g": "constant"}


@pytest.mark.parametrize("command,params", [
    ("simulate", _NOISY_LONG),
    ("simulate", dict(_NOISY_LONG, estimator="modewise")),
    ("verify-apriori", {"levels": [[16, 4096]], "quad_refine": 8,
                        "n_samples": 1, "g": "constant"}),
])
def test_gram_over_the_array_cap_is_a_config_error(tmp_path, command, params):
    # load_config only: the config must be refused before anything runs
    with pytest.raises(SchemaError, match="over the cap"):
        cli.load_config(command, _write_cfg(tmp_path, "big.json",
                                            {"params": params}))
    # without noise there is no Gram, and the same sizes are accepted
    cli.load_config(command, _write_cfg(tmp_path, "quiet.json",
                                        {"params": dict(params, g="none")}))


def _largest(command, params):
    return cli._largest_array(command, cli._fill(cli.PARAMS[command], params))


def test_largest_array_sizes():
    # verify-kernelenv stacks d complex gradient fields of n^d points; at
    # d = 4 and the default n = 256 that is 256 GiB (nothing is allocated)
    assert _largest("verify-kernelenv", {"grid": {"d": 4}}) == 16 * 4 * 256 ** 4
    assert _largest("verify-kernelenv", {"grid": {"d": 4}}) > cli._MAX_ARRAY_BYTES
    assert _largest("verify-kernelenv", {}) == 16 * 256
    # the largest benchmark array, the 71 MB samples of a 2-D modewise
    # simulate, stays far below the cap
    sim = {"grid": {"d": 2, "n": 64}, "lambdas": [1.0, 0.5], "n_t": 16,
           "f": "bump", "g": "constant", "n_samples": 64}
    assert _largest("simulate", sim) == 16 * 64 * 17 * 64 ** 2
    assert 16 * _largest("simulate", sim) < cli._MAX_ARRAY_BYTES
    assert _largest("kernels", {}) == _largest("verify-multiplier", {}) == 0


def test_largest_array_bounds_the_samples(monkeypatch):
    # the size function bounds the array the solver really allocates: it
    # counts 16 bytes per entry, the complex samples of modewise, and the
    # real samples of pathwise take half of that
    params = {"grid": {"n": 16}, "n_t": 4, "n_samples": 3, "m": 2,
              "g": "constant", "quad_refine": 1}
    seen = []
    monkeypatch.setattr(cli, "ensemble_summary_rows",
                        lambda ens: seen.append(ens.samples.nbytes) or [])
    for estimator in ("modewise", "pathwise"):
        cli._run_simulate(cli.RunConfig("simulate", cli._fill(
            cli.PARAMS["simulate"], dict(params, estimator=estimator)),
            0, "", False, ""))
    assert seen == [_largest("simulate", params),
                    _largest("simulate", params) // 2]


def test_pathwise_simulate_holds_one_time_slice():
    # the summary reduces the stream of time slices: the 32.5 MiB ensemble
    # (65 times) is never built
    params = cli._fill(cli.PARAMS["simulate"], {
        "grid": {"n": 256}, "n_t": 64, "n_samples": 256, "g": "constant",
        "quad_refine": 2, "estimator": "pathwise"})
    ensemble_bytes = 8 * 256 * 65 * 256
    assert ensemble_bytes >= 16 << 20
    result, peak = oracles.traced_peak(cli._run_simulate, cli.RunConfig(
        "simulate", params, 0, "", False, ""))
    assert result[0]
    assert peak < ensemble_bytes / 4


@pytest.mark.parametrize("params,code", [
    # the grid cannot resolve these lags: a constant fits to 0, and FAIL
    ({"t_minus_s": [1e-300, 2e-300]}, 1),
    # psi of order 0.1: tau^(-a/gamma) leaves the float range at tau = 1e-12
    ({"t_minus_s": [1e-12, 2e-12], "psi": {"name": "heat", "gamma": 0.1}}, 0),
])
def test_kernelenv_tiny_lag_reports_instead_of_overflowing(tmp_path, capsys,
                                                           params, code):
    # the envelope's lag term overflowed a Python float power (OverflowError
    # traceback); where it leaves the float range the envelope is |x|^-a
    cfg = _write_cfg(tmp_path, "k.json", {"params": dict(params, grid={"n": 16})})
    out = tmp_path / "r"
    assert cli.main(["verify-kernelenv", "--config", cfg,
                     "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "verify-kernelenv.json").read_text())["report"]
    assert report["taus"] == params["t_minus_s"]
    assert all(math.isfinite(report[c][0]) for c in ("C_kernel", "C_grad", "C_ds"))


@pytest.mark.parametrize("command", ["verify-lp", "verify-goperator"])
def test_default_psi_takes_phi_dimension(tmp_path, command):
    # the default psi stayed 1-D under a 2-D phi and raised a ValueError
    cfg = _write_cfg(tmp_path, "d2.json", {"params": {
        "phi": {"name": "power", "d": 2}, "levels": [[8, 2]]}})
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 0


def test_simulate_fails_on_non_finite_summary(tmp_path, monkeypatch):
    def nan_rows(ens):
        return [(float(t), np.nan, 0.0, 0.0) for t in ens.problem.times]

    monkeypatch.setattr(cli, "ensemble_summary_rows", nan_rows)
    cfg = _write_cfg(tmp_path, "sim.json",
                     {"params": {"grid": {"n": 16}, "n_t": 4, "n_samples": 2}})
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads((out / "simulate.json").read_text())["passed"] is False


def test_noise_without_modes_exits_2(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, "simulate",
                     {"lambdas": [], "g": "constant"})


def test_seed_override_changes_hash_out_does_not(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {"seed": 5, "output_dir": "a"})
    base = cli.load_config("kernels", path=cfg)
    seeded = cli.load_config("kernels", path=cfg, seed=6)
    moved = cli.load_config("kernels", path=cfg, out=str(tmp_path / "b"))
    assert seeded.config_hash != base.config_hash
    assert moved.config_hash == base.config_hash
    assert moved.output_dir != base.output_dir


# ---------------------------------------------------------------------------
# kernels table


def test_kernels_artifacts(tmp_path):
    out = tmp_path / "runs"
    assert cli.main(["kernels", "--out", str(out)]) == 0
    rows = _read_rows(out / "kernels.csv")
    by_name = {r["kernel"]: r for r in rows}
    assert set(by_name) == {"wiener", "fbm", "linear", "bessel", "heat"}
    assert float(by_name["wiener"]["r_exp"]) == 2.0
    assert float(by_name["fbm"]["r_exp"]) == pytest.approx(4.0 / 3.0)
    assert float(by_name["fbm"]["s_exp"]) == pytest.approx(4.0)
    assert float(by_name["linear"]["r_exp"]) == 1.0
    assert by_name["fbm"]["C_R"] == ""      # no declared operator constant
    assert by_name["wiener"]["singular_density"] == "true"
    payload = json.loads((out / "kernels.json").read_text())
    assert payload["passed"] is True
    assert payload["config_hash"] == rows[0]["config_hash"]


# ---------------------------------------------------------------------------
# byte determinism and the results ledger


SIM_PARAMS = {"grid": {"n": 16}, "n_t": 8, "T": 0.5, "n_samples": 8,
              "g": "constant", "lambdas": [1.0], "estimator": "modewise"}


def test_artifacts_independent_of_thread_count(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, "cfg.json", {"params": {"n_samples": 500}})
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SPDELAB_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        cli.main(["verify-skorohod", "--config", cfg, "--out", str(out)])
        written.append([(out / f"verify-skorohod.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("command,params", [
    # the mode blocks make the GEMMs large enough to thread
    pytest.param("simulate", dict(SIM_PARAMS, grid={"n": 64}, lambdas=[1.0, 0.5],
                                  n_samples=16), id="modewise"),
    # 129 path nodes, where a factor of the path-value Gram took other bits
    pytest.param("simulate", {"g": "constant", "kernel": "wiener", "n_t": 16},
                 id="pathwise"),
    pytest.param("verify-apriori", {"f": "bump", "g": "constant"}, id="apriori"),
])
def test_artifacts_independent_of_blas_threads(tmp_path, command, params):
    # the BLAS thread count is read when numpy loads, so each run gets its
    # own process; the default seed, 0
    cfg = _write_cfg(tmp_path, "cfg.json", {"params": params})
    src = str(Path(cli.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "spdelab.cli", command,
                        "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        written.append([(out / f"{command}.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["verify-lp", "verify-goperator"])
def test_operator_checks_fail_when_the_forcing_overflows(tmp_path, command):
    # the bump profile overflows to NaN on this box; in its own process,
    # where the overflow warns instead of raising
    cfg = _write_cfg(tmp_path, "cfg.json", {"params": {"box": 1e308}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spdelab.cli", command,
                           "--config", cfg, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    report = json.loads((tmp_path / f"{command}.json").read_text())["report"]
    assert report["lhs"] == report["ratio"] == "nan"
    assert not report["passed"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json",
                     {"seed": 9, "params": SIM_PARAMS})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    for fname in ("simulate.json", "simulate.csv"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_plots_deterministic_and_optional(tmp_path):
    base = {"seed": 9, "params": SIM_PARAMS}
    plain = _write_cfg(tmp_path, "plain.json", base)
    with_plots = _write_cfg(tmp_path, "plots.json",
                            dict(base, emit_plots=True))
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    assert cli.main(["simulate", "--config", plain, "--out", str(out_a)]) == 0
    assert not (out_a / "simulate.svg").exists()
    assert cli.main(["simulate", "--config", with_plots,
                     "--out", str(out_b)]) == 0
    assert cli.main(["simulate", "--config", with_plots,
                     "--out", str(out_c)]) == 0
    svg = (out_b / "simulate.svg").read_bytes()
    assert svg == (out_c / "simulate.svg").read_bytes()
    assert svg.startswith(b"<svg")
    # emit_plots does not perturb the numeric artifacts
    assert (out_a / "simulate.csv").read_bytes() == \
        (out_b / "simulate.csv").read_bytes()


def test_results_ledger_dedupes(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {"seed": 9, "params": SIM_PARAMS})
    out = tmp_path / "runs"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    cli.main(["simulate", "--config", cfg, "--seed", "10", "--out", str(out)])
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(ln)["command"] == "simulate" for ln in lines)


def test_different_seeds_differ(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {"seed": 9, "params": SIM_PARAMS})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", cfg, "--out", str(out_a)])
    cli.main(["simulate", "--config", cfg, "--seed", "10",
              "--out", str(out_b)])
    assert (out_a / "simulate.csv").read_bytes() != \
        (out_b / "simulate.csv").read_bytes()


# ---------------------------------------------------------------------------
# command smoke runs (small parameters, structural assertions)


def test_simulate_without_noise_has_zero_variance(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {
        "seed": 1,
        "params": {"grid": {"n": 16}, "n_t": 8, "T": 0.5, "n_samples": 4,
                   "lambdas": [1.0]}})
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows(out / "simulate.csv")
    assert len(rows) == 9
    tv = np.array([float(r["total_variance"]) for r in rows])
    assert np.all(tv == 0.0)
    l2 = np.array([float(r["mean_l2"]) for r in rows])
    assert np.all(np.diff(l2) < 0.0)        # pure heat decay of the bump


def test_simulate_defaults_to_pathwise(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {"params": {"grid": {"n": 8},
                                                       "n_t": 2}})
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())["report"]
    assert report["estimator"] == "pathwise"
    assert "details" not in report
    assert all(float(r["mean_sup"]) > 0 for r in _read_rows(out / "simulate.csv"))


def test_simulate_takes_a_kernel_with_r_above_2(tmp_path):
    # simulate refused this config (exit 2, "need p >= q >= max(2, r)")
    # for a hypothesis of the a-priori check, which alone takes exponents
    cfg = _write_cfg(tmp_path, "sim.json", {"params": {"kernel": _HEAT_R3,
                                                       "g": "constant"}})
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())["report"]
    assert report["kernel"] == "heat"
    rows = _read_rows(out / "simulate.csv")
    assert len(rows) == 17 and float(rows[-1]["total_variance"]) > 0


def test_modewise_simulate_leaves_mean_sup_empty(tmp_path):
    # modewise draws each mode on its own: a sup norm of its samples is not
    # one of the solution, so no number is written, and PASS does not read it
    cfg = _write_cfg(tmp_path, "sim.json", {"params": dict(SIM_PARAMS, n_t=2)})
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())["report"]
    assert all(r["mean_sup"] == "" for r in report["rows"])
    assert "second moments only" in report["details"]["samples"]
    rows = _read_rows(out / "simulate.csv")
    assert [r["mean_sup"] for r in rows] == ["", "", ""]
    assert all(float(r["total_variance"]) >= 0 for r in rows)


def test_verify_skorohod_reports_eight_cases(tmp_path):
    cfg = _write_cfg(tmp_path, "sk.json",
                     {"seed": 3, "params": {"n_samples": 4000}})
    out = tmp_path / "runs"
    assert cli.main(["verify-skorohod", "--config", cfg,
                     "--out", str(out)]) == 0
    payload = json.loads((out / "verify-skorohod.json").read_text())
    checks = payload["report"]["checks"]
    assert len(checks) == 8
    names = {c["name"] for c in checks}
    assert {"linear-exact/wiener", "poly-shared/fbm"} <= names
    assert all(c["passed"] for c in checks)
    rows = _read_rows(out / "verify-skorohod.csv")
    assert len(rows) == 8 and all(float(r["z_score"]) < 4.0 for r in rows)


def test_verify_bessel_small_run(tmp_path):
    cfg = _write_cfg(tmp_path, "b.json", {
        "seed": 2,
        "params": {"grid": {"n": 32}, "alpha": 2.0, "count": 4}})
    out = tmp_path / "runs"
    assert cli.main(["verify-bessel", "--config", cfg,
                     "--out", str(out)]) == 0
    rows = _read_rows(out / "verify-bessel.csv")
    assert len(rows) == 4
    assert all(0.0 < float(r["ratio"]) <= 1.0 for r in rows)


def test_verify_maximal_small_run(tmp_path):
    cfg = _write_cfg(tmp_path, "m.json", {
        "seed": 4,
        "params": {"process": "linear-exact", "kernel": "wiener",
                   "n_samples": 600, "sup_levels": [16, 32], "p": 2.0}})
    out = tmp_path / "runs"
    assert cli.main(["verify-maximal", "--config", cfg,
                     "--out", str(out)]) == 0
    rows = _read_rows(out / "verify-maximal.csv")
    assert [int(float(r["level"])) for r in rows] == [16, 32]


def test_verify_lp_forcing_switch(tmp_path):
    params = {"levels": [[32, 16]], "n_theta": 4, "r_exp": 4.0 / 3.0}
    bad = _write_cfg(tmp_path, "bad.json",
                     {"params": dict(params, forcing="wavelet")})
    assert cli.main(["verify-lp", "--config", bad,
                     "--out", str(tmp_path / "x")]) == 2
    outs = {}
    for forcing in ("product", "mixed"):
        cfg = _write_cfg(tmp_path, f"{forcing}.json",
                         {"params": dict(params, forcing=forcing)})
        out = tmp_path / forcing
        assert cli.main(["verify-lp", "--config", cfg,
                         "--out", str(out)]) == 0
        payload = json.loads((out / "verify-lp.json").read_text())
        outs[forcing] = payload["report"]["ratio"]
    # the mixed forcing is not a product in theta, so the ratios differ
    assert outs["product"] != outs["mixed"]


def test_verify_kernelenv_defaults_to_wide_box(tmp_path):
    cfg = _write_cfg(tmp_path, "k.json", {
        "seed": 0, "params": {"grid": {"n": 128}, "t_minus_s": [0.1, 0.2]}})
    out = tmp_path / "runs"
    assert cli.main(["verify-kernelenv", "--config", cfg,
                     "--out", str(out)]) == 0
    payload = json.loads((out / "verify-kernelenv.json").read_text())
    assert payload["report"]["taus"] == [0.1, 0.2]
    assert payload["report"]["passed"] is True
