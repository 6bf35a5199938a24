"""Batch front-end: JSON config in, CSV/JSON/SVG artifacts out.

Usage: ``spdelab <command> --config path.json [--seed N] [--out dir]``.

One config file drives one command; a sha256 hash of the config is
embedded in every artifact so results stay attributable.  Reruns with
the same config and seed write byte-identical CSV/JSON (plots are
content-deterministic but excluded from the byte guarantee).  Exit code:
0 all checks passed, 1 a check failed (report still written), 2 bad
config, including a config that violates a check's hypotheses or a
symbol's class.  The config's top-level keys (``TOP``), the ``--seed`` and
``--out`` flags that override two of them, and each command's params
(``PARAMS``) are checked by the same ``Key`` rules.  ``SPDELAB_THREADS``,
a positive integer or unset, caps battery-level parallelism; anything else
is a bad config.  Artifact writes stay serialized in the main thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import operator
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import battery
from .covariance import builtin_kernel
from .errors import (HypothesisViolationError, SchemaError, SpdelabError,
                     SymbolClassError)
from .gaussian import QSpec
from .malliavin import skorohod_moment_check
from .reports import _plain
from .solver import ESTIMATORS, SPDEProblem, ensemble_summary_rows, solve
from .spectral import Field, GridSpec, check_grid_size
from .symbols import builtin_symbol, check_marcinkiewicz, check_mihlin
from .verify import (
    _DRAW_BLOCK,
    apriori_refinement,
    bessel_equivalence_check,
    g_operator_check,
    kernel_envelope_check,
    lp_inequality_check,
    maximal_inequality_check,
)

COMMANDS = (
    "simulate", "verify-maximal", "verify-lp", "verify-bessel",
    "verify-multiplier", "verify-kernelenv", "verify-goperator",
    "verify-apriori", "verify-skorohod", "kernels",
)


# ---------------------------------------------------------------------------
# the top-level keys of a config, and the params of each command

# One key's rule.  `kinds` are its JSON kinds ("int|null"), where a null
# stands for the default.  A number must be finite; `above` (>), `least`
# (>=) and `most` (<=) bound a number, or the length of a list or string.
# `each` rules a list's elements, `keys` an object's keys (others are
# refused), and `choices` lists the values allowed.  A callable default of
# a symbol is completed with the grid's dimension.
Key = namedtuple("Key", "kinds default above least most choices each keys",
                 defaults=(None, None, None, None, (), None, None))
_KINDS = {"int": int, "number": (int, float), "string": str, "list": list,
          "object": dict, "null": type(None), "bool": bool}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
_MAX_ARRAY_BYTES = 2 ** 32    # 4 GiB, the largest array a config may ask for


def _grid(n, L=2.0 * np.pi):
    """The rule of a "grid": d axes, n points per axis, period L."""
    keys = {"d": Key("int", 1, least=1), "n": Key("int", n, least=4),
            "L": Key("number", L, above=0)}
    return Key("object|null", {k: r.default for k, r in keys.items()},
               keys=keys)


# default symbols of order 2, completed with the grid's dimension d
_HEAT = partial(dict, name="heat", gamma=2.0)
_POWER = partial(dict, name="power", gamma=2.0)
_count = partial(Key, "int", least=1)      # a count, with its default
_SYMBOL, _NUM2 = "string|object|null", Key("number", 2.0)
_KERNEL = Key("string|object", "wiener")
_LEVELS = Key("list", [[32, 16], [64, 32], [128, 64]], least=1,
              each=Key("list", least=2, most=2, each=_count(None)))
# the problem of simulate and verify-apriori
_PROBLEM = {
    "psi": Key(_SYMBOL, _HEAT), "kernel": _KERNEL, "m": _count(1),
    "T": Key("number", 1.0, above=0),
    "lambdas": Key("list", [1.0, 0.5], each=Key("number")),
    "u0": Key("string", "bump", choices=("zero", "bump")),
    "f": Key("string", "none", choices=("none", "bump")),
    "g": Key("string", "none", choices=("none", "constant")),
    "quad_refine": _count(8)}
# the elementary processes of verify-maximal and verify-skorohod
_PROCESS = {"J": _count(2), "m": _count(2), "T": Key("number", 1.0, above=0)}
_OPERATOR = {
    "phi": Key(_SYMBOL, _POWER(d=1)), "psi": Key(_SYMBOL, _HEAT), "p": _NUM2,
    "levels": _LEVELS, "a": Key("number", 0.0), "b": Key("number", 1.0),
    "box": Key("number", 2.0 * np.pi, above=0), "m": _count(1)}

PARAMS = {
    "simulate": {
        **_PROBLEM, "grid": _grid(32), "n_t": _count(16),
        "n_samples": _count(32),
        "estimator": Key("string", "pathwise", choices=ESTIMATORS)},
    "verify-maximal": {
        **_PROCESS, "kernel": _KERNEL, "p": _NUM2, "q_exp": _NUM2,
        "process": Key("string", "linear-exact", choices=(
            "deterministic", "linear-exact", "curved-two-term", "poly-shared")),
        "n_samples": Key("int", 4096, least=2), "sup_levels": Key(
            "list", [64, 128, 256], least=1, each=_count(None))},
    "verify-lp": {
        **_OPERATOR, "q_exp": _NUM2, "r_exp": _NUM2, "n_theta": _count(1),
        "forcing": Key("string", "product", choices=("product", "mixed")),
        # the lhs sums over cells s < t: n_t >= 2 (n is a power of two >= 4)
        "levels": _LEVELS._replace(
            each=_LEVELS.each._replace(each=_count(None, least=2)))},
    "verify-bessel": {
        "phi": Key(_SYMBOL, _POWER), "grid": _grid(64), "m": _count(1),
        "alpha": Key("number", 2.0, least=0), "count": _count(16),
        "band_frac": Key("number", 0.5, above=0),
        # the L^p sum is no norm below p = 1, and the equivalence needs 1 < p
        "p": Key("number", 2.0, above=1)},
    # the multiplier battery's dyadic sampling covers d <= 3
    "verify-multiplier": {"d": Key("int", 1, least=1, most=3)},
    "verify-kernelenv": {
        "phi": Key(_SYMBOL, _POWER), "psi": Key(_SYMBOL, _HEAT),
        # box 4*pi: the far-field fit region must hold several kernel widths
        "grid": _grid(256, L=4.0 * np.pi),
        # one lag fits one constant: the stability test needs two
        "t_minus_s": Key("list", [0.1, 0.2, 0.4], least=2,
                         each=Key("number", above=0)),
        "var_tol": Key("number", 0.2, least=0)},
    "verify-goperator": _OPERATOR,
    "verify-apriori": {   # runs on simulate's default grid at each level's n
        **_PROBLEM, "p": _NUM2, "q_exp": _NUM2,
        "phi": Key("string|object", _POWER(d=1)), "levels": _LEVELS,
        "n_samples": _count(48)},
    "verify-skorohod": {**_PROCESS, "n_samples": Key("int", 100_000, least=2)},
    "kernels": {},
}

# the keys of a config; it may name only the command it is run with
TOP = {"command": Key("string", choices=COMMANDS),
       "seed": Key("int", 0, least=0), "emit_plots": Key("bool", False),
       "output_dir": Key("string", "runs", least=1),
       "params": Key("object", {})}


def _fill(table, given, where=""):
    """The values of `given` checked against `table`, defaults filled in;
    a key that `table` does not name is refused."""
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise SchemaError(f"unknown keys {[where + k for k in unknown]}; "
                          f"allowed {[where + k for k in sorted(table)]}")
    return {key: _check(rule, given[key], where + key) if key in given
            else rule.default for key, rule in table.items()}


def _check(rule, val, name):
    """val checked against rule; a "number" comes back as a float."""
    kinds = rule.kinds.split("|")
    if val is None and "null" in kinds:
        return rule.default
    size = len(val) if isinstance(val, (list, str)) else val
    bounds = [(op, v) for op, v in ((">", rule.above), (">=", rule.least),
                                    ("<=", rule.most)) if v is not None]
    if isinstance(val, bool) and "bool" not in kinds \
            or not isinstance(val, tuple(_KINDS[k] for k in kinds)) \
            or isinstance(val, (int, float)) \
            and not abs(val) <= sys.float_info.max \
            or rule.choices and val not in rule.choices \
            or not all(_OPS[op](size, v) for op, v in bounds):
        what = f"one of {list(rule.choices)}" if rule.choices else " or ".join(
            ("an " if k[0] in "aio" else "a ") + k for k in kinds)
        if bounds:
            what += " of length" * ("list" in kinds or "string" in kinds) \
                + " " + " and ".join(f"{op} {v}" for op, v in bounds)
        raise SchemaError(f"{name!r} must be {what}, got {val!r}")
    if rule.each is not None:
        return [_check(rule.each, v, f"{name}[{i}]") for i, v in enumerate(val)]
    if rule.keys is not None:
        return _fill(rule.keys, val, name + ".")
    return float(val) if kinds == ["number"] else val


def _largest_array(command, p):
    """Bytes of the largest array that `command` allocates with the
    resolved params p."""
    if command in ("verify-maximal", "verify-skorohod"):
        # the Gram of the fine partition (the battery's 2 cells, or the
        # finest sup level), and the draws on it: in blocks in verify-maximal
        P = max(p.get("sup_levels", [0])) + 2
        n = min(p["n_samples"], _DRAW_BLOCK if "sup_levels" in p else math.inf)
        return 8 * max(P * P, n * (P + 1) * max(p["J"], p["m"]))
    d = p["grid"]["d"] if "grid" in p else _build(builtin_symbol, p["phi"]).d \
        if command in ("verify-lp", "verify-goperator") else 1
    S, m = p.get("n_samples", 1), p.get("m", 1)
    J = len(p["lambdas"]) if p.get("g") == "constant" else 0   # noise modes
    big = 0
    for n, n_t in p.get("levels", [(p["grid"]["n"], p.get("n_t", 1))]
                        if "grid" in p else []):
        N = p.get("quad_refine", 0) * n_t + 1      # the refined path nodes
        # the quadrature table's nodes: n_t + 1 solution times and the N - 1
        # subcell midpoints
        table = N + n_t
        per_point = {    # complex entries per grid point
            "verify-lp": n_t * p.get("n_theta", 1) * m,
            "verify-goperator": n_t * m, "verify-kernelenv": d,
            "verify-bessel": p.get("count", 1) * m,
        }.get(command, max(S * (n_t + 1) * m, table, n_t * m * J))
        # with noise, the Gram of the increments between the path nodes:
        # complex for modewise, real for pathwise
        gram = (N - 1) ** 2 * (16 if p.get("estimator") == "modewise" else 8)
        # past d = 64 any grid is over the cap; min keeps n^d a small int
        big = max(big, 16 * per_point * n ** min(d, 64),
                  8 * S * J * (2 * N - 1), J and gram)
    return big


@dataclass
class RunConfig:
    """Resolved invocation: command, checked params, bookkeeping."""

    command: str
    params: dict
    seed: int
    output_dir: str
    emit_plots: bool
    config_hash: str
    threads: int | None = None     # SPDELAB_THREADS; None: the pool's default


def _canonical(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def load_config(command, path=None, seed=None, out=None) -> RunConfig:
    """Parse + strictly validate the config file, applying CLI overrides."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    _check(TOP["command"], command, "command")
    top = _fill(dict(TOP, command=Key("string", choices=(command,))),
                _check(Key("object"), raw, "config root"))
    top.update({key: _check(TOP[key], val, key) for key, val
                in (("seed", seed), ("output_dir", out)) if val is not None})
    resolved = _fill(PARAMS[command], top["params"])
    size = _largest_array(command, resolved)
    if size > _MAX_ARRAY_BYTES:
        raise SchemaError(f"{command} would allocate 2^{math.log2(size):.1f} "
                          "bytes in one array, over the cap of "
                          f"{_MAX_ARRAY_BYTES >> 30} GiB")
    threads = os.environ.get("SPDELAB_THREADS") or None      # "" is unset
    if threads is not None:
        threads = _check(Key("int", least=1), int(threads) if
                         threads.isdecimal() else threads, "SPDELAB_THREADS")
    # hash what determines the numbers (not where they are written), as given
    given = {"command": command, "params": top["params"], "seed": top["seed"]}
    digest = hashlib.sha256(_canonical(given).encode("utf-8")).hexdigest()
    return RunConfig(command=command, params=resolved, seed=top["seed"],
                     output_dir=top["output_dir"],
                     emit_plots=top["emit_plots"], config_hash=digest,
                     threads=threads)


# ---------------------------------------------------------------------------
# config -> objects


@contextmanager
def _schema_errors(what):
    """Report a bad value met while building `what` from config as SchemaError."""
    try:
        yield
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from None


def _build(ctor, cfg):
    """ctor(name, **kw) from a config "name" or {"name": ..., **kw}."""
    with _schema_errors(repr(cfg)):
        if isinstance(cfg, dict):
            kw = dict(cfg)
            return ctor(kw.pop("name"), **kw)
        return ctor(cfg)


def _symbol(cfg, d):
    """A builtin symbol from config that lives on a d-dimensional grid."""
    sym = _build(builtin_symbol, cfg(d=d) if callable(cfg) else cfg)
    if sym.d != d:
        raise SchemaError(f"symbol {sym.name!r} has d={sym.d} but the grid "
                          f"has d={d}")
    return sym


def _make_grid(cfg, n=None):
    """GridSpec from a resolved "grid"; a given n overrides cfg's."""
    with _schema_errors(f"grid {cfg}"):
        return GridSpec(d=cfg["d"], L=cfg["L"], n=cfg["n"] if n is None else n)


def _levels(p):
    """The (n, n_t) refinement levels of the operator and a-priori checks."""
    with _schema_errors("param 'levels'"):
        for n, _ in p["levels"]:
            check_grid_size(n)
    return [tuple(level) for level in p["levels"]]


def _window(p):
    """(a, b, box) of the operator checks: forcing window a < b."""
    if not p["b"] > p["a"]:
        raise SchemaError(f"param 'b' must be > a = {p['a']}, got {p['b']}")
    return p["a"], p["b"], p["box"]


def _u0_field(kind, grid, m):
    if kind == "zero":
        return Field.zeros(grid, m)
    bump = battery.bump_profile(box=grid.L, width_frac=1.0 / 8.0)
    return Field(grid, m, np.tile(bump(grid.x_grid())[None, :], (m, 1)))


def _forcing_arrays(params, grid, times, m, J):
    """Build (f, g) node/cell arrays from the config 'f'/'g' kind switches."""
    bump = battery.bump_profile(box=grid.L, width_frac=1.0 / 8.0)(grid.x_grid())
    f = g = None
    if params["f"] == "bump":
        win = np.sin(np.pi * times / float(times[-1])) ** 2
        f = win[:, None, None] * np.tile(bump[None, None, :], (1, m, 1))
    if params["g"] == "constant":
        if J < 1:
            raise SchemaError("g 'constant' needs at least one noise mode "
                              "(param 'lambdas' is empty)")
        fac = 1.0 / (1.0 + np.arange(J))
        g = np.tile(bump[None, None, None, :], (len(times) - 1, m, J, 1)) \
            * fac[None, None, :, None]
    return f, g


def _build_problem(p, n=None, n_t=None):
    """The SPDEProblem of simulate, or of verify-apriori at level (n, n_t)."""
    grid = _make_grid(p.get("grid", PARAMS["simulate"]["grid"].default), n=n)
    psi = _symbol(p["psi"], grid.d)
    kernel = _build(builtin_kernel, p["kernel"])
    times = np.linspace(0.0, p["T"], (p["n_t"] if n_t is None else n_t) + 1)
    with _schema_errors("param 'lambdas'"):
        q = QSpec(tuple(p["lambdas"]))
    u0 = _u0_field(p["u0"], grid, p["m"])
    f, g = _forcing_arrays(p, grid, times, p["m"], q.J)
    with _schema_errors("problem"):
        return SPDEProblem(psi=psi, u0=u0, kernel=kernel, q=q, times=times,
                           f=f, g=g, quad_refine=p["quad_refine"])


# ---------------------------------------------------------------------------
# command runners: each returns (passed, report_dict, table_rows, trace)


def _ratio_result(rep, xlabel):
    rows = [{"level": lev, "ratio": r} for (lev, r) in rep.refinement_trace]
    return rep.passed, rep.to_dict(), rows, (xlabel, "ratio", rep.refinement_trace)


def _run_kernels(cfg: RunConfig):
    listing = [("wiener", {}), ("fbm", {"H": 0.75}), ("linear", {}),
               ("bessel", {"delta": 0.5}), ("heat", {"delta": 1.0})]
    rows = []
    for name, kw in listing:
        k = builtin_kernel(name, **kw)
        rows.append({"kernel": k.name, "params": _canonical(kw),
                     "r_exp": k.r_exp, "s_exp": k.s_exp,
                     "C_R": "" if k.C_R is None else k.C_R,
                     "singular_density": k.singular_density})
    return True, {"kernels": rows}, rows, None


def _run_simulate(cfg: RunConfig):
    p = cfg.params
    pb = _build_problem(p)
    ens = solve(pb, p["n_samples"], cfg.seed, estimator=p["estimator"])
    # a summary without a sup-norm (modewise) leaves the mean_sup cell empty
    rows = [{"t": t, "mean_l2": mf, "total_variance": tv,
             "mean_sup": "" if ms is None else ms}
            for (t, mf, tv, ms) in ensemble_summary_rows(ens)]
    report = {"estimator": ens.estimator, "n_samples": ens.n_samples,
              "n_times": pb.n_times, "grid_n": pb.grid.n, "m": pb.m,
              "kernel": pb.kernel.name, "rows": rows}
    if any(r["mean_sup"] == "" for r in rows):
        report["details"] = {"samples": "per-mode second moments only; "
                             "mean_sup needs the joint law and is left empty"}
    trace = [(r["t"], r["total_variance"]) for r in rows]
    return all(np.isfinite(v) for r in rows for v in r.values() if v != ""), \
        report, rows, ("t", "total variance", trace)


def _run_verify_skorohod(cfg: RunConfig):
    p = cfg.params
    cases = battery.skorohod_battery(J=p["J"], m=p["m"], T=p["T"])

    def job(case):
        name, proc, kern = case
        return skorohod_moment_check(proc, kern, QSpec((1.0,) * p["J"]),
                                     p["n_samples"], cfg.seed, name=name)
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        reports = list(pool.map(job, cases))
    rows = [{"case": r.name, "lhs": r.lhs, "rhs": r.rhs,
             "z_score": r.z_score, "passed": r.passed} for r in reports]
    return all(r.passed for r in reports), {
        "checks": [r.to_dict() for r in reports]}, rows, None


def _run_verify_maximal(cfg: RunConfig):
    p = cfg.params
    procs = dict(battery.elementary_battery(J=p["J"], m=p["m"], T=p["T"]))
    kern = _build(builtin_kernel, p["kernel"])
    rep = maximal_inequality_check(
        procs[p["process"]], kern, QSpec((1.0,) * p["J"]), p["p"],
        p["q_exp"], p["n_samples"], cfg.seed,
        sup_levels=tuple(p["sup_levels"]),
        name=f"maximal[{p['process']}/{kern.name}]")
    return _ratio_result(rep, "level")


def _run_verify_lp(cfg: RunConfig):
    p = cfg.params
    phi = _build(builtin_symbol, p["phi"])
    psi = _symbol(p["psi"], phi.d)
    a, b, box = _window(p)
    maker = battery.lp_forcing if p["forcing"] == "product" \
        else battery.lp_forcing_mixed
    rep = lp_inequality_check(
        phi, psi, maker(a=a, b=b, box=box, m=p["m"]), p["p"], p["q_exp"],
        p["r_exp"], levels=_levels(p), a=a, b=b, box=box, n_theta=p["n_theta"])
    return _ratio_result(rep, "grid n")


def _run_verify_bessel(cfg: RunConfig):
    p = cfg.params
    grid = _make_grid(p["grid"])
    phi = _symbol(p["phi"], grid.d)
    fields = battery.bessel_field_battery(
        grid, m=p["m"], count=p["count"], seed=cfg.seed,
        band_frac=p["band_frac"])
    rep = bessel_equivalence_check(phi, p["alpha"], p["p"], fields)
    rows = [{"field": i, "ratio": r} for i, r in enumerate(rep["ratios"])]
    return rep["passed"], rep, rows, None


def _run_verify_multiplier(cfg: RunConfig):
    mih, marc, failing = battery.multiplier_battery(d=cfg.params["d"])
    reports = [(name, cond, expect, check(sym)) for group, cond, check, expect
               in ((mih, "mihlin", check_mihlin, True),
                   (marc, "marcinkiewicz", check_marcinkiewicz, True),
                   (failing, "mihlin", check_mihlin, False))
               for name, sym in group]
    rows = [{"case": name, "condition": cond, "worst_constant": r.worst_constant,
             "passed": r.passed, "expected_pass": expect}
            for name, cond, expect, r in reports]
    report = {"checks": [dict(case=n, condition=c, expected_pass=e,
                              report=r.to_dict()) for n, c, e, r in reports]}
    return all(r.passed == e for _, _, e, r in reports), report, rows, None


def _run_verify_kernelenv(cfg: RunConfig):
    p = cfg.params
    grid = _make_grid(p["grid"])
    phi = _symbol(p["phi"], grid.d)
    psi = _symbol(p["psi"], grid.d)
    rep = kernel_envelope_check(phi, psi, p["t_minus_s"], grid,
                                var_tol=p["var_tol"])
    cols = ("C_kernel", "C_grad", "C_ds", "sup_kernel")
    rows = [dict(zip(("tau",) + cols, vals))
            for vals in zip(rep["taus"], *(rep[c] for c in cols))]
    trace = list(zip(rep["taus"], rep["C_kernel"]))
    return rep["passed"], rep, rows, ("t-s", "fitted C", trace)


def _run_verify_goperator(cfg: RunConfig):
    p = cfg.params
    phi = _build(builtin_symbol, p["phi"])
    psi = _symbol(p["psi"], phi.d)
    if psi.time_dependent:
        raise SchemaError("verify-goperator needs a time-independent psi, "
                          f"got {psi.name!r}")
    a, b, box = _window(p)
    rep = g_operator_check(
        phi, psi, battery.g_operator_forcings(a=a, b=b, box=box, m=p["m"]),
        p["p"], levels=_levels(p), a=a, b=b, box=box)
    return _ratio_result(rep, "grid n")


def _run_verify_apriori(cfg: RunConfig):
    p = cfg.params
    phi = _symbol(p["phi"], PARAMS["simulate"]["grid"].default["d"])
    rep = apriori_refinement(
        lambda n, n_t: _build_problem(p, n=n, n_t=n_t), phi, p["p"],
        p["q_exp"], _levels(p), p["n_samples"], cfg.seed)
    return _ratio_result(rep, "grid n")


_RUNNERS = {
    "kernels": _run_kernels,
    "simulate": _run_simulate,
    "verify-skorohod": _run_verify_skorohod,
    "verify-maximal": _run_verify_maximal,
    "verify-lp": _run_verify_lp,
    "verify-bessel": _run_verify_bessel,
    "verify-multiplier": _run_verify_multiplier,
    "verify-kernelenv": _run_verify_kernelenv,
    "verify-goperator": _run_verify_goperator,
    "verify-apriori": _run_verify_apriori,
}


# ---------------------------------------------------------------------------
# artifact writers (all byte-deterministic for fixed config + seed)


def _fmt_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, rows, config_hash):
    """RFC-4180 table; the config hash rides along as a trailing column."""
    if not rows:
        rows = [{}]
    header = list(rows[0].keys()) + ["config_hash"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt_cell(r[k]) for k in header[:-1]] + [config_hash])


def _write_json(path, payload):
    text = json.dumps(_plain(payload), sort_keys=True, indent=2,
                      ensure_ascii=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _append_ledger(path, entry):
    """Append one JSONL line; identical reruns leave the file unchanged."""
    line = _canonical(entry)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            if any(ln.strip() == line for ln in fh):
                return
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(line + "\n")


def _write_svg(path, xlabel, ylabel, points, title):
    """Minimal polyline plot; deterministic text output, no timestamps."""
    W, H, pad = 640, 400, 50
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if not xs:
        xs, ys = [0.0], [0.0]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def py(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>',
        f'<text x="{W//2}" y="{H-12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{H//2}" font-size="12" transform="rotate(-90 14 {H//2})">{ylabel}</text>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def run(config: RunConfig) -> int:
    """Execute one command and write its artifacts; returns the exit code."""
    passed, report, rows, trace = _RUNNERS[config.command](config)
    os.makedirs(config.output_dir, exist_ok=True)
    stem = os.path.join(config.output_dir, config.command)
    _write_json(stem + ".json", {
        "command": config.command, "seed": config.seed, "report": report,
        "config_hash": config.config_hash, "passed": bool(passed)})
    _write_csv(stem + ".csv", rows, config.config_hash)
    if config.emit_plots and trace is not None:
        xlabel, ylabel, pts = trace
        _write_svg(stem + ".svg", xlabel, ylabel, pts,
                   f"{config.command} ({config.config_hash[:12]})")
    _append_ledger(os.path.join(config.output_dir, "results.jsonl"), {
        "command": config.command, "config_hash": config.config_hash,
        "seed": config.seed, "passed": bool(passed)})
    print(f"{config.command}: {'PASS' if passed else 'FAIL'} "
          f"(artifacts in {config.output_dir}, config {config.config_hash[:12]})")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="simulator and inequality checkers (config-driven)")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output dir")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.command, path=args.config, seed=args.seed,
                             out=args.out)
    except (SchemaError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (SchemaError, HypothesisViolationError, SymbolClassError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpdelabError as exc:
        print(f"check failed to run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
