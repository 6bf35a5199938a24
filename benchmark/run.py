#!/usr/bin/env python3
"""spdelab benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  An
*op* runs each command of the workload once through ``spdelab.cli``
(``load_config`` then ``run``), in this process, from config file to
artifacts.  Ops repeat until the next one would end after ``--seconds``.

``--trace 0`` runs SETUP_PROCESSES fresh processes that only set up, then
splits the rest of the window over PROCESSES fresh processes that also run
ops, all one after the other, and prints the end-to-end metrics:
``setup_s`` (import spdelab and resolve the configs), the median over all
the processes; ``cold_op_s`` (first op of a process), the median over the
op processes; ``op_s``, the median of the later (warm) ops; and
``peak_rss_mb``.  ``--trace 1`` runs in this process: a cold op, then
untraced and traced ops in turn, and prints the per-layer metrics from the
spans of ``tracer.py``.

Every op is checked: each command exits 0, every number in its JSON and
CSV is finite (spdelab writes NaN into JSON as the string "nan", so such
strings count as numbers), and its JSON/CSV bytes equal those of the
first op.  The
last stdout line is the result object; the line before it carries the
environment and the raw samples.  README.md documents the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = 16            # reference.json holds seeds 0..15

sys.path.insert(0, str(HERE))
from workloads import EXPECTED_SPANS, WORKLOADS, configs  # noqa: E402

# Fresh processes per untraced run.  Each gives one setup and one cold-op
# sample; two keep a warm op or more in each on every workload at 30 s.
PROCESSES = 2
# Extra fresh processes that only set up, run first in the window, so that
# setup_s is a median of SETUP_PROCESSES + PROCESSES samples.
SETUP_PROCESSES = 5


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def write_configs(directory: Path, workload, seed):
    """Write the workload's config files; returns [(command, path)]."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for command, cfg in configs(workload, seed):
        path = directory / f"{command}.config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths.append((command, path))
    return paths


def import_cli():
    sys.path.insert(0, str(SRC))
    from spdelab import cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"spdelab imported from {cli.__file__}, not {SRC}")
    return cli


def _finite_cell(text):
    """False for a string that parses as a non-finite float ("nan", "inf")."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True


def _all_finite(obj):
    # spdelab's reports write NaN as the string "nan"; json writes
    # infinities as Infinity, which json.loads reads back as floats
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, str):
        return _finite_cell(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def _csv_finite(text):
    return all(_finite_cell(cell)
               for row in csv.reader(io.StringIO(text)) for cell in row)


class Ops:
    """Runs and checks the ops of one workload at one seed."""

    def __init__(self, cli, commands, out_dir: Path):
        self.cli = cli
        self.commands = commands
        self.out_dir = out_dir
        self.first = None            # {command: (json bytes, csv bytes)}
        self.attempted = 0
        self.failed = 0

    def _execute(self):
        codes = []
        with contextlib.redirect_stdout(sys.stderr):
            for command, path in self.commands:
                cfg = self.cli.load_config(command, path=str(path),
                                           out=str(self.out_dir))
                codes.append(self.cli.run(cfg))
        return codes

    def run(self, tracer=None):
        """One op; returns its wall time in seconds."""
        self.attempted += 1
        execute = self._execute if tracer is None else tracer.span("op", self._execute)
        t0 = time.perf_counter()
        try:
            codes = execute()
        except Exception:       # a raising command is a failed op, not a crash
            codes = None
            _log(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        problem = None
        if codes is None:
            problem = "raised"
        elif any(codes):
            problem = f"exit codes {codes}"
        else:
            artifacts = {}
            for command, _ in self.commands:
                stem = self.out_dir / command
                artifacts[command] = (Path(f"{stem}.json").read_bytes(),
                                      Path(f"{stem}.csv").read_bytes())
            if self.first is None:
                self.first = artifacts
            for command, (js, cs) in artifacts.items():
                if not (_all_finite(json.loads(js))
                        and _csv_finite(cs.decode("utf-8"))):
                    problem = f"{command}: non-finite number in the artifacts"
                elif (js, cs) != self.first[command]:
                    problem = f"{command}: artifacts differ from the first op"
        if problem is not None:
            self.failed += 1
            _log(f"op {self.attempted} failed: {problem}")
        return elapsed

    def digests(self):
        if self.first is None:
            return {}
        return {command: hashlib.sha256(js + cs).hexdigest()
                for command, (js, cs) in self.first.items()}


def _continue(start, seconds, last_op_s):
    """True while the next op, as long as the last one, ends in the window."""
    return time.perf_counter() - start + last_op_s <= seconds


def tail_percentile(samples, beyond=10):
    """(p, value) for the highest percentile with `beyond` samples above it."""
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - beyond
    return math.floor(100.0 * rank / n), sorted(samples)[rank - 1]


def setup(commands):
    """Import spdelab and resolve the configs; returns (cli, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli()
    for command, path in commands:
        cli.load_config(command, path=str(path))
    return cli, time.perf_counter() - t0


def child_run(workload, seed, seconds, work: Path, ops_too=True):
    """One fresh process of an untraced run: setup, then (if `ops_too`) a
    cold op and warm ops."""
    start = time.perf_counter()
    commands = write_configs(work, workload, seed)
    cli, setup_s = setup(commands)
    if not ops_too:
        return {"setup_s": setup_s}
    ops = Ops(cli, commands, work / "out")
    times = [ops.run()]
    while len(times) < 2 or _continue(start, seconds, times[-1]):
        times.append(ops.run())
    return {"setup_s": setup_s, "op_s": times,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": ops.attempted, "failed": ops.failed,
            "artifact_sha256": ops.digests(), "env": environment()}


def _child(workload, seed, budget, mode):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(budget), "--child", mode],
        stdout=subprocess.PIPE, text=True, timeout=85, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def untraced_run(workload, seed, seconds):
    """SETUP_PROCESSES setup-only processes, then the rest of the window
    split over PROCESSES full ones; returns (setup samples, full reports)."""
    start = time.perf_counter()
    setups = [_child(workload, seed, 0, "setup")["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    reports = []
    for i in range(PROCESSES):
        budget = (seconds - (time.perf_counter() - start)) / (PROCESSES - i)
        reports.append(_child(workload, seed, budget, "ops"))
    return setups + [r["setup_s"] for r in reports], reports


def traced_run(ops, seconds, tracer):
    """Cold op, then untraced and traced ops in turn; returns the samples."""
    start = time.perf_counter()
    cold = ops.run()
    plain, traced = [], []
    while True:
        turn = traced if len(traced) < len(plain) else plain
        last = turn[-1] if turn else cold
        if plain and traced and not _continue(start, seconds, last):
            break
        if turn is traced:
            tracer.install(_OBSERVERS)
            try:
                traced.append(ops.run(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(ops.run())
    return cold, plain, traced


_OBSERVERS = {
    "solver.solve":
        lambda tr, ens: tr.count("solver.samples_bytes", ens.samples.nbytes),
    "malliavin.JointDesign.du_cell_norms":
        lambda tr, arr: tr.peak("malliavin.JointDesign.du_cell_norms.max_bytes",
                                arr.nbytes),
}

# (metric, span, field): field is "s", "self_s" or "calls"; per op
_SPAN_METRICS = [
    ("solver.solve.s", "solver.solve", "s"),
    ("solver.stochastic_convolution_modewise.self_s",
     "solver.stochastic_convolution_modewise", "self_s"),
    ("solver.stochastic_convolution_pathwise.self_s",
     "solver.stochastic_convolution_pathwise", "self_s"),
    ("solver.deterministic_forced.s", "solver.deterministic_forced", "s"),
    ("solver.ensemble_summary_rows.s", "solver.ensemble_summary_rows", "s"),
    ("covariance.cholesky_psd.s", "covariance.cholesky_psd", "s"),
    ("covariance.cholesky_psd.calls", "covariance.cholesky_psd", "calls"),
    ("covariance.cholesky.attempts", "covariance.cholesky", "calls"),
    ("covariance.increment_gram.s", "covariance.increment_gram", "s"),
    ("rng.substream.s", "rng.substream", "s"),
    ("rng.substream.calls", "rng.substream", "calls"),
    ("gaussian.sample_paths.s", "gaussian.sample_paths", "s"),
    ("spectral.symbol_cumulative_integrals.s",
     "spectral.symbol_cumulative_integrals", "s"),
    ("spectral.symbol_cumulative_integrals.calls",
     "spectral.symbol_cumulative_integrals", "calls"),
    ("spectral.symbol_on_grid.calls", "spectral.symbol_on_grid", "calls"),
    ("fft.calls", "fft", "calls"),
    ("fft.s", "fft", "s"),
    ("malliavin.JointDesign.init_s", "malliavin.JointDesign.init", "s"),
    ("malliavin.JointDesign.draw.s", "malliavin.JointDesign.draw", "s"),
    ("malliavin.JointDesign.running_skorohod.s",
     "malliavin.JointDesign.running_skorohod", "s"),
    ("malliavin.mixed_norm_terms.s", "malliavin.mixed_norm_terms", "s"),
    ("malliavin.mixed_norm_terms.calls", "malliavin.mixed_norm_terms", "calls"),
    ("malliavin.JointDesign.du_cell_norms.s",
     "malliavin.JointDesign.du_cell_norms", "s"),
    ("verify.maximal_inequality_check.self_s",
     "verify.maximal_inequality_check", "self_s"),
    ("verify.lp_inequality_check.self_s", "verify.lp_inequality_check", "self_s"),
    ("verify.g_operator_check.self_s", "verify.g_operator_check", "self_s"),
    ("cli.load_config.s", "cli.load_config", "s"),
    ("cli.run.self_s", "cli.run", "self_s"),
]


def layer_metrics(totals, op_spans, tracer, workload, plain, traced,
                  reference_match, src_loc):
    n = len(traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for metric, span, field in _SPAN_METRICS:
        value = totals.get(span, {}).get(field, 0) / n
        put(metric, value, "count" if field == "calls" else "s")
    calls = totals.get("covariance.cholesky_psd", {}).get("calls", 0)
    attempts = totals.get("covariance.cholesky", {}).get("calls", 0)
    # no factorization means no retry: 1, so that adding one reads as no change
    put("covariance.cholesky_psd.first_try_ratio",
        calls / attempts if attempts else 1.0, "ratio")
    put("solver.samples_bytes", tracer.sums.get("solver.samples_bytes", 0) / n,
        "bytes")
    put("malliavin.JointDesign.du_cell_norms.max_bytes",
        tracer.maxima.get("malliavin.JointDesign.du_cell_norms.max_bytes", 0),
        "bytes")
    put("trace.coverage", statistics.median(
        1.0 - op["uncovered_s"] / op["s"] for op in op_spans), "ratio")
    put("trace.overhead_s", statistics.median(traced) - statistics.median(plain),
        "s")
    put("cli.artifacts_match_reference", reference_match, "ratio")
    put("src_loc", src_loc, "count")
    silent = [s for s in EXPECTED_SPANS[workload]
              if totals.get(s, {}).get("calls", 0) == 0]
    return out, silent


def reference_match(cli, workload, seed, digests, work: Path):
    """Share of commands whose artifacts equal the recorded reference.

    Seeds without a record are compared at seed mod REFERENCE_SEEDS, by
    one extra op.  Returns (share, the op that ran it or None).
    """
    ref = json.loads(REFERENCE.read_text())
    recorded = ref["workloads"][workload]
    extra = None
    if not 0 <= seed < REFERENCE_SEEDS:
        seed = seed % REFERENCE_SEEDS
        extra = Ops(cli, write_configs(work / "reference", workload, seed),
                    work / "reference" / "out")
        extra.run()
        digests = extra.digests()
    want = recorded[str(seed)]
    share = sum(digests.get(c) == d for c, d in want.items()) / len(want)
    return share, extra


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def src_loc():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SPDELAB_THREADS": os.environ.get("SPDELAB_THREADS"),
        "src_loc": src_loc(),
    }


def traced_result(args, work, info):
    # imported here, not at the top: it imports numpy, whose import time
    # belongs to the setup_s that untraced processes measure
    from tracer import Tracer, summarize

    cli = import_cli()
    info["env"] = environment()
    ops = Ops(cli, write_configs(work, args.workload, args.seed), work / "out")
    tracer = Tracer()
    cold, plain, traced = traced_run(ops, args.seconds, tracer)
    share, extra = reference_match(cli, args.workload, args.seed, ops.digests(),
                                   work)
    totals, op_spans = summarize(tracer.spans(), "op")
    metrics, silent = layer_metrics(totals, op_spans, tracer, args.workload,
                                    plain, traced, share, info["env"]["src_loc"])
    if silent:
        _log(f"spans that never fired on {args.workload}: {silent}")
    attempted = ops.attempted + (extra.attempted if extra else 0)
    failed = ops.failed + (extra.failed if extra else 0)
    info.update(cold_op_s=cold, plain_op_s=plain, traced_op_s=traced,
                artifact_sha256=ops.digests())
    (work / "trace.json").write_text(json.dumps({
        "info": info, "totals": totals, "ops": op_spans,
        "spans": tracer.spans()}) + "\n")
    return {"correct": not silent and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def untraced_result(args, info):
    setups, reports = untraced_run(args.workload, args.seed, args.seconds)
    warm = [t for r in reports for t in r["op_s"][1:]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports[1:]:
        if r["artifact_sha256"] != reports[0]["artifact_sha256"]:
            _log("artifacts differ between the processes of one run")
            failed += r["attempted"]
    info.update(env=reports[0]["env"],
                setup_samples_s=setups,
                op_samples_s=[r["op_s"] for r in reports],
                op_s_tail=tail_percentile(warm),
                artifact_sha256=reports[0]["artifact_sha256"])
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_op_s": statistics.median(r["op_s"][0] for r in reports),
        "op_s": statistics.median(warm),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
    }
    units = {"setup_s": "s", "cold_op_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "ops"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "spdelab" / "__init__.py").is_file():
        _log(f"no spdelab sources under {SRC}; run from the repository root")
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.child:
        print(json.dumps(child_run(args.workload, args.seed, args.seconds, work,
                                   ops_too=args.child == "ops")))
        return 0
    shutil.rmtree(work, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        result = traced_result(args, work, info)
    else:
        result = untraced_result(args, info)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
