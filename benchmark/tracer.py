"""Layer spans for spdelab, recorded from outside the package.

``Tracer.install`` wraps

* every public function defined in an ``spdelab`` module, named
  ``<module>.<function>`` (``solver.solve``);
* the public methods of ``malliavin.JointDesign`` (``__init__`` is
  ``malliavin.JointDesign.init``);
* ``numpy.fft.fftn``/``ifftn`` (span ``fft``) and
  ``numpy.linalg.cholesky`` (span ``<module>.cholesky``) as each spdelab
  module sees them, through a per-module copy of its ``np`` namespace, so
  numpy calls made outside spdelab are not counted.

A function is replaced at *every* module attribute that refers to it, not
only in its defining module: ``from .covariance import cholesky_psd`` binds
a second name in ``solver`` and ``malliavin``, and patching only
``spdelab.covariance`` would record nothing.

Spans nest through a per-thread stack and record their parent; they stay
in memory until the run ends.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types

import numpy


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []          # one span list per thread that traced
        self._restore = []          # (owner, attribute, original)
        self.maxima = {}            # counter name -> largest value seen
        self.sums = {}              # counter name -> total

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], [])      # spans, open-span stack
            with self._lock:
                self._threads.append(st[0])
        return st

    def span(self, name, fn, observe=None):
        """`fn` wrapped so that each call records one span `name`."""
        def traced(*args, **kwargs):
            spans, stack = self._state()
            idx = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out
        return functools.wraps(fn)(traced)

    def count(self, name, value):
        self.sums[name] = self.sums.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def spans(self):
        """Every finished span as (name, start, end, parent index)."""
        with self._lock:
            return [list(map(tuple, spans)) for spans in self._threads]

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, observers=None):
        """Wrap spdelab's public functions at every name they are bound to."""
        observers = observers or {}
        modules = {name.split(".", 1)[1]: mod
                   for name, mod in sorted(sys.modules.items())
                   if name.startswith("spdelab.")}
        wrapped = {}                # original function -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.span(name, obj, observers.get(name))
        cls = modules["malliavin"].JointDesign
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__init__"
                                            or not attr.startswith("_")):
                label = "init" if attr == "__init__" else attr
                name = f"malliavin.JointDesign.{label}"
                self._set(cls, attr, self.span(name, obj, observers.get(name)))
        for mod in list(modules.values()) + [sys.modules["spdelab"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
            if vars(mod).get("np") is numpy:
                self._set(mod, "np", self._numpy_view(mod.__name__))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _numpy_view(self, module_name):
        """A copy of the numpy namespace whose fft/cholesky are traced."""
        short = module_name.split(".", 1)[1]
        fft = types.ModuleType("numpy.fft")
        fft.__dict__.update(numpy.fft.__dict__)
        fft.fftn = self.span("fft", numpy.fft.fftn)
        fft.ifftn = self.span("fft", numpy.fft.ifftn)
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(numpy.linalg.__dict__)
        linalg.cholesky = self.span(f"{short}.cholesky", numpy.linalg.cholesky)
        view = types.ModuleType("numpy")
        view.__dict__.update(numpy.__dict__)
        view.fft = fft
        view.linalg = linalg
        return view


def summarize(spans_by_thread, op_name):
    """Per-name totals over all spans, and per-op coverage.

    Returns (totals, ops): totals maps a span name to
    {"calls", "s", "self_s"}; ops lists, per span named `op_name`, its
    duration "s" and "uncovered_s", the part outside named layer spans.
    A span's self time is its duration minus that of its direct children.
    The ``cli.run`` root's own time counts as uncovered: it spans the whole
    command, so counting it would make coverage trivially complete.
    """
    totals = {}
    ops = []
    for spans in spans_by_thread:
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        op_of = [-1] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            if name == op_name:
                op_of[i] = len(ops)
                ops.append({"s": dur, "uncovered_s": own})
                continue
            op_of[i] = op_of[parent] if parent >= 0 else -1
            tot = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            tot["calls"] += 1
            tot["s"] += dur
            tot["self_s"] += own
            if name == "cli.run" and op_of[i] >= 0:
                ops[op_of[i]]["uncovered_s"] += own
    return totals, ops
