"""Report containers produced by the numerical checkers.

Both report kinds serialize to plain JSON-compatible dicts; numpy scalars
and arrays are converted to Python floats/lists so the output is stable
across numpy versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DRIFT_TOL = 0.25    # the largest relative step between consecutive trace ratios


def _plain(x):
    """Recursively convert numpy types to JSON-friendly Python values."""
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.complexfloating):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return x


def ratio_of(lhs, rhs):
    """lhs / rhs, where 0/0 reads 0 and x/0 reads inf."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass
class MultiplierReport:
    """Outcome of one multiplier-condition scan.

    condition_name is one of marcinkiewicz, mihlin, class_M,
    class_S. worst_location is (multi-index or coordinate subset, xi).
    """

    condition_name: str
    worst_constant: float
    worst_location: tuple
    passed: bool
    samples_used: int
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "condition_name": self.condition_name,
            "worst_constant": _plain(self.worst_constant),
            "worst_location": _plain(self.worst_location),
            "passed": bool(self.passed),
            "samples_used": int(self.samples_used),
            "details": _plain(self.details),
        }


@dataclass
class RatioReport:
    """Outcome of one inequality ratio check.

    ratio is lhs / sum(rhs_components); refinement_trace lists
    (level, ratio) pairs over increasing resolution. ``passed`` means the
    ratio is finite and consecutive non-zero trace ratios differ by at most
    DRIFT_TOL = 25% relative.
    """

    name: str
    lhs: float
    rhs_components: list
    ratio: float
    refinement_trace: list
    passed: bool
    seed: int | None = None
    n_samples: int | None = None
    details: dict = field(default_factory=dict)

    @classmethod
    def make(cls, name, lhs, rhs_components, refinement_trace=None,
             seed=None, n_samples=None, details=None):
        """Build a report, guarding the 0/0 case (trivially passed)."""
        lhs, rhs_total = float(lhs), float(sum(rhs_components))
        ratio = ratio_of(lhs, rhs_total)
        trace = list(refinement_trace or [])
        passed = math.isfinite(ratio)
        if lhs != 0.0 or rhs_total != 0.0:      # else 0/0: passed
            ratios = [r for (_lvl, r) in trace if r != 0.0]
            for a, b in zip(ratios, ratios[1:]):
                if not math.isfinite(b) or abs(b / a - 1.0) > DRIFT_TOL:
                    passed = False
        return cls(name=name, lhs=lhs, rhs_components=list(map(float, rhs_components)),
                   ratio=ratio, refinement_trace=trace, passed=passed,
                   seed=seed, n_samples=n_samples, details=dict(details or {}))

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": _plain(self.lhs),
            "rhs_components": _plain(self.rhs_components),
            "ratio": _plain(self.ratio),
            "refinement_trace": _plain(self.refinement_trace),
            "passed": bool(self.passed),
            "seed": self.seed,
            "n_samples": self.n_samples,
            "details": _plain(self.details),
        }
