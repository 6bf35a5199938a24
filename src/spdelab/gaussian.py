"""Q-Gaussian sampling, and inner products and Wiener integrals of steps.

The driving noise is beta_t = sum_j sqrt(lambda_j) beta_j(t) e_j with
independent scalar factors beta_j sharing one temporal covariance R. Step
functions carry their U_0 coordinates in the orthonormal basis
{sqrt(lambda_j) e_j}, which makes every RKHS inner product a plain dot
product against rectangle increments of R and removes the lambdas from
all downstream formulas.

`inner_H_U0` and `wiener_integral_path` are the exact references that the
tests check the draws of `draw_increments` against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .covariance import (CovarianceKernel, cholesky_psd, cross_increments,
                         increment_gram)
from .errors import AlignmentError

TIME_TOL = 1e-9


@dataclass(frozen=True)
class QSpec:
    """Eigenvalues of the covariance operator Q, truncated to J modes."""

    lambdas: tuple
    J: int = 0

    def __post_init__(self):
        try:
            lam = tuple(float(v) for v in self.lambdas)
        except OverflowError:          # an integer beyond the float range
            raise ValueError("lambdas must be finite") from None
        object.__setattr__(self, "lambdas", lam)
        if self.J == 0:
            object.__setattr__(self, "J", len(lam))
        if self.J != len(lam):
            raise ValueError("J must match len(lambdas)")
        if not all(np.isfinite(lam)):
            raise ValueError("lambdas must be finite")
        if any(v <= 0 for v in lam):
            raise ValueError("lambdas must be positive")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError("lambdas must be non-increasing")

    @property
    def trace(self):
        return float(sum(self.lambdas))


@dataclass
class StepFunction:
    """U_0-valued step function: value coeffs[i] on (breakpoints[i], breakpoints[i+1]].

    Coordinates are in the orthonormal basis of U_0 (see module docstring).
    """

    breakpoints: np.ndarray   # (M+1,) increasing, within [0, T]
    coeffs: np.ndarray        # (M, J)

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if self.breakpoints.ndim != 1 or len(self.breakpoints) != len(self.coeffs) + 1:
            raise ValueError("need one more breakpoint than coefficient row")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints[0] < 0:
            raise ValueError("breakpoints must be nonnegative")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def J(self):
        return self.coeffs.shape[1]

    @property
    def T(self):
        return float(self.breakpoints[-1])

    def refine(self, partition):
        """Coefficient rows on a finer partition covering this one (exact)."""
        partition = np.asarray(partition, dtype=float)
        out = np.zeros((len(partition) - 1, self.J))
        mids = 0.5 * (partition[:-1] + partition[1:])
        idx = np.searchsorted(self.breakpoints, mids, side="left") - 1
        inside = (mids > self.breakpoints[0]) & (mids < self.breakpoints[-1] + TIME_TOL) \
            & (idx >= 0) & (idx < len(self.coeffs))
        out[inside] = self.coeffs[np.clip(idx[inside], 0, len(self.coeffs) - 1)]
        return out


def canonical_partition(step_functions, extra_times=()):
    """Sorted union of all breakpoints (and extra times), tolerance-merged."""
    pts = [np.asarray(extra_times, dtype=float)]
    pts += [sf.breakpoints for sf in step_functions]
    allpts = np.sort(np.concatenate(pts))     # the merge drops exact repeats
    merged = [allpts[0]]
    for t in allpts[1:]:
        if t - merged[-1] > TIME_TOL:
            merged.append(t)
    return np.asarray(merged)


@dataclass
class PathSample:
    """Monte-Carlo paths of the scalar factors beta_j on a time grid."""

    times: np.ndarray              # (n_times,)
    paths: np.ndarray              # (n_samples, J, n_times)


def draw_increments(chol, J, n_samples, seed, role, *key) -> np.ndarray:
    """Increments of J i.i.d. scalar factors, (n_samples, J, P), given a
    factor chol (P, P) of their increment Gram: factor j is chol @ z on its
    own substream (seed, role, j, *key), so J does not change its bits."""
    out = np.empty((n_samples, J, len(chol)))
    for j in range(J):
        z = _rng.substream(seed, role, j, *key).standard_normal(
            (len(chol), n_samples))
        out[:, j, :] = (chol @ z).T
    return out


def sample_paths(kernel: CovarianceKernel, times, q: QSpec, n_samples, seed) -> PathSample:
    """i.i.d. paths of the scalar factors at `times`: cumulative sums from
    beta(0) = 0 of increments on (0, times] (draw_increments, role PATHS);
    a grid that starts after 0 gets 0 prepended for the draw."""
    times = np.asarray(times, dtype=float)
    edges = np.concatenate(([0.0], times)) if times[0] > 0 else times
    chol = cholesky_psd(increment_gram(kernel, edges))
    paths = np.zeros((n_samples, q.J, len(edges)))
    np.cumsum(draw_increments(chol, q.J, n_samples, seed, _rng.PATHS),
              axis=-1, out=paths[..., 1:])
    return PathSample(times=times, paths=paths[..., len(edges) - len(times):])


# ---------------------------------------------------------------------------
# inner products


def inner_H_U0(phi: StepFunction, psi: StepFunction, kernel: CovarianceKernel) -> float:
    """RKHS inner product of two U_0-valued step functions (exact)."""
    C = phi.coeffs @ psi.coeffs.T
    inc = cross_increments(kernel, phi.breakpoints, psi.breakpoints)
    return float(np.sum(C * inc))


# ---------------------------------------------------------------------------
# Wiener integrals


def wiener_integral_path(h: StepFunction, paths: PathSample):
    """Riemann evaluation of beta(h) on sampled paths (exact for step h
    aligned with the path grid)."""
    idx = np.searchsorted(paths.times, h.breakpoints)
    idx = np.clip(idx, 0, len(paths.times) - 1)
    if np.any(np.abs(paths.times[idx] - h.breakpoints) > TIME_TOL):
        raise AlignmentError("step breakpoints must lie on the path grid")
    if h.J != paths.paths.shape[1]:
        raise AlignmentError("step function J does not match the paths")
    vals = paths.paths[:, :, idx]                       # (n, J, M+1)
    deltas = vals[:, :, 1:] - vals[:, :, :-1]           # (n, J, M)
    return np.einsum("njm,mj->n", deltas, h.coeffs)
