"""Sampling of Q-Gaussian processes and exact Wiener integrals of steps.

The driving noise is beta_t = sum_j sqrt(lambda_j) beta_j(t) e_j with
independent scalar factors beta_j sharing one temporal covariance R. Step
functions carry their U_0 coordinates in the orthonormal basis
{sqrt(lambda_j) e_j}, which makes every RKHS inner product a plain dot
product against rectangle increments of R and removes the lambdas from
all downstream formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .covariance import (CovarianceKernel, cholesky_psd, cross_increments,
                         gram_matrix)
from .errors import AlignmentError, KernelValidityError

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
    seed: int
    meta: dict = field(default_factory=dict)


def sample_paths(kernel: CovarianceKernel, times, q: QSpec, n_samples, seed) -> PathSample:
    """Draw i.i.d. paths of the scalar factors via Cholesky of [R(t_i, t_j)].

    Each factor index j gets its own counter-based substream, so paths are
    reproducible independently of J and of how many samples other modes
    consumed.
    """
    times = np.asarray(times, dtype=float)
    L = cholesky_psd(gram_matrix(kernel, times))
    paths = np.empty((n_samples, q.J, len(times)))
    for j in range(q.J):
        gen = _rng.substream(seed, _rng.PATHS, j)
        z = gen.standard_normal((len(times), n_samples))
        paths[:, j, :] = (L @ z).T
    return PathSample(times=times, paths=paths, seed=int(seed),
                      meta={"kernel": kernel.name, "J": q.J})


# ---------------------------------------------------------------------------
# inner products


def inner_H_U0(phi: StepFunction, psi: StepFunction, kernel: CovarianceKernel) -> float:
    """RKHS inner product of two U_0-valued step functions (exact)."""
    C = phi.coeffs @ psi.coeffs.T
    inc = cross_increments(kernel, phi.breakpoints, psi.breakpoints)
    return float(np.sum(C * inc))


# ---------------------------------------------------------------------------
# Wiener integrals


def wiener_integral_exact(h: StepFunction, kernel, q: QSpec, n_samples, seed):
    """i.i.d. N(0, <h,h>_H) samples of the Wiener integral beta(h).

    The variance comes from the exact inner product; tiny negative values
    from rounding are clamped, anything worse raises.
    """
    if h.J != q.J:
        raise ValueError("step function and QSpec disagree on J")
    var = inner_H_U0(h, h, kernel)
    if var < -1e-12:
        raise KernelValidityError(f"computed variance {var} is negative")
    var = max(var, 0.0)
    gen = _rng.substream(seed, _rng.WIENER)
    return np.sqrt(var) * gen.standard_normal(int(n_samples))


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
