"""Mild-solution assembly on the grid.

u(t) = T(t,0) u0 + int_0^t T(t,s) f(s) ds + int_0^t T(t,s) g(s) d beta_s,
with the evolution operator diagonal in frequency.  The stochastic
convolution has two independent estimators:

* modewise -- per (mode, factor) the time vector is exactly Gaussian; its
  covariance is assembled from rectangle increments of R and sampled by
  Cholesky with circularly-symmetric complex draws.  Exact per-mode law
  (conjugate covariance), cheap in samples.
* pathwise -- Riemann sums against sampled increments of beta on a refined
  grid; preserves the joint real-field structure.

Both estimators evaluate the integrand a(t,s) = exp(int_s^t psi) g(s) at
the midpoints of the same refined quadrature partition, with every exponent
read from one table of cumulative symbol integrals on it, so they agree to
Monte-Carlo error rather than to quadrature error.  The pathwise estimator
and the forced part advance the solution one solution cell at a time, by
the evolution law T(t,r) T(r,s) = T(t,s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng as _rng
from .covariance import CovarianceKernel, cholesky_psd, increment_gram
from .errors import AlignmentError, HypothesisViolationError
from .gaussian import PathSample, QSpec, sample_paths
from .spectral import (Field, GridSpec, check_class_s_sign, spatial_fft,
                       symbol_cumulative_integrals, symbol_on_grid)
from .symbols import SymbolSpec

TIME_TOL = 1e-9


@dataclass
class SPDEProblem:
    """Data of du = (L_psi u + f) dt + g dbeta on a periodic grid.

    f holds node values on the solution grid, shape (n_times, m, n_points);
    g holds cell values (constant on (t_c, t_{c+1}]), shape
    (n_times-1, m, J, n_points).  Either may be None.  psi must keep
    Re psi <= 0 on the grid at every solution time (the class-S sign),
    else SymbolClassError; a time-dependent psi is also checked at every
    Simpson node of its symbol tables when solve builds them.
    """

    psi: SymbolSpec
    u0: Field
    kernel: CovarianceKernel
    q: QSpec
    times: np.ndarray
    f: np.ndarray | None = None
    g: np.ndarray | None = None
    phi: SymbolSpec | None = None       # Bessel-scale symbol for norms
    p: float = 2.0
    q_exp: float = 2.0
    r_exp: float | None = None
    quad_refine: int = 8

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two solution times")
        if abs(self.times[0]) > TIME_TOL:
            raise ValueError("solution grid must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("solution times must increase")
        if self.r_exp is None:
            self.r_exp = float(self.kernel.r_exp)
        if not (self.p >= self.q_exp >= max(2.0, self.r_exp)):
            raise HypothesisViolationError(
                f"need p >= q >= max(2, r); got p={self.p}, q={self.q_exp}, "
                f"r={self.r_exp}")
        if self.f is not None:
            self.f = np.asarray(self.f, dtype=complex)
            want = (len(self.times), self.m, self.grid.n_points)
            if self.f.shape != want:
                raise ValueError(f"f must have shape {want}")
        if self.g is not None:
            self.g = np.asarray(self.g, dtype=complex)
            want = (len(self.times) - 1, self.m, self.q.J, self.grid.n_points)
            if self.g.shape != want:
                raise ValueError(f"g must have shape {want}")
        if self.quad_refine < 1:
            raise ValueError("quad_refine must be >= 1")
        check_class_s_sign(self.psi, self.times, self.grid)

    @property
    def grid(self) -> GridSpec:
        return self.u0.grid

    @property
    def m(self):
        return self.u0.m

    @property
    def n_times(self):
        return len(self.times)

    @property
    def T(self):
        return float(self.times[-1])

    @cached_property
    def cums(self) -> np.ndarray:
        """int_0^{t_i} psi dr at every solution time, (n_times, n_points).

        Built on first use and shared by the deterministic parts; read-only.
        """
        out = symbol_cumulative_integrals(self.psi, self.times, self.grid)
        out.setflags(write=False)
        return out


@dataclass
class SolutionEnsemble:
    problem: SPDEProblem
    samples: np.ndarray              # (n_samples, n_times, m, n_points)
    estimator: str
    seed: int
    paths: PathSample | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    def mean_field(self):
        return np.mean(self.samples, axis=0)

    def variance_field(self):
        """Componentwise variance of the (complex) samples at each node."""
        return np.var(self.samples, axis=0)


# ---------------------------------------------------------------------------
# deterministic parts


def deterministic_homogeneous(problem: SPDEProblem) -> np.ndarray:
    """T(t_i, 0) u0 for every solution time; (n_times, m, n_points)."""
    grid = problem.grid
    u0_hat = spatial_fft(problem.u0.values, grid)
    out_hat = np.exp(problem.cums[:, None, :]) * u0_hat[None, :, :]
    return spatial_fft(out_hat, grid, inverse=True)


def deterministic_forced(problem: SPDEProblem) -> np.ndarray:
    """Composite-trapezoid Duhamel integral of f; (n_times, m, n_points).

    One step per cell, F_{i+1} = E_i (F_i + dt_i/2 f_i) + dt_i/2 f_{i+1}
    with E_i = exp(int_{t_i}^{t_{i+1}} psi).
    """
    grid = problem.grid
    out_hat = np.zeros((problem.n_times, problem.m, grid.n_points), dtype=complex)
    if problem.f is not None:
        cums = problem.cums
        f_hat = spatial_fft(problem.f, grid)
        half = np.diff(problem.times) / 2.0
        for i in range(problem.n_times - 1):
            step = np.exp(cums[i + 1] - cums[i])      # Re <= 0, no overflow
            out_hat[i + 1] = (step * (out_hat[i] + half[i] * f_hat[i])
                              + half[i] * f_hat[i + 1])
    return spatial_fft(out_hat, grid, inverse=True)


# ---------------------------------------------------------------------------
# stochastic convolution


def _quad_grid(times, n_sub):
    """Refined quadrature partition: subcell edges and midpoints.

    Returns (q_grid, edges, mid_idx, sol_idx): q_grid interleaves the
    subcell edges (even indices) with their midpoints (odd indices);
    sol_idx locates the solution times in q_grid.
    """
    n_cells = len(times) - 1
    edges = np.empty(n_cells * n_sub + 1)
    for c in range(n_cells):
        edges[c * n_sub:(c + 1) * n_sub + 1] = np.linspace(
            times[c], times[c + 1], n_sub + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    q_grid = np.empty(2 * len(mids) + 1)
    q_grid[0::2] = edges
    q_grid[1::2] = mids
    mid_idx = np.arange(1, len(q_grid), 2)
    sol_idx = np.arange(0, len(q_grid), 2 * n_sub)
    return q_grid, edges, mid_idx, sol_idx


def stochastic_convolution_modewise(problem: SPDEProblem, n_samples,
                                    seed) -> np.ndarray:
    """Exact-covariance sampler; (n_samples, n_times, m, n_points)."""
    grid = problem.grid
    n_t, m, J = problem.n_times, problem.m, problem.q.J
    out_hat = np.zeros((n_samples, n_t, m, grid.n_points), dtype=complex)
    if problem.g is not None:
        n_sub = problem.quad_refine
        q_grid, edges, mid_idx, sol_idx = _quad_grid(problem.times, n_sub)
        cums = symbol_cumulative_integrals(problem.psi, q_grid, grid)
        # mask the exponent, not the result: past t_{i+1} it has positive
        # real part and would overflow
        past = np.arange(len(mid_idx)) >= (np.arange(1, n_t) * n_sub)[:, None]
        g_hat = spatial_fft(problem.g, grid)
        ginc = increment_gram(problem.kernel, edges)
        rows = (n_t - 1) * m
        for k in range(grid.n_points):
            ck = cums[:, k]
            expo = ck[sol_idx[1:], None] - ck[mid_idx]
            expo[past] = -np.inf
            Em = np.exp(expo)                     # exp(int_mid^{t_{i+1}} psi)
            acc = np.zeros((rows, n_samples), dtype=complex)
            for j in range(J):
                g_sub = np.repeat(g_hat[:, :, j, k], n_sub, axis=0)   # (C, m)
                A = (Em[:, None, :] * g_sub.T[None]).reshape(rows, -1)
                cov = A @ ginc @ A.conj().T
                if not np.any(cov):
                    continue
                L = cholesky_psd(cov)
                gen = _rng.substream(seed, _rng.CONV_MODEWISE, j, k)
                z = gen.standard_normal((2, rows, n_samples))
                acc += L @ ((z[0] + 1j * z[1]) / np.sqrt(2.0))
            out_hat[:, 1:, :, k] = acc.T.reshape(n_samples, n_t - 1, m)
    return spatial_fft(out_hat, grid, inverse=True)


def stochastic_convolution_pathwise(problem: SPDEProblem,
                                    paths: PathSample) -> np.ndarray:
    """Riemann-sum sampler against given beta paths on the refined edges.

    One step per cell, u_{i+1} = E_i u_i + sum_{c in cell i}
    exp(int_{mid_c}^{t_{i+1}} psi) g_c dB_c.
    """
    grid = problem.grid
    n_t, m = problem.n_times, problem.m
    n = paths.paths.shape[0]
    out_hat = np.zeros((n, n_t, m, grid.n_points), dtype=complex)
    if problem.g is not None:
        n_sub = problem.quad_refine
        q_grid, edges, mid_idx, sol_idx = _quad_grid(problem.times, n_sub)
        if len(paths.times) != len(edges) or \
                np.max(np.abs(paths.times - edges)) > TIME_TOL:
            raise AlignmentError("paths must live on the refined subcell edges")
        if paths.paths.shape[1] != problem.q.J:
            raise AlignmentError("path factor count does not match QSpec")
        cums = symbol_cumulative_integrals(problem.psi, q_grid, grid)
        g_hat = spatial_fft(problem.g, grid)
        dB = np.diff(paths.paths, axis=-1)                        # (n, J, C)
        for i in range(n_t - 1):
            cell = slice(i * n_sub, (i + 1) * n_sub)
            top = cums[sol_idx[i + 1]]
            g_loc = np.exp(top - cums[mid_idx[cell]])[:, None, None, :] * g_hat[i]
            out_hat[:, i + 1] = np.exp(top - cums[sol_idx[i]]) * out_hat[:, i] \
                + np.einsum("njc,cmjk->nmk", dB[:, :, cell], g_loc, optimize=True)
    return spatial_fft(out_hat, grid, inverse=True)


def refined_path_times(problem: SPDEProblem):
    """The subcell-edge grid pathwise sampling must live on."""
    _, edges, _, _ = _quad_grid(problem.times, problem.quad_refine)
    return edges


def solve(problem: SPDEProblem, n_samples, seed,
          estimator="modewise") -> SolutionEnsemble:
    """u = homogeneous + forced + stochastic convolution, per sample."""
    if estimator not in ("modewise", "pathwise"):
        raise ValueError(f"unknown estimator {estimator!r}")
    det = deterministic_homogeneous(problem) + deterministic_forced(problem)
    paths = None
    if problem.g is None:
        sto = 0.0
    elif estimator == "modewise":
        sto = stochastic_convolution_modewise(problem, n_samples, seed)
    else:
        paths = sample_paths(problem.kernel, refined_path_times(problem),
                             problem.q, n_samples, seed)
        sto = stochastic_convolution_pathwise(problem, paths)
    samples = det[None, :, :, :] + sto if np.ndim(sto) else \
        np.broadcast_to(det[None], (n_samples,) + det.shape).copy().astype(complex)
    return SolutionEnsemble(problem=problem, samples=samples,
                            estimator=estimator, seed=int(seed), paths=paths,
                            meta={"kernel": problem.kernel.name})


def mode_residual(ensemble: SolutionEnsemble, k_index: int) -> dict:
    """Residual of the per-mode integral identity, pathwise.

    u-hat(t,k) - u0-hat(k) - int_0^t (psi(k) u-hat + f-hat) ds - M(t,k)
    with the psi-term by left-endpoint Riemann, the f-term by trapezoid,
    and M the raw stochastic mode increment from the stored paths.
    """
    pb = ensemble.problem
    if pb.psi.time_dependent:
        raise HypothesisViolationError("mode residual needs time-independent psi")
    if pb.g is not None and ensemble.paths is None:
        raise ValueError("mode residual needs a pathwise ensemble")
    grid = pb.grid
    uhat = spatial_fft(ensemble.samples, grid)[:, :, :, k_index]    # (n, n_t, m)
    u0k = spatial_fft(pb.u0.values, grid)[:, k_index]               # (m,)
    psik = symbol_on_grid(pb.psi, 0.0, grid)[k_index]
    t = pb.times
    dt = np.diff(t)
    ipsi = np.zeros_like(uhat)
    ipsi[:, 1:] = np.cumsum(psik * uhat[:, :-1] * dt[None, :, None], axis=1)
    i_f = np.zeros((pb.n_times, pb.m), dtype=complex)
    if pb.f is not None:
        fk = spatial_fft(pb.f, grid)[:, :, k_index]
        mids = 0.5 * (fk[1:] + fk[:-1]) * dt[:, None]
        i_f[1:] = np.cumsum(mids, axis=0)
    M = np.zeros_like(uhat)
    if pb.g is not None:
        g_sub = np.repeat(spatial_fft(pb.g, grid)[..., k_index],
                          pb.quad_refine, axis=0)                   # (C, m, J)
        dB = np.diff(ensemble.paths.paths, axis=-1)                 # (n, J, C)
        inc = np.einsum("njc,cmj->ncm", dB, g_sub)
        csum = np.cumsum(inc, axis=1)
        M[:, 1:] = csum[:, pb.quad_refine - 1::pb.quad_refine]
    res = uhat - u0k[None, None, :] - ipsi - i_f[None] - M
    mean_res = np.mean(res, axis=0)
    return {
        "k_index": int(k_index),
        "max_abs": float(np.max(np.abs(res))),
        "rms": float(np.sqrt(np.mean(np.abs(res) ** 2))),
        "per_time_max": np.max(np.abs(res), axis=(0, 2)).tolist(),
        "mean_max_abs": float(np.max(np.abs(mean_res))),
    }


def ensemble_summary_rows(ensemble: SolutionEnsemble):
    """Per-time summary statistics (for CSV export): mean-field l2 norm,
    total variance, mean sup-norm."""
    grid = ensemble.problem.grid
    mean = ensemble.mean_field()
    var = ensemble.variance_field()
    rows = []
    for i, t in enumerate(ensemble.problem.times):
        mf = np.sqrt(np.sum(np.abs(mean[i]) ** 2) * grid.cell_volume)
        tv = float(np.sum(np.real(var[i])) * grid.cell_volume)
        ms = float(np.mean(np.max(np.abs(ensemble.samples[:, i]), axis=(1, 2))))
        rows.append((float(t), float(mf), tv, ms))
    return rows
