"""Mild-solution assembly on the grid.

u(t) = T(t,0) u0 + int_0^t T(t,s) f(s) ds + int_0^t T(t,s) g(s) d beta_s,
with the evolution operator diagonal in frequency.  The stochastic
convolution has two independent estimators:

* modewise -- per (mode, factor) the covariance of the time vector is
  assembled from rectangle increments of R and sampled by Cholesky with
  circularly-symmetric complex draws, each mode independently.  That
  matches only E|u_k|^2, not the joint law of the real field: a per-mode
  second-moment cross-check, cheap in samples.  Modes are taken in blocks
  of fixed byte size, with stacked products and factorizations; each mode
  still draws from its own (seed, CONV_MODEWISE, j, k) substream.
  Exponents below _EXP_FLOOR (about -346) enter as exact zeros, which
  keeps the stacked products out of subnormal arithmetic.
* pathwise -- Riemann sums against increments of beta paths that it draws
  on the refined grid (gaussian.sample_paths); preserves the joint
  real-field structure, with float64 samples.

Both estimators evaluate the integrand a(t,s) = exp(int_s^t psi) g(s) at
the midpoints of the same refined quadrature partition (quad_refine equal
subcells per solution cell; beta lives on the subcell edges), with every
exponent read from one table of cumulative symbol integrals built on the
solution times and the subcell midpoints only, so they agree to
Monte-Carlo error rather than to quadrature error.  The pathwise estimator
and the forced part advance the solution one solution cell at a time, by
the evolution law T(t,r) T(r,s) = T(t,s).

psi is Hermitian (checked by SPDEProblem), so real u0, f and g give a real
solution, and the deterministic parts and the pathwise estimator solve it
on the half spectrum; complex data goes as 2m real components (real parts,
then imaginary parts) on the same beta.  Modewise inverse-transforms its
complex ensemble in place, and solve adds the deterministic part into it.
Pathwise is a stream: it inverse-transforms each finished time slice into
one reused buffer, adds the deterministic part and hands the slice on, so
a pathwise ensemble is never held whole unless its `samples` are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .covariance import CovarianceKernel, cholesky_psd, increment_gram
from .errors import HypothesisViolationError
from .gaussian import TIME_TOL, PathSample, QSpec, sample_paths
from .spectral import (Field, GridSpec, check_class_s_sign, check_hermitian,
                       spatial_fft, spatial_irfft, spatial_rfft,
                       symbol_cumulative_integrals, symbol_on_grid)
from .symbols import SymbolSpec

ESTIMATORS = ("modewise", "pathwise")
# bytes per complex buffer of a mode block in the modewise sampler
_MODE_BLOCK_BYTES = 2 << 20
# modewise exponents with real part below this become exact zeros: the
# product of two kept factors and an increment Gram entry stays normal
_EXP_FLOOR = 0.5 * float(np.log(np.finfo(float).tiny)) + 8.0


@dataclass
class SPDEProblem:
    """The equation du = (L_psi u + f) dt + g dbeta on a periodic grid, and
    nothing of a norm estimate (see verify.apriori_estimate_check).

    f holds node values on the solution grid, shape (n_times, m, n_points);
    g holds cell values (constant on (t_c, t_{c+1}]), shape
    (n_times-1, m, J, n_points).  Either may be None.  psi must keep
    Re psi <= 0 on the grid at every solution time (the class-S sign),
    else SymbolClassError; a time-dependent psi is also checked at every
    node of the tables solve builds, and its integral must not grow
    between them (see spectral.symbol_cumulative_integrals).  psi must
    also be Hermitian on the grid (spectral.check_hermitian), else
    SymbolClassError; that is checked on the same values, at the solution
    times only.
    """

    psi: SymbolSpec
    u0: Field
    kernel: CovarianceKernel
    q: QSpec
    times: np.ndarray
    f: np.ndarray | None = None
    g: np.ndarray | None = None
    quad_refine: int = 8

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two solution times")
        if abs(self.times[0]) > TIME_TOL:
            raise ValueError("solution grid must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("solution times must increase")
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
        check_hermitian(self.psi, check_class_s_sign(self.psi, self.times,
                                                     self.grid), self.grid)

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
    def real_data(self) -> bool:
        """True when u0, f and g are real, so that the solution is real.

        Scanned on first use, like `cums`.
        """
        return not any(np.any(a.imag) for a in (self.u0.values, self.f, self.g)
                       if a is not None)

    @cached_property
    def cums(self) -> np.ndarray:
        """int_0^{t_i} psi dr at every solution time on the half spectrum,
        (n_times, grid.half.n_points).

        Built on first use and shared by the deterministic parts; read-only.
        """
        out = symbol_cumulative_integrals(self.psi, self.times, self.grid.half)
        out.setflags(write=False)
        return out


class SolutionEnsemble:
    """Samples of u, (n_samples, n_times, m, n_points): float64 for real
    data, except modewise noise, which is complex.

    time_slices() yields them one solution time at a time.  `samples` is
    the whole array: a modewise solve with noise stores it; otherwise it is
    filled from time_slices() the first time it is read, and then kept.
    """

    def __init__(self, problem: SPDEProblem, samples, estimator,
                 paths: PathSample | None = None, *, slices=None,
                 n_samples=None):
        self.problem, self.estimator = problem, estimator
        self.paths = paths
        if samples is not None:
            self.samples = samples
            n_samples = len(samples)
        self.n_samples, self._slices = n_samples, slices

    @cached_property
    def samples(self) -> np.ndarray:
        return _stacked(self.time_slices(), self.problem.n_times)

    def time_slices(self):
        """Iterator over the samples at each solution time, each
        (n_samples, m, n_points); a slice is valid until the next is taken.

        Reads `samples` once they exist, else calls the slice source that
        solve set up: without noise, read-only broadcast views of the
        deterministic part; with noise, a new run of the pathwise recurrence.
        """
        if "samples" in vars(self):
            return (self.samples[:, i] for i in range(self.problem.n_times))
        return self._slices()


def _stacked(slices, n_times):
    """The n_times slices of an iterator stacked on axis 1 of one array."""
    for i, x in enumerate(slices):
        if not i:
            out = np.empty((len(x), n_times) + x.shape[1:], dtype=x.dtype)
        out[:, i] = x
    return out


# ---------------------------------------------------------------------------
# deterministic parts


def real_components(data, axis, real):
    """data, with its m components on `axis`, as real components: its real
    part, followed unless `real` (the data is real) by its imaginary part.
    The Euclidean norm over the components is unchanged."""
    if real:
        return data.real
    return np.concatenate((data.real, data.imag), axis=axis)


def _recombined(problem: SPDEProblem, out):
    """The solution from its real components on axis -2 (real_components)."""
    if problem.real_data:
        return out
    return out[..., :problem.m, :] + 1j * out[..., problem.m:, :]


def deterministic_homogeneous(problem: SPDEProblem) -> np.ndarray:
    """T(t_i, 0) u0 for every solution time; (n_times, m, n_points)."""
    u0_hat = spatial_rfft(real_components(problem.u0.values, 0,
                                          problem.real_data), problem.grid)
    out_hat = np.exp(problem.cums[:, None, :]) * u0_hat[None]
    return _recombined(problem, spatial_irfft(out_hat, problem.grid))


def deterministic_forced(problem: SPDEProblem) -> np.ndarray:
    """Composite-trapezoid Duhamel integral of f; (n_times, m, n_points).

    One step per cell, F_{i+1} = E_i (F_i + dt_i/2 f_i) + dt_i/2 f_{i+1}
    with E_i = exp(int_{t_i}^{t_{i+1}} psi).
    """
    if problem.f is None:
        return np.zeros((problem.n_times, problem.m, problem.grid.n_points))
    cums = problem.cums
    f_hat = spatial_rfft(real_components(problem.f, 1, problem.real_data),
                         problem.grid)
    out_hat = np.zeros(f_hat.shape, dtype=complex)
    half = np.diff(problem.times) / 2.0
    for i in range(problem.n_times - 1):
        step = np.exp(cums[i + 1] - cums[i])      # Re <= 0, no overflow
        out_hat[i + 1] = (step * (out_hat[i] + half[i] * f_hat[i])
                          + half[i] * f_hat[i + 1])
    return _recombined(problem, spatial_irfft(out_hat, problem.grid))


# ---------------------------------------------------------------------------
# stochastic convolution


def _quad_grid(times, n_sub):
    """Refined quadrature partition: n_sub equal subcells per solution cell.

    Returns (nodes, edges, mid_idx, sol_idx).  edges holds every subcell
    edge, where the beta paths are drawn.  nodes holds, in order, the
    solution times and the subcell midpoints, (n_times-1)(n_sub+1)+1 of
    them: the only times at which the estimators read the symbol table,
    which is built on nodes.  mid_idx and sol_idx locate the midpoints and
    the solution times in nodes.
    """
    n_cells = len(times) - 1
    edges = np.empty(n_cells * n_sub + 1)
    for c in range(n_cells):
        edges[c * n_sub:(c + 1) * n_sub + 1] = np.linspace(
            times[c], times[c + 1], n_sub + 1)
    nodes = np.empty(n_cells * (n_sub + 1) + 1)
    sol_idx = np.arange(0, len(nodes), n_sub + 1)
    mid_idx = np.delete(np.arange(len(nodes)), sol_idx)
    nodes[sol_idx] = times
    nodes[mid_idx] = 0.5 * (edges[:-1] + edges[1:])
    return nodes, edges, mid_idx, sol_idx


def stochastic_convolution_modewise(problem: SPDEProblem, n_samples,
                                    seed) -> np.ndarray:
    """Per-mode second-moment sampler; (n_samples, n_times, m, n_points).

    Modes go in blocks sized by _MODE_BLOCK_BYTES.  Per block and factor j,
    one GEMM forms A_k ginc for every mode k, one stacked matmul the
    covariances A_k ginc A_k^H and one stacked cholesky_psd their factors;
    each live mode draws from its own (seed, CONV_MODEWISE, j, k)
    substream, so the block size does not change the result.

    Per block, the exponents past t_{i+1} and those with real part below
    _EXP_FLOOR = log(tiny)/2 + 8 ~ -346.2 (float64 tiny) are dropped: they
    become exact zeros and only the kept ones are exponentiated.  The
    product of two kept factors and a Gram entry is then a normal float,
    where the unfloored products go subnormal and run several times
    slower.  A dropped factor is below e^-346 ~ 1e-150.  On the
    benchmark's 64^2 heat problem every row of every mode has a kept entry
    above e^-30, so each dropped term sits more than 2^-450 below the
    terms it is summed with, far under the 2^-53 rounding unit.  The test
    is real < floor, so a NaN exponent is still exponentiated and
    propagates.
    """
    grid = problem.grid
    n_t, m, J = problem.n_times, problem.m, problem.q.J
    n_pts = grid.n_points
    out_hat = np.zeros((n_samples, n_t, m, n_pts), dtype=complex)
    if problem.g is not None:
        n_sub = problem.quad_refine
        nodes, edges, mid_idx, sol_idx = _quad_grid(problem.times, n_sub)
        cums = symbol_cumulative_integrals(problem.psi, nodes, grid)
        # mask the exponent, not the result: past t_{i+1} it has positive
        # real part and would overflow
        past = np.arange(len(mid_idx)) >= (np.arange(1, n_t) * n_sub)[:, None]
        g_hat = spatial_fft(problem.g, grid)
        # cast once; a complex @ real matmul casts ginc on every call
        ginc = increment_gram(problem.kernel, edges).astype(complex)
        rows, C = (n_t - 1) * m, len(mid_idx)
        B = _MODE_BLOCK_BYTES // (16 * rows * max(C, n_samples))
        B = min(n_pts, max(1, B))
        Em = np.empty((B, n_t - 1, C), dtype=complex)
        drop = np.empty((B, n_t - 1, C), dtype=bool)
        A = np.empty((B, n_t - 1, m, C), dtype=complex)
        AG = np.empty((B, rows, C), dtype=complex)
        acc = np.empty((B, rows, n_samples), dtype=complex)
        for k0 in range(0, n_pts, B):
            b = min(B, n_pts - k0)
            ck = cums[:, k0:k0 + b].T
            np.subtract(ck[:, sol_idx[1:], None], ck[:, None, mid_idx], out=Em[:b])
            np.less(Em[:b].real, _EXP_FLOOR, out=drop[:b])
            drop[:b] |= past
            # exp(int_mid^{t_{i+1}} psi) where kept, exact zeros elsewhere
            np.exp(Em[:b], out=Em[:b], where=~drop[:b])
            np.copyto(Em[:b], 0.0, where=drop[:b])
            acc[:b] = 0.0
            for j in range(J):
                g_sub = np.repeat(g_hat[:, :, j, k0:k0 + b], n_sub, axis=0)  # (C, m, b)
                np.multiply(Em[:b, :, None, :], g_sub.T[:, None], out=A[:b])
                Ab = A[:b].reshape(b, rows, C)
                np.matmul(Ab.reshape(b * rows, C), ginc,
                          out=AG[:b].reshape(b * rows, C))
                # A is rebuilt for the next factor: conjugate it in place
                cov = AG[:b] @ np.conjugate(Ab, out=Ab).transpose(0, 2, 1)
                live = np.flatnonzero(np.any(cov, axis=(1, 2)))
                if not live.size:
                    continue
                L = cholesky_psd(cov[live])
                z = np.empty((len(live), 2, rows, n_samples))
                for zk, k in zip(z, live):
                    _rng.substream(seed, _rng.CONV_MODEWISE, j, k0 + k
                                   ).standard_normal(out=zk)
                acc[live] += L @ ((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
            out_hat[:, 1:, :, k0:k0 + b] = acc[:b].T.reshape(n_samples, n_t - 1, m, b)
    return spatial_fft(out_hat, grid, inverse=True, out=out_hat)


def stochastic_convolution_pathwise(problem: SPDEProblem, n_samples, seed):
    """Riemann-sum sampler against beta paths on the refined edges (g set).

    One step per cell on the half spectrum, u_{i+1} = E_i u_i +
    sum_{c in cell i} exp(int_{mid_c}^{t_{i+1}} psi) g_c dB_c.  The paths
    (sample_paths on the subcell edges, from seed) are drawn and the symbol
    table is built at the call, which returns (paths, slices).  slices(det),
    given det (n_times, m, n_points), the deterministic part, is a generator
    of det[i] + u_i at each solution time in turn, (n_samples, m, n_points),
    float64 for real data: each u_i is inverse-transformed into one buffer,
    reused at every time (complex data is recombined per slice, see
    _recombined), so a slice is valid until the next is taken.
    """
    grid = problem.grid
    n_t, n_sub = problem.n_times, problem.quad_refine
    nodes, edges, mid_idx, sol_idx = _quad_grid(problem.times, n_sub)
    paths = sample_paths(problem.kernel, edges, problem.q, n_samples, seed)
    cums = symbol_cumulative_integrals(problem.psi, nodes, grid.half)
    g_hat = spatial_rfft(real_components(problem.g, 1, problem.real_data), grid)
    dB = np.diff(paths.paths, axis=-1)                        # (n, J, C)

    def slices(det):
        m2 = g_hat.shape[1]                                   # real components
        u_hat = np.zeros((n_samples, m2, grid.half.n_points), dtype=complex)
        work = np.empty_like(u_hat)
        out = np.zeros((n_samples, m2, grid.n_points))
        for i in range(n_t):
            if i:
                cell = slice((i - 1) * n_sub, i * n_sub)
                top = cums[sol_idx[i]]
                grow = np.exp(top - cums[mid_idx[cell]])[:, None, None, :]
                u_hat *= np.exp(top - cums[sol_idx[i - 1]])
                u_hat += np.einsum("njc,cmjk->nmk", dB[:, :, cell],
                                   grow * g_hat[i - 1], optimize=True)
                np.copyto(work, u_hat)
                spatial_irfft(work, grid, out=out)
            u = _recombined(problem, out)
            u += det[i]     # det + u bit for bit: addition commutes
            yield u

    return paths, slices


def solve(problem: SPDEProblem, n_samples, seed,
          estimator="pathwise") -> SolutionEnsemble:
    """u = homogeneous + forced + stochastic convolution, per sample.

    The deterministic part and the modewise samples are made here, as are
    the pathwise paths and symbol table and every check.  The pathwise
    recurrence runs as the ensemble's time slices are read, and without
    noise the slices broadcast the deterministic part (SolutionEnsemble).
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    n_samples = int(n_samples)
    det = deterministic_homogeneous(problem) + deterministic_forced(problem)
    samples = paths = slices = None
    if problem.g is None:
        def slices():
            return (np.broadcast_to(d, (n_samples,) + d.shape) for d in det)
    elif estimator == "modewise":
        samples = stochastic_convolution_modewise(problem, n_samples, seed)
        samples += det      # in place; addition commutes, so det + sto bit for bit
    else:
        paths, stream = stochastic_convolution_pathwise(problem, n_samples, seed)

        def slices():
            return stream(det)
    return SolutionEnsemble(problem, samples, estimator, paths, slices=slices,
                            n_samples=n_samples)


def mode_residual(ensemble: SolutionEnsemble, k_index: int) -> dict:
    """Residual of the per-mode integral identity, pathwise.

    u-hat(t,k) - u0-hat(k) - int_0^t (psi(k) u-hat + f-hat) ds - M(t,k)
    with the psi-term by left-endpoint Riemann, the f-term by trapezoid,
    and M the raw stochastic mode increment from the stored paths.  The
    mode is read from each slice of time_slices() by one inner product.
    """
    pb = ensemble.problem
    if pb.psi.time_dependent:
        raise HypothesisViolationError("mode residual needs time-independent psi")
    if pb.g is not None and ensemble.paths is None:
        raise ValueError("mode residual needs a pathwise ensemble")
    grid = pb.grid
    # mode k_index of an array over the grid points: one inner product with
    # e^{-ik.x}, scaled as spatial_fft's unitary DFT
    k = np.array(np.unravel_index(k_index, grid.shape))
    turns = (k @ np.indices(grid.shape).reshape(grid.d, -1)) % grid.n
    wave = np.exp(-2j * np.pi * turns / grid.n) / np.sqrt(grid.n_points)
    uhat = np.stack([x @ wave for x in ensemble.time_slices()], axis=1)  # (n, n_t, m)
    u0k = pb.u0.values @ wave                                       # (m,)
    psik = symbol_on_grid(pb.psi, 0.0, grid)[k_index]
    t = pb.times
    dt = np.diff(t)
    ipsi = np.zeros_like(uhat)
    ipsi[:, 1:] = np.cumsum(psik * uhat[:, :-1] * dt[None, :, None], axis=1)
    i_f = np.zeros((pb.n_times, pb.m), dtype=complex)
    if pb.f is not None:
        fk = pb.f @ wave                                            # (n_t, m)
        mids = 0.5 * (fk[1:] + fk[:-1]) * dt[:, None]
        i_f[1:] = np.cumsum(mids, axis=0)
    M = np.zeros_like(uhat)
    if pb.g is not None:
        g_sub = np.repeat(pb.g @ wave, pb.quad_refine, axis=0)      # (C, m, J)
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
    total variance, mean sup-norm.  Reduces each slice of time_slices() in
    turn, so a pathwise ensemble is never held whole; the reductions add
    the samples in the whole ensemble's order, bit for bit.
    At the first time, and at every time without noise (g = None), every
    sample is the same field, and one of them is summarised: the mean of
    equal floats need not be bit-equal to them, and np.var would sum the
    rounding residues.  The sup-norm needs the joint law of the field,
    which the modewise estimator does not sample: its sup-norm is None."""
    dv = ensemble.problem.grid.cell_volume
    n = 1 if ensemble.problem.g is None else ensemble.n_samples
    joint = ensemble.estimator == "pathwise"
    rows = []
    slices = zip(ensemble.problem.times, ensemble.time_slices())
    for i, (t, x) in enumerate(slices):
        x = x[:n if i else 1]                       # (n, m, n_points)
        mf = np.sqrt(np.sum(np.abs(np.mean(x, axis=0)) ** 2) * dv)
        tv = float(np.sum(np.var(x, axis=0)) * dv)      # also real for complex x
        ms = float(np.mean(np.max(np.abs(x), axis=(1, 2)))) if joint else None
        rows.append((float(t), float(mf), tv, ms))
    return rows
