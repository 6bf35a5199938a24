"""Periodic grid, unitary FFT contract, and the symbol tables.

Everything lives on the torus [0, L)^d sampled at n points per axis, so
every operator is an exact Fourier multiplier: the pseudo-differential
operator with symbol psi, the Bessel lift (1 + phi)^{alpha/2}, and the
two-parameter evolution operator exp(int_s^t psi(r, xi) dr).  This module
gives their values on the grid; a caller multiplies a transform by them.

Conventions:
  * frequencies are 2 pi k / L with k in fft order,
  * transforms use norm="ortho" so discrete Parseval is exact,
  * a real field has a Hermitian spectrum, so its transform keeps only the
    half spectrum, the frequencies of GridSpec.half,
  * the symbol value at xi = 0 follows the limit rule (SymbolSpec.at_zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SymbolClassError, SymbolDomainError
from .symbols import SymbolSpec, sum_in_order


def check_grid_size(n):
    """Raise ValueError unless n, points per grid axis, is a power of two >= 4."""
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two, at least 4")


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: d axes, n points per axis (power of two), period L."""

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        check_grid_size(self.n)
        if not self.L > 0:
            raise ValueError("L must be positive")

    @property
    def n_points(self):
        return self.n ** self.d

    @property
    def cell_volume(self):
        return (self.L / self.n) ** self.d

    @property
    def shape(self):
        return (self.n,) * self.d

    def freq_grid(self):
        """Frequencies as a flat (n^d, d) array in C-order fft layout."""
        return _freq_grid(self.d, self.n, self.L)

    def x_grid(self):
        """Spatial sample points as a flat (n^d, d) array."""
        return _x_grid(self.d, self.n, self.L)

    @property
    def half(self) -> HalfGrid:
        """The half spectrum that spatial_rfft keeps."""
        return HalfGrid(self.d, self.n, self.L)


@dataclass(frozen=True)
class HalfGrid:
    """The real-to-complex half spectrum of a GridSpec: the frequencies whose
    last index is 0..n/2 in fft order.  It has GridSpec's d, n_points and
    freq_grid(), so the symbol tables run on it unchanged and give the full
    grid's values at the kept frequencies."""

    d: int
    n: int
    L: float

    @property
    def shape(self):
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

    @property
    def n_points(self):
        return self.n ** (self.d - 1) * (self.n // 2 + 1)

    def freq_grid(self):
        full = _freq_grid(self.d, self.n, self.L).reshape((self.n,) * self.d + (-1,))
        return full[..., :self.n // 2 + 1, :].reshape(-1, self.d)


@lru_cache(maxsize=32)
def _freq_grid(d, n, L):
    ax = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    out = np.stack([g.ravel() for g in mesh], axis=-1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _x_grid(d, n, L):
    ax = np.arange(n) * (L / n)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    out = np.stack([g.ravel() for g in mesh], axis=-1)
    out.setflags(write=False)
    return out


@dataclass
class Field:
    """A K-valued (complex R^m) function sampled on the grid, stored flat."""

    grid: GridSpec
    m: int
    values: np.ndarray  # complex, shape (m, n^d)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.m, self.grid.n_points):
            raise ValueError(f"field values must have shape {(self.m, self.grid.n_points)}")

    @classmethod
    def zeros(cls, grid, m=1):
        return cls(grid, m, np.zeros((m, grid.n_points), dtype=complex))


# ---------------------------------------------------------------------------
# transforms and symbol values


def spatial_fft(arr, grid: GridSpec, inverse=False, out=None) -> np.ndarray:
    """Unitary DFT over the trailing (n_points,) axis; Parseval is exact.

    A contiguous complex `out` of arr's shape receives the result, which
    may be arr itself.
    """
    lead = arr.shape[:-1]
    shape = lead + grid.shape
    axes = tuple(range(len(lead), len(shape)))
    fn = np.fft.ifftn if inverse else np.fft.fftn
    res = fn(arr.reshape(shape), axes=axes, norm="ortho",
             out=None if out is None else out.reshape(shape))
    return res.reshape(lead + (grid.n_points,))


def spatial_rfft(arr, grid: GridSpec) -> np.ndarray:
    """Unitary DFT of a real arr over its trailing (n_points,) axis, on the
    half spectrum: shape (..., grid.half.n_points)."""
    lead = arr.shape[:-1]
    res = np.fft.rfftn(arr.reshape(lead + grid.shape), norm="ortho",
                       axes=tuple(range(len(lead), len(lead) + grid.d)))
    return res.reshape(lead + (grid.half.n_points,))


def spatial_irfft(arr, grid: GridSpec, out=None) -> np.ndarray:
    """Inverse of spatial_rfft: a real (..., n_points) array, or out.

    The contiguous arr is overwritten: as in np.fft.irfftn, the leading
    grid axes are inverted first, here in place, then the irfft of the last
    axis writes out, which may be a strided view.
    """
    lead = arr.shape[:-1]
    if out is None:
        out = np.empty(lead + (grid.n_points,))
    spec = arr.reshape(lead + grid.half.shape)
    if grid.d > 1:
        np.fft.ifftn(spec, axes=tuple(range(len(lead), spec.ndim - 1)),
                     norm="ortho", out=spec)
    np.fft.irfft(spec, grid.n, axis=-1, norm="ortho",
                 out=out.reshape(lead + grid.shape))
    return out


def multiplier_kernel(mult, grid: GridSpec) -> np.ndarray:
    """Convolution kernel (flat, (n_points,)) of the Fourier multiplier mult.

    Scaled so that the grid Riemann sum of the kernel is mult at xi = 0.
    """
    vals = np.fft.ifftn(mult.reshape(grid.shape)) * (grid.n / grid.L) ** grid.d
    return vals.reshape(-1)


def symbol_on_grid(sym: SymbolSpec, t, grid: GridSpec, class_s=False) -> np.ndarray:
    """Evaluate a symbol at every grid frequency, honoring the xi=0 rule.

    A scalar t gives (n_points,).  A 1-D array of K times gives
    (K, n_points) from one call sym.eval(t[:, None], freqs); an eval whose
    result does not have that shape is called once per time instead.
    A NaN value raises SymbolDomainError; with class_s, Re psi > 0 at any
    value raises SymbolClassError (the class-S sign).
    """
    if sym.d != grid.d:
        raise ValueError("symbol and grid dimensions differ")
    freqs = grid.freq_grid()
    if np.ndim(t) == 0:
        vals = np.asarray(sym.eval(t, freqs), dtype=complex)
    else:
        t = np.asarray(t, dtype=float)
        vals = np.asarray(sym.eval(t[:, None], freqs), dtype=complex)
        if vals.shape != (len(t), grid.n_points):
            vals = np.stack([np.asarray(sym.eval(r, freqs), dtype=complex)
                             for r in t])
    if sym.at_zero is not None:
        vals = vals.copy()
        vals[..., 0] = sym.at_zero  # flat index 0 is xi = 0 in fft layout
    # one pass over contiguous memory: max propagates NaN, and a value with
    # no positive part passes the sign check without the strided real view
    top = np.max(np.ascontiguousarray(vals).view(float))
    if np.isnan(top):
        raise SymbolDomainError(f"symbol {sym.name!r} produced NaN on the grid")
    if class_s and top > 0:
        grows = np.any(vals.real > 0, axis=-1)
        if np.any(grows):
            first = t if np.ndim(t) == 0 else t[grows][0]
            raise SymbolClassError(f"psi {sym.name!r} has Re psi > 0 on the "
                                   f"grid at t={first}; class S needs Re psi <= 0")
    return vals


def check_class_s_sign(psi: SymbolSpec, times, grid: GridSpec):
    """SymbolClassError unless Re psi <= 0 on the grid at every time.

    Class S needs the sign; a growing mode gives inf, NaN or unbounded
    ratios downstream.  One symbol_on_grid call evaluates every time; a
    time-independent psi is evaluated once.  Returns the values, (n_points,)
    or (len(times), n_points).
    """
    return symbol_on_grid(psi, np.asarray(times, dtype=float)
                          if psi.time_dependent else times[0], grid, class_s=True)


def check_hermitian(sym: SymbolSpec, vals, grid: GridSpec):
    """SymbolClassError unless a symbol's grid values vals (..., n_points)
    are Hermitian: the value at -xi is the conjugate of the value at xi,
    exactly, with -xi taken modulo the grid (so a Nyquist frequency needs a
    real value).  Then its multiplier keeps a real field real.
    """
    mirror = vals.reshape(vals.shape[:-1] + grid.shape)
    for ax in range(vals.ndim - 1, mirror.ndim):     # index k -> -k mod n
        mirror = np.roll(np.flip(mirror, ax), 1, ax)
    if not np.array_equal(mirror.reshape(vals.shape), np.conj(vals)):
        raise SymbolClassError(f"symbol {sym.name!r} is not Hermitian on the "
                               "grid: a real result needs sym(-xi) = conj sym(xi)")


def bessel_multiplier(phi: SymbolSpec, grid: GridSpec, alpha) -> np.ndarray:
    """(1 + Re phi(xi))^{alpha/2} at every grid frequency, real."""
    return (1.0 + np.real(symbol_on_grid(phi, 0.0, grid))) ** (alpha / 2.0)


# ---------------------------------------------------------------------------
# the evolution operator's symbol tables


# symbol_time_integral's Simpson ladder: the subintervals of a cell's first
# and last rule, and the relative agreement at which a rung is accepted
_SIMPSON_SUBINTERVALS = (16, 64)
_SIMPSON_RTOL = 1e-13


def _settled(fine, coarse):
    """max|fine - coarse| <= _SIMPSON_RTOL max|fine|, False if not finite."""
    scale = np.max(np.abs(fine))
    return bool(np.isfinite(scale)
                and np.max(np.abs(fine - coarse)) <= _SIMPSON_RTOL * scale)


def symbol_time_integral(psi: SymbolSpec, t, s, grid: GridSpec):
    """int_s^t psi(r, xi) dr at every grid frequency.

    Exact (t-s) * psi for time-independent symbols.  Otherwise composite
    Simpson, sized per cell: one symbol_on_grid call evaluates the 17
    nodes of Simpson-16, which is accepted when it agrees with Simpson-8
    (the even nodes) to _SIMPSON_RTOL relative to max|Simpson-16|; else
    one call per doubling evaluates only the new midpoints, up to
    Simpson-64, which is accepted.  A comparison that is not finite does
    not accept.  Doubling k subintervals gives S_2k = (T_k + 2 M_k)/3 from
    the trapezoid and midpoint sums, each call's rows added in node order.
    The class-S sign (Re psi > 0 raises SymbolClassError) and the NaN
    check cover every node evaluated: the 17 nodes and the midpoints of
    each doubling taken, not the nodes of finer rules.
    """
    if t < s:
        raise ValueError("need t >= s")
    if t == s:
        return np.zeros(grid.n_points, dtype=complex)
    if not psi.time_dependent:
        return (t - s) * symbol_on_grid(psi, 0.0, grid)
    first, last = _SIMPSON_SUBINTERVALS
    h = t - s
    block = symbol_on_grid(psi, s + h * np.arange(first + 1) / first, grid,
                           class_s=True)
    # T_k and M_k on k subintervals, without their width h / k
    trap, k, coarse = 0.5 * (block[0] + block[first]), 1, None
    while True:
        if k < first:
            mid = sum_in_order(block[first // (2 * k)::first // k], axis=0)
        else:
            mid = sum_in_order(symbol_on_grid(
                psi, s + h * np.arange(1, 2 * k, 2) / (2 * k), grid,
                class_s=True), axis=0)
        if 4 * k >= first:      # S_2k from Simpson-(first/2), the first coarse rule
            fine = (trap + 2.0 * mid) * (h / (3.0 * k))
            if 2 * k == last or coarse is not None and _settled(fine, coarse):
                return fine
            coarse = fine
        trap += mid
        k *= 2


def symbol_cumulative_integrals(psi: SymbolSpec, times, grid: GridSpec):
    """Cumulative integrals int_0^{t_i} psi(r, xi) dr for a sorted time list.

    Shared Simpson nodes per cell, so exp of differences satisfies the
    two-parameter composition law exactly on these times.  A
    time-independent psi is evaluated once for the whole table.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros((len(times), grid.n_points), dtype=complex)
    vals = None if psi.time_dependent else symbol_on_grid(psi, 0.0, grid)
    for i in range(1, len(times)):
        if vals is None:
            cell = symbol_time_integral(psi, times[i], times[i - 1], grid)
        else:
            cell = (times[i] - times[i - 1]) * vals
        out[i] = out[i - 1] + cell
    return out
