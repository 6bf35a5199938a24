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
from .symbols import SymbolSpec


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

    Shapes, the xi = 0 rule and the NaN check (SymbolDomainError) are
    _on_grid's.  With class_s, Re psi > 0 at any value raises
    SymbolClassError (the class-S sign).
    """
    if sym.d != grid.d:
        raise ValueError("symbol and grid dimensions differ")
    vals = _on_grid(sym.eval, t, grid, sym.at_zero, sym.name)
    if class_s:
        grows = np.any(vals.real > 0, axis=-1)
        if np.any(grows):
            first = t if np.ndim(t) == 0 else np.asarray(t)[grows][0]
            raise SymbolClassError(f"psi {sym.name!r} has Re psi > 0 on the "
                                   f"grid at t={first}; class S needs Re psi <= 0")
    return vals


def _on_grid(fn, t, grid: GridSpec, zero, name) -> np.ndarray:
    """fn(t, xi), a symbol's eval or primitive, at every grid frequency.

    A scalar t gives (n_points,).  A 1-D array of K times gives
    (K, n_points) from one call on the time column t[:, None]; a result of
    another shape is replaced by one call per time.  zero, unless None, is
    the value at xi = 0, per time or for all.  A NaN value raises
    SymbolDomainError, naming the symbol `name`.
    """
    freqs = grid.freq_grid()
    if np.ndim(t) == 0:
        vals = np.asarray(fn(t, freqs), dtype=complex)
    else:
        t = np.asarray(t, dtype=float)
        vals = np.asarray(fn(t[:, None], freqs), dtype=complex)
        if vals.shape != (len(t), grid.n_points):
            vals = np.stack([np.asarray(fn(r, freqs), dtype=complex)
                             for r in t])
    if zero is not None:
        vals = vals.copy()
        vals[..., 0] = zero     # flat index 0 is xi = 0 in fft layout
    # one pass over contiguous memory; max propagates NaN
    if np.isnan(np.max(np.ascontiguousarray(vals).view(float))):
        raise SymbolDomainError(f"symbol {name!r} produced NaN on the grid")
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


def symbol_time_integral(psi: SymbolSpec, t, s, grid: GridSpec):
    """int_s^t psi(r, xi) dr at every grid frequency: the table of
    symbol_cumulative_integrals on (s, t), (t - s) psi for a
    time-independent psi and P(t) - P(s) for a time-dependent one."""
    if t < s:
        raise ValueError("need t >= s")
    return symbol_cumulative_integrals(psi, [s, t], grid)[1]


def symbol_cumulative_integrals(psi: SymbolSpec, times, grid: GridSpec):
    """int_{t_0}^{t_i} psi(r, xi) dr for a sorted time list t_0, t_1, ...

    A time-independent psi is evaluated once and summed cell by cell; a
    time-dependent one gives P(t_i) - P(t_0) from its primitive P, with
    the class-S sign checked at every t_i and SymbolClassError where Re P
    increases from one t_i to the next: every exponent the solver and
    verify take is a later entry minus an earlier one, so Re <= 0.  exp
    of differences satisfies the composition law exactly on these times.
    """
    times = np.asarray(times, dtype=float)
    if psi.time_dependent:
        symbol_on_grid(psi, times, grid, class_s=True)
        prim = _on_grid(psi.primitive, times, grid,
                        None if psi.at_zero is None else times * psi.at_zero,
                        psi.name)
        out = prim - prim[0]
        grows = np.any(out.real[1:] > out.real[:-1], axis=-1)
        if np.any(grows):
            i = int(np.argmax(grows))
            raise SymbolClassError(
                f"psi {psi.name!r} has Re int psi dr > 0 on the grid between "
                f"t={times[i]} and t={times[i + 1]}; class S needs Re psi <= 0")
        return out
    out = np.zeros((len(times), grid.n_points), dtype=complex)
    vals = symbol_on_grid(psi, 0.0, grid)
    for i in range(1, len(times)):
        out[i] = out[i - 1] + (times[i] - times[i - 1]) * vals
    return out
