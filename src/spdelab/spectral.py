"""Periodic grid, unitary FFT contract, and multiplier operators.

Everything lives on the torus [0, L)^d sampled at n points per axis, so
every operator here is an exact Fourier multiplier: the pseudo-differential
operator with symbol psi, the Bessel lift (1 + phi)^{alpha/2}, and the
two-parameter evolution operator exp(int_s^t psi(r, xi) dr).

Conventions:
  * frequencies are 2 pi k / L with k in fft order,
  * transforms use norm="ortho" so discrete Parseval is exact,
  * L^p norms are Riemann sums with cell volume (L/n)^d,
  * the symbol value at xi = 0 follows the limit rule (SymbolSpec.at_zero).
"""

from __future__ import annotations

import struct
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

    @classmethod
    def from_function(cls, grid, fn, m=1):
        """Sample fn(x) with x of shape (n^d, d); fn returns (n^d,) or (m, n^d)."""
        vals = np.asarray(fn(grid.x_grid()), dtype=complex)
        if vals.ndim == 1:
            vals = vals[None, :]
        return cls(grid, m, vals)

    def copy(self):
        return Field(self.grid, self.m, self.values.copy())


# ---------------------------------------------------------------------------
# transforms and multipliers


def spatial_fft(arr, grid: GridSpec, inverse=False) -> np.ndarray:
    """Unitary DFT over the trailing (n_points,) axis; Parseval is exact."""
    lead = arr.shape[:-1]
    axes = tuple(range(len(lead), len(lead) + grid.d))
    fn = np.fft.ifftn if inverse else np.fft.fftn
    out = fn(arr.reshape(lead + grid.shape), axes=axes, norm="ortho")
    return out.reshape(lead + (grid.n_points,))


def multiplier_kernel(mult, grid: GridSpec) -> np.ndarray:
    """Convolution kernel (flat, (n_points,)) of the Fourier multiplier mult.

    Scaled so that the grid Riemann sum of the kernel is mult at xi = 0.
    """
    vals = np.fft.ifftn(mult.reshape(grid.shape)) * (grid.n / grid.L) ** grid.d
    return vals.reshape(-1)


def forward_transform(field: Field) -> Field:
    return Field(field.grid, field.m, spatial_fft(field.values, field.grid))


def inverse_transform(field: Field) -> Field:
    return Field(field.grid, field.m,
                 spatial_fft(field.values, field.grid, inverse=True))


def symbol_on_grid(sym: SymbolSpec, t, grid: GridSpec) -> np.ndarray:
    """Evaluate a symbol at every grid frequency, honoring the xi=0 rule.

    A scalar t gives (n_points,).  A 1-D array of K times gives
    (K, n_points) from one call sym.eval(t[:, None], freqs); an eval whose
    result does not have that shape is called once per time instead.
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
    if np.any(np.isnan(vals)):
        raise SymbolDomainError(f"symbol {sym.name!r} produced NaN on the grid")
    return vals


def check_class_s_sign(psi: SymbolSpec, times, grid: GridSpec):
    """SymbolClassError unless Re psi <= 0 on the grid at every time.

    Class S needs the sign; a growing mode gives inf, NaN or unbounded
    ratios downstream.  A time-independent psi is evaluated once.
    """
    for t in times if psi.time_dependent else times[:1]:
        if np.any(np.real(symbol_on_grid(psi, t, grid)) > 0):
            raise SymbolClassError(f"psi {psi.name!r} has Re psi > 0 on the "
                                   f"grid at t={t}; class S needs Re psi <= 0")


def apply_multiplier(field: Field, mult: np.ndarray) -> Field:
    spec = spatial_fft(field.values, field.grid) * mult
    return Field(field.grid, field.m, spatial_fft(spec, field.grid, inverse=True))


def apply_pseudo_diff(sym: SymbolSpec, t, field: Field) -> Field:
    """Apply the multiplier psi(t, xi), componentwise over K."""
    return apply_multiplier(field, symbol_on_grid(sym, t, field.grid))


def bessel_lift(phi: SymbolSpec, alpha, field: Field) -> Field:
    """Apply (1 + phi(xi))^{alpha/2}."""
    base = np.real(symbol_on_grid(phi, 0.0, field.grid))
    return apply_multiplier(field, (1.0 + base) ** (0.5 * alpha) + 0j)


def lp_norm(field: Field, p) -> float:
    """Riemann L^p norm with the Euclidean norm over the m components."""
    ptw = np.sqrt(np.sum(np.abs(field.values) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(ptw))
    if p <= 0:
        raise ValueError("p must be positive")
    return float((np.sum(ptw ** p) * field.grid.cell_volume) ** (1.0 / p))


def bessel_norm(field: Field, phi: SymbolSpec, alpha, p) -> float:
    """The norm ||(1 + L_phi)^{alpha/2} u||_{L^p} on the grid."""
    return lp_norm(bessel_lift(phi, alpha, field), p)


# ---------------------------------------------------------------------------
# evolution operator


def _simpson_weights(n_sub):
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def symbol_time_integral(psi: SymbolSpec, t, s, grid: GridSpec):
    """int_s^t psi(r, xi) dr at every grid frequency.

    Exact (t-s) * psi for time-independent symbols; composite Simpson on
    64 subintervals otherwise, with the 65 nodes evaluated in one
    symbol_on_grid call and summed in node order.  A time-dependent psi
    with Re psi > 0 at any node raises SymbolClassError.
    """
    if t < s:
        raise ValueError("need t >= s")
    if t == s:
        return np.zeros(grid.n_points, dtype=complex)
    if not psi.time_dependent:
        return (t - s) * symbol_on_grid(psi, 0.0, grid)
    n_sub = 64
    nodes = s + (t - s) * np.arange(n_sub + 1) / n_sub
    w = _simpson_weights(n_sub) * ((t - s) / n_sub)
    vals = symbol_on_grid(psi, nodes, grid)
    if np.any(vals.real > 0):
        raise SymbolClassError(f"psi {psi.name!r} has Re psi > 0 on the grid "
                               f"in [{s}, {t}]; class S needs Re psi <= 0")
    acc = np.zeros(grid.n_points, dtype=complex)
    for wr, row in zip(w, vals):
        acc += wr * row
    return acc


def evolution_multiplier(psi: SymbolSpec, t, s, grid: GridSpec):
    return np.exp(symbol_time_integral(psi, t, s, grid))


def evolution_apply(psi: SymbolSpec, t, s, field: Field) -> Field:
    """Apply the evolution operator from time s to time t >= s."""
    if t < s:
        raise ValueError("evolution requires t >= s")
    if t == s:
        return field.copy()
    return apply_multiplier(field, evolution_multiplier(psi, t, s, field.grid))


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


def kernel_p_psi(psi: SymbolSpec, t, s, grid: GridSpec) -> Field:
    """The convolution kernel of the evolution operator, sampled on the grid.

    Normalized so the grid Riemann sum equals the multiplier at xi = 0
    exactly (mass 1 for symbols vanishing at 0).
    """
    if t <= s:
        raise ValueError("kernel requires t > s")
    mult = evolution_multiplier(psi, t, s, grid)
    return Field(grid, 1, multiplier_kernel(mult, grid)[None, :])


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"SPLF"
_DTYPES = {0: np.complex64, 1: np.complex128}


def field_to_bytes(field: Field, dtype_code=0) -> bytes:
    """Flat binary format: header (d, n, L, m, dtype code) + row-major payload."""
    header = _MAGIC + struct.pack("<IIdIB", field.grid.d, field.grid.n,
                                  field.grid.L, field.m, dtype_code)
    payload = np.ascontiguousarray(field.values.astype(_DTYPES[dtype_code]))
    return header + payload.tobytes()


def field_from_bytes(buf: bytes) -> Field:
    if buf[:4] != _MAGIC:
        raise ValueError("not a field buffer")
    d, n, L, m, code = struct.unpack("<IIdIB", buf[4:4 + 21])
    grid = GridSpec(d=d, n=n, L=L)
    vals = np.frombuffer(buf[4 + 21:], dtype=_DTYPES[code]).reshape(m, n ** d)
    return Field(grid, m, vals.astype(complex))


def field_to_csv(field: Field, fh):
    """Write x coordinates and component values as CSV (small grids only)."""
    import csv

    x = field.grid.x_grid()
    w = csv.writer(fh, lineterminator="\r\n")
    w.writerow([f"x{i}" for i in range(field.grid.d)]
               + [f"re{c}" for c in range(field.m)]
               + [f"im{c}" for c in range(field.m)])
    for i in range(field.grid.n_points):
        row = [repr(float(v)) for v in x[i]]
        row += [repr(float(field.values[c, i].real)) for c in range(field.m)]
        row += [repr(float(field.values[c, i].imag)) for c in range(field.m)]
        w.writerow(row)
