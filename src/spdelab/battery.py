"""Reusable input batteries for the checkers and the CLI.

Centralizing these keeps the CLI runs and the test suite exercising the
exact same objects, so a passing command line is evidence for the same
claim the tests make.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .covariance import builtin_kernel
from .gaussian import StepFunction
from .malliavin import (
    CylinderFunctional,
    ElementaryProcess,
    constant_functional,
    linear_functional,
)
from .spectral import Field, GridSpec, spatial_fft
from .symbols import (
    builtin_symbol,
    coordinate_symbol,
    log_symbol,
    m1_symbol,
    m2_symbol,
    m3_symbol,
    product_power_symbol,
    sum_in_order,
)


def step_battery(J=2):
    """Four step functions on [0, 1] with distinct support/coordinate patterns."""
    e1 = np.zeros(J)
    e1[0] = 1.0
    e2 = np.zeros(J)
    e2[min(1, J - 1)] = 1.0
    out = [
        StepFunction(np.array([0.0, 1.0]), e1[None, :]),
        StepFunction(np.array([0.0, 0.5, 1.0]), np.stack([e1, -e1])),
        StepFunction(np.array([0.0, 1 / 3, 2 / 3, 1.0]),
                     np.stack([e1 + e2, 2.0 * e2, -0.5 * e1])),
        StepFunction(np.array([0.25, 0.75]), 1.5 * e2[None, :]),
    ]
    return out


def kernel_battery():
    """The two kernels every Monte Carlo battery runs against."""
    return [builtin_kernel("wiener"), builtin_kernel("fbm", H=0.75)]


def elementary_battery(J=2, m=2, T=1.0):
    """Four elementary processes of increasing Malliavin complexity.

    1. deterministic coefficients (derivative term vanishes),
    2. the exact-case linear functional beta(phi) k tensor phi,
    3. two terms with orthogonal supports and curved shapes,
    4. two polynomial terms sharing their direction set.
    """
    e1 = np.zeros(J)
    e1[0] = 1.0
    e2 = np.zeros(J)
    e2[min(1, J - 1)] = 1.0
    phi_full = StepFunction(np.array([0.0, T]), e1[None, :])
    phi_early = StepFunction(np.array([0.0, T / 2]), e1[None, :])
    phi_late = StepFunction(np.array([T / 2, T]), e2[None, :])
    phi_mix = StepFunction(np.array([0.0, T / 2, T]), np.stack([e1, e1 + e2]))

    k1 = np.array([1.0, -0.5])[:m] if m >= 2 else np.array([1.0])
    k2 = np.array([0.25, 1.0])[:m] if m >= 2 else np.array([0.5])

    det = ElementaryProcess([
        (constant_functional(phi_early, 0.75), k1, phi_full),
        (constant_functional(phi_late, -1.25), k2, phi_late),
    ])
    exact = ElementaryProcess([
        (linear_functional(phi_full), k1, phi_full),
    ])
    curved = ElementaryProcess([
        (CylinderFunctional("sine", (phi_early,), (1.0,)), k1, phi_early),
        (CylinderFunctional("exp_neg_square", (phi_late,), (1.0,)), k2, phi_late),
    ])
    poly = ElementaryProcess([
        (CylinderFunctional("polynomial", (phi_full, phi_mix),
                            (0.5, 1.0, 0.25)), k1, phi_early),
        (CylinderFunctional("polynomial", (phi_full, phi_mix),
                            (0.0, -1.0, 0.0, 0.125)), k2, phi_late),
    ])
    return [("deterministic", det), ("linear-exact", exact),
            ("curved-two-term", curved), ("poly-shared", poly)]


def skorohod_battery(J=2, m=2, T=1.0):
    """(name, process, kernel) triples: 4 processes x 2 kernels = 8 cases."""
    cases = []
    for kern in kernel_battery():
        for pname, proc in elementary_battery(J=J, m=m, T=T):
            cases.append((f"{pname}/{kern.name}", proc, kern))
    return cases


# ---------------------------------------------------------------------------
# smooth space-time data for the operator checks


def bump_profile(box=2.0 * np.pi, width_frac=1.0 / 16.0):
    """A centered Gaussian bump on the torus, vectorized over (n_pts, d)."""
    def profile(x):
        w = box * width_frac
        r2 = sum_in_order((x - box / 2.0) ** 2)
        return np.exp(-r2 / (2.0 * w * w))
    return profile


def lp_forcing(a=0.0, b=1.0, box=2.0 * np.pi, m=1):
    """f(t, x, theta) -> (n_theta, m, n_pts): bump x smooth time window x theta.

    The time factor is cos^2 shaped, supported on the middle half of [a, b],
    so the integrand vanishes at both endpoints of the window.
    """
    space = bump_profile(box)

    def window(t):
        c = 0.5 * (a + b)
        half = 0.25 * (b - a)
        u = (t - c) / half
        return float(np.cos(0.5 * np.pi * u) ** 2) if abs(u) < 1.0 else 0.0

    def f(t, x, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        sp = space(x)
        tw = window(float(t))
        th = 1.0 + 0.5 * np.cos(2.0 * np.pi * theta)
        vals = th[:, None, None] * (tw * sp)[None, None, :]
        return np.broadcast_to(vals, (theta.size, m, sp.size)).copy()

    return f


def lp_forcing_mixed(a=0.0, b=1.0, box=2.0 * np.pi, m=1):
    """Two bump profiles with opposite theta phases; not a product in theta.

    A product forcing a(theta) F(t, x) cancels out of the square-function
    ratio, so the theta-grid form collapses to the scalar one on it.  This
    mixture keeps the theta integral load-bearing.
    """
    base = lp_forcing(a=a, b=b, box=box, m=m)
    bump2 = bump_profile(box=box, width_frac=1.0 / 10.0)

    def f(t, x, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        u = np.clip((float(t) - a) / (b - a), 0.0, 1.0)
        win2 = np.sin(np.pi * u) ** 2
        sp2 = bump2(np.mod(x + box / 4.0, box))
        th2 = 1.0 - 0.5 * np.sin(2.0 * np.pi * theta)
        return base(t, x, theta) + th2[:, None, None] * (win2 * sp2)[None, None, :]

    return f


def g_operator_forcings(a=0.0, b=1.0, box=2.0 * np.pi, m=1):
    """Three forcing profiles with different time textures for the G check."""
    base = lp_forcing(a=a, b=b, box=box, m=m)
    space = bump_profile(box, width_frac=1.0 / 10.0)

    def constant(t, x, theta):
        sp = space(x)
        return np.broadcast_to(sp[None, None, :], (1, m, sp.size)).copy()

    def rotating(t, x, theta):
        sp = space(x)
        val = np.cos(2.0 * np.pi * (t - a) / (b - a)) * sp
        return np.broadcast_to(val[None, None, :], (1, m, sp.size)).copy()

    return [base, constant, rotating]


def multiplier_battery(d=1):
    """(expected-to-pass-Mihlin, pass-Marcinkiewicz, expected-to-fail) triples.

    The passing set is the rational family built from two quadratic base
    symbols over a small s >= t >= 0 exponent grid; the rectangle-condition
    case is the anisotropic product-power multiplier; the failing set holds
    the two standard unbounded examples.
    """
    phi = builtin_symbol("power", gamma=2.0, d=d)
    psi = builtin_symbol("power", gamma=2.0, d=d)
    pairs = [(0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
    mihlin = []
    for t_exp, s_exp in pairs:
        mihlin.append((f"m1[s={s_exp}]", m1_symbol(phi, s_exp)))
        mihlin.append((f"m2[t={t_exp},s={s_exp}]",
                       m2_symbol(phi, psi, t_exp, s_exp)))
        mihlin.append((f"m3[t={t_exp},s={s_exp}]",
                       m3_symbol(phi, psi, t_exp, s_exp)))
    marcinkiewicz = [("product-power", product_power_symbol((1.0, 1.0)))]
    failing = [("coordinate", coordinate_symbol(0, d=2)),
               ("log1p", log_symbol(d=1))]
    return mihlin, marcinkiewicz, failing


def bessel_field_battery(grid: GridSpec, m=1, count=16, seed=0, band_frac=0.5):
    """Random band-limited fields: iid coefficients on the low |k| modes."""
    gen = _rng.substream(seed, _rng.BESSEL_BATTERY)
    freq = grid.freq_grid()
    kmax = np.max(np.abs(freq))
    keep = np.sqrt(sum_in_order(freq ** 2)) <= band_frac * kmax
    fields = []
    for _ in range(count):
        coef = (gen.standard_normal((m, grid.n_points))
                + 1j * gen.standard_normal((m, grid.n_points))) / np.sqrt(2.0)
        coef[:, ~keep] = 0.0
        fields.append(Field(grid, m, spatial_fft(coef, grid, inverse=True)))
    return fields
