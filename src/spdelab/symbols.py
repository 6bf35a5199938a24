"""Symbols and multiplier-condition checkers.

A symbol is a scalar function psi(t, xi) of time and frequency. Two
families matter:

* class M (order gamma): real, positive, time-independent symbols with
  kappa |xi|^gamma <= psi(xi) and |d^a psi(xi)| <= mu |xi|^{gamma-|a|};
  these generate the Bessel scales (1 + L_phi)^{alpha/2}.
* class S (order gamma): complex, possibly time-dependent symbols with
  Re psi(t, xi) <= -kappa |xi|^gamma and the same derivative control;
  these generate the evolution operator.

The checkers sample the Mihlin and Marcinkiewicz multiplier conditions on
dyadic frequency sets with central finite differences and report the
worst empirical constants. A "passed" verdict is sampled evidence, not a
proof.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .reports import MultiplierReport

DEFAULT_DYADIC_LO = -8
DEFAULT_DYADIC_HI = 8
DEFAULT_CAP = 1e6
STABILITY_RATIO = 1.10
STABILITY_LAG = 4


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol with its declared class metadata.

    eval maps (t, xi) -> complex values, where xi has shape (..., d) and
    the result has shape (...). On a grid of n_points frequencies, t may
    also come as a (K, 1) column of times; eval should then broadcast to
    (K, n_points), else spdelab evaluates one time at a time. gamma is
    the order; kappa and mu are the declared lower/upper constants;
    n_depth is the largest multi-index order the symbol claims to control.
    at_zero, when set, overrides the value used at xi = 0 on discrete
    grids (the limit rule).
    """

    eval: callable
    gamma: float
    kappa: float
    mu: float
    n_depth: int
    time_dependent: bool
    d: int
    name: str = "custom"
    params: dict = field(default_factory=dict)
    at_zero: complex | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.kappa > 0 and self.mu > 0):
            raise ValueError("gamma, kappa, mu must be strictly positive")
        if not (isinstance(self.d, numbers.Real) and self.d >= 1
                and self.d % 1 == 0):
            raise ValueError(f"dimension must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))     # JSON 2.0 is d = 2
        if self.n_depth < self.d // 2 + 1:
            raise ValueError("n_depth must be at least floor(d/2)+1")

    def __call__(self, t, xi):
        return self.eval(t, np.asarray(xi, dtype=float))


def _radius(xi):
    return np.sqrt(np.sum(np.square(xi), axis=-1))


# ---------------------------------------------------------------------------
# builtin symbols


def power_symbol(gamma=2.0, d=1):
    """psi(xi) = |xi|^gamma, the canonical class-M symbol."""
    def ev(t, xi):
        return _radius(xi) ** gamma
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * gamma + 2.0,
                      n_depth=4, time_dependent=False, d=d,
                      name="power", params={"gamma": gamma})


def power_exp_symbol(a=1.0, b=1.0, gamma=2.0, d=1):
    """psi(xi) = |xi|^gamma (a + b exp(-|xi|^gamma)); class M with kappa=a."""
    def ev(t, xi):
        r = _radius(xi) ** gamma
        return r * (a + b * np.exp(-r))
    mu = 2.0 * (a + b) * (gamma + 1.0) ** 2
    return SymbolSpec(eval=ev, gamma=gamma, kappa=a, mu=mu,
                      n_depth=4, time_dependent=False, d=d,
                      name="power_exp", params={"a": a, "b": b, "gamma": gamma})


def heat_symbol(gamma=2.0, scale=1.0, d=1):
    """psi(t, xi) = -scale |xi|^gamma; time-independent class-S symbol."""
    def ev(t, xi):
        return -scale * _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=scale, mu=scale * (2.0 * gamma + 2.0),
                      n_depth=4, time_dependent=False, d=d,
                      name="heat", params={"gamma": gamma, "scale": scale})


def oscillating_heat_symbol(gamma=2.0, d=1):
    """psi(t, xi) = -(1 + sin^2 t) |xi|^gamma; time-dependent class S.

    The time factor stays in [1, 2], so kappa = 1 and the derivative
    constants are twice the heat case.
    """
    def ev(t, xi):
        return -(1.0 + np.sin(t) ** 2) * _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * (2.0 * gamma + 2.0),
                      n_depth=4, time_dependent=True, d=d,
                      name="heat_osc", params={"gamma": gamma})


def wrong_sign_symbol(gamma=2.0, d=1):
    """psi(t, xi) = +|xi|^gamma; deliberately violates the class-S sign."""
    def ev(t, xi):
        return _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * gamma + 2.0,
                      n_depth=4, time_dependent=False, d=d,
                      name="wrong_sign", params={"gamma": gamma})


def exp_symbol(d=1):
    """psi(xi) = exp(|xi|); positive but with unbounded derivative constants."""
    def ev(t, xi):
        with np.errstate(over="ignore"):
            return np.exp(_radius(xi))
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, time_dependent=False, d=d, name="exp")


def constant_symbol(c=1.0, d=1):
    def ev(t, xi):
        return np.full(np.shape(xi)[:-1], c, dtype=complex)
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1e-12 if c == 0 else abs(c), mu=max(abs(c), 1e-12),
                      n_depth=4, time_dependent=False, d=d,
                      name="constant", params={"c": c}, at_zero=c)


def m1_symbol(phi: SymbolSpec, s: float):
    """m1(xi) = (1 + phi(xi))^{-s} for a class-M symbol phi and s >= 0."""
    def ev(t, xi):
        return (1.0 + np.real(phi.eval(0.0, xi))) ** (-s)
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, time_dependent=False, d=phi.d,
                      name="m1", params={"s": s, "phi": phi.name}, at_zero=1.0)


def m2_symbol(phi: SymbolSpec, psi: SymbolSpec, t_exp: float, s_exp: float):
    """m2(xi) = phi(xi)^t / (1 + psi(xi))^s with s >= t >= 0."""
    def ev(t, xi):
        num = np.real(phi.eval(0.0, xi)) ** t_exp
        return num / (1.0 + np.real(psi.eval(0.0, xi))) ** s_exp
    at0 = 1.0 if t_exp == 0 else 0.0
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, time_dependent=False, d=phi.d,
                      name="m2", params={"t": t_exp, "s": s_exp}, at_zero=at0)


def m3_symbol(phi: SymbolSpec, psi: SymbolSpec, t_exp: float, s_exp: float):
    """m3(xi) = (1 + phi(xi))^t / (1 + psi(xi)^s) with s >= t >= 0."""
    def ev(t, xi):
        num = (1.0 + np.real(phi.eval(0.0, xi))) ** t_exp
        return num / (1.0 + np.real(psi.eval(0.0, xi)) ** s_exp)
    at0 = 1.0 if s_exp > 0 else 0.5
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, time_dependent=False, d=phi.d,
                      name="m3", params={"t": t_exp, "s": s_exp}, at_zero=at0)


def product_power_symbol(a_exps, d=None):
    """m(xi) = |xi_1|^{a_1} ... |xi_d|^{a_d} / |xi|^{a_1+...+a_d}.

    Scale-invariant and smooth away from the coordinate hyperplanes; the
    classical example of a multiplier that satisfies the rectangle
    condition but not the radial one.
    """
    a_exps = tuple(float(a) for a in a_exps)
    d = len(a_exps) if d is None else d
    total = sum(a_exps)

    def ev(t, xi):
        num = np.ones(np.shape(xi)[:-1])
        for i, a in enumerate(a_exps):
            num = num * np.abs(xi[..., i]) ** a
        return num / _radius(xi) ** total
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=4.0,
                      n_depth=4, time_dependent=False, d=d,
                      name="product_power", params={"a": list(a_exps)}, at_zero=0.0)


def log_symbol(d=1):
    """m(xi) = log(1 + |xi|), unbounded (fails every multiplier condition)."""
    def ev(t, xi):
        return np.log1p(_radius(xi))
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, time_dependent=False, d=d, name="log1p", at_zero=0.0)


def coordinate_symbol(i=0, d=2):
    """m(xi) = xi_i, unbounded."""
    def ev(t, xi):
        return xi[..., i] + 0.0
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, time_dependent=False, d=d,
                      name="coordinate", params={"i": i}, at_zero=0.0)


_BUILTIN_SYMBOLS = {
    "power": power_symbol,
    "power_exp": power_exp_symbol,
    "heat": heat_symbol,
    "heat_osc": oscillating_heat_symbol,
    "wrong_sign": wrong_sign_symbol,
    "exp": exp_symbol,
    "constant": constant_symbol,
    "log1p": log_symbol,
    "coordinate": coordinate_symbol,
    "product_power": product_power_symbol,
}


def builtin_symbol(name, **params):
    """Construct a builtin symbol by name; used by the config layer."""
    try:
        ctor = _BUILTIN_SYMBOLS[name]
    except KeyError:
        raise KeyError(f"unknown symbol {name!r}; have {sorted(_BUILTIN_SYMBOLS)}")
    return ctor(**params)


# ---------------------------------------------------------------------------
# sampling and finite differences


def dyadic_directions(d):
    """Fixed unit directions bounded away from the coordinate hyperplanes."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.pi / 8.0 + np.arange(8) * np.pi / 4.0
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if d == 3:
        az = np.pi / 8.0 + np.arange(4) * np.pi / 2.0
        polar = np.array([np.pi / 3.0, np.pi / 2.0 + 0.3, 2.2])
        dirs = []
        for p in polar:
            for a in az:
                dirs.append([np.sin(p) * np.cos(a), np.sin(p) * np.sin(a), np.cos(p)])
        return np.asarray(dirs)
    raise NotImplementedError("dyadic sampling implemented for d <= 3")


def dyadic_samples(d, lo=DEFAULT_DYADIC_LO, hi=DEFAULT_DYADIC_HI):
    """Return (radii, points) with points of shape (n_levels, n_dirs, d).

    Radii are 2^lo ... 2^hi; directions avoid xi = 0 and the coordinate
    hyperplanes, where the symbols may be non-smooth or undefined.
    """
    radii = 2.0 ** np.arange(lo, hi + 1, dtype=float)
    dirs = dyadic_directions(d)
    return radii, radii[:, None, None] * dirs[None, :, :]


_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}


def fd_partial(fun, xi, alpha, rel_step=1e-4):
    """Central finite-difference mixed partial d^alpha fun at points xi.

    xi has shape (N, d); alpha is a per-axis order tuple with entries in
    {0, 1, 2}. The step is rel_step * |xi| per coordinate, which keeps
    homogeneous quantities scale free.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    d = xi.shape[-1]
    if len(alpha) != d:
        raise ValueError("alpha length must match dimension")
    if any(a not in _STENCILS for a in alpha):
        raise ValueError("per-axis derivative order must be 0, 1 or 2")
    h = rel_step * _radius(xi)[..., None]
    acc = None
    for combo in itertools.product(*(_STENCILS[a] for a in alpha)):
        offsets = np.array([c[0] for c in combo])
        weight = np.prod([c[1] for c in combo])
        vals = fun(xi + offsets * h)
        acc = weight * vals if acc is None else acc + weight * vals
    order = sum(alpha)
    return acc / h[..., 0] ** order if order else acc


def _multi_indices(d, max_total, max_per_axis=2, include_zero=True):
    out = []
    for alpha in itertools.product(range(max_per_axis + 1), repeat=d):
        if sum(alpha) <= max_total and (include_zero or sum(alpha) > 0):
            out.append(alpha)
    return sorted(out, key=sum)


def _cumulative_stable(per_level_sup, ratio=STABILITY_RATIO, lag=STABILITY_LAG,
                       floor=1e-9):
    """True when the running sup over dyadic levels has stopped growing."""
    cum = np.maximum.accumulate(per_level_sup)
    if not np.isfinite(cum[-1]):
        return False
    if len(cum) <= lag:
        return True
    return cum[-1] <= max(cum[-1 - lag] * ratio, floor)


# ---------------------------------------------------------------------------
# checkers


def check_mihlin(m: SymbolSpec, xi_samples=None, cap=DEFAULT_CAP,
                 lo=DEFAULT_DYADIC_LO, hi=DEFAULT_DYADIC_HI):
    """Mihlin-condition scan: sup |d^a m(xi)| |xi|^{|a|} for |a| <= floor(d/2)+1.

    Passed iff the constant is finite, below cap, and the running sup over
    increasing dyadic levels has stabilized (growth over the last four
    levels below 10%). Unbounded symbols like xi_1 or log(1+|xi|) keep
    growing level over level and fail.
    """
    if xi_samples is None:
        radii, pts = dyadic_samples(m.d, lo, hi)
    else:
        pts = np.atleast_2d(np.asarray(xi_samples, float)).reshape(-1, 1, m.d)
        radii = _radius(pts[:, 0, :])
        order = np.argsort(radii)
        radii, pts = radii[order], pts[order]
    n_lev, n_dir, d = pts.shape
    depth = m.d // 2 + 1

    def f(p):
        return m.eval(0.0, p)

    flat = pts.reshape(-1, d)
    r = _radius(flat)
    worst = -np.inf
    worst_loc = ((0,) * d, flat[0])
    per_level = np.zeros(n_lev)
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha in _multi_indices(d, depth):
            scaled = np.abs(fd_partial(f, flat, alpha)) * r ** sum(alpha)
            scaled = np.nan_to_num(scaled, nan=np.inf).reshape(n_lev, n_dir)
            lev_sup = scaled.max(axis=1)
            per_level = np.maximum(per_level, lev_sup)
            i = int(np.argmax(scaled))
            if scaled.flat[i] > worst:
                worst = float(scaled.flat[i])
                worst_loc = (alpha, flat[i])

    stable = _cumulative_stable(per_level)
    passed = bool(np.isfinite(worst) and worst <= cap and stable)
    return MultiplierReport(
        condition_name="mihlin", worst_constant=worst,
        worst_location=(worst_loc[0], worst_loc[1].tolist()),
        passed=passed, samples_used=flat.shape[0],
        details={"stable": bool(stable), "depth": depth,
                 "per_level_sup": per_level.tolist()})


def check_marcinkiewicz(m: SymbolSpec, rectangle_budget=4096,
                        lo=DEFAULT_DYADIC_LO, hi=DEFAULT_DYADIC_HI,
                        nodes_per_axis=12, cap=DEFAULT_CAP):
    """Rectangle-condition scan.

    For every nonempty coordinate subset S, integrates the mixed first
    partial |d_S m| over dyadic rectangles in the S coordinates (all sign
    patterns), with the remaining coordinates frozen at dyadic values, and
    takes the sup. Boundedness of m itself is scanned as well. The
    verdict combines finiteness, the cap, and running-sup stability over
    dyadic levels.
    """
    d = m.d
    levels = np.arange(lo, hi, dtype=int)  # rectangle (2^k, 2^{k+1}]
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes_per_axis)

    def f(p):
        return m.eval(0.0, p)

    # boundedness scan on dyadic points
    radii, pts = dyadic_samples(d, lo, hi)
    flat = pts.reshape(-1, d)
    with np.errstate(over="ignore", invalid="ignore"):
        mvals = np.abs(np.asarray(f(flat)))
    sup_per_level = np.nan_to_num(mvals, nan=np.inf).reshape(len(radii), -1).max(axis=1)
    worst = float(np.max(sup_per_level))
    worst_loc = ((0,) * d, flat[int(np.argmax(mvals))])
    level_tracks = [sup_per_level]

    subsets = [s for k in range(1, d + 1) for s in itertools.combinations(range(d), k)]
    fixed_vals = np.concatenate([2.0 ** np.arange(lo, hi + 1, 4, dtype=float),
                                 -(2.0 ** np.arange(lo, hi + 1, 4, dtype=float))])
    with np.errstate(over="ignore", invalid="ignore"):
        for S in subsets:
            alpha = tuple(1 if i in S else 0 for i in range(d))
            free = [i for i in range(d) if i not in S]
            combos = list(itertools.product(levels, repeat=len(S)))
            if len(combos) * max(1, len(fixed_vals) ** len(free)) > rectangle_budget:
                stride = max(1, (len(combos) * max(1, len(fixed_vals) ** len(free)))
                             // rectangle_budget)
                combos = combos[::stride]
            track = np.zeros(len(levels))
            for ks in combos:
                # tensor quadrature nodes on the rectangle, every sign pattern
                axes_nodes, axes_wts = [], []
                for k in ks:
                    a, b = 2.0 ** k, 2.0 ** (k + 1)
                    axes_nodes.append(0.5 * (b + a) + 0.5 * (b - a) * gl_x)
                    axes_wts.append(0.5 * (b - a) * gl_w)
                mesh = np.meshgrid(*axes_nodes, indexing="ij")
                wmesh = np.meshgrid(*axes_wts, indexing="ij")
                base = np.stack([g.ravel() for g in mesh], -1)
                wts = np.prod(np.stack([w.ravel() for w in wmesh], -1), axis=-1)
                fixed_choices = (itertools.product(fixed_vals, repeat=len(free))
                                 if free else [()])
                for fixed in fixed_choices:
                    for signs in itertools.product((1.0, -1.0), repeat=len(S)):
                        p = np.zeros((base.shape[0], d))
                        for col, i in enumerate(S):
                            p[:, i] = signs[col] * base[:, col]
                        for col, i in enumerate(free):
                            p[:, i] = fixed[col]
                        der = np.abs(fd_partial(f, p, alpha))
                        integ = float(np.sum(np.nan_to_num(der, nan=np.inf) * wts))
                        li = int(max(ks) - lo)
                        track[li] = max(track[li], integ)
                        if integ > worst:
                            worst, worst_loc = integ, (alpha, p[0])
            level_tracks.append(track)

    stable = all(_cumulative_stable(t) for t in level_tracks)
    passed = bool(np.isfinite(worst) and worst <= cap and stable)
    return MultiplierReport(
        condition_name="marcinkiewicz", worst_constant=worst,
        worst_location=(worst_loc[0], np.asarray(worst_loc[1]).tolist()),
        passed=passed, samples_used=int(sum(len(t) for t in level_tracks)),
        details={"stable": bool(stable),
                 "per_level_sup": [t.tolist() for t in level_tracks]})
