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

# the scans sample the dyadic radii 2^DYADIC_LO ... 2^DYADIC_HI; a
# condition passes when its worst constant is finite and at most CAP and
# its running sup over the levels grew by at most STABILITY_RATIO over the
# last STABILITY_LAG of them
DYADIC_LO = -8
DYADIC_HI = 8
CAP = 1e6
STABILITY_RATIO = 1.10
STABILITY_LAG = 4
_STABILITY_FLOOR = 1e-9       # a running sup this small counts as stable
_FD_REL_STEP = 1e-4           # finite-difference step relative to |xi|
_RECT_NODES = 12              # Gauss-Legendre nodes per rectangle axis


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol with its declared class metadata.

    eval maps (t, xi) -> complex values, where xi has shape (..., d) and
    the result has shape (...). On a grid of n_points frequencies, t may
    also come as a (K, 1) column of times; eval should then broadcast to
    (K, n_points), else spdelab evaluates one time at a time. gamma is
    the order; kappa and mu are the declared lower/upper constants;
    n_depth is the largest multi-index order the symbol claims to control.
    primitive, set exactly when psi depends on t, is its time primitive
    P(t, xi) = int_0^t psi(r, xi) dr, called as eval is; the evolution
    tables are differences of it. at_zero, when set, overrides the value
    used at xi = 0 on discrete grids (the limit rule); P's value there is
    then t at_zero.
    """

    eval: callable
    gamma: float
    kappa: float
    mu: float
    n_depth: int
    d: int
    primitive: callable | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    at_zero: complex | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.kappa > 0 and self.mu > 0):
            raise ValueError("gamma, kappa, mu must be strictly positive")
        if not (isinstance(self.d, numbers.Real)
                and not isinstance(self.d, bool)     # a bool is a Real
                and self.d >= 1 and self.d % 1 == 0):
            raise ValueError(f"dimension must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))     # JSON 2.0 is d = 2
        if self.n_depth < self.d // 2 + 1:
            raise ValueError("n_depth must be at least floor(d/2)+1")

    def __call__(self, t, xi):
        return self.eval(t, np.asarray(xi, dtype=float))

    @property
    def time_dependent(self):
        """True when psi depends on t, that is when it carries a primitive."""
        return self.primitive is not None


def sum_in_order(x):
    """Sum of x over its last axis, the entries added in index order.

    For fewer than 8 entries np.sum adds in this order too, bit for bit,
    but over a short trailing axis it reduces one row at a time, many
    times slower; past 8 entries it adds pairwise.
    """
    acc = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        acc += x[..., i]
    return acc


def _radius(xi):
    return np.sqrt(sum_in_order(np.square(xi)))


# ---------------------------------------------------------------------------
# builtin symbols


def power_symbol(gamma=2.0, d=1):
    """psi(xi) = |xi|^gamma, the canonical class-M symbol."""
    def ev(t, xi):
        return _radius(xi) ** gamma
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * gamma + 2.0,
                      n_depth=4, d=d, name="power", params={"gamma": gamma})


def power_exp_symbol(a=1.0, b=1.0, gamma=2.0, d=1):
    """psi(xi) = |xi|^gamma (a + b exp(-|xi|^gamma)); class M with kappa=a."""
    def ev(t, xi):
        r = _radius(xi) ** gamma
        return r * (a + b * np.exp(-r))
    mu = 2.0 * (a + b) * (gamma + 1.0) ** 2
    return SymbolSpec(eval=ev, gamma=gamma, kappa=a, mu=mu,
                      n_depth=4, d=d,
                      name="power_exp", params={"a": a, "b": b, "gamma": gamma})


def heat_symbol(gamma=2.0, scale=1.0, d=1):
    """psi(t, xi) = -scale |xi|^gamma; time-independent class-S symbol."""
    def ev(t, xi):
        return -scale * _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=scale, mu=scale * (2.0 * gamma + 2.0),
                      n_depth=4, d=d,
                      name="heat", params={"gamma": gamma, "scale": scale})


def oscillating_heat_symbol(gamma=2.0, d=1):
    """psi(t, xi) = -(1 + sin^2 t) |xi|^gamma; time-dependent class S.

    The time factor stays in [1, 2], so kappa = 1 and the derivative
    constants are twice the heat case.  Its primitive is exact:
    int_0^t (1 + sin^2 r) dr = 3t/2 - sin(2t)/4.
    """
    def ev(t, xi):
        return -(1.0 + np.sin(t) ** 2) * _radius(xi) ** gamma + 0j

    def prim(t, xi):
        return -(1.5 * t - 0.25 * np.sin(2.0 * t)) * _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * (2.0 * gamma + 2.0),
                      n_depth=4, d=d, primitive=prim,
                      name="heat_osc", params={"gamma": gamma})


def wrong_sign_symbol(gamma=2.0, d=1):
    """psi(t, xi) = +|xi|^gamma; deliberately violates the class-S sign."""
    def ev(t, xi):
        return _radius(xi) ** gamma + 0j
    return SymbolSpec(eval=ev, gamma=gamma, kappa=1.0, mu=2.0 * gamma + 2.0,
                      n_depth=4, d=d, name="wrong_sign", params={"gamma": gamma})


def exp_symbol(d=1):
    """psi(xi) = exp(|xi|); positive but with unbounded derivative constants."""
    def ev(t, xi):
        with np.errstate(over="ignore"):
            return np.exp(_radius(xi))
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, d=d, name="exp")


def constant_symbol(c=1.0, d=1):
    def ev(t, xi):
        return np.full(np.shape(xi)[:-1], c, dtype=complex)
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1e-12 if c == 0 else abs(c), mu=max(abs(c), 1e-12),
                      n_depth=4, d=d, name="constant", params={"c": c}, at_zero=c)


def m1_symbol(phi: SymbolSpec, s: float):
    """m1(xi) = (1 + phi(xi))^{-s} for a class-M symbol phi and s >= 0."""
    def ev(t, xi):
        return (1.0 + np.real(phi.eval(0.0, xi))) ** (-s)
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, d=phi.d,
                      name="m1", params={"s": s, "phi": phi.name}, at_zero=1.0)


def m2_symbol(phi: SymbolSpec, psi: SymbolSpec, t_exp: float, s_exp: float):
    """m2(xi) = phi(xi)^t / (1 + psi(xi))^s with s >= t >= 0."""
    def ev(t, xi):
        num = np.real(phi.eval(0.0, xi)) ** t_exp
        return num / (1.0 + np.real(psi.eval(0.0, xi))) ** s_exp
    at0 = 1.0 if t_exp == 0 else 0.0
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, d=phi.d,
                      name="m2", params={"t": t_exp, "s": s_exp}, at_zero=at0)


def m3_symbol(phi: SymbolSpec, psi: SymbolSpec, t_exp: float, s_exp: float):
    """m3(xi) = (1 + phi(xi))^t / (1 + psi(xi)^s) with s >= t >= 0."""
    def ev(t, xi):
        num = (1.0 + np.real(phi.eval(0.0, xi))) ** t_exp
        return num / (1.0 + np.real(psi.eval(0.0, xi)) ** s_exp)
    at0 = 1.0 if s_exp > 0 else 0.5
    return SymbolSpec(eval=ev, gamma=phi.gamma, kappa=phi.kappa, mu=phi.mu,
                      n_depth=phi.n_depth, d=phi.d,
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
                      n_depth=4, d=d,
                      name="product_power", params={"a": list(a_exps)}, at_zero=0.0)


def log_symbol(d=1):
    """m(xi) = log(1 + |xi|), unbounded (fails every multiplier condition)."""
    def ev(t, xi):
        return np.log1p(_radius(xi))
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, d=d, name="log1p", at_zero=0.0)


def coordinate_symbol(i=0, d=2):
    """m(xi) = xi_i, unbounded."""
    def ev(t, xi):
        return xi[..., i] + 0.0
    return SymbolSpec(eval=ev, gamma=1.0, kappa=1.0, mu=1.0,
                      n_depth=4, d=d, name="coordinate", params={"i": i}, at_zero=0.0)


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


def dyadic_samples(d):
    """Return (radii, points) with points of shape (n_levels, n_dirs, d).

    Radii are 2^DYADIC_LO ... 2^DYADIC_HI; directions avoid xi = 0 and the
    coordinate hyperplanes, where the symbols may be non-smooth or undefined.
    """
    radii = 2.0 ** np.arange(DYADIC_LO, DYADIC_HI + 1, dtype=float)
    dirs = dyadic_directions(d)
    return radii, radii[:, None, None] * dirs[None, :, :]


_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}


def fd_partial(fun, xi, alpha):
    """Central finite-difference mixed partial d^alpha fun at points xi.

    xi has shape (N, d); alpha is a per-axis order tuple with entries in
    {0, 1, 2}. The step is _FD_REL_STEP * |xi| per coordinate, which keeps
    homogeneous quantities scale free.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    d = xi.shape[-1]
    if len(alpha) != d:
        raise ValueError("alpha length must match dimension")
    if any(a not in _STENCILS for a in alpha):
        raise ValueError("per-axis derivative order must be 0, 1 or 2")
    h = _FD_REL_STEP * _radius(xi)[..., None]
    acc = None
    for combo in itertools.product(*(_STENCILS[a] for a in alpha)):
        offsets = np.array([c[0] for c in combo])
        weight = np.prod([c[1] for c in combo])
        vals = fun(xi + offsets * h)
        acc = weight * vals if acc is None else acc + weight * vals
    order = sum(alpha)
    return acc / h[..., 0] ** order if order else acc


def _multi_indices(d, max_total):
    """Per-axis orders 0..2 of total at most max_total, by total order."""
    out = [alpha for alpha in itertools.product(range(3), repeat=d)
           if sum(alpha) <= max_total]
    return sorted(out, key=sum)


def _cumulative_stable(per_level_sup):
    """True when the running sup over dyadic levels has stopped growing."""
    cum = np.maximum.accumulate(per_level_sup)
    if not np.isfinite(cum[-1]):
        return False
    if len(cum) <= STABILITY_LAG:
        return True
    return cum[-1] <= max(cum[-1 - STABILITY_LAG] * STABILITY_RATIO,
                          _STABILITY_FLOOR)


def _scan(m: SymbolSpec, alpha, points, weights):
    """Sum over the node axis of weights * |d^alpha m| at points (..., nodes,
    d), from one fd_partial call.  np.nan_to_num reads a NaN derivative as
    inf, and an inf as the largest float, before the weights multiply."""
    der = fd_partial(lambda p: m.eval(0.0, p), points.reshape(-1, m.d), alpha)
    der = np.nan_to_num(np.abs(der), nan=np.inf).reshape(points.shape[:-1])
    return np.sum(der * weights, axis=-1)


def _first_max(vals, alpha, points, worst, worst_loc):
    """(worst, worst_loc) after the scan vals at points: its first largest
    value, at that point set's first node, if strictly above worst."""
    i = int(np.argmax(vals))
    if vals.flat[i] > worst:
        at = points.reshape(vals.size, -1, points.shape[-1])[i, 0]
        return float(vals.flat[i]), (alpha, at)
    return worst, worst_loc


def _report(name, worst, worst_loc, tracks, samples, **details):
    """Passed iff worst is finite and at most CAP and every running sup over
    the dyadic levels in tracks is stable."""
    stable = all(_cumulative_stable(t) for t in tracks)
    return MultiplierReport(
        condition_name=name, worst_constant=worst,
        worst_location=(worst_loc[0], worst_loc[1].tolist()),
        passed=bool(np.isfinite(worst) and worst <= CAP and stable),
        samples_used=samples, details={"stable": bool(stable), **details})


# ---------------------------------------------------------------------------
# checkers


def check_mihlin(m: SymbolSpec):
    """Mihlin-condition scan: sup |d^a m(xi)| |xi|^{|a|} for |a| <= floor(d/2)+1.

    Passed iff the constant is finite, at most CAP, and the running sup
    over increasing dyadic levels has stabilized (growth over the last
    four levels at most 10%). Unbounded symbols like xi_1 or log(1+|xi|)
    keep growing level over level and fail.  Each alpha is one scan of the
    dyadic points, one node each, weighted |xi|^{|alpha|}.
    """
    pts = dyadic_samples(m.d)[1][:, :, None, :]          # (n_lev, n_dir, 1, d)
    r = _radius(pts)
    depth = m.d // 2 + 1
    worst, worst_loc = -np.inf, None
    per_level = np.zeros(len(pts))
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha in _multi_indices(m.d, depth):
            scaled = _scan(m, alpha, pts, r ** sum(alpha))
            per_level = np.maximum(per_level, scaled.max(axis=1))
            worst, worst_loc = _first_max(scaled, alpha, pts, worst, worst_loc)
    return _report("mihlin", worst, worst_loc, [per_level], r.size,
                   depth=depth, per_level_sup=per_level.tolist())


def check_marcinkiewicz(m: SymbolSpec):
    """Rectangle-condition scan.

    For every nonempty coordinate subset S, integrates the mixed first
    partial |d_S m| over dyadic rectangles in the S coordinates (all sign
    patterns), with the remaining coordinates frozen at dyadic values, and
    takes the sup. Boundedness of m itself is scanned as well. The
    verdict combines finiteness, the cap, and running-sup stability over
    dyadic levels.  Each (S, rectangle) is one scan over every frozen
    value x sign pattern x Gauss-Legendre node; boundedness is the alpha = 0
    scan of the dyadic points.
    """
    d = m.d
    # level k is the rectangle side (2^k, 2^{k+1}]: its nodes and weights
    levels = np.arange(DYADIC_LO, DYADIC_HI, dtype=int)
    gl_x, gl_w = np.polynomial.legendre.leggauss(_RECT_NODES)
    lo, hi = 2.0 ** levels[:, None], 2.0 ** (levels[:, None] + 1)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gl_x            # (n_levels, nodes)
    node_wts = 0.5 * (hi - lo) * gl_w
    frozen = 2.0 ** np.arange(DYADIC_LO, DYADIC_HI + 1, 4, dtype=float)
    frozen = np.concatenate([frozen, -frozen])
    subsets = [S for k in range(1, d + 1) for S in itertools.combinations(range(d), k)]

    pts = dyadic_samples(d)[1][:, :, None, :]
    zero = (0,) * d
    with np.errstate(over="ignore", invalid="ignore"):
        sup = _scan(m, zero, pts, 1.0)
        worst, worst_loc = _first_max(sup, zero, pts, -np.inf, None)
        tracks, samples = [sup.max(axis=1)], sup.size
        for S in subsets:
            alpha = tuple(int(i in S) for i in range(d))
            free = [i for i in range(d) if i not in S]
            fixed = np.array(list(itertools.product(frozen, repeat=len(free))))
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(S))))
            grid = np.indices((_RECT_NODES,) * len(S)).reshape(len(S), -1)
            track = np.zeros(len(levels))
            for ks in itertools.product(range(len(levels)), repeat=len(S)):
                at = (np.array(ks)[:, None], grid)     # the rectangle's tensor nodes
                wts = np.prod(node_wts[at], axis=0)
                # (frozen values, sign patterns, nodes, d)
                p = np.empty((len(fixed), len(signs), grid.shape[1], d))
                p[..., list(S)] = signs[:, None, :] * nodes[at].T
                p[..., free] = fixed[:, None, None, :]
                integ = _scan(m, alpha, p, wts)
                samples += p.size // d
                track[max(ks)] = max(track[max(ks)], integ.max())
                worst, worst_loc = _first_max(integ, alpha, p, worst, worst_loc)
            tracks.append(track)
    return _report("marcinkiewicz", worst, worst_loc, tracks, samples,
                   per_level_sup=[t.tolist() for t in tracks])
