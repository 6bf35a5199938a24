"""Empirical ratio checkers for the inequalities in scope.

Every check reduces an inequality lhs <= C * rhs to a RatioReport: the
discretized lhs, the discretized rhs components, their ratio, and a
refinement trace.  Since only existence of the constants is asserted, a
check passes when the ratio is finite and stable under refinement; golden
values are frozen in the test suite, not here.
"""

from __future__ import annotations

import numpy as np

from .covariance import CovarianceKernel
from .errors import HypothesisViolationError
from .gaussian import TIME_TOL, QSpec, canonical_partition
from .malliavin import ElementaryProcess, JointDesign, mixed_norm_terms
from .reports import RatioReport, ratio_of
from .solver import SPDEProblem, real_components, solve
from .spectral import (GridSpec, bessel_multiplier, check_class_s_sign,
                       check_hermitian, multiplier_kernel, spatial_fft,
                       spatial_irfft, spatial_rfft, symbol_cumulative_integrals,
                       symbol_on_grid, symbol_time_integral)
from .symbols import SymbolSpec, sum_in_order

_DRAW_BLOCK = 2048    # draws per RNG substream block; fixes the sample stream
# half-spectrum complex values per square-function transform; bounds memory
_LP_BLOCK = 8192
# the kernel envelope: the s-derivative's central-difference step relative
# to tau, and the fit region |x| <= _ENVELOPE_INTERIOR * L
_ENVELOPE_FD_FRAC = 0.01
_ENVELOPE_INTERIOR = 0.5


def _lp_power(vals, grid, p, comp_axes):
    """Riemann sum of |v(x)|^p over the trailing grid axis, |.| over comp_axes."""
    return np.sum(np.sum(np.abs(vals) ** 2, axis=comp_axes) ** (p / 2.0),
                  axis=-1) * grid.cell_volume


# ---------------------------------------------------------------------------
# maximal inequality


def _coupled_partition(u: ElementaryProcess, sup_levels):
    """Each level's partition and the union partition of all of them.

    A level's partition holds the process's breakpoints, its `level`
    uniform cells, 0 and T.  A node of another level within TIME_TOL of a
    node already in the union is not added, so with nested levels the
    union is the finest level's partition, bit for bit.
    """
    fns = [s for F, _, phi in u.terms for s in (phi, *F.directions)]
    parts = [canonical_partition(
        fns, extra_times=(*np.linspace(0.0, u.T, int(lev) + 1), 0.0, u.T))
        for lev in sup_levels]
    union = max(parts, key=len)
    for part in parts:
        near = union[np.minimum(np.searchsorted(union, part - TIME_TOL),
                                len(union) - 1)]
        union = np.sort(np.concatenate(
            (union, part[np.abs(near - part) > TIME_TOL])))
    return parts, union


def _require_exponents(p, q_exp, r):
    """p >= q >= max(2, r), the hypothesis of every check with exponents."""
    if not (p >= q_exp >= max(2.0, r)):
        raise HypothesisViolationError(
            f"need p >= q >= max(2, r); got p={p}, q={q_exp}, r={r}")


def _se(s1, s2, n):
    """Standard errors of means from the running sums of x and x^2, n >= 2."""
    return np.sqrt(np.maximum(s2 - s1 * s1 / n, 0.0) / ((n - 1) * n))


def _maximal_block(design, nodes, nb, seed, block, p, q_exp, r):
    """One block of nb draws: the block's sums of sup^p, its square, the
    paired difference to the previous level and that one's square, each
    (levels,), and its two mixed-norm rhs terms."""
    delta = design.draw(nb, seed, block=block)
    Fv, dv = design.functional_values(delta)
    run = design.running_skorohod(delta, Fv, dv)              # (nb, P+1, m)
    sq = sum_in_order(np.multiply(run, run, out=run))         # (nb, P+1)
    sup = np.stack([np.max(sq[:, idx], axis=1) for idx in nodes]) \
        ** (p / 2.0)                                          # (levels, nb)
    diff = np.diff(sup, axis=0, prepend=sup[:1])
    sums = np.sum([sup, sup * sup, diff, diff * diff], axis=2)
    return (sums, *mixed_norm_terms(design, Fv, dv, p, q_exp, r))


def maximal_inequality_check(u: ElementaryProcess, kernel: CovarianceKernel,
                             q: QSpec, p, q_exp, n_samples, seed,
                             sup_levels=(64, 128, 256), name=None) -> RatioReport:
    """E sup_t ||int_0^t u dbeta||^p against the two mixed-norm rhs terms.

    Level `lev` takes the sup over the nodes of the canonical partition
    enriched with `lev` uniform cells, where the partial Skorohod sums are
    exact.  The levels are coupled: one design on the union of their
    partitions carries one draw and one running integral per block of
    draws, and each level takes its sup over its own nodes.  A node's
    running integral is the same random variable on every partition that
    holds it, so over nested levels the per-draw sup, and hence the lhs,
    is non-decreasing and the level-to-level drift carries no fresh Monte
    Carlo noise.  The rhs mixed norms are exact on the process's own
    partition and do not depend on the level.  Each level row reports
    `lhs_se`, the standard error of the lhs, and after the first,
    `lhs_diff_se`, the paired standard error of the lhs difference to the
    previous row.  Fewer than 2 draws have no standard error: ValueError.
    Needs p >= q_exp >= max(2, r), r = kernel.r_exp, else
    HypothesisViolationError.

    A block of `_DRAW_BLOCK` draws holds at its peak its increments
    (nb, J, P), one running integral (nb, P+1, m), which is squared in
    place, and two (nb, P) arrays; its arrays are freed before the next
    block draws.
    """
    r = float(kernel.r_exp)
    _require_exponents(p, q_exp, r)
    n = int(n_samples)
    if n < 2:
        raise ValueError(f"need n_samples >= 2 for a standard error; got {n}")
    parts, union = _coupled_partition(u, sup_levels)
    design = JointDesign(u, kernel, q, extra_times=union)
    nodes = [np.searchsorted(design.partition, part - TIME_TOL)
             for part in parts]
    # per level, running sums over draws of sup^p, of its square, of the
    # paired difference to the previous level and of that one's square
    sums = np.zeros((4, len(nodes)))
    t1_acc = t2_acc = 0.0
    for bi, lo in enumerate(range(0, n, _DRAW_BLOCK)):
        nb = min(_DRAW_BLOCK, n - lo)
        block_sums, t1, t2 = _maximal_block(design, nodes, nb, seed, bi, p,
                                            q_exp, r)
        sums += block_sums
        t1_acc += t1 * nb
        t2_acc += t2 * nb
    rhs = [t1_acc / n, t2_acc / n]
    denom = sum(rhs)
    lhs_se, diff_se = _se(*sums[:2], n), _se(*sums[2:], n)
    trace = []
    level_rows = []
    for li, lev in enumerate(sup_levels):
        lhs = float(sums[0, li] / n)
        ratio = ratio_of(lhs, denom)
        trace.append((float(lev), float(ratio)))
        level_rows.append({"level": int(lev), "lhs": lhs,
                           "lhs_se": float(lhs_se[li]), "rhs": list(rhs),
                           "ratio": float(ratio)})
        if li:
            level_rows[-1]["lhs_diff_se"] = float(diff_se[li])
    return RatioReport.make(
        name or f"maximal[{kernel.name}]", lhs, rhs,
        refinement_trace=trace, seed=int(seed), n_samples=int(n_samples),
        details={"p": p, "q": q_exp, "r": r, "levels": level_rows})


# ---------------------------------------------------------------------------
# Littlewood-Paley


def _theta_grid(n_theta):
    """Midpoint grid and weight on the unit theta-interval."""
    pts = (np.arange(n_theta) + 0.5) / n_theta
    return pts, 1.0 / n_theta


def _sample_time_slices(f_fn, mids, X, theta):
    """Stack f(t_c, x, theta) -> (n_cells, n_theta, m, n_points)."""
    rows = []
    for t in mids:
        v = np.asarray(f_fn(t, X, theta), dtype=complex)
        if v.ndim == 1:
            v = v[None, None, :]
        elif v.ndim == 2:
            v = v[:, None, :]
        rows.append(v)
    return np.stack(rows)


def lp_inequality_check(phi: SymbolSpec, psi: SymbolSpec, f_fn, p, q_exp,
                        r_exp, levels=((32, 16), (64, 32), (128, 64)),
                        a=0.0, b=1.0, box=2 * np.pi, n_theta=1,
                        name=None) -> RatioReport:
    """Space-time ratio for the square-function inequality.

    lhs: int_x int_t [ int_a^t (t-s)^{q g_phi/g_psi - 1}
         (int ||L_phi T_psi(t,s) f(s,.,theta)(x)||^r dtheta)^{q/r} ds ]^{p/q}
    rhs: int_t [ int (int ||f||^p dx)^{r/p} dtheta ]^{p/r}.
    Midpoint rule in t and s (s strictly below t), counting measure with
    weight 1/n_theta in theta; n_theta = 1 collapses to the scalar form.

    The multipliers must be Hermitian on the grid (spectral.check_hermitian
    on psi at the midpoints and on Re phi, so phi must be even), else
    SymbolClassError.  Then a real f has a real square function, and f
    runs on the half spectrum; a complex f goes as 2m real components
    (solver.real_components), which keeps the component norm.  For each t
    the earlier cells s where f is not exactly zero (a NaN cell counts)
    go through one inverse transform per block of `_LP_BLOCK` half-spectrum
    complex values, and the s-sum runs in order of s.  A skipped cell would
    add exactly +0.0: its transform is zero, 0^{r/2} = 0 and the weight
    (t-s)^{q g_phi/g_psi - 1} is finite, so the sum is the same bit for bit.
    The blocks bound the transient arrays, which would otherwise grow with
    n_t times the field size.  For a time-independent psi the multiplier
    depends only on the lag between the cells, so one row per lag is built.
    """
    _require_exponents(p, q_exp, r_exp)
    if r_exp < 1.0:    # r has a conjugate exponent only from 1 on
        raise HypothesisViolationError(f"need r >= 1; got r={r_exp}")
    wpow = q_exp * phi.gamma / psi.gamma - 1.0
    theta, w_th = _theta_grid(n_theta)
    trace = []
    lhs = rhs = 0.0
    for n, n_t in levels:
        grid = GridSpec(d=phi.d, n=int(n), L=box)
        edges = np.linspace(a, b, int(n_t) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = (b - a) / n_t
        X = grid.x_grid()
        check_hermitian(psi, check_class_s_sign(psi, mids, grid), grid)
        check_hermitian(phi, np.real(symbol_on_grid(phi, 0.0, grid)), grid)
        fv = _sample_time_slices(f_fn, mids, X, theta)
        fv = real_components(fv, 2, not np.any(fv.imag))
        f_hat = spatial_rfft(fv, grid)
        phim = np.real(symbol_on_grid(phi, 0.0, grid.half))
        cums = symbol_cumulative_integrals(psi, mids, grid.half)
        if not psi.time_dependent:
            # cums[0] = 0 and the exponent depends only on the lag it - s:
            # row k becomes the lag-k multiplier, built in place
            np.exp(cums, out=cums)
            cums *= phim
        rows = max(1, _LP_BLOCK // f_hat[0].size)
        # a cell whose forcing is exactly zero adds +0.0; NaN != 0 keeps it
        live = np.flatnonzero(np.any(f_hat.reshape(n_t, -1) != 0, axis=1))
        lhs = 0.0
        for it in range(1, n_t):
            inner = np.zeros(grid.n_points)
            below = live[:np.searchsorted(live, it)]
            for lo in range(0, len(below), rows):
                s = below[lo:lo + rows]
                if psi.time_dependent:
                    mult = phim * np.exp(cums[it] - cums[s])     # (block, half)
                else:
                    mult = cums[it - s]
                lf = spatial_irfft(mult[:, None, None] * f_hat[s], grid)
                hn2 = np.sum(lf * lf, axis=2)                # (block, th, n_pts)
                th_int = np.sum(w_th * hn2 ** (r_exp / 2.0),
                                axis=1) ** (q_exp / r_exp)
                terms = (dt * (mids[it] - mids[s]) ** wpow)[:, None] * th_int
                # a reduction over rows adds them one by one, in order of s
                inner = np.sum(np.vstack((inner, terms)), axis=0)
            lhs += dt * float(np.sum(inner ** (p / q_exp))) * grid.cell_volume
        rhs = 0.0
        for f_cell in fv:
            xn = _lp_power(f_cell, grid, p, comp_axes=1)                # (th,)
            rhs += dt * float(np.sum(w_th * xn ** (r_exp / p))) ** (p / r_exp)
        trace.append((float(n), float(ratio_of(lhs, rhs))))
    return RatioReport.make(
        name or "littlewood-paley", lhs, [rhs], refinement_trace=trace,
        details={"p": p, "q": q_exp, "r": r_exp, "n_theta": n_theta,
                 "weight_power": wpow})


# ---------------------------------------------------------------------------
# Bessel equivalence


def bessel_equivalence_check(phi: SymbolSpec, alpha, p, fields) -> dict:
    """Empirical sandwich constants for the lifted norm.

    For each field, ratio = ||(1+L_phi)^{a/2} u||_p / (||u||_p +
    ||L_phi^{a/2} u||_p); reports the min (C1_hat) and max (C2_hat).  Per
    field, one transform and one inverse of the two multipliers
    (1 + Re phi)^{a/2} and max(Re phi, 0)^{a/2}, stacked.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    ratios = []
    for u in fields:
        base = np.real(symbol_on_grid(phi, 0.0, u.grid))
        mults = np.stack((1.0 + base, np.maximum(base, 0.0))) ** (alpha / 2.0)
        lifted = spatial_fft(mults[:, None] * spatial_fft(u.values, u.grid),
                             u.grid, inverse=True)               # (2, m, n_pts)
        num, lphi = _lp_power(lifted, u.grid, p, comp_axes=1) ** (1.0 / p)
        den = _lp_power(u.values, u.grid, p, comp_axes=0) ** (1.0 / p) + lphi
        ratios.append(float(num / den) if den > 0 else np.nan)
    finite = [r for r in ratios if np.isfinite(r)]
    return {
        "name": f"bessel-equivalence[{phi.name},alpha={alpha}]",
        "alpha": float(alpha),
        "p": float(p),
        "ratios": ratios,
        "C1_hat": float(min(finite)) if finite else np.nan,
        "C2_hat": float(max(finite)) if finite else np.nan,
        "passed": bool(finite and len(finite) == len(ratios)),
    }


# ---------------------------------------------------------------------------
# the G operator


def _phi_exp_integral(h, phim, psim):
    """int_0^h phi e^{u psi} du per mode, exact; phi h where psi = 0."""
    small = np.abs(psim) < 1e-14
    return np.where(small, phim * h,
                    phim * np.expm1(h * psim) / np.where(small, 1.0, psim))


def g_operator_check(phi: SymbolSpec, psi: SymbolSpec, f_fns, p,
                     levels=((32, 16), (64, 32), (128, 64)),
                     a=0.0, b=1.0, box=2 * np.pi, name=None) -> RatioReport:
    """||G f||_p / ||f||_p with G f(t) = int_{-infty}^t L_phi T_psi(t,s) f(s) ds.

    Requires matching symbol orders.  The s-integral is exact per cell for
    piecewise-constant-in-time f (time-independent psi), which avoids the
    stiffness of naive quadrature on high modes.  With cell edges e_c,
    midpoints m_k = e_k + dt/2 and w(h) = int_0^h phi e^{u psi} du, cell
    c < k contributes phi/psi (e^{(m_k - e_c) psi} - e^{(m_k - e_{c+1}) psi})
    and m_k - e_{c+1} = m_{k-1} - e_c on a uniform grid, so the cell sum
    telescopes.  With F_k = sum_{c<=k} e^{(m_k - e_c) psi} f_c,
        F_k = e^{dt psi} F_{k-1} + e^{dt psi/2} f_k,
        (G f)_k = phi/psi (F_k - F_{k-1} - f_k) = w(dt) F_{k-1} + w(dt/2) f_k,
    exactly, including psi = 0 modes, where w(h) = phi h.  One step per
    time cell replaces the sum over the earlier cells; each (G f)_k
    overwrites f_k's spectrum, and one inverse transform per forcing per
    level brings them all back.  Needs p >= 2.  Each level's ratio is that
    of its worst forcing, the largest ratio or a non-finite one; the report
    takes the last level's worst forcing's lhs and rhs.
    """
    if not p >= 2.0:
        raise HypothesisViolationError(f"G check needs p >= 2; got p={p}")
    if abs(phi.gamma - psi.gamma) > 1e-12:
        raise HypothesisViolationError("operator check needs gamma_phi == gamma_psi")
    if psi.time_dependent:
        raise ValueError("exact cell integration needs time-independent psi")
    if not isinstance(f_fns, (list, tuple)):
        f_fns = [f_fns]
    if not f_fns or len(levels) == 0:
        raise ValueError("the G check needs a forcing and a level")
    trace = []
    for n, n_t in levels:
        grid = GridSpec(d=phi.d, n=int(n), L=box)
        edges = np.linspace(a, b, int(n_t) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = (b - a) / n_t
        X = grid.x_grid()
        check_class_s_sign(psi, mids, grid)
        phim = np.real(symbol_on_grid(phi, 0.0, grid))
        psim = symbol_on_grid(psi, 0.0, grid)
        decay, half = np.exp(dt * psim), np.exp(0.5 * dt * psim)
        carry = _phi_exp_integral(dt, phim, psim)
        own = _phi_exp_integral(0.5 * dt, phim, psim)
        level_ratio = 0.0
        for f_fn in f_fns:
            fv = _sample_time_slices(f_fn, mids, X, np.array([0.5]))[:, 0]
            f_hat = spatial_fft(fv, grid)
            F = np.zeros_like(f_hat[0])                             # F_{k-1}
            for k in range(n_t):
                gk = carry * F + own * f_hat[k]
                F = decay * F + half * f_hat[k]
                f_hat[k] = gk                       # f_hat[k] becomes (G f)_k
            gf = spatial_fft(f_hat, grid, inverse=True, out=f_hat)
            # the per-cell powers, added in order of k
            lhs = float(np.cumsum(dt * _lp_power(gf, grid, p, 1))[-1]) ** (1.0 / p)
            rhs = float(np.cumsum(dt * _lp_power(fv, grid, p, 1))[-1]) ** (1.0 / p)
            r = ratio_of(lhs, rhs)
            # the first forcing always counts (a ratio is >= 0), and no
            # finite ratio replaces a NaN one
            if r >= level_ratio or not np.isfinite(r):
                level_ratio = r
                worst = (lhs, [rhs])
        trace.append((float(n), float(level_ratio)))
    return RatioReport.make(name or "g-operator", worst[0], worst[1],
                            refinement_trace=trace,
                            details={"p": p, "n_functions": len(f_fns)})


# ---------------------------------------------------------------------------
# kernel envelope


def envelope_fields(phi: SymbolSpec, psi: SymbolSpec, tau, grid: GridSpec):
    """(|L_phi p|, |grad L_phi p|, |d/ds L_phi p|, periodic |x|) on the grid."""
    def lphi_kernel(t, s):
        mult = np.real(symbol_on_grid(phi, 0.0, grid)).astype(complex) \
            * np.exp(symbol_time_integral(psi, t, s, grid))
        return multiplier_kernel(mult, grid), mult

    k_vals, mult = lphi_kernel(tau, 0.0)
    freq = grid.freq_grid()
    grads = np.stack([multiplier_kernel(1j * freq[:, ax] * mult, grid)
                      for ax in range(grid.d)])
    h = _ENVELOPE_FD_FRAC * tau
    k_plus, _ = lphi_kernel(tau - h, 0.0)     # s -> s + h
    k_minus, _ = lphi_kernel(tau + h, 0.0)
    ds_vals = (k_plus - k_minus) / (2.0 * h)
    x = grid.x_grid()
    xper = np.minimum(x % grid.L, grid.L - (x % grid.L))
    xdist = np.sqrt(sum_in_order(xper ** 2))
    return (np.abs(k_vals), np.sqrt(np.sum(np.abs(grads) ** 2, axis=0)),
            np.abs(ds_vals), xdist)


def kernel_envelope_check(phi: SymbolSpec, psi: SymbolSpec, t_minus_s,
                          grid: GridSpec, var_tol=0.2) -> dict:
    """Fit the smallest constants in the three kernel envelope bounds.

    Each bound reads |field(x)| <= C min(|x|^-a, tau^{-a/gamma_psi}) with
    a = gamma_phi + d (kernel), + 1 (gradient), + gamma_psi (s-derivative).
    Reports C per tau and flags <= var_tol relative variation.  The fit runs
    on the interior |x| <= _ENVELOPE_INTERIOR * L = L/2; the box must be
    large enough that the kernel tail has decayed there, else periodic
    wrap-around contaminates the far field and the constants drift with tau.
    """
    check_class_s_sign(psi, [0.0, *t_minus_s], grid)
    d = grid.d
    exps = {
        "kernel": phi.gamma + d,
        "grad": phi.gamma + 1 + d,
        "ds": phi.gamma + psi.gamma + d,
    }
    consts = {k: [] for k in exps}
    sups = []
    for tau in t_minus_s:
        k_abs, g_abs, ds_abs, xdist = envelope_fields(phi, psi, float(tau), grid)
        keep = xdist <= _ENVELOPE_INTERIOR * grid.L
        fields = {"kernel": k_abs, "grad": g_abs, "ds": ds_abs}
        sups.append(float(np.max(k_abs)))
        for key, vals in fields.items():
            apow = exps[key]
            # in float64 a lag term beyond the float range is inf, and the
            # envelope is |x|^-a there; a Python float power would raise
            with np.errstate(divide="ignore", over="ignore"):
                env = np.minimum(
                    np.where(xdist[keep] > 0, xdist[keep] ** (-apow), np.inf),
                    np.float64(tau) ** (-apow / psi.gamma))
            consts[key].append(float(np.max(vals[keep] / env)))
    stable = {}
    for key, cs in consts.items():
        lo, hi = min(cs), max(cs)
        stable[key] = bool(np.isfinite(hi) and lo > 0
                           and hi / lo - 1.0 <= var_tol)
    return {
        "name": f"kernel-envelope[{phi.name},{psi.name}]",
        "taus": [float(t) for t in t_minus_s],
        "C_kernel": consts["kernel"],
        "C_grad": consts["grad"],
        "C_ds": consts["ds"],
        "sup_kernel": sups,
        "exponents": exps,
        "stable": stable,
        "passed": bool(all(stable.values())),
        "var_tol": var_tol,
    }


# ---------------------------------------------------------------------------
# a-priori solution estimate


def _lp_of_hat(values_hat, grid, p, comp_axes):
    """L^p norm from half-spectrum values, which it may overwrite: irfft
    then Riemann; (... batch dims)."""
    vals = spatial_irfft(values_hat, grid)
    return _lp_power(vals, grid, p, comp_axes) ** (1.0 / p)


def apriori_estimate_check(problem: SPDEProblem, phi: SymbolSpec, p, q_exp,
                           n_samples, seed, name=None) -> RatioReport:
    """Solution-space norm of the pathwise ensemble against the data norms.

    Needs p >= q_exp >= max(2, r), r = problem.kernel.r_exp, else
    HypothesisViolationError.  lhs sums the four L^p norm pieces of the
    solution space, at Bessel orders of phi (u at order 2 g_psi/g_phi,
    Du = L_psi u + f at order 0, Su = g at order 2 g_psi/(q' g_phi), and
    the initial value); rhs holds the three data norms.  Deterministic f
    and g make the g-norm Malliavin term vanish.  The norms are taken on
    the half spectrum, complex data as its real components
    (solver.real_components), and the ensemble's norms one slice of its
    time_slices() at a time, so neither the ensemble nor a transform of
    it is held whole.
    """
    pb = problem
    _require_exponents(p, q_exp, float(pb.kernel.r_exp))
    grid, half = pb.grid, pb.grid.half
    real = pb.real_data
    qprime = q_exp / (q_exp - 1.0)
    s_ratio = 2.0 * pb.psi.gamma / phi.gamma
    alpha_u = s_ratio
    alpha_g = 2.0 * pb.psi.gamma / (qprime * phi.gamma)
    alpha_0 = s_ratio * (1.0 - 1.0 / p)

    ens = solve(pb, int(n_samples), seed, estimator="pathwise")
    mu = bessel_multiplier(phi, half, alpha_u)
    psim = np.broadcast_to(symbol_on_grid(
        pb.psi, pb.times if pb.psi.time_dependent else 0.0, half),
        (pb.n_times, half.n_points))
    f_hat = None if pb.f is None else \
        spatial_rfft(real_components(pb.f, 1, real), grid)
    # per draw and time, ||u||_p at order alpha_u and ||Du||_p at order 0,
    # with Du = L_psi u + f
    norms_u = np.empty((ens.n_samples, pb.n_times))
    norms_du = np.empty_like(norms_u)
    for i, x in enumerate(ens.time_slices()):
        u_hat = spatial_rfft(real_components(x, 1, real), grid)
        norms_u[:, i] = _lp_of_hat(u_hat * mu, grid, p, comp_axes=1)
        u_hat *= psim[i]
        if f_hat is not None:
            u_hat += f_hat[i]
        norms_du[:, i] = _lp_of_hat(u_hat, grid, p, comp_axes=1)
    # E int_0^T ||.||^p (trapezoid in t, mean over draws)
    term_u = float(np.mean(np.trapezoid(norms_u ** p, pb.times, axis=1))) ** (1.0 / p)
    term_du = float(np.mean(np.trapezoid(norms_du ** p, pb.times, axis=1))) ** (1.0 / p)

    # Su = g at order alpha_g; deterministic g => exact step-in-time integral
    if pb.g is not None:
        mg = bessel_multiplier(phi, half, alpha_g)
        g_hat = spatial_rfft(real_components(pb.g, 1, real), grid)
        norms_g = _lp_of_hat(g_hat * mg, grid, p, comp_axes=(1, 2))  # (n_t-1,)
        term_g = float(np.sum(norms_g ** p * np.diff(pb.times))) ** (1.0 / p)
    else:
        term_g = 0.0

    u0_hat = spatial_rfft(real_components(pb.u0.values, 0, real), grid)
    m0 = bessel_multiplier(phi, half, alpha_0)
    term_0 = float(_lp_of_hat(u0_hat * m0, grid, p, comp_axes=0))

    if f_hat is not None:
        norms_f = _lp_of_hat(f_hat, grid, p, comp_axes=1)
        term_f = float(np.trapezoid(norms_f ** p, pb.times)) ** (1.0 / p)
    else:
        term_f = 0.0

    lhs = term_u + term_du + term_g + term_0
    rhs = [term_0, term_f, term_g]
    return RatioReport.make(
        name or f"apriori[{pb.kernel.name}]", lhs, rhs,
        refinement_trace=[(float(grid.n), ratio_of(lhs, sum(rhs)))],
        seed=int(seed), n_samples=int(n_samples),
        details={"term_u": term_u, "term_du": term_du, "term_g": term_g,
                 "term_u0": term_0, "term_f": term_f, "estimator": ens.estimator,
                 "alpha_u": alpha_u, "alpha_g": alpha_g, "alpha_0": alpha_0})


def apriori_refinement(problem_builder, phi, p, q_exp, levels, n_samples,
                       seed) -> RatioReport:
    """Run the a-priori check over (n, n_t) levels and combine the trace."""
    trace = []
    last = None
    for n, n_t in levels:
        rep = apriori_estimate_check(problem_builder(int(n), int(n_t)), phi,
                                     p, q_exp, n_samples, seed)
        trace.append((float(n), rep.ratio))
        last = rep
    return RatioReport.make(last.name, last.lhs, last.rhs_components,
                            refinement_trace=trace, seed=int(seed),
                            n_samples=int(n_samples), details=last.details)
