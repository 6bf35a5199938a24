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
from .reports import RatioReport
from .solver import SPDEProblem, solve
from .spectral import (GridSpec, apply_multiplier, bessel_norm,
                       check_class_s_sign, lp_norm, multiplier_kernel,
                       spatial_fft, symbol_cumulative_integrals,
                       symbol_on_grid, symbol_time_integral)
from .symbols import SymbolSpec

_DRAW_BLOCK = 2048    # draws per RNG substream block; fixes the sample stream
_LP_BLOCK = 8192      # complex values per square-function transform; bounds memory

_trapz = getattr(np, "trapezoid", None) or np.trapz


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


def _se(s1, s2, n):
    """Standard errors of means from the running sums of x and x^2."""
    with np.errstate(divide="ignore", invalid="ignore"):      # n = 1: nan
        return np.sqrt(np.maximum(s2 - s1 * s1 / n, 0.0) / ((n - 1) * n))


def maximal_inequality_check(u: ElementaryProcess, kernel: CovarianceKernel,
                             q: QSpec, p, q_exp, n_samples, seed,
                             sup_levels=(64, 128, 256), r_exp=None,
                             name=None) -> RatioReport:
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
    previous row.
    """
    r = float(kernel.r_exp) if r_exp is None else float(r_exp)
    if not (p >= q_exp >= max(2.0, r)):
        raise HypothesisViolationError(
            f"need p >= q >= max(2, r); got p={p}, q={q_exp}, r={r}")
    parts, union = _coupled_partition(u, sup_levels)
    design = JointDesign(u, kernel, q, extra_times=union)
    nodes = [np.searchsorted(design.partition, part - TIME_TOL)
             for part in parts]
    # per level, running sums over draws of sup^p, of its square, of the
    # paired difference to the previous level and of that one's square
    sums = np.zeros((4, len(nodes)))
    t1_acc = t2_acc = 0.0
    n = int(n_samples)
    for bi, lo in enumerate(range(0, n, _DRAW_BLOCK)):
        nb = min(_DRAW_BLOCK, n - lo)
        delta = design.draw(nb, seed, block=bi)
        sq = np.sum(design.running_skorohod(delta) ** 2, axis=2)   # (nb, P+1)
        sup = np.stack([np.max(sq[:, idx], axis=1) for idx in nodes]) \
            ** (p / 2.0)                                          # (levels, nb)
        diff = np.diff(sup, axis=0, prepend=sup[:1])
        sums += np.sum([sup, sup * sup, diff, diff * diff], axis=2)
        t1, t2 = mixed_norm_terms(design, delta, p, q_exp, r)
        t1_acc += t1 * nb
        t2_acc += t2 * nb
    rhs = [t1_acc / n, t2_acc / n]
    denom = sum(rhs)
    lhs_se, diff_se = _se(*sums[:2], n), _se(*sums[2:], n)
    trace = []
    level_rows = []
    for li, lev in enumerate(sup_levels):
        lhs = float(sums[0, li] / n)
        ratio = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
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

    For each t the earlier cells s go through one inverse transform per
    block of `_LP_BLOCK` complex values, and the s-sum runs in order of s.
    The blocks bound the transient arrays, which would otherwise grow with
    n_t times the field size.  For a time-independent psi the multiplier
    depends only on the lag between the cells, so one row per lag is built.
    """
    if not (p >= q_exp >= max(2.0, r_exp) and r_exp >= 1.0):
        raise HypothesisViolationError(
            f"need p >= q >= max(2, r) and r >= 1; got p={p}, q={q_exp}, "
            f"r={r_exp}")
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
        check_class_s_sign(psi, mids, grid)
        fv = _sample_time_slices(f_fn, mids, X, theta)
        f_hat = spatial_fft(fv, grid)
        phim = np.real(symbol_on_grid(phi, 0.0, grid))
        cums = symbol_cumulative_integrals(psi, mids, grid)
        if not psi.time_dependent:
            # cums[0] = 0 and the exponent depends only on the lag it - s:
            # row k becomes the lag-k multiplier, built in place
            np.exp(cums, out=cums)
            cums *= phim
        rows = max(1, _LP_BLOCK // f_hat[0].size)
        lhs = 0.0
        for it in range(1, n_t):
            inner = np.zeros(grid.n_points)
            for lo in range(0, it, rows):
                s = slice(lo, min(lo + rows, it))
                if psi.time_dependent:
                    mult = phim * np.exp(cums[it] - cums[s])     # (block, n_pts)
                else:
                    mult = cums[it - s.stop + 1:it - lo + 1][::-1]
                lf = spatial_fft(mult[:, None, None] * f_hat[s], grid,
                                 inverse=True)
                hn2 = np.sum(np.abs(lf) ** 2, axis=2)        # (block, th, n_pts)
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
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
        trace.append((float(n), float(ratio)))
    return RatioReport.make(
        name or "littlewood-paley", lhs, [rhs], refinement_trace=trace,
        details={"p": p, "q": q_exp, "r": r_exp, "n_theta": n_theta,
                 "weight_power": wpow})


# ---------------------------------------------------------------------------
# Bessel equivalence


def bessel_equivalence_check(phi: SymbolSpec, alpha, p, fields) -> dict:
    """Empirical sandwich constants for the lifted norm.

    For each field, ratio = ||(1+L_phi)^{a/2} u||_p / (||u||_p +
    ||L_phi^{a/2} u||_p); reports the min (C1_hat) and max (C2_hat).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    ratios = []
    for u in fields:
        base = np.real(symbol_on_grid(phi, 0.0, u.grid))
        num = bessel_norm(u, phi, alpha, p)
        mult = np.maximum(base, 0.0) ** (alpha / 2.0)
        den = lp_norm(u, p) + lp_norm(apply_multiplier(u, mult), p)
        ratios.append(num / den if den > 0 else np.nan)
    ratios = [float(r) for r in ratios]
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
    time cell replaces the sum over the earlier cells.  Needs p >= 2.
    """
    if not p >= 2.0:
        raise HypothesisViolationError(f"G check needs p >= 2; got p={p}")
    if abs(phi.gamma - psi.gamma) > 1e-12:
        raise HypothesisViolationError("operator check needs gamma_phi == gamma_psi")
    if psi.time_dependent:
        raise ValueError("exact cell integration needs time-independent psi")
    if not isinstance(f_fns, (list, tuple)):
        f_fns = [f_fns]
    trace = []
    worst = (0.0, [1.0])
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
            lhs_p = rhs_p = 0.0
            for k in range(n_t):
                gf = spatial_fft(carry * F + own * f_hat[k], grid, inverse=True)
                F = decay * F + half * f_hat[k]
                lhs_p += dt * _lp_power(gf, grid, p, comp_axes=0)
                rhs_p += dt * _lp_power(fv[k], grid, p, comp_axes=0)
            lhs = float(lhs_p) ** (1.0 / p)
            rhs = float(rhs_p) ** (1.0 / p)
            r = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
            if r >= level_ratio:
                level_ratio = r
                worst = (lhs, [rhs])
        trace.append((float(n), float(level_ratio)))
    return RatioReport.make(name or "g-operator", worst[0], worst[1],
                            refinement_trace=trace,
                            details={"p": p, "n_functions": len(f_fns)})


# ---------------------------------------------------------------------------
# kernel envelope


def envelope_fields(phi: SymbolSpec, psi: SymbolSpec, tau, grid: GridSpec,
                    fd_frac=0.01):
    """(|L_phi p|, |grad L_phi p|, |d/ds L_phi p|, periodic |x|) on the grid."""
    def lphi_kernel(t, s):
        mult = np.real(symbol_on_grid(phi, 0.0, grid)).astype(complex) \
            * np.exp(symbol_time_integral(psi, t, s, grid))
        return multiplier_kernel(mult, grid), mult

    k_vals, mult = lphi_kernel(tau, 0.0)
    freq = grid.freq_grid()
    grads = np.stack([multiplier_kernel(1j * freq[:, ax] * mult, grid)
                      for ax in range(grid.d)])
    h = fd_frac * tau
    k_plus, _ = lphi_kernel(tau - h, 0.0)     # s -> s + h
    k_minus, _ = lphi_kernel(tau + h, 0.0)
    ds_vals = (k_plus - k_minus) / (2.0 * h)
    x = grid.x_grid()
    xper = np.minimum(x % grid.L, grid.L - (x % grid.L))
    xdist = np.sqrt(np.sum(xper ** 2, axis=1))
    return (np.abs(k_vals), np.sqrt(np.sum(np.abs(grads) ** 2, axis=0)),
            np.abs(ds_vals), xdist)


def kernel_envelope_check(phi: SymbolSpec, psi: SymbolSpec, t_minus_s,
                          grid: GridSpec, var_tol=0.2,
                          interior_frac=0.5) -> dict:
    """Fit the smallest constants in the three kernel envelope bounds.

    Each bound reads |field(x)| <= C min(|x|^-a, tau^{-a/gamma_psi}) with
    a = gamma_phi + d (kernel), + 1 (gradient), + gamma_psi (s-derivative).
    Reports C per tau and flags <= var_tol relative variation.  The fit runs
    on the interior |x| <= interior_frac * L; the box must be large enough
    that the kernel tail has decayed there, else periodic wrap-around
    contaminates the far field and the constants drift with tau.
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
        keep = xdist <= interior_frac * grid.L
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


def _bessel_mult(phi, grid, alpha):
    base = np.real(symbol_on_grid(phi, 0.0, grid))
    return (1.0 + base) ** (alpha / 2.0)


def _lp_of_hat(values_hat, grid, p, comp_axes):
    """L^p norm from spectral values: ifft then Riemann; (... batch dims)."""
    vals = spatial_fft(values_hat, grid, inverse=True)
    return _lp_power(vals, grid, p, comp_axes) ** (1.0 / p)


def apriori_estimate_check(problem: SPDEProblem, n_samples, seed,
                           estimator="pathwise", name=None) -> RatioReport:
    """Solution-space norm of the computed ensemble against the data norms.

    lhs sums the four norm pieces of the solution space (u at order
    2 g_psi/g_phi, Du = L_psi u + f at order 0, Su = g at order
    2 g_psi/(q' g_phi), and the initial value); rhs holds the three data
    norms.  Deterministic f and g make the g-norm Malliavin term vanish.
    """
    if problem.phi is None:
        raise ValueError("a-priori check needs the Bessel-scale symbol phi")
    pb = problem
    grid, p, qe = pb.grid, pb.p, pb.q_exp
    qprime = qe / (qe - 1.0)
    s_ratio = 2.0 * pb.psi.gamma / pb.phi.gamma
    alpha_u = s_ratio
    alpha_g = 2.0 * pb.psi.gamma / (qprime * pb.phi.gamma)
    alpha_0 = s_ratio * (1.0 - 1.0 / p)

    ens = solve(pb, int(n_samples), seed, estimator=estimator)
    u_hat = spatial_fft(ens.samples, grid)

    # E int_0^T ||u||^p at order alpha_u (trapezoid in t, mean over draws)
    mu = _bessel_mult(pb.phi, grid, alpha_u)
    norms_u = _lp_of_hat(u_hat * mu, grid, p, comp_axes=2)       # (n, n_t)
    term_u = float(np.mean(_trapz(norms_u ** p, pb.times, axis=1))) ** (1.0 / p)

    # Du = L_psi u + f at order 0
    if pb.psi.time_dependent:
        psim = symbol_on_grid(pb.psi, pb.times, grid)[None, :, None, :]
    else:
        psim = symbol_on_grid(pb.psi, 0.0, grid)[None, None, None, :]
    du_hat = psim * u_hat
    if pb.f is not None:
        f_hat = spatial_fft(pb.f, grid)
        du_hat = du_hat + f_hat[None]
    norms_du = _lp_of_hat(du_hat, grid, p, comp_axes=2)
    term_du = float(np.mean(_trapz(norms_du ** p, pb.times, axis=1))) ** (1.0 / p)

    # Su = g at order alpha_g; deterministic g => exact step-in-time integral
    if pb.g is not None:
        mg = _bessel_mult(pb.phi, grid, alpha_g)
        g_hat = spatial_fft(pb.g, grid)
        norms_g = _lp_of_hat(g_hat * mg, grid, p, comp_axes=(1, 2))  # (n_t-1,)
        term_g = float(np.sum(norms_g ** p * np.diff(pb.times))) ** (1.0 / p)
    else:
        term_g = 0.0

    u0_hat = spatial_fft(pb.u0.values, grid)
    m0 = _bessel_mult(pb.phi, grid, alpha_0)
    term_0 = float(_lp_of_hat((u0_hat * m0)[None], grid, p, comp_axes=1)[0])

    if pb.f is not None:
        norms_f = _lp_of_hat(f_hat[None], grid, p, comp_axes=2)[0]
        term_f = float(_trapz(norms_f ** p, pb.times)) ** (1.0 / p)
    else:
        term_f = 0.0

    lhs = term_u + term_du + term_g + term_0
    rhs = [term_0, term_f, term_g]
    return RatioReport.make(
        name or f"apriori[{pb.kernel.name}]", lhs, rhs,
        refinement_trace=[(float(grid.n), lhs / sum(rhs) if sum(rhs) else 0.0)],
        seed=int(seed), n_samples=int(n_samples),
        details={"term_u": term_u, "term_du": term_du, "term_g": term_g,
                 "term_u0": term_0, "term_f": term_f, "estimator": estimator,
                 "alpha_u": alpha_u, "alpha_g": alpha_g, "alpha_0": alpha_0})


def apriori_refinement(problem_builder, levels, n_samples, seed,
                       estimator="pathwise", name=None) -> RatioReport:
    """Run the a-priori check over (n, n_t) levels and combine the trace."""
    trace = []
    last = None
    for n, n_t in levels:
        rep = apriori_estimate_check(problem_builder(int(n), int(n_t)),
                                     n_samples, seed, estimator=estimator)
        trace.append((float(n), rep.ratio))
        last = rep
    return RatioReport.make(name or last.name, last.lhs, last.rhs_components,
                            refinement_trace=trace, seed=int(seed),
                            n_samples=int(n_samples), details=last.details)
