"""Independent oracles for the test suite.

Every golden value asserted by the tests is derived here through a route
different from the library's own (closed forms, generic scipy quadrature,
or brute-force simulation with a separate seed), so agreement is evidence
rather than tautology.
"""

import itertools
import tracemalloc

import numpy as np
from scipy import integrate, special

from spdelab import rng
from spdelab.covariance import cholesky_psd, cross_increments, increment_gram
from spdelab.gaussian import TIME_TOL, StepFunction
from spdelab.malliavin import ElementaryProcess, JointDesign
from spdelab.reports import MultiplierReport
from spdelab.solver import _quad_grid
from spdelab.spectral import (GridSpec, spatial_fft, symbol_cumulative_integrals,
                              symbol_on_grid)
from spdelab.symbols import (CAP, DYADIC_HI, DYADIC_LO, _RECT_NODES,
                             _cumulative_stable, _multi_indices, _radius,
                             dyadic_samples, fd_partial)
from spdelab.verify import _theta_grid

# ---------------------------------------------------------------------------
# covariance kernels


def fbm_R(H, t, s):
    return 0.5 * (abs(t) ** (2 * H) + abs(s) ** (2 * H) - abs(t - s) ** (2 * H))


def fbm_rectangle_quad(H, t0, t1, s0, s1):
    """Rectangle mass of the fbm density by adaptive quadrature (slow)."""
    c = H * (2 * H - 1)

    def inner(t):
        v, _ = integrate.quad(lambda s: c * abs(t - s) ** (2 * H - 2), s0, s1,
                              points=[t] if s0 < t < s1 else None, limit=200)
        return v
    v, _ = integrate.quad(inner, t0, t1, limit=200)
    return v


def heat_density(delta, u):
    return np.exp(-u * u / (4 * delta)) / np.sqrt(4 * np.pi * delta)


def heat_R_quad(delta, t, s):
    v, _ = integrate.dblquad(lambda y, x: heat_density(delta, x - y),
                             0, t, 0, s, epsabs=1e-12, epsrel=1e-12)
    return v


def bessel_density_closed(delta, u):
    """(sqrt(pi) Gamma(d/2))^{-1} (|u|/2)^{(d-1)/2} K_{(1-d)/2}(|u|)."""
    u = abs(u)
    c = 1.0 / (np.sqrt(np.pi) * special.gamma(delta / 2.0))
    return c * (u / 2.0) ** ((delta - 1.0) / 2.0) * special.kv((1.0 - delta) / 2.0, u)


def bessel_mass_quad(delta):
    v, _ = integrate.quad(lambda u: bessel_density_closed(delta, u),
                          0, np.inf, limit=300)
    return 2.0 * v


def rectangle_increment(kernel, int1, int2):
    """Inner product of the indicators of (a,b] and (c,d] under R."""
    a, b = int1
    c, d = int2
    if not (a <= b and c <= d):
        raise ValueError("intervals must be ordered")
    if min(a, c) < 0:
        raise ValueError("intervals must lie in [0, T]")
    R = kernel.R
    return float(R(b, d) - R(b, c) - R(a, d) + R(a, c))


# ---------------------------------------------------------------------------
# step functions


def truncate(h, tau):
    """The step function h times the indicator of (0, tau]."""
    if tau <= h.breakpoints[0]:
        return StepFunction(np.array([0.0, max(tau, TIME_TOL)]),
                            np.zeros((1, h.J)))
    keep = h.breakpoints < tau - TIME_TOL
    k = int(np.sum(keep[1:]))
    bp = np.concatenate([h.breakpoints[:k + 1], [tau]])
    return StepFunction(bp, h.coeffs[:k + 1].copy())


def l_r_norm(h, r):
    """The L^r([0,T]; U_0) norm of a step function (exact)."""
    mags = np.sqrt(np.sum(h.coeffs ** 2, axis=1))
    if np.isinf(r):
        return float(mags.max()) if len(mags) else 0.0
    return float(np.sum(mags ** r * np.diff(h.breakpoints)) ** (1.0 / r))


def abs_inner_H_U0(phi, psi, kernel):
    """The |H| inner product: the rectangle-increment sum with |values|.

    Only meaningful for kernels with nonnegative rectangle increments,
    which holds for all the builtins.
    """
    a = np.sqrt(np.sum(phi.coeffs ** 2, axis=1))
    b = np.sqrt(np.sum(psi.coeffs ** 2, axis=1))
    inc = cross_increments(kernel, phi.breakpoints, psi.breakpoints)
    return float(np.outer(a, b).ravel() @ inc.ravel())


# ---------------------------------------------------------------------------
# time integrals of symbols


def int_one_plus_sin_sq(t):
    """int_0^t (1 + sin^2 r) dr = 3t/2 - sin(2t)/4."""
    return 1.5 * t - 0.25 * np.sin(2.0 * t)


def simpson_rule(psi, t, s, grid, n_sub):
    """Composite Simpson with the classic 1, 4, 2, ..., 4, 1 weights."""
    nodes = s + (t - s) * np.arange(n_sub + 1) / n_sub
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (w * ((t - s) / (3.0 * n_sub))) @ symbol_on_grid(psi, nodes, grid)


# ---------------------------------------------------------------------------
# mild-solution mode answers


def forced_mode(psi_k, fhat_k, t):
    """u_hat(t) = fhat (1 - e^{psi t}) / (-psi) for constant forcing, u0=0."""
    if abs(psi_k) < 1e-14:
        return fhat_k * t
    return fhat_k * (1.0 - np.exp(psi_k * t)) / (-psi_k)


def ito_mode_variance(psi_k, ghat_sq, t):
    """E|int_0^t e^{psi(t-s)} g dB_s|^2 = |g|^2 (1 - e^{2 psi t}) / (-2 psi)."""
    if abs(psi_k) < 1e-14:
        return ghat_sq * t
    return ghat_sq * (1.0 - np.exp(2.0 * psi_k * t)) / (-2.0 * psi_k)


# ---------------------------------------------------------------------------
# mild solution, summed over every earlier node and subcell
#
# The library advances the solution one cell at a time; here every solution
# time gets its own exponentials against every earlier trapezoid node, or
# against every subcell through the masked (n_times-1, C, n_points) tensor.


def forced_trapezoid(problem):
    """Composite-trapezoid Duhamel integral of f, node by node."""
    grid, t = problem.grid, problem.times
    cums = symbol_cumulative_integrals(problem.psi, t, grid)
    f_hat = spatial_fft(problem.f, grid)
    out_hat = np.zeros((problem.n_times, problem.m, grid.n_points), dtype=complex)
    for i in range(1, problem.n_times):
        w = np.zeros(i + 1)
        w[0] = (t[1] - t[0]) / 2.0
        w[i] = (t[i] - t[i - 1]) / 2.0
        if i > 1:
            w[1:i] = (t[2:i + 1] - t[0:i - 1]) / 2.0
        mult = np.exp(cums[i][None, :] - cums[:i + 1])
        out_hat[i] = np.einsum("k,kp,kcp->cp", w, mult, f_hat[:i + 1])
    return spatial_fft(out_hat, grid, inverse=True)


def pathwise_full_spectrum(problem, dB):
    """The pathwise solution, homogeneous + forced + stochastic convolution,
    with every part on the complex full spectrum: the cell recurrences of
    the solver before it solved real fields on the half spectrum, driven by
    the beta increments dB (n, J, C) on the refined cells.
    (n, n_times, m, n_points) complex."""
    grid, times, n_sub = problem.grid, problem.times, problem.quad_refine
    cums = symbol_cumulative_integrals(problem.psi, times, grid)
    det_hat = np.exp(cums[:, None, :]) * spatial_fft(problem.u0.values, grid)[None]
    if problem.f is not None:
        f_hat = spatial_fft(problem.f, grid)
        half = np.diff(times) / 2.0
        forced = np.zeros_like(det_hat)
        for i in range(problem.n_times - 1):
            forced[i + 1] = (np.exp(cums[i + 1] - cums[i])
                             * (forced[i] + half[i] * f_hat[i])
                             + half[i] * f_hat[i + 1])
        det_hat += forced
    q_grid, _, mid_idx, sol_idx = _quad_grid(times, n_sub)
    q_cums = symbol_cumulative_integrals(problem.psi, q_grid, grid)
    g_hat = spatial_fft(problem.g, grid)
    out_hat = np.zeros((dB.shape[0],) + det_hat.shape, dtype=complex)
    for i in range(problem.n_times - 1):
        cell = slice(i * n_sub, (i + 1) * n_sub)
        top = q_cums[sol_idx[i + 1]]
        g_loc = np.exp(top - q_cums[mid_idx[cell]])[:, None, None, :] * g_hat[i]
        out_hat[:, i + 1] = (np.exp(top - q_cums[sol_idx[i]]) * out_hat[:, i]
                             + np.einsum("njc,cmjk->nmk", dB[:, :, cell], g_loc))
    return spatial_fft(out_hat + det_hat[None], grid, inverse=True)


def integrand_exponents(problem):
    """int_mid^t psi per (t_{i+1}, subcell, mode), -inf past t_{i+1}."""
    n_t, n_sub = problem.n_times, problem.quad_refine
    q_grid, _, mid_idx, sol_idx = _quad_grid(problem.times, n_sub)
    cums = symbol_cumulative_integrals(problem.psi, q_grid, problem.grid)
    expo = cums[sol_idx[1:], None, :] - cums[mid_idx][None, :, :]
    mask = np.arange(len(mid_idx))[None, :] < (np.arange(1, n_t) * n_sub)[:, None]
    return np.where(mask[:, :, None], expo, -np.inf)


def integrand_multipliers(problem):
    """exp(int_mid^t psi) per (t_{i+1}, subcell, mode), 0 past t_{i+1}."""
    return np.exp(integrand_exponents(problem))


def _g_subcells(problem):
    g_hat = spatial_fft(problem.g, problem.grid)
    return np.repeat(g_hat, problem.quad_refine, axis=0)     # (C, m, J, n_pts)


def pathwise_masked(problem, dB):
    """Riemann sums of the stochastic convolution with the full tensor,
    against the beta increments dB (n, J, C) on the refined cells."""
    grid = problem.grid
    Em = integrand_multipliers(problem)
    W = np.einsum("njc,cmjk->ncmk", dB, _g_subcells(problem), optimize=True)
    out_hat = np.zeros((dB.shape[0], problem.n_times, problem.m, grid.n_points),
                       dtype=complex)
    out_hat[:, 1:] = np.einsum("ick,ncmk->nimk", Em, W, optimize=True)
    return spatial_fft(out_hat, grid, inverse=True)


def modewise_masked(problem, n_samples, seed):
    """The modewise sampler with each mode's rows sliced from the tensor."""
    grid = problem.grid
    n_t, m, J = problem.n_times, problem.m, problem.q.J
    Em = integrand_multipliers(problem)
    g_sub = _g_subcells(problem)
    _, edges, _, _ = _quad_grid(problem.times, problem.quad_refine)
    ginc = increment_gram(problem.kernel, edges)
    rows = (n_t - 1) * m
    out_hat = np.zeros((n_samples, n_t, m, grid.n_points), dtype=complex)
    for k in range(grid.n_points):
        acc = np.zeros((rows, n_samples), dtype=complex)
        for j in range(J):
            A = (Em[:, None, :, k] * g_sub[None, :, :, j, k].transpose(0, 2, 1)
                 ).reshape(rows, -1)
            cov = A @ ginc @ A.conj().T
            if not np.any(cov):
                continue
            L = cholesky_psd(cov)
            z = rng.substream(seed, rng.CONV_MODEWISE, j, k).standard_normal(
                (2, rows, n_samples))
            acc += L @ ((z[0] + 1j * z[1]) / np.sqrt(2.0))
        out_hat[:, 1:, :, k] = acc.T.reshape(n_samples, n_t - 1, m)
    return spatial_fft(out_hat, grid, inverse=True)


def ensemble_summary_rows_full(ensemble):
    """The per-time summary rows from mean and variance over the whole
    ensemble at once (the library reduces one time slice at a time).
    At the first time, and at every time without noise, every sample is
    the same field and one is summarised.  Modewise has no sup-norm."""
    grid = ensemble.problem.grid
    samples = ensemble.samples[:1 if ensemble.problem.g is None else None]
    mean = np.mean(samples, axis=0)
    var = np.var(samples, axis=0)
    mean[0], var[0] = samples[0, 0], 0.0
    rows = []
    for i, t in enumerate(ensemble.problem.times):
        mf = np.sqrt(np.sum(np.abs(mean[i]) ** 2) * grid.cell_volume)
        tv = float(np.sum(np.real(var[i])) * grid.cell_volume)
        x = samples[:, i] if i else samples[:1, 0]
        ms = float(np.mean(np.max(np.abs(x), axis=(1, 2))))
        rows.append((float(t), float(mf), tv,
                     ms if ensemble.estimator == "pathwise" else None))
    return rows


# ---------------------------------------------------------------------------
# Skorohod integrals and elementary processes


def skorohod_integral(u, kernel, q, n_samples, seed):
    """delta(u) per draw, (n_samples, m): not an oracle but the library's
    own route, shared by the tests that compare its draws: one design, one
    draw, and the last node of its running integral."""
    design = JointDesign(u, kernel, q)
    delta = design.draw(int(n_samples), seed)
    return design.running_skorohod(
        delta, *design.functional_values(delta))[:, -1]


def scaled(u, c):
    """The elementary process c u: every k_i times c."""
    return ElementaryProcess([(F, c * k, phi) for F, k, phi in u.terms])


# ---------------------------------------------------------------------------
# Malliavin mixed norms, dense on the fine partition
#
# The library evaluates these on the process's own partition; here every
# cell of design.partition (breakpoints plus the sup-level times) is kept.


def u_cell_norms_fine(design, Fv):
    """(n, P): ||u_s|| per draw on every fine cell."""
    Phi = np.stack(design.phi_ref)
    sq = np.einsum("ni,nj,ij,ipk,jpk->np", Fv, Fv, design.k_gram, Phi, Phi,
                   optimize=True)
    return np.sqrt(np.maximum(sq, 0.0))


def du_cell_norms_fine(design, dv):
    """(n, P, P): ||D_theta u_s|| per draw on every fine cell pair."""
    H = np.stack(design.H_ref)
    Phi = np.stack(design.phi_ref)
    A = np.einsum("ipj,kpj->ikp", H, H)
    B = np.einsum("ipj,kpj->ikp", Phi, Phi)
    sq = np.einsum("ni,nk,ik,ikp,ikq->npq", dv, dv, design.k_gram, A, B,
                   optimize=True)
    return np.sqrt(np.maximum(sq, 0.0))


def mixed_norm_terms_fine(design, delta, p, q_exp, r_exp):
    """The two maximal-inequality rhs terms as Riemann sums on fine cells."""
    Fv, dv = design.functional_values(delta)
    cells = np.diff(design.partition)
    M = u_cell_norms_fine(design, Fv)
    term1 = np.mean(np.sum(M ** q_exp * cells, axis=1) ** (p / q_exp))
    N = du_cell_norms_fine(design, dv)
    inner = np.sum(N ** r_exp * cells[None, :, None], axis=1) ** (q_exp / r_exp)
    term2 = np.mean(np.sum(inner * cells, axis=1) ** (p / q_exp))
    return float(term1), float(term2)


def running_skorohod_whole_arrays(design, delta, Fv, dv):
    """JointDesign.running_skorohod with a new array per expression: per
    term, the cell sums, their cumulative sums, the scalar
    cum_b F_i - dF_i cum_w and its (n, P, m) product with k_i.  The
    library does the same operations in the same order in place, so the
    two agree bit for bit."""
    n = delta.shape[0]
    out = np.zeros((n, design.P + 1, design.process.m))
    for i, (_, k, _) in enumerate(design.process.terms):
        cell_b = np.einsum("pj,njp->np", design.phi_ref[i], delta)
        cum_b = np.cumsum(cell_b, axis=1)
        cell_w = np.sum(design.phi_ref[i] * (design.inc_gram @ design.H_ref[i]),
                        axis=1)
        cum_w = np.cumsum(cell_w)
        scal = cum_b * Fv[:, i:i + 1] - dv[:, i:i + 1] * cum_w[None, :]
        out[:, 1:, :] += scal[:, :, None] * k[None, None, :]
    return out


# ---------------------------------------------------------------------------
# operator checks, summed pair by pair
#
# The library folds the s-sums into a recurrence (G) and batched transforms
# (square function); here every (t, s) pair gets its own multiplier, its
# own exact cell integral and its own inverse transform.


def forcing_per_cell(f_fn, mids, X, theta):
    """A forcing cell by cell, one call per midpoint with a one-element time
    array, stacked: complex (n_cells, n_theta, m, n_points)."""
    return np.stack([np.asarray(f_fn(mids[i:i + 1], X, theta), dtype=complex)[0]
                     for i in range(len(mids))])


def lp_square_function_pairs(phi, psi, f_fn, p, q_exp, r_exp, levels,
                             a=0.0, b=1.0, box=2 * np.pi, n_theta=1):
    """[(lhs, rhs)] per level of the square-function check, pair by pair."""
    wpow = q_exp * phi.gamma / psi.gamma - 1.0
    theta, w_th = _theta_grid(n_theta)
    out = []
    for n, n_t in levels:
        grid = GridSpec(d=phi.d, n=int(n), L=box)
        edges = np.linspace(a, b, int(n_t) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = (b - a) / n_t
        fv = forcing_per_cell(f_fn, mids, grid.x_grid(), theta)
        f_hat = spatial_fft(fv, grid)
        phim = np.real(symbol_on_grid(phi, 0.0, grid))
        cums = symbol_cumulative_integrals(psi, mids, grid)
        lhs = 0.0
        for it in range(1, n_t):
            inner = np.zeros(grid.n_points)
            for isr in range(it):
                mult = phim * np.exp(cums[it] - cums[isr])
                lf = spatial_fft(mult * f_hat[isr], grid, inverse=True)
                hn2 = np.sum(np.abs(lf) ** 2, axis=1)          # (th, n_pts)
                th_int = np.sum(w_th * hn2 ** (r_exp / 2.0),
                                axis=0) ** (q_exp / r_exp)
                inner += dt * (mids[it] - mids[isr]) ** wpow * th_int
            lhs += dt * float(np.sum(inner ** (p / q_exp))) * grid.cell_volume
        rhs = 0.0
        for ic in range(n_t):
            xn = np.sum(np.sum(np.abs(fv[ic]) ** 2, axis=1) ** (p / 2.0),
                        axis=-1) * grid.cell_volume                    # (th,)
            rhs += dt * float(np.sum(w_th * xn ** (r_exp / p))) ** (p / r_exp)
        out.append((lhs, rhs))
    return out


def g_operator_pairs(phi, psi, f_fns, p, levels, a=0.0, b=1.0,
                     box=2 * np.pi):
    """[[(||G f||_p, ||f||_p) per forcing] per level], cell by cell.

    (G f)(t) sums the exact integral of phi e^{(t-s) psi} over each time
    cell up to t, clipped at t, against the cell value of f.
    """
    out = []
    for n, n_t in levels:
        grid = GridSpec(d=phi.d, n=int(n), L=box)
        edges = np.linspace(a, b, int(n_t) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = (b - a) / n_t
        phim = np.real(symbol_on_grid(phi, 0.0, grid)).astype(complex)
        psim = symbol_on_grid(psi, 0.0, grid)
        small = np.abs(psim) < 1e-14
        psim_safe = np.where(small, 1.0, psim)
        row = []
        for f_fn in f_fns:
            fv = forcing_per_cell(f_fn, mids, grid.x_grid(),
                                  np.array([0.5]))[:, 0]
            f_hat = spatial_fft(fv, grid)
            lhs_p = 0.0
            rhs_p = 0.0
            for it in range(n_t):
                t = mids[it]
                acc = np.zeros_like(f_hat[0])
                for ic in range(it + 1):
                    hi = min(edges[ic + 1], t)
                    lo = edges[ic]
                    coef = np.where(
                        small,
                        phim * (hi - lo),
                        phim / psim_safe * (np.exp((t - lo) * psim)
                                            - np.exp((t - hi) * psim)))
                    acc += coef * f_hat[ic]
                gf = spatial_fft(acc, grid, inverse=True)
                lhs_p += dt * float(np.sum(np.sum(np.abs(gf) ** 2, axis=0)
                                           ** (p / 2.0))) * grid.cell_volume
                rhs_p += dt * float(np.sum(np.sum(np.abs(fv[it]) ** 2, axis=0)
                                           ** (p / 2.0))) * grid.cell_volume
            row.append((lhs_p ** (1.0 / p), rhs_p ** (1.0 / p)))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Gaussian moment constants (standard normal Z, derived by Isserlis)
#
# E Z^4 = 3, E Z^6 = 15, E Z^8 = 105
# X = Z^2 - 1:  E X = 0, E X^2 = 2,
# E X^4 = E Z^8 - 4 E Z^6 + 6 E Z^4 - 4 E Z^2 + 1 = 105 - 60 + 18 - 4 + 1 = 60
# => Var(X^2) = 60 - 4 = 56

VAR_CHI2_CENTERED = 2.0
VAR_OF_SQUARED_CHI2_CENTERED = 56.0


# ---------------------------------------------------------------------------
# brute-force simulations


def sup_brownian_sq(times, n_samples, seed):
    """(mean, se) of E max_i B_{t_i}^2 by direct random-walk simulation.

    Standard Brownian increments on exactly the given nodes; independent
    of the library's sampling machinery (plain default_rng stream).
    """
    times = np.asarray(times, float)
    dt = np.diff(times)
    gen = np.random.default_rng(seed)
    vals = np.empty(n_samples)
    block = max(1, int(2e7) // max(1, len(dt)))
    for lo in range(0, n_samples, block):
        nb = min(block, n_samples - lo)
        z = gen.standard_normal((nb, len(dt))) * np.sqrt(dt)[None, :]
        b = np.cumsum(z, axis=1)
        if abs(times[0]) < 1e-12:
            b = np.concatenate([np.zeros((nb, 1)), b], axis=1)
        vals[lo:lo + nb] = np.max(b * b, axis=1)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_samples))


def wiener_quadratic_variance(n_samples, seed):
    """(mean, se) of (Z^2-1)^2 for standard normal Z: MC cross-check of 2/56."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(n_samples)
    x = (z * z - 1.0) ** 2
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(n_samples))


# ---------------------------------------------------------------------------
# multiplier conditions, one fd_partial call per point set
#
# The library scans every frozen value, sign pattern and node of a
# rectangle in one call; here each (frozen value, sign pattern) gets its own
# call and its own column-by-column point assembly.


def mihlin_loops(m):
    """check_mihlin with the points flattened and scaled after the call."""
    _, pts = dyadic_samples(m.d)
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
            per_level = np.maximum(per_level, scaled.max(axis=1))
            i = int(np.argmax(scaled))
            if scaled.flat[i] > worst:
                worst = float(scaled.flat[i])
                worst_loc = (alpha, flat[i])
    stable = _cumulative_stable(per_level)
    return MultiplierReport(
        condition_name="mihlin", worst_constant=worst,
        worst_location=(worst_loc[0], worst_loc[1].tolist()),
        passed=bool(np.isfinite(worst) and worst <= CAP and stable),
        samples_used=flat.shape[0],
        details={"stable": bool(stable), "depth": depth,
                 "per_level_sup": per_level.tolist()})


def marcinkiewicz_loops(m):
    """check_marcinkiewicz with one call per rectangle, frozen value and sign
    pattern; samples_used counts every point evaluated."""
    d = m.d
    levels = np.arange(DYADIC_LO, DYADIC_HI, dtype=int)
    gl_x, gl_w = np.polynomial.legendre.leggauss(_RECT_NODES)

    def f(p):
        return m.eval(0.0, p)

    radii, pts = dyadic_samples(d)
    flat = pts.reshape(-1, d)
    with np.errstate(over="ignore", invalid="ignore"):
        mvals = np.abs(np.asarray(f(flat)))
    sup_per_level = np.nan_to_num(mvals, nan=np.inf).reshape(len(radii), -1).max(axis=1)
    worst = float(np.max(sup_per_level))
    worst_loc = ((0,) * d, flat[int(np.argmax(mvals))])
    level_tracks = [sup_per_level]
    samples = flat.shape[0]

    subsets = [s for k in range(1, d + 1) for s in itertools.combinations(range(d), k)]
    fixed_vals = 2.0 ** np.arange(DYADIC_LO, DYADIC_HI + 1, 4, dtype=float)
    fixed_vals = np.concatenate([fixed_vals, -fixed_vals])
    with np.errstate(over="ignore", invalid="ignore"):
        for S in subsets:
            alpha = tuple(1 if i in S else 0 for i in range(d))
            free = [i for i in range(d) if i not in S]
            track = np.zeros(len(levels))
            for ks in itertools.product(levels, repeat=len(S)):
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
                        samples += p.shape[0]
                        der = np.abs(fd_partial(f, p, alpha))
                        integ = float(np.sum(np.nan_to_num(der, nan=np.inf) * wts))
                        li = int(max(ks) - DYADIC_LO)
                        track[li] = max(track[li], integ)
                        if integ > worst:
                            worst, worst_loc = integ, (alpha, p[0])
            level_tracks.append(track)
    stable = all(_cumulative_stable(t) for t in level_tracks)
    return MultiplierReport(
        condition_name="marcinkiewicz", worst_constant=worst,
        worst_location=(worst_loc[0], np.asarray(worst_loc[1]).tolist()),
        passed=bool(np.isfinite(worst) and worst <= CAP and stable),
        samples_used=samples,
        details={"stable": bool(stable),
                 "per_level_sup": [t.tolist() for t in level_tracks]})


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
