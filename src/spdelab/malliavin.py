"""Cylinder functionals, their derivatives, and Skorohod integrals.

Everything here is closed-form modulo Monte Carlo: a cylinder functional is
a smooth scalar shape applied to the sum of finitely many Wiener integrals,
so its gradient is one scalar factor shared by all directions.  Elementary
processes u = sum_i F_i k_i phi_i(t) then have exact Skorohod integrals

    delta(u) = sum_i [beta(phi_i) F_i - D_{phi_i} F_i] k_i

once all the Wiener integrals are drawn jointly from one Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import rng as _rng
from .covariance import CovarianceKernel, cholesky_psd, increment_gram
from .errors import AlignmentError
from .gaussian import (QSpec, StepFunction, canonical_partition,
                       draw_increments)
from .symbols import sum_in_order

_SHAPES = ("polynomial", "exp_neg_square", "sine")


@dataclass(frozen=True)
class CylinderFunctional:
    """F = shape(beta(h_1) + ... + beta(h_n)).

    Restricting the smooth function to shape-of-sum keeps every partial
    derivative equal to shape'(sum), so gradients stay closed-form without
    any automatic differentiation.
    """

    shape: str
    directions: tuple            # StepFunction h_1, ..., h_n
    coeffs: tuple = ()           # ascending polynomial coefficients

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if len(self.directions) < 1:
            raise ValueError("need at least one direction")
        if self.shape == "polynomial" and len(self.coeffs) == 0:
            raise ValueError("polynomial shape needs coefficients")
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def value(self, y):
        y = np.asarray(y, dtype=float)
        if self.shape == "polynomial":
            return npoly.polyval(y, self.coeffs)
        if self.shape == "exp_neg_square":
            return np.exp(-y ** 2)
        return np.sin(y)

    def dvalue(self, y):
        """shape'(y); the common value of every partial derivative."""
        y = np.asarray(y, dtype=float)
        if self.shape == "polynomial":
            if len(self.coeffs) == 1:
                return np.zeros_like(y)
            return npoly.polyval(y, npoly.polyder(self.coeffs))
        if self.shape == "exp_neg_square":
            return -2.0 * y * np.exp(-y ** 2)
        return np.cos(y)


def constant_functional(direction: StepFunction, value=1.0) -> CylinderFunctional:
    """F identically equal to `value`; Malliavin derivative exactly zero."""
    return CylinderFunctional("polynomial", (direction,), (value,))


def linear_functional(direction: StepFunction) -> CylinderFunctional:
    """F = beta(h)."""
    return CylinderFunctional("polynomial", (direction,), (0.0, 1.0))


def sum_step(functions, partition=None) -> StepFunction:
    """Pointwise sum of step functions, exact on the canonical partition."""
    if partition is None:
        partition = canonical_partition(functions)
    coeffs = sum(sf.refine(partition) for sf in functions)
    return StepFunction(partition, coeffs)


@dataclass
class ElementaryProcess:
    """u(t) = sum_i F_i * k_i * phi_i(t), valued in R^m tensor U_0."""

    terms: list                  # of (CylinderFunctional, k: (m,) array, StepFunction)

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("need at least one term")
        norm = []
        m = None
        for F, k, phi in self.terms:
            k = np.atleast_1d(np.asarray(k, dtype=float))
            if m is None:
                m = len(k)
            elif len(k) != m:
                raise ValueError("all k_i must live in the same R^m")
            norm.append((F, k, phi))
        self.terms = norm

    @property
    def m(self):
        return len(self.terms[0][1])

    @property
    def T(self):
        return max(phi.T for _, _, phi in self.terms)

    def __add__(self, other):
        return ElementaryProcess(self.terms + other.terms)


class JointDesign:
    """One canonical partition + increment Gram for every Wiener integral in u.

    Drawing all of beta(phi_i) and beta(h_{i,l}) from the same increment
    vector keeps their correlations exact, which the Skorohod formula needs.

    Two partitions are kept.  The fine one (`partition`, with `inc_gram`,
    `phi_ref`, `H_ref`: every breakpoint plus `extra_times`) carries the
    draws and the running integral; it exists only so that the running sup
    is taken at the extra times.  The mixed norms live on the process's own
    partition (the `coarse_*` attributes: its breakpoints plus 0 and T), on
    which every integrand is constant, so they are exact there and do not
    grow with the fine one.
    """

    def __init__(self, process: ElementaryProcess, kernel: CovarianceKernel,
                 q: QSpec, extra_times=()):
        self.process = process
        self.kernel = kernel
        self.q = q
        fns = []
        for F, _, phi in process.terms:
            if phi.J != q.J or any(h.J != q.J for h in F.directions):
                raise AlignmentError(
                    "process step functions and QSpec disagree on J")
            fns.append(phi)
            fns.extend(F.directions)
        extra = tuple(extra_times) + (0.0, process.T)
        self.partition = canonical_partition(fns, extra_times=extra)
        self.inc_gram = increment_gram(kernel, self.partition)
        self.chol = cholesky_psd(self.inc_gram)
        self.P = len(self.partition) - 1
        self.phi_ref, self.H_ref = self._refined(self.partition)     # (I, P, J)
        coarse = canonical_partition(fns, extra_times=(0.0, process.T))
        self.coarse_widths = np.diff(coarse)
        self.coarse_phi, self.coarse_H = self._refined(coarse)       # (I, Pc, J)
        self.K = np.stack([k for _, k, _ in process.terms])        # (I, m)
        self.k_gram = self.K @ self.K.T
        self.ip_phi_phi = self._ip_matrix(self.phi_ref, self.phi_ref)
        self.ip_H_phi = self._ip_matrix(self.H_ref, self.phi_ref)

    def _refined(self, partition):
        """phi_i and H_i = sum_l h_{i,l} refined on `partition`, stacked over i."""
        terms = self.process.terms
        return (np.stack([phi.refine(partition) for _, _, phi in terms]),
                np.stack([sum_step(F.directions, partition).coeffs
                          for F, _, _ in terms]))

    def _ip_matrix(self, A, B):
        out = np.empty((len(A), len(B)))
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                out[i, j] = np.einsum("cj,dj,cd->", a, b, self.inc_gram)
        return out

    # -- sampling ----------------------------------------------------------

    def draw(self, n_samples, seed, block=0):
        """Joint increments Delta beta, shape (n_samples, J, P)."""
        return draw_increments(self.chol, self.q.J, n_samples, seed,
                               _rng.SKOROHOD, block)

    def beta(self, refined_coeffs, delta):
        """Wiener integral of a step function given by refined coefficients."""
        return np.einsum("pj,njp->n", refined_coeffs, delta)

    def functional_values(self, delta):
        """Arrays (n, I): F_i values and shape' values."""
        n = delta.shape[0]
        I = len(self.process.terms)
        Fv = np.empty((n, I))
        dv = np.empty((n, I))
        for i, (F, _, _) in enumerate(self.process.terms):
            y = self.beta(self.H_ref[i], delta)
            Fv[:, i] = F.value(y)
            dv[:, i] = F.dvalue(y)
        return Fv, dv

    # -- Skorohod ----------------------------------------------------------

    def running_skorohod(self, delta, Fv, dv):
        """Partial integrals delta(u 1_{(0,tau]}) at every partition node.

        Fv, dv are functional_values(delta).  Returns (n, P+1, m); node 0 is
        the zero integral and the last node delta(u) itself.  Exact at the
        nodes because truncating phi_i at a node keeps it a step function on
        the same partition.  Each term works in place in two (n, P) arrays,
        so beside delta and the result nothing larger is held; the result
        is the caller's to overwrite (it may square it in place).
        """
        n = delta.shape[0]
        out = np.zeros((n, self.P + 1, self.process.m))
        scal, tmp = np.empty((n, self.P)), np.empty((n, self.P))
        for i, (_, k, _) in enumerate(self.process.terms):
            np.einsum("pj,njp->np", self.phi_ref[i], delta, out=scal)
            np.cumsum(scal, axis=1, out=scal)
            cell_w = np.sum(self.phi_ref[i] * (self.inc_gram @ self.H_ref[i]), axis=1)
            cum_w = np.cumsum(cell_w)
            # scal = cum_b * F_i - dF_i * cum_w, then out += scal * k
            scal *= Fv[:, i:i + 1]
            scal -= np.multiply(dv[:, i:i + 1], cum_w[None, :], out=tmp)
            for c, kc in enumerate(k):
                out[:, 1:, c] += np.multiply(scal, kc, out=tmp)
        return out

    # -- per-draw norms ----------------------------------------------------

    def u_cell_norms(self, Fv):
        """(n, Pc): the K-tensor-U_0 norm of u per draw, on each cell of the
        process's own partition, where u is constant in time (the fine
        `partition` serves only the running sup)."""
        Phi = self.coarse_phi
        sq = np.einsum("ni,nj,ij,ipk,jpk->np", Fv, Fv, self.k_gram, Phi, Phi,
                       optimize=True)
        return np.sqrt(np.maximum(sq, 0.0))

    def du_cell_norms(self, dv):
        """(n, Pc_theta, Pc_s): norms of D_theta u_s per draw, on cell pairs
        of the process's own partition, where D_theta u_s is constant (the
        fine `partition` serves only the running sup)."""
        H, Phi = self.coarse_H, self.coarse_phi
        A = np.einsum("ipj,kpj->ikp", H, H)      # (I, I, Pc_theta)
        B = np.einsum("ipj,kpj->ikp", Phi, Phi)  # (I, I, Pc_s)
        sq = np.einsum("ni,nk,ik,ikp,ikq->npq", dv, dv, self.k_gram, A, B,
                       optimize=True)
        return np.sqrt(np.maximum(sq, 0.0))

    def h_norm_sq_u(self, Fv):
        """(n,): the plain K-tensor-H squared norm of u per draw (exact)."""
        return np.einsum("ni,nj,ij,ij->n", Fv, Fv, self.k_gram, self.ip_phi_phi)

    def trace_swap_term(self, dv):
        """(n,): <D u, S(D u)> per draw with exact inner products."""
        W = self.k_gram * self.ip_H_phi * self.ip_H_phi.T
        return np.einsum("ni,nj,ij->n", dv, dv, W)


@dataclass
class SkorohodReport:
    """Paired Monte-Carlo comparison of the second-moment identity."""

    name: str
    lhs: float
    rhs_components: list
    z_score: float
    passed: bool
    n_samples: int
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def rhs(self):
        return float(sum(self.rhs_components))

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs_components": list(self.rhs_components),
            "rhs": self.rhs,
            "z_score": self.z_score,
            "passed": bool(self.passed),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "details": self.details,
        }


def skorohod_moment_check(u: ElementaryProcess, kernel, q: QSpec, n_samples,
                          seed, name="skorohod-moment") -> SkorohodReport:
    """E ||delta(u)||^2 versus E ||u||^2_{K x H} + E <Du, S(Du)>, paired.

    Fewer than 2 draws have no standard error: ValueError.
    """
    n = int(n_samples)
    if n < 2:
        raise ValueError(f"need n_samples >= 2 for a standard error; got {n}")
    design = JointDesign(u, kernel, q)
    delta = design.draw(n, seed)
    Fv, dv = design.functional_values(delta)
    A = sum_in_order(design.running_skorohod(delta, Fv, dv)[:, -1] ** 2)
    B = design.h_norm_sq_u(Fv)
    C = design.trace_swap_term(dv)
    diff = A - B - C
    mean = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(len(diff)))
    if se < 1e-14:
        z = 0.0 if abs(mean) <= 1e-12 else np.inf
    else:
        z = abs(mean) / se
    return SkorohodReport(
        name=name,
        lhs=float(np.mean(A)),
        rhs_components=[float(np.mean(B)), float(np.mean(C))],
        z_score=float(z),
        passed=bool(z <= 4.0),
        n_samples=n,
        seed=int(seed),
        details={"kernel": kernel.name, "paired_se": se},
    )


def mixed_norm_terms(design: JointDesign, Fv, dv, p, q_exp, r_exp):
    """The two right-hand terms of the maximal inequality, per draw then meaned.

    Returns (E (int ||u||^q ds)^{p/q},
             E (int (int ||D_theta u_s||^r dtheta)^{q/r} ds)^{p/q})
    from the design's functional_values (Fv, dv) of the draws; time
    integrals are exact piecewise sums over the process's own partition.
    """
    cells = design.coarse_widths
    M = design.u_cell_norms(Fv)                       # (n, Pc)
    term1 = np.mean(np.sum(M ** q_exp * cells[None, :], axis=1) ** (p / q_exp))
    if not np.any(dv):
        # deterministic integrand: D u = 0, so the second term is exactly 0
        return float(term1), 0.0
    N = design.du_cell_norms(dv)                      # (n, Pc_theta, Pc_s)
    inner = np.sum(N ** r_exp * cells[None, :, None], axis=1) ** (q_exp / r_exp)
    term2 = np.mean(np.sum(inner * cells[None, :], axis=1) ** (p / q_exp))
    return float(term1), float(term2)
