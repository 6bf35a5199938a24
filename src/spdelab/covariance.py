"""Temporal covariance kernels R(t, s), their increments and Gram factors.

The reproducing-kernel inner products of step functions only ever need
rectangle increments of R,

    inc((a,b], (c,d]) = R(b,d) - R(b,c) - R(a,d) + R(a,c),

which stay exact even when the density d^2 R / dt ds is a Dirac mass
(independent-increment case) or blows up on the diagonal (fractional and
Bessel-type kernels). For the stationary-density kernels we therefore
build R from the even second antiderivative F2 of the density,
R(t,s) = F2(t) + F2(s) - F2(t-s), so increments cost four evaluations.

Builtins:
  wiener        R = min(t,s); K_R is the identity.
  fbm(H)        R = (t^{2H} + s^{2H} - |t-s|^{2H})/2, 1/2 < H < 1;
                density H(2H-1)|t-s|^{2H-2}; exponents (1/H, 1/(1-H)).
  linear        R = t s (paths are t X); density 1; exponents (1, inf).
  bessel(delta) stationary density with a |t|^{delta-1} diagonal
                singularity, 0 < delta < 1; exponents (2/(delta+1), conj).
  heat(delta)   smooth Gaussian density of bandwidth delta; exponents
                default (2, 2) with C_R = ||density||_{L^1} = 1.

The heat and Bessel builders, the only users of scipy, import it when
called, so that importing spdelab does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KernelValidityError

JITTER_LADDER = (1e-14, 1e-12, 1e-10)


@dataclass
class CovarianceKernel:
    name: str
    R: callable                      # vectorized (t, s) -> real
    density: callable | None         # vectorized (t, s) -> real, or None
    r_exp: float
    s_exp: float
    C_R: float | None                # None means "unset"
    singular_density: bool
    params: dict = field(default_factory=dict)
    kr_kind: str = "integral"        # identity | linear | fbm | integral
    F1: callable | None = None       # odd antiderivative of the stationary density

    def __post_init__(self):
        ri = 0.0 if np.isinf(self.r_exp) else 1.0 / self.r_exp
        si = 0.0 if np.isinf(self.s_exp) else 1.0 / self.s_exp
        if abs(ri + si - 1.0) > 1e-12:
            raise ValueError("r_exp and s_exp must be conjugate")


def _conjugate(r):
    if r == 1.0:
        return np.inf
    return r / (r - 1.0)


def builtin_kernel(name, **params):
    """Construct one of the builtin kernels by name.

    wiener | fbm (H) | linear | bessel (delta) | heat (delta). An optional
    r_exp overrides the default exponent pair where the kernel admits a
    family of them (wiener, heat).
    """
    if name == "wiener":
        r = float(params.pop("r_exp", 2.0))
        if params:
            raise ValueError(f"unexpected params {params}")
        return CovarianceKernel(
            name="wiener", R=lambda t, s: np.minimum(t, s), density=None,
            r_exp=r, s_exp=_conjugate(r), C_R=1.0, singular_density=True,
            kr_kind="identity")

    if name == "fbm":
        H = float(params.pop("H"))
        if params:
            raise ValueError(f"unexpected params {params}")
        if not 0.5 < H < 1.0:
            raise ValueError("fbm requires 1/2 < H < 1 (H <= 1/2 unsupported)")

        def R(t, s):
            t, s = np.asarray(t, float), np.asarray(s, float)
            return 0.5 * (np.abs(t) ** (2 * H) + np.abs(s) ** (2 * H)
                          - np.abs(t - s) ** (2 * H))

        def density(t, s):
            with np.errstate(divide="ignore"):
                return H * (2 * H - 1) * np.abs(np.asarray(t, float)
                                                - np.asarray(s, float)) ** (2 * H - 2)

        return CovarianceKernel(
            name="fbm", R=R, density=density, r_exp=1.0 / H, s_exp=1.0 / (1.0 - H),
            C_R=None, singular_density=True, params={"H": H}, kr_kind="fbm")

    if name == "linear":
        if params:
            raise ValueError(f"unexpected params {params}")
        return CovarianceKernel(
            name="linear", R=lambda t, s: np.asarray(t, float) * np.asarray(s, float),
            density=lambda t, s: np.ones(np.broadcast(t, s).shape),
            r_exp=1.0, s_exp=np.inf, C_R=1.0, singular_density=False,
            kr_kind="linear",
            F1=lambda u: np.asarray(u, float))

    if name == "bessel":
        delta = float(params.pop("delta"))
        if params:
            raise ValueError(f"unexpected params {params}")
        if not 0.0 < delta < 1.0:
            raise ValueError("bessel requires 0 < delta < 1")
        r = 2.0 / (delta + 1.0)
        return _stationary_kernel("bessel", _bessel_pieces(delta), r_exp=r,
                                  C_R=None, singular=True, params={"delta": delta})

    if name == "heat":
        delta = float(params.pop("delta"))
        r = float(params.pop("r_exp", 2.0))
        if params:
            raise ValueError(f"unexpected params {params}")
        if not delta > 0:
            raise ValueError("heat requires delta > 0")
        # For the (2,2) pair the Young bound uses the L^1 norm of the
        # density, which is exactly 1.
        c_r = 1.0 if r == 2.0 else None
        return _stationary_kernel("heat", _heat_pieces(delta), r_exp=r,
                                  C_R=c_r, singular=False, params={"delta": delta})

    raise KeyError(f"unknown kernel {name!r}")


def _stationary_kernel(name, pieces, r_exp, C_R, singular, params):
    dens1, F1, F2 = pieces

    def R(t, s):
        t, s = np.asarray(t, float), np.asarray(s, float)
        return F2(t) + F2(s) - F2(t - s)

    def density(t, s):
        return dens1(np.asarray(t, float) - np.asarray(s, float))

    return CovarianceKernel(name=name, R=R, density=density, r_exp=r_exp,
                            s_exp=_conjugate(r_exp), C_R=C_R,
                            singular_density=singular, params=params,
                            kr_kind="integral", F1=F1)


def _heat_pieces(delta):
    from scipy import special

    c = 0.5 / np.sqrt(delta)

    def dens1(u):
        return np.exp(-(u * c) ** 2) / np.sqrt(4.0 * np.pi * delta)

    def F1(u):
        return 0.5 * special.erf(u * c)

    def F2(u):
        u = np.asarray(u, float)
        return 0.5 * u * special.erf(u * c) + np.sqrt(delta / np.pi) * (
            np.exp(-(u * c) ** 2) - 1.0)

    return dens1, F1, F2


def _bessel_pieces(delta, v_min=1e-8, v_max=60.0, panel_ratio=1.05, gl_nodes=16):
    """Closures for the Bessel-type stationary kernel.

    The density has a Macdonald-function closed form, but its antiderivatives
    do not, so F1 and the first-moment integral M1 are accumulated once over
    geometric Gauss-Legendre panels and evaluated through log-space cubic
    splines. Below v_min the exact power-law head of the density integrates
    analytically; above v_max the remaining mass is below double precision
    and F2 = u F1(u) - M1(u) continues linearly.
    """
    from scipy import special
    from scipy.interpolate import CubicSpline

    mu = 0.5 * (1.0 - delta)
    c = 1.0 / (np.sqrt(np.pi) * special.gamma(0.5 * delta))
    # dens(v) = a1 v^{delta-1} + a0 + O(v^{delta+1}) as v -> 0+
    a1 = c * special.gamma(mu) * 2.0 ** (-delta)
    a0 = 0.5 * c * special.gamma(-mu)

    def dens_abs(v):
        return c * (0.5 * v) ** (0.5 * (delta - 1.0)) * special.kv(mu, v)

    n_pan = int(np.ceil(np.log(v_max / v_min) / np.log(panel_ratio)))
    edges = v_min * (v_max / v_min) ** np.linspace(0.0, 1.0, n_pan + 1)
    gx, gw = np.polynomial.legendre.leggauss(gl_nodes)
    half = 0.5 * np.diff(edges)
    pts = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * gx
    wts = half[:, None] * gw
    dv = dens_abs(pts)
    f1_nodes = (a1 * v_min ** delta / delta + a0 * v_min
                + np.concatenate([[0.0], np.cumsum(np.sum(wts * dv, axis=1))]))
    m1_nodes = (a1 * v_min ** (delta + 1.0) / (delta + 1.0) + 0.5 * a0 * v_min ** 2
                + np.concatenate([[0.0], np.cumsum(np.sum(wts * pts * dv, axis=1))]))
    log_edges = np.log(edges)
    f1_spl = CubicSpline(log_edges, f1_nodes)
    m1_spl = CubicSpline(log_edges, m1_nodes)
    f1_inf, m1_inf = f1_nodes[-1], m1_nodes[-1]

    def _radial(u, head, spl, tail_value):
        a = np.abs(np.asarray(u, float))
        flat = a.ravel()
        out = np.full(flat.shape, tail_value)
        lo = flat < v_min
        mid = ~lo & (flat <= v_max)
        if np.any(lo):
            out[lo] = head(flat[lo])
        if np.any(mid):
            out[mid] = spl(np.log(flat[mid]))
        return out.reshape(a.shape)

    def dens1(u):
        a = np.abs(np.asarray(u, float))
        with np.errstate(divide="ignore"):
            out = dens_abs(a)
        return np.where(a > 0.0, out, np.inf)

    def F1(u):
        u = np.asarray(u, float)
        mag = _radial(u, lambda x: a1 * x ** delta / delta + a0 * x,
                      f1_spl, f1_inf)
        return np.sign(u) * mag

    def M1(u):
        return _radial(u, lambda x: a1 * x ** (delta + 1.0) / (delta + 1.0)
                       + 0.5 * a0 * x ** 2, m1_spl, m1_inf)

    def F2(u):
        a = np.abs(np.asarray(u, float))
        return a * F1(a) - M1(a)

    return dens1, F1, F2


# ---------------------------------------------------------------------------
# increments, Gram matrices, Cholesky


def gram_matrix(kernel: CovarianceKernel, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    T, S = np.meshgrid(times, times, indexing="ij")
    return np.asarray(kernel.R(T, S), dtype=float)


def cross_increments(kernel: CovarianceKernel, a, b) -> np.ndarray:
    """Rectangle increments of R between the cells of partitions a and b.

    Entry (i, j) is the inner product of the indicators of (a_i, a_{i+1}]
    and (b_j, b_{j+1}]; the result has shape (len(a) - 1, len(b) - 1).
    """
    T, S = np.meshgrid(a, b, indexing="ij")
    R = np.asarray(kernel.R(T, S), dtype=float)
    return R[1:, 1:] - R[1:, :-1] - R[:-1, 1:] + R[:-1, :-1]


def increment_gram(kernel: CovarianceKernel, times) -> np.ndarray:
    """Gram of the cell indicators of the partition `times` (M+1 nodes)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return cross_increments(kernel, times, times)


def cholesky_psd(mat: np.ndarray) -> np.ndarray:
    """Cholesky with a jitter ladder, tolerating exactly-zero variables.

    mat is one (n, n) matrix or a stack (..., n, n).  Rows whose diagonal
    entry is zero (a variance-zero variable such as a path value at t = 0)
    are removed before factoring and restored as zero rows.  The matrices
    of a stack with no zero on the diagonal are factored in one call; the
    others, and all of them if that call fails, go one at a time through
    the zero-row removal and the ladder, so each factor has the bits of a
    2-D call.  Failure after the full ladder raises KernelValidityError.
    """
    mat = np.asarray(mat)
    if not np.iscomplexobj(mat):
        mat = mat.astype(float)
    if mat.ndim == 2:
        return _cholesky_one(mat)
    flat = mat.reshape((-1,) + mat.shape[-2:])
    out = np.empty_like(flat)
    full = np.all(np.diagonal(flat, axis1=1, axis2=2) != 0.0, axis=1)
    if np.any(full):
        try:
            out[full] = _jittered_cholesky(flat[full], 0.0)
        except np.linalg.LinAlgError:
            full[:] = False
    for i in np.flatnonzero(~full):
        out[i] = _cholesky_one(flat[i])
    return out.reshape(mat.shape)


def _jittered_cholesky(sub, jit):
    """np.linalg.cholesky of sub + jit * trace(sub) * I, over a stack."""
    trace = np.real(np.trace(sub, axis1=-2, axis2=-1))[..., None, None]
    return np.linalg.cholesky(sub + jit * trace * np.eye(sub.shape[-1]))


def _cholesky_one(mat):
    n = mat.shape[0]
    keep = np.diag(mat) != 0.0
    sub = mat[np.ix_(keep, keep)]
    out = np.zeros((n, n), dtype=mat.dtype)
    if sub.size:
        chol = None
        for jit in (0.0,) + tuple(JITTER_LADDER):
            try:
                chol = _jittered_cholesky(sub, jit)
                break
            except np.linalg.LinAlgError:
                continue
        if chol is None:
            raise KernelValidityError("Gram matrix not PSD after jitter ladder")
        out[np.ix_(keep, keep)] = chol
    return out
