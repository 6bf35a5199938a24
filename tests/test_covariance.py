import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab.battery import kernel_battery
from spdelab.covariance import (
    apply_KR_cells,
    builtin_kernel,
    check_R2,
    cholesky_psd,
    cross_increments,
    gram_matrix,
    increment_gram,
    rectangle_increment,
    step_lp_norm,
)


def test_exponent_pairs():
    assert builtin_kernel("wiener").r_exp == 2.0
    k = builtin_kernel("fbm", H=0.75)
    assert k.r_exp == pytest.approx(1 / 0.75)
    assert k.s_exp == pytest.approx(1 / 0.25)
    assert builtin_kernel("linear").s_exp == np.inf
    assert builtin_kernel("bessel", delta=0.5).r_exp == pytest.approx(4 / 3)
    assert builtin_kernel("heat", delta=1.0).C_R == 1.0


def test_fbm_R_closed_form():
    k = builtin_kernel("fbm", H=0.75)
    assert k.R(1.0, 1.0) == pytest.approx(1.0)
    assert k.R(0.5, 1.0) == pytest.approx(oracles.fbm_R(0.75, 0.5, 1.0))


def test_fbm_rectangle_vs_quadrature():
    # rectangle increments of R equal the double integral of the density
    k = builtin_kernel("fbm", H=0.75)
    got = rectangle_increment(k, (0.2, 0.7), (0.4, 0.9))
    want = oracles.fbm_rectangle_quad(0.75, 0.2, 0.7, 0.4, 0.9)
    assert got == pytest.approx(want, rel=1e-6)


def test_heat_R_vs_quadrature():
    k = builtin_kernel("heat", delta=0.7)
    for (t, s) in [(0.3, 0.5), (1.0, 1.0), (0.2, 1.4)]:
        assert k.R(t, s) == pytest.approx(oracles.heat_R_quad(0.7, t, s),
                                          abs=1e-9)


def test_bessel_density_closed_form_and_mass():
    k = builtin_kernel("bessel", delta=0.5)
    for u in (0.2, 0.7, 1.5):
        assert k.density(u, 0.0) == pytest.approx(
            oracles.bessel_density_closed(0.5, u), rel=1e-8)
    assert oracles.bessel_mass_quad(0.5) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kernel", kernel_battery(), ids=lambda k: k.name)
def test_cross_increments_match_rectangle_increment(kernel):
    # two different partitions: every entry is one rectangle increment
    a = np.array([0.0, 0.2, 0.55, 1.0])
    b = np.array([0.1, 0.3, 0.7, 0.9, 1.2])
    got = cross_increments(kernel, a, b)
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = rectangle_increment(kernel, (a[i], a[i + 1]), (b[j], b[j + 1]))
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_wiener_increment_gram_diagonal():
    k = builtin_kernel("wiener")
    times = np.array([0.0, 0.25, 0.5, 1.0])
    g = increment_gram(k, times)
    assert np.allclose(g, np.diag(np.diff(times)), atol=1e-12)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6, unique=True))
@settings(max_examples=25, deadline=None)
def test_gram_psd_fbm(times):
    times = np.sort(np.asarray(times))
    k = builtin_kernel("fbm", H=0.75)
    g = gram_matrix(k, times)
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-10 * max(1.0, w.max())


def test_cholesky_psd_reconstructs():
    k = builtin_kernel("fbm", H=0.6)
    times = np.linspace(0.05, 1.0, 12)
    g = gram_matrix(k, times)
    L = cholesky_psd(g)
    assert np.allclose(L @ L.T, g, atol=1e-10)


def test_cholesky_psd_complex_hermitian():
    a = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    L = cholesky_psd(a)
    assert np.allclose(L @ L.conj().T, a, atol=1e-12)


def test_apply_KR_wiener_identity():
    # K_R is the identity; edge values are the step values from the left
    k = builtin_kernel("wiener")
    edges = np.linspace(0.0, 1.0, 9)
    f = np.arange(8.0)
    out = apply_KR_cells(k, edges, f)
    assert np.array_equal(out, np.concatenate([[f[0]], f]))


def test_apply_KR_fbm_indicator_closed_form():
    # the cell sums telescope, so K_R 1_{[0,1]} at the edges is exact
    k = builtin_kernel("fbm", H=0.75)
    fine = np.linspace(0.0, 1.0, 257)
    vals = apply_KR_cells(k, fine, np.ones(256))
    want = oracles.fbm_KR_indicator(0.75, fine)
    assert np.max(np.abs(vals - want)) < 1e-12


def test_apply_KR_bessel_indicator_vs_quadrature():
    # same telescoping for the density route: edges carry F1(t) - F1(t-1),
    # which must match direct quadrature of the closed-form density
    k = builtin_kernel("bessel", delta=0.5)
    edges = np.linspace(0.0, 1.0, 9)
    vals = apply_KR_cells(k, edges, np.ones(8))
    for t, got in zip(edges, vals):
        want = oracles.bessel_KR_indicator_quad(0.5, t)
        assert got == pytest.approx(want, abs=1e-8)


def test_linear_kernel_KR_total_integral():
    # K_R f = int_0^T f ds for the linear kernel (constant output)
    k = builtin_kernel("linear")
    edges = np.linspace(0.0, 1.0, 5)
    f = np.array([1.0, -2.0, 0.5, 3.0])
    out = apply_KR_cells(k, edges, f)
    total = np.sum(f * np.diff(edges))
    assert np.allclose(out, total)


def test_step_lp_norm_inf():
    edges = np.array([0.0, 0.5, 1.0])
    vals = np.array([1.0, -3.0])
    assert step_lp_norm(edges, vals, np.inf) == 3.0
    assert step_lp_norm(edges, vals, 2.0) == pytest.approx(np.sqrt(5.0))


@pytest.mark.parametrize("name,kw", [
    ("wiener", {}), ("fbm", {"H": 0.75}), ("linear", {}),
    ("bessel", {"delta": 0.5}), ("heat", {"delta": 1.0}),
])
def test_check_R2_bounded(name, kw):
    k = builtin_kernel(name, **kw)
    rep = check_R2(k, trials=16, seed=1, n_cells=128, levels=(64, 128))
    assert rep.passed
    assert np.isfinite(rep.ratio)
    if k.C_R is not None:
        assert rep.ratio <= k.C_R * 1.05


def test_check_R2_deterministic():
    k = builtin_kernel("fbm", H=0.75)
    r1 = check_R2(k, trials=8, seed=3, n_cells=64, levels=(32, 64))
    r2 = check_R2(k, trials=8, seed=3, n_cells=64, levels=(32, 64))
    assert r1.ratio == r2.ratio
