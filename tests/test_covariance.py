import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab.battery import kernel_battery
from spdelab.covariance import (
    builtin_kernel,
    cholesky_psd,
    cross_increments,
    increment_gram,
)
from spdelab.errors import KernelValidityError


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
    got = cross_increments(k, [0.2, 0.7], [0.4, 0.9])[0, 0]
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
            want = oracles.rectangle_increment(kernel, (a[i], a[i + 1]),
                                               (b[j], b[j + 1]))
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
    g = increment_gram(k, times)
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-10 * max(1.0, w.max())


def test_cholesky_psd_reconstructs():
    k = builtin_kernel("fbm", H=0.6)
    times = np.linspace(0.05, 1.0, 12)
    g = increment_gram(k, times)
    L = cholesky_psd(g)
    assert np.allclose(L @ L.T, g, atol=1e-10)


def test_cholesky_psd_complex_hermitian():
    a = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    L = cholesky_psd(a)
    assert np.allclose(L @ L.conj().T, a, atol=1e-12)


def test_cholesky_psd_peak_is_its_factor():
    # with no zero on the diagonal the Gram is factored as it is; a copy
    # of it, a zero matrix for the scatter, the identity and the rung-0
    # sum used to hold 5x the Gram's bytes beside the factor
    g = increment_gram(builtin_kernel("fbm", H=0.75), np.linspace(0.0, 1.0, 1025))
    L, peak = oracles.traced_peak(cholesky_psd, g)
    assert L.shape == g.shape
    assert peak < 2 * g.nbytes


def _stack_members():
    """A PD matrix, one with a zero-variance row and one whose plain
    factorization fails (rank one with no zero on the diagonal)."""
    pd = increment_gram(builtin_kernel("fbm", H=0.6), np.linspace(0.0, 1.0, 5))
    zero_row = pd.copy()
    zero_row[1, :] = zero_row[:, 1] = 0.0
    v = np.array([1.0, 2.0, 3.0, 0.5])
    rank_one = np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(rank_one)
    return pd, zero_row, rank_one


@pytest.mark.parametrize("members", [(0, 0, 1), (0, 1, 2, 0), (2, 2)])
@pytest.mark.parametrize("phase", [False, True])
def test_stacked_cholesky_psd_matches_one_at_a_time(members, phase):
    mats = np.array([_stack_members()[i] for i in members])
    if phase:       # complex Hermitian: D M D^H with a unitary diagonal D
        d = np.exp(1j * np.arange(1, 5))
        mats = d[:, None] * mats * d.conj()[None, :]
    want = np.array([cholesky_psd(a) for a in mats])
    got = cholesky_psd(mats)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert cholesky_psd(mats[None]).tobytes() == want.tobytes()   # (1, K, n, n)


def test_stacked_cholesky_psd_factors_full_diagonals_in_one_call(monkeypatch):
    pd, zero_row, _ = _stack_members()
    calls = []
    chol = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: calls.append(a.shape) or chol(a))
    cholesky_psd(np.array([pd, zero_row, pd, pd]))
    assert calls == [(3, 4, 4), (3, 3)]


def test_stacked_cholesky_psd_rejects_a_non_psd_member():
    pd, zero_row, rank_one = _stack_members()
    bad = np.diag([1.0, 1.0, 1.0, 1.0])
    bad[0, 1] = bad[1, 0] = 2.0           # eigenvalue -1
    for stack in ([pd, bad], [zero_row, rank_one, bad]):
        with pytest.raises(KernelValidityError):
            cholesky_psd(np.array(stack))
