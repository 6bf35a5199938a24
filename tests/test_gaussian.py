from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdelab.covariance import builtin_kernel, increment_gram
from spdelab.errors import AlignmentError
from spdelab.gaussian import (
    QSpec,
    StepFunction,
    canonical_partition,
    inner_H_U0,
    sample_paths,
    wiener_integral_path,
)

WIENER = builtin_kernel("wiener")
FBM = builtin_kernel("fbm", H=0.75)


def _steps(max_cells=4, J=2):
    """Strategy producing small random step functions on [0, 1]."""
    def build(pts, flat):
        bp = np.concatenate([[0.0], np.sort(np.asarray(pts)), [1.0]])
        bp = np.unique(np.round(bp, 6))
        if len(bp) < 2:
            bp = np.array([0.0, 1.0])
        m = len(bp) - 1
        coeffs = np.resize(np.asarray(flat), (m, J))
        return StepFunction(bp, coeffs)

    return st.builds(
        build,
        st.lists(st.floats(0.05, 0.95), min_size=0, max_size=max_cells - 1,
                 unique=True),
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=max_cells * J),
    )


# ---------------------------------------------------------------------------
# containers


def test_qspec_validation():
    q = QSpec((1.0, 0.5, 0.25))
    assert q.J == 3
    assert q.trace == pytest.approx(1.75)
    with pytest.raises(ValueError):
        QSpec((0.5, 1.0))       # increasing
    with pytest.raises(ValueError):
        QSpec((1.0, 0.0))       # not positive
    with pytest.raises(ValueError):
        QSpec((1.0,), J=2)      # J mismatch


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 0.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(ValueError):
        StepFunction(np.array([-0.5, 1.0]), np.ones((1, 1)))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 1.0]), np.array([[np.inf]]))
    h = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 0.0],
                                                          [0.0, 2.0]]))
    assert h.J == 2 and h.T == 1.0


def test_step_l_r_norm():
    # the oracle's L^r norm against a hand computation
    h = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[3.0, 4.0],
                                                          [0.0, 1.0]]))
    # |h| is 5 on the first cell, 1 on the second
    assert oracles.l_r_norm(h, np.inf) == 5.0
    assert oracles.l_r_norm(h, 2.0) == pytest.approx(np.sqrt(0.5 * 25 + 0.5 * 1))
    doubled = StepFunction(h.breakpoints, 2.0 * h.coeffs)
    assert oracles.l_r_norm(doubled, 2.0) == pytest.approx(
        2 * oracles.l_r_norm(h, 2.0))


@given(_steps())
@settings(max_examples=25, deadline=None)
def test_refine_preserves_inner_products(h):
    fine = np.unique(np.concatenate([h.breakpoints,
                                     np.linspace(0.0, 1.0, 7)]))
    refined = StepFunction(fine, h.refine(fine))
    for kernel in (WIENER, FBM):
        want = inner_H_U0(h, h, kernel)
        got = inner_H_U0(refined, refined, kernel)
        assert got == pytest.approx(want, abs=1e-10)
    assert oracles.l_r_norm(refined, 2.0) == pytest.approx(
        oracles.l_r_norm(h, 2.0), abs=1e-10)


def test_truncate_exact():
    # the oracle's truncation against a hand computation
    h = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [3.0]]))
    t = oracles.truncate(h, 0.75)
    assert t.breakpoints[-1] == 0.75
    # mass: 1^2*0.5 + 9*0.25
    assert oracles.l_r_norm(t, 2.0) ** 2 == pytest.approx(0.5 + 9 * 0.25)
    z = oracles.truncate(h, 0.0)
    assert oracles.l_r_norm(z, 2.0) == 0.0
    at_break = oracles.truncate(h, 0.5)
    assert oracles.l_r_norm(at_break, 2.0) ** 2 == pytest.approx(0.5)


def test_canonical_partition_merges_close_times():
    a = StepFunction(np.array([0.0, 0.5, 1.0]), np.ones((2, 1)))
    b = StepFunction(np.array([0.0, 0.5 + 1e-12, 1.0]), np.ones((2, 1)))
    part = canonical_partition([a, b], extra_times=[0.25])
    assert np.allclose(part, [0.0, 0.25, 0.5, 1.0])


# ---------------------------------------------------------------------------
# inner products


def test_inner_wiener_is_l2():
    h = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([[1.0, 2.0],
                                                           [0.0, -1.0]]))
    g = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 1.0],
                                                          [2.0, 0.0]]))
    # brute force on the common refinement:  sum_cells <h, g> dt
    part = canonical_partition([h, g])
    hh, gg = h.refine(part), g.refine(part)
    want = float(np.sum(np.sum(hh * gg, axis=1) * np.diff(part)))
    assert inner_H_U0(h, g, WIENER) == pytest.approx(want, abs=1e-12)


def test_inner_fbm_single_cells_vs_quadrature():
    c1, c2 = np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]])
    h = StepFunction(np.array([0.2, 0.7]), c1)
    g = StepFunction(np.array([0.4, 0.9]), c2)
    rect = oracles.fbm_rectangle_quad(0.75, 0.2, 0.7, 0.4, 0.9)
    want = float(np.vdot(c1, c2)) * rect
    assert inner_H_U0(h, g, FBM) == pytest.approx(want, rel=1e-6)


@given(_steps(), _steps())
@settings(max_examples=25, deadline=None)
def test_abs_inner_dominates(h, g):
    for kernel in (WIENER, FBM):
        lhs = abs(inner_H_U0(h, g, kernel))
        rhs = oracles.abs_inner_H_U0(h, g, kernel)
        assert lhs <= rhs + 1e-10
        norm = np.sqrt(max(inner_H_U0(h, h, kernel), 0.0))
        abs_norm = np.sqrt(max(oracles.abs_inner_H_U0(h, h, kernel), 0.0))
        assert norm <= abs_norm + 1e-10


# ---------------------------------------------------------------------------
# sampling


def test_sample_paths_deterministic_and_zero_at_origin():
    q = QSpec((1.0, 0.5))
    times = np.linspace(0.0, 1.0, 9)
    p1 = sample_paths(WIENER, times, q, 64, seed=7)
    p2 = sample_paths(WIENER, times, q, 64, seed=7)
    assert np.array_equal(p1.paths, p2.paths)
    assert np.all(p1.paths[:, :, 0] == 0.0)
    assert not np.array_equal(
        p1.paths, sample_paths(WIENER, times, q, 64, seed=8).paths)
    # factor substreams differ
    assert not np.allclose(p1.paths[:, 0, 1:], p1.paths[:, 1, 1:])
    # and do not depend on J: factor 0 of a J = 1 draw, bit for bit
    alone = sample_paths(WIENER, times, QSpec((1.0,)), 64, seed=7)
    assert np.array_equal(alone.paths[:, 0], p1.paths[:, 0])


@pytest.mark.parametrize("kernel,times", [
    (WIENER, [0.0, 0.3, 0.7, 1.0]), (FBM, [0.0, 0.3, 0.7, 1.0]),
    (WIENER, [0.25, 0.5, 1.0]), (FBM, [0.25, 0.5, 1.0])],
    ids=["wiener", "fbm", "wiener-after-0", "fbm-after-0"])
def test_sample_paths_empirical_covariance(kernel, times):
    # a grid that starts after 0 gets 0 prepended for the draw
    q = QSpec((1.0,))
    times = np.asarray(times)
    n = 40000
    p = sample_paths(kernel, times, q, n, seed=11)
    x = p.paths[:, 0, :]
    emp = x.T @ x / n
    for i, t in enumerate(times):
        for j, s in enumerate(times):
            want = kernel.R(t, s)
            # Var(X Y) <= E X^2 Y^2 <= 3 for unit-variance gaussians
            se = np.sqrt(3.0 / n)
            assert abs(emp[i, j] - want) < 4.5 * se


@pytest.mark.parametrize("kernel", [
    WIENER, FBM, builtin_kernel("linear"), builtin_kernel("bessel", delta=0.5),
    builtin_kernel("heat", delta=0.7)], ids=lambda k: k.name)
def test_sample_paths_increments_follow_the_increment_gram(kernel):
    # the sample covariance of the increments on N = 33 nodes, over 20,000
    # draws, against increment_gram: every distinct entry within a
    # Bonferroni bound at family-wise level 1e-3.  The mean is 0, so an
    # entry is the mean of x_i x_j, with a standard error from the draws
    n, edges = 20_000, np.linspace(0.0, 1.0, 33)
    inc = np.diff(sample_paths(kernel, edges, QSpec((1.0,)), n, seed=41)
                  .paths[:, 0], axis=-1)
    emp = inc.T @ inc / n
    se = np.sqrt(((inc * inc).T @ (inc * inc) / n - emp * emp) / (n - 1))
    upper = np.triu_indices(len(emp))
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(upper[0])))
    gap = np.abs(emp - increment_gram(kernel, edges))[upper]
    assert np.all(gap <= z * se[upper]), np.max(gap / se[upper])


def test_wiener_increments_independent():
    q = QSpec((1.0,))
    times = np.linspace(0.0, 1.0, 5)
    p = sample_paths(WIENER, times, q, 30000, seed=3)
    inc = np.diff(p.paths, axis=-1)[:, 0, :]
    cov = inc.T @ inc / inc.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 4.0 * 0.25 / np.sqrt(30000)
    assert np.allclose(np.diag(cov), 0.25, atol=4 * 0.25 * np.sqrt(2 / 30000))


# ---------------------------------------------------------------------------
# Wiener integrals


@pytest.mark.parametrize("kernel", [WIENER, FBM], ids=["wiener", "fbm"])
def test_wiener_integral_path_matches_exact_variance(kernel):
    h = StepFunction(np.array([0.0, 0.25, 0.75, 1.0]),
                     np.array([[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]]))
    q = QSpec((1.0, 1.0))
    times = np.linspace(0.0, 1.0, 9)
    n = 40000
    p = sample_paths(kernel, times, q, n, seed=13)
    x = wiener_integral_path(h, p)
    var = inner_H_U0(h, h, kernel)
    assert x.shape == (n,)
    assert abs(x.var() - var) < 4 * var * np.sqrt(2.0 / n)
    assert abs(x.mean()) < 4 * np.sqrt(var / n)


def test_wiener_integral_path_alignment_errors():
    h = StepFunction(np.array([0.0, 0.33, 1.0]), np.ones((2, 1)))
    q = QSpec((1.0,))
    p = sample_paths(WIENER, np.linspace(0.0, 1.0, 5), q, 8, seed=1)
    with pytest.raises(AlignmentError):
        wiener_integral_path(h, p)
    g = StepFunction(np.array([0.0, 0.5, 1.0]), np.ones((2, 2)))
    with pytest.raises(AlignmentError):
        wiener_integral_path(g, p)
