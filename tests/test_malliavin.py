import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from spdelab.battery import skorohod_battery
from spdelab.covariance import builtin_kernel
from spdelab.errors import AlignmentError
from spdelab.gaussian import QSpec, StepFunction, inner_H_U0
from spdelab.malliavin import (
    CylinderFunctional,
    ElementaryProcess,
    JointDesign,
    constant_functional,
    d1p_norm,
    d_phi,
    linear_functional,
    malliavin_derivative,
    mixed_norm_terms,
    skorohod_elementary,
    skorohod_moment_check,
    sum_step,
)

WIENER = builtin_kernel("wiener")
FBM = builtin_kernel("fbm", H=0.75)
Q1 = QSpec((1.0,))


def _phi(breaks=(0.0, 0.5, 1.0), coeffs=((1.0,), (2.0,))):
    return StepFunction(np.array(breaks), np.array(coeffs))


# ---------------------------------------------------------------------------
# functionals and derivatives


def test_cylinder_validation():
    h = _phi()
    with pytest.raises(ValueError):
        CylinderFunctional("log", (h,))
    with pytest.raises(ValueError):
        CylinderFunctional("sine", ())
    with pytest.raises(ValueError):
        CylinderFunctional("polynomial", (h,))


def test_shape_values_and_derivatives():
    h = _phi()
    y = np.array([-1.0, 0.0, 0.7, 2.0])
    poly = CylinderFunctional("polynomial", (h,), (1.0, 2.0, 3.0))
    assert np.allclose(poly.value(y), 1 + 2 * y + 3 * y ** 2)
    assert np.allclose(poly.dvalue(y), 2 + 6 * y)
    gauss = CylinderFunctional("exp_neg_square", (h,))
    assert np.allclose(gauss.value(y), np.exp(-y ** 2))
    assert np.allclose(gauss.dvalue(y), -2 * y * np.exp(-y ** 2))
    sine = CylinderFunctional("sine", (h,))
    assert np.allclose(sine.value(y), np.sin(y))
    assert np.allclose(sine.dvalue(y), np.cos(y))
    assert np.all(constant_functional(h, 3.0).dvalue(y) == 0.0)
    assert np.allclose(linear_functional(h).value(y), y)
    assert np.all(linear_functional(h).dvalue(y) == 1.0)


def test_derivative_rep_columns():
    h1, h2 = _phi(), _phi(coeffs=((0.0,), (1.0,)))
    F = CylinderFunctional("sine", (h1, h2))
    rep = malliavin_derivative(F)
    y = np.array([0.3, -1.2])
    coef = oracles.derivative_coefficients(rep, y)
    assert coef.shape == (2, 2)
    assert np.allclose(coef, np.cos(y)[:, None])
    assert rep.directions == (h1, h2)


def test_d_phi_inner_product_factor():
    h1, h2 = _phi(), _phi(coeffs=((3.0,), (-1.0,)))
    phi = _phi(coeffs=((1.0,), (0.0,)))
    F = CylinderFunctional("exp_neg_square", (h1, h2))
    d = d_phi(F, phi, FBM)
    want = inner_H_U0(h1, phi, FBM) + inner_H_U0(h2, phi, FBM)
    assert d.ip_sum == pytest.approx(want, rel=1e-12)
    y = 0.4
    assert oracles.d_phi_value(d, y) == pytest.approx(-2 * y * np.exp(-y ** 2) * want)


def test_d_phi_product_rule():
    # polynomials of the same beta(H): (pq)' = p'q + pq'
    h = _phi()
    phi = _phi(coeffs=((0.5,), (1.5,)))
    c1, c2 = (1.0, 2.0), (0.0, -1.0, 1.0)
    F = CylinderFunctional("polynomial", (h,), c1)
    G = CylinderFunctional("polynomial", (h,), c2)
    FG = CylinderFunctional("polynomial", (h,), tuple(npoly.polymul(c1, c2)))
    y = np.array([-0.8, 0.0, 1.3])
    lhs = oracles.d_phi_value(d_phi(FG, phi, WIENER), y)
    rhs = (F.value(y) * oracles.d_phi_value(d_phi(G, phi, WIENER), y)
           + G.value(y) * oracles.d_phi_value(d_phi(F, phi, WIENER), y))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_sum_step_exact():
    a = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0]]))
    b = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([[10.0], [20.0]]))
    s = sum_step([a, b])
    assert np.allclose(s.breakpoints, [0.0, 0.25, 0.5, 1.0])
    assert np.allclose(s.coeffs, [[11.0], [21.0], [22.0]])


def test_elementary_process_validation():
    h = _phi()
    F = linear_functional(h)
    with pytest.raises(ValueError):
        ElementaryProcess([])
    with pytest.raises(ValueError):
        ElementaryProcess([(F, np.array([1.0]), h),
                           (F, np.array([1.0, 2.0]), h)])
    u = ElementaryProcess([(F, np.array([1.0, 2.0]), h)])
    assert u.m == 2 and u.T == 1.0


# ---------------------------------------------------------------------------
# Skorohod integrals: exact cases


@pytest.mark.parametrize("kernel", [WIENER, FBM], ids=["wiener", "fbm"])
def test_exact_case_closed_form(kernel):
    # u = beta(phi) k phi with ||phi||_H = 1: delta(u) = (beta^2 - 1) k per draw
    phi = StepFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    assert inner_H_U0(phi, phi, kernel) == pytest.approx(1.0)
    k = np.array([2.0, 1.0])
    u = ElementaryProcess([(linear_functional(phi), k, phi)])
    design = JointDesign(u, kernel, Q1)
    delta = design.draw(20000, seed=21)
    b = np.einsum("pj,njp->n", design.phi_ref[0], delta)
    got = design.skorohod(delta)
    want = (b ** 2 - 1.0)[:, None] * k
    assert np.max(np.abs(got - want)) < 1e-12
    # E||delta(u)||^2 = 2 ||k||^2, fourth-moment variance from the oracle
    k2 = float(k @ k)
    n = len(b)
    stat = np.sum(got ** 2, axis=1) / k2
    se = np.sqrt(oracles.VAR_OF_SQUARED_CHI2_CENTERED / n)
    assert abs(stat.mean() - oracles.VAR_CHI2_CENTERED) < 4 * se


def test_scaling_linearity():
    phi = _phi()
    u = ElementaryProcess([(CylinderFunctional("sine", (phi,)),
                            np.array([1.0, -1.0]), phi)])
    a = skorohod_elementary(u, FBM, Q1, 500, seed=3)
    b = skorohod_elementary(oracles.scaled(u, -2.5), FBM, Q1, 500, seed=3)
    assert np.allclose(b, -2.5 * a, rtol=1e-12, atol=1e-14)


def test_additivity_on_shared_partition():
    # both terms live on the same canonical partition, so the joint draws
    # coincide and delta is additive per draw
    phi1 = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [0.0]]))
    phi2 = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [2.0]]))
    F1 = CylinderFunctional("sine", (phi1,))
    F2 = CylinderFunctional("polynomial", (phi2,), (0.0, 1.0, 0.5))
    k1, k2 = np.array([1.0, 0.0]), np.array([0.5, 1.5])
    u1 = ElementaryProcess([(F1, k1, phi1)])
    u2 = ElementaryProcess([(F2, k2, phi2)])
    both = u1 + u2
    n, seed = 400, 9
    s12 = skorohod_elementary(both, FBM, Q1, n, seed)
    s1 = skorohod_elementary(u1, FBM, Q1, n, seed)
    s2 = skorohod_elementary(u2, FBM, Q1, n, seed)
    assert np.allclose(s12, s1 + s2, atol=1e-12)


@pytest.mark.parametrize("kernel", [WIENER, FBM], ids=["wiener", "fbm"])
def test_running_skorohod_nodes(kernel):
    # single linear term: the partial integral at an interior node has the
    # closed form beta(phi 1_(0,tau]) beta(phi) - <H, phi 1_(0,tau]>
    phi = _phi()
    u = ElementaryProcess([(linear_functional(phi), np.array([3.0]), phi)])
    design = JointDesign(u, kernel, Q1)
    assert np.allclose(design.partition, [0.0, 0.5, 1.0])
    delta = design.draw(300, seed=17)
    run = design.running_skorohod(delta)
    assert run.shape == (300, 3, 1)
    assert np.all(run[:, 0, :] == 0.0)
    full = design.skorohod(delta)
    assert np.max(np.abs(run[:, -1, :] - full)) < 1e-12
    # manual node value at tau = 0.5
    b_half = phi.coeffs[0, 0] * delta[:, 0, 0]
    b_full = np.einsum("pj,njp->n", design.phi_ref[0], delta)
    ip = inner_H_U0(sum_step([phi]), oracles.truncate(phi, 0.5), kernel)
    want = 3.0 * (b_half * b_full - ip)
    assert np.max(np.abs(run[:, 1, 0] - want)) < 1e-12


# ---------------------------------------------------------------------------
# the second-moment identity


def test_moment_check_battery_small():
    for name, proc, kernel in skorohod_battery():
        q = QSpec((1.0,) * proc.terms[0][2].J)
        rep = skorohod_moment_check(proc, kernel, q, 20000, seed=29,
                                    name=name)
        assert rep.passed, f"{name}: z={rep.z_score:.2f}"
        assert rep.n_samples == 20000
        d = rep.to_dict()
        assert d["rhs"] == pytest.approx(sum(d["rhs_components"]))


def test_design_rejects_qspec_mismatch():
    # a J=2 process with a J=1 QSpec must raise instead of broadcasting
    name, proc, kernel = skorohod_battery()[0]
    assert proc.terms[0][2].J == 2
    with pytest.raises(AlignmentError):
        JointDesign(proc, kernel, Q1)


def test_moment_check_deterministic_registers_zero_swap():
    phi = _phi()
    u = ElementaryProcess([(constant_functional(phi, 2.0),
                            np.array([1.0]), phi)])
    rep = skorohod_moment_check(u, WIENER, Q1, 5000, seed=31)
    # C-term vanishes: DF = 0
    assert rep.rhs_components[1] == 0.0
    assert rep.passed


# ---------------------------------------------------------------------------
# norms feeding the maximal inequality


def test_u_cell_norms_single_term():
    phi = _phi()
    F = CylinderFunctional("sine", (phi,))
    k = np.array([3.0, 4.0])
    u = ElementaryProcess([(F, k, phi)])
    design = JointDesign(u, WIENER, Q1)
    delta = design.draw(50, seed=5)
    Fv, dv, _ = design.functional_values(delta)
    M = design.u_cell_norms(Fv)
    mags = np.sqrt(np.sum(design.phi_ref[0] ** 2, axis=1))
    want = np.abs(Fv[:, 0])[:, None] * 5.0 * mags[None, :]
    assert np.allclose(M, want, atol=1e-12)
    N = design.du_cell_norms(dv)
    hmag = np.sqrt(np.sum(design.H_ref[0] ** 2, axis=1))
    wantN = np.abs(dv[:, 0])[:, None, None] * 5.0 \
        * hmag[None, :, None] * mags[None, None, :]
    assert np.allclose(N, wantN, atol=1e-12)


def test_mixed_norm_terms_deterministic():
    phi = _phi()
    k = np.array([2.0])
    u = ElementaryProcess([(constant_functional(phi, 1.0), k, phi)])
    design = JointDesign(u, WIENER, Q1)
    delta = design.draw(100, seed=7)
    p, q_exp, r_exp = 4.0, 2.0, 2.0
    t1, t2 = mixed_norm_terms(design, delta, p, q_exp, r_exp)
    assert t2 == 0.0
    # int ||u||^2 ds = |k|^2 (1^2 * 0.5 + 2^2 * 0.5) = 4 * 2.5
    want = (4.0 * 2.5) ** (p / q_exp)
    assert t1 == pytest.approx(want, rel=1e-12)


def _sup_level_design(proc, kernel, level=64):
    q = QSpec((1.0,) * proc.terms[0][2].J)
    return JointDesign(proc, kernel, q,
                       extra_times=np.linspace(0.0, proc.T, level + 1))


@pytest.mark.parametrize("case", skorohod_battery(), ids=lambda c: c[0])
def test_mixed_norm_terms_match_fine_oracle(case):
    _, proc, kernel = case
    design = _sup_level_design(proc, kernel)
    delta = design.draw(200, seed=11)
    r = float(kernel.r_exp)
    got = mixed_norm_terms(design, delta, 4.0, 2.0, r)
    want = oracles.mixed_norm_terms_fine(design, delta, 4.0, 2.0, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", skorohod_battery(), ids=lambda c: c[0])
def test_abs_norms_ignore_extra_times(case):
    _, proc, kernel = case
    plain = JointDesign(proc, kernel, QSpec((1.0,) * proc.terms[0][2].J))
    fine = _sup_level_design(proc, kernel)
    Fv, dv, _ = plain.functional_values(plain.draw(100, seed=13))
    want_u, want_du = oracles.abs_norms_fine(fine, Fv, dv)
    for design in (plain, fine):
        assert np.allclose(design.abs_h_norm_u(Fv), want_u,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(design.abs_hh_norm_du(dv), want_du,
                           rtol=1e-12, atol=0.0)


def test_du_cell_norms_do_not_grow_with_level():
    _, proc, kernel = skorohod_battery()[1]          # linear-exact/wiener
    shapes = set()
    for level in (16, 64, 256):
        design = _sup_level_design(proc, kernel, level)
        _, dv, _ = design.functional_values(design.draw(4, seed=1))
        shapes.add(design.du_cell_norms(dv).shape[1:])
    assert len(shapes) == 1


def test_d1p_norm_deterministic_wiener():
    phi = _phi()
    k = np.array([2.0])
    u = ElementaryProcess([(constant_functional(phi, 1.0), k, phi)])
    # |H|-norm of a deterministic k phi under wiener is |k| ||phi||_{L^2}
    want = 2.0 * oracles.l_r_norm(phi, 2.0)
    got = d1p_norm(u, WIENER, p=2.0, n_samples=64, seed=1)
    assert got == pytest.approx(want, rel=1e-12)


def test_d1p_norm_abs_pairing_fbm():
    # two-cell deterministic profile: |H| rectangle sum computed by hand
    phi = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [-2.0]]))
    u = ElementaryProcess([(constant_functional(phi, 1.0),
                            np.array([1.0]), phi)])
    R = FBM.R
    inc = np.empty((2, 2))
    bp = [0.0, 0.5, 1.0]
    for a in range(2):
        for b in range(2):
            inc[a, b] = (R(bp[a + 1], bp[b + 1]) - R(bp[a + 1], bp[b])
                         - R(bp[a], bp[b + 1]) + R(bp[a], bp[b]))
    mags = np.array([1.0, 2.0])
    want = float(mags @ inc @ mags) ** 0.5
    got = d1p_norm(u, FBM, p=2.0, n_samples=64, seed=1)
    assert got == pytest.approx(want, rel=1e-10)
