import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from spdelab.battery import elementary_battery, skorohod_battery
from spdelab.covariance import builtin_kernel
from spdelab.errors import AlignmentError
from spdelab.gaussian import QSpec, StepFunction, inner_H_U0
from spdelab.malliavin import (
    CylinderFunctional,
    ElementaryProcess,
    JointDesign,
    constant_functional,
    linear_functional,
    mixed_norm_terms,
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


def _ip_sum(directions, phi, kernel):
    """sum_l <h_l, phi>_H from the exact pairwise inner product."""
    return sum(inner_H_U0(h, phi, kernel) for h in directions)


def test_d_phi_inner_product_factor():
    # D_phi F = shape'(y) sum_l <h_l, phi>_H: the design's ip_H_phi is the
    # factor, for the term whose integrand is phi
    h1, h2 = _phi(), _phi(coeffs=((3.0,), (-1.0,)))
    phi = _phi(coeffs=((1.0,), (0.0,)))
    F = CylinderFunctional("exp_neg_square", (h1, h2))
    design = JointDesign(ElementaryProcess([(F, [1.0], phi)]), FBM, Q1)
    want = _ip_sum((h1, h2), phi, FBM)
    assert design.ip_H_phi[0, 0] == pytest.approx(want, rel=1e-12)
    y = 0.4
    assert F.dvalue(y) * design.ip_H_phi[0, 0] == \
        pytest.approx(-2 * y * np.exp(-y ** 2) * want)


@pytest.mark.parametrize("case", skorohod_battery(), ids=lambda c: c[0])
def test_ip_H_phi_is_the_sum_of_exact_inner_products(case):
    # entry (i, j) pairs term i's directions with term j's integrand
    _, proc, kernel = case
    design = JointDesign(proc, kernel, QSpec((1.0,) * proc.terms[0][2].J))
    for i, (F, _, _) in enumerate(proc.terms):
        for j, (_, _, phi) in enumerate(proc.terms):
            want = _ip_sum(F.directions, phi, kernel)
            assert abs(design.ip_H_phi[i, j] - want) <= 1e-12, (i, j)


def test_d_phi_product_rule():
    # polynomials of the same beta(H) share the factor sum_l <h_l, phi>_H,
    # so D_phi (FG) = F D_phi G + G D_phi F is the rule (pq)' = p'q + pq'
    # for the shapes' dvalue
    h = _phi()
    phi = _phi(coeffs=((0.5,), (1.5,)))
    c1, c2 = (1.0, 2.0), (0.0, -1.0, 1.0)
    F = CylinderFunctional("polynomial", (h,), c1)
    G = CylinderFunctional("polynomial", (h,), c2)
    FG = CylinderFunctional("polynomial", (h,), tuple(npoly.polymul(c1, c2)))
    ip = JointDesign(ElementaryProcess([(FG, [1.0], phi)]), WIENER,
                     Q1).ip_H_phi[0, 0]
    assert ip != 0.0
    y = np.array([-0.8, 0.0, 1.3])
    lhs = FG.dvalue(y) * ip
    rhs = F.value(y) * G.dvalue(y) * ip + G.value(y) * F.dvalue(y) * ip
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
    got = design.running_skorohod(delta, *design.functional_values(delta))[:, -1]
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
    a = oracles.skorohod_integral(u, FBM, Q1, 500, seed=3)
    b = oracles.skorohod_integral(oracles.scaled(u, -2.5), FBM, Q1, 500,
                                  seed=3)
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
    s12 = oracles.skorohod_integral(both, FBM, Q1, n, seed)
    s1 = oracles.skorohod_integral(u1, FBM, Q1, n, seed)
    s2 = oracles.skorohod_integral(u2, FBM, Q1, n, seed)
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
    run = design.running_skorohod(delta, *design.functional_values(delta))
    assert run.shape == (300, 3, 1)
    assert np.all(run[:, 0, :] == 0.0)
    # manual node value at tau = 0.5
    b_half = phi.coeffs[0, 0] * delta[:, 0, 0]
    b_full = np.einsum("pj,njp->n", design.phi_ref[0], delta)
    ip = inner_H_U0(sum_step([phi]), oracles.truncate(phi, 0.5), kernel)
    want = 3.0 * (b_half * b_full - ip)
    assert np.max(np.abs(run[:, 1, 0] - want)) < 1e-12


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kernel", [WIENER, FBM], ids=["wiener", "fbm"])
def test_running_skorohod_equals_whole_array_oracle(kernel, m):
    # in place, each term keeps every operation of the whole-array
    # expressions and their order: a 2,048-draw block at sup level 256
    for name, u in elementary_battery(m=m):
        design = JointDesign(u, kernel, QSpec((1.0, 1.0)),
                             extra_times=np.linspace(0.0, u.T, 257))
        delta = design.draw(2048, seed=5)
        Fv, dv = design.functional_values(delta)
        want = oracles.running_skorohod_whole_arrays(design, delta, Fv, dv)
        assert np.array_equal(design.running_skorohod(delta, Fv, dv), want), name


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
    Fv, dv = design.functional_values(delta)
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
    t1, t2 = mixed_norm_terms(design, *design.functional_values(delta),
                              p, q_exp, r_exp)
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
    got = mixed_norm_terms(design, *design.functional_values(delta), 4.0, 2.0, r)
    want = oracles.mixed_norm_terms_fine(design, delta, 4.0, 2.0, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", skorohod_battery(), ids=lambda c: c[0])
def test_cell_norms_ignore_extra_times(case):
    # the norms live on the process's own partition: the sup-level times
    # of a fine design change no bit of them
    _, proc, kernel = case
    plain = JointDesign(proc, kernel, QSpec((1.0,) * proc.terms[0][2].J))
    fine = _sup_level_design(proc, kernel)
    Fv, dv = plain.functional_values(plain.draw(100, seed=13))
    assert np.array_equal(fine.coarse_widths, plain.coarse_widths)
    assert np.array_equal(fine.u_cell_norms(Fv), plain.u_cell_norms(Fv))
    assert np.array_equal(fine.du_cell_norms(dv), plain.du_cell_norms(dv))


def test_du_cell_norms_do_not_grow_with_level():
    _, proc, kernel = skorohod_battery()[1]          # linear-exact/wiener
    shapes = set()
    for level in (16, 64, 256):
        design = _sup_level_design(proc, kernel, level)
        _, dv = design.functional_values(design.draw(4, seed=1))
        shapes.add(design.du_cell_norms(dv).shape[1:])
    assert len(shapes) == 1
