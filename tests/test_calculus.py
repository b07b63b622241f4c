"""Discrete operators against analytic oracles."""

import math

import numpy as np
import pytest

from mvlab import (
    conformal_metric,
    default_test_set,
    integrate,
    interpolate,
    laplacian,
    make_ball_domain,
    make_half_ball_domain,
    normal_derivative,
    shell_profile,
    sine_metric,
    vol_sphere,
    weak_subharmonic_test,
)
from mvlab.calculus import (
    cap_constant,
    clipping_angle,
    flat_flux,
    shell_nodes,
    t_integral_bound,
)
from mvlab.errors import (
    DomainNotHalfBall,
    RadiusBelowResolution,
    ShellExitsDomain,
    SubregionOutsideDomain,
)
from mvlab.grid import _ldl


def quadratic(p):
    return np.sum(p**2, axis=-1)


def test_laplacian_quadratic_exact():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = dom.field_from_function(quadratic)
    lap = laplacian(e).values
    finite = np.isfinite(lap)
    assert finite.sum() > 0
    assert np.allclose(lap[finite], -4.0, atol=1e-9)


def test_laplacian_constant_zero():
    dom = make_ball_domain([0, 0, 0], 0.5, 1 / 16, 3)
    e = dom.field_from_function(lambda p: np.ones(len(p)))
    lap = laplacian(e).values
    assert np.allclose(lap[np.isfinite(lap)], 0.0, atol=1e-12)


def _lap_error(n, h):
    """Max |Delta u| over d <= 0.8 on the unit ball for the harmonic
    u = sum_k cos(x_k) cosh(x_(k+1)), which varies along every axis."""
    dom = make_ball_domain([0.0] * n, 1.0, h, n)
    e = dom.field_from_function(
        lambda p: sum(np.cos(p[:, k]) * np.cosh(p[:, k + 1]) for k in range(n - 1)))
    lap = laplacian(e).values
    dist = dom.center_distances()
    sel = np.isfinite(lap) & (dist <= 0.8)
    return float(np.max(np.abs(lap[sel])))


@pytest.mark.parametrize("n, spacings", [(2, (1 / 16, 1 / 32, 1 / 64)),
                                         (3, (1 / 8, 1 / 16, 1 / 32)),
                                         (4, (1 / 8, 1 / 16))], ids=("2", "3", "4"))
def test_laplacian_second_order_convergence(n, spacings):
    errs = [_lap_error(n, h) for h in spacings]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2, rates


def _conformal_lap_error(n, h, c=0.01):
    """Max error of the metric Laplacian over d <= 0.8 on the unit ball with
    g = f I, f = 1 + c x1, against the exact
    Delta_g u = -sum_i u_ii / f - (n - 2) c u_1 / (2 f^2)."""
    dom = make_ball_domain([0.0] * n, 1.0, h, n, conformal_metric(n, c, axis=1))
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(p[:, 0]) * np.cosh(p[:, 1]) + 0.3 * p[:, 1] ** 2)
    pts = dom.points()
    f = 1.0 + c * pts[:, 1]
    du1 = np.cos(pts[:, 0]) * np.sinh(pts[:, 1]) + 0.6 * pts[:, 1]
    exact = (-0.6 / f - (n - 2) * c * du1 / (2.0 * f**2)).reshape(dom.shape)
    lap = laplacian(e).values
    sel = np.isfinite(lap) & (dom.center_distances() <= 0.8)
    return float(np.max(np.abs(lap[sel] - exact[sel])))


def test_metric_laplacian_known_answer_converges_n3():
    errs = [_conformal_lap_error(3, h) for h in (1 / 8, 1 / 16, 1 / 32)]
    assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0, errs


def test_metric_laplacian_known_answer_converges_n4():
    errs = [_conformal_lap_error(4, h) for h in (1 / 8, 1 / 12)]
    assert errs[0] / errs[1] >= 1.8, errs


def test_metric_ball_needs_no_batched_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("batched LAPACK call on the metric-ball path")

    for name in ("det", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    dom = make_ball_domain([0.0] * 3, 1.0, 1 / 8, 3, conformal_metric(3, 0.01, axis=1))
    e = dom.field_from_function(lambda p: 1.0 + quadratic(p))
    assert np.isfinite(laplacian(e).values[dom.center_distances() <= 0.8]).all()
    assert integrate(e) > 0.0


def test_metric_laplacian_matches_euclidean_for_small_perturbation():
    h = 1 / 32
    metric = conformal_metric(2, 0.01, axis=1)
    dom = make_ball_domain([0, 0], 1.0, h, 2, metric)
    e = dom.field_from_function(quadratic)
    lap = laplacian(e).values
    finite = np.isfinite(lap)
    # Delta_g |x|^2 = -4 + O(|g - id|) on the in-mask nodes
    assert np.max(np.abs(lap[finite] + 4.0)) < 0.2
    assert np.min(lap[finite]) < -3.8


def test_normal_derivative_stencil_exact_on_quadratics():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    lin = dom.field_from_function(lambda p: p[:, 0], density=False)
    nd = normal_derivative(lin)
    vals = nd.values[nd.finite()]
    assert np.max(np.abs(vals + 1.0)) < 1e-12

    quad = dom.field_from_function(lambda p: 2.0 * p[:, 0] ** 2 + 0.3 * p[:, 0] + 1.0,
                                   density=False)
    nd2 = normal_derivative(quad)
    vals2 = nd2.values[nd2.finite()]
    assert np.max(np.abs(vals2 + 0.3)) < 1e-12


@pytest.mark.parametrize("n, r, spacings", [
    (2, 1.0, (1 / 32, 1 / 64)),
    (3, 0.5, (1 / 32, 1 / 64)),
    (4, 0.5, (1 / 16, 1 / 32)),
], ids=["2", "3", "4"])
def test_normal_derivative_second_order(n, r, spacings):
    # exp(x0) cos(x1) varies along the plane; its outer normal derivative
    # there is -cos(x1)
    errs = []
    for h in spacings:
        dom = make_half_ball_domain([0.0] * n, r, h, n)
        e = dom.field_from_function(lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1]))
        nd = normal_derivative(e)
        ok = nd.finite()
        exact = -np.cos(nd.points[ok, 1])
        errs.append(float(np.max(np.abs(nd.values[ok] - exact))))
    assert errs[0] / errs[1] > 3.0  # second order halving gives ~4x


def test_normal_derivative_needs_flat_boundary():
    ball = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = ball.field_from_function(lambda p: np.ones(len(p)))
    with pytest.raises(DomainNotHalfBall):
        normal_derivative(e)


def test_integrate_disk_area():
    h = 1 / 128
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    one = dom.field_from_function(lambda p: np.ones(len(p)))
    assert abs(integrate(one) - np.pi) <= 5 * h


def test_integrate_radius_squared_full_ball():
    # int over D_r(y) of |x-y|^2 with y0 >= r equals Vol S^{n-1} r^{n+2}/(n+2)
    h = 1 / 128
    dom = make_half_ball_domain([2.0, 0.0], 1.0, h, 2)
    e = dom.field_from_function(lambda p: (p[:, 0] - 2.0) ** 2 + p[:, 1] ** 2)
    target = np.pi / 2
    assert abs(integrate(e) - target) / target < 0.005


def test_integrate_subregion_and_errors():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = dom.field_from_function(lambda p: np.ones(len(p)))
    inner = integrate(e, subregion=([0.2, 0.0], 0.3))
    assert abs(inner - np.pi * 0.3**2) < 0.01
    with pytest.raises(SubregionOutsideDomain):
        integrate(e, subregion=([5.0, 0.0], 0.5))


def test_integrate_metric_weight():
    # constant conformal factor (1+c) id in 2d: sqrt(det g) = 1 + c
    from mvlab import polynomial_metric

    c = 0.04
    metric = polynomial_metric(2, [(0, 0, c, (0, 0)), (1, 1, c, (0, 0))], c)
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2, metric)
    one = dom.field_from_function(lambda p: np.ones(len(p)))
    # geodesic radius shrinks the euclidean ball by sqrt(1+c); the mask and
    # the weight together must land near (1+c) * pi * r_eff^2
    val = integrate(one)
    r_eff = 1.0 / math.sqrt(1.0 + 0.5 * c) ** 2  # first-order corrected radius
    target = (1.0 + c) * np.pi * r_eff**2
    assert abs(val - target) / target < 0.02


def test_shell_weight_sums_unclipped():
    for n, center in ((2, [0, 0]), (3, [0, 0, 0]), (4, [0, 0, 0, 0])):
        shell = shell_nodes(np.asarray(center, float), 0.5, n, 1 / 16, None)
        assert abs(shell.weights.sum() - vol_sphere(n - 1)) < 1e-8, n


def test_shell_weight_sums_clipped_half():
    for n in (2, 3, 4):
        center = np.zeros(n)
        shell = shell_nodes(center, 0.5, n, 1 / 16, 0.0)
        assert shell.clipped
        assert abs(shell.phi0 - math.pi / 2) < 1e-15
        assert abs(shell.weights.sum() - 0.5 * vol_sphere(n - 1)) < 1e-8, n


def test_clipping_angle_properties():
    assert clipping_angle(0.5, 0.25) == math.pi
    assert clipping_angle(0.0, 0.25) == pytest.approx(math.pi / 2)
    rs = np.linspace(0.3, 2.0, 20)
    angles = [clipping_angle(0.25, r) for r in rs]
    assert all(a2 <= a1 + 1e-15 for a1, a2 in zip(angles, angles[1:]))
    assert angles[-1] > math.pi / 2


def test_shell_profile_constant_and_quadratic():
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    c = dom.field_from_function(lambda p: 1.5 * np.ones(len(p)))
    prof = shell_profile(c, [0.0, 0.0], [0.25, 0.5])
    assert np.allclose(prof.values(), 1.5 * np.pi, atol=1e-8)

    dom2 = make_ball_domain([0, 0], 1.0, h, 2)
    q = dom2.field_from_function(quadratic)
    radii = [0.25, 0.5, 0.75]
    prof2 = shell_profile(q, [0.0, 0.0], radii)
    for r, m in zip(radii, prof2.values()):
        assert abs(m - 2 * np.pi * r**2) <= 10 * h


def test_shell_profile_small_radius_limit():
    h = 1 / 128
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    e = dom.field_from_function(lambda p: 1.0 + 0.5 * p[:, 0] + quadratic(p))
    r_min = 16 * h
    prof = shell_profile(e, [0.0, 0.0], [r_min])
    target = vol_sphere(1) * 1.0
    assert abs(prof.values()[0] - target) / target < 0.02


def test_shell_profile_errors():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = dom.field_from_function(lambda p: np.ones(len(p)))
    with pytest.raises(RadiusBelowResolution):
        shell_profile(e, [0, 0], [2 / 32])
    with pytest.raises(ShellExitsDomain):
        shell_profile(e, [0, 0], [0.999])


def test_interpolation_exact_on_linear():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = dom.field_from_function(lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1], density=False)
    pts = np.array([[0.013, 0.4], [-0.3, 0.22], [0.0, 0.0]])
    vals = interpolate(e, pts)
    assert np.allclose(vals, 2.0 + 3.0 * pts[:, 0] - pts[:, 1], atol=1e-12)


def _radial_flux(e, center, r):
    """int over the clipped sphere Gamma_r of the outward radial derivative.

    Central differences along the radius; where the outward sample leaves the
    mask (the clipped edge dips below the flat plane) an inward one-sided
    stencil takes over, costing O(h) on an O(h) arc measure."""
    dom = e.domain
    h = dom.spacing
    center = np.asarray(center, dtype=float)
    shell = shell_nodes(center, r, dom.dimension, h, float(center[0]))
    dirs = (shell.points - center) / r
    here = interpolate(e, shell.points)
    up = interpolate(e, shell.points + h * dirs)
    down = interpolate(e, shell.points - h * dirs)
    dr = (up - down) / (2.0 * h)
    missing_up = ~np.isfinite(up)
    dr[missing_up] = (here[missing_up] - down[missing_up]) / h
    assert np.all(np.isfinite(dr)), f"flux shell r={r} leaves the domain mask"
    return float(np.dot(shell.weights, dr)) * r ** (dom.dimension - 1)


def test_green_identity_half_ball():
    # discrete divergence theorem: int Delta e + cap flux + flat flux ~ 0
    h = 1 / 64
    dom = make_half_ball_domain([0.25, 0.0], 0.75, h, 2)
    for fn in (lambda p: np.cos(p[:, 0]) * np.cosh(p[:, 1]),
               lambda p: (p[:, 0] - 0.25) ** 2 + p[:, 1] ** 2):
        e = dom.field_from_function(fn, density=False)
        r = 0.5
        lap = laplacian(e)
        # the flat row has no vertical stencil; its cells carry O(h) measure
        patched = dom.make_field(np.where(np.isfinite(lap.values), lap.values, 0.0),
                                 density=False)
        vol = integrate(patched, subregion=([0.25, 0.0], r))
        cap = _radial_flux(e, [0.25, 0.0], r)
        flat = flat_flux(e, [0.25, 0.0], r)
        # outer normal derivative on the cap is +d/drho, on Z it is -d/dx0;
        # positive-definite laplacian flips the volume term sign
        assert abs(vol + cap + flat) <= 10 * h


def test_t_integral_closed_forms():
    # the clipping integral int_1^U t^-2 (1 - t^-2)^((n-3)/2) dt is, with
    # s = 1/t, int_(1/U)^1 (1 - s^2)^((n-3)/2) ds; its sup over U > 1 is
    # pi/2 at n = 2, 1 at n = 3 and pi/4 at n = 4, all within the bound
    from scipy.integrate import quad

    def closed(n, upper):
        theta = math.acos(1.0 / upper)
        return {2: theta, 3: 1.0 - 1.0 / upper,
                4: 0.5 * (theta - math.sin(theta) * math.cos(theta))}[n]

    for n, sup in ((2, 0.5 * math.pi), (3, 1.0), (4, 0.25 * math.pi)):
        assert sup <= t_integral_bound(n)
        for upper in (1.0001, 1.5, 3.0, 10.0, 100.0):
            val = closed(n, upper)
            ref = quad(lambda t: t**-2 * (1.0 - t**-2) ** (0.5 * (n - 3)), 1.0, upper,
                       epsabs=0.0, epsrel=1e-9, limit=200)[0]
            assert val == pytest.approx(ref, rel=1e-8)
            assert 0.0 < val < sup
        assert closed(n, 1e12) == pytest.approx(sup, rel=1e-6)


def test_cap_constant_values():
    assert cap_constant(2) == pytest.approx(8.0)
    assert cap_constant(3) == pytest.approx(24.0)
    assert cap_constant(4) == pytest.approx(256.0 / math.pi)


def test_weak_subharmonic_examples():
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    tests = default_test_set(dom)
    assert len(tests) >= 16

    # classically subharmonic with the right Neumann sign at y0 = 0
    q = dom.field_from_function(quadratic)
    rep = weak_subharmonic_test(q, tests)
    assert rep.subharmonic

    # harmonic with nonpositive outer normal derivative
    x0 = dom.field_from_function(lambda p: p[:, 0])
    rep2 = weak_subharmonic_test(x0, tests)
    assert rep2.subharmonic

    # superharmonic: at least one test value above tolerance
    sup = dom.field_from_function(lambda p: 1.0 - quadratic(p))
    rep3 = weak_subharmonic_test(sup, tests)
    assert not rep3.subharmonic


def test_weak_test_analytic_cross_check():
    # for e = x0 the weak pairing reduces to the boundary term
    # -int_{x0=0} psi = -c(0) * R * int_{-1}^{1} (1-u^2)^4 du = -R * 256/315
    from mvlab.calculus import cosine_bump

    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    e = dom.field_from_function(lambda p: p[:, 0])
    lat_r = 0.3
    psi = cosine_bump("probe", np.array([0.0]), 0.5, lat_r, 2)
    rep = weak_subharmonic_test(e, tests=_single(psi))
    expected = -lat_r * 256.0 / 315.0
    assert rep.values[0][1] == pytest.approx(expected, abs=5e-4)


def _single(fn):
    from mvlab.calculus import WeakTestSet

    return WeakTestSet((fn,))


def test_test_functions_have_exact_neumann():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    tests = default_test_set(dom)
    probe = np.array([[1e-7, 0.1], [-1e-7, 0.1]])
    for fn in tests.functions:
        v_plus, v_minus = fn.value(probe)
        assert v_plus == v_minus  # even/cosine construction: exactly symmetric


def test_laplacian_quadratic_exact_4d():
    dom = make_ball_domain([0, 0, 0, 0], 0.25, 1 / 32, 4)
    e = dom.field_from_function(quadratic)
    lap = laplacian(e).values
    finite = np.isfinite(lap)
    assert finite.sum() > 0
    assert np.allclose(lap[finite], -8.0, atol=1e-9)


def _shift_reference(values, offsets):
    """Full-array shifted copy, NaN past the box edge: out[i] = values[i + off]."""
    out = np.full_like(values, np.nan)
    src, dst = [], []
    for size, off in zip(values.shape, offsets):
        if off >= 0:
            src.append(slice(off, size))
            dst.append(slice(0, size - off))
        else:
            src.append(slice(0, size + off))
            dst.append(slice(-off, size))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _laplacian_reference(e):
    """The Laplacian built from full-array shifted copies, one per neighbour."""
    dom = e.domain
    n, h, v = dom.dimension, dom.spacing, e.values

    def axis(ax, step, other=None, other_step=0):
        off = [0] * n
        off[ax] = step
        if other is not None:
            off[other] += other_step
        return tuple(off)

    if dom.metric is None or dom.metric.trivial:
        acc = np.zeros_like(v)
        for ax in range(n):
            acc += (_shift_reference(v, axis(ax, 1)) - 2.0 * v
                    + _shift_reference(v, axis(ax, -1)))
        lap = -acc / h**2
    else:
        # sqrt(det g) and g^-1 from the closed-form factorization the domain uses
        pts = dom.points()
        sqrt_det_node = np.sqrt(_ldl(dom.metric(pts))[1]).reshape(dom.shape)
        div = np.zeros_like(v)
        for ax in range(n):
            face_pts = pts.copy()
            face_pts[:, ax] += 0.5 * h
            _, det_face, g_inv_face = _ldl(dom.metric(face_pts), inverse=True)
            sqrt_det_face = np.sqrt(det_face).reshape(dom.shape)
            flux = np.zeros_like(v)
            v_plus_ax = _shift_reference(v, axis(ax, 1))
            for j in range(n):
                if j == ax:
                    dj = (v_plus_ax - v) / h
                else:
                    cj_here = (_shift_reference(v, axis(j, 1))
                               - _shift_reference(v, axis(j, -1))) / (2.0 * h)
                    cj_there = (_shift_reference(v, axis(ax, 1, j, 1))
                                - _shift_reference(v, axis(ax, 1, j, -1))) / (2.0 * h)
                    dj = 0.5 * (cj_here + cj_there)
                flux += g_inv_face[ax][j].reshape(dom.shape) * dj
            flux *= sqrt_det_face
            div += (flux - _shift_reference(flux, axis(ax, -1))) / h
        lap = -div / sqrt_det_node
    return np.where(dom.in_mask, lap, np.nan)


@pytest.mark.parametrize("n,metric", [
    (2, None), (3, None), (4, None),
    (2, "conformal"), (3, "conformal"), (4, "conformal"), (2, "sine"), (3, "sine"),
])
def test_laplacian_bitwise_equals_shifted_copy_reference(n, metric):
    spec = {None: None, "conformal": conformal_metric(n, 0.01, axis=1),
            "sine": sine_metric(n, 0.02, entry=(0, 1), axis=1)}[metric]
    dom = make_ball_domain([0.0] * n, 0.5, 1 / 16, n, spec)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    assert np.array_equal(laplacian(e).values, _laplacian_reference(e), equal_nan=True)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_default_test_set_count_is_a_minimum(n):
    dom = make_half_ball_domain([0.0] * n, 1.0, 1 / 8, n)
    assert len(default_test_set(dom, count=1)) == 15
    assert len(default_test_set(dom, count=15)) == 15
    assert len(default_test_set(dom)) == 30


def _sphere_volume(k):
    """Volume of the unit sphere S^k."""
    return 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


def _oracle_domain(kind, n, h):
    center = np.zeros(n)
    if kind == "ball":
        return make_ball_domain(center, 1.0, h, n)
    if kind == "conformal":
        return make_ball_domain(center, 1.0, h, n, conformal_metric(n, 0.01, axis=1))
    center[0] = 0.25 if kind == "lifted" else 0.0
    return make_half_ball_domain(center, 1.0, h, n)


def _exact_moments(kind, n):
    """int 1 and int |x - c|^2 over the unit domain of ``_oracle_domain``,
    times sqrt(det g) on the conformal ball."""
    from scipy.integrate import quad

    area = _sphere_volume(n - 1)
    if kind in ("ball", "half_ball"):
        share = 1.0 if kind == "ball" else 0.5
        return share * area / n, share * area / (n + 2)
    if kind == "lifted":
        # slices z0 = const of B_1 n {z0 >= -1/4}, z relative to the centre
        disc = _sphere_volume(n - 2) / (n - 1)
        one = quad(lambda z: disc * (1 - z * z) ** ((n - 1) / 2), -0.25, 1.0,
                   epsabs=0, epsrel=1e-13)[0]
        second = quad(lambda z: disc * z * z * (1 - z * z) ** ((n - 1) / 2)
                      + _sphere_volume(n - 2) * (1 - z * z) ** ((n + 1) / 2) / (n + 1),
                      -0.25, 1.0, epsabs=0, epsrel=1e-13)[0]
        return one, second
    # g = (1 + c x1) I, whose segment distance is exactly L (1 + c x1 / 4):
    # along x = L w, cos(theta) = w1, the domain ends where that reaches 1
    c = 0.01

    def moment(power):
        def radial(theta):
            k = 0.25 * c * math.cos(theta)
            end = 1.0 if k == 0 else (math.sqrt(1.0 + 4.0 * k) - 1.0) / (2.0 * k)
            return quad(lambda r: r ** (n - 1 + power) * (1 + c * r * math.cos(theta)) ** (n / 2),
                        0.0, end, epsabs=0, epsrel=1e-13)[0]

        return _sphere_volume(n - 2) * quad(lambda th: radial(th) * math.sin(th) ** (n - 2),
                                            0.0, math.pi, epsabs=0, epsrel=1e-12)[0]

    return moment(0), moment(2)


# relative error bounds for int 1 and int |x - c|^2 at h = 1/16 (n = 2) and
# 1/8 (n = 3, 4): about twice the cut-cell rule's error and under a third of
# the error of a rule that drops the cells of out-of-mask nodes (-2% to -9%)
_ORACLE_TOL = {2: (6e-4, 7e-3), 3: (8e-3, 1.2e-2), 4: (1.6e-2, 5e-3)}


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted", "conformal"))
def test_integrate_matches_analytic_volume_and_second_moment(n, kind):
    dom = _oracle_domain(kind, n, 1 / 16 if n == 2 else 1 / 8)
    centre = dom.center
    volume, second = _exact_moments(kind, n)
    one = integrate(dom.field_from_function(lambda p: np.ones(len(p))))
    spread = integrate(dom.field_from_function(lambda p: np.sum((p - centre) ** 2, axis=-1)))
    tol_one, tol_second = _ORACLE_TOL[n]
    assert abs(one - volume) <= tol_one * volume
    assert abs(spread - second) <= tol_second * second
    # the cached weights are reused, not changed, by a later call
    assert integrate(dom.field_from_function(lambda p: np.ones(len(p)))) == one


def test_integrate_error_falls_second_order_n2():
    errors = [abs(integrate(_oracle_domain("ball", 2, h).field_from_function(
        lambda p: np.ones(len(p)))) - math.pi) for h in (1 / 32, 1 / 64, 1 / 128)]
    assert all(coarse >= 3.0 * fine for coarse, fine in zip(errors, errors[1:]))


def _lens_volume(n, big, small, gap):
    """Volume of B_big(0) n B_small(x) with |x| = gap, at n = 2 and 3."""
    if n == 2:
        kite = math.sqrt((small + big - gap) * (gap + small - big) * (gap - small + big)
                         * (gap + small + big))
        return (small**2 * math.acos((gap**2 + small**2 - big**2) / (2 * gap * small))
                + big**2 * math.acos((gap**2 + big**2 - small**2) / (2 * gap * big))
                - 0.5 * kite)
    return (math.pi * (big + small - gap) ** 2 / (12 * gap)
            * (gap**2 + 2 * gap * (small + big) - 3 * (small - big) ** 2))


# (domain, subregion, exact area) in the unit disk or half disk: a ball inside
# the domain, a lens across the domain's sphere, a ball across the flat plane
_SUBREGION_ORACLES = {
    "inside": ("ball", ([0.1, 0.05], 0.5), math.pi / 4),
    "lens": ("ball", ([0.6, 0.3], 0.75), _lens_volume(2, 1.0, 0.75, math.hypot(0.6, 0.3))),
    "plane": ("half_ball", ([0.0, 0.2], 0.3), 0.045 * math.pi),
}


@pytest.mark.parametrize("case", sorted(_SUBREGION_ORACLES))
def test_subregion_integral_error_falls_second_order(case):
    # a rule that drops the cells of nodes just outside the subregion sphere
    # is first order: -3e-3 to -1.5e-2 at h = 1/64, falling about 2x a halving
    kind, subregion, exact = _SUBREGION_ORACLES[case]
    make = make_ball_domain if kind == "ball" else make_half_ball_domain
    errors = [abs(integrate(make([0.0, 0.0], 1.0, h, 2).field_from_function(
        lambda p: np.ones(len(p))), subregion) / exact - 1.0) for h in (1 / 32, 1 / 64, 1 / 128)]
    assert errors[1] <= 1e-3
    assert all(coarse >= 3.0 * fine for coarse, fine in zip(errors, errors[1:]))


def test_subregion_lens_n3():
    dom = make_ball_domain([0.0] * 3, 1.0, 1 / 32, 3)
    lens = integrate(dom.field_from_function(lambda p: np.ones(len(p))), ([0.6, 0.3, 0.0], 0.75))
    assert lens == pytest.approx(_lens_volume(3, 1.0, 0.75, math.hypot(0.6, 0.3)), rel=1.5e-3)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_subregion_inside_one_cell_has_the_ball_volume(n):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    ball = make_ball_domain([0.0] * n, 1.0, h, n)
    half = make_half_ball_domain([0.0] * n, 1.0, h, n)
    node = np.zeros(n)
    node[1:] = h * np.arange(1, n)  # on the flat plane of the half ball
    inner = node + h * (np.arange(n) == 0)  # an interior node of both domains
    for radius in (0.3 * h, 0.5 * h):
        volume = vol_sphere(n - 1) / n * radius**n
        assert integrate(ball.field_from_function(lambda p: np.ones(len(p))),
                         (inner, radius)) == pytest.approx(volume, rel=1e-12, abs=0)
        assert integrate(half.field_from_function(lambda p: np.ones(len(p))),
                         (node, radius)) == pytest.approx(volume / 2, rel=1e-12, abs=0)


@pytest.mark.parametrize("n,h,tol", [(2, 1 / 32, 1e-12), (3, 1 / 16, 5e-3)])
def test_flat_flux_of_a_linear_field_is_the_flat_disk_area(n, h, tol):
    # e = 2 - x0 has outer normal derivative 1 on the plane, so the flux is |Z_r|;
    # at n = 2 the lateral cells are intervals and their shares are exact
    centre = [0.25] + [0.0] * (n - 1)
    dom = make_half_ball_domain(centre, 0.75, h, n)
    e = dom.field_from_function(lambda p: 2.0 - p[:, 0], density=False)
    rho = math.sqrt(0.5**2 - 0.25**2)
    area = vol_sphere(n - 2) / (n - 1) * rho ** (n - 1)
    assert flat_flux(e, centre, 0.5) == pytest.approx(area, rel=tol, abs=0)


def _integrate_reference(e, subregion=None):
    """The cut-cell integral with every cut cell redrawn on each call and the
    geometry recomputed from scratch: the tangent half space of the domain's
    sphere, out-of-mask cells handed over node by node, then each node's
    weight times the share of its cell (its half cell on the flat row) under
    the subregion sphere's tangent half space, node by node."""
    from mvlab.grid import cut_fractions

    dom = e.domain
    n, h = dom.dimension, dom.spacing
    pts = dom.points()
    in_mask = dom.in_mask.ravel()
    dist = dom.distance(pts)
    if dom.metric is None:
        sqrt_det = np.ones(len(pts))
    else:
        sqrt_det = np.sqrt(np.linalg.det(dom.metric(pts)))
    flat = (pts[:, 0] < 0.5 * h) & (dom.kind == "half_ball")
    frac = np.where(in_mask, np.where(flat, 0.5, 1.0), 0.0)
    band = np.flatnonzero(np.abs(dist - dom.radius) <= dom.cut_margin)
    if dom.metric is None:
        normal = (pts[band] - dom.center) / dist[band, None]
    else:
        gradient = np.gradient(dist.reshape(dom.shape), h)
        normal = np.stack([g.ravel()[band] for g in gradient], axis=-1)
    norm = np.linalg.norm(normal, axis=-1)
    cut = cut_fractions(normal / norm[:, None], (dom.radius - dist[band]) / (norm * h),
                        flat[band])
    frac[band] = 0.0
    weights = frac * sqrt_det
    centre = np.rint((dom.center - dom.origin) / h).astype(int)
    for node, part in zip(band, cut):
        index = np.array(np.unravel_index(node, dom.shape))
        off = index - centre
        axis_step = index.copy()
        major = int(np.argmax(np.abs(off)))
        axis_step[major] -= np.sign(off[major])
        for receiver in (index, axis_step, index - np.sign(off)):
            receiver = np.ravel_multi_index(tuple(receiver), dom.shape)
            if in_mask[receiver]:
                weights[receiver] += part * sqrt_det[node]
                break
    if subregion is not None:
        sub_center = np.asarray(subregion[0], dtype=float)
        sub_radius = float(subregion[1])
        margin = 0.5 * math.sqrt(n) * h
        for node in np.flatnonzero(in_mask):
            d_sub = float(np.linalg.norm(pts[node] - sub_center))
            cell = 0.5 if flat[node] else 1.0
            if d_sub < sub_radius - margin:
                share = 1.0
            elif d_sub > sub_radius + margin:
                share = 0.0
            elif d_sub == 0.0:
                share = min(1.0, vol_sphere(n - 1) / n * (sub_radius / h) ** n)
            else:
                share = cut_fractions((pts[node:node + 1] - sub_center) / d_sub,
                                      np.array([(sub_radius - d_sub) / h]),
                                      flat[node:node + 1])[0] / cell
            weights[node] *= share
    return float(np.sum(e.values.ravel()[in_mask] * weights[in_mask])) * h**n


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted", "conformal"))
def test_integrate_bitwise_equals_resampling_reference(n, kind):
    dom = _oracle_domain(kind, n, 1 / 16 if n == 2 else 1 / 8)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    # a subregion that crosses the domain's sphere (and the plane)
    sub_center = dom.center.copy()
    sub_center[:2] += (0.25, 0.5)
    # integrate sums in another order than the reference (one dot product
    # with the cached weights), so it may differ in the last bits; a wrong
    # receiver, normal or share moves these integrals by 1e-7 relative or more
    full = integrate(e)
    assert full == pytest.approx(_integrate_reference(e), rel=1e-12, abs=0)
    subregion = (sub_center, 0.75)
    assert integrate(e, subregion) == pytest.approx(_integrate_reference(e, subregion),
                                                    rel=1e-12, abs=0)
    # the cached weights are reused, not changed, by a later call
    assert integrate(e) == full


@pytest.mark.parametrize("n", (2, 3, 4))
def test_weak_test_values_equal_integrals_of_e_times_test_laplacian(n):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    dom = make_half_ball_domain([0.0] * n, 1.0, h, n)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    tests = default_test_set(dom)
    report = weak_subharmonic_test(e, tests)
    assert [name for name, _ in report.values] == [fn.name for fn in tests.functions]
    for fn, (_, value) in zip(tests.functions, report.values):
        product = e.values * fn.laplacian(dom.points()).reshape(dom.shape)
        scale = integrate(dom.make_field(np.abs(product), density=False))
        assert scale > 0
        expected = integrate(dom.make_field(product, density=False))
        assert abs(value - expected) <= 1e-12 * scale


def test_weak_test_samples_cells_no_more_than_one_integral(monkeypatch):
    from mvlab import grid

    calls = []
    original = grid.cube_fraction

    def counted(a, t):
        calls.append(len(t))
        return original(a, t)

    monkeypatch.setattr(grid, "cube_fraction", counted)
    integrand = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2).field_from_function(quadratic)
    integrate(integrand)
    one_integral = sum(calls)
    assert one_integral > 0
    calls.clear()
    e = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2).field_from_function(quadratic)
    weak_subharmonic_test(e)
    assert sum(calls) <= one_integral


def test_metric_laplacian_evaluates_the_metric_once_per_domain():
    import dataclasses

    calls = []
    base = conformal_metric(3, 0.01, axis=1)

    def matrix(points):
        calls.append(len(points))
        return base.matrix(points)

    dom = make_ball_domain([0.0] * 3, 0.5, 1 / 16, 3, dataclasses.replace(base, matrix=matrix))
    e = dom.field_from_function(lambda p: 1.0 + quadratic(p))
    before = len(calls)
    first = laplacian(e).values
    once = len(calls)
    assert once > before
    second = laplacian(e).values
    assert len(calls) == once
    assert np.array_equal(first, second, equal_nan=True)


def _subregion_integrate_full_box(e, sub_center, sub_radius):
    """A subregion integral that measures the distance to the subregion
    centre at every box node and picks its nodes from the whole box."""
    from mvlab.grid import cut_fractions

    dom = e.domain
    n, h = dom.dimension, dom.spacing
    pts = dom.points()
    sub_center = np.asarray(sub_center, dtype=float)
    d_sub = np.linalg.norm(pts - sub_center, axis=-1)
    margin = 0.5 * math.sqrt(n) * h
    nodes = np.flatnonzero(dom.in_mask.ravel() & (d_sub <= sub_radius + margin))
    share = (d_sub[nodes] < sub_radius - margin).astype(float)
    cut = np.abs(d_sub[nodes] - sub_radius) <= margin
    centre = d_sub[nodes] == 0.0
    cells = nodes[cut & ~centre]
    flat = (pts[cells, 0] < 0.5 * h) & (dom.kind == "half_ball")
    share[cut & ~centre] = cut_fractions((pts[cells] - sub_center) / d_sub[cells, None],
                                         (sub_radius - d_sub[cells]) / h,
                                         flat) / np.where(flat, 0.5, 1.0)
    share[centre] = min(1.0, vol_sphere(n - 1) / n * (sub_radius / h) ** n)
    nodes, share = nodes[share > 0.0], share[share > 0.0]
    return float(np.dot(e.values.ravel()[nodes], dom.weights.ravel()[nodes] * share))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in ("ball", "half_ball", "lifted")
                                    for n in (2, 3, 4)] + [("conformal", n) for n in (2, 3, 4)])
def test_subregion_integral_equals_full_box_reference(kind, n):
    h = 1 / 16 if n == 2 else 1 / 8
    center = np.zeros(n)
    if kind == "ball":
        dom = make_ball_domain(center, 1.0, h, n)
    elif kind == "conformal":
        dom = make_ball_domain(center, 1.0, h, n, conformal_metric(n, 0.01, axis=1))
    else:
        center[0] = 0.25 if kind == "lifted" else 0.0
        dom = make_half_ball_domain(center, 1.0, h, n)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    box_edge = dom.center.copy()
    box_edge[-1] = dom.origin[-1] + 0.5 * h
    across_plane = np.zeros(n)
    across_plane[:2] = (0.05, 0.3)
    subregions = [
        (box_edge, 0.6),                    # at the box edge
        (dom.center + 0.6, 0.5),            # crossing the domain's sphere
        (across_plane, 0.35),               # crossing the flat plane
        (dom.center, 0.5),                  # about the (lifted) centre
        (dom.center + 0.3 * h, 0.2),        # centre off the grid
        (dom.center, 3.0),                  # larger than the domain
    ]
    for sub_center, sub_radius in subregions:
        assert integrate(e, (sub_center, sub_radius)) == _subregion_integrate_full_box(
            e, sub_center, sub_radius)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("y0", (0.0, 0.25))
def test_test_function_laplacian_vanishes_outside_its_support(n, y0):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    dom = make_half_ball_domain([y0] + [0.0] * (n - 1), 1.0, h, n)
    pts = dom.in_mask_points()
    for fn in default_test_set(dom).functions:
        centre, radius = fn.support
        outside = np.linalg.norm(pts - centre, axis=-1) >= radius
        assert 0 < np.count_nonzero(outside) < len(pts)
        assert np.all(fn.laplacian(pts[outside]) == 0.0)
        assert np.all(fn.value(pts[outside]) == 0.0)
        assert np.any(fn.laplacian(pts[~outside]) != 0.0)
