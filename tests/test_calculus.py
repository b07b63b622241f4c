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
    judge,
    shell_nodes,
    t_integral_bound,
)
from mvlab.errors import (
    DomainNotHalfBall,
    MVLabError,
    RadiusBelowResolution,
    ShellExitsDomain,
    SubregionOutsideDomain,
)
from mvlab.grid import _ldl, _squared_gaps, cut_fractions


def quadratic(p):
    return np.sum(p**2, axis=-1)


def _weights_box(dom):
    """``Domain.weights`` scattered into the box, 0 off the mask."""
    out = np.zeros(dom.shape)
    out[dom.in_mask] = dom.weights
    return out


def _window_points(dom, win):
    """Coordinates of the in-mask nodes of a window, C order, from a meshgrid of its axes."""
    mesh = np.meshgrid(*(ax[part] for ax, part in zip(dom.axes, win)), indexing="ij")
    inside = dom.in_mask[win]
    return np.stack([m[inside] for m in mesh], axis=-1)


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
    lap = laplacian(e).box()
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
    lap = laplacian(e).box()
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
    assert np.isfinite(laplacian(e).box()[dom.center_distances() <= 0.8]).all()
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


def _shell_reference(e, center, radii):
    """shell_profile as shell_nodes + interpolate: per shell (r, M(r), node
    count, clipped), or the ShellExitsDomain message of the first shell that
    leaves the mask."""
    dom = e.domain
    y0 = float(center[0]) if dom.kind == "half_ball" else None
    out = []
    for r in radii:
        shell = shell_nodes(np.asarray(center, dtype=float), r, dom.dimension, dom.spacing, y0)
        vals = interpolate(e, shell.points)
        if not np.all(np.isfinite(vals)):
            return out, (f"shell r={shell.radius} leaves the domain mask "
                         f"({int(np.sum(~np.isfinite(vals)))} of {vals.size} nodes)")
        out.append((shell.radius, float(np.dot(shell.weights, vals)), vals.size, shell.clipped))
    return out, None


@pytest.mark.parametrize("n,h", ((2, 1 / 32), (3, 1 / 16), (4, 1 / 8)))
@pytest.mark.parametrize("where", ("ball", "plane", "lifted"))
@pytest.mark.parametrize("slab", (None, 64), ids=("one-block", "polar-blocks"))
def test_shell_profile_is_bitwise_shell_nodes_and_interpolate(where, n, h, slab, monkeypatch):
    from mvlab import calculus

    if slab is not None:  # a few polar rows a block
        monkeypatch.setattr(calculus, "_SHELL_BLOCK", slab)
    if where == "ball":
        dom, center = make_ball_domain([0.0] * n, 1.0, h, n), [0.125] + [-0.0625] * (n - 1)
    else:  # on the plane, or at y0 = 0.25, where the shells past 0.25 are clipped
        center = [0.0 if where == "plane" else 0.25] + [0.0] * (n - 1)
        dom = make_half_ball_domain(center, 1.0, h, n)
    e = dom.field_from_function(lambda p: np.exp(np.sin(3.0 * p[:, 0]) + p[:, -1]) + 1.0)
    radii = [4 * h, max(4 * h, 0.3) + 0.05, 0.6]
    want, error = _shell_reference(e, center, radii)
    assert error is None
    got = shell_profile(e, center, radii)
    assert [(s.r, s.m, s.node_count, s.clipped) for s in got.samples] == want
    assert all(type(s.m) is float for s in got.samples)
    assert any(s.clipped for s in got.samples) == (where != "ball")
    # a shell that leaves the mask: the same message, with the same count
    radii = [4 * h, 0.99, 1.2]
    want, error = _shell_reference(e, center, radii)
    assert error is not None and len(want) == 1
    with pytest.raises(ShellExitsDomain) as caught:
        shell_profile(e, center, radii)
    assert str(caught.value) == error


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
    for bad in (math.nan, math.inf):
        with pytest.raises(MVLabError, match=f"shell radius {bad} is not finite"):
            shell_profile(e, [0, 0], [0.4, bad, 0.6])


def test_interpolation_exact_on_linear():
    for n, h in ((2, 1 / 32), (3, 1 / 16), (4, 1 / 8)):
        dom = make_ball_domain([0.0] * n, 1.0, h, n)
        slope = np.array([3.0, -1.0, 0.5, 2.0][:n])
        e = dom.field_from_function(lambda p: 2.0 + p @ slope, density=False)
        pts = np.array([[0.013, 0.4, -0.21, 0.05], [-0.3, 0.22, 0.1, -0.17],
                        [0.0, 0.0, 0.0, 0.0]])[:, :n]
        vals = interpolate(e, pts)
        assert np.allclose(vals, 2.0 + pts @ slope, atol=1e-12), n


def test_interpolation_points_need_shape_m_by_n():
    dom = make_ball_domain([0.0] * 3, 1.0, 1 / 8, 3)
    e = dom.field_from_function(quadratic)
    for pts in (np.zeros((4, 4)), np.zeros((4, 2)), np.zeros(3), np.zeros((1, 4, 3))):
        with pytest.raises(MVLabError, match=r"shape \(m, 3\)"):
            interpolate(e, pts)
    assert interpolate(e, np.zeros((0, 3))).shape == (0,)


def _interpolate_reference(e, points):
    """Multilinear interpolation with one ``ravel_multi_index`` per corner
    and each corner weight built from ones, axis by axis."""
    import itertools

    dom = e.domain
    n = dom.dimension
    rel = (np.asarray(points, dtype=float) - dom.origin) / dom.spacing
    base = np.floor(rel).astype(int)
    frac = rel - base
    shape = np.asarray(dom.shape)
    valid = np.all((base >= 0) & (base + 1 <= shape - 1), axis=-1)
    base_safe = np.clip(base, 0, shape - 2)
    flat_vals = e.box().ravel()
    out = np.zeros(points.shape[0])
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones(points.shape[0])
        for ax, bit in enumerate(corner):
            w *= frac[:, ax] if bit else 1.0 - frac[:, ax]
        idx = base_safe + np.asarray(corner)
        lin = np.ravel_multi_index(tuple(idx.T), dom.shape)
        out += w * flat_vals[lin]
    out[~valid] = np.nan
    return out


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted", "conformal"))
def test_interpolate_bitwise_equals_per_corner_reference(n, kind):
    h = 1 / 16 if n == 2 else 1 / 8
    dom = _oracle_domain(kind, n, h)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    rng = np.random.default_rng(n)
    shape = np.asarray(dom.shape)
    # nodes, including the last node row of every axis and nodes one step
    # outside the box on either side
    index = rng.integers(-1, shape + 1, size=(400, n))
    index[:n, :] = shape - 1
    nodes = dom.origin + h * index
    # anywhere in the box and up to 2h beyond it: cells across the sphere
    # touch out-of-mask (NaN) nodes
    low, high = dom.origin - 2 * h, dom.origin + h * (shape + 1)
    scattered = rng.uniform(low, high, size=(2000, n))
    y0 = float(dom.center[0]) if kind in ("half_ball", "lifted") else None
    shells = [shell_nodes(dom.center, r, n, h, y0).points for r in (0.3, 0.6, 0.9, 1.2)]
    for pts in (nodes, scattered, *shells):
        vals = interpolate(e, pts)
        assert _bitwise_equal(vals, _interpolate_reference(e, pts))
    assert np.isnan(interpolate(e, nodes)).any()
    assert np.isfinite(interpolate(e, nodes)).any()
    assert np.isfinite(interpolate(e, scattered)).any()
    assert np.isnan(interpolate(e, scattered)).any()
    assert np.isfinite(interpolate(e, shells[1])).all()   # a whole shell, clipped on half-balls
    assert np.isnan(interpolate(e, shells[3])).any()      # a shell beyond the sphere


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


def _ball_shares(points, center, radius, h, flat):
    """Share of each node's cell (its half cell on the flat row, ``flat``)
    inside the ball B_radius(center), in as many dimensions as ``points`` has
    columns, from the gathered coordinates: the rule ``integrate`` applies to
    a subregion, kept here as it was written before it read its distances
    from the window's axes."""
    k = points.shape[1]
    margin = 0.5 * math.sqrt(k) * h
    d = np.sqrt(_squared_gaps(points.T, center))
    share = (d < radius - margin).astype(float)
    cut = np.flatnonzero((np.abs(d - radius) <= margin) & (d > 0.0))
    share[cut] = cut_fractions((points[cut] - center) / d[cut, None], (radius - d[cut]) / h,
                               flat[cut]) / np.where(flat[cut], 0.5, 1.0)
    share[d == 0.0] = min(1.0, vol_sphere(k - 1) / k * (radius / h) ** k)
    return share


def _subregion_integrate_gathered(e, sub_center, sub_radius):
    """A subregion integral from the window's gathered in-mask coordinates
    and window-sized copies of the values, weights and mask."""
    dom = e.domain
    h = dom.spacing
    sub_center = np.asarray(sub_center, dtype=float)
    win = dom.window(sub_center, sub_radius + 0.5 * math.sqrt(dom.dimension) * h)
    sel = dom.in_mask[win].ravel()
    pts = _window_points(dom, win)
    flat = (pts[:, 0] < 0.5 * h) & (dom.kind == "half_ball")
    share = _ball_shares(pts, sub_center, sub_radius, h, flat)
    keep = share > 0.0
    weights = _weights_box(dom)[win].ravel()[sel][keep] * share[keep]
    return float(np.dot(e.box()[win].ravel()[sel][keep], weights))


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball"))
def test_subregion_integral_bitwise_equals_gathered_point_shares(kind, n):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    dom = _oracle_domain(kind, n, h)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    on_plane = np.zeros(n)
    on_plane[1] = 0.25
    subregions = [
        (dom.center, 0.4),                  # holds the centre node, d = 0
        (dom.center, 0.3 * h),              # the centre node alone, inside one cell
        (on_plane, 0.3),                    # centred on the flat row (x0 = 0 on half-balls)
        (on_plane + 0.37 * h, 0.45),        # off the grid, across the plane and the sphere
        (dom.center + 0.55, 0.6),           # crossing the domain's sphere
    ]
    for sub_center, sub_radius in subregions:
        got = np.float64(integrate(e, (sub_center, sub_radius)))
        want = np.float64(_subregion_integrate_gathered(e, sub_center, sub_radius))
        assert got.view(np.uint64) == want.view(np.uint64), (sub_center, sub_radius)


def _flat_flux(e, center, r):
    """int over Z_r (the flat disk of D_r(center)) of the outer normal
    derivative: each flat node's lateral cell weighted by its share of the
    disk (``_ball_shares`` in n - 1 dimensions)."""
    dom = e.domain
    center = np.asarray(center, dtype=float)
    y0 = float(center[0])
    if y0 >= r:
        return 0.0
    bv = normal_derivative(e)
    lat = bv.points[:, 1:]
    share = _ball_shares(lat, center[1:], math.sqrt(r**2 - y0**2), dom.spacing,
                         np.zeros(len(lat), dtype=bool))
    sel = (share > 0.0) & bv.finite()
    return float(np.dot(bv.values[sel], share[sel])) * dom.spacing ** (dom.dimension - 1)


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
        flat = _flat_flux(e, [0.25, 0.0], r)
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
    """The Laplacian built box-wide from full-array shifted copies of the
    field's box, one per neighbour."""
    dom = e.domain
    n, h, v = dom.dimension, dom.spacing, e.box()

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


@pytest.mark.parametrize("n,kind", [
    (2, None), (3, None), (4, None),
    (2, "conformal"), (3, "conformal"), (4, "conformal"), (2, "sine"), (3, "sine"),
    (2, "half_ball"), (3, "half_ball"), (4, "half_ball"), (2, "lifted"), (3, "lifted"),
])
def test_laplacian_bitwise_equals_shifted_copy_reference(n, kind, monkeypatch):
    from mvlab import calculus

    fn = lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p)  # noqa: E731
    if kind in ("half_ball", "lifted"):
        # the flat row is the first row of the box: its stencil steps off the box
        dom = make_half_ball_domain([0.25 if kind == "lifted" else 0.0] + [0.0] * (n - 1),
                                    0.5, 1 / 16, n)
        assert dom.flat_plane_index == 0
    else:
        spec = {None: None, "conformal": conformal_metric(n, 0.01, axis=1),
                "sine": sine_metric(n, 0.02, entry=(0, 1), axis=1)}[kind]
        dom = make_ball_domain([0.0] * n, 0.5, 1 / 16, n, spec)
    e = dom.field_from_function(fn)
    # a field stores no value off the mask (a box is refused), so no stencil reads one
    with pytest.raises(MVLabError):
        dom.make_field(fn(dom.points()).reshape(dom.shape))
    want = _laplacian_reference(e)
    assert np.count_nonzero(np.isnan(want[dom.in_mask])) > 0
    # the default slabs, then one and two axis-0 rows a slab: every row
    # boundary is a slab boundary once
    for rows in (None, 1, 2):
        if rows is not None:
            monkeypatch.setattr(calculus, "_SLAB", rows * math.prod(dom.shape[1:]))
        assert _bitwise_equal(laplacian(e).box(), want), rows


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
    assert _flat_flux(e, centre, 0.5) == pytest.approx(area, rel=tol, abs=0)


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
    return float(np.sum(e.box().ravel()[in_mask] * weights[in_mask])) * h**n


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball"))
def test_a_reflected_field_integrates_alike_on_a_symmetric_domain(kind, n):
    # a reflection of the domain maps its cut cells onto cells with the same
    # fractions, bit for bit, so reflecting the field moves the integrals, in
    # full and over a ball about the centre, by the summation order alone
    dom = _oracle_domain(kind, n, 1 / 16 if n == 3 else 1 / 8)

    def fn(p):
        return 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + np.sin(p @ np.arange(1.0, n + 1))

    e = dom.field_from_function(fn, density=False)
    scale = integrate(dom.field_from_function(lambda p: np.abs(fn(p))))
    axes = range(n) if kind == "ball" else range(1, n)  # a half-ball's axis 0 is fixed
    for ax in axes:
        flip = np.ones(n)
        flip[ax] = -1.0
        reflected = dom.field_from_function(lambda p: fn(p * flip), density=False)
        assert not np.allclose(reflected.values, e.values)  # the field is not symmetric
        for subregion in (None, (dom.center, 0.6)):
            gap = abs(integrate(reflected, subregion) - integrate(e, subregion))
            assert gap <= 1e-14 * scale * math.log2(dom.node_count), (ax, subregion)


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
    weights = _weights_box(dom)
    for fn, (_, value) in zip(tests.functions, report.values):
        # bitwise one dot product over the in-mask nodes of the support's window
        win = dom.window(*fn.support)
        inside = dom.in_mask[win]
        window_dot = np.dot(fn.laplacian(_window_points(dom, win)),
                            e.box()[win][inside] * weights[win][inside])
        assert value == window_dot
        product = e.box() * fn.laplacian(dom.points()).reshape(dom.shape)
        scale = integrate(dom.make_field(np.abs(product[dom.in_mask]), density=False))
        assert scale > 0
        expected = integrate(dom.make_field(product[dom.in_mask], density=False))
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


def _metric_laplacian_reference(e):
    """The metric Laplacian as it was computed box-wide: a flux at every box
    node from shifted views of the NaN-padded field, with the face metric
    scattered into boxes that are NaN off the mask, then NaN off the mask."""
    from mvlab.grid import _pad, _shifted

    dom = e.domain
    h, v = dom.spacing, e.box()
    padded = _pad(v, np.nan)
    div = np.zeros_like(v)
    for ax, (sqrt_det, rows) in enumerate(dom.face_metric):
        sqrt_det_face = np.full(dom.shape, np.nan)
        sqrt_det_face[dom.in_mask] = sqrt_det
        inv_rows = np.full((dom.dimension,) + dom.shape, np.nan)
        inv_rows[:, dom.in_mask] = rows
        flux = np.zeros_like(v)
        for j, inv_row in enumerate(inv_rows):
            if j == ax:
                dj = (_shifted(padded, {ax: 1}) - v) / h
            else:
                cj_here = (_shifted(padded, {j: 1})
                           - _shifted(padded, {j: -1})) / (2.0 * h)
                cj_there = (_shifted(padded, {ax: 1, j: 1})
                            - _shifted(padded, {ax: 1, j: -1})) / (2.0 * h)
                dj = 0.5 * (cj_here + cj_there)
            flux += inv_row * dj
        flux *= sqrt_det_face
        div += (flux - _shifted(_pad(flux, np.nan), {ax: -1})) / h
    lap = -div / dom.sqrt_det_metric()
    lap[~dom.in_mask] = np.nan
    return lap


# spacings that are not powers of two, so that dividing by h rounds
@pytest.mark.parametrize("n,h", ((2, 1 / 30), (3, 1 / 15), (4, 2 / 17)))
@pytest.mark.parametrize("kind", ("conformal", "sine", "polynomial"))
def test_metric_laplacian_at_in_mask_nodes_is_bitwise_the_box_wide_one(kind, n, h, monkeypatch):
    from mvlab import calculus, polynomial_metric

    metric = {"conformal": lambda: conformal_metric(n, 0.01, axis=1),
              "sine": lambda: sine_metric(n, 0.02, entry=(0, 1), axis=1),
              "polynomial": lambda: polynomial_metric(
                  n, [(0, 0, 0.01, (0, 2) + (0,) * (n - 2)),
                      (0, 1, 0.005, (1, 1) + (0,) * (n - 2))], 0.03)}[kind]()
    fn = lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, -1]) + quadratic(p)  # noqa: E731
    slab = calculus._SLAB
    for center in ([0.0] * n, [0.25, -0.125] + [0.0625] * (n - 2)):
        dom = make_ball_domain(center, 1.0, h, n, metric)
        e = dom.field_from_function(fn, density=False)
        want = _metric_laplacian_reference(e)
        # NaN where a stencil or a face below leaves the mask, compared too
        assert np.isnan(want[dom.in_mask]).any() and np.isfinite(want).any()
        # the default slabs, then one and two axis-0 rows a slab: the fluxes
        # of a slab's halo row cross every row boundary once
        for rows in (None, 1, 2):
            monkeypatch.setattr(calculus, "_SLAB", slab if rows is None
                                else rows * math.prod(dom.shape[1:]))
            assert _bitwise_equal(laplacian(e).box(), want), rows


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
    return float(np.dot(e.box().ravel()[nodes], _weights_box(dom).ravel()[nodes] * share))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in ("ball", "half_ball", "lifted")
                                    for n in (2, 3, 4)] + [("conformal", n) for n in (2, 3, 4)])
def test_subregion_integral_equals_full_box_reference(kind, n, monkeypatch):
    from mvlab import grid

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
    # the window's rows in one block, then in blocks of a few rows
    for chunk in (grid._CHUNK, 64):
        monkeypatch.setattr(grid, "_CHUNK", chunk)
        for sub_center, sub_radius in subregions:
            assert integrate(e, (sub_center, sub_radius)) == _subregion_integrate_full_box(
                e, sub_center, sub_radius), chunk


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


def _bump_lap_ordinary_reference(s, dim):
    inside = s < 1.0
    one = 1.0 - s**2
    bpp = -8.0 * one**3 + 48.0 * s**2 * one**2
    bp_over_s = -8.0 * one**3
    return np.where(inside, bpp + (dim - 1) * bp_over_s, 0.0)


def _radial_bump_lap_reference(p, radius, dim):
    """The radial bump's Laplacian evaluated at every point, 0 off s < 1."""
    def lap(pts):
        s = np.linalg.norm(pts - p, axis=-1) / radius
        return -_bump_lap_ordinary_reference(s, dim) / radius**2

    return lap


def _cosine_bump_lap_reference(p_lat, span, lat_radius, n):
    """The cosine bump's Laplacian evaluated at every point, each factor
    0 off its own condition (s < 1, x0 < span)."""
    def lap(pts):
        s = np.linalg.norm(pts[:, 1:] - p_lat, axis=-1) / lat_radius
        t = pts[:, 0]
        u = np.pi * np.minimum(t, span) / span
        c = np.where(t < span, (0.5 * (1.0 + np.cos(u))) ** 2, 0.0)
        cdd = np.where(t < span, -0.5 * (np.pi / span) ** 2
                       * ((1.0 + np.cos(u)) * np.cos(u) - np.sin(u) ** 2), 0.0)
        bump = np.where(s < 1.0, (1.0 - s**2) ** 4, 0.0)
        lat = _bump_lap_ordinary_reference(s, n - 1) / lat_radius**2
        return -(cdd * bump + c * lat)

    return lap


def _default_test_set_with_references(dom, monkeypatch):
    """``default_test_set(dom)`` and, per function, its reference Laplacian,
    rebuilt from the arguments the set passed to its constructor."""
    from mvlab import calculus

    references = []
    for name, reference in (("radial_bump", _radial_bump_lap_reference),
                            ("cosine_bump", _cosine_bump_lap_reference)):
        def record(fn_name, *args, _build=getattr(calculus, name), _reference=reference):
            references.append(_reference(*args))
            return _build(fn_name, *args)

        monkeypatch.setattr(calculus, name, record)
    tests = default_test_set(dom)
    monkeypatch.undo()
    return tests, references


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("y0", (0.0, 0.25))
def test_weak_test_and_test_laplacians_bitwise_equal_full_window_references(n, y0,
                                                                            monkeypatch):
    from mvlab.calculus import TestFunction, WeakTestSet

    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    dom = make_half_ball_domain([y0] + [0.0] * (n - 1), 1.0, h, n)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + quadratic(p))
    tests, references = _default_test_set_with_references(dom, monkeypatch)
    assert len(references) == len(tests)
    inside = dom.in_mask_points()
    # the mirror image below the plane, where the cosine profile is not 0
    mirrored = inside * np.where(np.arange(n) == 0, -1.0, 1.0)
    pts = np.concatenate([inside, mirrored])
    for fn, reference in zip(tests.functions, references):
        assert _bitwise_equal(fn.laplacian(pts), reference(pts))
    report = weak_subharmonic_test(e, tests)
    reference_set = WeakTestSet(tuple(
        TestFunction(fn.name, fn.value, reference, fn.support)
        for fn, reference in zip(tests.functions, references)))
    expected = weak_subharmonic_test(e, reference_set)
    assert [name for name, _ in report.values] == [name for name, _ in expected.values]
    assert _bitwise_equal(np.array([v for _, v in report.values]),
                          np.array([v for _, v in expected.values]))


@pytest.mark.parametrize("tol", [0.0, 1 / 64, 10 / 16])
def test_judge_holds_down_to_minus_tol(tol):
    assert judge([("edge", -tol)], tol) is None
    assert judge([("a", 1.0), ("edge", -tol), ("zero", 0.0)], tol) is None
    assert judge([("a", 1.0), ("below", float(np.nextafter(-tol, -np.inf)))], tol) == "below"
    assert judge([("a", 1.0), ("nan", math.nan), ("b", -1e9)], tol) == "nan"
    assert judge([("inf", math.inf), ("-inf", -math.inf)], tol) == "-inf"
    assert judge([], tol) is None


def test_judge_reads_a_generator_up_to_its_first_failure():
    read = []

    def margins():
        for label, margin in (("a", 0.5), ("b", -2.0), ("c", math.nan), ("d", 1.0)):
            read.append(label)
            yield label, margin

    assert judge(margins(), 1.0) == "b"
    assert read == ["a", "b"]
