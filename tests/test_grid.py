"""Grid construction, masks, and metric handling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvlab import (
    FLAT_BOUNDARY,
    INTERIOR,
    conformal_metric,
    identity_metric,
    make_ball_domain,
    make_half_ball_domain,
    metric_deviation,
    polynomial_metric,
    sine_metric,
)
from mvlab.errors import (
    CenterBelowBoundary,
    CenterOffGrid,
    GridTooLarge,
    MetricNotPositiveDefinite,
    MVLabError,
    ResolutionTooCoarse,
)


def test_euclidean_disk_node_count():
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    expected = np.pi / h**2
    boundary_layer = 2 * np.pi / h  # one node ring
    assert abs(dom.node_count - expected) < boundary_layer


def test_resolution_too_coarse():
    with pytest.raises(ResolutionTooCoarse):
        make_ball_domain([0, 0], 1.0, 1 / 4, 2)


def test_center_is_node():
    dom = make_ball_domain([0.25, -0.5], 0.5, 1 / 32, 2)
    idx = dom.node_index([0.25, -0.5])
    assert np.allclose(dom.node_point(idx), [0.25, -0.5])
    assert dom.mask[idx] == INTERIOR


def test_conformal_metric_mask_matches_bruteforce():
    # oracle: for g = (1 + c x1) * identity centered at 0 the first-order
    # corrected distance is |x| (1 + c x1 / 4), solved in closed form
    h = 1 / 64
    c = 0.01
    metric = conformal_metric(2, c, axis=1)
    dom = make_ball_domain([0, 0], 1.0, h, 2, metric)

    pts = dom.points()
    corrected = np.linalg.norm(pts, axis=-1) * (1.0 + 0.25 * c * pts[:, 1])
    oracle_count = int(np.count_nonzero(corrected < 1.0))
    assert dom.node_count == oracle_count

    euclid = make_ball_domain([0, 0], 1.0, h, 2)
    assert abs(dom.node_count - euclid.node_count) / euclid.node_count < 0.02


def test_half_ball_flat_segment():
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    flat = np.argwhere(dom.mask == FLAT_BOUNDARY)
    assert flat.size > 0
    coords = dom.origin + h * flat
    assert np.all(np.abs(coords[:, 0]) < 1e-12)
    width = dom.flat_node_count * h
    assert abs(width - 2.0) < 3 * h


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("y0", (0.0, 0.25, 0.5))
def test_flat_nodes_are_one_run_of_the_in_mask_vector(n, y0):
    dom = make_half_ball_domain([y0] + [0.0] * (n - 1), 1.0, 1 / 8, n)
    row = dom.flat_plane_index
    run = dom._mask_nodes[dom._row_starts[row]:dom._row_starts[row + 1]]
    assert np.array_equal(run, np.flatnonzero(dom.mask == FLAT_BOUNDARY))
    assert dom.flat_node_count == len(run) > 0
    assert dom.node_count == np.count_nonzero(dom.mask)


def test_half_ball_center_above_radius_equals_ball():
    h = 1 / 64
    hb = make_half_ball_domain([2.0, 0.0], 1.0, h, 2)
    ball = make_ball_domain([2.0, 0.0], 1.0, h, 2)
    assert hb.flat_node_count == 0
    assert hb.shape == ball.shape
    assert np.array_equal(hb.in_mask, ball.in_mask)


def test_half_ball_clipped_width():
    h = 1 / 64
    dom = make_half_ball_domain([0.5, 0.0], 1.0, h, 2)
    width = dom.flat_node_count * h
    assert abs(width - np.sqrt(3.0)) <= 2 * h


def test_half_ball_errors():
    with pytest.raises(CenterBelowBoundary):
        make_half_ball_domain([-0.1, 0.0], 1.0, 1 / 64, 2)
    with pytest.raises(CenterOffGrid):
        make_half_ball_domain([0.013, 0.0], 1.0, 1 / 64, 2)


@pytest.mark.parametrize("make", (make_ball_domain, make_half_ball_domain))
@pytest.mark.parametrize("args,error,message", [
    (([0.0] * 5, 1.0, 1 / 64, 5), MVLabError, r"dimension 5 not in \(2, 3, 4\)"),
    (([0.0] * 3, 1.0, 1 / 64, 2), MVLabError, "center must have 2 components"),
    (([0.0, 0.0], -1.0, 1 / 64, 2), MVLabError, "radius and spacing must be positive"),
    (([0.0, 0.0], 1.0, 0.0, 2), MVLabError, "radius and spacing must be positive"),
    (([0.0, 0.0], 1.0, 1 / 4, 2), ResolutionTooCoarse, r"spacing h=0.25 exceeds r/8=0.125"),
    (([0.0, 0.0], 1.0, math.nan, 2), MVLabError, "must be positive and finite"),
    (([0.0, 0.0], math.inf, 1 / 64, 2), MVLabError, "must be positive and finite"),
    (([math.nan, 0.0], 1.0, 1 / 64, 2), MVLabError, r"center must be finite, got \[nan, 0.0\]"),
    (([0.0, math.inf], 1.0, 1 / 64, 2), MVLabError, r"center must be finite, got \[0.0, inf\]"),
])
def test_both_domain_builders_check_the_grid_arguments_alike(make, args, error, message):
    with pytest.raises(error, match=message):
        make(*args)


def test_half_ball_center_below_the_plane_is_reported_before_coarse_spacing():
    with pytest.raises(CenterBelowBoundary):
        make_half_ball_domain([-0.25, 0.0], 1.0, 1 / 4, 2)


def test_interior_nodes_have_full_neighborhoods():
    dom = make_half_ball_domain([0.25, 0.0], 0.5, 1 / 16, 2)
    inside = dom.in_mask
    interior = dom.mask == INTERIOR
    for ax in range(2):
        for step in (+1, -1):
            shifted = np.roll(inside, -step, axis=ax)
            # roll wraps; wrapped entries are outside the ball anyway
            assert np.all(shifted[interior])


def test_mask_monotone_in_radius():
    h = 1 / 32
    small = make_ball_domain([0, 0], 0.5, h, 2)
    big = make_ball_domain([0, 0], 0.75, h, 2)
    pts_small = {tuple(p) for p in np.round(small.in_mask_points() / h).astype(int)}
    pts_big = {tuple(p) for p in np.round(big.in_mask_points() / h).astype(int)}
    assert pts_small <= pts_big


def test_refinement_volume_consistency():
    vol = {}
    for h in (1 / 16, 1 / 32):
        dom = make_ball_domain([0, 0], 1.0, h, 2)
        vol[h] = dom.node_count * h**2
    assert abs(vol[1 / 16] - vol[1 / 32]) <= 2 * (1 / 16)
    assert abs(vol[1 / 32] - np.pi) < abs(vol[1 / 16] - np.pi) + 1e-12


def test_metric_deviation_values():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    assert metric_deviation(identity_metric(2), dom) == 0.0

    const = polynomial_metric(2, [(0, 0, 0.03, (0, 0)), (1, 1, 0.03, (0, 0))], 0.03)
    dev = metric_deviation(const, dom)
    assert abs(dev - 0.03) < 1e-12

    h = 1 / 64
    wavy = sine_metric(2, 0.01, entry=(0, 0), axis=1)
    dev2 = metric_deviation(wavy, dom)
    assert abs(dev2 - 0.01) <= 10 * h**2


def test_metric_positive_definite_rejected():
    bad = polynomial_metric(2, [(0, 0, -2.0, (0, 0))], 2.0)
    with pytest.raises(MetricNotPositiveDefinite):
        make_ball_domain([0, 0], 1.0, 1 / 32, 2, bad)


def test_three_and_four_dimensional_masks():
    dom3 = make_ball_domain([0, 0, 0], 0.5, 1 / 16, 3)
    vol3 = dom3.node_count * (1 / 16) ** 3
    assert abs(vol3 - 4 * np.pi / 3 * 0.5**3) < 0.05
    dom4 = make_half_ball_domain([0.0, 0, 0, 0], 0.25, 1 / 32, 4)
    assert dom4.flat_node_count > 0
    vol4 = dom4.node_count * (1 / 32) ** 4
    assert abs(vol4 - 0.5 * np.pi**2 / 2 * 0.25**4) < 0.002


def test_density_field_validation():
    dom = make_ball_domain([0, 0], 0.5, 1 / 16, 2)
    with pytest.raises(MVLabError):
        dom.field_from_function(lambda p: p[:, 0])  # signed values as density
    f = dom.field_from_function(lambda p: p[:, 0], density=False)
    assert f.at([0.25, 0.0]) == 0.25


def test_field_at_is_nan_off_the_mask():
    dom = make_ball_domain([0, 0], 0.5, 1 / 16, 2)
    f = dom.field_from_function(lambda p: 1.0 + p[:, 0], density=False)
    box = f.box()
    first, last = dom.origin, dom.node_point(np.asarray(dom.shape) - 1)
    for point in (first, last, [0.5, 0.0], [0.4375, 0.25]):  # box corners, off the sphere
        index = dom.node_index(point)
        assert not dom.in_mask[index]
        assert math.isnan(f.at(point)) and math.isnan(box[index])
    for point in ([0.0, 0.0], [0.4375, 0.0], [-0.25, 0.3125]):
        assert dom.in_mask[dom.node_index(point)]
        assert f.at(point) == box[dom.node_index(point)] == 1.0 + point[0]


def test_understated_metric_deviation_rejected():
    # declared deviation must cover the measured W^{1,inf} distance
    lying = polynomial_metric(2, [(0, 0, 0.04, (0, 0)), (1, 1, 0.04, (0, 0))],
                              declared_deviation=0.001)
    with pytest.raises(MVLabError):
        make_ball_domain([0, 0], 1.0, 1 / 32, 2, lying)


def test_metric_deviation_is_nan_for_a_nan_metric(monkeypatch):
    from mvlab import grid

    def tilted(points, hole=True):
        g = np.broadcast_to(np.eye(2), points.shape[:-1] + (2, 2)).copy()
        g[..., 0, 0] += 0.3 * points[..., 1]
        if hole:
            g[points[..., 0] > 0.2, 0, 0] = np.nan
        return g

    dom = make_ball_domain([0, 0], 0.5, 1 / 16, 2, conformal_metric(2, 0.01))
    # the finite deviation keeps its bits; one NaN node makes the whole pass NaN
    assert metric_deviation(grid.MetricSpec(2, lambda p: tilted(p, False), 0.5), dom) \
        == 0.3000000000000007
    assert math.isnan(metric_deviation(grid.MetricSpec(2, tilted, 0.5), dom))
    # the positive-definite gate rejects such a metric first; past it, a NaN
    # measured deviation is above any declared one
    monkeypatch.setattr(grid, "metric_deviation", lambda metric, domain: math.nan)
    with pytest.raises(MVLabError, match="metric deviates by nan"):
        make_ball_domain([0, 0], 0.5, 1 / 16, 2, conformal_metric(2, 0.01))


@pytest.mark.parametrize("build, message", [
    (lambda: conformal_metric(2, math.nan), r"'coefficient' must be finite, got nan"),
    (lambda: sine_metric(2, math.inf), r"'coefficient' must be finite, got inf"),
    (lambda: polynomial_metric(2, [(0, 0, math.nan, (0, 0))], 0.1), r"bad metric term \(0,0,c=nan"),
    (lambda: conformal_metric(2, 0.01, declared_deviation=math.nan), "'declared_deviation'"),
    (lambda: sine_metric(2, 0.01, declared_deviation=math.inf), "'declared_deviation'"),
    (lambda: polynomial_metric(2, [], -0.1), "'declared_deviation'"),
    (lambda: conformal_metric(2, 0.01, axis=5), r"'axis' must be in 0\.\.1, got \[5\]"),
    (lambda: conformal_metric(2, 0.01, axis=-1), r"'axis' must be in 0\.\.1, got \[-1\]"),
    (lambda: sine_metric(2, 0.01, entry=(0, 7)), r"'entry' must be in 0\.\.1, got \[0, 7\]"),
    (lambda: sine_metric(3, 0.01, axis=3), r"'axis' must be in 0\.\.2, got \[3\]"),
])
def test_metric_presets_reject_malformed_parameters(build, message):
    # raised when the metric is made, before any box is sized from it
    with pytest.raises(MVLabError, match=message):
        build()


def test_custom_metric_declared_deviation_must_be_finite_and_nonnegative():
    from mvlab.grid import MetricSpec

    eye = identity_metric(2).matrix
    for bad in (math.nan, math.inf, -0.01):
        with pytest.raises(MVLabError, match="declared_deviation"):
            MetricSpec(2, eye, declared_deviation=bad)
    assert MetricSpec(2, eye, declared_deviation=0.0).declared_deviation == 0.0


@pytest.mark.parametrize("metric", (None, conformal_metric(2, 0.01, axis=1)))
def test_domain_arrays_are_read_only(metric):
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2, metric)
    arrays = [dom.mask, dom.in_mask, dom.points(), dom.center_distances(),
              dom.sqrt_det_metric(), dom.weights, *dom.axes]
    if metric is not None:
        arrays += [a for face in dom.face_metric for a in face]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 1
        with pytest.raises(ValueError):
            array.ravel()[0] = 1
    # the caches are kept: a second read hands back the same array; points()
    # is built on each call, from the kept axes
    assert dom.axes is dom.axes and dom.mask is dom.mask
    half = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2)
    with pytest.raises(ValueError):
        half.mask[0, 0] = FLAT_BOUNDARY


def test_field_values_are_read_only():
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2)
    values = np.ones(dom.node_count)
    fields = [dom.make_field(values), dom.field_from_function(lambda p: 1.0 + p[:, 0] ** 2),
              dom.make_field(-values, density=False),
              dom.make_field(np.where(dom.in_mask, 1.0, np.nan)[dom.in_mask])]
    for f in fields:
        with pytest.raises(ValueError):
            f.values[0] = -1.0
    # the in-mask vector handed in is the field's own, so it is frozen too
    with pytest.raises(ValueError):
        values[0] = -1.0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_window_covers_every_node_within_its_radius(n):
    dom = make_half_ball_domain([0.25] + [0.0] * (n - 1), 1.0, 1 / 8, n)
    pts = dom.points().reshape(dom.shape + (n,))
    rng = np.random.default_rng(n)
    # on a node, at the box edge, beyond the box, larger than the box, random
    balls = [(dom.center, 0.5), (dom.origin, 0.3), (dom.origin - 0.5, 0.2),
             (dom.center, 10.0), (dom.center + 0.375, 0.25)]
    balls += [(dom.center + rng.uniform(-1.5, 1.5, n), rng.uniform(0.0, 1.0))
              for _ in range(20)]
    for center, radius in balls:
        win = dom.window(center, radius)
        outside = np.ones(dom.shape, dtype=bool)
        outside[win] = False
        assert np.all(np.linalg.norm(pts[outside] - center, axis=-1) > radius)
        assert all(0 <= w.start <= w.stop <= k for w, k in zip(win, dom.shape))


@pytest.mark.parametrize("metric", (conformal_metric(3, 0.01, axis=1),
                                    sine_metric(3, 0.02, entry=(0, 1), axis=1)))
def test_face_metric_evaluates_the_metric_at_in_mask_nodes_only(metric):
    import dataclasses

    calls = []

    def matrix(points):
        calls.append(len(points))
        return metric.matrix(points)

    dom = make_ball_domain([0.0] * 3, 0.5, 1 / 16, 3, dataclasses.replace(metric, matrix=matrix))
    dom.in_mask  # the mask's geodesic distances evaluate the metric too
    calls.clear()
    faces = dom.face_metric
    assert sum(calls) == 3 * dom.node_count
    # stored at the in-mask nodes only, in C order, every entry finite
    for sqrt_det, rows in faces:
        assert sqrt_det.shape == (dom.node_count,) and rows.shape == (3, dom.node_count)
        assert np.isfinite(sqrt_det).all() and np.isfinite(rows).all()


def test_oversized_box_raises_before_allocating():
    import math
    import tracemalloc

    # n = 4, h = 1/64, r = 1: a 131^4 ball box, about 294M nodes, whose node
    # coordinates alone would take about 9.4 GB; the conformal ball's box is
    # padded to 143^4, the half-ball's is 66 x 131^3
    cases = [(lambda: make_ball_domain([0.0] * 4, 1.0, 1 / 64, 4), (131,) * 4),
             (lambda: make_ball_domain([0.0] * 4, 1.0, 1 / 64, 4,
                                       conformal_metric(4, 0.01, axis=1)), (143,) * 4),
             (lambda: make_half_ball_domain([0.0] * 4, 1.0, 1 / 64, 4), (66,) + (131,) * 3)]
    tracemalloc.start()
    try:
        for build, shape in cases:
            nodes = math.prod(shape)
            with pytest.raises(GridTooLarge, match=f"{nodes:,} nodes.*{nodes * 4 * 8:,} bytes"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert math.prod(cases[0][1]) == 294_499_921
    assert issubclass(GridTooLarge, MVLabError)
    # the largest box the benchmark builds (n = 4, h = 1/16) stays far below
    assert make_ball_domain([0.0] * 4, 1.0, 1 / 16, 4).shape == (35,) * 4


# -- closed-form cut cells -----------------------------------------------------


def _exact_cube_fraction(a, t):
    """Vol{w in [-1/2, 1/2]^n : a . w <= t} in exact rational arithmetic, with
    every nonzero component kept."""
    import itertools
    import math
    from fractions import Fraction

    a = [abs(Fraction(float(x))) for x in a]
    t = Fraction(float(t)) + sum(a) / 2  # from the lowest corner
    a = [x for x in a if x != 0]
    if not a:
        return float(t >= 0)
    total = Fraction(0)
    for v in itertools.product((0, 1), repeat=len(a)):
        x = t - sum(x for x, bit in zip(a, v) if bit)
        if x > 0:
            total += (-1) ** sum(v) * x ** len(a)
    return float(min(max(total / (math.factorial(len(a)) * math.prod(a)), 0), 1))


def _cube_fraction(a, t):
    from mvlab.grid import cube_fraction

    return float(cube_fraction(np.asarray([a], dtype=float), np.asarray([t], dtype=float))[0])


# rounding of the vertex sum with every kept component at least 1e-5 of the
# largest (``grid._DROP``): about 200 u / (m! prod of the kept components but
# the smallest, over the largest); largest at n = 4 with two of them small
_ROUNDING = {2: 1e-13, 3: 1e-9, 4: 1e-5}


def test_cube_fraction_known_volumes():
    for n in (2, 3, 4):
        axis = np.eye(n)[0]
        # w_0 <= t on [-1/2, 1/2]^n
        assert _cube_fraction(axis, -0.2) == pytest.approx(0.3, abs=1e-15)
        assert _cube_fraction(-np.eye(n)[-1], 0.2) == pytest.approx(0.7, abs=1e-15)
        assert _cube_fraction(axis, 1.2) == 1.0 and _cube_fraction(axis, -0.6) == 0.0
    # the corner simplex s^n / n!, s the offset from the lowest corner, and
    # halves by symmetry through the centre
    for s, volume in ((0.5, 1 / 8), (1.0, 1 / 2), (1.5, 7 / 8)):
        assert _cube_fraction([1.0, 1.0], s - 1.0) == pytest.approx(volume, abs=1e-15)
    for s, volume in ((1.0, 1 / 6), (1.5, 1 / 2), (2.0, 5 / 6), (0.5, 1 / 48)):
        assert _cube_fraction([1.0, 1.0, 1.0], s - 1.5) == pytest.approx(volume, abs=1e-15)
    assert _cube_fraction([1.0] * 4, -1.0) == pytest.approx(1 / 24, abs=1e-15)
    assert _cube_fraction([1.0] * 4, 0.0) == pytest.approx(1 / 2, abs=1e-15)
    assert _cube_fraction([-1.0, 1.0], 0.0) == pytest.approx(1 / 2, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), st.floats(-0.2, 1.2))))
def test_cube_fraction_complement_symmetry(case):
    a, share = case
    a = np.asarray(a)
    assume(np.max(np.abs(a)) >= 1e-3)
    # t from below the cube's lowest vertex to above its highest
    t = (share - 0.5) * np.sum(np.abs(a))
    total = _cube_fraction(a, t) + _cube_fraction(-a, -t)
    assert abs(total - 1.0) <= 2 * _ROUNDING[len(a)]


def test_cube_fraction_axis_aligned_and_near_zero_normals_n4():
    rng = np.random.default_rng(4)
    normals = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 1e-12, 0.0, -1e-12],
               [0.6, 0.8, 1e-12, -1e-12], [0.5, -0.5, 0.5, 1e-12], [0.6, -0.8, 0.0, 0.0],
               [1.0, 0.99e-5, 0.5, 0.3], [1.0, -2e-5, 0.5, 0.3], [1.0, 0.4, -1e-3, 2e-3]]
    for a in map(np.asarray, normals):
        high = 0.5 * np.sum(np.abs(a))  # the highest vertex, and -high the lowest
        for t in np.concatenate([rng.uniform(-high - 0.1, high + 0.1, 40), [-high, high, 0.0]]):
            # dropping a component below 1e-5 of the largest moves the
            # fraction by at most |a_i| / (4 max |a|)
            dropped = np.sum(np.abs(a)[np.abs(a) < 1e-5 * np.max(np.abs(a))])
            bound = dropped / (4.0 * np.max(np.abs(a))) + _ROUNDING[4]
            assert abs(_cube_fraction(a, t) - _exact_cube_fraction(a, t)) <= bound
    # components near 1e-12 give the lower-dimensional fraction
    for t in np.linspace(-0.9, 0.9, 19):
        assert _cube_fraction([0.6, 0.8, 1e-12, -1e-12], t) == pytest.approx(
            _cube_fraction([0.6, 0.8], t), abs=1e-12)
        assert _cube_fraction([1.0, 1e-12, 1e-12, 1e-12], t) == pytest.approx(
            min(max(t + 0.5, 0.0), 1.0), abs=1e-12)


def test_cut_fractions_clip_flat_row_cells_to_the_half_box():
    from mvlab.grid import cut_fractions

    def frac(normal, offset, flat):
        normal = np.asarray([normal], dtype=float)
        return float(cut_fractions(normal / np.linalg.norm(normal), np.array([offset]),
                                   np.array([flat]))[0])

    for n in (2, 3, 4):
        up = np.eye(n)[0]
        # x0 <= s on [0, 1/2] x [-1/2, 1/2]^(n-1)
        assert frac(up, 0.25, True) == pytest.approx(0.25, abs=1e-15)
        assert frac(up, 0.7, True) == 0.5 and frac(up, -0.1, True) == 0.0
        assert frac(-up, -0.2, True) == pytest.approx(0.3, abs=1e-15)
        assert frac(np.eye(n)[1], 0.1, True) == pytest.approx(0.3, abs=1e-15)
        assert frac(up, 0.25, False) == pytest.approx(0.75, abs=1e-15)
    # x0 + x1 <= 0 on [0, 1/2] x [-1/2, 1/2]: the triangle below x1 = -x0
    assert frac([1.0, 1.0], 0.0, True) == pytest.approx(0.125, abs=1e-15)
    assert frac([1.0, 1.0], 0.0, False) == pytest.approx(0.5, abs=1e-15)


def _cube_fraction_reference(a, t):
    """``grid.cube_fraction`` written on whole rows: a row sort of the
    magnitudes, descending, then row reductions in that order."""
    from mvlab.grid import _DROP, _VERTEX_SIGNS, _VERTICES

    mag = -np.sort(-np.abs(np.asarray(a, dtype=float)), axis=1)  # contiguous rows
    mag[mag < _DROP * mag[:, :1]] = 0.0
    t = np.asarray(t, dtype=float) + 0.5 * mag.sum(axis=1)
    out = (t >= mag.sum(axis=1)).astype(float)
    live = np.flatnonzero((t > 0.0) & (out == 0.0))
    mag = mag[live]
    t = t[live]
    kept = np.count_nonzero(mag, axis=1)
    for m in np.unique(kept):
        rows = kept == m
        am = mag[rows, :m]
        x = np.repeat(t[rows, None], 2 ** (m - 1), axis=1)
        for i, corner in enumerate(_VERTICES[m - 1].T):
            x -= am[:, i, None] * corner
        y = x - am[:, -1:]
        paired = np.ones_like(x)
        power = np.ones_like(x)
        for _ in range(m - 1):
            power *= y
            paired = paired * x + power
        below = y <= 0.0
        x = np.maximum(x[below], 0.0)
        paired[below] = x ** m / np.broadcast_to(am[:, -1:], below.shape)[below]
        out[live[rows]] = (paired * _VERTEX_SIGNS[m - 1]).sum(axis=1) / (
            math.factorial(m) * np.prod(am[:, :-1], axis=1))
    return np.clip(out, 0.0, 1.0)


def _cut_fractions_reference(normal, offset, flat):
    """``grid.cut_fractions`` written on whole rows: a flat-plane cell is the
    half cell [0, 1/2] x [-1/2, 1/2]^(n-1), its centre a quarter cell up axis 0."""
    side = np.ones(normal.shape)
    side[flat, 0] = 0.5
    scaled = normal * side
    centre = np.zeros(normal.shape)
    centre[flat, 0] = 0.5
    return np.prod(side, axis=1) * _cube_fraction_reference(
        scaled, offset - np.sum(scaled * centre, axis=1))


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_cube_fraction_is_bitwise_the_row_wise_reference_on_random_rows(n):
    from mvlab.grid import cube_fraction, cut_fractions

    rng = np.random.default_rng(n)
    rows = 4000 * 3**n
    # every pattern of kept, dropped (below 1e-5 of the largest), +0 and -0
    # components, each signed at random; a dropped component between two
    # kept-or-dropped ones is where a masked row sum is not a sequential one
    kind = rng.integers(0, 4, (rows, n))
    kind[:, rng.integers(n)] = 0  # at least one kept component
    big = rng.uniform(0.05, 1.0, (rows, n))
    tiny = 10.0 ** rng.uniform(-14, -5.5, (rows, n))
    a = np.choose(kind, [big, tiny, np.zeros((rows, n)), np.full((rows, n), -0.0)])
    a *= np.where(rng.random((rows, n)) < 0.5, -1.0, 1.0)
    high = 0.5 * np.sum(np.abs(a), axis=1)  # the highest vertex, and -high the lowest
    t = rng.uniform(-high - 0.1, high + 0.1)
    t[::7] = 0.0
    t[1::7] = -high[1::7]
    got = cube_fraction(a, t)
    _assert_bitwise(got, _cube_fraction_reference(a, t))
    assert 0.0 < got.mean() < 1.0
    flat = rng.random(rows) < 0.5
    _assert_bitwise(cut_fractions(a, t, flat), _cut_fractions_reference(a, t, flat))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_cube_fraction_is_bitwise_the_row_wise_reference_on_real_cut_cells(n, monkeypatch):
    from mvlab import grid
    from mvlab.calculus import integrate

    h = {2: 1 / 64, 3: 1 / 16, 4: 1 / 8}[n]
    seen = []
    original = grid.cube_fraction

    def recorded(a, t):
        seen.append((a.copy(), np.array(t, dtype=float)))
        return original(a, t)

    monkeypatch.setattr(grid, "cube_fraction", recorded)
    center = np.zeros(n)
    for dom in (make_ball_domain(center, 1.0, h, n),
                make_ball_domain(center, 1.0, h, n, conformal_metric(n, 0.01, axis=1)),
                make_half_ball_domain(center, 1.0, h, n),
                make_half_ball_domain(np.eye(n)[0] * 0.25, 1.0, h, n)):
        e = dom.field_from_function(lambda p: np.ones(len(p)))
        integrate(e)  # the domain's own cut cells
        integrate(e, subregion=(dom.center + 0.1, 0.5))  # a subregion's
    assert len(seen) >= 8
    for a, t in seen:
        _assert_bitwise(original(a, t), _cube_fraction_reference(a, t))


# normal components: any in [-1, 1], signed zeros, and ones dropped beside a
# component of 1e-3 or more (below grid._DROP times the largest)
_COMPONENTS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 3e-9, -2e-12]))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_COMPONENTS, min_size=n, max_size=n), min_size=1, max_size=8),
    st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8),
    st.permutations(range(n)), st.lists(st.booleans(), min_size=n, max_size=n),
    st.permutations(range(1, n)))))
def test_cube_and_cut_fractions_keep_their_bits_under_signed_permutations(case):
    from mvlab.grid import cube_fraction, cut_fractions

    rows, offsets, order, flips, lateral = case
    a = np.asarray(rows)
    t = np.asarray(offsets[:len(a)])
    signs = np.where(flips, -1.0, 1.0)
    moved = a[:, order] * signs
    _assert_bitwise(cube_fraction(moved, t), cube_fraction(a, t))
    off = np.zeros(len(a), dtype=bool)
    _assert_bitwise(cut_fractions(moved, t, off), cut_fractions(a, t, off))
    # on the flat plane axis 0 stays put; the others move, signed
    lifted = a[:, [0] + list(lateral)] * np.r_[1.0, signs[1:]]
    _assert_bitwise(cut_fractions(lifted, t, ~off), cut_fractions(a, t, ~off))


def _orbit_domain(kind, n):
    """Euclidean domains whose cut cells ``_Orbits`` evaluates: centred on the
    origin at a dyadic spacing, where the integer-offset inputs are the
    coordinate ones, and off it at a spacing that is not, where they are not."""
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    lifted = [2 * h] + [0.0] * (n - 1)
    return {"ball": lambda: make_ball_domain([0.0] * n, 1.0, h, n),
            "half_ball": lambda: make_half_ball_domain([0.0] * n, 1.0, h, n),
            "lifted": lambda: make_half_ball_domain(lifted, 1.0, h, n),
            "ball_off_grid": lambda: make_ball_domain([0.3, -0.1] + [0.05] * (n - 2), 0.7,
                                                      0.7 / 9, n),
            "half_off_grid": lambda: make_half_ball_domain([0.3, 0.1] + [0.0] * (n - 2), 0.8,
                                                           0.1, n)}[kind]()


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted", "ball_off_grid",
                                  "half_off_grid"))
def test_orbit_evaluation_is_bitwise_per_cell_evaluation(kind, n, monkeypatch):
    from mvlab import grid

    evaluated = []
    node_fractions = grid._node_fractions

    def counted(offsets, steps, flat_row):
        evaluated.append(len(offsets))
        return node_fractions(offsets, steps, flat_row)

    def quadratures():
        dom = _orbit_domain(kind, n)
        centre = dom.node_index(dom.center)
        other = dom.node_point(np.asarray(centre) + np.r_[2, [-3] * (n - 1)])
        balls = [(dom.center, 0.45), (other, 0.3), (dom.center + 0.3 * dom.spacing, 0.3)]
        if dom.flat_plane_index is not None:  # a node on the flat row
            balls.append((dom.node_point((dom.flat_plane_index,) + centre[1:]), 0.35))
        cut = dom.cut_cells()
        per_orbit = sum(evaluated)  # cells evaluated for the domain's own band
        return cut, per_orbit, [dom.weights] + [dom.ball_weights(*ball) for ball in balls]

    monkeypatch.setattr(grid, "_node_fractions", counted)
    cut, per_orbit, got = quadratures()
    # an orbit holds up to 2^m m! cells, m = n on a ball and n - 1 on a half-ball
    m = n - 1 if "half" in kind or kind == "lifted" else n
    assert per_orbit < 3 * len(cut.nodes) / (2**m * math.factorial(m))
    # each cell on its own, from the same integer offsets: every cell its own orbit
    monkeypatch.setattr(grid._Orbits, "codes", lambda self, offsets: np.ravel_multi_index(
        tuple((offsets + self._reach).T), self._dims))
    evaluated.clear()
    ref_cut, per_cell, want = quadratures()
    assert per_cell == len(cut.nodes)
    for got_part, want_part in zip([cut] + got, [ref_cut] + want):
        for a, b in zip(got_part if isinstance(got_part, tuple) else [got_part],
                        want_part if isinstance(want_part, tuple) else [want_part]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball"))
def test_cut_fractions_keep_their_bits_under_the_domain_symmetries(kind, n):
    import itertools

    dom = _orbit_domain(kind, n)
    cut = dom.cut_cells()
    box = np.full(dom.shape, np.nan)
    box.ravel()[cut.nodes] = cut.fractions
    # every signed axis permutation of a ball; those fixing axis 0 on a half-ball
    axes = list(range(n)) if kind == "ball" else list(range(1, n))
    for order in itertools.permutations(axes):
        moved = np.transpose(box, list(range(n - len(axes))) + list(order))
        assert moved.tobytes() == box.tobytes()
    for ax in axes:
        assert np.flip(box, axis=ax).tobytes() == box.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.floats(-1e100, 1e100), min_size=n, max_size=n), min_size=1,
             max_size=20),
    st.lists(st.floats(-1e100, 1e100), min_size=n, max_size=n))))
def test_squared_gaps_are_bitwise_the_row_sum_and_the_norm(case):
    from mvlab.grid import _squared_gaps

    points, center = np.asarray(case[0]), np.asarray(case[1])
    # -0.0 in both, as the strategies may not draw it
    points[0, 0], center[-1] = -0.0, -0.0
    got = _squared_gaps(points.T, center)
    _assert_bitwise(got, np.sum((points - center) ** 2, axis=-1))
    _assert_bitwise(np.sqrt(got), np.linalg.norm(points - center, axis=-1))


def test_cut_cells_select_their_nodes_without_a_box_sized_temporary():
    import tracemalloc

    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 512, 2)
    # the reference box of centre distances, built on request (the domain
    # keeps none), and the mask pass, which selects the cut band, both
    # before the count starts
    dist = dom.center_distances()
    dom.in_mask
    box_bytes = dist.nbytes  # 8.05 MB: 1,054,729 nodes
    tracemalloc.start()
    try:
        cut = dom.cut_cells()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < box_bytes
    assert np.array_equal(cut.nodes,
                          np.flatnonzero(np.abs(dist - dom.radius).ravel() <= dom.cut_margin))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in ("ball", "half_ball", "lifted")
                                    for n in (2, 3, 4)] + [("conformal", 2), ("conformal", 3),
                                                           ("sine", 2), ("low", 3)])
def test_cut_cells_hand_every_out_of_mask_cell_to_an_in_mask_neighbour(kind, n):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    center = np.zeros(n)
    if kind == "ball":
        dom = make_ball_domain(center, 1.1, h, n)  # a radius off the grid
    elif kind == "conformal":
        dom = make_ball_domain(center, 1.0, h, n, conformal_metric(n, 0.01, axis=1))
    elif kind == "sine":
        dom = make_ball_domain(center, 1.0, h, n, sine_metric(n, 0.02, entry=(0, 1), axis=1))
    else:
        center[0] = {"half_ball": 0.0, "lifted": 0.25, "low": h}[kind]
        dom = make_half_ball_domain(center, 1.0, h, n)
    cut = dom.cut_cells()
    in_mask = dom.in_mask.ravel()
    outside = ~in_mask[cut.nodes] & (cut.fractions > 0.0)
    assert np.count_nonzero(outside) > 0
    # no cell with mass finds no in-mask neighbour
    assert np.count_nonzero((cut.receivers < 0) & (cut.fractions > 0.0)) == 0
    assert np.array_equal(cut.receivers[~outside & in_mask[cut.nodes]],
                          cut.nodes[~outside & in_mask[cut.nodes]])
    assert np.all(in_mask[cut.receivers[outside]])
    # one step toward the centre along one axis or along all of them
    node = np.stack(np.unravel_index(cut.nodes[outside], dom.shape), axis=-1)
    receiver = np.stack(np.unravel_index(cut.receivers[outside], dom.shape), axis=-1)
    centre = np.rint((dom.center - dom.origin) / h).astype(int)
    step = receiver - node
    assert np.all(np.abs(step) <= 1)
    assert np.all((step == 0) | (step == np.sign(centre - node)))
    # the weights hold every piece once: the moved mass is the out-of-mask one
    sqrt_det = dom.sqrt_det_metric().ravel()
    base = dom.in_mask.astype(float)
    if dom.flat_plane_index is not None:
        base[dom.flat_plane_index] *= 0.5
    base = base.ravel()
    base[cut.nodes] = 0.0
    weights = np.zeros(dom.shape)
    weights[dom.in_mask] = dom.weights
    moved = weights.ravel() / h**n - base * sqrt_det
    own = np.zeros_like(moved)
    own[cut.nodes] = np.where(outside | ~in_mask[cut.nodes], 0.0, cut.fractions)
    own *= sqrt_det
    assert np.sum(moved - own) == pytest.approx(
        np.sum(cut.fractions[outside] * sqrt_det[cut.nodes[outside]]), rel=1e-12)
    assert np.all(moved - own >= -1e-15)


def test_make_field_stores_nan_off_the_mask():
    from mvlab import laplacian

    # the identity metric through the metric path keeps the Euclidean mask
    euclid = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    metric = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2, polynomial_metric(2, [], 0.0))
    assert np.array_equal(euclid.mask, metric.mask)
    laps = []
    for dom in (euclid, metric):
        values = 1.0 + np.sum(dom.points() ** 2, axis=-1).reshape(dom.shape)
        # a field holds the in-mask nodes only: a box is refused
        with pytest.raises(MVLabError):
            dom.make_field(values)
        e = dom.make_field(values[dom.in_mask])
        assert np.all(np.isnan(e.box()[~dom.in_mask]))
        assert np.array_equal(e.box()[dom.in_mask], values[dom.in_mask])
        lap = laplacian(e).box()
        reference = laplacian(dom.field_from_function(
            lambda p: 1.0 + np.sum(p**2, axis=-1))).box()
        assert np.array_equal(lap, reference, equal_nan=True)
        laps.append(lap)
    finite_euclid, finite_metric = (np.isfinite(lap) for lap in laps)
    # every node whose axis stencil leaves the mask is NaN in both; the metric
    # stencil also reads diagonal neighbours, so it is NaN at a few more
    assert np.array_equal(finite_euclid, euclid.mask == INTERIOR)
    assert not np.any(finite_metric & ~finite_euclid)
    assert np.allclose(laps[0][finite_metric], laps[1][finite_metric], atol=1e-9)


def _exact_ldl(matrix):
    """Pivots, determinant and inverse of a symmetric rational matrix by exact
    elimination over ``fractions.Fraction``."""
    from fractions import Fraction

    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for j in range(n):  # Gaussian elimination without row swaps: the LDL^T pivots
        pivots.append(a[j][j])
        for i in range(j + 1, n):
            factor = a[i][j] / a[j][j]
            a[i] = [x - factor * y for x, y in zip(a[i], a[j])]
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(matrix)]
    for j in range(n):  # Gauss-Jordan on [g | I]
        aug[j] = [x / aug[j][j] for x in aug[j]]
        for i in range(n):
            if i != j:
                aug[i] = [x - aug[i][j] * y for x, y in zip(aug[i], aug[j])]
    det = Fraction(1)
    for pivot in pivots:
        det *= pivot
    return pivots, det, [row[n:] for row in aug]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ldl_matches_exact_rational_elimination(n):
    from fractions import Fraction

    from mvlab.grid import _ldl

    rng = np.random.default_rng(n)
    stack = []
    for _ in range(40):  # symmetric, near the identity, entries exact in binary
        upper = np.triu(rng.integers(-16, 17, size=(n, n)))
        stack.append([[Fraction(int(i == j)) + Fraction(int(upper[min(i, j), max(i, j)]), 256)
                       for j in range(n)] for i in range(n)])
    g = np.array([[[float(x) for x in row] for row in m] for m in stack])
    pivots, det, inv = _ldl(g, inverse=True)
    for k, matrix in enumerate(stack):
        exact_pivots, exact_det, exact_inv = _exact_ldl(matrix)
        for got, want in zip(pivots, exact_pivots):
            assert abs(got[k] - float(want)) <= 1e-14 * abs(float(want))
        assert abs(det[k] - float(exact_det)) <= 1e-14 * abs(float(exact_det))
        scale = max(abs(float(x)) for row in exact_inv for x in row)
        for i in range(n):
            for j in range(n):
                assert abs(inv[i][j][k] - float(exact_inv[i][j])) <= 1e-14 * scale


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ldl_matches_lapack_on_random_stacks(n):
    from mvlab.grid import _ldl

    rng = np.random.default_rng(10 + n)
    a = rng.normal(size=(500, n, n))
    near = np.eye(n) + 0.05 * (a + np.swapaxes(a, 1, 2))
    spread = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(n)  # SPD, far from the identity
    for g in (near, spread):
        pivots, det, inv = _ldl(g, inverse=True)
        assert all(np.all(p > 0) for p in pivots)
        assert np.allclose(det, np.linalg.det(g), rtol=1e-12, atol=0)
        assert np.allclose(np.array(inv).transpose(2, 0, 1), np.linalg.inv(g),
                           rtol=1e-10, atol=1e-12)
        assert _ldl(g)[2] is None


def _smallest_eigenvalue_in(message):
    import re

    found = re.fullmatch(r"metric has eigenvalue (\S+) <= 0 on the grid box", message)
    assert found, message
    return float(found.group(1))


@pytest.mark.parametrize("n,terms,lowest", [
    # positive diagonal, one negative 2x2 minor
    (3, [(0, 1, 1.5, (0, 0, 0))], -0.5),
    (4, [(2, 3, 1.5, (0, 0, 0, 0))], -0.5),
    # every smaller leading minor positive, only the full determinant negative
    (3, [(i, j, -0.6, (0, 0, 0)) for i in range(3) for j in range(i)], 1 - 2 * 0.6),
    (4, [(i, j, -0.4, (0, 0, 0, 0)) for i in range(4) for j in range(i)], 1 - 3 * 0.4),
    # indefinite only where |x0| > 1/3: the box reaches |x0| = 10 h = 0.625
    (3, [(0, 1, 3.0, (1, 0, 0))], 1 - 3 * 0.625),
    (4, [(0, 3, 3.0, (1, 0, 0, 0))], 1 - 3 * 0.625),
    # singular: a zero pivot, which the factorization divides by
    (3, [(0, 1, 1.0, (0, 0, 0))], 0.0),
    # g01 = 3 x0 + x0^2: indefinite at both ends of x0, most of all at the
    # last box nodes (x0 = +0.625), after the first failing ones (x0 = -0.625)
    (3, [(0, 1, 3.0, (1, 0, 0)), (0, 1, 1.0, (2, 0, 0))], 1 - 3 * 0.625 - 0.625**2),
])
@pytest.mark.filterwarnings("error")
def test_metric_gate_rejects_indefinite_metrics_with_positive_diagonal(n, terms, lowest,
                                                                      monkeypatch):
    from mvlab import grid

    # the declared deviation is understated on purpose: the positive-definite
    # gate runs before the deviation check, and a small one keeps the box small
    bad = polynomial_metric(n, terms, 0.01)
    # the default blocks, then 1,000-row ones: the error names the smallest
    # eigenvalue over every failing box node, whichever block holds it
    for block_bytes in (grid._BLOCK_BYTES, 1000 * 8 * n * n):
        monkeypatch.setattr(grid, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(MetricNotPositiveDefinite) as caught:
            make_ball_domain([0.0] * n, 0.5, 1 / 16, n, bad)
        assert _smallest_eigenvalue_in(str(caught.value)) == pytest.approx(lowest, abs=1e-12)


def _lopsided_metric(n, below):
    """g = identity with 0.01 above the diagonal at (0, 1) and ``below`` under it."""
    from mvlab.grid import MetricSpec

    def matrix(points):
        out = np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
        out[..., 0, 1] += 0.01
        out[..., 1, 0] += below
        return out

    return MetricSpec(n, matrix, 0.02, name="lopsided")


@pytest.mark.parametrize("n", (3, 4))
def test_metric_gate_keeps_the_allclose_symmetry_test(n):
    # |g01 - g10| <= 1e-10 + 1e-5 min(|g01|, |g10|) passes, as np.allclose has it
    make_ball_domain([0.0] * n, 0.5, 1 / 16, n, _lopsided_metric(n, 0.01 + 1e-8))
    for below in (0.01 + 1e-6, 0.0, np.nan):
        with pytest.raises(MetricNotPositiveDefinite, match="metric is not symmetric"):
            make_ball_domain([0.0] * n, 0.5, 1 / 16, n, _lopsided_metric(n, below))


def test_segment_distance_is_euclidean_where_the_metric_is_the_identity():
    from mvlab.grid import segment_distance

    # g = (1 + c x1) I is the identity on x1 = 0, so segments from the origin
    # in that plane keep their Euclidean length bitwise; (8, 0, 8, -4)/12 has
    # length exactly 1 and must stay off the unit ball's mask
    metric = conformal_metric(4, 0.01, axis=1)
    rng = np.random.default_rng(4)
    points = rng.integers(-12, 13, size=(2000, 4)) / 12.0
    points[:, 1] = 0.0
    assert np.array_equal(segment_distance(metric, np.zeros(4), points),
                          np.linalg.norm(points, axis=-1))
    dom = make_ball_domain([0.0] * 4, 1.0, 1 / 12, 4, metric)
    assert not dom.in_mask[dom.node_index([8 / 12, 0.0, 8 / 12, -4 / 12])]
    # the identity itself, which no domain carries, takes the metric path
    # and adds a correction of exactly 0 anywhere
    base = np.array([0.3, -0.2, 0.1, 0.7])
    points = rng.normal(size=(2000, 4))
    assert np.array_equal(segment_distance(identity_metric(4), base, points),
                          np.linalg.norm(points - base, axis=-1))


def _metric_arrays(dom):
    """Every per-node metric result of a metric ball, and its metric
    Laplacian of a smooth field, by name."""
    from mvlab.calculus import laplacian
    from mvlab.grid import segment_distance

    off = dom.center + np.array([0.3] + [-0.2] * (dom.dimension - 1))
    arrays = {"center_distances": dom.center_distances(),
              "segment_distance": segment_distance(dom.metric, off, dom.in_mask_points()),
              "sqrt_det_metric": dom.sqrt_det_metric(), "weights": dom.weights,
              "measured_deviation": np.array(dom.measured_deviation)}
    for ax, (sqrt_det, rows) in enumerate(dom.face_metric):
        arrays[f"face_metric[{ax}]"] = np.concatenate([sqrt_det[None], rows])
    e = dom.field_from_function(lambda p: np.exp(p[:, 0]) * np.cos(p[:, -1]), density=False)
    arrays["laplacian"] = laplacian(e).values
    return arrays


@pytest.mark.parametrize("n,h", ((2, 1 / 128), (3, 1 / 16), (4, 1 / 8)))
@pytest.mark.parametrize("kind", ("conformal", "sine", "polynomial"))
def test_metric_passes_are_bitwise_the_same_in_any_blocks(kind, n, h, monkeypatch):
    from mvlab import grid

    metric = _metric_spec(kind, n)

    def arrays(block_bytes):
        monkeypatch.setattr(grid, "_BLOCK_BYTES", block_bytes)
        return _metric_arrays(make_ball_domain([0.0] * n, 1.0, h, n, metric))

    # the default blocks (at least 4 of the box, 3 of the mask here) against
    # the whole box in one block
    blocked = arrays(grid._BLOCK_BYTES)
    reference = arrays(1 << 62)
    assert np.isnan(reference["laplacian"]).any()  # NaN next to the mask's edge, compared too
    for name, ref in reference.items():
        array = blocked[name]
        assert array.shape == ref.shape and array.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("n,h", ((2, 1 / 32), (3, 1 / 16), (4, 1 / 8)))
@pytest.mark.parametrize("kind", ("conformal", "sine", "polynomial"))
def test_metric_passes_are_bitwise_the_same_in_any_layout(kind, n, h):
    from mvlab.grid import MetricSpec

    spec = _metric_spec(kind, n)
    # takes and returns C order, as a custom metric may; the preset itself
    # gets entry-major points and returns entry-major matrices
    c_order = MetricSpec(n, lambda p: np.ascontiguousarray(spec.matrix(np.ascontiguousarray(p))),
                         spec.declared_deviation)
    reference = _metric_arrays(make_ball_domain([0.0] * n, 1.0, h, n, spec))
    wrapped = _metric_arrays(make_ball_domain([0.0] * n, 1.0, h, n, c_order))
    for name, ref in reference.items():
        array = wrapped[name]
        assert array.shape == ref.shape and array.tobytes() == ref.tobytes(), name


def _preset(kind, n):
    return {"identity": lambda: identity_metric(n),
            "conformal": lambda: conformal_metric(n, -2.0, axis=1),
            "sine": lambda: sine_metric(n, 0.02, entry=(0, 1), axis=1),
            "sine-diagonal": lambda: sine_metric(n, 0.02, axis=0),
            "polynomial": lambda: _metric_spec("polynomial", n)}[kind]()


def _broadcast_formula(kind, n, points):
    """``_preset(kind, n)`` at ``points`` as C-order (..., n, n) arrays, the
    formulas the presets used before they went entry-major."""
    out = np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
    if kind == "conformal":
        factor = 1.0 + -2.0 * points[..., 1]
        return factor[..., None, None] * np.eye(n)
    if kind.startswith("sine"):
        (i, j), axis = ((0, 1), 1) if kind == "sine" else ((0, 0), 0)
        pert = 0.02 * np.sin(points[..., axis])
        out[..., i, j] += pert
        if i != j:
            out[..., j, i] += pert
    if kind == "polynomial":
        for i, j, coef, powers in ((0, 0, 0.01, (0, 2) + (0,) * (n - 2)),
                                   (0, 1, 0.005, (1, 1) + (0,) * (n - 2))):
            mono = np.ones(points.shape[:-1])
            for k, p in enumerate(powers):
                if p:
                    mono = mono * points[..., k] ** p
            out[..., i, j] += coef * mono
            if i != j:
                out[..., j, i] += coef * mono
    return out


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("identity", "conformal", "sine", "sine-diagonal", "polynomial"))
def test_presets_are_bitwise_the_broadcast_formula_with_contiguous_entries(kind, n):
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, (5, 7, n))
    points[0, :, 1] = 0.75  # a conformal factor of -0.5: -0.0 off the diagonal
    points[1, 2, 1] = np.nan
    points[2, 3, 0] = np.nan
    expected = _broadcast_formula(kind, n, points)
    if kind == "conformal":
        assert np.signbit(expected[0, :, 0, 1]).all() and np.isnan(expected[1, 2]).all()
    entry_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(points, -1, 0)), 0, -1)
    for pts in (points, entry_major, points.reshape(-1, n)):
        g = _preset(kind, n)(pts)
        assert g.tobytes() == expected.reshape(g.shape).tobytes()
        assert all(g[..., i, j].flags.c_contiguous for i in range(n) for j in range(n))


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("near_identity", (False, True))
def test_quadratic_form_is_bitwise_einsum_in_any_layout(n, near_identity):
    from mvlab.grid import _quadratic_form

    rng = np.random.default_rng(10 * n + near_identity)
    g = rng.standard_normal((5000, n, n))
    if near_identity:
        g = np.eye(n) + 1e-3 * (g + np.swapaxes(g, 1, 2))
    v = rng.standard_normal((5000, n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    expected = np.einsum("mij,mi,mj->m", g, v, v)
    entry_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, 0, -1)), -1, 0)
    for layout in (g, entry_major):
        assert _quadratic_form(layout, np.ascontiguousarray(v.T)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,m", ((2, 3), (3, 2)))
def test_make_ball_domain_rejects_a_metric_of_another_dimension(n, m):
    for metric in (conformal_metric(m, 0.01), identity_metric(m)):
        with pytest.raises(MVLabError, match=f"metric of dimension {m} on a ball of dimension {n}"):
            make_ball_domain([0.0] * n, 1.0, 1 / 16, n, metric)
    # before any box is sized: this one's node coordinates would raise GridTooLarge
    with pytest.raises(MVLabError, match="metric of dimension"):
        make_ball_domain([0.0] * 3, 1.0, 1e-4, 3, conformal_metric(2, 0.01))


def test_metric_spec_call_checks_point_and_matrix_shapes():
    from mvlab.grid import MetricSpec

    square = MetricSpec(3, lambda p: np.zeros(p.shape[:-1] + (2, 2)))
    with pytest.raises(MVLabError, match=r"returned shape \(4, 2, 2\) for points of shape \(4, 3\)"):
        square(np.zeros((4, 3)))
    with pytest.raises(MVLabError, match=r"dimension 3 got points of shape \(4, 2\)"):
        conformal_metric(3, 0.01)(np.zeros((4, 2)))
    # a C-order result, and a single point, pass
    eye = MetricSpec(3, lambda p: np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)).copy())
    assert eye(np.zeros((4, 3))).shape == (4, 3, 3)
    assert conformal_metric(3, 0.01)(np.zeros(3)).shape == (3, 3)


@pytest.mark.parametrize("rows", (None, 1000))
def test_metric_gate_names_an_asymmetric_block_over_an_earlier_indefinite_one(rows,
                                                                             monkeypatch):
    from mvlab import grid
    from mvlab.grid import MetricSpec

    n = 3

    def matrix(points):
        # indefinite on the box's first axis-0 rows, not symmetric on its last
        out = np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
        x0 = points[..., 0]
        out[..., 0, 1] += np.where(x0 < -0.5, 3.0, 0.0)
        out[..., 1, 0] += np.where(x0 < -0.5, 3.0, 0.0) + np.where(x0 > 0.5, 0.01, 0.0)
        return out

    if rows is not None:
        monkeypatch.setattr(grid, "_BLOCK_BYTES", rows * 8 * n * n)
    # the box spans x0 in [-0.625, 0.625] in 21^3 nodes: 2 default blocks, 10 of 1,000 rows
    assert len(grid._blocks(21**n, n)) == (2 if rows is None else 10)
    with pytest.raises(MetricNotPositiveDefinite, match="metric is not symmetric"):
        make_ball_domain([0.0] * n, 0.5, 1 / 16, n, MetricSpec(n, matrix, 0.01))


def test_metric_passes_start_no_thread():
    import threading

    from mvlab import heinz_scan, laplacian
    from mvlab.grid import segment_distance

    # the benchmark tracer keeps one span stack and wraps public functions:
    # every pass must run on the calling thread and leave no thread behind
    dom = make_ball_domain([0.0] * 3, 1.0, 1 / 16, 3, conformal_metric(3, 0.01, axis=1))
    dom.weights
    e = dom.field_from_function(lambda p: np.exp(-4.0 * np.sum((p - 0.25) ** 2, axis=-1)))
    laplacian(e)
    segment_distance(dom.metric, dom.center + 0.1, dom.in_mask_points())
    heinz_scan(e, dom.center, 1.0)
    assert threading.enumerate() == [threading.main_thread()]


def _metric_spec(kind, n):
    return {"conformal": lambda: conformal_metric(n, 0.01, axis=1),
            "sine": lambda: sine_metric(n, 0.02, entry=(0, 1), axis=1),
            "polynomial": lambda: polynomial_metric(
                n, [(0, 0, 0.01, (0, 2) + (0,) * (n - 2)),
                    (0, 1, 0.005, (1, 1) + (0,) * (n - 2))], 0.03)}[kind]()


@pytest.mark.parametrize("n,h", ((2, 1 / 32), (3, 1 / 16), (4, 1 / 8)))
@pytest.mark.parametrize("kind", ("conformal", "sine", "polynomial"))
@pytest.mark.parametrize("centred", (True, False), ids=("origin", "off-origin"))
def test_near_sphere_centre_distances_leave_every_ball_quantity_bitwise_alone(
        kind, n, h, centred):
    center = [0.0] * n if centred else [0.25, -0.125] + [0.0625] * (n - 2)
    _assert_the_full_box_ball(make_ball_domain(center, 1.0, h, n, _metric_spec(kind, n)))


@pytest.mark.parametrize("n", (2, 3))
def test_centre_distance_cut_off_covers_a_deviation_understated_within_the_slack(n):
    # g = 0.85 I shortens every segment to sqrt(0.85) of its length; declared
    # as the identity, it is still accepted at h = r/8 (slack 10 h^2 = 0.156)
    lying = polynomial_metric(n, [(k, k, -0.15, (0,) * n) for k in range(n)], 0.0)
    dom = make_ball_domain([0.0] * n, 1.0, 1 / 8, n, lying)
    assert dom.measured_deviation > 0.1
    _assert_the_full_box_ball(dom)


def _assert_the_full_box_ball(dom):
    """The ball's mask, cut cells, weights, measured deviation and a Heinz scan
    equal those of the same ball with the segment rule at every box node."""
    from mvlab import heinz_scan
    from mvlab.grid import Domain, segment_distance

    n = dom.dimension
    ref = Domain(dom.kind, dom.center, dom.radius, dom.spacing, n, dom.origin, dom.shape,
                 dom.metric)
    full = segment_distance(dom.metric, dom.center, ref.points()).reshape(dom.shape)
    full.flags.writeable = False
    # the geometry pass of ``ref`` reads its slabs of centre distances from the full box
    ref.__dict__["_slab_distances"] = lambda a, b: full[a:b]
    assert ref.center_distances().tobytes() == full.tobytes()
    # the segment rule runs only where it decides the mask or the band: deep
    # inside and far outside a lower bound stands, on the same side of r
    skipped = dom.center_distances() != full
    assert skipped[dom.in_mask].any() and skipped[~dom.in_mask].any()
    assert not skipped.ravel()[dom._geometry.band].any()
    assert np.all(dom.center_distances()[skipped] <= full[skipped])
    assert np.array_equal(dom.mask, ref.mask)
    for got, want in zip(dom._geometry, ref._geometry):  # the band, its distances and normals
        assert got.tobytes() == want.tobytes()
    for got, want in zip(dom.cut_cells(), ref.cut_cells()):
        assert got.tobytes() == want.tobytes()
    assert dom.weights.tobytes() == ref.weights.tobytes()
    assert dom.measured_deviation == ref.measured_deviation
    fn = lambda p: np.exp(-8.0 * np.sum((p - dom.center - 0.3) ** 2, axis=-1))  # noqa: E731
    assert (heinz_scan(dom.field_from_function(fn), dom.center, 1.0).as_dict()
            == heinz_scan(ref.field_from_function(fn), ref.center, 1.0).as_dict())


def _decisive(dom, slack=0.0):
    """The box nodes of a metric ball at which the segment rule runs, by
    their Euclidean length L from the centre: between ((r - cut_margin) /
    (1 + n delta / 2) - h)(1 - 1e-9) and (r + cut_margin) / f + h, delta the
    accepted deviation and f = _segment_floor(n, delta); then the nodes
    ``slack`` inside the lower and past the upper bound."""
    from mvlab.grid import _segment_floor

    n, r, m, h = dom.dimension, dom.radius, dom.cut_margin, dom.spacing
    delta = dom._deviation_limit
    factor = _segment_floor(n, delta)
    length = np.sqrt(np.sum((_meshgrid_points(dom) - dom.center) ** 2, axis=-1)).reshape(dom.shape)
    low = ((r - m) / (1.0 + 0.5 * n * delta) - h) * (1.0 - 1e-9)
    near = (length >= low) & (factor * length <= r + m + factor * h)
    return near, length < low - slack, factor * length > r + m + factor * h + slack


def _meshgrid_points(dom):
    """Every box node's coordinates from a full meshgrid, as a cached
    coordinate array used to hold them: shape (nodes, n), C-order."""
    axes = [o + dom.spacing * np.arange(k) for o, k in zip(dom.origin, dom.shape)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted_half_ball", "conformal"))
def test_coordinates_from_the_axes_are_bitwise_the_meshgrid_ones(kind, n, monkeypatch):
    from mvlab import grid as grid_module
    from mvlab.grid import _squared_gaps, segment_distance

    h = 1 / 8
    dom = {"ball": lambda: make_ball_domain([0.0] * n, 1.0, h, n),
           "half_ball": lambda: make_half_ball_domain([0.0] * n, 1.0, h, n),
           "lifted_half_ball": lambda: make_half_ball_domain([2 * h] + [0.0] * (n - 1),
                                                             1.0, h, n),
           "conformal": lambda: make_ball_domain([0.0] * n, 1.0, h, n,
                                                 conformal_metric(n, 0.01, axis=1))}[kind]()
    ref = _meshgrid_points(dom)
    grid = ref.reshape(dom.shape + (n,))
    assert np.array_equal(dom.points(), ref)
    assert np.array_equal(dom.in_mask_points(), ref[dom.in_mask.ravel()])
    assert np.array_equal(dom._node_points(slice(0, len(ref))), ref)
    assert np.array_equal(dom._node_points(dom._mask_nodes), ref[dom._mask_nodes])
    # the centre distances, Euclidean or block by block on the metric ball;
    # there exact only where they decide the mask or the band (``_decisive``),
    # and elsewhere a lower bound on the same side of the band
    exact = segment_distance(dom.metric, dom.center, ref).reshape(dom.shape)
    near = np.ones(dom.shape, dtype=bool)
    if dom.metric is not None:
        near, inner, outer = _decisive(dom, slack=1e-12)
        assert inner.any() and outer.any()
        assert np.all(dom.center_distances()[outer] > dom.radius + dom.cut_margin)
        assert np.all(dom.center_distances()[inner] < dom.radius - dom.cut_margin)
    assert np.array_equal(dom.center_distances()[near], exact[near])
    rng = np.random.default_rng(n)
    for center, radius in [(dom.center, 0.5), (dom.origin, 0.3), (dom.center, 10.0)] + [
            (dom.center + rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 0.6)) for _ in range(5)]:
        win = dom.window(center, radius)
        inside = dom.in_mask[win]
        # one block of rows, or blocks of a few rows
        monkeypatch.setattr(grid_module, "_CHUNK", 64 if radius < 0.5 else 1 << 17)
        blocks = list(dom._window_nodes(win))
        positions = np.concatenate([positions for positions, _ in blocks])
        points = np.concatenate([points for _, points in blocks])
        # the window's in-mask nodes, C order, and their places in the in-mask vector
        assert np.array_equal(points, grid[win][inside])
        index = tuple(k + part.start for k, part in zip(np.nonzero(inside), win))
        assert np.array_equal(dom._mask_nodes[positions], np.ravel_multi_index(index, dom.shape))
        assert np.array_equal(np.sqrt(_squared_gaps(points.T, center)),
                              np.linalg.norm(grid[win][inside] - center, axis=-1))
        assert np.array_equal(np.sqrt(_squared_gaps(dom._columns(), center)),
                              np.linalg.norm(grid - center, axis=-1))


def _box_sized_float64(dom):
    """The float64 arrays the domain keeps with one entry per box node (a
    box-shaped one, or one with a box-node-long axis), by attribute."""
    nodes = math.prod(dom.shape)
    found = []

    def visit(name, value):
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64 and (value.shape == dom.shape or nodes in value.shape):
                found.append(name)
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                visit(f"{name}[{i}]", item)

    for name, value in vars(dom).items():
        visit(name, value)
    return found


def _traced_pipeline(build):
    """Build a domain, its face metric (metric balls), weights, a quadratic
    field, its Laplacian and its integral, each as one tracemalloc step; per
    step the peak over what was traced when it began and over what was
    traced when it ended."""
    import tracemalloc

    from mvlab import GeneratorSpec, gen
    from mvlab.calculus import integrate, laplacian

    over_start, over_end = {}, {}

    def step(name, work):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = work()
        end, peak = tracemalloc.get_traced_memory()
        over_start[name], over_end[name] = peak - start, peak - end
        return result

    tracemalloc.start()
    try:
        dom = step("domain", build)
        if dom.metric is not None:
            step("face_metric", lambda: dom.face_metric)
        step("weights", lambda: dom.weights)
        field = step("gen", lambda: gen(GeneratorSpec("quadratic"), dom))
        step("laplacian", lambda: laplacian(field))
        step("integrate", lambda: integrate(field))
    finally:
        tracemalloc.stop()
    return dom, over_start, over_end


def test_euclidean_n4_pipeline_holds_no_box_sized_float64():
    # n = 4, h = 1/16: 35^4 = 1.5M box nodes. No step, the domain build
    # included, may allocate, over what was traced when it began, as much as
    # one box-sized float64 array: the mask pass reads the centre distances
    # a slab of rows at a time and keeps them nowhere (a Euclidean domain
    # keeps only its cut band's nodes), the weights, the field and the
    # Laplacian are in-mask vectors, and the stencils scatter the field a
    # slab at a time.
    box = 35**4 * 8

    def build():
        dom = make_ball_domain([0.0] * 4, 1.0, 1 / 16, 4)
        dom._mask_nodes  # the mask and the cut band, from one pass over slabs
        dom._line_starts
        return dom

    dom, over, _ = _traced_pipeline(build)
    assert math.prod(dom.shape) * 8 == box
    assert all(peak < box for peak in over.values()), over
    assert _box_sized_float64(dom) == []


def test_conformal_n3_pipeline_holds_no_box_sized_float64():
    # n = 3, h = 1/48: 107^3 = 1.2M box nodes, 35% of them in the mask. A
    # metric ball keeps more than one box's bytes of in-mask vectors (its
    # index, centre distances and sqrt(det g); the face metric alone holds 12
    # of them), so here a step may not allocate, over what it keeps, as much
    # as one box-sized float64 array: the segment rule, the gate, the
    # measured deviation and the face metric go a block of nodes at a time,
    # and none of them, nor the mask pass, gathers the (m, n) in-mask
    # coordinates. And the domain keeps no box-sized float64 array.
    box = 107**3 * 8

    def build():
        dom = make_ball_domain([0.0] * 3, 1.0, 1 / 48, 3, conformal_metric(3, 0.01, axis=1))
        dom._line_starts
        return dom

    dom, _, over = _traced_pipeline(build)
    assert math.prod(dom.shape) * 8 == box
    assert all(peak < box for peak in over.values()), over
    assert _box_sized_float64(dom) == []
    assert dom._geometry.band_distances is not None and dom._sqrt_det.shape == (dom.node_count,)


def _cached_center_distances(dom):
    """The box of centre distances the mask and the band are read from,
    rebuilt box-wide: the broadcast squared axis gaps under a root; on metric
    balls f L, with the segment rule at the ``_decisive`` nodes."""
    from mvlab.grid import _segment_floor, _squared_gaps, segment_distance

    dist = np.sqrt(_squared_gaps(dom._columns(), dom.center))
    if dom.metric is not None:
        dist *= _segment_floor(dom.dimension, dom._deviation_limit)
        near = np.flatnonzero(_decisive(dom)[0])
        dist.reshape(-1)[near] = segment_distance(dom.metric, dom.center, dom._node_points(near))
    return dist


def _cached_sqrt_det(dom):
    """The box of sqrt(det g) a domain used to cache, rebuilt as it was."""
    from mvlab.grid import _ldl

    if dom.metric is None:
        return np.ones(dom.shape)
    return np.sqrt(_ldl(dom.metric(dom.points()))[1]).reshape(dom.shape)


@pytest.mark.parametrize("n,h", ((2, 1 / 32), (3, 1 / 16), (4, 1 / 8)))
@pytest.mark.parametrize("kind", ("euclidean", "half_ball", "conformal", "sine"))
def test_on_demand_geometry_is_bitwise_the_cached_boxes(kind, n, h):
    from mvlab.heinz import _node_distances

    center = [0.25, -0.125] + [0.0625] * (n - 2)
    if kind == "half_ball":
        dom = make_half_ball_domain(center, 1.0, h, n)
    else:
        dom = make_ball_domain(center, 1.0, h, n,
                               None if kind == "euclidean" else _metric_spec(kind, n))
    dist, sqrt_det = _cached_center_distances(dom), _cached_sqrt_det(dom)
    # built on each call, not kept, read-only, bitwise the old cached boxes
    for build, want in ((dom.center_distances, dist), (dom.sqrt_det_metric, sqrt_det)):
        got = build()
        assert got is not build() and not got.flags.writeable
        assert got.shape == dom.shape and got.tobytes() == want.tobytes()
    assert not any(isinstance(value, np.ndarray) and value.shape == dom.shape
                   and value.dtype == np.float64 for value in vars(dom).values())
    # the mask and what the domain keeps of the distances
    assert np.array_equal(dom.in_mask, dist < dom.radius)
    geometry = dom._geometry
    band = np.flatnonzero(np.abs(dist - dom.radius).ravel() <= dom.cut_margin)
    assert np.array_equal(geometry.band, band)
    if dom.metric is None:
        assert geometry.band_distances is geometry.band_normals is None
    else:
        assert geometry.band_distances.tobytes() == dist.ravel()[band].tobytes()
        assert dom._sqrt_det.tobytes() == sqrt_det[dom.in_mask].tobytes()
        assert dom._gated[1].tobytes() == sqrt_det.ravel()[band].tobytes()
    # Heinz scans about the centre read the exact distances, in C order,
    # over every in-mask node and over a window of them
    if dom.metric is not None:
        from mvlab.grid import segment_distance

        dist = segment_distance(dom.metric, dom.center, _meshgrid_points(dom)).reshape(dom.shape)
    e = dom.field_from_function(lambda p: np.exp(-np.sum((p - 0.1) ** 2, axis=-1)))
    for reach in (None, 0.5):
        positions, got = _node_distances(dom, dom.center, reach)
        nodes = dom._mask_nodes
        if reach is not None:
            inside = np.zeros(dom.shape, dtype=bool)
            inside[dom.window(dom.center, reach)] = True
            nodes = nodes[inside.ravel()[nodes]]
        assert np.array_equal(dom._mask_nodes[positions], nodes)
        assert got.tobytes() == dist.ravel()[nodes].tobytes()


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("make", (make_ball_domain, make_half_ball_domain))
def test_domain_keeps_a_read_only_copy_of_its_centre_and_origin(make, n):
    centre = np.zeros(n)
    dom = make(centre, 1.0, 1 / 8, n)
    origin = dom.origin.copy()
    centre[0] = 0.5  # the caller's array is not the domain's
    assert np.array_equal(dom.center, np.zeros(n))
    assert dom.origin.tobytes() == origin.tobytes()
    for array in (dom.center, dom.origin):
        with pytest.raises(ValueError):
            array[0] = 0.5
        with pytest.raises(ValueError):
            array += 1.0
    with pytest.raises(ValueError):
        dom.origin[0] += 1.0


# the box formulas and the flat-row rule as each domain builder had them
# before the two builders shared one box helper: the references below

def _reference_ball_box(center, r, h, n, metric):
    pad = 1.0 + (2.0 * metric.declared_deviation if metric is not None else 0.0)
    half = int(np.ceil(pad * r / h)) + 1
    return np.asarray(center, dtype=float) - half * h, (2 * half + 1,) * n


def _reference_half_ball_box(y, r, h, n):
    y = np.asarray(y, dtype=float)
    half = int(np.ceil(r / h)) + 1
    down = min(half, int(round(y[0] / h)))
    origin = y.copy()
    origin[0] -= down * h
    origin[1:] -= half * h
    return origin, (down + half + 1,) + (2 * half + 1,) * (n - 1)


def _reference_flat_row(dom):
    rel = -dom.origin[0] / dom.spacing
    row = int(round(rel))
    if abs(rel - row) > 1e-8 or not (0 <= row < dom.shape[0]):
        return None
    return row


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ball_boxes_are_bitwise_the_reference_formula(n):
    rng = np.random.default_rng(n)
    for metric in (None, conformal_metric(n, 0.01, axis=1)):
        for r, h in ((1.0, 1 / 8), (0.7, 0.7 / 9), (1.3, 0.1)):
            center = rng.uniform(-0.2, 0.2, n) if metric is not None else rng.uniform(-3, 3, n)
            dom = make_ball_domain(center, r, h, n, metric)
            origin, shape = _reference_ball_box(center, r, h, n, dom.metric)
            assert dom.origin.tobytes() == origin.tobytes() and dom.shape == shape
            assert dom.flat_plane_index is None


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("r, h", ((1.0, 1 / 8), (0.75, 0.75 / 10)))
def test_half_ball_boxes_are_bitwise_the_reference_formula(n, r, h):
    rng = np.random.default_rng(n)
    reach = math.ceil(r / h) + 1
    for k in (0, 1, 2, reach, reach + 1, round(1.5 * r / h)):
        y = np.concatenate([[k * h], rng.uniform(-1, 1, n - 1)])
        dom = make_half_ball_domain(y, r, h, n)
        origin, shape = _reference_half_ball_box(y, r, h, n)
        assert dom.origin.tobytes() == origin.tobytes() and dom.shape == shape
        assert dom.flat_plane_index == _reference_flat_row(dom)
        # the plane is in the box exactly when the centre is within its reach,
        # and then it is row 0 of a box deep enough for a one-sided stencil
        assert (dom.flat_plane_index is not None) == (k <= reach)
        if dom.flat_plane_index is not None:
            assert dom.flat_plane_index == 0 and dom.shape[0] >= 3
        assert (dom.flat_node_count > 0) == (k < r / h)  # the ball reaches the plane


def test_a_half_ball_centre_accepted_just_off_the_grid_keeps_its_flat_row():
    # the builder takes y0 = (25 + 2e-8) h as on the grid (tolerance 1e-9 * 25);
    # its box then starts 2e-8 h above the plane, which the old float rule
    # (tolerance 1e-8 rows) read as no flat row and no flat node
    h = 1 / 64
    dom = make_half_ball_domain([(25 + 2e-8) * h, 0.0], 1.0, h, 2)
    assert 0.0 < dom.origin[0] < 1e-9 and _reference_flat_row(dom) is None
    assert dom.flat_plane_index == 0 and dom.flat_node_count == 117
