"""Grid construction, masks, and metric handling."""

import numpy as np
import pytest

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


def test_understated_metric_deviation_rejected():
    # declared deviation must cover the measured W^{1,inf} distance
    lying = polynomial_metric(2, [(0, 0, 0.04, (0, 0)), (1, 1, 0.04, (0, 0))],
                              declared_deviation=0.001)
    with pytest.raises(MVLabError):
        make_ball_domain([0, 0], 1.0, 1 / 32, 2, lying)


@pytest.mark.parametrize("metric", (None, conformal_metric(2, 0.01, axis=1)))
def test_domain_arrays_are_read_only(metric):
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2, metric)
    arrays = [dom.mask, dom.in_mask, dom.points(), dom.center_distances(),
              dom.sqrt_det_metric(), dom.weights]
    if metric is not None:
        arrays += [a for face in dom.face_metric for a in face]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 1
        with pytest.raises(ValueError):
            array.ravel()[0] = 1
    # the caches are kept: a second read hands back the same array
    assert dom.points() is dom.points() and dom.mask is dom.mask
    half = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2)
    with pytest.raises(ValueError):
        half.mask[0, 0] = FLAT_BOUNDARY


def test_field_values_are_read_only():
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2)
    values = np.where(dom.in_mask, 1.0, np.nan)
    fields = [dom.make_field(values), dom.field_from_function(lambda p: 1.0 + p[:, 0] ** 2),
              dom.make_field(-values, density=False)]
    for f in fields:
        with pytest.raises(ValueError):
            f.values[dom.node_index([0.0, 0.0])] = -1.0
    # the array handed in is the field's own, so it is frozen too
    with pytest.raises(ValueError):
        values[dom.node_index([0.0, 0.0])] = -1.0


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
    for sqrt_det, rows in faces:
        assert np.array_equal(np.isfinite(sqrt_det), dom.in_mask)
        assert np.array_equal(np.isfinite(rows), np.broadcast_to(dom.in_mask, rows.shape))


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
