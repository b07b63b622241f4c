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


# -- closed-form cut cells -----------------------------------------------------


def _exact_cube_fraction(a, t):
    """Vol{u in [0, 1]^n : a . u <= t} in exact rational arithmetic, with
    every nonzero component kept."""
    import itertools
    import math
    from fractions import Fraction

    a = [Fraction(float(x)) for x in a]
    t = Fraction(float(t)) - sum(x for x in a if x < 0)
    a = [abs(x) for x in a if x != 0]
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
        assert _cube_fraction(axis, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert _cube_fraction(-np.eye(n)[-1], -0.3) == pytest.approx(0.7, abs=1e-15)
        assert _cube_fraction(axis, 1.7) == 1.0 and _cube_fraction(axis, -0.1) == 0.0
    # the corner simplex t^n / n!, and halves by symmetry on the diagonal
    for t, volume in ((0.5, 1 / 8), (1.0, 1 / 2), (1.5, 7 / 8)):
        assert _cube_fraction([1.0, 1.0], t) == pytest.approx(volume, abs=1e-15)
    for t, volume in ((1.0, 1 / 6), (1.5, 1 / 2), (2.0, 5 / 6), (0.5, 1 / 48)):
        assert _cube_fraction([1.0, 1.0, 1.0], t) == pytest.approx(volume, abs=1e-15)
    assert _cube_fraction([1.0] * 4, 1.0) == pytest.approx(1 / 24, abs=1e-15)
    assert _cube_fraction([1.0] * 4, 2.0) == pytest.approx(1 / 2, abs=1e-15)
    assert _cube_fraction([-1.0, 1.0], 0.0) == pytest.approx(1 / 2, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), st.floats(-0.2, 1.2))))
def test_cube_fraction_complement_symmetry(case):
    a, share = case
    a = np.asarray(a)
    assume(np.max(np.abs(a)) >= 1e-3)
    # t from below the cube's lowest vertex to above its highest
    t = share * np.sum(np.abs(a)) + np.sum(np.minimum(a, 0.0))
    total = _cube_fraction(a, t) + _cube_fraction(-a, -t)
    assert abs(total - 1.0) <= 2 * _ROUNDING[len(a)]


def test_cube_fraction_axis_aligned_and_near_zero_normals_n4():
    rng = np.random.default_rng(4)
    normals = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 1e-12, 0.0, -1e-12],
               [0.6, 0.8, 1e-12, -1e-12], [0.5, -0.5, 0.5, 1e-12], [0.6, -0.8, 0.0, 0.0],
               [1.0, 0.99e-5, 0.5, 0.3], [1.0, -2e-5, 0.5, 0.3], [1.0, 0.4, -1e-3, 2e-3]]
    for a in map(np.asarray, normals):
        low, high = np.sum(np.minimum(a, 0.0)), np.sum(np.maximum(a, 0.0))
        for t in np.concatenate([rng.uniform(low - 0.1, high + 0.1, 40), [low, high, 0.0]]):
            # dropping a component below 1e-5 of the largest moves the
            # fraction by at most |a_i| / (4 max |a|)
            dropped = np.sum(np.abs(a)[np.abs(a) < 1e-5 * np.max(np.abs(a))])
            bound = dropped / (4.0 * np.max(np.abs(a))) + _ROUNDING[4]
            assert abs(_cube_fraction(a, t) - _exact_cube_fraction(a, t)) <= bound
    # components near 1e-12 give the lower-dimensional fraction
    for t in np.linspace(-0.2, 1.6, 19):
        assert _cube_fraction([0.6, 0.8, 1e-12, -1e-12], t) == pytest.approx(
            _cube_fraction([0.6, 0.8], t), abs=1e-12)
        assert _cube_fraction([1.0, 1e-12, 1e-12, 1e-12], t) == pytest.approx(
            min(max(t - 1.5e-12, 0.0), 1.0), abs=1e-12)


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
    moved = dom.weights.ravel() / h**n - base * sqrt_det
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
        e = dom.make_field(values)
        assert np.all(np.isnan(e.values[~dom.in_mask]))
        assert np.array_equal(e.values[dom.in_mask], values[dom.in_mask])
        lap = laplacian(e).values
        reference = laplacian(dom.field_from_function(
            lambda p: 1.0 + np.sum(p**2, axis=-1))).values
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
    arrays = {"center_distances": dom.center_distances(), "box_distances": dom.box_distances(off),
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
def test_metric_passes_are_bitwise_the_same_in_any_blocks_on_any_threads(kind, n, h, monkeypatch):
    from mvlab import grid

    metric = {"conformal": lambda: conformal_metric(n, 0.01, axis=1),
              "sine": lambda: sine_metric(n, 0.02, entry=(0, 1), axis=1),
              "polynomial": lambda: polynomial_metric(
                  n, [(0, 0, 0.01, (0, 2) + (0,) * (n - 2)),
                      (0, 1, 0.005, (1, 1) + (0,) * (n - 2))], 0.03)}[kind]()

    def arrays(workers, block_bytes):
        monkeypatch.setattr(grid, "_WORKERS", workers)
        monkeypatch.setattr(grid, "_BLOCK_BYTES", block_bytes)
        return _metric_arrays(make_ball_domain([0.0] * n, 1.0, h, n, metric))

    # the default blocks (at least 4 of the box, 3 of the mask here) on at
    # least two threads, against one worker with the whole box in one block
    threaded = arrays(max(2, grid._WORKERS), grid._BLOCK_BYTES)
    reference = arrays(1, 1 << 62)
    assert np.isnan(reference["laplacian"]).any()  # NaN off the mask, compared too
    for name, ref in reference.items():
        array = threaded[name]
        assert array.shape == ref.shape and array.tobytes() == ref.tobytes(), name


def test_block_mapper_runs_every_block_once_under_contention(monkeypatch):
    import sys
    import threading
    import time

    from mvlab import grid

    # more threads than cores, a fresh pool of them, 3-row blocks at n = 2 and
    # a short switch interval; every map runs on a thread joined with a timeout
    monkeypatch.setattr(grid, "_WORKERS", 8)
    monkeypatch.setattr(grid, "_POOL", (None, None))
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 3 * 8 * 2 * 2)
    seen = np.zeros(3000, dtype=int)
    outcome = {}

    def kernel(rows):
        if rows.start >= 2700 and threading.current_thread() is not threading.main_thread():
            time.sleep(0.01)  # pool threads finish last: the mapper must wait for them
        seen[rows] += 1  # a block handed out twice, or skipped, shows here
        if rows.start in failing:
            raise ValueError(rows.start)
        return rows.start

    def run():
        try:
            outcome["results"] = grid._map_blocks(len(seen), 2, kernel)
        except ValueError as exc:
            outcome["error"] = exc.args[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for failing in (set(), {2400, 900, 2997}):
            seen[:] = 0
            outcome.clear()
            mapper = threading.Thread(target=run)
            mapper.start()
            mapper.join(timeout=60)
            assert not mapper.is_alive()
            assert np.all(seen == 1)
            if failing:  # every block still ran; the first failing block's error is raised
                assert outcome == {"error": 900}
            else:
                assert outcome == {"results": list(range(0, 3000, 3))}
    finally:
        sys.setswitchinterval(interval)
        if grid._POOL[1] is not None:
            grid._POOL[1].shutdown(wait=True)


def test_public_grid_functions_run_on_the_main_thread_only(monkeypatch):
    import functools
    import inspect
    import sys
    import threading

    from mvlab import grid, heinz_scan, laplacian

    # pool threads must run private kernels only: a public function (the
    # benchmark tracer's spans wrap them) may run on the calling thread alone
    off_main = []

    def checked(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("mvlab")]
    for attr, fn in list(vars(grid).items()):
        if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == grid.__name__:
            for module in modules:
                if vars(module).get(attr) is fn:
                    monkeypatch.setattr(module, attr, checked(attr, fn))
    for cls in (grid.Domain, grid.ScalarField, grid.MetricSpec):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                monkeypatch.setattr(cls, attr, checked(f"{cls.__name__}.{attr}", member))
            elif isinstance(member, property):
                monkeypatch.setattr(cls, attr, property(checked(f"{cls.__name__}.{attr}",
                                                                member.fget)))
            elif isinstance(member, functools.cached_property):
                cached = functools.cached_property(checked(f"{cls.__name__}.{attr}", member.func))
                cached.__set_name__(cls, attr)
                monkeypatch.setattr(cls, attr, cached)
    # the kernels do run on pool threads: many blocks, at least two workers
    kernels = []
    kernel = grid._segment_block

    def counted(*args):
        kernels.append(threading.current_thread() is threading.main_thread())
        return kernel(*args)

    monkeypatch.setattr(grid, "_segment_block", counted)
    monkeypatch.setattr(grid, "_WORKERS", max(2, grid._WORKERS))
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 500 * 8 * 3 * 3)

    dom = grid.make_ball_domain([0.0] * 3, 1.0, 1 / 16, 3, conformal_metric(3, 0.01, axis=1))
    e = dom.field_from_function(lambda p: np.exp(-4.0 * np.sum((p - 0.25) ** 2, axis=-1)))
    laplacian(e)
    heinz_scan(e, dom.center, 1.0)
    assert off_main == []
    assert not all(kernels) and any(kernels)


def _meshgrid_points(dom):
    """Every box node's coordinates from a full meshgrid, as a cached
    coordinate array used to hold them: shape (nodes, n), C-order."""
    axes = [o + dom.spacing * np.arange(k) for o, k in zip(dom.origin, dom.shape)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("ball", "half_ball", "lifted_half_ball", "conformal"))
def test_coordinates_from_the_axes_are_bitwise_the_meshgrid_ones(kind, n):
    from mvlab.calculus import _window_points
    from mvlab.grid import segment_distance

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
    # the centre distances, Euclidean or block by block on the metric ball
    assert np.array_equal(dom.center_distances(),
                          segment_distance(dom.metric, dom.center, ref).reshape(dom.shape))
    off = dom.center + np.array([0.3] + [-0.2] * (n - 1))
    assert np.array_equal(dom.box_distances(off),
                          segment_distance(dom.metric, off, ref).reshape(dom.shape))
    rng = np.random.default_rng(n)
    for center, radius in [(dom.center, 0.5), (dom.origin, 0.3), (dom.center, 10.0)] + [
            (dom.center + rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 0.6)) for _ in range(5)]:
        win = dom.window(center, radius)
        inside = dom.in_mask[win].ravel()
        window_ref = grid[win].reshape(-1, n)
        assert np.array_equal(_window_points(dom, win), window_ref[inside])
        assert np.array_equal(np.sqrt(dom.squared_distances(center, win)),
                              np.linalg.norm(grid[win] - center, axis=-1))


def test_euclidean_n4_pipeline_allocates_no_coordinate_box():
    import math
    import tracemalloc

    from mvlab import GeneratorSpec, gen
    from mvlab.calculus import laplacian

    # n = 4, h = 1/16: 35^4 = 1.5M box nodes. Each step may keep box-sized
    # scalar arrays (centre distances, weights, the field, the Laplacian),
    # but none may allocate, over what was traced when it began, as much as
    # one (nodes x n) float64 coordinate array.
    limit = 35**4 * 4 * 8
    over = {}

    def step(name, work):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = work()
        over[name] = tracemalloc.get_traced_memory()[1] - start
        return result

    tracemalloc.start()
    try:
        dom = step("domain", lambda: make_ball_domain([0.0] * 4, 1.0, 1 / 16, 4))
        step("weights", lambda: dom.weights)
        field = step("gen", lambda: gen(GeneratorSpec("quadratic"), dom))
        step("laplacian", lambda: laplacian(field))
    finally:
        tracemalloc.stop()
    assert math.prod(dom.shape) * dom.dimension * 8 == limit
    assert all(peak < limit for peak in over.values()), over
