"""Heinz scan and comparison functions."""

import json

import numpy as np
import pytest

from mvlab import (
    BoundParams,
    comparison_function_boundary,
    comparison_function_interior,
    conformal_metric,
    heinz_scan,
    laplacian,
    make_ball_domain,
    make_half_ball_domain,
    normal_derivative,
)
from mvlab import grid
from mvlab.cli import main
from mvlab.errors import EmptyBall, MVLabError
from mvlab.synth import GeneratorSpec, gen


def test_constant_field_scan():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("constant", amplitude=3.0), dom)
    rep = heinz_scan(e, [0, 0], 1.0)
    assert rep.rho_bar == 0.0
    assert rep.c_bar == 3.0
    assert rep.eps == 0.5
    # equality case: e(center) = 2^n eps^n c_bar exactly
    ch = rep.check("center_bound")
    assert ch.lhs == ch.rhs == 3.0
    assert rep.all_passed()


def _bruteforce_rho_bar(e, center, r):
    """Smallest maximizer d/r, over the in-mask node distances d < r, of
    (1 - d/r)^n times the sup over the nodes at distance <= d."""
    dom = e.domain
    dist = dom.distance(dom.in_mask_points(), np.asarray(center, dtype=float))
    vals = e.box()[dom.in_mask]
    best_rho, best_f = None, -np.inf
    for d in np.unique(dist[dist < r]):
        f = (1.0 - d / r) ** dom.dimension * vals[dist <= d].max()
        if f > best_f:
            best_rho, best_f = d / r, f
    return best_rho


def test_spike_scan_matches_bruteforce():
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    values = np.where(dom.in_mask, 1.0, np.nan)
    spike_at = dom.node_index([0.375, 0.0])
    values[spike_at] = 50.0
    e = dom.make_field(values[dom.in_mask])
    rep = heinz_scan(e, [0, 0], 1.0)

    assert rep.rho_bar == _bruteforce_rho_bar(e, [0, 0], 1.0)
    assert rep.c_bar == 50.0
    assert rep.x_bar == pytest.approx((0.375, 0.0))
    # the spike beats the (1-rho)^n decay, so the scan stops exactly on it
    assert rep.rho_bar == 0.375


def test_two_spike_field_passes_both_checks():
    # a step the old sampled rho grid stepped over: the far spike's f is the
    # larger by 0.8%, and stopping on the near one breaks neighborhood_bound
    h = 1 / 256
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    values = np.where(dom.in_mask, 1e-3, np.nan)
    values[dom.node_index([63 * h, 0.0])] = 1.0
    values[dom.node_index([159 * h, -9 * h])] = 4.01
    rep = heinz_scan(dom.make_field(values[dom.in_mask]), [0, 0], 1.0)
    assert rep.c_bar == 4.01
    assert rep.x_bar == (159 * h, -9 * h)
    assert rep.rho_bar == np.hypot(159 * h, -9 * h)
    assert rep.check("center_bound").passed
    assert rep.check("neighborhood_bound").passed


def _family(dom):
    return [
        gen(GeneratorSpec("constant", amplitude=1.0), dom),
        gen(GeneratorSpec("quadratic", amplitude=1.0, offset=0.2), dom),
        gen(GeneratorSpec("bubble", center=(0.25, -0.125), scale=1 / 8), dom),
        gen(GeneratorSpec("harmonic_product", scale=1.2, offset=0.1), dom),
    ]


def test_rho_bar_is_the_bruteforce_maximum_over_node_distances():
    fields = _family(make_ball_domain([0, 0], 1.0, 1 / 64, 2))
    dom = make_ball_domain([0.0] * 3, 1.0, 1 / 16, 3, conformal_metric(3, 0.01, axis=1))
    fields.append(dom.field_from_function(
        lambda p: np.exp(-8.0 * np.sum((p - 0.3) ** 2, axis=-1))))
    for e in fields:
        center = e.domain.center
        for r in (1.0, 0.5):
            rep = heinz_scan(e, center, r)
            assert rep.rho_bar == _bruteforce_rho_bar(e, center, r), (e.facts, r)


def _sorted_scan(e, center, r):
    """The scan by a sorted prefix sup, as a reference: the in-mask nodes in
    a stable sort by distance, the running max of their values, rho_bar the
    first maximizer of (1 - d/r)^n times that max over the nodes (d < r)
    where it rises, c_bar the running max over the closed ball of radius
    rho_bar r, x_bar the lexicographically smallest node there with that
    value, and the running max over the closed ball of radius eps r about
    x_bar. Closed balls take a tolerance of 1e-12 max(1, farthest distance)."""
    dom = e.domain

    def prefix(point):
        dist = dom.distance(dom.in_mask_points(), np.asarray(point, dtype=float))
        order = np.argsort(dist, kind="stable")
        return dist[order], e.values[order], dom._mask_nodes[order]

    def closed(d, radius):  # how many sorted nodes the closed ball holds
        return int(np.searchsorted(d, radius + 1e-12 * max(1.0, d[-1]), side="right"))

    d, vals, nodes = prefix(center)
    running = np.maximum.accumulate(vals)
    rises = (np.diff(running, prepend=-np.inf) > 0) & (d < r)
    rhos = d[rises] / r
    rho_bar = float(rhos[np.argmax((1.0 - rhos) ** dom.dimension * running[rises])])
    k = closed(d, rho_bar * r)
    c_bar = float(running[k - 1])
    x_bar = dom.node_point(min(np.unravel_index(int(i), dom.shape)
                               for i in nodes[:k][vals[:k] == c_bar]))
    d, vals, _ = prefix(x_bar)
    around = float(np.max(vals[:closed(d, 0.5 * (1.0 - rho_bar) * r)]))
    return rho_bar, c_bar, tuple(x_bar), around


@pytest.mark.parametrize("case", ("ball-n2", "ball-n3", "ball-n4", "half-ball-n3",
                                  "conformal-n3"))
def test_scan_is_the_sorted_prefix_sup_scan(case):
    kind, n = case.rsplit("-n", 1)
    n = int(n)
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    center = [0.0] * n
    if kind == "half-ball":
        dom = make_half_ball_domain(center, 1.0, h, n)
    else:
        dom = make_ball_domain(center, 1.0, h, n,
                               conformal_metric(n, 0.01, axis=1) if kind == "conformal" else None)
    rng = np.random.default_rng(n)
    rough = rng.uniform(0.0, 1.0, dom.node_count)
    points = dom.in_mask_points()
    axis1 = np.abs(points[:, 1])
    on_axis1 = np.all(points[:, [0] + list(range(2, n))] == 0.0, axis=-1)
    fields = {
        "rough": rough,
        "ties": np.round(4.0 * rough) / 4.0,  # five levels: ties at every distance
        "constant": np.full(dom.node_count, 3.0),
        "gaussian": np.exp(-8.0 * np.sum((points - 0.3) ** 2, axis=-1)),
        # two peaks at one distance: x_bar is the first in C order
        "twin-peaks": np.where(on_axis1 & (axis1 == 0.25), 1.0, 0.1),
        # f(0) = f(1/2) = 1 about the centre at r = 1: rho_bar is the smaller
        "tied-f": np.where(on_axis1 & (points[:, 1] == -0.5), 2.0**n,
                           np.where(on_axis1 & (axis1 == 0.0), 1.0, 0.25)),
    }
    for name, values in fields.items():
        e = dom.make_field(values)
        for r in (1.0, 0.7):  # rho_bar r need not be a node distance at 0.7
            rep = heinz_scan(e, center, r)
            got = (rep.rho_bar, rep.c_bar, rep.x_bar, rep.check("neighborhood_bound").lhs)
            assert got == _sorted_scan(e, center, r), (name, r)
            if name != "rough":
                assert rep.rho_bar == _bruteforce_rho_bar(e, center, r), (name, r)


def test_scan_maximizes_f_where_every_value_is_a_tiny_negative():
    # the density gate lets values down to -1e-12 max|e| through; where all
    # the ball's values are negative, f grows with rho, and the scan takes
    # the farthest node, as the brute force does
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    values = np.where(np.hypot(*dom.in_mask_points().T) < 0.3, -1e-13, 1.0)
    e = dom.make_field(values)
    rep = heinz_scan(e, [0, 0], 0.25)
    assert rep.c_bar == -1e-13
    assert rep.rho_bar == _bruteforce_rho_bar(e, [0, 0], 0.25) > 0.9


@pytest.mark.parametrize("n", (2, 3, 4))
def test_scan_is_covariant_under_powers_of_two(n):
    h = {2: 1 / 32, 3: 1 / 16, 4: 1 / 8}[n]
    dom = make_ball_domain([0.0] * n, 1.0, h, n, conformal_metric(n, 0.01) if n == 3 else None)
    e = dom.field_from_function(lambda p: np.exp(-8.0 * np.sum((p - 0.3) ** 2, axis=-1)))
    base = heinz_scan(e, dom.center, 1.0)
    assert base.x_bar != tuple(dom.center)
    for k in (-3, 5):
        s = 2.0**k
        rep = heinz_scan(dom.make_field(s * e.values), dom.center, 1.0)
        assert (rep.rho_bar, rep.x_bar, rep.eps) == (base.rho_bar, base.x_bar, base.eps)
        assert rep.c_bar == s * base.c_bar
        for got, want in zip(rep.checks, base.checks):
            assert (got.name, got.lhs, got.rhs) == (want.name, s * want.lhs, s * want.rhs)


@pytest.mark.parametrize("r", (0.0, -0.5, np.nan, np.inf))
def test_scan_radius_must_be_positive_and_finite(tmp_path, r):
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("constant"), dom)
    with pytest.raises(MVLabError, match="scan radius"):
        heinz_scan(e, [0, 0], r)
    if r == 0.0:
        cfg = tmp_path / "heinz.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
                       "spacing": 1 / 32, "dimension": 2},
            "generator": {"kind": "constant"},
            "radius": 0,
        }), encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "heinz-scan"]) == 3
        assert not (tmp_path / "out" / "heinz.txt").exists()


def test_bubble_scan_peak_at_center():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=1 / 8), dom)
    rep = heinz_scan(e, [0, 0], 1.0)
    assert rep.rho_bar == 0.0
    assert rep.c_bar == e.at([0, 0])
    assert rep.all_passed()


def test_scan_invariants_hold_on_family():
    for e in _family(make_ball_domain([0, 0], 1.0, 1 / 64, 2)):
        rep = heinz_scan(e, [0, 0], 1.0)
        assert rep.all_passed(), (e.facts, rep.as_dict())
        assert rep.rho_bar < 1.0 and rep.eps <= 0.5


def test_scan_on_half_ball():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    e = gen(GeneratorSpec("reflected_bubble", center=(0.0, 0.25), scale=1 / 8), dom)
    rep = heinz_scan(e, [0.0, 0.0], 1.0)
    assert rep.all_passed()
    # the maximizer trades the (1-rho)^n decay against the peak distance, so
    # x_bar may stop a node short of the bubble center
    assert np.linalg.norm(np.array(rep.x_bar) - [0.0, 0.25]) <= 2 / 64


def test_empty_ball_for_off_grid_center():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("constant"), dom)
    with pytest.raises(EmptyBall):
        heinz_scan(e, [1 / 64, 0], 1.0)


def test_scan_determinism():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("bubble", center=(0.125, 0.25), scale=1 / 4), dom)
    r1 = heinz_scan(e, [0, 0], 1.0)
    r2 = heinz_scan(e, [0, 0], 1.0)
    assert r1.as_dict() == r2.as_dict()


@pytest.mark.parametrize("n", (2, 3))
def test_scan_about_the_domain_centre_takes_exact_distances_on_demand(monkeypatch, n):
    from mvlab.heinz import _node_distances

    dom = make_ball_domain([0.0] * n, 1.0, 1 / 16, n, conformal_metric(n, 0.01, axis=1))
    # off-centre peak, so the neighbourhood check about x_bar needs new distances
    e = dom.field_from_function(lambda p: np.exp(-8.0 * np.sum((p - 0.3) ** 2, axis=-1)))
    exact = dom.distance(dom.in_mask_points())
    # the domain's distances are exact only near the sphere: deep inside, f L
    kept = dom.center_distances()[dom.in_mask]
    assert np.all(kept <= exact) and np.any(kept < exact)
    calls = []
    original = grid.segment_distance

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(grid, "segment_distance", counted)
    rep = heinz_scan(e, dom.center, 1.0)
    assert rep.x_bar != tuple(dom.center)
    assert len(calls) == 2  # about the centre, then about x_bar
    positions, dist = _node_distances(dom, dom.center)
    assert positions == slice(None) and dist.tobytes() == exact.tobytes()


def test_interior_comparison_pure_quadratic():
    n = 2
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, n)
    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    params = BoundParams(n, A0=float(n))
    res = comparison_function_interior(zero, [0, 0], params, c_bar=0.0)
    # v = |x|^2, positive-definite laplacian -2n, well below tolerance
    lap = laplacian(res.field).values
    finite = np.isfinite(lap)
    assert np.allclose(lap[finite], -2.0 * n, atol=1e-9)
    assert res.passed


def test_interior_comparison_morrey_case_returns_e():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("quadratic", amplitude=0.5, offset=0.1), dom)
    res = comparison_function_interior(e, [0, 0], BoundParams(2), c_bar=1.0)
    inside = dom.in_mask
    assert np.array_equal(res.field.box()[inside], e.box()[inside])


def test_interior_comparison_with_nonlinearity():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=1 / 4), dom)
    rep = heinz_scan(e, [0, 0], 1.0)
    a_fit = 8.0  # exact critical ratio for the unit-amplitude bubble
    params = BoundParams(2, a=a_fit)
    res = comparison_function_interior(e, rep.x_bar, params, rep.c_bar,
                                       check_radius=rep.eps * 1.0)
    assert res.passed, res.max_laplacian


def test_boundary_comparison_examples():
    n = 2
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, n)
    zero = dom.field_from_function(lambda p: np.zeros(len(p)))

    res = comparison_function_boundary(zero, [0.0, 0.0], a_bound=2.0 * n, b_bound=0.0)
    assert res.passed
    res2 = comparison_function_boundary(zero, [0.0, 0.0], a_bound=0.0, b_bound=1.0)
    nd = normal_derivative(res2.field)
    vals = nd.values[nd.finite()]
    assert np.max(np.abs(vals + 1.0)) < 1e-12  # v = x0 exactly
    assert res2.passed

    x0_field = dom.field_from_function(lambda p: p[:, 0])
    res3 = comparison_function_boundary(x0_field, [0.0, 0.0], a_bound=0.0, b_bound=2.0)
    # v = 3 x0: normal derivative -3, laplacian 0
    assert res3.max_normal_derivative == pytest.approx(-3.0, abs=1e-12)
    assert res3.passed


def test_boundary_comparison_drops_x0_term_inside():
    # ball strictly inside the half space: r <= y0 branch
    dom = make_half_ball_domain([2.0, 0.0], 1.0, 1 / 32, 2)
    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    res = comparison_function_boundary(zero, [2.0, 0.0], a_bound=4.0, b_bound=7.0)
    # without the x0 term v = (1/2n) A |x-y|^2 vanishes at the center
    assert res.field.at([2.0, 0.0]) == 0.0
    assert res.max_normal_derivative is None  # no flat nodes
    assert res.passed


def test_v_dominates_e_pointwise():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("quadratic", amplitude=0.5, offset=0.3), dom)
    res = comparison_function_boundary(e, [0.0, 0.0], a_bound=1.0, b_bound=1.0)
    inside = dom.in_mask
    assert np.all(res.field.box()[inside] >= e.box()[inside] - 1e-12)


@pytest.mark.parametrize("n,metric", [(2, None), (3, None), (2, "conformal"), (3, "conformal")])
def test_neighbourhood_window_matches_the_full_scan(monkeypatch, n, metric):
    from mvlab import heinz

    spec = conformal_metric(n, 0.01, axis=1) if metric else None
    dom = make_ball_domain([0.0] * n, 1.0, 1 / 16, n, spec)
    rng = np.random.default_rng(n)
    # a rough field, so the sup changes with almost every node taken in
    e = dom.make_field(rng.uniform(0.0, 1.0, dom.shape)[dom.in_mask])
    h = dom.spacing
    axis_steps = np.concatenate([k * h * np.eye(n) for k in range(-7, 8) if k])
    for x_bar in ([0.25] + [0.0] * (n - 1), [-0.5, -0.375] + [0.125] * (n - 2)):
        x_bar = np.asarray(x_bar)
        _, full = heinz._node_distances(dom, x_bar)
        # node distances as radii, the worst case for the tolerance; those of
        # the nodes on the axes through x_bar reach the window's faces, and
        # where x1 < 0 the metric distance is shorter than the Euclidean one
        radii = np.concatenate([np.sort(full[full <= 0.45], kind="stable")[::7],
                                dom.distance(x_bar + axis_steps, x_bar)])
        for radius in radii:
            positions, dist = heinz._node_distances(dom, x_bar, heinz._window_reach(dom, radius))
            taken = np.flatnonzero(heinz._closed_ball(full, radius))
            assert np.isin(taken, positions).all()
            # the same sup, first reached at the same node in C order
            windowed = positions[heinz._closed_ball(dist, radius)]
            sup = e.values[taken].max()
            assert e.values[windowed].max() == sup
            assert windowed[e.values[windowed] == sup][0] == taken[e.values[taken] == sup][0]
    # and whole scans, peaked off the centre so x_bar moves
    e = dom.field_from_function(lambda p: np.exp(-8.0 * np.sum((p - 0.3) ** 2, axis=-1)))
    windowed = heinz_scan(e, dom.center, 1.0).as_dict()
    monkeypatch.setattr(heinz, "_window_reach", lambda dom, radius: None)
    assert heinz_scan(e, dom.center, 1.0).as_dict() == windowed


def _domains(n, h=1 / 16):
    return make_ball_domain([0.0] * n, 1.0, h, n), make_half_ball_domain([0.0] * n, 1.0, h, n)


@pytest.mark.parametrize("metric", [False, True])
@pytest.mark.parametrize("chunk", [1 << 17, 64])
def test_interior_check_ball_is_the_distance_ball_at_the_in_mask_nodes(monkeypatch, metric,
                                                                       chunk):
    from mvlab.verify import _bound_margin

    # the check ball, read a block of rows at a time (blocks of a few rows
    # with _CHUNK = 64), picks the in-mask nodes within the domain's distance
    spec = conformal_metric(2, 0.01, axis=1) if metric else None
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2, spec)
    monkeypatch.setattr(grid, "_CHUNK", chunk)
    x_bar = np.array([0.25, 0.0])
    # Delta e = 16 |x - x_bar|^2: the largest value sits on the ball's rim
    e = dom.field_from_function(lambda p: -np.sum((p - x_bar) ** 2, axis=-1) ** 2,
                                density=False)
    res = comparison_function_interior(e, x_bar, BoundParams(2), 0.0, check_radius=0.3)
    distance = dom.distance(dom.in_mask_points(), x_bar)
    ball = distance <= 0.3
    assert res.max_laplacian == _bound_margin(res.field, BoundParams(2), False, ball)[0]
    wider = distance <= 0.3 + dom.spacing / 2
    assert res.max_laplacian < _bound_margin(res.field, BoundParams(2), False, wider)[0]


@pytest.mark.parametrize("n", [3, 4])
def test_comparison_examples_in_higher_dimensions(n):
    ball, half = _domains(n)
    zero = ball.field_from_function(lambda p: np.zeros(len(p)))
    res = comparison_function_interior(zero, [0.0] * n, BoundParams(n, A0=float(n)), c_bar=0.0)
    assert res.max_laplacian == pytest.approx(-2.0 * n, abs=1e-9)  # v = |x|^2
    assert res.max_normal_derivative is None and res.passed
    # a signed field keeps all its nodes: a zero power term is not evaluated
    signed = ball.field_from_function(lambda p: np.sum(p**2, axis=-1) - 1.0, density=False)
    res = comparison_function_interior(signed, [0.0] * n, BoundParams(n), c_bar=0.0)
    assert res.max_laplacian == pytest.approx(-2.0 * n, abs=1e-9)

    zero = half.field_from_function(lambda p: np.zeros(len(p)))
    res = comparison_function_boundary(zero, [0.0] * n, a_bound=0.0, b_bound=1.0)
    assert res.max_normal_derivative == pytest.approx(-1.0, abs=1e-12)  # v = x0
    assert res.passed
    x0_field = half.field_from_function(lambda p: p[:, 0])
    res = comparison_function_boundary(x0_field, [0.0] * n, a_bound=0.0, b_bound=2.0)
    assert res.max_normal_derivative == pytest.approx(-3.0, abs=1e-12)  # v = 3 x0
    assert res.max_laplacian == pytest.approx(0.0, abs=1e-9)
    assert res.passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_comparison_fails_when_b_is_too_small(n):
    _, half = _domains(n)
    # |x - (1/2, 0, ...)|^2 has outer derivative +1 on the plane and Delta = -2n
    bowl = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(0.5,) + (0.0,) * (n - 1)),
               half)
    short = comparison_function_boundary(bowl, [0.0] * n, a_bound=0.0, b_bound=0.0)
    assert short.max_normal_derivative == pytest.approx(1.0, abs=1e-9)
    assert short.max_normal_derivative > 10 * half.spacing
    assert short.max_laplacian < 0 and not short.passed
    enough = comparison_function_boundary(bowl, [0.0] * n, a_bound=0.0, b_bound=1.0)
    assert enough.max_normal_derivative == pytest.approx(0.0, abs=1e-9) and enough.passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interior_comparison_checks_only_its_ball(n):
    ball, half = _domains(n)
    peak = np.array([0.625] + [0.0] * (n - 1))
    # a Gaussian of width 1/8 at peak: Delta = 2n / s^2 = 128 n there,
    # negative beyond |x - peak| = s sqrt(n / 2)
    bump = ball.field_from_function(
        lambda p: np.exp(-np.sum((p - peak) ** 2, axis=-1) * 64.0))
    origin = [0.0] * n
    near = comparison_function_interior(bump, origin, BoundParams(n), 0.0, check_radius=0.25)
    assert near.max_laplacian <= 0.0 and near.passed
    far = comparison_function_interior(bump, origin, BoundParams(n), 0.0, check_radius=0.75)
    assert far.max_laplacian > 10 * ball.spacing and not far.passed
    assert not comparison_function_interior(bump, origin, BoundParams(n), 0.0).passed
    # a check ball without a node: no usable Laplacian, no error
    empty = comparison_function_interior(bump, [0.03] * n, BoundParams(n), 0.0,
                                         check_radius=0.01)
    assert empty.max_laplacian == -np.inf and empty.passed
    # on a half-ball the interior comparison checks the Laplacian only
    bowl = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(0.5,) + (0.0,) * (n - 1)),
               half)
    res = comparison_function_interior(bowl, origin, BoundParams(n), 0.0)
    assert res.max_normal_derivative is None and res.passed
