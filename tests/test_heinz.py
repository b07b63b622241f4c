"""Heinz scan and comparison functions."""

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
from mvlab.errors import EmptyBall
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


def test_spike_scan_matches_bruteforce():
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    values = np.where(dom.in_mask, 1.0, np.nan)
    spike_at = dom.node_index([0.375, 0.0])
    values[spike_at] = 50.0
    e = dom.make_field(values)
    res = 256
    rep = heinz_scan(e, [0, 0], 1.0, rho_resolution=res)

    # independent brute force over the same rho grid
    pts = dom.in_mask_points()
    vals = e.values[dom.in_mask]
    dist = np.linalg.norm(pts, axis=-1)
    best_k, best_f = 0, -np.inf
    for k in range(res):
        rho = k / res
        ball = vals[dist <= rho + 1e-12]
        if ball.size == 0:
            continue
        f = (1 - rho) ** 2 * ball.max()
        if f > best_f:
            best_f, best_k = f, k
    assert abs(rep.rho_bar - best_k / res) <= 1.5 / res
    assert rep.c_bar == 50.0
    assert rep.x_bar == pytest.approx((0.375, 0.0))
    # spike dominates once rho r >= d when it beats the (1-rho)^n decay
    assert abs(rep.rho_bar - 0.375) <= 2 / res


def test_bubble_scan_peak_at_center():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=1 / 8), dom)
    rep = heinz_scan(e, [0, 0], 1.0)
    assert rep.rho_bar == 0.0
    assert rep.c_bar == e.at([0, 0])
    assert rep.all_passed()


def test_scan_invariants_hold_on_family():
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    fields = [
        gen(GeneratorSpec("constant", amplitude=1.0), dom),
        gen(GeneratorSpec("quadratic", amplitude=1.0, offset=0.2), dom),
        gen(GeneratorSpec("bubble", center=(0.25, -0.125), scale=1 / 8), dom),
        gen(GeneratorSpec("harmonic_product", scale=1.2, offset=0.1), dom),
    ]
    for e in fields:
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
def test_scan_about_the_domain_centre_reuses_its_distances(monkeypatch, n):
    dom = make_ball_domain([0.0] * n, 1.0, 1 / 16, n, conformal_metric(n, 0.01, axis=1))
    # off-centre peak, so the neighbourhood check about x_bar needs new distances
    e = dom.field_from_function(lambda p: np.exp(-8.0 * np.sum((p - 0.3) ** 2, axis=-1)))
    assert np.array_equal(dom.center_distances()[dom.in_mask],
                          dom.distance(dom.in_mask_points()))
    calls = []
    original = grid.segment_distance

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(grid, "segment_distance", counted)
    rep = heinz_scan(e, dom.center, 1.0)
    assert rep.x_bar != tuple(dom.center)
    assert len(calls) == 1


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
    assert np.array_equal(res.field.values[inside], e.values[inside])


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
    assert np.all(res.field.values[inside] >= e.values[inside] - 1e-12)
