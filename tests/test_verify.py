"""Mean value inequality checkers, monotonicity suite, constant estimation."""

import math

import numpy as np
import pytest

from mvlab import (
    BoundParams,
    estimate_constant,
    fit_boundary_nonlinearity,
    fit_nonlinearity,
    integrate,
    make_ball_domain,
    make_half_ball_domain,
    make_ledger,
    monotonicity_suite,
    verify_boundary_mvi,
    verify_interior_mvi,
    verify_morrey,
    vol_sphere,
)
from mvlab.errors import AllNodesBelowFloor, MVLabError
from mvlab.synth import GeneratorSpec, gen
from mvlab.verify import FAILS, HOLDS, HYPOTHESIS_VIOLATED


def test_fit_nonlinearity_examples():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    q = gen(GeneratorSpec("quadratic", amplitude=1.0, offset=0.1), dom)
    assert fit_nonlinearity(q, 0.0, 0.0) == 0.0
    assert fit_nonlinearity(q, 5.0, 0.0) == 0.0

    c = gen(GeneratorSpec("constant", amplitude=2.0), dom)
    assert fit_nonlinearity(c, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    with pytest.raises(AllNodesBelowFloor):
        fit_nonlinearity(zero, 0.0, 0.0)


def test_sup_and_fit_read_the_in_mask_nodes_only():
    # a field stores no value off the mask (a box with finite values there is
    # refused), so nothing off it moves the sup or the density floor of the fit
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("bubble", center=(0.25, 0.0), scale=0.125), dom)
    with pytest.raises(MVLabError):
        dom.make_field(np.where(dom.in_mask, e.box(), 1e12))
    loud = dom.make_field(np.where(dom.in_mask, e.box(), 1e12)[dom.in_mask])
    assert loud.sup() == e.sup() == float(np.max(e.box()[dom.in_mask]))
    assert fit_nonlinearity(loud, 0.0, 0.0) == fit_nonlinearity(e, 0.0, 0.0)


def test_fit_boundary_nonlinearity():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    x0 = gen(GeneratorSpec("linear_x0", amplitude=1.0, offset=0.5), dom)
    # normal derivative -1 < 0: no nonlinearity needed
    assert fit_boundary_nonlinearity(x0, 0.0, 0.0) == 0.0
    # against a declared negative budget the fit must compensate
    bump = gen(GeneratorSpec("reflected_bubble", center=(0.0, 0.0), scale=1 / 2), dom)
    b_req = fit_boundary_nonlinearity(bump, 0.0, 0.0)
    assert b_req >= 0.0  # stencil error only; symmetric profile needs ~none


def test_morrey_quadratic_holds():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    q = gen(GeneratorSpec("quadratic", amplitude=1.0), dom)
    rep = verify_morrey(q, c=0.5)
    assert rep.verdict == HOLDS
    assert rep.lhs == 0.0
    assert rep.margin > 0


def test_morrey_constant_scale():
    dom = make_ball_domain([0, 0], 1.0, 1 / 128, 2)
    c1 = gen(GeneratorSpec("constant", amplitude=1.0), dom)
    ok = verify_morrey(c1, c=1.05 / math.pi)
    assert ok.verdict == HOLDS
    bad = verify_morrey(c1, c=0.9 / math.pi)
    assert bad.verdict == FAILS
    assert ok.required_c == pytest.approx(1 / math.pi, rel=0.01)


def test_morrey_hypothesis_violated():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    sup = dom.field_from_function(lambda p: 1.0 - np.sum(p**2, axis=-1))
    rep = verify_morrey(sup, c=1.0)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert "laplacian-positive" in rep.reason


def test_morrey_half_ball_neumann_gate():
    dom = make_half_ball_domain([0.5, 0.0], 1.0, 1 / 64, 2)
    # |x - y|^2 with y0 > 0 has outward derivative +2 y0 > 0 on the plane
    q = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(0.5, 0.0)), dom)
    rep = verify_morrey(q, c=1.0)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert "normal-derivative-positive" in rep.reason
    # centered on the plane the derivative vanishes and the check passes
    dom0 = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    q0 = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(0.0, 0.0)), dom0)
    assert verify_morrey(q0, c=1.0).verdict == HOLDS


def test_interior_mvi_zero_field_and_quadratic():
    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    params = BoundParams(2, A0=5.0)
    ledger = make_ledger(2, 0.0, 0.0, 1.0)
    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    rep = verify_interior_mvi(zero, params, ledger)
    assert rep.verdict == HOLDS and rep.lhs == 0.0

    e = gen(GeneratorSpec("sum", parts=(
        GeneratorSpec("quadratic", amplitude=1.0),
        GeneratorSpec("harmonic_product", scale=0.8, amplitude=0.2, offset=0.0),
    )), dom)
    rep2 = verify_interior_mvi(e, BoundParams(2, A0=5.0), ledger)
    assert rep2.verdict == HOLDS
    assert rep2.hypothesis["branch"] in ("A0_term", "morrey_term", "A1_term")


def test_interior_mvi_energy_threshold():
    # small-scale bubble: fitted nonlinearity active and the energy exceeds
    # mu a^{-n/2}; the theorem is silent and the report says so
    dom = make_ball_domain([0, 0], 1.0, 1 / 128, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=1 / 8), dom)
    a_fit = fit_nonlinearity(e, 0.0, 0.0)
    params = BoundParams(2, a=a_fit)
    ledger = make_ledger(2, a_fit, 0.0, 3.0)
    rep = verify_interior_mvi(e, params, ledger)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert rep.reason == "energy-above-threshold"
    assert rep.hypothesis["energy"] > rep.hypothesis["energy_threshold"]


def test_interior_mvi_metric_gate():
    from mvlab import sine_metric

    metric = sine_metric(2, 0.04, entry=(0, 0), axis=1)
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2, metric)
    e = gen(GeneratorSpec("constant", amplitude=1.0), dom)
    params = BoundParams(2)
    tight = make_ledger(2, 0.0, 0.0, 1.0, delta=0.01)
    rep = verify_interior_mvi(e, params, tight)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert "metric-deviation" in rep.reason
    loose = make_ledger(2, 0.0, 0.0, 1.0, delta=0.05)
    rep2 = verify_interior_mvi(e, params, loose)
    assert rep2.verdict == HOLDS


def test_boundary_mvi_examples():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    ledger = make_ledger(2, 0.0, 0.0, 1.0)
    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    rep = verify_boundary_mvi(zero, BoundParams(2), ledger)
    assert rep.verdict == HOLDS

    x0 = gen(GeneratorSpec("linear_x0", amplitude=1.0), dom)
    rep2 = verify_boundary_mvi(x0, BoundParams(2, B0=1.0), ledger)
    assert rep2.verdict == HOLDS
    assert rep2.lhs == 0.0


def test_boundary_mvi_reflected_bubble_below_threshold():
    # wide, low-mass bubble keeps the energy below mu(a, b); the inequality
    # must then hold with an order-one constant
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 0.5, h, 2)
    e = gen(GeneratorSpec("reflected_bubble", center=(0.0, 0.0), scale=4.0), dom)
    a_fit = fit_nonlinearity(e, 0.0, 0.0)
    b_fit = fit_boundary_nonlinearity(e, 0.0, 0.0)
    params = BoundParams(2, a=a_fit, b=b_fit)
    ledger = make_ledger(2, a_fit, b_fit, 1.0)
    energy = integrate(e)
    assert energy <= ledger.energy_threshold_boundary()
    rep = verify_boundary_mvi(e, params, ledger)
    assert rep.verdict == HOLDS
    assert rep.required_c == pytest.approx(2 / math.pi, rel=0.1)


def test_specialization_interior_equals_morrey():
    for n, h in ((2, 1 / 64), (3, 1 / 16)):
        dom = make_ball_domain([0.0] * n, 1.0, h, n)
        ledger = make_ledger(n, 0.0, 0.0, 0.7)
        for spec in (GeneratorSpec("constant", amplitude=1.3),
                     GeneratorSpec("quadratic", amplitude=0.5, offset=0.2),
                     GeneratorSpec("harmonic_product", scale=1.1, offset=0.3)):
            e = gen(spec, dom)
            a = verify_morrey(e, c=0.7)
            b = verify_interior_mvi(e, BoundParams(n), ledger)
            assert a.verdict == b.verdict
            assert abs(a.margin - b.margin) <= 1e-12
            assert a.lhs == b.lhs and a.rhs == b.rhs


def test_specialization_boundary_equals_morrey():
    for n, h in ((2, 1 / 64), (3, 1 / 16)):
        dom = make_half_ball_domain([0.0] * n, 1.0, h, n)
        ledger = make_ledger(n, 0.0, 0.0, 0.9)
        for spec in (GeneratorSpec("constant", amplitude=0.8),
                     GeneratorSpec("linear_x0", amplitude=1.0, offset=0.1)):
            e = gen(spec, dom)
            a = verify_morrey(e, c=0.9)
            b = verify_boundary_mvi(e, BoundParams(n), ledger)
            assert a.verdict == b.verdict
            assert abs(a.margin - b.margin) <= 1e-12


def test_monotonicity_constant_on_plane():
    h = 1 / 128
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    c = gen(GeneratorSpec("constant", amplitude=2.0), dom)
    radii = list(np.linspace(16 * h, 0.9, 12))
    rep = monotonicity_suite(c, [0.0, 0.0], radii)
    assert rep.verdict == HOLDS
    assert rep.monotone
    assert rep.limit_kind == "half"
    assert rep.limit_value == pytest.approx(0.5 * vol_sphere(1) * 2.0, rel=1e-6)


def test_monotonicity_quadratic_interior_center():
    # center far above the plane: full shells, strictly increasing profile,
    # zero limit matched in absolute terms
    h = 1 / 64
    dom = make_half_ball_domain([2.0, 0.0], 1.0, h, 2)
    q = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(2.0, 0.0)), dom)
    radii = list(np.linspace(16 * h, 0.8, 10))
    rep = monotonicity_suite(q, [2.0, 0.0], radii)
    assert rep.verdict == HOLDS
    assert rep.monotone and rep.worst_drop >= 0.0
    assert rep.limit_kind == "full"
    assert rep.limit_target == 0.0
    assert abs(rep.limit_value) <= 2 * vol_sphere(1) * (16 * h) ** 2
    ms = rep.profile.values()
    assert np.all(np.diff(ms) > 0)
    # oracle: M(r) = 2 pi r^2 for the centered paraboloid
    for r, m in zip(rep.profile.radii(), ms):
        assert m == pytest.approx(2 * np.pi * r**2, abs=10 * h)


def test_monotonicity_harmonic_x0_on_plane():
    h = 1 / 128
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    x0 = gen(GeneratorSpec("linear_x0", amplitude=1.0), dom)
    radii = list(np.linspace(16 * h, 0.9, 10))
    # clipped shells of a linear field approach the zero limit at rate O(r):
    # at finite r_min the gradient term 2 r_min remains, so the pass floor is
    # the linear scale rather than the default curvature scale
    rep = monotonicity_suite(x0, [0.0, 0.0], radii, limit_abs_tol=3.0 * 16 * h)
    assert rep.verdict == HOLDS
    assert rep.monotone
    # M(r) grows linearly: r^{-1} int_{Gamma_r} x0 = 2r
    for r, m in zip(rep.profile.radii(), rep.profile.values()):
        assert m == pytest.approx(2.0 * r, abs=10 * h)
    assert rep.limit_target == 0.0
    assert rep.limit_value == pytest.approx(2.0 * 16 * h, abs=10 * h)


def test_monotonicity_crossing_center():
    # center height between sampled radii: frozen clipping below y0, the
    # large-radius inequality with the closed constant above it
    h = 1 / 128
    y0 = 32 * h
    dom = make_half_ball_domain([y0, 0.0], 1.0, h, 2)
    e = gen(GeneratorSpec("sum", parts=(
        GeneratorSpec("constant", amplitude=1.0),
        GeneratorSpec("linear_x0", amplitude=0.5),
    )), dom)
    radii = list(np.linspace(16 * h, 0.85, 14))
    rep = monotonicity_suite(e, [y0, 0.0], radii)
    assert rep.verdict == HOLDS, rep.as_dict()
    assert rep.limit_kind == "full"
    assert rep.limit_passed
    assert len(rep.large_r) > 0
    assert all(c.passed for c in rep.large_r)


def test_monotonicity_hypothesis_gate():
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    sup = dom.field_from_function(lambda p: 1.0 - np.sum(p**2, axis=-1))
    rep = monotonicity_suite(sup, [0.0, 0.0], [0.25, 0.5])
    assert rep.verdict == HYPOTHESIS_VIOLATED


def test_monotonicity_options_are_keyword_only():
    # a fourth positional argument was once the tolerance factor; it must not
    # land in limit_abs_tol
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 16, 2)
    e = gen(GeneratorSpec("constant"), dom)
    with pytest.raises(TypeError):
        monotonicity_suite(e, [0.0, 0.0], [0.25, 0.5], 10.0)


def test_estimate_constant_families():
    h = 1 / 128
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    consts = [gen(GeneratorSpec("constant", amplitude=a), dom) for a in (1.0, 2.0)]
    est = estimate_constant(consts, "interior")
    assert est.value == pytest.approx(1 / math.pi, rel=0.01)

    hb = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    est2 = estimate_constant([gen(GeneratorSpec("constant", amplitude=1.0), hb)],
                             "boundary")
    assert est2.value == pytest.approx(2 / math.pi, rel=0.01)

    peaks = [gen(GeneratorSpec("poisson_peak", pole=(1.6, 0.0)), dom),
             gen(GeneratorSpec("poisson_peak", pole=(1.2, 1.2)), dom)] + consts
    est3 = estimate_constant(peaks, "interior")
    assert abs(math.pi * est3.value - 1.0) <= 1e-4  # the constants attain the sharp 1/pi
    assert est3.value <= 1.05 / math.pi  # subharmonic ratios cap at the constant


def test_estimate_constant_rejects_bad_family():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    sup = dom.field_from_function(lambda p: 1.0 - np.sum(p**2, axis=-1))
    with pytest.raises(MVLabError):
        estimate_constant([sup], "interior")
    from mvlab.errors import EmptyFamily

    with pytest.raises(EmptyFamily):
        estimate_constant([], "interior")


def test_estimate_constant_draws_a_lazy_family_one_member_at_a_time():
    from mvlab.errors import EmptyFamily

    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    specs = [GeneratorSpec("constant", amplitude=a) for a in (1.0, 2.0)]
    drawn = []

    def family(specs):
        for spec in specs:
            drawn.append(spec)
            yield gen(spec, dom)

    est = estimate_constant(family(specs), "interior")
    assert est == estimate_constant([gen(s, dom) for s in specs], "interior")
    assert drawn == specs
    with pytest.raises(EmptyFamily):
        estimate_constant(iter([]), "interior")
    with pytest.raises(EmptyFamily):
        estimate_constant(family([]), "interior")
    # a member that fails its hypothesis stops the estimate before the next is drawn
    drawn.clear()
    peak = GeneratorSpec("bubble", center=(0.0, 0.0), scale=0.25)
    with pytest.raises(MVLabError, match="family member 0 violates its hypothesis"):
        estimate_constant(family([peak] + specs), "interior")
    assert drawn == [peak]


def test_refinement_stability_of_verdicts():
    # Holds with margin > 10 tol at spacing h must persist at h/2
    ledger = make_ledger(2, 0.0, 0.0, 1.0)
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    e = gen(GeneratorSpec("constant", amplitude=1.0), dom)
    rep = verify_interior_mvi(e, BoundParams(2), ledger)
    assert rep.verdict == HOLDS and rep.margin > 10 * rep.tol
    fine = make_ball_domain([0, 0], 1.0, h / 2, 2)
    e2 = gen(GeneratorSpec("constant", amplitude=1.0), fine)
    rep2 = verify_interior_mvi(e2, BoundParams(2), ledger)
    assert rep2.verdict == HOLDS


def test_laplacian_reason_prints_plain_ints():
    import re

    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    e = dom.field_from_function(lambda p: 1.0 - np.sum(p**2, axis=-1) + 0.01)
    rep = verify_morrey(e, c=1.0)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert re.fullmatch(r"laplacian-positive@\(\d+, \d+\)", rep.reason)


def test_metric_deviation_measured_once_per_domain(monkeypatch):
    from mvlab import conformal_metric, grid

    calls = []
    original = grid.metric_deviation

    def counted(metric, domain):
        calls.append(domain)
        return original(metric, domain)

    monkeypatch.setattr(grid, "metric_deviation", counted)
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2, conformal_metric(2, 0.01, axis=1))
    e = gen(GeneratorSpec("constant", amplitude=1.0), dom)
    rep = verify_interior_mvi(e, BoundParams(2), make_ledger(2, 0.0, 0.0, 1.0))
    verify_morrey(e, c=1.0)
    assert rep.grid["measured_metric_deviation"] == original(dom.metric, dom)
    assert len(calls) == 1 and calls[0] is dom


def _half_ball_hypothesis_fields():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    # Delta(1 - |x|^2) = 2n = 4 > 0 breaks the Laplacian sign
    cap = dom.field_from_function(lambda p: 1.0 - np.sum(p**2, axis=-1) + 0.01)
    # |x - (1/2, 0)|^2: Delta = -4 holds, outer derivative -de/dx0 = +1 on the plane
    bowl = gen(GeneratorSpec("quadratic", amplitude=1.0, center=(0.5, 0.0)), dom)
    return cap, bowl


def test_a_broken_laplacian_skips_the_normal_margin():
    import re

    cap, _ = _half_ball_hypothesis_fields()
    rep = verify_morrey(cap, c=1.0)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert re.fullmatch(r"laplacian-positive@\(\d+, \d+\)", rep.reason)
    assert list(rep.hypothesis) == ["laplacian_margin"]
    # the excess sign: operator minus bound, positive when violated
    assert rep.hypothesis["laplacian_margin"] == pytest.approx(4.0, abs=1e-9)


def test_a_broken_neumann_sign_records_both_margins():
    import re

    _, bowl = _half_ball_hypothesis_fields()
    rep = verify_morrey(bowl, c=1.0)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert re.fullmatch(r"normal-derivative-positive@\(\d+, \d+\)", rep.reason)
    assert list(rep.hypothesis) == ["laplacian_margin", "normal_margin"]
    assert rep.hypothesis["laplacian_margin"] == pytest.approx(-4.0, abs=1e-9)
    assert rep.hypothesis["normal_margin"] == pytest.approx(1.0, abs=1e-9)


def test_ledger_reasons_name_the_bounds_and_margins_subtract_them():
    cap, bowl = _half_ball_hypothesis_fields()
    ledger = make_ledger(2, 0.0, 0.0, 1.0)
    rep = verify_boundary_mvi(cap, BoundParams(2, A0=1.0), ledger)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert rep.reason.startswith("laplacian-bound@(")
    assert rep.hypothesis["laplacian_margin"] == pytest.approx(3.0, abs=1e-9)
    rep = verify_boundary_mvi(bowl, BoundParams(2, B0=0.25), ledger)
    assert rep.verdict == HYPOTHESIS_VIOLATED
    assert rep.reason.startswith("normal-bound@(")
    assert rep.hypothesis["normal_margin"] == pytest.approx(0.75, abs=1e-9)
