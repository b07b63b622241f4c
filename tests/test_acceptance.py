"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values at the stated tolerance. Run with -s to see the lines.
"""

import json
import math

import numpy as np

from mvlab import (
    BoundParams,
    DichotomyBranch,
    comparison_function_boundary,
    comparison_function_interior,
    concentration_energy,
    detect_concentration,
    epsilon_ab,
    estimate_constant,
    fit_nonlinearity,
    heinz_scan,
    integrate,
    laplacian,
    make_ball_domain,
    make_half_ball_domain,
    make_ledger,
    monotonicity_suite,
    mu_ab,
    normal_derivative,
    quantization_dichotomy,
    verify_boundary_mvi,
    verify_interior_mvi,
    verify_morrey,
    vol_sphere,
)
from mvlab.cli import main as cli_main
from mvlab.cli import measure_c as cli_measure_c
from mvlab.report import strip_header
from mvlab.synth import GeneratorSpec, gen, gen_sequence, random_bubble_layout


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: quadrature oracle -----------------------------------------


def test_criterion_1_quadrature_oracle():
    h = 1 / 128
    dom = make_half_ball_domain([2.0, 0.0], 1.0, h, 2)
    e = dom.field_from_function(lambda p: (p[:, 0] - 2.0) ** 2 + p[:, 1] ** 2)
    value = integrate(e)
    target = math.pi / 2
    rel = abs(value - target) / target
    ok = rel < 0.005

    # cross-dimension sanity at coarser desk resolutions
    dom3 = make_ball_domain([0, 0, 0], 0.5, 1 / 64, 3)
    e3 = dom3.field_from_function(lambda p: np.sum(p**2, axis=-1))
    t3 = vol_sphere(2) * 0.5**5 / 5
    rel3 = abs(integrate(e3) - t3) / t3
    dom4 = make_ball_domain([0, 0, 0, 0], 0.25, 1 / 32, 4)
    e4 = dom4.field_from_function(lambda p: np.sum(p**2, axis=-1))
    t4 = vol_sphere(3) * 0.25**6 / 6
    rel4 = abs(integrate(e4) - t4) / t4
    ok = ok and rel3 < 0.001 and rel4 < 0.005
    report(1, ok, f"shell-volume integral {value:.6f} vs pi/2={target:.6f} "
                  f"(rel {rel:.2%} < 0.5%); n=3 rel {rel3:.3%} < 0.1%, "
                  f"n=4 rel {rel4:.3%} < 0.5%")


# -- criterion 2: operator convergence --------------------------------------


def test_criterion_2_operator_convergence():
    def lap_err(h):
        dom = make_ball_domain([0, 0], 1.0, h, 2)
        e = dom.field_from_function(lambda p: np.cos(p[:, 0]) * np.cosh(p[:, 1]))
        lap = laplacian(e).box()
        sel = np.isfinite(lap) & (dom.center_distances() <= 0.8)
        return float(np.max(np.abs(lap[sel])))

    errs = [lap_err(h) for h in (1 / 32, 1 / 64, 1 / 128)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = all(1.8 <= r <= 2.2 for r in rates)

    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 64, 2)
    quad = dom.field_from_function(
        lambda p: 0.7 * p[:, 0] ** 2 + 0.3 * p[:, 0] + 0.5 + 0.2 * p[:, 1] ** 2,
        density=False)
    nd = normal_derivative(quad)
    resid = float(np.max(np.abs(nd.values[nd.finite()] + 0.3)))
    stencil_ok = resid < 1e-12
    report(2, order_ok and stencil_ok,
           f"laplacian orders {rates[0]:.2f},{rates[1]:.2f} in [1.8,2.2]; "
           f"one-sided stencil residual {resid:.2e} < 1e-12")


# -- criterion 3: constant ledger -------------------------------------------


def test_criterion_3_constant_ledger():
    rng = np.random.default_rng(2024)
    worst_resid = 0.0
    mu_exact = True
    monotone = True
    for _ in range(1000):
        a = float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(0.0, 10.0))
        if a + b == 0.0:
            a = 1.0
        c = float(rng.uniform(0.05, 10.0))
        n = int(rng.choice([2, 3, 4]))
        eps = epsilon_ab(a, b, c)
        worst_resid = max(worst_resid, abs(a * eps**2 + b * eps - 0.5 / c))
        if mu_ab(a, b, c, n) != eps**n / (2.0 * c):
            mu_exact = False
        bump = 1.5
        if not (epsilon_ab(a + bump, b, c) < eps
                and epsilon_ab(a, b + bump, c) < eps
                and epsilon_ab(a, b, c * bump) < eps):
            monotone = False
        if not (mu_ab(a + bump, b, c, n) < mu_ab(a, b, c, n)
                and mu_ab(a, b + bump, c, n) < mu_ab(a, b, c, n)):
            monotone = False
    ok = worst_resid < 1e-12 and mu_exact and monotone
    report(3, ok, f"1000 random triples: max root residual {worst_resid:.2e} "
                  f"< 1e-12, mu identity exact: {mu_exact}, monotone: {monotone}")


# -- criterion 4: Morrey suite ----------------------------------------------


H_FAMILY = 1 / 128


def interior_family():
    dom = make_ball_domain([0, 0], 1.0, H_FAMILY, 2)
    specs = [
        GeneratorSpec("constant", amplitude=1.0),
        GeneratorSpec("constant", amplitude=2.5),
        GeneratorSpec("quadratic", amplitude=1.0),
        GeneratorSpec("quadratic", amplitude=0.5, offset=0.3),
        GeneratorSpec("quadratic", amplitude=1.0, center=(0.25, -0.125), offset=0.0),
        GeneratorSpec("harmonic_product", scale=1.0, amplitude=1.0),
        GeneratorSpec("harmonic_product", scale=1.3, amplitude=0.7, offset=0.2),
        GeneratorSpec("poisson_peak", pole=(1.5, 0.0)),
        GeneratorSpec("poisson_peak", pole=(1.2, 1.2)),
        GeneratorSpec("poisson_peak", pole=(-1.4, 0.3), amplitude=0.5),
        GeneratorSpec("sum", parts=(GeneratorSpec("quadratic", amplitude=0.5),
                                    GeneratorSpec("harmonic_product", scale=0.9,
                                                  amplitude=0.4, offset=0.0)),
                      offset=0.1),
        GeneratorSpec("sum", parts=(GeneratorSpec("constant", amplitude=0.3),
                                    GeneratorSpec("poisson_peak", pole=(0.0, 1.6))),
                      offset=0.0),
    ]
    return dom, [gen(s, dom) for s in specs]


def boundary_family():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, H_FAMILY, 2)
    specs = [
        GeneratorSpec("constant", amplitude=1.0),
        GeneratorSpec("constant", amplitude=0.7),
        GeneratorSpec("linear_x0", amplitude=1.0, offset=0.2),
        GeneratorSpec("linear_x0", amplitude=0.5, offset=0.0),
        GeneratorSpec("harmonic_product", scale=1.0, amplitude=1.0),
        GeneratorSpec("harmonic_product", scale=0.8, amplitude=0.6, offset=0.1),
        GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0), offset=1.0),
        GeneratorSpec("sum", parts=(GeneratorSpec("linear_x0", amplitude=1.0),
                                    GeneratorSpec("quadratic", amplitude=0.5,
                                                  center=(0.0, 0.25))),
                      offset=0.0),
    ]
    return dom, [gen(s, dom) for s in specs]


def test_criterion_4_morrey_suite():
    tol = 10 * H_FAMILY
    dom_i, fam_i = interior_family()
    est_i = estimate_constant(fam_i, "interior")
    assert len(fam_i) == 12
    ratios_ok = all(r <= est_i.value + tol for r in est_i.ratios)

    dom_b, fam_b = boundary_family()
    est_b = estimate_constant(fam_b, "boundary")
    assert len(fam_b) == 8
    ratios_ok = ratios_ok and all(r <= est_b.value + tol for r in est_b.ratios)

    disk_c = est_i.ratios[0]      # unit constant field
    half_c = est_b.ratios[0]
    const_ok = (abs(disk_c - 1 / math.pi) * math.pi < 0.01
                and abs(half_c - 2 / math.pi) * math.pi / 2 < 0.01)
    report(4, ratios_ok and const_ok,
           f"measured C interior {est_i.value:.5f}, boundary {est_b.value:.5f}; "
           f"constants give {disk_c:.5f} vs 1/pi={1 / math.pi:.5f} and "
           f"{half_c:.5f} vs 2/pi={2 / math.pi:.5f} (within 1%)")


def test_criterion_4_sharp_constants_n3_n4():
    # the builtin family's measured C against the sharp n / |S^(n-1)|,
    # doubled on the Neumann half-ball, and its error falling about 4x per
    # halving of h
    lines, ok = [], True
    for n, (coarse, fine) in ((3, (1 / 16, 1 / 32)), (4, (1 / 8, 1 / 16))):
        sharp = n / vol_sphere(n - 1)
        for kind, target in (("ball", sharp), ("half-ball", 2.0 * sharp)):
            errors = []
            for h in (coarse, fine):
                dom = (make_ball_domain([0.0] * n, 1.0, h, n) if kind == "ball"
                       else make_half_ball_domain([0.0] * n, 1.0, h, n))
                errors.append(cli_measure_c(dom) / target - 1.0)
            ok = ok and abs(errors[1]) < 0.005 and abs(errors[0]) >= 3.0 * abs(errors[1])
            lines.append(f"n={n} {kind} {errors[1]:+.3%} (h={fine:.4g}; "
                         f"{errors[0]:+.3%} at h={coarse:.4g})")
    report(4, ok, "sharp constants within 0.5%, error down >= 3x per halving: "
                  + "; ".join(lines))


# -- criterion 5: monotonicity suite ----------------------------------------


def test_criterion_5_monotonicity_suite():
    h = 1 / 128
    tol = 10 * h
    r_min = 16 * h
    failures = []

    # boundary-centered instances: monotone over all radii, limit at 1/2 VolS
    dom0 = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    plane_fields = [
        gen(GeneratorSpec("constant", amplitude=1.0), dom0),
        gen(GeneratorSpec("constant", amplitude=2.0), dom0),
        gen(GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0),
                          offset=1.0), dom0),
        gen(GeneratorSpec("harmonic_product", scale=1.0, offset=0.0), dom0),
        gen(GeneratorSpec("sum", parts=(
            GeneratorSpec("constant", amplitude=1.0),
            GeneratorSpec("quadratic", amplitude=0.3, center=(0.0, 0.0)),
        )), dom0),
    ]
    radii = list(np.linspace(r_min, 0.9, 16))
    for e in plane_fields:
        rep = monotonicity_suite(e, [0.0, 0.0], radii)
        if not rep.monotone or rep.worst_drop < -tol:
            failures.append(f"monotone y0=0 drop {rep.worst_drop}")
        target = 0.5 * vol_sphere(1) * e.at([0.0, 0.0])
        if abs(rep.limit_value - target) > 0.02 * target:
            failures.append(f"half limit {rep.limit_value} vs {target}")

    # interior center: full-sphere limit at VolS e(y); the fields must keep
    # the Neumann sign on the flat plane the domain still contains
    dom_i = make_half_ball_domain([0.5, 0.0], 1.0, h, 2)
    interior_fields = [
        gen(GeneratorSpec("constant", amplitude=1.5), dom_i),
        gen(GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0),
                          offset=1.0), dom_i),
        gen(GeneratorSpec("linear_x0", amplitude=0.5, offset=1.0), dom_i),
    ]
    for e in interior_fields:
        rep = monotonicity_suite(e, [0.5, 0.0], list(np.linspace(r_min, 0.45, 8)))
        target = vol_sphere(1) * e.at([0.5, 0.0])
        if abs(rep.limit_value - target) > 0.02 * target:
            failures.append(f"full limit {rep.limit_value} vs {target}")
        if not rep.monotone:
            failures.append("monotone r<=y0")

    # crossing cases: y0 = k h, large-radius inequality with the paper bounds
    large_r_checked = 0
    for k in (1, 4, 16, 32, 64):
        y0 = k * h
        dom_k = make_half_ball_domain([y0, 0.0], 1.0, h, 2)
        e = gen(GeneratorSpec("sum", parts=(
            GeneratorSpec("constant", amplitude=1.0),
            GeneratorSpec("linear_x0", amplitude=0.5),
        )), dom_k)
        rep = monotonicity_suite(e, [y0, 0.0], list(np.linspace(r_min, 0.85, 14)))
        for chk in rep.large_r:
            large_r_checked += 1
            if not chk.passed:
                failures.append(f"large-r y0={k}h r={chk.r}")
        if rep.worst_drop < -tol:
            failures.append(f"monotone y0={k}h")

    # n = 3 crossing case exercises the 1-based clipping bound
    h3 = 1 / 64
    dom3 = make_half_ball_domain([8 * h3, 0.0, 0.0], 0.75, h3, 3)
    e3 = gen(GeneratorSpec("sum", parts=(
        GeneratorSpec("constant", amplitude=1.0),
        GeneratorSpec("linear_x0", amplitude=0.5),
    )), dom3)
    rep3 = monotonicity_suite(e3, [8 * h3, 0.0, 0.0],
                              list(np.linspace(16 * h3, 0.6, 8)))
    for chk in rep3.large_r:
        large_r_checked += 1
        if not chk.passed:
            failures.append(f"large-r n=3 r={chk.r}")

    ok = not failures
    report(5, ok, f"monotone/limit/large-r on {len(plane_fields)}+"
                  f"{len(interior_fields)}+6 instances, "
                  f"{large_r_checked} large-r checks"
                  + (f"; failures: {failures}" if failures else ""))


# -- criterion 6: Heinz invariants ------------------------------------------


def test_criterion_6_heinz_invariants():
    failures = []
    dom_i, fam_i = interior_family()
    dom_b, fam_b = boundary_family()
    bubq = gen(GeneratorSpec("bubble", center=(0.125, 0.0), scale=1 / 8), dom_i)

    for e in fam_i + [bubq]:
        rep = heinz_scan(e, dom_i.center, dom_i.radius)
        for chk in rep.checks:
            if chk.lhs > chk.rhs:  # exact grid arithmetic, no tolerance
                failures.append(f"interior scan {chk.name}")
    for e in fam_b:
        rep = heinz_scan(e, dom_b.center, dom_b.radius)
        for chk in rep.checks:
            if chk.lhs > chk.rhs:
                failures.append(f"boundary scan {chk.name}")

    # interior comparisons from hypothesis-satisfying fields
    for e in fam_i:  # subharmonic: zero constants give v = e
        rep = heinz_scan(e, dom_i.center, dom_i.radius)
        res = comparison_function_interior(e, rep.x_bar, BoundParams(2),
                                           rep.c_bar, check_radius=rep.eps)
        if not res.passed:
            failures.append(f"interior v (zero params) {res.max_laplacian}")
    rep = heinz_scan(bubq, dom_i.center, dom_i.radius)
    a_fit = fit_nonlinearity(bubq, 0.0, 0.0)
    res = comparison_function_interior(bubq, rep.x_bar, BoundParams(2, a=a_fit),
                                       rep.c_bar, check_radius=rep.eps)
    if not res.passed:
        failures.append(f"interior v (bubble) {res.max_laplacian}")

    # boundary comparisons under constant bounds
    const_bounds = [
        (gen(GeneratorSpec("linear_x0", amplitude=1.0), dom_b), 0.0, 1.0),
        (gen(GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0),
                           offset=0.5), dom_b), 1.0, 0.0),
        (gen(GeneratorSpec("constant", amplitude=1.0), dom_b), 0.0, 0.0),
        (gen(GeneratorSpec("constant", amplitude=1.0), dom_b), 1.0, 1.0),
    ]
    for e, a_bound, b_bound in const_bounds:
        res = comparison_function_boundary(e, dom_b.center, a_bound, b_bound)
        if not res.passed:
            failures.append(
                f"boundary v A={a_bound} B={b_bound}: lap {res.max_laplacian}, "
                f"nd {res.max_normal_derivative}")

    report(6, not failures,
           f"scan inequalities exact on {len(fam_i) + len(fam_b) + 1} densities; "
           f"comparison checks within 10h"
           + (f"; failures: {failures}" if failures else ""))


# -- criterion 7: dichotomy along the planted sequence -----------------------


def test_criterion_7_dichotomy_flip():
    h = 1 / 1024
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    schedule = [2.0 ** (-i) / 4.0 for i in range(7)]
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=1.0, center=(0.0, 0.0))],
                       schedule, dom)
    a_fit, b_fit = seq.params.a, seq.params.b  # the maxima of the per-field fits
    c_master = 3.0
    hbar = mu_ab(a_fit, b_fit, c_master, 2) if b_fit > 0 else mu_ab(a_fit, 0.0,
                                                                    c_master, 2)
    params = BoundParams(2, A0=300.0, a=a_fit, b=b_fit)

    branches = []
    energies_ok = True
    for i, e in enumerate(seq.fields):
        sup = e.sup()
        z = [0.0, 0.0]
        R = sup ** 0.5
        delta = R ** (-0.5)
        res = quantization_dichotomy(R, params, hbar, c_master)
        branches.append(res.branch)
        if res.branch is DichotomyBranch.CONCENTRATION_FORCED:
            energy = concentration_energy(e, z, delta)
            if energy <= hbar:
                energies_ok = False

    flips = [i for i in range(1, len(branches)) if branches[i] != branches[i - 1]]
    flipped_once = (len(flips) == 1
                    and branches[0] is DichotomyBranch.BOUND_CONSISTENT
                    and branches[-1] is DichotomyBranch.CONCENTRATION_FORCED)
    report(7, flipped_once and energies_ok,
           f"branches {[b.value[:5] for b in branches]} flip once at index "
           f"{flips[0] if flips else None}; forced-step energies exceed "
           f"hbar={hbar:.3e}: {energies_ok}")


# -- criterion 8: detector end-to-end ----------------------------------------


def test_criterion_8_detector_end_to_end():
    h = 1 / 256
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    centers = [(0.5, 0.0), (-0.25, 0.4296875), (-0.25, -0.4296875)]
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=4.0, center=c)
                        for c in centers],
                       [1 / 8, 1 / 16, 1 / 32, 1 / 64], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    m = seq.energies[-1] / 3.0
    assert ledger.hbar < m < seq.energy_bound / 3.0 + 1e-6
    rep = detect_concentration(seq, ledger, divergence_threshold=100.0)
    centers_ok = rep.count == 3 and all(
        min(np.linalg.norm(np.array(p.location) - c) for p in rep.points) <= 2 * h
        for c in centers)

    # raising hbar above the bubble mass: nothing is extracted and the
    # sequence is reported bounded past the threshold
    tiny_c = make_ledger(2, seq.params.a, seq.params.b, 1e-4)
    assert tiny_c.hbar > m
    rep2 = detect_concentration(seq, tiny_c, divergence_threshold=100.0)
    bounded_ok = bool(rep2.count == 0 and len(rep2.bounded_candidates) >= 1
                      and rep2.residual_bounds)

    # 50 randomized seeded configurations never exceed the budget
    budget_ok = True
    h_r = 1 / 64
    dom_r = make_ball_domain([0, 0], 0.5, h_r, 2)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 4))
        sep = 0.22
        layout = random_bubble_layout(dom_r, count, sep, seed=seed + 1000)
        amps = rng.uniform(1.0, 3.0, size=count)
        specs = [GeneratorSpec("bubble", amplitude=float(a), center=c)
                 for a, c in zip(amps, layout)]
        seq_r = gen_sequence(specs, [1 / 8, 3 / 32, 1 / 16], dom_r)
        c_rand = float(rng.uniform(0.5, 4.0))
        led_r = make_ledger(2, seq_r.params.a, seq_r.params.b, c_rand)
        rep_r = detect_concentration(seq_r, led_r,
                                     divergence_threshold=float(rng.uniform(20, 60)))
        if rep_r.count > rep_r.max_points:
            budget_ok = False
    report(8, centers_ok and bounded_ok and budget_ok,
           f"three bubbles recovered: {centers_ok} (N={rep.count}); "
           f"raised quantum keeps N=0 with bounded report: {bounded_ok}; "
           f"50 seeded configs respect floor(E/hbar): {budget_ok}")


# -- criterion 9: specialization consistency ---------------------------------


def test_criterion_9_specialization():
    worst = 0.0
    agree = True
    checked = 0
    interior_specs = [
        GeneratorSpec("constant", amplitude=1.0),
        GeneratorSpec("quadratic", amplitude=0.5, offset=0.2),
        GeneratorSpec("harmonic_product", scale=1.1, offset=0.3),
        GeneratorSpec("poisson_peak", pole=(1.5, 0.2)),
        GeneratorSpec("sum", parts=(GeneratorSpec("constant", amplitude=0.4),
                                    GeneratorSpec("quadratic", amplitude=0.3)),
                      offset=0.0),
    ]
    for h in (1 / 32, 1 / 64):
        dom = make_ball_domain([0, 0], 1.0, h, 2)
        for spec, c in zip(interior_specs, (0.7, 1.3, 0.5, 2.0, 1.0)):
            e = gen(spec, dom)
            ledger = make_ledger(2, 0.0, 0.0, c)
            a = verify_morrey(e, c)
            b = verify_interior_mvi(e, BoundParams(2), ledger)
            agree &= a.verdict == b.verdict
            worst = max(worst, abs(a.margin - b.margin))
            checked += 1
    boundary_specs = [
        GeneratorSpec("constant", amplitude=0.8),
        GeneratorSpec("linear_x0", amplitude=1.0, offset=0.1),
        GeneratorSpec("harmonic_product", scale=0.9, offset=0.0),
        GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0), offset=0.4),
        GeneratorSpec("sum", parts=(GeneratorSpec("linear_x0", amplitude=0.5),
                                    GeneratorSpec("constant", amplitude=0.2))),
    ]
    for h in (1 / 32, 1 / 64):
        dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
        for spec, c in zip(boundary_specs, (0.9, 1.1, 0.6, 1.4, 0.8)):
            e = gen(spec, dom)
            ledger = make_ledger(2, 0.0, 0.0, c)
            a = verify_morrey(e, c)
            b = verify_boundary_mvi(e, BoundParams(2), ledger)
            agree &= a.verdict == b.verdict
            worst = max(worst, abs(a.margin - b.margin))
            checked += 1
    ok = agree and worst <= 1e-12 and checked == 20
    report(9, ok, f"{checked} instances: verdicts agree={agree}, "
                  f"max margin gap {worst:.2e} <= 1e-12")


# -- criterion 10: determinism ------------------------------------------------


def _run_suite(tmp_path, tag, seed):
    base = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
            "spacing": 1 / 64, "dimension": 2, "metric": {"preset": "identity"}}
    half = {"kind": "half_ball", "center": [0.0, 0.0], "radius": 1.0,
            "spacing": 1 / 64, "dimension": 2}
    runs = {
        "verify-morrey": {
            "domain": base, "ledger": {"C": 1.0}, "seed": seed,
            "generator": {"kind": "quadratic", "amplitude": 1.0, "offset": 0.1}},
        "verify-interior": {
            "domain": base, "ledger": {"C": 1.0}, "seed": seed,
            "params": {"A0": 1.0},
            "generator": {"kind": "harmonic_product", "scale": 1.0, "offset": 0.2}},
        "verify-boundary": {
            "domain": half, "ledger": {"C": 1.0}, "seed": seed,
            "params": {"B0": 1.0},
            "generator": {"kind": "linear_x0", "amplitude": 1.0}},
        "monotonicity": {
            "domain": half, "seed": seed,
            "generator": {"kind": "constant", "amplitude": 1.0}},
        "heinz-scan": {
            "domain": base, "seed": seed,
            "generator": {"kind": "bubble", "center": [0.25, 0.0], "scale": 0.125}},
        "detect-bubbles": {
            "domain": {**base, "radius": 0.5, "spacing": 1 / 128},
            "ledger": {"C": 3.0}, "seed": seed,
            "sequence": {"bubbles": [{"kind": "bubble", "amplitude": 2.0,
                                      "center": [0.0, 0.0]}],
                         "schedule": [0.125, 0.0625, 0.03125],
                         "divergence_threshold": 50.0}},
        "estimate-c": {"domain": half, "seed": seed},
        "constants": {"dimension": 2, "params": {"a": 2.0, "b": 1.0},
                      "ledger": {"C": 1.0}, "seed": seed},
    }
    out = tmp_path / tag
    for sub, cfg in runs.items():
        cfg_path = tmp_path / f"{tag}_{sub}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = cli_main(["--config", str(cfg_path), "--out", str(out), sub])
        assert code == 0, f"{sub} exited {code}"
    return out


def test_criterion_10_determinism(tmp_path):
    out1 = _run_suite(tmp_path, "run1", seed=7)
    out2 = _run_suite(tmp_path, "run2", seed=7)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    same_files = files1 == files2
    identical = True
    diffs = []
    for name in files1:
        a = strip_header((out1 / name).read_text())
        b = strip_header((out2 / name).read_text())
        if a != b:
            identical = False
            diffs.append(name)
    report(10, same_files and identical,
           f"{len(files1)} report files byte-identical outside the timestamp "
           f"header" + (f"; diffs: {diffs}" if diffs else ""))
