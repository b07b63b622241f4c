"""Generators: every declared analytic fact must pass the measurement."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mvlab import (
    BoundParams,
    integrate,
    laplacian,
    make_ball_domain,
    make_half_ball_domain,
    normal_derivative,
    vol_sphere,
)
from mvlab.errors import MVLabError, SpecOutOfDomain, UnresolvableScale
from mvlab.synth import (
    GeneratorSpec,
    bubble_critical_ratio,
    bubble_mass,
    gen,
    gen_sequence,
    random_bubble_layout,
)
from mvlab.verify import fit_nonlinearity


def _measure_laplacian_range(e, inner=0.8):
    lap = laplacian(e).box()
    dom = e.domain
    dist = dom.center_distances()
    sel = np.isfinite(lap) & (dist <= inner * dom.radius)
    return float(np.min(lap[sel])), float(np.max(lap[sel]))


@pytest.mark.parametrize("spec,expected", [
    (GeneratorSpec("constant", amplitude=2.0), 0.0),
    (GeneratorSpec("quadratic", amplitude=1.0, offset=0.1), -4.0),
    (GeneratorSpec("quadratic", amplitude=0.5, center=(0.25, 0.0), offset=0.2), -2.0),
])
def test_laplacian_const_facts(spec, expected):
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    e = gen(spec, dom)
    assert e.facts["laplacian_const"] == expected
    lo, hi = _measure_laplacian_range(e)
    assert abs(lo - expected) < 1e-9 and abs(hi - expected) < 1e-9


@pytest.mark.parametrize("spec", [
    GeneratorSpec("harmonic_product", amplitude=1.0, scale=1.2, offset=0.1),
    GeneratorSpec("poisson_peak", pole=(1.8, 0.4)),
    GeneratorSpec("linear_x0", amplitude=0.5, offset=0.8),
])
def test_harmonic_facts(spec):
    h = 1 / 64
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    e = gen(spec, dom)
    assert e.facts["harmonic"]
    lo, hi = _measure_laplacian_range(e)
    assert max(abs(lo), abs(hi)) <= 20 * h**2


def test_neumann_facts():
    h = 1 / 64
    dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
    cases = [
        (GeneratorSpec("linear_x0", amplitude=1.5, offset=0.0), -1.5),
        (GeneratorSpec("quadratic", amplitude=1.0, center=(0.0, 0.25)), 0.0),
        (GeneratorSpec("harmonic_product", scale=1.0, offset=0.0), 0.0),
    ]
    for spec, expected in cases:
        e = gen(spec, dom)
        assert e.facts["neumann_const"] == expected
        nd = normal_derivative(e)
        vals = nd.values[nd.finite()]
        assert np.max(np.abs(vals - expected)) <= 50 * h**2, spec.kind


def test_reflected_bubble_neumann_vanishes_under_refinement():
    # the reflection symmetry gives d/dnu = 0 in the limit; at the sharp
    # peak the stencil error carries the bubble's third derivative, so the
    # honest check is the second-order refinement ratio
    errs = []
    for h in (1 / 64, 1 / 128):
        dom = make_half_ball_domain([0.0, 0.0], 1.0, h, 2)
        e = gen(GeneratorSpec("reflected_bubble", center=(0.0, 0.0), scale=1 / 4), dom)
        assert e.facts["neumann_const"] == 0.0
        nd = normal_derivative(e)
        errs.append(float(np.max(np.abs(nd.values[nd.finite()]))))
    assert errs[1] <= errs[0] / 2.5


def test_bubble_profile_facts():
    h = 1 / 128
    lam = 1 / 8
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=lam), dom)
    assert e.facts["sup_value"] == lam ** (-2.0)
    assert e.at([0, 0]) == e.facts["sup_value"]

    # independent radial quadrature for the mass constant
    mass_oracle = vol_sphere(1) * quad(lambda t: t / (1 + t * t) ** 2, 0, np.inf)[0]
    assert e.facts["mass_full_space"] == pytest.approx(mass_oracle, rel=1e-9)
    assert mass_oracle == pytest.approx(np.pi, rel=1e-9)

    # grid quadrature against the analytic radial mass inside the domain
    grid_mass = integrate(e)
    assert grid_mass == pytest.approx(e.facts["mass_within"](1.0), rel=0.01)


def test_bubble_mass_lambda_invariance():
    for n in (2, 3, 4):
        masses = [bubble_mass(n, lam) for lam in (1 / 4, 1 / 8, 1 / 16)]
        assert max(masses) - min(masses) < 1e-9 * masses[0]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 1.0, 8.0, 128.0, None])
def test_bubble_mass_closed_forms_match_quad(n, ratio):
    lam, amplitude = 0.15, 1.7
    upper = np.inf if ratio is None else ratio
    radial = quad(lambda t: t ** (n - 1) * (1.0 + t * t) ** (-n), 0.0, upper,
                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
    rho = None if ratio is None else ratio * lam
    assert bubble_mass(n, lam, amplitude, rho) == pytest.approx(
        vol_sphere(n - 1) * amplitude * radial, rel=1e-14, abs=0.0)


def test_bubble_total_masses_match_closed_forms():
    assert bubble_mass(2, 0.3) == pytest.approx(np.pi, rel=1e-9)
    assert bubble_mass(3, 0.3) == pytest.approx(np.pi**2 / 4, rel=1e-9)
    assert bubble_mass(4, 0.3) == pytest.approx(np.pi**2 / 6, rel=1e-9)


def test_bubble_critical_ratio_scale_covariance():
    # fitted nonlinearity of the critical exponent is lambda-independent
    h = 1 / 256
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    fits = []
    for lam in (1 / 4, 1 / 8):
        e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=lam), dom)
        fits.append(fit_nonlinearity(e, 0.0, 0.0))
    assert abs(fits[0] - fits[1]) / fits[0] < 0.05
    assert fits[0] == pytest.approx(bubble_critical_ratio(2, 1.0), rel=0.05)


def test_generator_validation():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    with pytest.raises(SpecOutOfDomain):
        gen(GeneratorSpec("harmonic_product", scale=2.0), dom)  # cos changes sign
    with pytest.raises(SpecOutOfDomain):
        gen(GeneratorSpec("poisson_peak", pole=(0.5, 0.0)), dom)  # pole inside
    hb = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    with pytest.raises(SpecOutOfDomain):
        gen(GeneratorSpec("reflected_bubble", center=(0.25, 0.0), scale=1 / 8), hb)


def test_sum_generator_merges_facts():
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    spec = GeneratorSpec("sum", parts=(
        GeneratorSpec("linear_x0", amplitude=1.0),
        GeneratorSpec("quadratic", amplitude=0.5, center=(0.0, 0.0)),
    ), offset=0.1)
    e = gen(spec, dom)
    assert e.facts["laplacian_const"] == -2.0
    assert e.facts["neumann_const"] == -1.0
    assert e.facts["subharmonic"]


def test_gen_sequence_energies_and_fits():
    h = 1 / 128
    dom = make_ball_domain([0, 0], 2.0, h, 2)
    specs = [GeneratorSpec("bubble", center=(0.0, 0.0))]
    seq = gen_sequence(specs, [1 / 8, 1 / 16, 1 / 32], dom)
    # lambda-invariant mass: energies agree once the tail fits in the domain
    energies = np.array(seq.energies)
    assert np.max(energies) - np.min(energies) < 0.005 * np.max(energies)
    for en, lam in zip(energies, (1 / 8, 1 / 16, 1 / 32)):
        assert en == pytest.approx(bubble_mass(2, lam, rho=2.0), rel=0.005)
    a_fits = [fit_nonlinearity(f, 0.0, 0.0) for f in seq.fields]
    assert seq.params.a == max(a_fits)
    # the lam = 4h member sits at the resolution guardrail; the fitted
    # critical constant degrades there but stays within 10%
    assert all(abs(a - 8.0) / 8.0 < 0.10 for a in a_fits)
    assert abs(a_fits[0] - a_fits[1]) / a_fits[0] < 0.05


def test_gen_sequence_guardrails():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    specs = [GeneratorSpec("bubble", center=(0.0, 0.0))]
    with pytest.raises(UnresolvableScale):
        gen_sequence(specs, [1 / 8, 1 / 64], dom)
    with pytest.raises(MVLabError):
        gen_sequence(specs, [1 / 8, 1 / 8], dom)  # not strictly decreasing
    with pytest.raises(MVLabError, match="empty"):
        gen_sequence(specs, [], dom)


def test_three_bubbles_mass_additivity(monkeypatch):
    from mvlab import verify

    def unfitted(*args):
        raise AssertionError("given params: nothing is fitted")

    monkeypatch.setattr(verify, "fit_nonlinearity", unfitted)
    monkeypatch.setattr(verify, "fit_boundary_nonlinearity", unfitted)
    h = 1 / 128
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    centers = [(0.5, 0.0), (-0.25, 0.4296875), (-0.25, -0.4296875)]
    specs = [GeneratorSpec("bubble", center=c) for c in centers]
    seq = gen_sequence(specs, [1 / 16, 1 / 32], dom, params=BoundParams(2))
    assert seq.params == BoundParams(2)
    single = bubble_mass(2, 1 / 16)
    assert seq.energies[0] == pytest.approx(3 * single, rel=0.01)


@pytest.mark.parametrize("background", [None, GeneratorSpec("constant", amplitude=0.3)],
                         ids=["bare", "background"])
def test_gen_sequence_reads_each_centre_once_and_no_coordinate_array(monkeypatch, background):
    # 3 bubbles x 4 scales read each centre's coordinate columns once, build
    # no (m, n) coordinate array, and the fields are bitwise the sums of the
    # single generator fields
    from mvlab.grid import Domain

    dom = make_half_ball_domain([0, 0], 1.0, 1 / 64, 2)
    specs = [GeneratorSpec("reflected_bubble", center=(0.0, y), amplitude=a)
             for y, a in ((-0.4, 1.0), (0.0, 0.7), (0.4, 1.3))]
    schedule = [1 / 4, 1 / 6, 1 / 8, 1 / 12]
    columns = []
    column = Domain._in_mask_column

    def no_points(self):
        raise AssertionError("in_mask_points called")

    monkeypatch.setattr(Domain, "in_mask_points", no_points)
    monkeypatch.setattr(Domain, "_in_mask_column",
                        lambda self, k: columns.append(k) or column(self, k))
    seq = gen_sequence(specs, schedule, dom, background, BoundParams(2))
    assert columns == [0, 1] * len(specs)  # the constant background reads none
    monkeypatch.undo()
    for lam, field in zip(schedule, seq.fields):
        total = (gen(background, dom).values if background is not None
                 else np.zeros(dom.node_count))
        for s in specs:
            total = total + gen(replace(s, scale=lam), dom).values
        assert field.values.tobytes() == total.tobytes()


def test_random_layout_deterministic_and_separated():
    dom = make_ball_domain([0, 0], 1.0, 1 / 32, 2)
    a = random_bubble_layout(dom, 3, 0.5, seed=7)
    b = random_bubble_layout(dom, 3, 0.5, seed=7)
    assert a == b
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(np.array(a[i]) - a[j]) >= 0.5
    c = random_bubble_layout(dom, 3, 0.5, seed=8)
    assert c != a
