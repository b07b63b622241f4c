"""Bubble detector: planted instances, dichotomy behavior, bookkeeping."""

import math

import numpy as np
import pytest

from mvlab import (
    BoundParams,
    concentration_energy,
    detect_concentration,
    make_ball_domain,
    make_density_sequence,
    make_half_ball_domain,
    make_ledger,
)
from mvlab.errors import MVLabError, QuantizationViolated
from mvlab.synth import GeneratorSpec, bubble_mass, gen, gen_sequence


def test_concentration_energy_fractions():
    h = 1 / 128
    lam = 1 / 32
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    e = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=lam), dom)
    mass = bubble_mass(2, lam)
    wide = concentration_energy(e, [0.0, 0.0], 10 * lam)
    assert wide >= 0.9 * mass
    # the analytic radial mass: s^2/(1+s^2) with s = delta/lam
    assert wide == pytest.approx(bubble_mass(2, lam, rho=10 * lam), rel=0.02)
    narrow = concentration_energy(e, [0.0, 0.0], lam / 10 * 4)  # keep >= 4 nodes
    assert narrow < 0.2 * mass

    zero = dom.field_from_function(lambda p: np.zeros(len(p)))
    assert concentration_energy(zero, [0.0, 0.0], 0.25) == 0.0


def test_two_bubble_detection_record_is_pinned():
    # two equal bubbles: the first round's argmax is a tie, broken toward the
    # first node in C order, and the second round runs on an excluded mask;
    # the digest is the canonical record the box-wide argmax scan produced
    import hashlib

    from mvlab.report import canonical_json

    dom = make_ball_domain([0, 0], 1.0, 1 / 64, 2)
    specs = [GeneratorSpec("bubble", center=(0.25, 0.125)),
             GeneratorSpec("bubble", center=(-0.375, -0.25))]
    seq = gen_sequence(specs, [1 / 4, 1 / 8, 1 / 12, 1 / 16], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=50.0)
    assert [p.location for p in rep.points] == [(-0.375, -0.25), (0.25, 0.125)]
    digest = hashlib.sha256(canonical_json(rep.as_dict()).encode()).hexdigest()
    assert digest == "4cd5384eda1de2afb157e1c928ebfc97e28b9efc27281071c4636539fa2dc019"


def test_onset_energies_are_the_concentration_energies():
    # the onset loop builds its ball's quadrature once for every cluster
    # field; each energy is bitwise the one concentration_energy gives
    dom = make_ball_domain([0, 0], 0.5, 1 / 256, 2)
    seq = gen_sequence([GeneratorSpec("bubble", center=(0.125, -0.0625))],
                       [1 / 8, 1 / 16, 1 / 32, 1 / 64], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    point, = detect_concentration(seq, ledger, divergence_threshold=100.0).points
    energies = [concentration_energy(seq.fields[i], point.location, point.exclusion_radius)
                for i in point.witness_indices if i >= point.onset_index]
    assert point.certified_energy == min(energies)
    assert all(energy > ledger.hbar for energy in energies)


def test_constant_sequence_no_blowup():
    dom = make_ball_domain([0, 0], 0.5, 1 / 32, 2)
    fields = [gen(GeneratorSpec("constant", amplitude=2.0), dom) for _ in range(4)]
    seq = make_density_sequence(fields, BoundParams(2, a=1.0))
    ledger = make_ledger(2, 1.0, 0.0, 1.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=10.0)
    assert rep.count == 0
    assert not rep.bounded_candidates  # never even above threshold
    assert all(v == pytest.approx(2.0) for v in rep.residual_bounds.values())


def test_single_planted_bubble():
    h = 1 / 256
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    target = (0.125, -0.0625)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=1.0, center=target)],
                       [1 / 8, 1 / 16, 1 / 32, 1 / 64], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=100.0)
    assert rep.count == 1
    point = rep.points[0]
    assert np.linalg.norm(np.array(point.location) - target) <= 2 * h
    # concentrated energy approaches the bubble mass as the scale shrinks
    final = point.steps[-1]
    assert final.energy >= 0.9 * bubble_mass(2, 1 / 64)
    assert point.onset_index is not None
    assert point.certified_energy > ledger.hbar


def test_three_planted_bubbles_recovered():
    h = 1 / 256
    dom = make_ball_domain([0, 0], 1.0, h, 2)
    centers = [(0.5, 0.0), (-0.25, 0.4296875), (-0.25, -0.4296875)]
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=4.0, center=c)
                        for c in centers],
                       [1 / 8, 1 / 16, 1 / 32, 1 / 64], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=100.0)
    assert rep.count == 3
    found = sorted(p.location for p in rep.points)
    for got, want in zip(found, sorted(centers)):
        assert np.linalg.norm(np.array(got) - want) <= 2 * h
    assert rep.count <= math.floor(seq.energy_bound / ledger.hbar)
    # energy accounting: certified quanta cannot exceed the shared bound
    total_certified = sum(p.certified_energy for p in rep.points)
    assert total_certified <= seq.energy_bound + 1e-9
    # points pairwise separated beyond twice the exclusion radius
    for i in range(3):
        for j in range(i + 1, 3):
            gap = np.linalg.norm(np.array(rep.points[i].location)
                                 - rep.points[j].location)
            assert gap > 2 * min(rep.points[i].exclusion_radius,
                                 rep.points[j].exclusion_radius)


def test_witness_scale_covariance():
    # R_i lam_i and delta_i / sqrt(lam_i) stabilize as the scale shrinks
    h = 1 / 512
    dom = make_ball_domain([0, 0], 0.25, h, 2)
    lams = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=1.0, center=(0.0, 0.0))],
                       lams, dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=200.0)
    assert rep.count == 1
    steps = rep.points[0].steps
    r_lam = [s.R * lam for s, lam in zip(steps, lams)]
    d_lam = [s.delta / math.sqrt(lam) for s, lam in zip(steps, lams)]
    assert abs(r_lam[-1] - r_lam[-2]) / r_lam[-2] < 0.02
    assert abs(d_lam[-1] - d_lam[-2]) / d_lam[-2] < 0.02


def test_budget_zero_when_quantum_exceeds_energy():
    dom = make_ball_domain([0, 0], 0.5, 1 / 64, 2)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=1.0, center=(0.0, 0.0))],
                       [1 / 8, 1 / 12, 1 / 16], dom)
    # tiny master constant pushes hbar far above the total energy
    ledger = make_ledger(2, seq.params.a, seq.params.b, 1e-4)
    assert ledger.hbar > seq.energy_bound
    rep = detect_concentration(seq, ledger, divergence_threshold=10.0)
    assert rep.count == 0
    assert rep.max_points == 0


def test_bounded_after_all_candidate():
    # huge hbar keeps every dichotomy step BoundConsistent: the candidate is
    # recorded as bounded and nothing is extracted
    dom = make_ball_domain([0, 0], 0.5, 1 / 64, 2)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=1.0, center=(0.0, 0.0))],
                       [1 / 8, 1 / 12, 1 / 16], dom, fit_bounds=False,
                       params=BoundParams(2, a=8.0))
    ledger = make_ledger(2, 8.0, 0.0, 1e-6)
    # energy bound fed to the budget must keep at least one slot open
    seq2 = make_density_sequence(seq.fields, seq.params,
                                 energy_bound=2.0 * ledger.hbar)
    rep = detect_concentration(seq2, ledger, divergence_threshold=10.0)
    assert rep.count == 0
    assert len(rep.bounded_candidates) == 1
    cand = rep.bounded_candidates[0]
    assert cand.max_value > 10.0
    assert rep.residual_bounds  # sups reported for the surviving subsequence


def test_quantization_violated_on_thin_spikes():
    # a single-node spike declares blow-up but carries only h^2 * height of
    # energy, far below the quantum of its declared constants: the forced
    # branch cannot certify hbar and must flag the inconsistency
    h = 1 / 64
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    fields = []
    for height in (1e4, 4e4, 1.6e5):
        vals = np.where(dom.in_mask, 0.01, np.nan)
        vals[dom.node_index([0.0, 0.0])] = height
        fields.append(dom.make_field(vals[dom.in_mask]))
    seq = make_density_sequence(fields, BoundParams(2, a=0.01))
    ledger = make_ledger(2, 0.01, 0.0, 1.0)
    assert ledger.hbar == pytest.approx(25.0)
    with pytest.raises(QuantizationViolated):
        detect_concentration(seq, ledger, divergence_threshold=100.0)


def test_detector_on_half_ball_boundary_point():
    h = 1 / 256
    dom = make_half_ball_domain([0.0, 0.0], 0.5, h, 2)
    seq = gen_sequence([GeneratorSpec("reflected_bubble", amplitude=1.0,
                                      center=(0.0, 0.125))],
                       [1 / 8, 1 / 16, 1 / 32], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=50.0)
    assert rep.count == 1
    assert rep.points[0].near_flat_boundary
    # clipped half-ball energies still clear the quantum
    assert all(s.energy > ledger.hbar for s in rep.points[0].steps
               if s.branch == "ConcentrationForced")


def test_detector_determinism():
    dom = make_ball_domain([0, 0], 0.5, 1 / 128, 2)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=2.0, center=(0.125, 0.0))],
                       [1 / 8, 1 / 16, 1 / 32], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    a = detect_concentration(seq, ledger, divergence_threshold=50.0)
    b = detect_concentration(seq, ledger, divergence_threshold=50.0)
    assert a.as_dict() == b.as_dict()


def test_sequence_validation():
    dom = make_ball_domain([0, 0], 0.5, 1 / 32, 2)
    e = gen(GeneratorSpec("constant", amplitude=1.0), dom)
    with pytest.raises(MVLabError):
        make_density_sequence([e], BoundParams(2), energy_bound=0.1)
    ledger_vacuous = make_ledger(2, 0.0, 0.0, 1.0)
    seq = make_density_sequence([e], BoundParams(2))
    with pytest.raises(MVLabError):
        detect_concentration(seq, ledger_vacuous, divergence_threshold=1.0)


@pytest.mark.parametrize("threshold", (0.0, -1.0, math.nan, math.inf))
def test_detector_rejects_a_threshold_that_is_not_finite_and_positive(threshold):
    dom = make_ball_domain([0, 0], 0.5, 1 / 32, 2)
    seq = make_density_sequence([gen(GeneratorSpec("constant"), dom)], BoundParams(2, a=1.0))
    with pytest.raises(MVLabError, match="divergence threshold"):
        detect_concentration(seq, make_ledger(2, 1.0, 0.0, 1.0), divergence_threshold=threshold)


def test_exclusion_overlap_merges_candidates():
    # two bubbles closer than twice the exclusion radius: the second
    # extraction merges into the first point instead of creating a new one
    h = 1 / 128
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    seq = gen_sequence([
        GeneratorSpec("bubble", amplitude=1.0, center=(0.15, 0.0)),
        GeneratorSpec("bubble", amplitude=1.0, center=(-0.15, 0.0)),
    ], [1 / 16, 1 / 32], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=50.0)
    # delta_exclusion ~ sqrt(1/16) = 0.25, separation 0.3 < 2 * 0.25
    assert rep.count == 1
    assert len(rep.merges) >= 1
    assert rep.points[0].exclusion_radius >= 0.3


@pytest.mark.parametrize("n", (2, 3, 4))
def test_allowed_mask_equals_full_box_computation(n, monkeypatch):
    from mvlab import grid
    from mvlab.quantization import _allowed_mask

    h = 1 / 16 if n == 2 else 1 / 8
    for dom in (make_ball_domain([0.0] * n, 1.0, h, n),
                make_half_ball_domain([0.25] + [0.0] * (n - 1), 1.0, h, n)):
        edge = dom.origin.copy()
        edge[-1] += 0.5 * h
        exclusions = [
            (dom.origin, 0.4),                       # box corner
            (edge, 0.3),                             # box face, off the grid
            (dom.center + np.full(n, 1.05), 0.25),  # beyond the box
            (dom.center, 0.125),                     # on a node, radius h-multiple
            (dom.center + 0.4, 3.0),                 # covers the box
        ]
        for count in range(1, len(exclusions) + 1):
            chosen = exclusions[:count]
            reference = dom.in_mask.ravel().copy()
            for center, radius in chosen:
                reference &= np.linalg.norm(dom.points() - center, axis=-1) > radius
            # an in-mask vector, worked one block of window rows at a time
            # and then a few rows at a time
            for chunk in (grid._CHUNK, 64):
                monkeypatch.setattr(grid, "_CHUNK", chunk)
                assert np.array_equal(_allowed_mask(dom, chosen),
                                      reference[dom.in_mask.ravel()])
