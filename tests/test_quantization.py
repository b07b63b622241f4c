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


def _detect_counting_builds(monkeypatch, seq, ledger, threshold):
    """``detect_concentration``, and the balls (centre, radius) whose
    quadrature each round builds (``Domain.ball_weights``); a round ends
    with the ball it clears (an extraction, a merge or a dismissal), so
    only the completed rounds are returned."""
    from mvlab import quantization
    from mvlab.grid import Domain

    rounds = [[]]
    ball_weights, clear_ball = Domain.ball_weights, quantization._clear_ball

    def build(dom, center, radius):
        rounds[-1].append((tuple(float(x) for x in center), radius))
        return ball_weights(dom, center, radius)

    def clear(*args):
        rounds.append([])
        return clear_ball(*args)

    monkeypatch.setattr(Domain, "ball_weights", build)
    monkeypatch.setattr(quantization, "_clear_ball", clear)
    report = detect_concentration(seq, ledger, divergence_threshold=threshold)
    monkeypatch.undo()
    done = len(report.points) + len(report.merges) + len(report.bounded_candidates)
    return report, rounds[:done]


def test_onset_energies_are_the_concentration_energies(monkeypatch):
    # the onset loop builds its ball's quadrature once for every cluster
    # field; each energy is bitwise the one concentration_energy gives
    dom = make_ball_domain([0, 0], 0.5, 1 / 256, 2)
    seq = gen_sequence([GeneratorSpec("bubble", center=(0.125, -0.0625))],
                       [1 / 8, 1 / 16, 1 / 32, 1 / 64], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    report, rounds = _detect_counting_builds(monkeypatch, seq, ledger, 100.0)
    point, = report.points
    energies = [concentration_energy(seq.fields[i], point.location, point.exclusion_radius)
                for i in point.witness_indices if i >= point.onset_index]
    assert point.certified_energy == min(energies)
    assert all(energy > ledger.hbar for energy in energies)
    # the onset ball is the coarsest witness's own ball, whose quadrature the
    # steps build: one quadrature a step, none for the onset
    coarsest = max(point.steps, key=lambda step: step.delta)
    assert (coarsest.z, coarsest.delta) == (point.location, point.exclusion_radius)
    assert not report.bounded_candidates
    assert rounds == [[(step.z, step.delta) for step in point.steps]]


def test_a_fresh_onset_ball_is_built_once_and_a_merge_builds_none(monkeypatch):
    # two tall bubbles 0.1875 apart: every witness's delta is below the 8h
    # floor, so the first point's onset ball (radius 8h) is no step's ball and
    # is built once, after the steps' balls; the second bubble's round merges
    # into the point and builds its witnesses' balls only, not its own onset
    # ball (radius 8h again)
    h = 1 / 64
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=100.0, center=(0.125, -0.0625)),
                        GeneratorSpec("bubble", amplitude=90.0, center=(-0.0625, -0.0625))],
                       [1 / 8, 1 / 12, 1 / 16], dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    report, rounds = _detect_counting_builds(monkeypatch, seq, ledger, 100.0)
    point, = report.points
    assert max(step.delta for step in point.steps) < 8 * h
    assert report.merges[0].location == (-0.0625, -0.0625)
    extraction, merge = rounds[:2]
    assert extraction == [(step.z, step.delta) for step in point.steps] + [
        (point.location, 8 * h)]
    assert len(merge) == len(set(merge)) == len(point.witness_indices)
    assert all(center == (-0.0625, -0.0625) and radius < 8 * h for center, radius in merge)
    assert report.as_dict() == _reference_detect(seq, ledger, 100.0).as_dict()


def test_a_bounded_round_builds_its_witnesses_balls_only(monkeypatch):
    # a tall bubble under a huge hbar: no step forces concentration, and the
    # first round dismisses the bubble having built its witnesses' balls,
    # all below the 8h floor, and no onset ball (radius 8h)
    h = 1 / 64
    dom = make_ball_domain([0, 0], 0.5, h, 2)
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=100.0, center=(0.125, -0.0625))],
                       [1 / 8, 1 / 12, 1 / 16], dom, params=BoundParams(2, a=8.0))
    ledger = make_ledger(2, 8.0, 0.0, 1e-6)
    seq = make_density_sequence(seq.fields, seq.params, energy_bound=2.0 * ledger.hbar)
    report, rounds = _detect_counting_builds(monkeypatch, seq, ledger, 10.0)
    assert report.count == 0 and not report.merges
    candidate = report.bounded_candidates[0]
    assert candidate.location == (0.125, -0.0625)
    builds = rounds[0]
    assert len(builds) == len(set(builds)) == len(candidate.witness_indices)
    assert all(center == candidate.location and radius < 8 * h for center, radius in builds)


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
                       [1 / 8, 1 / 12, 1 / 16], dom, params=BoundParams(2, a=8.0))
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
    # every witness fails; the message names the first in cluster order
    with pytest.raises(QuantizationViolated, match=r"^index 0: "):
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
def test_clear_ball_equals_full_box_computation(n, monkeypatch):
    from mvlab import grid
    from mvlab.quantization import _clear_ball

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
            # an in-mask vector cleared a ball at a time, each ball worked one
            # block of window rows at a time and then a few rows at a time
            for chunk in (grid._CHUNK, 64):
                monkeypatch.setattr(grid, "_CHUNK", chunk)
                allowed = np.ones(dom.node_count, dtype=bool)
                for center, radius in chosen:
                    _clear_ball(dom, allowed, center, radius)
                assert np.array_equal(allowed, reference[dom.in_mask.ravel()])


def test_allowed_argmax_takes_the_first_largest_allowed_value():
    from mvlab.quantization import _allowed_argmax

    values = np.array([9.0, 2.0, 5.0, 7.0, 5.0, 7.0, 0.0])
    allowed = np.array([False, True, True, True, True, True, True])
    # the 9 is cleared; of the two 7s the first in C order wins
    assert _allowed_argmax(values, allowed) == 3
    allowed[3] = allowed[5] = False
    assert _allowed_argmax(values, allowed) == 2  # ties again: 5 at 2 and at 4
    assert _allowed_argmax(values, np.arange(7) == 6) == 6  # a lone 0 still wins
    assert _allowed_argmax(np.zeros(7), np.arange(7) >= 4) == 4


def _reference_detect(seq, ledger, threshold):
    """The detector loop as it ran before the allowed vector: each round
    rebuilds the allowed nodes from every ball so far (here over every
    in-mask node, not a window), the argmax gathers each field through the
    allowed nodes' index, a merge replaces its point's ball in the list, and
    the residual rebuilds the allowed nodes from the points' balls."""
    from dataclasses import replace

    from mvlab.constants import quantization_dichotomy
    from mvlab.quantization import (BoundedCandidate, ConcentrationPoint,
                                    ConcentrationReport, ExtractionStep, MergeEvent)

    dom, hbar = seq.domain, ledger.hbar
    n, h = dom.dimension, dom.spacing
    in_mask_points = dom.in_mask_points()

    def allowed_nodes(balls):
        allowed = np.ones(len(in_mask_points), dtype=bool)
        for center, radius in balls:
            allowed &= np.linalg.norm(in_mask_points - center, axis=-1) > radius
        return allowed

    budget = int(math.floor(seq.energy_bound / hbar))
    need = int(math.ceil(math.sqrt(len(seq))))
    active, excluded, dismissed = list(range(len(seq))), [], []
    points, bounded, merges, exhausted = [], [], [], False
    while (nodes := np.flatnonzero(allowed_nodes(excluded + dismissed))).size:
        argmaxes = {}
        for i in active:
            vals = seq.fields[i].values[nodes]
            k = int(np.argmax(vals))
            argmaxes[i] = (in_mask_points[nodes[k]], float(vals[k]))
        witnesses = [i for i in active if argmaxes[i][1] > threshold]
        best_anchor, best_members = None, []
        for i in witnesses:
            members = [j for j in witnesses
                       if np.linalg.norm(argmaxes[j][0] - argmaxes[i][0]) <= 4.0 * h]
            key = tuple(argmaxes[i][0])
            if len(members) > len(best_members) or (
                    len(members) == len(best_members) and key < best_anchor):
                best_anchor, best_members = key, members
        if len(witnesses) < need or len(best_members) < need:
            break
        cluster = sorted(best_members)
        steps, forced_any = [], False
        for i in cluster:
            z, value = argmaxes[i]
            R = value ** (1.0 / n)
            dich = quantization_dichotomy(R, seq.params, hbar, ledger.c_master)
            forced_any |= dich.forced
            steps.append(ExtractionStep(i, tuple(float(x) for x in z), float(R), R ** (-0.5),
                                        concentration_energy(seq.fields[i], z, R ** (-0.5)),
                                        dich.branch.value))
        radius = max(max(s.delta for s in steps), 8.0 * h)
        active = cluster
        if not forced_any:
            bounded.append(BoundedCandidate(steps[-1].z, tuple(cluster),
                                            max(argmaxes[i][1] for i in cluster)))
            dismissed.append((np.asarray(steps[-1].z), radius))
            continue
        if exhausted := len(points) >= budget:
            break
        location = np.asarray(steps[-1].z)
        for idx, existing in enumerate(points):
            gap = float(np.linalg.norm(location - np.asarray(existing.location)))
            if gap <= 2.0 * max(radius, existing.exclusion_radius):
                merges.append(MergeEvent(tuple(location), idx, gap))
                grown = max(existing.exclusion_radius, gap + radius)
                excluded[idx] = (np.asarray(existing.location), grown)
                points[idx] = replace(existing, exclusion_radius=grown)
                break
        else:
            conc = {i: concentration_energy(seq.fields[i], location, radius) for i in cluster}
            onset = next((i for pos, i in enumerate(cluster)
                          if all(conc[j] > hbar for j in cluster[pos:])), None)
            certified = (min(conc[j] for j in cluster if j >= onset)
                         if onset is not None else None)
            points.append(ConcentrationPoint(
                tuple(float(x) for x in location), tuple(cluster), tuple(steps), onset,
                certified, float(radius), bool(dom.kind == "half_ball" and location[0] <= 4 * h)))
            excluded.append((location, float(radius)))
    rest = allowed_nodes(excluded)
    residual = {i: float(np.max(seq.fields[i].values[rest])) if rest.any() else None
                for i in active}
    return ConcentrationReport(tuple(points), tuple(bounded), tuple(merges), tuple(active),
                               residual, seq.energy_bound, hbar, budget, threshold, 4.0 * h,
                               exhausted)


def test_merges_and_dismissals_clear_the_balls_the_rebuilt_mask_clears():
    # two bubbles 0.3125 apart: the second extraction merges into the first
    # and grows its ball; two wide background bumps stay below the forcing
    # value (C hbar)^2 = 25 and are dismissed in turn, the lower one (peak
    # 12) only once the higher one's ball hides its shoulder (13 at half the
    # radius); the residual reads the higher bump again, since only the
    # points' balls are left out of it
    dom = make_ball_domain([0, 0], 1.0, 1 / 128, 2)
    a = 1 / 60  # hbar = 1 / (4 C^2 a) = 5 / 3 at C = 3
    bumps = GeneratorSpec("sum", parts=(
        GeneratorSpec("bubble", center=(0.0, -0.625), scale=0.5, amplitude=5.0),
        GeneratorSpec("bubble", center=(0.0, 0.625), scale=0.25, amplitude=0.75)))
    seq = gen_sequence([GeneratorSpec("bubble", center=(-0.15625, 0.0), amplitude=1.1),
                        GeneratorSpec("bubble", center=(0.15625, 0.0))], [1 / 16, 1 / 32], dom,
                       bumps, BoundParams(2, a=a))
    ledger = make_ledger(2, a, 0.0, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=10.0)
    assert [p.location for p in rep.points] == [(-0.15625, 0.0)]
    assert [m.location for m in rep.merges] == [(0.15625, 0.0)]
    assert [c.location for c in rep.bounded_candidates] == [(0.0, -0.625), (0.0, 0.625)]
    assert min(rep.residual_bounds.values()) > 20.0  # the higher bump
    assert rep.as_dict() == _reference_detect(seq, ledger, 10.0).as_dict()


def test_n4_bubble_is_found_at_its_node():
    # one bubble off the centre of the n = 4 ball: the detector extracts it
    # at its own node, from the first witness on
    dom = make_ball_domain([0.0] * 4, 0.5, 1 / 32, 4)
    center = (0.125, -0.0625, 0.03125, 0.0)
    seq = gen_sequence([GeneratorSpec("bubble", center=center)], [1 / 4, 0.177, 1 / 8], dom)
    ledger = make_ledger(4, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, divergence_threshold=50.0)
    assert [p.location for p in rep.points] == [center]
    assert all(step.z == center for step in rep.points[0].steps)
    assert rep.points[0].onset_index == 0 and rep.points[0].certified_energy > ledger.hbar
    assert not rep.merges and not rep.bounded_candidates
