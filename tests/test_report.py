"""Record schemas: the key set of every report's record."""

import json

import numpy as np
import pytest

from mvlab import (
    BoundParams,
    detect_concentration,
    estimate_constant,
    heinz_scan,
    make_ball_domain,
    make_density_sequence,
    make_half_ball_domain,
    make_ledger,
    monotonicity_suite,
    verify_interior_mvi,
    verify_morrey,
)
from mvlab.report import canonical_json
from mvlab.synth import GeneratorSpec, gen, gen_sequence

VERIFICATION_KEYS = {"claim", "lhs", "rhs", "margin", "verdict", "reason", "tol",
                     "hypothesis", "grid", "required_c"}
LEDGER_KEYS = {"n", "c_master", "delta", "a", "b", "eps_ab", "mu_ab", "hbar",
               "eps_prime", "provenance"}
MONOTONICITY_KEYS = {"y0", "monotone", "worst_drop", "limit_value", "limit_target",
                     "limit_kind", "limit_passed", "large_r", "hypothesis", "tol",
                     "verdict", "profile"}
HEINZ_KEYS = {"center", "r", "rho_bar", "c_bar", "x_bar", "eps", "checks"}
DETECTION_KEYS = {"count", "max_points", "energy_bound", "hbar", "divergence_threshold",
                  "cluster_radius", "budget_exhausted", "surviving_indices",
                  "residual_bounds", "points", "bounded_candidates", "merges"}
POINT_KEYS = {"location", "witness_indices", "onset_index", "certified_energy",
              "exclusion_radius", "near_flat_boundary", "steps"}
STEP_KEYS = {"index", "z", "R", "delta", "energy", "branch"}


def test_ledger_and_constant_estimate_records():
    ledger = make_ledger(2, 1.0, 1.0, 2.0).with_eps_prime(0.1)
    record = ledger.as_dict()
    assert set(record) == LEDGER_KEYS
    assert record["provenance"] == ledger.provenance
    assert set(make_ledger(3, 0.0, 0.0, 1.0).as_dict()) == LEDGER_KEYS

    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    family = [gen(GeneratorSpec("constant", amplitude=a), dom) for a in (1.0, 2.0)]
    estimate = estimate_constant(family, "interior").as_dict()
    assert set(estimate) == {"value", "ratios", "argmax_index", "kind"}
    assert isinstance(estimate["ratios"], list) and len(estimate["ratios"]) == 2


def test_verification_records():
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("constant"), dom)
    morrey = verify_morrey(e, 1 / np.pi).as_dict()
    assert set(morrey) == VERIFICATION_KEYS  # no ledger key without a ledger

    ledger = make_ledger(2, 0.5, 0.3, 3.0)
    bubble = gen(GeneratorSpec("bubble", center=(0.0, 0.0), scale=0.5), dom)
    interior = verify_interior_mvi(bubble, BoundParams(2, a=0.5, b=0.3), ledger).as_dict()
    assert set(interior) == VERIFICATION_KEYS | {"ledger"}
    assert interior["ledger"] == ledger.as_dict()


@pytest.mark.parametrize("mode", ["pointwise", "weak"])
def test_monotonicity_record(mode):
    dom = make_half_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("harmonic_product", offset=0.1), dom)
    rep = monotonicity_suite(e, [0.0, 0.0], list(np.linspace(0.2, 0.8, 8)),
                             hypothesis_mode=mode)
    record = rep.as_dict()
    assert set(record) == MONOTONICITY_KEYS  # no monotone_radii, no weak
    assert [set(s) for s in record["profile"]] == [{"r", "m", "nodes", "clipped"}] * 8
    assert [s["nodes"] for s in record["profile"]] == [
        s.node_count for s in rep.profile.samples]

    lifted = make_half_ball_domain([0.25, 0.0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("harmonic_product", offset=0.1), lifted)
    large_r = monotonicity_suite(e, [0.25, 0.0], list(np.linspace(0.15, 0.8, 8)),
                                 hypothesis_mode=mode).as_dict()["large_r"]
    assert large_r and all(set(c) == {"r", "lhs", "rhs", "passed"} for c in large_r)


def test_heinz_record():
    dom = make_ball_domain([0.0, 0.0], 1.0, 1 / 32, 2)
    e = gen(GeneratorSpec("bubble", center=(0.25, 0.0), scale=0.125), dom)
    rep = heinz_scan(e, dom.center, 1.0)
    record = rep.as_dict()
    assert set(record) == HEINZ_KEYS
    assert [set(c) for c in record["checks"]] == [{"name", "lhs", "rhs", "passed"}] * 2
    assert [c["passed"] for c in record["checks"]] == [c.passed for c in rep.checks]


def test_detection_record():
    # 11 fields of two close bubbles: one point, one merge, indices 2..10 survive
    dom = make_ball_domain([0.0, 0.0], 0.5, 1 / 128, 2)
    schedule = [0.25 * 0.8**k for k in range(10)] + [1 / 32]
    seq = gen_sequence([GeneratorSpec("bubble", center=(0.2, 0.0)),
                        GeneratorSpec("bubble", center=(-0.2, 0.0))], schedule, dom)
    ledger = make_ledger(2, seq.params.a, seq.params.b, 3.0)
    rep = detect_concentration(seq, ledger, 30.0)
    record = rep.as_dict()
    assert set(record) == DETECTION_KEYS
    assert record["count"] == rep.count == 1
    assert [set(p) for p in record["points"]] == [POINT_KEYS]
    assert all(set(s) == STEP_KEYS for s in record["points"][0]["steps"])
    assert [set(m) for m in record["merges"]] == [{"location", "merged_into", "distance"}]

    bounds = record["residual_bounds"]
    assert set(bounds) == {str(i) for i in rep.surviving_indices} >= {"2", "10"}
    text = canonical_json(record)
    assert text.index('"10":') < text.index('"2":')
    assert json.loads(text)["residual_bounds"] == bounds

    # a huge quantum keeps every dichotomy step bounded
    small = make_ball_domain([0.0, 0.0], 0.5, 1 / 64, 2)
    seq = gen_sequence([GeneratorSpec("bubble", center=(0.0, 0.0))], [1 / 8, 1 / 12, 1 / 16],
                       small, params=BoundParams(2, a=8.0))
    ledger = make_ledger(2, 8.0, 0.0, 1e-6)
    seq = make_density_sequence(seq.fields, seq.params, energy_bound=2.0 * ledger.hbar)
    bounded = detect_concentration(seq, ledger, 10.0).as_dict()["bounded_candidates"]
    assert [set(c) for c in bounded] == [{"location", "witness_indices", "max_value"}]
