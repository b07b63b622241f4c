"""CLI subcommands, exit codes, and report determinism."""

import base64
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mvlab.cli import build_parser, main
from mvlab.report import strip_header


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")  # a str is written as it is, as raw JSON
    return str(path)


BALL = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
        "spacing": 1 / 64, "dimension": 2, "metric": {"preset": "identity"}}
HALF = {"kind": "half_ball", "center": [0.0, 0.0], "radius": 1.0,
        "spacing": 1 / 64, "dimension": 2}


def test_constants_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--a", "2", "--b", "0", "--c-constant", "1", "--dimension", "2",
                 "--out", str(out), "constants"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "eps_ab=0.5" in captured
    assert "mu_ab=0.125" in captured
    assert "hbar=0.125" in captured
    assert (out / "constants.txt").exists()


def test_verify_morrey_exit_codes(tmp_path, capsys):
    holds = write_config(tmp_path, "holds.json", {
        "domain": BALL,
        "generator": {"kind": "quadratic", "amplitude": 1.0, "center": [0.0, 0.0]},
        "ledger": {"C": 1.0},
    })
    assert main(["--config", holds, "--out", str(tmp_path / "o1"),
                 "verify-morrey"]) == 0

    fails = write_config(tmp_path, "fails.json", {
        "domain": BALL,
        "generator": {"kind": "constant", "amplitude": 1.0},
        "ledger": {"C": 0.05},
    })
    assert main(["--config", fails, "--out", str(tmp_path / "o2"),
                 "verify-morrey"]) == 1


def test_hypothesis_violation_exit_code(tmp_path):
    # a quadratic centered above the plane has positive outward derivative
    cfg = write_config(tmp_path, "viol.json", {
        "domain": {**HALF, "center": [0.5, 0.0]},
        "generator": {"kind": "quadratic", "amplitude": 1.0, "center": [0.5, 0.0]},
        "ledger": {"C": 1.0},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o3"),
                 "verify-morrey"]) == 2


def test_input_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing, "verify-morrey"]) == 3
    bad = write_config(tmp_path, "bad.json", {"domain": BALL})
    assert main(["--config", bad, "--out", str(tmp_path / "o4"),
                 "verify-morrey"]) == 3  # no input source


COARSE = {**BALL, "spacing": 1 / 16}
MORREY = {"domain": COARSE, "generator": {"kind": "constant"}, "ledger": {"C": 1.0}}
SEQUENCE = {"bubbles": [{"kind": "bubble", "center": [0.0, 0.0]}],
            "schedule": [0.5, 0.25], "divergence_threshold": 50.0}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def _field_file(tmp_path, edit=lambda lines: lines):
    """A field file on COARSE, with ``edit`` applied to its lines."""
    from mvlab.config import domain_from_config
    from mvlab.fieldio import write_field
    from mvlab.synth import GeneratorSpec, gen

    path = tmp_path / "field.txt"
    write_field(gen(GeneratorSpec("constant"), domain_from_config(COARSE)), path)
    lines = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _field_morrey(edit):
    return lambda tmp_path: {"domain": COARSE, "field_file": _field_file(tmp_path, edit),
                             "ledger": {"C": 1.0}}


def _replace(prefix, line):
    return lambda lines: [line if x.startswith(prefix) else x for x in lines]


def _as_v1(lines):
    """The same field in the old text layout: a v1 tag, one float per line."""
    values = np.frombuffer(base64.b64decode(lines[-1]), "<f8")
    return ["# mvlab-field v1"] + lines[1:-1] + [repr(float(v)) for v in values]


def _drop_last_value(lines):
    return lines[:-1] + [base64.b64encode(base64.b64decode(lines[-1])[:-8]).decode()]


def _metric_morrey(**metric):
    """Morrey on COARSE with a conformal metric, its keys replaced by ``metric``."""
    metric = {"preset": "conformal", "coefficient": 0.01, **metric}
    return lambda _: {**MORREY, "domain": {**COARSE, "metric": metric}}


def _detect_manifest(energy_bound):
    """detect-bubbles on a manifest of two bubble fields on COARSE with ``energy_bound``."""
    def make(tmp_path):
        from mvlab.config import domain_from_config
        from mvlab.fieldio import write_field
        from mvlab.synth import GeneratorSpec, gen

        dom = domain_from_config(COARSE)
        paths = []
        for i, lam in enumerate((0.5, 0.25)):
            paths.append(str(tmp_path / f"bubble{i}.txt"))
            write_field(gen(GeneratorSpec("bubble", scale=lam), dom), paths[-1])
        return {"manifest": {"fields": paths, "params": {"a": 8.0, "b": 0.0},
                             "energy_bound": energy_bound, "divergence_threshold": 50.0},
                "ledger": {"C": 3.0}}
    return make


LIFTED_HALF = {"domain": {**HALF, "spacing": 1 / 16, "center": [0.25, 0.0]},
               "generator": {"kind": "constant"}, "radii": [0.375, 0.5, 0.625]}


@pytest.mark.parametrize("subcommand, make_config, needle", [
    ("verify-morrey",
     _field_morrey(lambda lines: [x for x in lines if not x.startswith("shape=")]),
     "field.txt"),
    ("verify-morrey", _field_morrey(_replace("domain=", "domain={")), "field.txt"),
    ("verify-morrey", _field_morrey(lambda lines: lines[:-1] + ["one"]), "field.txt"),
    ("verify-morrey", _field_morrey(_replace("mask_sha256=", "mask_sha256=" + "0" * 64)),
     "field.txt: stored mask differs"),
    ("verify-morrey", _field_morrey(_as_v1), "field.txt: not a mvlab-field v3 file"),
    ("verify-morrey", _field_morrey(lambda lines: lines[:-1] + [lines[-1][:-3]]),
     "field.txt"),
    ("verify-morrey", _field_morrey(_drop_last_value), "in-mask nodes"),
    ("verify-morrey", _field_morrey(_replace("# mvlab-field", "# mvlab-field v2")),
     "field.txt: not a mvlab-field v3 file"),
    ("verify-morrey", _field_morrey(_replace("density=", "density=yes")),
     "field.txt: malformed field file: density='yes'"),
    ("verify-morrey", lambda _: {**MORREY, "domain": {**COARSE, "spacing": "fine"}},
     "'spacing'"),
    ("verify-morrey",
     lambda _: {**MORREY, "generator": {"kind": "constant", "amplitude": "big"}},
     "'amplitude'"),
    ("verify-morrey", lambda _: {**MORREY, "params": {"a": "small"}}, "'a'"),
    ("constants", lambda _: {"dimension": 2, "params": {"A1": 1.0, "a": 2.0},
                             "ledger": {"C": 1.0}, "radius": "one"}, "'radius'"),
    ("verify-morrey", lambda _: {**MORREY, "tolerance_k": "ten"}, "'tolerance_k'"),
    ("verify-morrey", lambda _: {**MORREY, "tolerance_k": 10.0}, "'tolerance_k'"),
    ("verify-morrey", lambda _: {**MORREY, "ledger": {"C": [1.0]}}, "'C'"),
    ("verify-morrey", lambda _: [MORREY], "top level"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": _without(SEQUENCE, "schedule"),
                "ledger": {"C": 3.0}}, "'schedule'"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": _without(SEQUENCE, "divergence_threshold"),
                "ledger": {"C": 3.0}}, "'divergence_threshold'"),
    ("detect-bubbles",
     lambda tmp_path: {"manifest": {"fields": [_field_file(tmp_path)]},
                       "ledger": {"C": 3.0}}, "'divergence_threshold'"),
    ("heinz-scan", lambda _: {**MORREY, "center": [0.0]}, "'center'"),
    ("monotonicity", lambda _: {"domain": {**HALF, "spacing": 1 / 16},
                                "generator": {"kind": "constant"}, "center": [0.0]},
     "'center'"),
    ("--dimension 3 monotonicity", lambda _: LIFTED_HALF, "'center'"),
    ("monotonicity", lambda _: {**LIFTED_HALF, "radii": [0.4, math.nan, 0.6]}, "'radii'"),
    ("monotonicity", lambda _: {**LIFTED_HALF, "radii": [0.4, 0.5, math.inf]}, "'radii'"),
    ("verify-morrey", lambda _: {**MORREY, "domain": {**COARSE, "center": [math.nan, 0.0]}},
     "'center'"),
    ("monotonicity", lambda _: {**LIFTED_HALF, "domain": {**HALF, "center": [math.nan, 0.0]}},
     "'center'"),
    ("monotonicity", lambda _: {**LIFTED_HALF, "domain": {**HALF, "center": [0.0, math.inf]}},
     "'center'"),
    ("verify-morrey", _metric_morrey(preset="conformal", coefficient=math.nan), "'coefficient'"),
    ("verify-morrey", _metric_morrey(preset="sine", coefficient=math.inf), "'coefficient'"),
    ("verify-morrey", _metric_morrey(declared_deviation=math.nan), "'declared_deviation'"),
    ("verify-morrey", _metric_morrey(declared_deviation=math.inf), "'declared_deviation'"),
    ("verify-morrey", lambda tmp_path: json.dumps(_metric_morrey(
        declared_deviation="HUGE")(tmp_path)).replace('"HUGE"', "1e400"),
     "'declared_deviation'"),
    ("verify-morrey", _metric_morrey(declared_deviation=-0.1), "'declared_deviation'"),
    ("verify-morrey", _metric_morrey(axis=5), "'axis'"),
    ("verify-morrey", _metric_morrey(preset="sine", entry=[0, 7]), "'entry'"),
    ("verify-interior", lambda _: {**_metric_morrey()(_), "params": {"a": 0.01},
                                   "ledger": {"C": 1.0, "delta": math.nan}}, "'delta'"),
    ("verify-morrey", lambda _: {**MORREY, "ledger": {"C": math.nan}}, "'C'"),
    ("verify-morrey", lambda _: {**MORREY, "ledger": {"C": math.inf}}, "'C'"),
    ("verify-morrey", lambda _: {**MORREY, "params": {"a": 0.01}, "ledger": {"C": math.nan}},
     "'C'"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": {**SEQUENCE, "divergence_threshold": math.nan},
                "ledger": {"C": 3.0}}, "'divergence_threshold'"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": {**SEQUENCE, "divergence_threshold": math.inf},
                "ledger": {"C": 3.0}}, "'divergence_threshold'"),
    ("detect-bubbles", _detect_manifest(math.nan), "'energy_bound'"),
    ("detect-bubbles", _detect_manifest(math.inf), "'energy_bound'"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": {**SEQUENCE, "schedule": [0.5, math.nan]},
                "ledger": {"C": 3.0}}, "'schedule'"),
    ("detect-bubbles",
     lambda _: {"domain": COARSE, "sequence": {**SEQUENCE, "schedule": [math.inf, 0.5]},
                "ledger": {"C": 3.0}}, "'schedule'"),
    ("verify-interior", lambda _: {**MORREY, "params": {"A0": math.nan, "a": 0.01}}, "'A0'"),
    ("verify-interior", lambda _: {**MORREY, "params": {"A1": math.inf, "a": 0.01}}, "'A1'"),
], ids=["field-no-shape", "field-bad-domain-json", "field-bad-value", "field-wrong-mask-digest",
        "field-v1", "field-truncated-payload", "field-one-value-short",
        "field-v2", "field-density-yes", "string-spacing", "string-amplitude", "string-params-a",
        "string-radius",
        "string-tolerance-k", "numeric-tolerance-k", "list-ledger-c", "top-level-array", "sequence-no-schedule",
        "sequence-no-threshold", "manifest-no-threshold", "heinz-short-center",
        "monotonicity-short-center", "dimension-short-center", "monotonicity-nan-radius",
        "monotonicity-inf-radius", "ball-nan-center", "half-ball-nan-center",
        "half-ball-inf-center", "conformal-nan-coefficient", "sine-inf-coefficient",
        "nan-declared-deviation", "inf-declared-deviation", "huge-declared-deviation",
        "negative-declared-deviation", "conformal-axis-5", "sine-entry-0-7",
        "nan-ledger-delta", "nan-ledger-c", "inf-ledger-c", "nan-ledger-c-with-a",
        "nan-divergence-threshold", "inf-divergence-threshold", "nan-energy-bound",
        "inf-energy-bound", "nan-schedule-entry", "inf-schedule-entry", "nan-params-a0",
        "inf-params-a1"])
def test_malformed_input_exits_3(tmp_path, capsys, subcommand, make_config, needle):
    # ``subcommand`` may carry flags before it, e.g. "--dimension 3 monotonicity"
    cfg = write_config(tmp_path, "bad.json", make_config(tmp_path))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *subcommand.split()]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


@pytest.mark.parametrize("subcommand, config, needle", [
    ("verify-morrey", {**MORREY, "generator": {"kind": "quadratic", "center": [0.0, 0.0, 0.0]}},
     "generator quadratic: 'center' needs 2 coordinates"),
    ("verify-morrey", {**MORREY, "generator": {"kind": "bubble", "center": [0.0], "scale": 0.5}},
     "generator bubble: 'center' needs 2 coordinates"),
    ("verify-morrey", {**MORREY, "generator": {"kind": "poisson_peak", "pole": [3.0, 0.0, 0.0]}},
     "generator poisson_peak: 'pole' needs 2 coordinates"),
    ("detect-bubbles",
     {"domain": COARSE, "ledger": {"C": 3.0},
      "sequence": {**SEQUENCE, "bubbles": [{"kind": "bubble", "center": [0.0, 0.0, 0.0]}]}},
     "generator bubble: 'center' needs 2 coordinates"),
    ("monotonicity", {**LIFTED_HALF, "radii": []}, "'radii'"),
], ids=["quadratic-long-center", "bubble-short-center", "poisson-long-pole",
        "sequence-bubble-long-center", "monotonicity-no-radii"])
def test_malformed_generator_input_and_empty_radii_exit_3(tmp_path, capsys, subcommand, config, needle):
    cfg = write_config(tmp_path, "bad.json", config)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), subcommand]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert needle in err


@pytest.mark.parametrize("argv, code", [
    (["--spacing", "abc", "verify-morrey"], 3),   # a bad float
    (["--no-such-flag", "verify-morrey"], 3),     # an unknown flag
    (["--seed", "1", "verify-morrey"], 3),        # the removed seed flag
    (["verify-everything"], 3),                   # an unknown subcommand
    ([], 3),                                      # no subcommand
    (["-h"], 0),
    (["--tolerance-k", "5", "verify-morrey"], 3),  # the tolerance is a fixed 10h
    (["--measure-c", "verify-morrey"], 3),         # an unset ledger.C is measured
])
def test_usage_errors_exit_3_and_help_exits_0(argv, code, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    err = capsys.readouterr().err
    assert ("error:" in err) == (code != 0)


def test_readme_flags_are_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    documented = {code.split()[0] for code in re.findall(r"`(-[^`]*)`", paragraph)}
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert documented == options - {"-h", "--help"}


def test_unset_ledger_c_is_measured(tmp_path, capsys):
    cfg = write_config(tmp_path, "measure.json", {
        "domain": BALL,
        "generator": {"kind": "constant", "amplitude": 1.0},
    })
    code = main(["--config", cfg, "--out", str(tmp_path / "o5"), "verify-morrey"])
    assert code == 0
    record = strip_header((tmp_path / "o5" / "morrey.txt").read_text())
    data = json.loads(record)
    assert data["ledger"]["provenance"]["c_master"] == "measured"


def test_estimate_c_subcommand(tmp_path, capsys):
    # on the plane, and lifted above it at n = 2 and 3
    lifted = {"kind": "half_ball", "radius": 1.0, "spacing": 1 / 32}
    for i, domain in enumerate((HALF, {**lifted, "center": [0.25, 0.0], "dimension": 2},
                                {**lifted, "center": [0.25, 0.0, 0.0], "dimension": 3})):
        cfg = write_config(tmp_path, f"est{i}.json", {"domain": domain})
        assert main(["--config", cfg, "--out", str(tmp_path / f"o6-{i}"),
                     "estimate-c"]) == 0
        assert "measured_c=" in capsys.readouterr().out


def test_heinz_scan_subcommand(tmp_path):
    cfg = write_config(tmp_path, "heinz.json", {
        "domain": BALL,
        "generator": {"kind": "bubble", "center": [0.25, 0.0], "scale": 0.125},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o7"),
                 "heinz-scan"]) == 0
    data = json.loads(strip_header((tmp_path / "o7" / "heinz.txt").read_text()))
    assert all(c["passed"] for c in data["checks"])


def test_monotonicity_subcommand(tmp_path):
    cfg = write_config(tmp_path, "mono.json", {
        "domain": HALF,
        "generator": {"kind": "constant", "amplitude": 1.0},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o8"),
                 "monotonicity"]) == 0
    csv_text = (tmp_path / "o8" / "monotonicity.csv").read_text()
    assert csv_text.splitlines()[0] == "r,M_r,quadrature_node_count,clipped_flag"

    # a centre lifted to y0 <= 16h: the default radii start below y0, so the
    # small-radius limit is resolved, and C is not measured
    lifted = write_config(tmp_path, "lifted.json", {
        "domain": {**HALF, "spacing": 1 / 32, "center": [0.25, 0.0]},
        "generator": {"kind": "quadratic", "amplitude": 1.0, "offset": 0.3,
                      "center": [0.0, 0.0]},
    })
    assert main(["--config", lifted, "--out", str(tmp_path / "o9"),
                 "monotonicity"]) == 0
    data = json.loads(strip_header((tmp_path / "o9" / "monotonicity.txt").read_text()))
    assert data["limit_kind"] == "full" and data["limit_passed"]


def test_monotonicity_default_radii_on_coarse_grids(tmp_path, capsys):
    # h = 1/16 > r/20: the default radii start at max(4h, (r - 4h)/2) = 0.375
    coarse = write_config(tmp_path, "coarse.json", {
        "domain": {**HALF, "spacing": 1 / 16},
        "generator": {"kind": "constant", "amplitude": 1.0},
    })
    assert main(["--config", coarse, "--out", str(tmp_path / "c1"),
                 "monotonicity"]) == 0
    data = json.loads(strip_header((tmp_path / "c1" / "monotonicity.txt").read_text()))
    radii = [s["r"] for s in data["profile"]]
    assert radii[0] == 0.375 and radii[-1] == 0.75 and data["verdict"] == "Holds"

    # h = r/8 leaves no radius between 4h and r - 4h
    capsys.readouterr()
    coarsest = write_config(tmp_path, "coarsest.json", {
        "domain": {**HALF, "spacing": 1 / 8},
        "generator": {"kind": "constant", "amplitude": 1.0},
    })
    assert main(["--config", coarsest, "--out", str(tmp_path / "c2"),
                 "monotonicity"]) == 3
    assert "'radii'" in capsys.readouterr().err


def test_detect_bubbles_generator_and_manifest(tmp_path):
    seq_cfg = {
        "domain": {**BALL, "radius": 0.5, "spacing": 1 / 128},
        "sequence": {
            "bubbles": [{"kind": "bubble", "amplitude": 2.0, "center": [0.0, 0.0]}],
            "schedule": [0.125, 0.0625, 0.03125],
            "divergence_threshold": 50.0,
        },
        "ledger": {"C": 3.0},
    }
    cfg = write_config(tmp_path, "seq.json", seq_cfg)
    assert main(["--config", cfg, "--out", str(tmp_path / "o9"),
                 "detect-bubbles"]) == 0
    data = json.loads(strip_header((tmp_path / "o9" / "detect.txt").read_text()))
    assert data["count"] == 1

    # manifest path: serialize the same sequence to field files
    from mvlab.config import domain_from_config
    from mvlab.fieldio import write_field
    from mvlab.synth import GeneratorSpec, gen_sequence

    dom = domain_from_config(seq_cfg["domain"])
    seq = gen_sequence([GeneratorSpec("bubble", amplitude=2.0, center=(0.0, 0.0))],
                       [0.125, 0.0625, 0.03125], dom)
    paths = []
    for i, f in enumerate(seq.fields):
        p = tmp_path / f"field_{i}.txt"
        write_field(f, p)
        paths.append(str(p))
    man = write_config(tmp_path, "manifest.json", {
        "manifest": {
            "fields": paths,
            "energy_bound": seq.energy_bound,
            "params": {"a": seq.params.a, "b": seq.params.b},
            "divergence_threshold": 50.0,
        },
        "ledger": {"C": 3.0},
    })
    assert main(["--config", man, "--out", str(tmp_path / "o10"),
                 "detect-bubbles"]) == 0
    data2 = json.loads(strip_header((tmp_path / "o10" / "detect.txt").read_text()))
    assert data2["count"] == 1
    assert data2["points"][0]["location"] == data["points"][0]["location"]


def test_reports_byte_identical_modulo_header(tmp_path):
    cfg = write_config(tmp_path, "det.json", {
        "domain": BALL,
        "generator": {"kind": "harmonic_product", "scale": 1.0, "offset": 0.1},
        "ledger": {"C": 1.0},
        "seed": 42,
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "r1"),
                 "verify-morrey"]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "r2"),
                 "verify-morrey"]) == 0
    a = strip_header((tmp_path / "r1" / "morrey.txt").read_text())
    b = strip_header((tmp_path / "r2" / "morrey.txt").read_text())
    assert a == b


def test_monotonicity_weak_mode_emits_csv(tmp_path, monkeypatch):
    from mvlab import calculus

    calls = []
    original = calculus.weak_subharmonic_test

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(calculus, "weak_subharmonic_test", counting)
    cfg = write_config(tmp_path, "weak.json", {
        "domain": HALF,
        "generator": {"kind": "quadratic", "amplitude": 1.0, "center": [0.0, 0.0],
                      "offset": 0.5},
        "hypothesis_mode": "weak",
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "ow"),
                 "monotonicity"]) == 0
    weak_csv = (tmp_path / "ow" / "weak_tests.csv").read_text()
    assert weak_csv.splitlines()[0] == "test_function,value,tol"
    assert len(calls) == 1  # the CSV reuses the suite's weak test


def test_measure_c_holds_one_family_member_at_a_time(monkeypatch):
    # each member is dead before the next is sampled; CPython frees it on its
    # last reference, so the check is deterministic
    import weakref

    import mvlab.cli
    import mvlab.synth
    from mvlab.config import domain_from_config

    sample = mvlab.synth.gen
    members = []

    def gen(spec, domain):
        assert all(member() is None for member in members)
        field = sample(spec, domain)
        members.append(weakref.ref(field))
        return field

    for cfg in (COARSE, {**HALF, "spacing": 1 / 16}):
        domain = domain_from_config(cfg)
        want = mvlab.cli.measure_c(domain)
        members.clear()
        monkeypatch.setattr(mvlab.synth, "gen", gen)
        assert mvlab.cli.measure_c(domain) == want
        monkeypatch.undo()
        assert len(members) == 4


def test_subcommands_without_a_ledger_never_measure_c(tmp_path, monkeypatch):
    import mvlab.cli

    def fail(*args, **kwargs):
        raise AssertionError("measure_c called")

    monkeypatch.setattr(mvlab.cli, "measure_c", fail)
    mono = write_config(tmp_path, "mono.json", {
        "domain": {**HALF, "spacing": 1 / 32},
        "generator": {"kind": "constant", "amplitude": 1.0},
    })
    assert main(["--config", mono, "--out", str(tmp_path / "om"),
                 "monotonicity"]) == 0
    heinz = write_config(tmp_path, "heinz.json", {
        "domain": {**BALL, "spacing": 1 / 32},
        "generator": {"kind": "bubble", "center": [0.25, 0.0], "scale": 0.125},
    })
    assert main(["--config", heinz, "--out", str(tmp_path / "oh"),
                 "heinz-scan"]) == 0


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = write_config(tmp_path, "ep.json", {
        "domain": BALL,
        "generator": {"kind": "constant", "amplitude": 1.0},
        "ledger": {"C": 1.0},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "mvlab", "--config", cfg, "--out",
         str(tmp_path / "om"), "verify-morrey"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict=Holds" in proc.stdout


def test_importing_the_cli_loads_no_scipy():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mvlab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_detect_bubbles_quantization_violated_exit(tmp_path):
    import numpy as np

    from mvlab import make_ball_domain
    from mvlab.fieldio import write_field

    dom = make_ball_domain([0.0, 0.0], 0.5, 1 / 64, 2)
    paths = []
    for i, height in enumerate((1e4, 4e4, 1.6e5)):
        vals = np.where(dom.in_mask, 0.01, np.nan)
        vals[dom.node_index([0.0, 0.0])] = height
        p = tmp_path / f"spike_{i}.txt"
        write_field(dom.make_field(vals[dom.in_mask]), p)
        paths.append(str(p))
    cfg = write_config(tmp_path, "viol.json", {
        "manifest": {"fields": paths, "params": {"a": 0.01},
                     "divergence_threshold": 100.0},
        "ledger": {"C": 1.0},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "ov"),
                 "detect-bubbles"]) == 2


def _detect_ledger(tmp_path, name, cfg, *flags):
    """The ledger detect-bubbles records for ``cfg`` run with ``flags``."""
    out = tmp_path / name
    assert main(["--config", write_config(tmp_path, f"{name}.json", cfg), "--out", str(out),
                 *flags, "detect-bubbles"]) == 0
    ledger = json.loads(strip_header((out / "detect.txt").read_text()))["ledger"]
    return ledger["a"], ledger["b"]


def test_detect_bubbles_honours_the_a_and_b_flags(tmp_path):
    inline = {"domain": COARSE, "sequence": SEQUENCE, "ledger": {"C": 3.0}}
    fitted, b = _detect_ledger(tmp_path, "fit", inline)
    assert fitted > 0.0 and b == 0.0  # with neither a flag nor an entry, the fit stands
    # a flag with no entry sets its constant, leaves the others 0 and skips the fit
    assert _detect_ledger(tmp_path, "a", inline, "--a", "5") == (5.0, 0.0)
    assert _detect_ledger(tmp_path, "b", inline, "--b", "7") == (0.0, 7.0)
    assert _detect_ledger(tmp_path, "ab", inline, "--a", "5", "--b", "7") == (5.0, 7.0)
    # a flag overrides its key of the top-level params entry
    entry = {**inline, "params": {"a": 3.0, "b": 1.0}}
    assert _detect_ledger(tmp_path, "entry", entry) == (3.0, 1.0)
    assert _detect_ledger(tmp_path, "entry-b", entry, "--b", "7") == (3.0, 7.0)

    # manifest: the flags merge into manifest.params
    manifest = _detect_manifest(None)(tmp_path)
    del manifest["manifest"]["energy_bound"]
    assert _detect_ledger(tmp_path, "m", manifest) == (8.0, 0.0)
    assert _detect_ledger(tmp_path, "m-a", manifest, "--a", "5") == (5.0, 0.0)
    assert _detect_ledger(tmp_path, "m-b", manifest, "--b", "2") == (8.0, 2.0)
    del manifest["manifest"]["params"]
    assert _detect_ledger(tmp_path, "m-none-a", manifest, "--a", "5") == (5.0, 0.0)


@pytest.mark.parametrize("subcommand, domain, stdout", [
    ("verify-morrey", BALL, r"morrey verdict=Holds lhs=\S+ rhs=\S+"),
    ("verify-interior", BALL, r"interior-mvi verdict=Holds lhs=\S+ rhs=\S+ reason=None"),
    ("verify-boundary", HALF, r"boundary-mvi verdict=Holds lhs=\S+ rhs=\S+ reason=None"),
])
def test_verify_subcommands_share_one_record_and_stdout_layout(tmp_path, capsys, subcommand,
                                                               domain, stdout):
    cfg = write_config(tmp_path, "v.json", {"domain": {**domain, "spacing": 1 / 16},
                                            "generator": {"kind": "constant"},
                                            "ledger": {"C": 1.0}})
    assert main(["--config", cfg, "--out", str(tmp_path), subcommand]) == 0
    assert re.fullmatch(stdout, capsys.readouterr().out.strip())
    name = subcommand.removeprefix("verify-")
    data = json.loads(strip_header((tmp_path / f"{name}.txt").read_text()))
    assert data["claim"] == ("morrey" if name == "morrey" else f"{name}-mvi")
    assert data["ledger"]["c_master"] == 1.0 and data["verdict"] == "Holds"


def test_verify_morrey_on_a_ball_of_radius_two_gives_a_verdict(tmp_path, capsys):
    # a = b = A0 = A1 = 0: the inequality is scale-invariant, so r > 1 is no input error
    cfg = write_config(tmp_path, "r2.json", {
        "domain": {**BALL, "radius": 2.0, "spacing": 1 / 8},
        "generator": {"kind": "quadratic", "amplitude": 1.0, "center": [0.0, 0.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path), "verify-morrey"]) == 0
    assert capsys.readouterr().out.startswith("morrey verdict=Holds")
    data = json.loads(strip_header((tmp_path / "morrey.txt").read_text()))
    assert data["grid"]["radius"] == 2.0
    assert data["ledger"]["provenance"]["c_master"] == "measured"
