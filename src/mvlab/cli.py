"""Command-line front end.

Subcommands run one verification each, write deterministic report records
(plus CSV profiles) under the output directory, and exit 0 only when every
verdict holds. Exit codes: 0 ok, 1 claim failed, 2 hypothesis violated,
3 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import heinz, quantization, report, synth, verify
from .config import (
    config_value,
    domain_from_config,
    finite_floats,
    floats,
    generator_from_config,
    ledger_from_config,
    load_json,
    params_from_config,
)
from .constants import epsilon_prime, make_ledger
from .errors import ConfigError, MVLabError, QuantizationViolated
from .fieldio import read_field
from .grid import BALL, HALF_BALL, ScalarField

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3

OUT_ENV = "MVLAB_OUT"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors (a bad value, an unknown flag, a missing
    subcommand) exiting EXIT_INPUT, not argparse's 2, which means a violated
    hypothesis here; -h still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvlab",
        description="Mean value inequality and energy quantization lab on masked grids.")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON run configuration (see README for the schema)")
    parser.add_argument("--spacing", type=float, default=None,
                        help="override the domain grid spacing h")
    parser.add_argument("--dimension", type=int, default=None,
                        help="override the domain dimension n")
    parser.add_argument("--c-constant", type=float, default=None,
                        help="master mean-value constant C")
    parser.add_argument("--out", type=str, default=None,
                        help=f"output directory (default ${OUT_ENV} or ./mvlab-out)")
    parser.add_argument("--a", type=float, default=None,
                        help="nonlinearity a (constants subcommand shortcut)")
    parser.add_argument("--b", type=float, default=None,
                        help="nonlinearity b (constants subcommand shortcut)")
    parser.add_argument("subcommand", choices=[
        "verify-morrey", "verify-interior", "verify-boundary", "monotonicity",
        "heinz-scan", "constants", "detect-bubbles", "estimate-c"])
    return parser


class RunConfig:
    """Resolved run configuration: config file merged with CLI overrides."""

    def __init__(self, args: argparse.Namespace):
        self.raw = load_json(args.config) if args.config else {}
        self.subcommand = args.subcommand
        if "tolerance_k" in self.raw:
            # ignored, a key that set the factor below 10 would loosen every check
            raise ConfigError("config: 'tolerance_k' is not a setting; every verdict "
                              "uses the fixed tolerance 10h")
        out = (args.out or config_value(self.raw, "out", "config", str, None)
               or os.environ.get(OUT_ENV) or "mvlab-out")
        self.out_dir = Path(out)
        self.c_override = args.c_constant
        self.a_flag = args.a
        self.b_flag = args.b
        self._args = args

        dom_cfg = config_value(self.raw, "domain", "config", dict, None)
        if dom_cfg is not None:
            if args.spacing is not None:
                dom_cfg["spacing"] = args.spacing
            if args.dimension is not None:
                dom_cfg["dimension"] = args.dimension
                center = config_value(dom_cfg, "center", "domain", floats,
                                      [0.0] * args.dimension)
                if len(center) != args.dimension:
                    raise ConfigError(f"domain: 'center' needs {args.dimension} "
                                      f"coordinates for --dimension {args.dimension}, "
                                      f"got {center}")
                dom_cfg["center"] = center
        self.domain_cfg = dom_cfg

    def domain(self):
        if self.domain_cfg is None:
            raise ConfigError("this subcommand needs a 'domain' entry in the config")
        return domain_from_config(self.domain_cfg)

    def center(self, domain) -> list[float]:
        """The config's "center" (default: the domain's), one coordinate per dimension."""
        center = config_value(self.raw, "center", "config", floats,
                              [float(x) for x in domain.center])
        if len(center) != domain.dimension:
            raise ConfigError(f"config: 'center' needs {domain.dimension} coordinates, "
                              f"got {center}")
        return center

    def field(self, domain):
        gen_cfg = self.raw.get("generator")
        file_cfg = self.raw.get("field_file")
        if (gen_cfg is None) == (file_cfg is None):
            raise ConfigError("exactly one of 'generator' or 'field_file' is required")
        if gen_cfg is not None:
            return synth.gen(generator_from_config(gen_cfg), domain)
        return read_field(config_value(self.raw, "field_file", "config", str), domain)

    def params(self, n):
        return params_from_config(self.params_entry(
            config_value(self.raw, "params", "config", dict, {})), n)

    def params_entry(self, entry):
        """A params ``entry`` (None when there is none) with the --a and --b
        flags merged in; a flag with no entry makes one."""
        flags = {key: v for key, v in (("a", self.a_flag), ("b", self.b_flag)) if v is not None}
        if not flags or not isinstance(entry, (dict, type(None))):  # a malformed one is reported
            return entry
        return {**(entry or {}), **flags}

    def ledger(self, domain, params):
        """The run's ledger; C is measured on ``domain`` only when asked for."""
        cfg = config_value(self.raw, "ledger", "config", dict, {})
        if self.c_override is not None:
            cfg["C"] = self.c_override
        measured = measure_c(domain) if cfg.get("C", "measure") == "measure" else None
        return ledger_from_config(cfg, domain.dimension, params, measured_c=measured)


def builtin_family(domain) -> Iterator[ScalarField]:
    """Small deterministic subharmonic family used to measure C, each member
    sampled only as the iteration reaches it."""
    r = domain.radius
    # on half-balls the quadratic is centred on the plane, where its normal
    # derivative vanishes, whatever the height of the domain's centre
    centre = np.array(domain.center, dtype=float)
    if domain.kind == HALF_BALL:
        centre[0] = 0.0
    specs = [
        synth.GeneratorSpec("constant", amplitude=1.0),
        synth.GeneratorSpec("quadratic", amplitude=1.0, offset=0.25,
                            center=tuple(centre)),
        synth.GeneratorSpec("harmonic_product", amplitude=1.0, scale=1.0 / r,
                            offset=0.1),
    ]
    if domain.kind == HALF_BALL:
        specs.append(synth.GeneratorSpec("linear_x0", amplitude=1.0, offset=0.2))
    else:
        pole = np.array(domain.center, dtype=float)
        pole[0] += 1.5 * r
        specs.append(synth.GeneratorSpec("poisson_peak", amplitude=1.0,
                                         pole=tuple(pole), offset=0.0))
    for spec in specs:
        yield synth.gen(spec, domain)


def measure_c(domain) -> float:
    kind = "interior" if domain.kind == BALL else "boundary"
    return verify.estimate_constant(builtin_family(domain), kind).value


def _verdict_exit(verdicts: list[str]) -> int:
    if any(v == verify.HYPOTHESIS_VIOLATED for v in verdicts):
        return EXIT_HYPOTHESIS
    if any(v == verify.FAILS for v in verdicts):
        return EXIT_CLAIM_FAILED
    return EXIT_OK


def run(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    sub = cfg.subcommand

    if sub == "constants":
        n = config_value(cfg.raw, "dimension", "config", int,
                         config_value(cfg.domain_cfg, "dimension", "domain", int)
                         if cfg.domain_cfg else 2)
        if cfg._args.dimension is not None:
            n = cfg._args.dimension
        params = cfg.params(n)
        ledger_cfg = config_value(cfg.raw, "ledger", "config", dict, {})
        c_value = cfg.c_override if cfg.c_override is not None else \
            config_value(ledger_cfg, "C", "ledger", float, 1.0)
        ledger = make_ledger(n, params.a, params.b, c_value,
                             delta=config_value(ledger_cfg, "delta", "ledger", float, 0.05))
        if params.A1 + params.B1 > 0 and ledger.eps_ab is not None:
            r = config_value(cfg.raw, "radius", "config", float, 1.0)
            eps_cap = min(0.5, ledger.eps_ab) if ledger.eps_ab else 0.5
            ep = epsilon_prime(params, r, ledger.c_master, eps_cap)
            ledger = ledger.with_eps_prime(ep.value)
        block = report.ledger_block(ledger)
        print(block)
        report.write_records(cfg.out_dir / "constants.txt", [ledger.as_dict()])
        return EXIT_OK

    if sub == "detect-bubbles":
        return _run_detect(cfg)

    domain = cfg.domain()

    if sub == "estimate-c":
        estimate = measure_c(domain)
        print(f"measured_c={estimate!r} kind={domain.kind}")
        report.write_records(cfg.out_dir / "estimate_c.txt",
                             [{"measured_c": estimate, "kind": domain.kind}])
        return EXIT_OK

    e = cfg.field(domain)
    n = domain.dimension

    if sub == "heinz-scan":
        center = cfg.center(domain)
        r = config_value(cfg.raw, "radius", "config", float, domain.radius)
        rep = heinz.heinz_scan(e, center, r)
        record = rep.as_dict()
        report.write_records(cfg.out_dir / "heinz.txt", [record])
        ok = rep.all_passed()
        print(f"heinz-scan rho_bar={rep.rho_bar!r} c_bar={rep.c_bar!r} "
              f"eps={rep.eps!r} checks={'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_CLAIM_FAILED

    params = cfg.params(n)

    if sub.startswith("verify-"):
        ledger = cfg.ledger(domain, params)
        if sub == "verify-morrey":
            rep = verify.verify_morrey(e, ledger.c_master)
        elif sub == "verify-interior":
            rep = verify.verify_interior_mvi(e, params, ledger)
        else:
            rep = verify.verify_boundary_mvi(e, params, ledger)
        record = rep.as_dict()
        record.setdefault("ledger", ledger.as_dict())  # a Morrey report carries none
        report.write_records(cfg.out_dir / f"{sub.removeprefix('verify-')}.txt", [record])
        reason = "" if sub == "verify-morrey" else f" reason={rep.reason}"
        print(f"{rep.claim} verdict={rep.verdict} lhs={rep.lhs!r} rhs={rep.rhs!r}{reason}")
        return _verdict_exit([rep.verdict])

    if sub == "monotonicity":
        center = cfg.center(domain)
        radii = config_value(cfg.raw, "radii", "config", finite_floats, None)
        if radii is None:
            h = domain.spacing
            r_max = domain.radius - 4.0 * h
            # from 16h, or halfway to r - 4h on coarse grids (h >= r/20)
            r_min = 16.0 * h if 16.0 * h < r_max else max(4.0 * h, 0.5 * r_max)
            if 0.0 < center[0] <= r_min:
                # the small-radius limit about a lifted centre needs a radius below y0
                r_min = max(4.0 * h, 0.5 * center[0])
            if r_min >= r_max:
                raise ConfigError(f"no default shell radii between 4h and r - 4h at "
                                  f"h={h}, r={domain.radius}; set 'radii' in the config")
            radii = list(np.linspace(r_min, r_max, 24))
        mode = cfg.raw.get("hypothesis_mode", "pointwise")
        rep = verify.monotonicity_suite(e, center, radii, hypothesis_mode=mode)
        report.write_records(cfg.out_dir / "monotonicity.txt", [rep.as_dict()])
        report.write_shell_csv(cfg.out_dir / "monotonicity.csv", rep.profile)
        if rep.weak is not None:
            report.write_weak_csv(cfg.out_dir / "weak_tests.csv", rep.weak)
        print(f"monotonicity verdict={rep.verdict} worst_drop={rep.worst_drop!r} "
              f"limit={rep.limit_value!r} target={rep.limit_target!r}")
        return _verdict_exit([rep.verdict])

    raise ConfigError(f"unknown subcommand {sub!r}")


def _finite_float(value) -> float:
    return finite_floats([value])[0]


def _run_detect(cfg: RunConfig) -> int:
    raw = cfg.raw
    seq_cfg = raw.get("sequence")
    manifest = raw.get("manifest")
    if (seq_cfg is None) == (manifest is None):
        raise ConfigError("detect-bubbles needs exactly one of 'sequence' or 'manifest'")

    if manifest is not None:
        paths = config_value(manifest, "fields", "manifest", lambda v: [str(p) for p in v],
                             None)
        if not paths:
            raise ConfigError("manifest: 'fields' must list at least one field file")
        first = read_field(paths[0])
        fields = [first] + [read_field(p, first.domain) for p in paths[1:]]
        domain = first.domain
        params = params_from_config(cfg.params_entry(manifest.get("params")), domain.dimension)
        seq = quantization.make_density_sequence(
            fields, params,
            config_value(manifest, "energy_bound", "manifest", _finite_float, None))
    else:
        domain = cfg.domain()
        bubbles = [generator_from_config(b)
                   for b in config_value(seq_cfg, "bubbles", "sequence", list)]
        schedule = config_value(seq_cfg, "schedule", "sequence", finite_floats)
        background = (generator_from_config(seq_cfg["background"])
                      if "background" in seq_cfg else None)
        params_cfg = cfg.params_entry(raw.get("params"))
        params = (params_from_config(params_cfg, domain.dimension)
                  if params_cfg is not None else None)
        seq = synth.gen_sequence(bubbles, schedule, domain, background, params)
        params = seq.params

    threshold = config_value(manifest if seq_cfg is None else seq_cfg, "divergence_threshold",
                             "manifest" if seq_cfg is None else "sequence",
                             _finite_float)
    ledger = cfg.ledger(seq.domain, params)
    try:
        rep = quantization.detect_concentration(seq, ledger, threshold)
    except QuantizationViolated as exc:
        print(f"detect-bubbles QuantizationViolated: {exc}")
        return EXIT_HYPOTHESIS
    record = rep.as_dict()
    record["ledger"] = ledger.as_dict()
    report.write_records(cfg.out_dir / "detect.txt", [record])
    report.write_detection_csv(cfg.out_dir / "detect.csv", rep)
    print(f"detect-bubbles points={rep.count} budget={rep.max_points} "
          f"bounded_candidates={len(rep.bounded_candidates)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(RunConfig(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QuantizationViolated as exc:
        print(f"quantization violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except MVLabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
