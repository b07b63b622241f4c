"""Structured configuration: domains, metrics, generators, ledgers.

Run configurations are JSON objects; the same schema fragments appear inside
field files and sequence manifests. See the README for the documented keys.
"""

from __future__ import annotations

import json
from pathlib import Path

from .constants import BoundParams, ConstantLedger, make_ledger
from .errors import ConfigError
from .grid import (
    BALL,
    HALF_BALL,
    Domain,
    MetricSpec,
    conformal_metric,
    identity_metric,
    make_ball_domain,
    make_half_ball_domain,
    polynomial_metric,
    sine_metric,
)
from .synth import GeneratorSpec


def load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing key {key!r}")
    return cfg[key]


def metric_from_config(cfg: dict | None, n: int) -> MetricSpec | None:
    if cfg is None:
        return None
    preset = cfg.get("preset")
    if preset == "identity":
        return identity_metric(n)
    if preset == "conformal":
        return conformal_metric(n, float(_need(cfg, "coefficient", "metric")),
                                axis=int(cfg.get("axis", 1)),
                                declared_deviation=cfg.get("declared_deviation"))
    if preset == "sine":
        entry = cfg.get("entry", [0, 0])
        return sine_metric(n, float(_need(cfg, "coefficient", "metric")),
                           entry=(int(entry[0]), int(entry[1])),
                           axis=int(cfg.get("axis", 1)),
                           declared_deviation=cfg.get("declared_deviation"))
    if preset == "polynomial" or "terms" in cfg:
        terms = [(int(i), int(j), float(c), [int(p) for p in pw])
                 for i, j, c, pw in _need(cfg, "terms", "metric")]
        return polynomial_metric(n, terms,
                                 float(_need(cfg, "declared_deviation", "metric")))
    raise ConfigError(f"metric: unknown preset {preset!r}")


def metric_to_config(metric: MetricSpec | None) -> dict | None:
    if metric is None:
        return None
    if metric.config is None:
        raise ConfigError(f"metric {metric.name!r} carries no serializable recipe")
    return metric.config


def domain_from_config(cfg: dict) -> Domain:
    kind = _need(cfg, "kind", "domain")
    n = int(_need(cfg, "dimension", "domain"))
    center = [float(x) for x in _need(cfg, "center", "domain")]
    radius = float(_need(cfg, "radius", "domain"))
    spacing = float(_need(cfg, "spacing", "domain"))
    if kind == BALL:
        metric = metric_from_config(cfg.get("metric"), n)
        return make_ball_domain(center, radius, spacing, n, metric)
    if kind == HALF_BALL:
        return make_half_ball_domain(center, radius, spacing, n)
    raise ConfigError(f"domain: unknown kind {kind!r}")


def domain_to_config(domain: Domain) -> dict:
    cfg = {
        "kind": domain.kind,
        "dimension": domain.dimension,
        "center": [float(x) for x in domain.center],
        "radius": domain.radius,
        "spacing": domain.spacing,
    }
    if domain.kind == BALL:
        cfg["metric"] = metric_to_config(domain.metric) or {"preset": "identity"}
    return cfg


def generator_from_config(cfg: dict) -> GeneratorSpec:
    kind = _need(cfg, "kind", "generator")
    parts = tuple(generator_from_config(p) for p in cfg.get("parts", []))
    return GeneratorSpec(
        kind=kind,
        amplitude=float(cfg.get("amplitude", 1.0)),
        center=tuple(float(x) for x in cfg["center"]) if "center" in cfg else None,
        scale=float(cfg["scale"]) if "scale" in cfg else None,
        offset=float(cfg.get("offset", 0.0)),
        axis=int(cfg.get("axis", 1)),
        pole=tuple(float(x) for x in cfg["pole"]) if "pole" in cfg else None,
        parts=parts,
    )


def params_from_config(cfg: dict | None, n: int) -> BoundParams:
    cfg = cfg or {}
    return BoundParams(
        n,
        A0=float(cfg.get("A0", 0.0)),
        A1=float(cfg.get("A1", 0.0)),
        a=float(cfg.get("a", 0.0)),
        B0=float(cfg.get("B0", 0.0)),
        B1=float(cfg.get("B1", 0.0)),
        b=float(cfg.get("b", 0.0)),
    )


def ledger_from_config(cfg: dict | None, n: int, params: BoundParams,
                       measured_c: float | None = None) -> ConstantLedger:
    """Build the ledger; ``C`` may be a number or the string "measure", in
    which case the caller must supply the measured value."""
    cfg = cfg or {}
    c_raw = cfg.get("C", "measure")
    delta = float(cfg.get("delta", 0.05))
    if isinstance(c_raw, str):
        if c_raw != "measure":
            raise ConfigError(f"ledger: C must be a number or 'measure', got {c_raw!r}")
        if measured_c is None:
            raise ConfigError("ledger: C='measure' but no measured constant supplied")
        return make_ledger(n, params.a, params.b, measured_c, delta,
                           c_provenance="measured")
    return make_ledger(n, params.a, params.b, float(c_raw), delta,
                       c_provenance="configured")
