"""Structured configuration: domains, metrics, generators, ledgers.

Run configurations are JSON objects; the same schema fragments appear inside
field files and sequence manifests. See the README for the documented keys.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .constants import BoundParams, ConstantLedger, make_ledger
from .errors import ConfigError, MVLabError
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
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return data


def _need(cfg: dict, key: str, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"{where}: missing key {key!r}")
    return cfg[key]


_REQUIRED = object()


def config_value(cfg: dict, key: str, where: str, convert=float, default=_REQUIRED):
    """``convert(cfg[key])``; ``default`` as it is when the key is absent and
    a default is given. ``convert`` reads nothing but the value, so a
    TypeError, ValueError or LookupError from it means a malformed value and
    becomes a ConfigError naming the key."""
    if default is not _REQUIRED and isinstance(cfg, dict) and key not in cfg:
        return default
    raw = _need(cfg, key, where)
    try:
        return convert(raw)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r}") from exc


def floats(value) -> list[float]:
    return [float(x) for x in value]


def finite_floats(value) -> list[float]:
    """``floats`` that are all finite; JSON input may carry NaN and Infinity."""
    out = floats(value)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite value in {value!r}")
    return out


def _terms(value) -> list:
    return [(int(i), int(j), float(c), [int(p) for p in pw]) for i, j, c, pw in value]


def metric_from_config(cfg: dict | None, n: int) -> MetricSpec | None:
    if cfg is None:
        return None
    preset = config_value(cfg, "preset", "metric", str, None)
    deviation = config_value(cfg, "declared_deviation", "metric", float, None)
    try:
        if preset == "identity":
            return identity_metric(n)
        if preset == "conformal":
            return conformal_metric(n, config_value(cfg, "coefficient", "metric"),
                                    axis=config_value(cfg, "axis", "metric", int, 1),
                                    declared_deviation=deviation)
        if preset == "sine":
            return sine_metric(n, config_value(cfg, "coefficient", "metric"),
                               entry=config_value(cfg, "entry", "metric",
                                                  lambda e: (int(e[0]), int(e[1])), (0, 0)),
                               axis=config_value(cfg, "axis", "metric", int, 1),
                               declared_deviation=deviation)
        if preset == "polynomial" or "terms" in cfg:
            return polynomial_metric(n, config_value(cfg, "terms", "metric", _terms),
                                     config_value(cfg, "declared_deviation", "metric"))
    except MVLabError as exc:  # a preset rejects a value; its message names the key
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"metric: unknown preset {preset!r}")


def metric_to_config(metric: MetricSpec | None) -> dict | None:
    if metric is None:
        return None
    if metric.config is None:
        raise ConfigError(f"metric {metric.name!r} carries no serializable recipe")
    return metric.config


def domain_from_config(cfg: dict) -> Domain:
    kind = _need(cfg, "kind", "domain")
    n = config_value(cfg, "dimension", "domain", int)
    center = config_value(cfg, "center", "domain", finite_floats)
    radius = config_value(cfg, "radius", "domain")
    spacing = config_value(cfg, "spacing", "domain")
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
    parts = tuple(generator_from_config(p)
                  for p in config_value(cfg, "parts", "generator", list, []))
    center = config_value(cfg, "center", "generator", floats, None)
    pole = config_value(cfg, "pole", "generator", floats, None)
    return GeneratorSpec(
        kind=kind,
        amplitude=config_value(cfg, "amplitude", "generator", float, 1.0),
        center=tuple(center) if center is not None else None,
        scale=config_value(cfg, "scale", "generator", float, None),
        offset=config_value(cfg, "offset", "generator", float, 0.0),
        axis=config_value(cfg, "axis", "generator", int, 1),
        pole=tuple(pole) if pole is not None else None,
        parts=parts,
    )


def params_from_config(cfg: dict | None, n: int) -> BoundParams:
    cfg = cfg or {}
    values = {key: config_value(cfg, key, "params", float, 0.0)
              for key in ("A0", "A1", "a", "B0", "B1", "b")}
    try:
        return BoundParams(n, **values)
    except MVLabError as exc:  # its message names the key
        raise ConfigError(f"params: {exc}") from exc


def ledger_from_config(cfg: dict | None, n: int, params: BoundParams,
                       measured_c: float | None = None) -> ConstantLedger:
    """Build the ledger; ``C`` may be a number or the string "measure", in which
    case the caller supplies it. A C or delta the ledger rejects is a ConfigError."""
    cfg = cfg or {}
    delta = config_value(cfg, "delta", "ledger", float, 0.05)
    c_raw = cfg.get("C", "measure")
    if isinstance(c_raw, str):
        if c_raw != "measure":
            raise ConfigError(f"ledger: C must be a number or 'measure', got {c_raw!r}")
        if measured_c is None:
            raise ConfigError("ledger: C='measure' but no measured constant supplied")
    c = measured_c if isinstance(c_raw, str) else config_value(cfg, "C", "ledger")
    try:
        return make_ledger(n, params.a, params.b, c, delta,
                           c_provenance="measured" if isinstance(c_raw, str) else "configured")
    except MVLabError as exc:  # its message names the key
        raise ConfigError(str(exc)) from exc
