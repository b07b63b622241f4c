"""Heinz-trick scanner and the comparison functions used by the mean value
inequality proofs, as checkable numerical objects.

The scan maximizes f(rho) = (1 - rho)^n sup_{B_{rho r}} e over rho in [0, 1).
On a grid the sup over B_{rho r} is e(y) at some node y with d(y) <= rho r,
and for e >= 0, f(rho) = (1 - rho)^n e(y) <= (1 - d(y)/r)^n e(y) <= f(d(y)/r).
So the maximum of f is the pointwise one, of (1 - d/r)^n e over the in-mask
nodes at distance d < r: one masked maximum, no rho grid. At the maximizer
rho_bar with sup c_bar attained at x_bar and eps = (1 - rho_bar)/2, the two
scanned inequalities

    e(center) <= 2^n eps^n c_bar        and
    sup over B_{eps r}(x_bar) of e <= 2^n c_bar

hold by construction on Euclidean domains: e(center) = f(0) <= f(rho_bar),
and B_{eps r}(x_bar) lies in B_{rho' r} with 1 - rho' = eps, where
eps^n sup e = f(rho') <= f(rho_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BoundParams
from .errors import DomainNotHalfBall, EmptyBall, MVLabError
from .grid import HALF_BALL, Domain, ScalarField, _segment_floor, _squared_gaps
from .report import record
from .verify import _bound_margin
from . import calculus

@dataclass(frozen=True)
class HeinzCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class HeinzReport:
    center: tuple[float, ...]
    r: float
    rho_bar: float
    c_bar: float
    x_bar: tuple[float, ...]
    eps: float
    checks: tuple[HeinzCheck, ...]

    def check(self, name: str) -> HeinzCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        out = record(self)
        for check, c in zip(out["checks"], self.checks):
            check["passed"] = c.passed
        return out


def _node_distances(dom: Domain, point: np.ndarray,
                    reach: float | None = None) -> tuple[slice | np.ndarray, np.ndarray]:
    """Positions in an in-mask vector and distances from ``point`` of the
    in-mask nodes, C order, or of those of ``Domain.window(point, reach)``
    when a Euclidean ``reach`` is given."""
    if reach is None:
        positions, points = slice(None), None
    else:
        blocks = list(dom._window_nodes(dom.window(point, reach)))
        positions = np.concatenate([block for block, _ in blocks])
        points = np.concatenate([block for _, block in blocks])
    if dom.metric is None and points is None:  # a coordinate column at a time
        dist = np.sqrt(_squared_gaps(map(dom._in_mask_column, range(dom.dimension)), point))
    else:
        dist = dom.distance(dom.in_mask_points() if points is None else points, point)
    return positions, dist


def _closed_ball(dist: np.ndarray, radius: float) -> np.ndarray:
    """The nodes at distance <= radius, widened by 1e-12 max(1, farthest distance)."""
    return dist <= radius + 1e-12 * np.max(dist, initial=1.0)


def _window_reach(dom: Domain, radius: float) -> float | None:
    """Euclidean radius that covers the ball of distance ``radius`` (plus one
    spacing, for the tolerance of ``_closed_ball``), by ``grid._segment_floor``
    at the larger of the declared and measured deviations; None (scan every
    node) when it is 0."""
    delta = max(dom.metric.declared_deviation, dom.measured_deviation) if dom.metric else 0.0
    shrink = _segment_floor(dom.dimension, delta)
    return radius / shrink + dom.spacing if shrink > 0.0 else None


def heinz_scan(e: ScalarField, center, r: float) -> HeinzReport:
    """Maximize f(rho) = (1-rho)^n sup_{B_{rho r}(center)} e exactly (smallest
    rho on ties) and evaluate the scan inequalities. The maximum is the
    pointwise one, of (1 - d/r)^n e over the in-mask nodes at distance d < r;
    c_bar is the sup over the closed ball of radius rho_bar r, and x_bar its
    first node in C order with that value."""
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise MVLabError(f"scan radius must be positive and finite, got {r}")
    dom = e.domain
    if not e.density:
        raise MVLabError("heinz scan needs a nonnegative density field")
    n = dom.dimension
    center = np.asarray(center, dtype=float)
    _, dist = _node_distances(dom, center)
    if not _closed_ball(dist, 0.0).any():
        raise EmptyBall("no in-mask node at the scan center")

    inside = dist < r
    rhos = dist[inside] / r
    f = (1.0 - rhos) ** n * e.values[inside]
    rho_bar = float(np.min(rhos[f == np.max(f)]))

    ball = _closed_ball(dist, rho_bar * r)
    c_bar = float(np.max(e.values[ball]))
    first = np.flatnonzero(ball & (e.values == c_bar))[0]
    x_bar = dom.node_point(np.unravel_index(dom._mask_nodes[first], dom.shape))
    eps = 0.5 * (1.0 - rho_bar)

    positions, dist = _node_distances(dom, x_bar, _window_reach(dom, eps * r))
    around = e.values[positions][_closed_ball(dist, eps * r)]
    checks = (
        HeinzCheck("center_bound", e.at(center), 2.0**n * eps**n * c_bar),
        HeinzCheck("neighborhood_bound", float(np.max(around)), 2.0**n * c_bar),
    )
    return HeinzReport(tuple(center), r, rho_bar, c_bar, tuple(x_bar), eps, checks)


@dataclass(frozen=True)
class ComparisonResult:
    """Comparison function v, the largest Delta v over its check ball and
    dv/dnu on the flat boundary (None: not checked; -inf: no usable node),
    and whether both stay within the verdict tolerance."""

    field: ScalarField
    max_laplacian: float
    max_normal_derivative: float | None
    passed: bool


def comparison_function_interior(e: ScalarField, x_bar, params: BoundParams,
                                 c_bar: float,
                                 check_radius: float | None = None) -> ComparisonResult:
    """v = e + (1/n) (A0 + 2^n c_bar (A1 + 4 a c_bar^(2/n))) |x - x_bar|^2
    with the Euclidean norm; reports max Delta v over the check ball (the
    Laplacian only, on half-balls too)."""
    dom = e.domain
    n = dom.dimension
    x_bar = np.asarray(x_bar, dtype=float)
    k = (params.A0 + 2.0**n * c_bar * (params.A1 + 4.0 * params.a * c_bar ** (2.0 / n))) / n
    squared = _squared_gaps(map(dom._in_mask_column, range(n)), x_bar)  # at the in-mask nodes
    v = ScalarField(dom, e.values + k * squared, density=False)
    ball = None if check_radius is None else _node_distances(dom, x_bar)[1] <= check_radius
    max_lap, _ = _bound_margin(v, BoundParams(n), False, ball)
    passed = calculus.judge([("laplacian", -max_lap)], calculus.verdict_tolerance(dom)) is None
    return ComparisonResult(v, max_lap, None, passed)


def comparison_function_boundary(e: ScalarField, y, a_bound: float,
                                 b_bound: float) -> ComparisonResult:
    """v = e + (1/2n) A |x - y|^2 + (B + A y0 / n) x0 for constant bounds
    Delta e <= A and de/dnu <= B; the x0 term is dropped when the ball stays
    inside the half space (r <= y0). Checks Delta v <= tol and, on the flat
    boundary, dv/dnu <= tol."""
    dom = e.domain
    if dom.kind != HALF_BALL:
        raise DomainNotHalfBall("boundary comparison function needs a half-ball")
    if a_bound < 0 or b_bound < 0:
        raise MVLabError("constant bounds must be nonnegative")
    n = dom.dimension
    y = np.asarray(y, dtype=float)
    y0 = float(y[0])
    squared = _squared_gaps(map(dom._in_mask_column, range(n)), y)  # at the in-mask nodes
    values = e.values + a_bound / (2.0 * n) * squared
    use_x0_term = dom.radius > y0
    if use_x0_term:
        values = values + (b_bound + a_bound * y0 / n) * dom._in_mask_column(0)
    v = ScalarField(dom, values, density=False)
    maxima = {"laplacian": _bound_margin(v, BoundParams(n), False)[0]}
    if dom.flat_node_count > 0:
        maxima["normal-derivative"] = _bound_margin(v, BoundParams(n), True)[0]
    passed = calculus.judge(((k, -m) for k, m in maxima.items()),
                            calculus.verdict_tolerance(dom)) is None
    return ComparisonResult(v, maxima["laplacian"], maxima.get("normal-derivative"), passed)
