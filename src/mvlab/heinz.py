"""Heinz-trick scanner and the comparison functions used by the mean value
inequality proofs, as checkable numerical objects.

The scan maximizes f(rho) = (1 - rho)^n sup_{B_{rho r}} e over a rho grid.
At the maximizer rho_bar with sup c_bar attained at x_bar and
eps = (1 - rho_bar)/2, the two scanned inequalities

    e(center) <= 2^n eps^n c_bar        and
    sup over B_{eps r}(x_bar) of e <= 2^n c_bar

hold exactly in grid arithmetic whenever the discrete argmax dominates the
sampled profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BoundParams
from .errors import DomainNotHalfBall, EmptyBall, MVLabError
from .grid import HALF_BALL, Domain, ScalarField
from . import calculus

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    f_values: np.ndarray          # (m, 2) columns rho, f(rho)
    checks: tuple[HeinzCheck, ...]
    refined: bool

    def check(self, name: str) -> HeinzCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "center": list(self.center),
            "r": self.r,
            "rho_bar": self.rho_bar,
            "c_bar": self.c_bar,
            "x_bar": list(self.x_bar),
            "eps": self.eps,
            "refined": self.refined,
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
                for c in self.checks
            ],
        }


class _PrefixSup:
    """Running sup of field values by distance from the scan center, over the
    in-mask nodes, or over those of ``Domain.window(center, reach)`` when a
    Euclidean ``reach`` is given."""

    def __init__(self, e: ScalarField, center: np.ndarray, reach: float | None = None):
        dom = e.domain
        if reach is None:
            nodes = np.flatnonzero(dom.in_mask)
        else:
            win = dom.window(center, reach)
            local = np.nonzero(dom.in_mask[win])
            nodes = np.ravel_multi_index(tuple(k + s.start for k, s in zip(local, win)),
                                         dom.shape)
        vals = e.values.ravel()[nodes]
        dist = (dom.center_distances().ravel()[nodes] if np.array_equal(center, dom.center)
                else dom.distance(dom.points()[nodes], center))
        order = np.argsort(dist, kind="stable")
        self.dist_sorted = dist[order]
        self.vals_sorted = vals[order]
        self.running_max = np.maximum.accumulate(self.vals_sorted)
        self.flat_index = nodes[order]
        self.tol = 1e-12 * max(1.0, float(self.dist_sorted[-1]))

    def sup(self, radius: float) -> float:
        """Sup over grid nodes at distance <= radius (closed ball); -inf when
        no node qualifies."""
        k = int(np.searchsorted(self.dist_sorted, radius + self.tol, side="right"))
        if k == 0:
            return -math.inf
        return float(self.running_max[k - 1])

    def argmax_node(self, radius: float, domain: Domain) -> tuple[int, ...]:
        k = int(np.searchsorted(self.dist_sorted, radius + self.tol, side="right"))
        best = self.running_max[k - 1]
        hits = self.flat_index[:k][self.vals_sorted[:k] == best]
        multis = [np.unravel_index(int(i), domain.shape) for i in hits]
        return min(multis)  # lexicographically smallest on value ties


def _window_reach(dom: Domain, radius: float) -> float | None:
    """Euclidean radius that covers the ball of distance ``radius`` (plus one
    spacing, for ``_PrefixSup.tol``): the segment distance is L (1 + corr/2)
    with |corr| <= |g - I|_2 <= n delta, delta the larger of the declared and
    measured deviations. None (scan every node) when n delta / 2 >= 1."""
    shrink = 1.0
    if dom.metric is not None and not dom.metric.trivial:
        delta = max(dom.metric.declared_deviation, dom.measured_deviation)
        shrink -= 0.5 * dom.dimension * delta
    return radius / shrink + dom.spacing if shrink > 0.0 else None


def heinz_scan(e: ScalarField, center, r: float,
               rho_resolution: int = 256) -> HeinzReport:
    """Sample f(rho) = (1-rho)^n sup_{B_{rho r}(center)} e on a uniform rho
    grid, locate the maximizer (smallest index on ties, one golden-section
    refinement inside the bracketing interval), and evaluate the scan
    inequalities."""
    if rho_resolution < 64:
        raise MVLabError("rho_resolution must be at least 64")
    dom = e.domain
    if not e.density:
        raise MVLabError("heinz scan needs a nonnegative density field")
    n = dom.dimension
    center = np.asarray(center, dtype=float)
    prefix = _PrefixSup(e, center)
    if prefix.sup(0.0) == -math.inf:
        raise EmptyBall("no in-mask node at the scan center")

    rhos = np.arange(rho_resolution) / rho_resolution
    sups = np.array([prefix.sup(rho * r) for rho in rhos])
    f = (1.0 - rhos) ** n * sups
    k_bar = int(np.argmax(f))
    rho_bar = float(rhos[k_bar])
    f_bar = float(f[k_bar])

    # one golden-section refinement inside the bracketing interval
    refined = False
    lo = rhos[k_bar - 1] if k_bar > 0 else 0.0
    hi = rhos[k_bar + 1] if k_bar + 1 < rho_resolution else (rho_resolution - 1) / rho_resolution

    def f_at(rho: float) -> float:
        return (1.0 - rho) ** n * prefix.sup(rho * r)

    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f_at(x1), f_at(x2)
    for _ in range(24):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f_at(x2)
    rho_ref = x1 if f1 >= f2 else x2
    if f_at(rho_ref) > f_bar:
        rho_bar = float(rho_ref)
        f_bar = f_at(rho_ref)
        refined = True

    c_bar = prefix.sup(rho_bar * r)
    x_bar_idx = prefix.argmax_node(rho_bar * r, dom)
    x_bar = dom.node_point(x_bar_idx)
    eps = 0.5 * (1.0 - rho_bar)

    e_center = e.at(center)
    scale = 2.0**n * eps**n
    around = _PrefixSup(e, x_bar, _window_reach(dom, eps * r))
    sup_eps_ball = around.sup(eps * r)
    checks = (
        HeinzCheck("center_bound", e_center, scale * c_bar),
        HeinzCheck("neighborhood_bound", sup_eps_ball, 2.0**n * c_bar),
    )
    return HeinzReport(tuple(center), float(r), rho_bar, float(c_bar),
                       tuple(x_bar), eps, np.stack([rhos, f], axis=-1),
                       checks, refined)


@dataclass(frozen=True)
class ComparisonResult:
    """Comparison function v plus its discrete hypothesis checks."""

    field: ScalarField
    max_laplacian: float
    max_normal_derivative: float | None
    tol: float

    @property
    def passed(self) -> bool:
        ok = self.max_laplacian <= self.tol
        if self.max_normal_derivative is not None:
            ok = ok and self.max_normal_derivative <= self.tol
        return ok


def _check_region(v: ScalarField, center: np.ndarray | None, radius: float | None,
                  tol: float, check_boundary: bool) -> ComparisonResult:
    dom = v.domain
    lap = calculus.laplacian(v).values
    if center is not None and radius is not None:
        dist = dom.distance(dom.points(), np.asarray(center, dtype=float))
        lap = np.where(dist.reshape(dom.shape) <= radius, lap, np.nan)
    finite = np.isfinite(lap)
    max_lap = float(np.max(lap[finite])) if np.any(finite) else -math.inf
    max_nd = None
    if check_boundary:
        bv = calculus.normal_derivative(v)
        vals = bv.values[bv.finite()]
        max_nd = float(np.max(vals)) if vals.size else -math.inf
    return ComparisonResult(v, max_lap, max_nd, tol)


def comparison_function_interior(e: ScalarField, x_bar, params: BoundParams,
                                 c_bar: float, check_radius: float | None = None,
                                 tol_k: float = 10.0) -> ComparisonResult:
    """v = e + (1/n) (A0 + 2^n c_bar (A1 + 4 a c_bar^(2/n))) |x - x_bar|^2
    with the Euclidean norm; reports max Delta v over the check ball."""
    dom = e.domain
    n = dom.dimension
    x_bar = np.asarray(x_bar, dtype=float)
    k = (params.A0 + 2.0**n * c_bar * (params.A1 + 4.0 * params.a * c_bar ** (2.0 / n))) / n
    sq = np.sum((dom.points() - x_bar) ** 2, axis=-1).reshape(dom.shape)
    values = np.where(dom.in_mask, e.values + k * sq, np.nan)
    v = ScalarField(dom, values, density=False)
    return _check_region(v, x_bar, check_radius, tol_k * dom.spacing,
                         check_boundary=False)


def comparison_function_boundary(e: ScalarField, y, a_bound: float, b_bound: float,
                                 tol_k: float = 10.0) -> ComparisonResult:
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
    pts = dom.points()
    sq = np.sum((pts - y) ** 2, axis=-1).reshape(dom.shape)
    values = e.values + a_bound / (2.0 * n) * sq
    use_x0_term = dom.radius > y0
    if use_x0_term:
        x0 = pts[:, 0].reshape(dom.shape)
        values = values + (b_bound + a_bound * y0 / n) * x0
    values = np.where(dom.in_mask, values, np.nan)
    v = ScalarField(dom, values, density=False)
    has_flat = dom.flat_node_count > 0
    return _check_region(v, None, None, tol_k * dom.spacing, check_boundary=has_flat)
