"""Discrete differential and integral operators on masked grids.

Everything uses the positive-definite Laplacian convention Delta = d*d, so
Delta(|x|^2) = -2n and subharmonic means Delta e <= 0. Values at nodes whose
stencil exits the mask come back NaN (reported, never fatal).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainHasNoFlatBoundary,
    DomainNotHalfBall,
    MVLabError,
    RadiusBelowResolution,
    ShellExitsDomain,
    SubregionOutsideDomain,
)
from .grid import (
    FLAT_BOUNDARY,
    HALF_BALL,
    Domain,
    ScalarField,
    _pad,
    _shifted,
    cut_fractions,
)

_SPHERE_VOLUMES = {0: 2.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}


def vol_sphere(k: int) -> float:
    """Exact volume of the unit sphere S^k for k = 0..3."""
    return _SPHERE_VOLUMES[k]


def clipping_angle(y0: float, r: float) -> float:
    """Polar angle phi0 where the sphere of radius r about (y0, ...) meets the
    plane x0 = 0; pi when the sphere stays inside the half space."""
    if y0 >= r:
        return math.pi
    return math.acos(-y0 / r)


def t_integral_bound(n: int) -> float:
    """Closed upper bound for the clipping integral
    int_1^U t^-2 (1 - t^-2)^((n-3)/2) dt over U > 1: pi/2 at n=2, 1 above."""
    return 0.5 * math.pi if n == 2 else 1.0


def cap_constant(n: int) -> float:
    """Constant multiplying R^-n int e in the large-radius shell inequality."""
    return 2.0 ** (n + 1) * n * vol_sphere(n - 2) / vol_sphere(n - 1) * t_integral_bound(n)


def verdict_tolerance(domain: Domain) -> float:
    """The discretization tolerance every verdict is judged against: 10h."""
    return 10.0 * domain.spacing


# ---------------------------------------------------------------------------
# Laplacian


def laplacian(e: ScalarField) -> ScalarField:
    """Positive-definite Laplace(-Beltrami) operator of a field.

    Euclidean: -sum_i d^2 e/dx_i^2 by second-order central differences.
    Metric balls: -(1/sqrt(det g)) d_i (sqrt(det g) g^{ij} d_j e) with
    centered flux differences at cell faces. Nodes without a full stencil
    are NaN in the result.
    """
    dom = e.domain
    n = dom.dimension
    h = dom.spacing
    v = e.values
    if dom.metric is None:
        # (v[+1] - 2 v) + v[-1] per axis, worked in one buffer, so that three
        # box arrays are live, not five
        padded = _pad(v, np.nan)
        lap = np.zeros_like(v)
        term = np.empty_like(v)
        for ax in range(n):
            np.multiply(v, 2.0, out=term)
            np.subtract(_shifted(padded, {ax: 1}), term, out=term)
            term += _shifted(padded, {ax: -1})
            lap += term
        np.negative(lap, out=lap)
        lap /= h**2
    else:
        lap = _metric_laplacian(e)
    lap[~dom.in_mask] = np.nan
    return ScalarField(dom, lap, density=False)


def _metric_laplacian(e: ScalarField) -> np.ndarray:
    dom = e.domain
    h = dom.spacing
    v = e.values
    padded = _pad(v, np.nan)
    div = np.zeros_like(v)
    for ax, (sqrt_det_face, inv_rows) in enumerate(dom.face_metric):
        flux = np.zeros_like(v)
        for j, inv_row in enumerate(inv_rows):
            if j == ax:
                dj = (_shifted(padded, {ax: 1}) - v) / h
            else:
                cj_here = (_shifted(padded, {j: 1})
                           - _shifted(padded, {j: -1})) / (2.0 * h)
                cj_there = (_shifted(padded, {ax: 1, j: 1})
                            - _shifted(padded, {ax: 1, j: -1})) / (2.0 * h)
                dj = 0.5 * (cj_here + cj_there)
            flux += inv_row * dj
        flux *= sqrt_det_face
        div += (flux - _shifted(_pad(flux, np.nan), {ax: -1})) / h
    return -div / dom.sqrt_det_metric()


# ---------------------------------------------------------------------------
# outer normal derivative on the flat boundary


@dataclass(frozen=True)
class BoundaryValues:
    """Values attached to the flat-boundary nodes of a half-ball."""

    domain: Domain
    indices: np.ndarray  # (m, n) multi-indices
    points: np.ndarray   # (m, n) coordinates
    values: np.ndarray   # (m,), NaN where the one-sided stencil is incomplete

    def finite(self) -> np.ndarray:
        return np.isfinite(self.values)


def normal_derivative(e: ScalarField) -> BoundaryValues:
    """Outer normal derivative -de/dx0 at x0 = 0 by the one-sided
    second-order stencil (3 e0 - 4 e1 + e2) / (2h)."""
    dom = e.domain
    if dom.kind != HALF_BALL:
        raise DomainNotHalfBall("normal derivative needs a half-ball domain")
    row = dom.flat_plane_index
    if row is None or dom.flat_node_count == 0:
        raise DomainHasNoFlatBoundary("domain has no flat-boundary nodes")
    if dom.shape[0] <= row + 2:
        raise DomainHasNoFlatBoundary("grid box too shallow for the one-sided stencil")
    h = dom.spacing
    e0 = e.values[row]
    e1 = e.values[row + 1]
    e2 = e.values[row + 2]
    flat = dom.mask[row] == FLAT_BOUNDARY
    dn = np.where(flat, (3.0 * e0 - 4.0 * e1 + e2) / (2.0 * h), np.nan)

    idx_lat = np.argwhere(flat)
    indices = np.concatenate(
        [np.full((len(idx_lat), 1), row, dtype=int), idx_lat], axis=1)
    points = dom.origin + dom.spacing * indices
    return BoundaryValues(dom, indices, points, dn[flat])


# ---------------------------------------------------------------------------
# volume integration with clipped cells


def _window_points(dom: Domain, win: tuple[slice, ...]) -> np.ndarray:
    """Coordinates of the in-mask nodes of a ``Domain.window``, C-order, shape (m, n)."""
    return dom.masked_points(dom.in_mask[win], win)


def _ball_shares(points: np.ndarray, center: np.ndarray, radius: float, h: float,
                 flat: np.ndarray) -> np.ndarray:
    """Share of each node's cell (its half cell on the flat row, ``flat``)
    inside the ball B_radius(center), in as many dimensions as ``points`` has
    columns: 1 below radius - m, 0 beyond radius + m (m = sqrt(k) h / 2, half
    the cell diagonal), and between them the fraction under the sphere's
    tangent half space at the node (``cut_fractions``). The centre node has
    no normal and takes vol(B_radius) / h^k, which is 1 once radius >= m."""
    k = points.shape[1]
    margin = 0.5 * math.sqrt(k) * h
    d = np.linalg.norm(points - center, axis=-1)
    share = (d < radius - margin).astype(float)
    cut = np.flatnonzero((np.abs(d - radius) <= margin) & (d > 0.0))
    share[cut] = cut_fractions((points[cut] - center) / d[cut, None], (radius - d[cut]) / h,
                               flat[cut]) / np.where(flat[cut], 0.5, 1.0)
    share[d == 0.0] = min(1.0, vol_sphere(k - 1) / k * (radius / h) ** k)
    return share


def integrate(e: ScalarField,
              subregion: tuple[Sequence[float], float] | None = None) -> float:
    """Volume integral of e * sqrt(det g) over the domain (or its
    intersection with a Euclidean subregion ball): one dot product of the
    in-mask values with ``Domain.weights``. A subregion touches only the
    in-mask nodes of its ``Domain.window`` and multiplies each weight by the
    share of the node's cell inside its ball (``_ball_shares``).
    """
    dom = e.domain
    if subregion is None:
        sel = dom.in_mask.ravel()
        return float(np.dot(e.values.ravel()[sel], dom.weights.ravel()[sel]))
    h = dom.spacing
    sub_center = np.asarray(subregion[0], dtype=float)
    sub_radius = float(subregion[1])
    if sub_radius <= 0:
        raise MVLabError("subregion radius must be positive")
    center_gap = float(np.linalg.norm(sub_center - dom.center))
    if center_gap - sub_radius >= dom.radius:
        raise SubregionOutsideDomain(
            f"ball of radius {sub_radius} at {sub_center} misses the domain")
    win = dom.window(sub_center, sub_radius + 0.5 * math.sqrt(dom.dimension) * h)
    sel = dom.in_mask[win].ravel()
    pts = _window_points(dom, win)
    flat = (pts[:, 0] < 0.5 * h) & (dom.kind == HALF_BALL)
    share = _ball_shares(pts, sub_center, sub_radius, h, flat)
    keep = share > 0.0
    weights = dom.weights[win].ravel()[sel][keep] * share[keep]
    return float(np.dot(e.values[win].ravel()[sel][keep], weights))


# ---------------------------------------------------------------------------
# clipped spherical shells


@dataclass(frozen=True)
class ShellNodes:
    """Product quadrature on one (possibly clipped) shell.

    Weights absorb the r^{1-n} normalization: sum(w * e(points)) approximates
    the shell average M(r) = r^{1-n} int_{Gamma_r} e, and the weights of an
    unclipped shell sum to Vol S^{n-1}.
    """

    radius: float
    phi0: float
    clipped: bool
    points: np.ndarray
    weights: np.ndarray


def _sphere_directions(n: int, r: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Directions z on S^(n-2) and weights summing to Vol S^(n-2)."""
    if n == 2:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 3:
        count = max(8, int(math.ceil(2.0 * math.pi * r / h)))
        theta = 2.0 * math.pi * np.arange(count) / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return dirs, np.full(count, 2.0 * math.pi / count)
    # n == 4: Gauss-Legendre in the polar cosine times uniform azimuth on S^2
    n_pol = max(8, int(math.ceil(0.5 * math.pi * r / h)))
    n_az = max(8, int(math.ceil(math.pi * r / h)))
    u, wu = np.polynomial.legendre.leggauss(n_pol)
    psi = 2.0 * math.pi * np.arange(n_az) / n_az
    su = np.sqrt(1.0 - u**2)
    dirs = np.stack([
        np.outer(su, np.cos(psi)).ravel(),
        np.outer(su, np.sin(psi)).ravel(),
        np.outer(u, np.ones(n_az)).ravel(),
    ], axis=-1)
    weights = np.outer(wu, np.full(n_az, 2.0 * math.pi / n_az)).ravel()
    return dirs, weights


def shell_nodes(center: Sequence[float], r: float, n: int, h: float,
                y0: float | None) -> ShellNodes:
    """Build the quadrature for one shell about ``center``.

    ``y0`` is the center height above the flat boundary (None for ball
    domains). The polar quadrature uses ceil(pi r / h) panels with 4-point
    Gauss-Legendre each, and the panel partition ends exactly at phi0 so the
    clipped edge is never straddled.
    """
    center = np.asarray(center, dtype=float)
    phi0 = math.pi if y0 is None else clipping_angle(y0, r)
    clipped = phi0 < math.pi - 1e-15

    panels = max(4, int(math.ceil(math.pi * r / h)))
    edges = np.linspace(0.0, phi0, panels + 1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    phi = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wphi = (half[:, None] * gl_w[None, :]).ravel()

    zdirs, zw = _sphere_directions(n, r, h)

    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    npts = phi.size * zdirs.shape[0]
    pts = np.empty((npts, n))
    pts[:, 0] = center[0] + r * np.repeat(cos_phi, zdirs.shape[0])
    lateral = np.repeat(sin_phi, zdirs.shape[0])[:, None] * np.tile(zdirs, (phi.size, 1))
    pts[:, 1:] = center[1:] + r * lateral

    weights = (wphi * sin_phi ** (n - 2))[:, None] * zw[None, :]
    return ShellNodes(float(r), phi0, clipped, pts, weights.ravel())


def interpolate(e: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of field values; NaN where the surrounding
    cell leaves the grid box or touches out-of-mask nodes."""
    dom = e.domain
    n = dom.dimension
    rel = (np.asarray(points, dtype=float) - dom.origin) / dom.spacing
    base = np.floor(rel).astype(int)
    frac = rel - base
    shape = np.asarray(dom.shape)
    valid = np.all((base >= 0) & (base + 1 <= shape - 1), axis=-1)
    base_safe = np.clip(base, 0, shape - 2)
    flat_vals = e.values.ravel()
    out = np.zeros(points.shape[0])
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones(points.shape[0])
        for ax, bit in enumerate(corner):
            w *= frac[:, ax] if bit else 1.0 - frac[:, ax]
        idx = base_safe + np.asarray(corner)
        lin = np.ravel_multi_index(tuple(idx.T), dom.shape)
        out += w * flat_vals[lin]
    out[~valid] = np.nan
    return out


@dataclass(frozen=True)
class ShellSample:
    r: float
    m: float
    node_count: int
    clipped: bool


@dataclass(frozen=True)
class ShellProfile:
    center: tuple[float, ...]
    samples: tuple[ShellSample, ...]

    def radii(self) -> np.ndarray:
        return np.array([s.r for s in self.samples])

    def values(self) -> np.ndarray:
        return np.array([s.m for s in self.samples])


def shell_profile(e: ScalarField, center: Sequence[float],
                  radii: Sequence[float]) -> ShellProfile:
    """Shell averages M(r) = r^{1-n} int_{Gamma_r} e about ``center``.

    Field values at quadrature nodes come from multilinear interpolation; a
    shell whose interpolation cell leaves the mask raises ShellExitsDomain.
    """
    dom = e.domain
    h = dom.spacing
    center = np.asarray(center, dtype=float)
    radii = [float(r) for r in radii]
    for r in radii:
        if r < 4.0 * h:
            raise RadiusBelowResolution(f"shell radius {r} < 4h = {4 * h}")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise MVLabError("shell radii must be strictly increasing")
    y0 = float(center[0]) if dom.kind == HALF_BALL else None
    samples = []
    for r in radii:
        shell = shell_nodes(center, r, dom.dimension, h, y0)
        vals = interpolate(e, shell.points)
        if not np.all(np.isfinite(vals)):
            raise ShellExitsDomain(
                f"shell r={shell.radius} leaves the domain mask "
                f"({int(np.sum(~np.isfinite(vals)))} of {vals.size} nodes)")
        m = float(np.dot(shell.weights, vals))
        samples.append(ShellSample(shell.radius, m, vals.size, shell.clipped))
    return ShellProfile(tuple(center), tuple(samples))


# ---------------------------------------------------------------------------
# boundary fluxes (discrete Green identity support)


def flat_flux(e: ScalarField, center: Sequence[float], r: float) -> float:
    """int over Z_r (the flat disk of D_r(center)) of the outer normal
    derivative: each flat node's lateral cell weighted by its share of the
    disk (``_ball_shares`` in n - 1 dimensions)."""
    dom = e.domain
    center = np.asarray(center, dtype=float)
    y0 = float(center[0])
    if y0 >= r:
        return 0.0
    bv = normal_derivative(e)
    lat = bv.points[:, 1:]
    share = _ball_shares(lat, center[1:], math.sqrt(r**2 - y0**2), dom.spacing,
                         np.zeros(len(lat), dtype=bool))
    sel = (share > 0.0) & bv.finite()
    return float(np.dot(bv.values[sel], share[sel])) * dom.spacing ** (dom.dimension - 1)


# ---------------------------------------------------------------------------
# weak Neumann subharmonicity


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative smooth test function with exactly vanishing normal
    derivative on the flat boundary; Laplacian available in closed form.
    Both are exactly 0 at x0 >= 0 outside the ``support`` ball (centre, radius)."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]  # positive definite sign
    support: tuple[np.ndarray, float]


@dataclass(frozen=True)
class WeakTestSet:
    functions: tuple[TestFunction, ...]

    def __len__(self) -> int:
        return len(self.functions)


def _bump_profile(s: np.ndarray) -> np.ndarray:
    inside = s < 1.0
    return np.where(inside, (1.0 - s**2) ** 4, 0.0)


def _bump_lap_ordinary(s: np.ndarray, dim: int) -> np.ndarray:
    # ordinary nabla^2 of (1-s^2)^4 composed with s = |x - p| / R, before
    # the 1/R^2 factor; b'(s)/s = -8 (1-s^2)^3 has no singularity at 0
    inside = s < 1.0
    one = 1.0 - s**2
    bpp = -8.0 * one**3 + 48.0 * s**2 * one**2
    bp_over_s = -8.0 * one**3
    return np.where(inside, bpp + (dim - 1) * bp_over_s, 0.0)


def radial_bump(name: str, p: np.ndarray, radius: float, dim: int) -> TestFunction:
    p = np.asarray(p, dtype=float)

    def value(pts: np.ndarray) -> np.ndarray:
        s = np.linalg.norm(pts - p, axis=-1) / radius
        return _bump_profile(s)

    def lap(pts: np.ndarray) -> np.ndarray:
        s = np.linalg.norm(pts - p, axis=-1) / radius
        return -_bump_lap_ordinary(s, dim) / radius**2

    return TestFunction(name, value, lap, (p, float(radius)))


def _cos_profile(t: np.ndarray, span: float) -> np.ndarray:
    inside = t < span
    u = np.pi * np.minimum(t, span) / span
    return np.where(inside, (0.5 * (1.0 + np.cos(u))) ** 2, 0.0)


def _cos_profile_d2(t: np.ndarray, span: float) -> np.ndarray:
    inside = t < span
    u = np.pi * np.minimum(t, span) / span
    k = np.pi / span
    return np.where(inside,
                    -0.5 * k**2 * ((1.0 + np.cos(u)) * np.cos(u) - np.sin(u) ** 2),
                    0.0)


def cosine_bump(name: str, p_lat: np.ndarray, span: float, lat_radius: float,
                n: int) -> TestFunction:
    """cos^2-profile in x0 times a lateral bump; Neumann-exact at x0 = 0."""
    p_lat = np.asarray(p_lat, dtype=float)

    def value(pts: np.ndarray) -> np.ndarray:
        s = np.linalg.norm(pts[:, 1:] - p_lat, axis=-1) / lat_radius
        return _cos_profile(pts[:, 0], span) * _bump_profile(s)

    def lap(pts: np.ndarray) -> np.ndarray:
        s = np.linalg.norm(pts[:, 1:] - p_lat, axis=-1) / lat_radius
        c = _cos_profile(pts[:, 0], span)
        cdd = _cos_profile_d2(pts[:, 0], span)
        lat = _bump_lap_ordinary(s, n - 1) / lat_radius**2
        return -(cdd * _bump_profile(s) + c * lat)

    return TestFunction(name, value, lap, (np.concatenate([[0.0], p_lat]),
                                           math.hypot(span, lat_radius)))


def default_test_set(domain: Domain, count: int = 16) -> WeakTestSet:
    """Deterministic catalog: plane-centered bumps, interior bumps, and
    cosine-profile products, all supported inside B_{0.9 r}(y) so they vanish
    near the spherical cap.

    ``count`` is the minimum to place: whole scales of the catalog are added
    until it is reached, and every placed function is returned (15 per scale
    on a half-ball centred on the plane, so 30 at the default count)."""
    if domain.kind != HALF_BALL:
        raise DomainNotHalfBall("weak test sets live on half-ball domains")
    n = domain.dimension
    y = domain.center
    r = domain.radius
    y0 = float(y[0])
    funcs: list[TestFunction] = []

    def fits(p: np.ndarray, radius: float) -> bool:
        return float(np.linalg.norm(p - y)) + radius <= 0.9 * r

    unit = np.zeros(n - 1)
    unit[0] = 1.0

    for scale in (1.0, 0.75, 0.55):
        cap = 0.3 * r * scale
        for off in (0.0, 0.25, -0.25, 0.45, -0.45):
            p = np.concatenate([[0.0], y[1:] + off * r * unit])
            if fits(p, cap):
                funcs.append(radial_bump(
                    f"plane_bump(off={off:+.2f},R={cap:.3g})", p, cap, n))
        cap_i = 0.25 * r * scale
        for a in (0.35, 0.55):
            for off in (0.0, 0.2, -0.2):
                p = y.copy().astype(float)
                p[0] = y0 + a * r
                p[1:] += off * r * unit
                if p[0] - cap_i > 0 and fits(p, cap_i):
                    funcs.append(radial_bump(
                        f"interior_bump(a={a},off={off:+.2f},R={cap_i:.3g})",
                        p, cap_i, n))
        for span_f, off in ((0.5, 0.0), (0.7, 0.0), (0.5, 0.2), (0.5, -0.2)):
            span = span_f * r * scale
            lat_r = 0.3 * r * scale
            p_lat = y[1:] + off * r * unit
            reach = math.hypot(max(span - y0, y0), float(np.linalg.norm(p_lat - y[1:])) + lat_r)
            if reach <= 0.9 * r:
                funcs.append(cosine_bump(
                    f"cosine(span={span:.3g},off={off:+.2f})", p_lat, span, lat_r, n))
        if len(funcs) >= count:
            break
    if len(funcs) < count:
        raise MVLabError(f"could not place {count} test functions in this domain")
    return WeakTestSet(tuple(funcs))


@dataclass(frozen=True)
class WeakTestReport:
    values: tuple[tuple[str, float], ...]
    tol: float
    subharmonic: bool

    def worst(self) -> float:
        return max(v for _, v in self.values)


def weak_subharmonic_test(e: ScalarField,
                          tests: WeakTestSet | None = None) -> WeakTestReport:
    """Evaluate int e * Delta(psi) for every test function (Delta analytic,
    integral by the domain's quadrature weights, as in ``integrate``, at the
    in-mask nodes of the window of psi's support ball); subharmonic when all
    values stay below the verdict tolerance."""
    dom = e.domain
    if dom.kind != HALF_BALL:
        raise DomainNotHalfBall("weak subharmonicity test needs a half-ball")
    if tests is None:
        tests = default_test_set(dom)
    tol = verdict_tolerance(dom)
    values = []
    for fn in tests.functions:
        win = dom.window(*fn.support)
        sel = dom.in_mask[win].ravel()
        weighted = e.values[win].ravel()[sel] * dom.weights[win].ravel()[sel]
        lap = fn.laplacian(_window_points(dom, win))
        values.append((fn.name, float(np.dot(lap, weighted))))
    verdict = all(v <= tol for _, v in values)
    return WeakTestReport(tuple(values), tol, verdict)
