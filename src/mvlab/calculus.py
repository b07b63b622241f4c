"""Discrete differential and integral operators on masked grids.

Everything uses the positive-definite Laplacian convention Delta = d*d, so
Delta(|x|^2) = -2n and subharmonic means Delta e <= 0. Fields and operator
outputs are in-mask vectors (see ``grid``). The stencils read a field one
axis-0 slab of the box at a time, scattered with NaN off the mask, so values
at nodes whose stencil exits the mask come back NaN (reported, never fatal).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainHasNoFlatBoundary,
    DomainNotHalfBall,
    MVLabError,
    RadiusBelowResolution,
    ShellExitsDomain,
)
from .grid import (
    _CHUNK,
    FLAT_BOUNDARY,
    HALF_BALL,
    Domain,
    ScalarField,
    _GL4_W,
    _GL4_X,
    _squared_gaps,
    vol_sphere,
)

# Box nodes a stencil slab covers (at least one axis-0 row). Its band and
# vectors then stay a few hundred kB: at four times this, the n = 2, h = 1/256
# Laplacian page-faulted about 8 MB a call afresh on a 2-CPU Xeon (glibc),
# and took 7-10 ms against 3.1 ms.
_SLAB = _CHUNK >> 2
# Shell nodes ``shell_profile`` interpolates in one block of polar rows: its
# dozen block-sized temporaries then stay in a core's L2 cache. The 24-shell
# n = 3, h = 1/32 profile took 37-44 ms a call at this size on a 2-CPU Xeon,
# 59-63 ms at four times it.
_SHELL_BLOCK = _SLAB >> 2

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


def judge(margins: Iterable[tuple[str, float]], tol: float) -> str | None:
    """The one verdict rule: the first label whose margin (positive: by how
    much its check holds) is below -tol or NaN, else None. ``margins`` is
    read only up to that label."""
    for label, margin in margins:
        if not margin >= -tol:
            return label
    return None


# ---------------------------------------------------------------------------
# Laplacian


def laplacian(e: ScalarField) -> ScalarField:
    """Positive-definite Laplace(-Beltrami) operator of a field.

    Euclidean: -sum_i d^2 e/dx_i^2 by second-order central differences.
    Metric balls: -(1/sqrt(det g)) d_i (sqrt(det g) g^{ij} d_j e) with
    centered flux differences at cell faces. Both work at the in-mask nodes,
    one ``_Slab`` of axis-0 rows at a time; nodes without a full stencil in
    the mask are NaN.
    """
    dom = e.domain
    kernel = _euclidean_laplacian if dom.metric is None else _metric_laplacian
    out = np.empty(len(dom._mask_nodes))
    for slab in _stencil(dom, e.values):
        out[slab.part] = kernel(dom, e.values, slab)
    return ScalarField(dom, out, density=False)


class _Slab:
    """The axis-0 rows [a, b) of a domain's box, about ``_SLAB`` box nodes,
    for a stencil over an in-mask vector. ``part`` slices the vector at the
    slab's nodes, ``halo`` also at those of row a - 1 (the first ``lead``)."""

    def __init__(self, dom: Domain, values: np.ndarray, a: int, b: int):
        starts = dom._row_starts
        self.part = slice(starts[a], starts[b])
        self.halo = slice(starts[max(a - 1, 0)], starts[b])
        self.lead = self.part.start - self.halo.start
        self._faces = dom._lateral_faces
        self._strides = [math.prod(dom.shape[ax + 1:]) for ax in range(dom.dimension)]
        # positions of the halo's nodes in the scattered rows [a - 1, b + 1)
        self._local = dom._mask_nodes[self.halo] - (a - 1) * self._strides[0]
        self._band = dom._band(values, a - 1, b + 1).reshape(-1)

    def spread(self, vector: np.ndarray, halo: bool = False) -> np.ndarray:
        """A band like the field's holding ``vector`` at the slab's nodes (or
        the halo's, with ``halo``) and NaN elsewhere."""
        out = np.full(len(self._band), np.nan)
        out[self._local[0 if halo else self.lead:]] = vector
        return out

    def at(self, *steps: tuple[int, int], halo: bool = False,
           band: np.ndarray | None = None) -> np.ndarray:
        """The field (or ``band``, from ``spread``) at the slab's nodes (or
        the halo's, with ``halo``) moved by ``steps`` ((axis, +-1) pairs), C
        order, NaN off the mask and where a step leaves the box. A halo node
        takes no step down axis 0."""
        first = 0 if halo else self.lead
        offset = sum(step * self._strides[ax] for ax, step in steps)
        # a step off a lateral face lands on a neighbouring row of the band or
        # past its end ("clip"); both are set to NaN below
        out = np.take(self._band if band is None else band, self._local[first:] + offset,
                      mode="clip")
        lo, hi = self.halo.start + first, self.halo.stop
        for ax, step in steps:
            if ax:
                face = self._faces[ax, step]
                out[face[np.searchsorted(face, lo):np.searchsorted(face, hi)] - lo] = np.nan
        return out


def _stencil(dom: Domain, values: np.ndarray):
    """The ``_Slab``s of the box with in-mask nodes, in order, each about
    ``_SLAB`` box nodes (at least one row)."""
    rows = max(1, _SLAB // math.prod(dom.shape[1:]))
    starts = dom._row_starts
    for a in range(0, dom.shape[0], rows):
        b = min(a + rows, dom.shape[0])
        if starts[a] < starts[b]:
            yield _Slab(dom, values, a, b)


def _euclidean_laplacian(dom: Domain, values: np.ndarray, slab: _Slab) -> np.ndarray:
    """At the slab's nodes: (v[+1] - 2 v) + v[-1] per axis, summed from 0,
    the order the bitwise tests pin."""
    twice = 2.0 * values[slab.part]
    lap = np.zeros(len(twice))
    for ax in range(dom.dimension):
        lap += (slab.at((ax, 1)) - twice) + slab.at((ax, -1))
    return -lap / dom.spacing**2


def _metric_laplacian(dom: Domain, values: np.ndarray, slab: _Slab) -> np.ndarray:
    """At the slab's nodes, each in the box-wide form's order of operations.
    The fluxes through the faces x + h/2 e_0 are taken on the halo too, as
    the divergence at row a reads those of row a - 1."""
    h = dom.spacing
    # the central difference along axis j: on the halo for j > 0 (the axis-0
    # fluxes read them), on the slab for j = 0 (a halo node has no row below)
    central = [(slab.at((j, 1), halo=j > 0) - slab.at((j, -1), halo=j > 0)) / (2.0 * h)
               for j in range(dom.dimension)]
    div = np.zeros(slab.part.stop - slab.part.start)
    for ax, (sqrt_det_face, inv_rows) in enumerate(dom.face_metric):
        halo = ax == 0
        nodes = slab.halo if halo else slab.part
        skip = 0 if halo else slab.lead  # of a halo-long central difference
        v = values[nodes]
        flux = np.zeros(len(v))
        for j, inv_row in enumerate(inv_rows):
            if j == ax:
                dj = (slab.at((ax, 1), halo=halo) - v) / h
            else:
                cj_there = (slab.at((ax, 1), (j, 1), halo=halo)
                            - slab.at((ax, 1), (j, -1), halo=halo)) / (2.0 * h)
                dj = 0.5 * ((central[j] if j == 0 else central[j][skip:]) + cj_there)
            flux += inv_row[nodes] * dj
        flux *= sqrt_det_face[nodes]
        below = slab.at((ax, -1), band=slab.spread(flux, halo))
        div += (flux[slab.lead if halo else 0:] - below) / h
    return -div / dom._sqrt_det[slab.part]


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
    e0, e1, e2 = dom._band(e.values, row, row + 3)
    flat = dom.mask[row] == FLAT_BOUNDARY
    dn = np.where(flat, (3.0 * e0 - 4.0 * e1 + e2) / (2.0 * h), np.nan)

    idx_lat = np.argwhere(flat)
    indices = np.concatenate(
        [np.full((len(idx_lat), 1), row, dtype=int), idx_lat], axis=1)
    points = dom.origin + dom.spacing * indices
    return BoundaryValues(dom, indices, points, dn[flat])


# ---------------------------------------------------------------------------
# volume integration with clipped cells


def integrate(e: ScalarField,
              subregion: tuple[Sequence[float], float] | None = None) -> float:
    """Volume integral of e * sqrt(det g) over the domain (or its
    intersection with a Euclidean subregion ball): one dot product of the
    field's in-mask vector with ``Domain.weights``, or with the subregion's
    ``Domain.ball_weights``."""
    dom = e.domain
    if subregion is None:
        return float(np.dot(e.values, dom.weights))
    positions, weights = dom.ball_weights(*subregion)
    return float(np.dot(e.values[positions], weights))


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
    phi0, clipped, phi, wphi = _polar_rule(r, h, y0)
    zdirs, zw = _sphere_directions(n, r, h)

    sin_phi = np.sin(phi)
    pts = np.empty((phi.size, zdirs.shape[0], n))
    pts[:, :, 0] = center[0] + r * np.cos(phi)[:, None]
    pts[:, :, 1:] = center[1:] + r * (sin_phi[:, None, None] * zdirs)

    weights = (wphi * sin_phi ** (n - 2))[:, None] * zw[None, :]
    return ShellNodes(float(r), phi0, clipped, pts.reshape(-1, n), weights.ravel())


def _polar_rule(r: float, h: float, y0: float | None):
    """A shell's clipping angle phi0, whether it clips the shell, and its
    polar nodes in [0, phi0] with their weights (``shell_nodes``)."""
    phi0 = math.pi if y0 is None else clipping_angle(y0, r)
    panels = max(4, int(math.ceil(math.pi * r / h)))
    edges = np.linspace(0.0, phi0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    phi = (mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel()
    wphi = (half[:, None] * _GL4_W[None, :]).ravel()
    return phi0, phi0 < math.pi - 1e-15, phi, wphi


def interpolate(e: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of field values at ``points`` of shape
    (m, n); NaN where the surrounding cell leaves the grid box or touches
    out-of-mask nodes."""
    n = e.domain.dimension
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n:
        raise MVLabError(f"interpolation points must have shape (m, {n}), "
                         f"got {points.shape}")
    return _interpolate_columns(e.domain, e.box(), list(points.T))


def _interpolate_columns(dom: Domain, box: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """``interpolate`` from the field's ``ScalarField.box()`` at the points
    whose coordinate along axis k is ``columns[k]``, the columns broadcast
    against each other to the shape of the result; each point is worked
    elementwise, so its value does not depend on the shape.

    The base cell of each point is one linear index into the raveled box,
    and its 2^n corners lie a fixed stride away; each corner's weight is the
    axis-order product of 1 - f_k or f_k, built from prefix products shared
    by the corners that agree on the leading axes."""
    n = dom.dimension
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    strides = [math.prod(dom.shape[k + 1:]) for k in range(n)]
    lin = np.zeros(shape, dtype=np.intp)
    valid = np.ones(shape, dtype=bool)
    factors = []  # per axis: (1 - f_k, f_k)
    for k, column in enumerate(columns):
        rel = (column - dom.origin[k]) / dom.spacing
        base = np.floor(rel)
        frac = rel - base
        index = base.astype(np.intp)
        clipped = np.clip(index, 0, dom.shape[k] - 2)
        valid &= clipped == index
        clipped *= strides[k]
        lin += clipped
        factors.append((1.0 - frac, frac))
    flat_vals = box.reshape(-1)
    out = np.zeros(shape)
    term = np.empty(shape)
    at = np.empty(shape, dtype=np.intp)
    prefix = [None] * n  # prefix[k]: the weight over axes 0..k
    previous = (None,) * n
    for corner in itertools.product((0, 1), repeat=n):
        first = next(k for k in range(n) if corner[k] != previous[k])
        previous = corner
        for k in range(first, n):
            factor = factors[k][corner[k]]
            prefix[k] = factor if k == 0 else prefix[k - 1] * factor
        np.add(lin, sum(bit * stride for bit, stride in zip(corner, strides)), out=at)
        # every index is in range by construction; "clip" spares take the
        # output copy it makes under mode="raise"
        np.take(flat_vals, at, out=term, mode="clip")
        term *= prefix[-1]
        out += term
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
        if not math.isfinite(r):
            raise MVLabError(f"shell radius {r} is not finite")
        if r < 4.0 * h:
            raise RadiusBelowResolution(f"shell radius {r} < 4h = {4 * h}")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise MVLabError("shell radii must be strictly increasing")
    y0 = float(center[0]) if dom.kind == HALF_BALL else None
    n = dom.dimension
    box = e.box()  # scattered once for every shell
    samples = []
    for r in radii:
        # shell_nodes' polar x direction product, interpolated per axis a block
        # of polar rows at a time (axis 0 on the polar angles alone), with no
        # (m, n) point array: bitwise shell_nodes + interpolate
        _, clipped, phi, wphi = _polar_rule(r, h, y0)
        zdirs, zw = _sphere_directions(n, r, h)
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        vals = np.empty((len(phi), len(zw)))
        step = max(1, _SHELL_BLOCK // len(zw))
        for a in range(0, len(phi), step):
            rows = slice(a, a + step)
            columns = [center[0] + r * cos_phi[rows, None]] + [
                center[k] + r * (sin_phi[rows, None] * zdirs[:, k - 1]) for k in range(1, n)]
            vals[rows] = _interpolate_columns(dom, box, columns)
        exits = np.count_nonzero(~np.isfinite(vals))
        if exits:
            raise ShellExitsDomain(f"shell r={r} leaves the domain mask "
                                   f"({exits} of {vals.size} nodes)")
        weights = (wphi * sin_phi ** (n - 2))[:, None] * zw[None, :]
        m = float(np.dot(weights.ravel(), vals.ravel()))
        samples.append(ShellSample(r, m, vals.size, clipped))
    return ShellProfile(tuple(center), tuple(samples))


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
    # the 1/R^2 factor, at s < 1 (it is 0 beyond); b'(s)/s = -8 (1-s^2)^3
    # has no singularity at 0
    one = 1.0 - s**2
    bpp = -8.0 * one**3 + 48.0 * s**2 * one**2
    bp_over_s = -8.0 * one**3
    return bpp + (dim - 1) * bp_over_s


def radial_bump(name: str, p: np.ndarray, radius: float, dim: int) -> TestFunction:
    p = np.asarray(p, dtype=float)

    def value(pts: np.ndarray) -> np.ndarray:
        return _bump_profile(np.sqrt(_squared_gaps(pts.T, p)) / radius)

    def lap(pts: np.ndarray) -> np.ndarray:
        # the closed form only where it is nonzero, s < 1
        s = np.sqrt(_squared_gaps(pts.T, p)) / radius
        inside = s < 1.0
        ordinary = np.zeros(len(s))
        ordinary[inside] = _bump_lap_ordinary(s[inside], dim)
        return -ordinary / radius**2

    return TestFunction(name, value, lap, (p, float(radius)))


def _cos_profile(t: np.ndarray, span: float) -> np.ndarray:
    inside = t < span
    u = np.pi * np.minimum(t, span) / span
    return np.where(inside, (0.5 * (1.0 + np.cos(u))) ** 2, 0.0)


def _cos_profile_d2(t: np.ndarray, span: float) -> np.ndarray:
    # second derivative of the profile at t < span (it is 0 beyond)
    u = np.pi * t / span
    k = np.pi / span
    return -0.5 * k**2 * ((1.0 + np.cos(u)) * np.cos(u) - np.sin(u) ** 2)


def cosine_bump(name: str, p_lat: np.ndarray, span: float, lat_radius: float,
                n: int) -> TestFunction:
    """cos^2-profile in x0 times a lateral bump; Neumann-exact at x0 = 0."""
    p_lat = np.asarray(p_lat, dtype=float)

    def value(pts: np.ndarray) -> np.ndarray:
        s = np.sqrt(_squared_gaps(pts.T[1:], p_lat)) / lat_radius
        return _cos_profile(pts[:, 0], span) * _bump_profile(s)

    def lap(pts: np.ndarray) -> np.ndarray:
        # the closed form only where both factors are nonzero: s < 1 and
        # x0 < span (the profile does not vanish at x0 < 0)
        s = np.sqrt(_squared_gaps(pts.T[1:], p_lat)) / lat_radius
        inside = (s < 1.0) & (pts[:, 0] < span)
        s = s[inside]
        t = pts[inside, 0]
        lat = _bump_lap_ordinary(s, n - 1) / lat_radius**2
        product = np.zeros(len(pts))
        product[inside] = (_cos_profile_d2(t, span) * _bump_profile(s)
                           + _cos_profile(t, span) * lat)
        return -product

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
    weighted_all = e.values * dom.weights
    values = []
    for fn in tests.functions:
        laps, weighted = [], []
        for positions, points in dom._window_nodes(dom.window(*fn.support)):
            weighted.append(weighted_all[positions])
            laps.append(fn.laplacian(points))
        values.append((fn.name, float(np.dot(np.concatenate(laps), np.concatenate(weighted)))))
    verdict = judge(((name, -v) for name, v in values), tol) is None
    return WeakTestReport(tuple(values), tol, verdict)
