"""Masked uniform Cartesian grids over balls and clipped half-balls.

A domain is a vertex-centered grid covering a geodesic ball B_r(center) or a
half-ball D_r(y) = B_r(y) n {x0 >= 0}. Nodes are classified interior / flat
boundary / cap boundary / outside. The center is always a grid node, and for
half-balls the plane x0 = 0 is a grid plane, so boundary stencils never need
interpolation.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CenterBelowBoundary,
    CenterOffGrid,
    GridTooLarge,
    MetricNotPositiveDefinite,
    MVLabError,
    ResolutionTooCoarse,
)

BALL = "ball"
HALF_BALL = "half_ball"

# node classification codes (stored in the int8 mask array)
OUTSIDE = 0
INTERIOR = 1
FLAT_BOUNDARY = 2
CAP_BOUNDARY = 3

SUPPORTED_DIMENSIONS = (2, 3, 4)

# 8-point Gauss-Legendre rule on [0, 1], used for first-order geodesic
# length corrections along straight segments
_GL_T, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_T = 0.5 * (_GL_T + 1.0)
_GL_W = 0.5 * _GL_W
# the weights summed in order, as ``segment_distance`` sums w_k g_k: where
# g = I along a whole segment the two agree exactly and its correction is 0
_GL_W_SUM = np.cumsum(_GL_W)[-1]

_CHUNK = 1 << 17

_MAX_POINTS_BYTES = 1 << 31  # largest ``Domain.points()``; a larger box raises GridTooLarge

# One block of a per-node metric pass holds this many bytes of (n, n) float64
# matrices, so that it and its kernel's temporaries stay in a core's L2 cache:
# on a 2-CPU Xeon (4 MiB L2 a core) 512 KiB to 1 MiB ran fastest, 64 KiB 3x slower.
_BLOCK_BYTES = 1 << 19
# Threads that share those passes: every CPU this process may use, the calling
# thread and a pool of the rest, started on first use in each process.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = (None, None)  # (pid, pool): a forked child has none of its parent's threads


def _map_blocks(count: int, n: int, kernel: Callable[[slice], object]) -> list:
    """``kernel`` of consecutive slices of range(count), each of
    ``_BLOCK_BYTES`` of (n, n) float64 rows, run on the calling thread and on
    ``_WORKERS - 1`` pool threads; the results in block order. A kernel writes
    only its own rows of an output its caller allocated, and calls no public
    mvlab function: those run on the calling thread only, where the benchmark
    tracer keeps its span stack. An error is raised once every block has run:
    the first block's, as a loop over the blocks would raise it."""
    global _POOL
    size = max(1, _BLOCK_BYTES // (8 * n * n))
    blocks = [slice(start, min(start + size, count)) for start in range(0, count, size)]
    results = [None] * len(blocks)
    errors = {}
    claim = itertools.count()  # next() on it hands each block out once, under the GIL

    def drain():
        while (i := next(claim)) < len(blocks):
            try:
                results[i] = kernel(blocks[i])
            except Exception as exc:  # raised below, in block order
                errors[i] = exc

    helpers = min(_WORKERS, len(blocks)) - 1
    if helpers > 0 and _POOL[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _POOL = (os.getpid(), ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="mvlab-blocks"))
    futures = [_POOL[1].submit(drain) for _ in range(helpers)]
    drain()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# the 2^m vertices of [0, 1]^m and their signs (-1)^|v|, m = 0..3
_VERTICES = {m: np.array(list(itertools.product((0.0, 1.0), repeat=m))).reshape(2**m, m)
             for m in range(max(SUPPORTED_DIMENSIONS))}
_VERTEX_SIGNS = {m: (-1.0) ** v.sum(axis=1) for m, v in _VERTICES.items()}

# A component of a below this share of the largest one is dropped: its
# coordinate is taken at the cube's centre, u_i = 1/2. It balances the two
# errors of ``cube_fraction`` at n = 4: dropping (at most _DROP / 4 a
# component) and rounding (about 1e-16 / _DROP^2 with two small ones kept).
_DROP = 1e-5


def cube_fraction(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vol{u in [0, 1]^n : a . u <= t} for each row of ``a`` (k, n) and entry
    of ``t`` (k,), in closed form (Barrow & Smith, Amer. Math. Monthly 86,
    1979; Marichal & Mossinghoff 2008): with the components flipped to
    a_i >= 0 and m of them kept,
    sum over the cube's vertices v of (-1)^|v| (t - a . v)_+^m / (m! prod a_i).

    The vertex pairs that differ in the smallest kept component a_m are
    summed as (x_+^m - (x - a_m)_+^m) / a_m = sum_j x^j (x - a_m)^(m-1-j)
    (or x^m / a_m once x - a_m <= 0), so a_m divides no rounding error; the
    other kept components leave about 200 u / (m! prod_{i<m} a_i / max|a|^(m-1))
    of it (u = 2^-53): below 1e-13 at n = 2, 1e-9 at n = 3 and 1e-5 at n = 4.
    A component below ``_DROP`` times the largest is dropped; that moves the
    fraction by at most |a_i| / (4 max |a|), because the fraction is the
    mean over u_i of a function of t - a_i u_i with slope at most 1 / max |a|.
    """
    a = np.asarray(a, dtype=float)
    t = np.array(t, dtype=float)
    mag = np.abs(a)
    drop = mag < _DROP * mag.max(axis=1, keepdims=True)
    if drop.any():
        t -= 0.5 * np.sum(a, axis=1, where=drop)
        a = np.where(drop, 0.0, a)
        mag[drop] = 0.0
    t -= np.sum(np.minimum(a, 0.0), axis=1)  # u_i -> 1 - u_i where a_i < 0
    out = (t >= mag.sum(axis=1)).astype(float)  # the cube lies on one side
    live = np.flatnonzero((t > 0.0) & (out == 0.0))
    mag = np.sort(mag[live], axis=1)[:, ::-1]  # the kept components first, descending
    t = t[live]
    kept = np.count_nonzero(mag, axis=1)
    for m in np.unique(kept):
        rows = kept == m
        am = mag[rows, :m]
        x = np.repeat(t[rows, None], 2 ** (m - 1), axis=1)
        for i, corner in enumerate(_VERTICES[m - 1].T):
            x -= am[:, i, None] * corner  # elementwise, so each row is computed alike
        y = x - am[:, -1:]
        paired = np.ones_like(x)  # sum_j x^j y^(m-1-j), by Horner's rule in x
        power = np.ones_like(x)
        for _ in range(m - 1):
            power *= y
            paired = paired * x + power
        below = y <= 0.0
        x = np.maximum(x[below], 0.0)
        paired[below] = x ** m / np.broadcast_to(am[:, -1:], below.shape)[below]
        out[live[rows]] = (paired * _VERTEX_SIGNS[m - 1]).sum(axis=1) / (
            math.factorial(m) * np.prod(am[:, :-1], axis=1))
    return np.clip(out, 0.0, 1.0)


def cut_fractions(normal: np.ndarray, offset: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Fraction of the cube of side h about each node that lies in the half
    space normal . w <= offset, w the offset from the node in units of h. A
    node on the flat plane (``flat``) keeps the box [0, 1/2] x [-1/2, 1/2]^(n-1)
    of its cell, so its fraction is at most 1/2. The lab's only cell rule:
    every sphere that cuts a cell (the domain's, a subregion's, and the rim of
    the flat disk in ``calculus.flat_flux``) is replaced by its tangent half
    space at the node."""
    lower = np.full(normal.shape, -0.5)
    side = np.ones(normal.shape)
    lower[flat, 0] = 0.0
    side[flat, 0] = 0.5
    return np.prod(side, axis=1) * cube_fraction(normal * side,
                                                 offset - np.sum(normal * lower, axis=1))


class CutCells(NamedTuple):
    """The cells of the nodes within ``Domain.cut_margin`` of a domain's
    sphere, in or out of the mask: raveled node indices, the in-region
    fraction of each cell, and the in-mask node that carries its weight
    (itself when in the mask; -1 when no neighbour is)."""
    nodes: np.ndarray
    fractions: np.ndarray
    receivers: np.ndarray


@dataclass(frozen=True)
class MetricSpec:
    """A smooth metric g(x) on R^n given as a vectorized matrix field.

    ``matrix`` maps an array of points with shape (..., n) to symmetric
    positive-definite matrices with shape (..., n, n). The per-node passes
    call it from several threads at once, one block of points each, so it
    must be a pure function of its points. ``declared_deviation``
    is the intended bound on the W^{1,inf} distance to the identity; the
    measured value (``metric_deviation``) is checked against it.
    """

    dimension: int
    matrix: Callable[[np.ndarray], np.ndarray]
    declared_deviation: float = 0.0
    name: str = "custom"
    trivial: bool = False  # make_ball_domain builds no metric for it
    config: dict | None = field(default=None, compare=False)  # round-trip recipe

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.matrix(np.asarray(points, dtype=float))


def identity_metric(n: int) -> MetricSpec:
    def matrix(points: np.ndarray) -> np.ndarray:
        eye = np.eye(n)
        return np.broadcast_to(eye, points.shape[:-1] + (n, n)).copy()

    return MetricSpec(n, matrix, declared_deviation=0.0, name="identity",
                      trivial=True, config={"preset": "identity"})


def conformal_metric(n: int, coefficient: float, axis: int = 1,
                     declared_deviation: float | None = None) -> MetricSpec:
    """g(x) = (1 + coefficient * x_axis) * identity."""

    def matrix(points: np.ndarray) -> np.ndarray:
        factor = 1.0 + coefficient * points[..., axis]
        return factor[..., None, None] * np.eye(n)

    name = f"conformal(c={coefficient!r}, axis={axis})"
    if declared_deviation is None:
        declared_deviation = abs(coefficient) * 4.0  # generous default bound
    return MetricSpec(n, matrix, declared_deviation, name=name,
                      config={"preset": "conformal", "coefficient": coefficient,
                              "axis": axis, "declared_deviation": declared_deviation})


def polynomial_metric(n: int, terms: Sequence[tuple[int, int, float, Sequence[int]]],
                      declared_deviation: float, name: str = "polynomial") -> MetricSpec:
    """g = identity + symmetric polynomial perturbations.

    Each term is (i, j, coef, powers): adds coef * prod_k x_k**powers[k] to
    entries (i, j) and (j, i).
    """
    terms = [(int(i), int(j), float(c), tuple(int(p) for p in pw)) for i, j, c, pw in terms]
    for i, j, _, pw in terms:
        if not (0 <= i < n and 0 <= j < n) or len(pw) != n:
            raise MVLabError(f"bad metric term ({i},{j},powers={pw}) for dimension {n}")

    def matrix(points: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
        for i, j, coef, powers in terms:
            mono = np.ones(points.shape[:-1])
            for k, p in enumerate(powers):
                if p:
                    mono = mono * points[..., k] ** p
            out[..., i, j] += coef * mono
            if i != j:
                out[..., j, i] += coef * mono
        return out

    return MetricSpec(n, matrix, declared_deviation, name=name,
                      config={"preset": "polynomial",
                              "terms": [[i, j, c, list(p)] for i, j, c, p in terms],
                              "declared_deviation": declared_deviation})


def sine_metric(n: int, coefficient: float, entry: tuple[int, int] = (0, 0),
                axis: int = 1, declared_deviation: float | None = None) -> MetricSpec:
    """g = identity + coefficient * sin(x_axis) on one diagonal entry."""
    i, j = entry

    def matrix(points: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
        pert = coefficient * np.sin(points[..., axis])
        out[..., i, j] += pert
        if i != j:
            out[..., j, i] += pert
        return out

    if declared_deviation is None:
        declared_deviation = abs(coefficient)
    return MetricSpec(n, matrix, declared_deviation, name=f"sine(c={coefficient!r})",
                      config={"preset": "sine", "coefficient": coefficient,
                              "entry": [i, j], "axis": axis,
                              "declared_deviation": declared_deviation})


def _ldl(g: np.ndarray, inverse: bool = False):
    """Closed-form LDL^T factorization of a stack of symmetric matrices, with
    no pivoting and no per-matrix LAPACK call: g = L D L^T for the symmetric
    part (g + g^T)/2 of each (n, n) matrix of ``g`` (m, n, n), n <= 4, worked
    on one (m,) array per entry. Returns the pivots D (a list of n (m,)
    arrays; the matrix is positive definite exactly when all are positive),
    det g = prod D, and, when ``inverse``, g^-1 = L^-T D^-1 L^-1 as n lists
    of n (m,) arrays (entries (i, j) and (j, i) are one array), else None."""
    n = g.shape[-1]
    # fresh arrays, worked in place below; bitwise g where g is symmetric
    sym = [[0.5 * (g[:, i, j] + g[:, j, i]) for j in range(i + 1)] for i in range(n)]
    low = [[None] * n for _ in range(n)]  # L below the unit diagonal
    pivots = []
    for j in range(n):
        scaled = [low[j][k] * pivots[k] for k in range(j)]  # L_jk D_k
        pivot = sym[j][j]
        for k in range(j):
            pivot -= low[j][k] * scaled[k]
        pivots.append(pivot)
        for i in range(j + 1, n):
            entry = sym[i][j]
            for k in range(j):
                entry -= low[i][k] * scaled[k]
            low[i][j] = entry / pivot
    det = math.prod(pivots)
    if not inverse:
        return pivots, det, None
    solve = [[None] * n for _ in range(n)]  # L^-1 below the unit diagonal
    for j in range(n):
        for i in range(j + 1, n):
            entry = -low[i][j]
            for k in range(j + 1, i):
                entry -= low[i][k] * solve[k][j]
            solve[i][j] = entry
    recip = [1.0 / pivot for pivot in pivots]
    inv = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):  # sum over k >= j of (L^-1)_ki (L^-1)_kj / D_k
            entry = recip[j].copy() if i == j else solve[j][i] * recip[j]
            for k in range(j + 1, n):
                entry += solve[k][i] * solve[k][j] * recip[k]
            inv[i][j] = inv[j][i] = entry
    return pivots, det, inv


def _gated_sqrt_det(g: np.ndarray, out: np.ndarray) -> float | None:
    """sqrt(det g) for a block of metric matrices, written to ``out``, after
    the gate every box node of a metric ball passes: g symmetric as
    ``np.allclose(g, g^T, atol=1e-10)`` has it (run only when an off-diagonal
    pair differs), and every LDL^T pivot positive. Returns None when the block
    passes, else the smallest eigenvalue of the matrices that fail, from
    ``np.linalg.eigvalsh`` on those alone."""
    n = g.shape[-1]
    exact = all(np.array_equal(g[:, i, j], g[:, j, i])
                for i, j in itertools.combinations(range(n), 2))
    if not exact and not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-10):
        raise MetricNotPositiveDefinite("metric is not symmetric")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot fails below
        pivots, det, _ = _ldl(g)
    positive = np.minimum.reduce(pivots) > 0.0  # False at a NaN pivot too
    if not positive.all():
        bad = g[~positive]
        if not np.allclose(bad, np.swapaxes(bad, -1, -2), atol=1e-10):  # NaN on the diagonal
            raise MetricNotPositiveDefinite("metric is not symmetric")
        return float(np.min(np.linalg.eigvalsh(bad)))
    np.sqrt(det, out=out)
    return None


def _box_points(axes: tuple[np.ndarray, ...], rows: slice) -> np.ndarray:
    """Coordinates of the C-order nodes ``rows`` of the box with these axes,
    shape (m, n), as ``Domain.coordinates`` builds them from node indices."""
    index = np.unravel_index(np.arange(rows.start, rows.stop), tuple(map(len, axes)))
    return np.stack([ax[i] for ax, i in zip(axes, index)], axis=-1)


def _segment_block(metric: MetricSpec, base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``segment_distance`` with a metric, for one block of points (m, n)."""
    v = points - base
    length = np.linalg.norm(v, axis=-1)
    out = length.copy()
    nz = length > 0
    v, length = v[nz], length[nz]
    vhat = v / length[:, None]
    mean = _GL_W[0] * metric(base + _GL_T[0] * v)
    for t, w in zip(_GL_T[1:], _GL_W[1:]):
        mean += w * metric(base + t * v)
    diagonal = np.arange(v.shape[-1])
    mean[:, diagonal, diagonal] -= _GL_W_SUM
    corr = np.einsum("mij,mi,mj->m", mean, vhat, vhat)
    out[nz] = length * (1.0 + 0.5 * corr)
    return out


def segment_distance(metric: MetricSpec | None, base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from ``base`` to each point: Euclidean, corrected to first
    order in (g - identity) along the straight segment when a metric is
    present (on the identity the correction is exactly 0). The
    Gauss-Legendre sum of g along each segment is taken first, then one
    quadratic form per point."""
    points = np.asarray(points, dtype=float)
    base = np.asarray(base, dtype=float)
    if metric is None:
        return np.linalg.norm(points - base, axis=-1)
    flat = points.reshape(-1, points.shape[-1])
    out = np.empty(len(flat))

    def block(rows):
        out[rows] = _segment_block(metric, base, flat[rows])

    _map_blocks(len(flat), flat.shape[1], block)
    return out.reshape(points.shape[:-1])


@dataclass(frozen=True)
class Domain:
    """Immutable masked grid over a ball or clipped half-ball.

    Geometry that depends on the domain alone (the coordinate axes, centre
    distances, mask, sqrt(det g) at nodes and faces, quadrature weights, the
    measured metric deviation) is computed on first use, kept, and handed out
    read-only. Node coordinates are gathered from the axes where they are
    needed; ``points()`` builds the whole box's on request, uncached."""

    kind: str
    center: np.ndarray
    radius: float
    spacing: float
    dimension: int
    origin: np.ndarray
    shape: tuple[int, ...]
    metric: MetricSpec | None = None

    def __post_init__(self):
        nodes = math.prod(self.shape)
        need = nodes * self.dimension * 8  # ``points()`` alone, checked before any allocation
        if need > _MAX_POINTS_BYTES:
            raise GridTooLarge(f"grid box {'x'.join(map(str, self.shape))} has {nodes:,} "
                               f"nodes; its node coordinates alone would take {need:,} "
                               f"bytes (limit {_MAX_POINTS_BYTES:,})")

    # -- geometry ---------------------------------------------------------

    @cached_property
    def mask(self) -> np.ndarray:
        """Node classes (int8): OUTSIDE, INTERIOR, FLAT_BOUNDARY, CAP_BOUNDARY."""
        inside = self.center_distances() < self.radius
        return _read_only(_classify(self.kind, inside, self.flat_plane_index))

    @cached_property
    def in_mask(self) -> np.ndarray:
        return _read_only(self.mask != OUTSIDE)

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates along each axis, origin[k] + h * arange(shape[k]):
        the node with multi-index i sits at (axes[0][i_0], ..., axes[n-1][i_(n-1)]).
        Every coordinate below is gathered from these; none is cached box-sized."""
        return tuple(_read_only(o + self.spacing * np.arange(k))
                     for o, k in zip(self.origin, self.shape))

    def coordinates(self, index: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates of the nodes with multi-index arrays ``index`` (n arrays
        of m entries, as ``np.nonzero`` gives them), shape (m, n)."""
        return np.stack([ax[i] for ax, i in zip(self.axes, index)], axis=-1)

    def points(self) -> np.ndarray:
        """All box node coordinates, shape (prod(shape), n), C-order. Built on
        each call (nodes x n floats) and not cached; no lab routine calls it."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))

    def _columns(self, win: tuple[slice, ...] | None = None) -> list[np.ndarray]:
        """Each axis, cut to ``win`` (default: the whole box), shaped
        (len, 1, ..., 1) to broadcast over the box or window."""
        if win is None:
            win = (slice(None),) * self.dimension
        return [ax[part].reshape((-1,) + (1,) * (self.dimension - 1 - k))
                for k, (ax, part) in enumerate(zip(self.axes, win))]

    def masked_points(self, mask: np.ndarray,
                      win: tuple[slice, ...] | None = None) -> np.ndarray:
        """Coordinates of the nodes where ``mask`` (box-shaped, or shaped as
        the window ``win``) is True, C-order, shape (m, n): each column is
        its broadcast axis gathered through the mask, with no index arrays."""
        out = np.empty((np.count_nonzero(mask), self.dimension))
        for k, column in enumerate(self._columns(win)):
            out[:, k] = np.broadcast_to(column, mask.shape)[mask]
        return out

    def in_mask_points(self) -> np.ndarray:
        return self.masked_points(self.in_mask)

    def distance(self, points: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
        """Distance used by the mask: geodesic-corrected for metric balls."""
        if base is None:
            base = self.center
        return segment_distance(self.metric, base, points)

    def squared_distances(self, point: Sequence[float],
                          win: tuple[slice, ...] | None = None) -> np.ndarray:
        """Euclidean |x - point|^2 at every node of ``win`` (default: the whole
        box), window-shaped: the squared axis offsets broadcast and summed in
        axis order, as ``np.linalg.norm`` sums a row, so the result is bitwise
        the one a coordinate array would give."""
        total = 0.0
        for k, column in enumerate(self._columns(win)):
            gap = column - point[k]
            total = total + gap * gap
        return total

    def box_distances(self, base: np.ndarray) -> np.ndarray:
        """``distance`` from ``base`` to every box node, box-shaped. On metric
        balls the coordinates are built one block of nodes at a time."""
        if self._euclidean:
            squared = self.squared_distances(base)
            return np.sqrt(squared, out=squared)
        out = np.empty(self.shape)
        axes = self.axes

        def block(rows):
            out.reshape(-1)[rows] = _segment_block(self.metric, base, _box_points(axes, rows))

        _map_blocks(out.size, self.dimension, block)
        return out

    @cached_property
    def _center_distances(self) -> np.ndarray:
        return _read_only(self.box_distances(self.center))

    def center_distances(self) -> np.ndarray:
        """Distance from the center to every box node, box-shaped."""
        return self._center_distances

    def region_contains(self, points: np.ndarray) -> np.ndarray:
        """Membership in the analytic region (ball/half-ball), not the mask."""
        inside = self.distance(points) < self.radius
        if self.kind == HALF_BALL:
            inside &= points[..., 0] >= 0.0
        return inside

    def window(self, center: Sequence[float], radius: float) -> tuple[slice, ...]:
        """Box slices covering every node within Euclidean distance ``radius`` of
        ``center``, clipped to the box (a node outside is farther along some axis)."""
        rel = (np.asarray(center, dtype=float) - self.origin) / self.spacing
        reach = radius / self.spacing
        lo = np.floor(rel - reach - 1e-9).astype(int)
        hi = np.floor(rel + reach + 1e-9).astype(int) + 1
        return tuple(slice(min(max(a, 0), k), min(max(b, 0), k))
                     for a, b, k in zip(lo, hi, self.shape))

    def node_index(self, point: Sequence[float]) -> tuple[int, ...]:
        rel = (np.asarray(point, dtype=float) - self.origin) / self.spacing
        idx = np.rint(rel).astype(int)
        if np.max(np.abs(rel - idx)) > 1e-8:
            raise MVLabError(f"point {point} is not a grid node")
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.shape)):
            raise MVLabError(f"point {point} is outside the grid box")
        return tuple(int(k) for k in idx)

    def node_point(self, index: Sequence[int]) -> np.ndarray:
        return self.origin + self.spacing * np.asarray(index, dtype=float)

    @property
    def flat_plane_index(self) -> int | None:
        """Axis-0 row index of the plane x0 = 0, when it lies in the box."""
        if self.kind != HALF_BALL:
            return None
        rel = -self.origin[0] / self.spacing
        row = int(round(rel))
        if abs(rel - row) > 1e-8 or not (0 <= row < self.shape[0]):
            return None
        return row

    @property
    def flat_node_count(self) -> int:
        return int(np.count_nonzero(self.mask == FLAT_BOUNDARY))

    @property
    def _euclidean(self) -> bool:
        return self.metric is None

    @cached_property
    def _sqrt_det_metric(self) -> np.ndarray:
        if self._euclidean:
            return _read_only(np.ones(self.shape))
        out = np.empty(self.shape)
        flat, axes = out.reshape(-1), self.axes
        lowest = _map_blocks(flat.size, self.dimension, lambda rows: _gated_sqrt_det(
            self.metric(_box_points(axes, rows)), flat[rows]))
        failed = [low for low in lowest if low is not None]
        if failed:
            raise MetricNotPositiveDefinite(
                f"metric has eigenvalue {np.min(failed)} <= 0 on the grid box")
        return _read_only(out)

    def sqrt_det_metric(self) -> np.ndarray:
        """sqrt(det g) at every box node (ones for Euclidean domains). On metric
        balls this pass is also the gate: MetricNotPositiveDefinite unless g is
        symmetric and positive definite at every box node; the error names the
        smallest eigenvalue over all box nodes that fail."""
        return self._sqrt_det_metric

    @cached_property
    def face_metric(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis a, at the faces x + h/2 e_a of the in-mask nodes x: sqrt(det g),
        box-shaped, and the rows g^{aj} of g^-1, shape (n,) + box; NaN off the mask,
        where the field is NaN too, so every flux through such a face is NaN anyway."""
        n = self.dimension
        points = self.in_mask_points()
        nodes = np.flatnonzero(self.in_mask)
        faces = np.full((n, n + 1, math.prod(self.shape)), np.nan)

        def block(rows):
            for ax, face in enumerate(faces):
                face_pts = points[rows].copy()
                face_pts[:, ax] += 0.5 * self.spacing
                _, det, inv = _ldl(self.metric(face_pts), inverse=True)
                face[0, nodes[rows]] = np.sqrt(det)
                face[1:, nodes[rows]] = inv[ax]

        _map_blocks(len(points), n, block)
        faces = _read_only(faces).reshape((n, n + 1) + self.shape)
        return tuple((face[0], face[1:]) for face in faces)

    @property
    def cut_margin(self) -> float:
        """Distance from the sphere within which a node's cell may be cut:
        half the cell diagonal, widened on metric balls by the box padding."""
        pad = 1.0 if self._euclidean else 1.0 + 2.0 * self.metric.declared_deviation
        return 0.5 * math.sqrt(self.dimension) * self.spacing * pad

    def cut_cells(self) -> CutCells:
        """The cells the domain's sphere may cut, with the sphere replaced by
        its tangent half space at their node, normal to the gradient of the
        centre distance: (x - c)/|x - c|, or on metric balls the central
        difference of ``center_distances()``. An out-of-mask node hands its
        cell to its in-mask neighbour one axis step toward the centre, else
        one diagonal step toward it."""
        h = self.spacing
        dist = self.center_distances()
        nodes = np.flatnonzero(np.abs(dist - self.radius).ravel() <= self.cut_margin)
        centre = np.rint((self.center - self.origin) / h).astype(int)
        in_mask = self.in_mask.ravel()
        fractions = np.empty(len(nodes))
        receivers = np.empty(len(nodes), dtype=nodes.dtype)
        size = _CHUNK >> (self.dimension - 1)  # cube_fraction sums 2^(n-1) terms a cell
        for start in range(0, len(nodes), size):
            block = nodes[start:start + size]
            part = slice(start, start + len(block))
            index = np.stack(np.unravel_index(block, self.shape), axis=-1)
            points = self.coordinates(index.T)
            d = dist.ravel()[block]
            if self._euclidean:
                normal = (points - self.center) / d[:, None]
            else:
                normal = np.empty(index.shape)
                for ax, extent in enumerate(self.shape):
                    up, down = index.copy(), index.copy()
                    up[:, ax] = np.minimum(index[:, ax] + 1, extent - 1)
                    down[:, ax] = np.maximum(index[:, ax] - 1, 0)
                    normal[:, ax] = ((dist[tuple(up.T)] - dist[tuple(down.T)])
                                     / ((up[:, ax] - down[:, ax]) * h))
            norm = np.linalg.norm(normal, axis=1)
            flat = (points[:, 0] < 0.5 * h) & (self.kind == HALF_BALL)
            fractions[part] = cut_fractions(normal / norm[:, None],
                                            (self.radius - d) / (norm * h), flat)
            off = index - centre
            axis_step = index.copy()
            rows = np.arange(len(block))
            major = np.argmax(np.abs(off), axis=1)
            axis_step[rows, major] -= np.sign(off[rows, major])
            receiver = np.where(in_mask[block], block, -1)
            for step in (axis_step, index - np.sign(off)):
                step = np.ravel_multi_index(tuple(step.T), self.shape)
                receiver = np.where((receiver < 0) & in_mask[step], step, receiver)
            receivers[part] = receiver
        return CutCells(nodes, fractions, receivers)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weight of every box node, 0 off the mask: h^n sqrt(det g)
        times the in-region part of the node's cell (1, or 1/2 on the flat
        plane) plus the cut cells it receives from ``cut_cells``."""
        cut = self.cut_cells()
        weights = self.in_mask.astype(float)
        if self.flat_plane_index is not None:
            weights[self.flat_plane_index] *= 0.5
        raveled = weights.reshape(-1)
        raveled[cut.nodes] = 0.0
        kept = cut.receivers >= 0
        shares = cut.fractions[kept]
        if not self._euclidean:  # else sqrt(det g) = 1, and no box of ones is built
            sqrt_det = self.sqrt_det_metric().ravel()
            raveled *= sqrt_det
            shares = shares * sqrt_det[cut.nodes[kept]]
        np.add.at(raveled, cut.receivers[kept], shares)
        weights *= self.spacing ** self.dimension
        return _read_only(weights)

    @cached_property
    def measured_deviation(self) -> float | None:
        """``metric_deviation`` of the domain's metric; None when Euclidean."""
        if self._euclidean:
            return None
        return metric_deviation(self.metric, self)

    # -- field construction -------------------------------------------------

    def make_field(self, values: np.ndarray, density: bool = True,
                   facts: dict | None = None) -> "ScalarField":
        """A field holding ``values`` on the mask and NaN off it, as
        ``field_from_function`` builds it; values already NaN off the mask
        are kept as they are (not copied)."""
        values = np.asarray(values, dtype=float)
        if values.shape == self.shape and not np.all(np.isnan(values[~self.in_mask])):
            values = np.where(self.in_mask, values, np.nan)
        return ScalarField(self, values, density, facts)

    def field_from_function(self, fn: Callable[[np.ndarray], np.ndarray],
                            density: bool = True, facts: dict | None = None) -> "ScalarField":
        """A field holding ``fn`` evaluated at the in-mask nodes ((m, n)
        coordinates in, m values out) and NaN off the mask."""
        values = np.full(self.shape, np.nan)
        values[self.in_mask] = np.asarray(fn(self.in_mask_points()), dtype=float)
        return ScalarField(self, values, density, facts)


@dataclass(frozen=True)
class ScalarField:
    """Nonnegative density values on the in-mask nodes of a domain.

    Values at outside nodes are NaN so that any stencil reaching out of the
    mask poisons its result visibly. Comparison functions reuse the container
    with ``density=False`` and may be signed. ``values`` (the array passed
    in, not a copy) is made read-only, so the checks below keep holding.
    """

    domain: Domain
    values: np.ndarray = field(repr=False)
    density: bool = True
    facts: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.values.shape != self.domain.shape:
            raise MVLabError(
                f"field shape {self.values.shape} != domain shape {self.domain.shape}")
        _read_only(self.values)
        if self.density:
            # operator outputs (density=False) may carry NaN at in-mask nodes
            # whose stencil exits the mask; densities must be total and >= 0
            vals = self.values[self.domain.in_mask]
            if not np.all(np.isfinite(vals)):
                raise MVLabError("density field has non-finite in-mask values")
            if vals.size and np.min(vals) < -1e-12 * max(1.0, float(np.max(np.abs(vals)))):
                raise MVLabError(f"density field has negative values (min {np.min(vals)})")

    def at(self, point: Sequence[float]) -> float:
        return float(self.values[self.domain.node_index(point)])

    def sup(self) -> float:
        return float(np.nanmax(self.values))


def _pad(values: np.ndarray, fill) -> np.ndarray:
    """Copy of ``values`` with one layer of ``fill`` around the box."""
    return np.pad(values, 1, constant_values=fill)


def _shifted(padded: np.ndarray, steps: dict[int, int]) -> np.ndarray:
    """View of a ``_pad`` array with out[i] = values[i + step] along each
    axis in ``steps`` (steps of +-1), the fill where that leaves the box."""
    sel = [slice(1, -1)] * padded.ndim
    for ax, step in steps.items():
        sel[ax] = slice(1 + step, padded.shape[ax] - 1 + step)
    return padded[tuple(sel)]


def _classify(kind: str, inside: np.ndarray, flat_row: int | None) -> np.ndarray:
    """Interior nodes have all 2n axis neighbors inside; flat-plane nodes win
    over the cap classification."""
    padded = _pad(inside, False)
    interior = inside.copy()
    for ax in range(inside.ndim):
        for step in (1, -1):
            interior &= _shifted(padded, {ax: step})
    mask = np.where(inside, np.int8(CAP_BOUNDARY), np.int8(OUTSIDE))
    mask[interior] = INTERIOR
    if kind == HALF_BALL and flat_row is not None:
        mask[flat_row] = np.where(inside[flat_row], FLAT_BOUNDARY, OUTSIDE)
    return mask


def _grid_center(kind: str, center: Sequence[float], r: float, h: float,
                 n: int) -> np.ndarray:
    """The center as an array, after the checks both domain builders share."""
    center = np.asarray(center, dtype=float)
    if n not in SUPPORTED_DIMENSIONS:
        raise MVLabError(f"dimension {n} not in {SUPPORTED_DIMENSIONS}")
    if center.shape != (n,):
        raise MVLabError(f"center must have {n} components")
    if not (0 < r < math.inf and 0 < h < math.inf):
        raise MVLabError("radius and spacing must be positive and finite")
    if kind == HALF_BALL and center[0] < 0:
        raise CenterBelowBoundary(f"half-ball center has y0={center[0]} < 0")
    if h > r / 8 + 1e-12:
        raise ResolutionTooCoarse(f"spacing h={h} exceeds r/8={r / 8}")
    return center


def make_ball_domain(center: Sequence[float], r: float, h: float, n: int,
                     metric: MetricSpec | None = None) -> Domain:
    """Masked grid over the geodesic ball B_r(center).

    The mask marks nodes whose first-order-corrected geodesic distance to the
    center is < r. The center is a grid node.
    """
    center = _grid_center(BALL, center, r, h, n)
    if metric is not None and metric.trivial:
        metric = None

    pad = 1.0 + (2.0 * metric.declared_deviation if metric is not None else 0.0)
    half = int(np.ceil(pad * r / h)) + 1
    origin = center - half * h
    shape = (2 * half + 1,) * n

    domain = Domain(BALL, center, float(r), float(h), n, origin, shape, metric)
    if metric is not None:
        domain.sqrt_det_metric()  # the positive-definite gate
        measured = domain.measured_deviation
        if measured > metric.declared_deviation + 1e-9 + 10.0 * h**2:
            raise MVLabError(
                f"metric deviates by {measured:.4g}, above the declared "
                f"{metric.declared_deviation:.4g}")
    return domain


def make_half_ball_domain(y: Sequence[float], r: float, h: float, n: int) -> Domain:
    """Masked grid over D_r(y) = B_r(y) n {x0 >= 0}, Euclidean metric.

    Requires y0 >= 0 and y0 a multiple of h so the plane x0 = 0 is a grid
    plane; the in-mask nodes on it are classified as flat boundary.
    """
    y = _grid_center(HALF_BALL, y, r, h, n)
    steps = y[0] / h
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise CenterOffGrid(f"y0={y[0]} is not an integer multiple of h={h}")
    steps = int(round(steps))

    half = int(np.ceil(r / h)) + 1
    down = min(half, steps)  # never place rows below x0 = 0
    origin = y.copy()
    origin[0] -= down * h
    origin[1:] -= half * h
    shape = (down + half + 1,) + (2 * half + 1,) * (n - 1)
    return Domain(HALF_BALL, y, float(r), float(h), n, origin, shape, None)


def metric_deviation(metric: MetricSpec, domain: Domain) -> float:
    """Measured W^{1,inf} deviation of g from the identity over in-mask nodes:
    max of |g - identity| entries and central-difference |dg| entries."""
    if domain.kind != BALL:
        raise MVLabError("metric deviation is measured on ball domains only")
    pts = domain.in_mask_points()
    n = domain.dimension
    h = domain.spacing
    eye = np.eye(n)

    def block(rows):
        chunk = pts[rows]
        worst = float(np.max(np.abs(metric(chunk) - eye)))
        for step in h * eye:
            dg = (metric(chunk + step) - metric(chunk - step)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(dg))))
        return worst

    return max([0.0] + _map_blocks(len(pts), n, block))
