"""Masked uniform Cartesian grids over balls and clipped half-balls.

A domain is a vertex-centered grid covering a geodesic ball B_r(center) or a
half-ball D_r(y) = B_r(y) n {x0 >= 0}. Nodes are classified interior / flat
boundary / cap boundary / outside. The center is always a grid node, and for
half-balls the plane x0 = 0 is a grid plane, so boundary stencils never need
interpolation.

Fields, operator outputs and quadrature weights are in-mask vectors: one
float64 per in-mask node, in the C order of the box (``Domain._mask_nodes``).
Box-shaped values exist only as short-lived scratch, scattered a band of
axis-0 rows at a time with NaN off the mask (``Domain._band``,
``ScalarField.box``). The only box-shaped arrays a domain keeps are its
int8 mask and bool ``in_mask``: a metric ball keeps its centre distances on
the cut band, and sqrt(det g) at the in-mask nodes; the box-shaped forms are
built on request and not kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CenterBelowBoundary,
    CenterOffGrid,
    GridTooLarge,
    MetricNotPositiveDefinite,
    MVLabError,
    ResolutionTooCoarse,
    SubregionOutsideDomain,
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
# 4-point Gauss-Legendre rule on [-1, 1], one per polar panel of a shell
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)

_SPHERE_VOLUMES = {0: 2.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}


def vol_sphere(k: int) -> float:
    """Exact volume of the unit sphere S^k for k = 0..3."""
    return _SPHERE_VOLUMES[k]


_CHUNK = 1 << 17

_MAX_POINTS_BYTES = 1 << 31  # largest ``Domain.points()``; a larger box raises GridTooLarge

# One block of a per-node metric pass holds this many bytes of (n, n) float64
# matrices, so that it and its kernel's temporaries stay in a core's L2 cache:
# on a 2-CPU Xeon (4 MiB L2 a core), the entry-major passes of the n = 3,
# h = 1/32 conformal ball ran fastest at 256-512 KiB (71-72 ms), 10-25%
# slower at 1-4 MiB and 2x slower at 64 KiB.
_BLOCK_BYTES = 1 << 19


def _blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices of range(count), each of ``_BLOCK_BYTES`` of (n, n)
    float64 rows: the blocks a per-node metric pass runs, in order, on the
    calling thread. A pass's results are bitwise the same for any block size."""
    size = max(1, _BLOCK_BYTES // (8 * n * n))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# the 2^m vertices of [0, 1]^m and their signs (-1)^|v|, m = 0..3
_VERTICES = {m: np.array(list(itertools.product((0.0, 1.0), repeat=m))).reshape(2**m, m)
             for m in range(max(SUPPORTED_DIMENSIONS))}
_VERTEX_SIGNS = {m: (-1.0) ** v.sum(axis=1) for m, v in _VERTICES.items()}
# compare-exchange pairs that sort 1 to 4 arrays, elementwise, into descending order
_SORT_NETWORK = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
                 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}

# A component of a below this share of the largest one is dropped: its
# coordinate is taken at the cube's centre, w_i = 0. It balances the two
# errors of ``cube_fraction`` at n = 4: dropping (at most _DROP / 4 a
# component) and rounding (about 1e-16 / _DROP^2 with two small ones kept).
_DROP = 1e-5


def cube_fraction(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vol{w in [-1/2, 1/2]^n : a . w <= t} for each row of ``a`` (k, n) and
    entry of ``t`` (k,), in closed form (Barrow & Smith, Amer. Math. Monthly
    86, 1979; Marichal & Mossinghoff 2008). The centred cube is symmetric
    under every signed permutation of the axes, so the fraction depends on
    the magnitudes |a_i| alone, and they are sorted first: a row and any
    signed permutation of it give the same bits. With m components kept and
    the offset from the cube's lowest corner s = t + sum |a_i| / 2,
    sum over the unit cube's vertices v of (-1)^|v| (s - |a| . v)_+^m / (m! prod |a_i|).

    The vertex pairs that differ in the smallest kept component a_m are
    summed as (x_+^m - (x - a_m)_+^m) / a_m = sum_j x^j (x - a_m)^(m-1-j)
    (or x^m / a_m once x - a_m <= 0), so a_m divides no rounding error; the
    other kept components leave about 200 u / (m! prod_{i<m} a_i / max|a|^(m-1))
    of it (u = 2^-53): below 1e-13 at n = 2, 1e-9 at n = 3 and 1e-5 at n = 4.
    A component below ``_DROP`` times the largest is dropped (its coordinate
    is taken at the cube's centre, w_i = 0); that moves the fraction by at
    most |a_i| / (4 max |a|), because the fraction is the mean over w_i of a
    function of t - a_i w_i with slope at most 1 / max |a|. Worked on one
    array per component; the sums over them run in the sorted order.
    """
    a = np.asarray(a, dtype=float)
    mags = [np.abs(col) for col in a.T]
    for i, j in _SORT_NETWORK[len(mags)]:  # descending, so the dropped ones come last
        mags[i], mags[j] = np.maximum(mags[i], mags[j]), np.minimum(mags[i], mags[j])
    limit = _DROP * mags[0]
    mags = [np.where(mag < limit, 0.0, mag) for mag in mags]
    total = functools.reduce(np.add, mags)
    t = np.asarray(t, dtype=float) + 0.5 * total  # the offset from the lowest corner
    out = (t >= total).astype(float)  # the cube lies on one side
    live = np.flatnonzero((t > 0.0) & (out == 0.0))
    mags = [mag[live] for mag in mags]
    t = t[live]
    kept = functools.reduce(np.add, [mag != 0.0 for mag in mags], 0)
    for m in np.unique(kept):
        rows = kept == m
        am = [mag[rows] for mag in mags[:m]]
        x = np.repeat(t[rows, None], 2 ** (m - 1), axis=1)
        for i, corner in enumerate(_VERTICES[m - 1].T):
            x -= am[i][:, None] * corner  # elementwise, so each row is computed alike
        y = x - am[-1][:, None]
        paired = np.ones_like(x)  # sum_j x^j y^(m-1-j), by Horner's rule in x
        power = np.ones_like(x)
        for _ in range(m - 1):
            power *= y
            paired = paired * x + power
        below = y <= 0.0
        x = np.maximum(x[below], 0.0)
        paired[below] = x ** m / np.broadcast_to(am[-1][:, None], below.shape)[below]
        # the 2^(m-1) vertex terms are left to numpy, which sums 8 of them pairwise
        out[live[rows]] = (paired * _VERTEX_SIGNS[m - 1]).sum(axis=1) / (
            math.factorial(m) * functools.reduce(np.multiply, am[:-1], 1.0))
    return np.clip(out, 0.0, 1.0)


def cut_fractions(normal: np.ndarray, offset: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Fraction of the cube of side h about each node that lies in the half
    space normal . w <= offset, w the offset from the node in units of h. A
    node on the flat plane (``flat``) keeps the box [0, 1/2] x [-1/2, 1/2]^(n-1)
    of its cell, so its fraction is at most 1/2. The lab's only cell rule:
    every sphere that cuts a cell (the domain's or a subregion's) is replaced
    by its tangent half space at the node. Like ``cube_fraction``, a cell's
    fraction keeps its bits under every signed permutation of its normal
    (of the normal's components past axis 0 on the flat plane). Worked a
    block of cells at a time, which bounds ``cube_fraction``'s temporaries
    of 2^(n-1) terms a cell."""
    out = np.empty(len(offset))
    size = _CHUNK >> (normal.shape[1] + 1)
    for start in range(0, len(out), size):
        rows = slice(start, start + size)
        side = np.where(flat[rows], 0.5, 1.0)  # of the cell along axis 0; 1 along the others
        scaled = normal[rows].copy()
        scaled[:, 0] *= side
        # a half cell's centre sits a quarter cell up axis 0
        centred = offset[rows] - np.where(flat[rows], 0.5 * scaled[:, 0], 0.0)
        out[rows] = side * cube_fraction(scaled, centred)
    return out


def _node_fractions(offsets: np.ndarray, steps: float, flat_row: int | None) -> np.ndarray:
    """``cut_fractions`` of the cells at the integer ``offsets`` (m, n) from the
    centre node of a Euclidean sphere of radius ``steps`` spacings: the
    normal k/|k| and the offset steps - |k|, |k| the root of the exact
    integer sum of squares, so that the inputs of a cell and of any signed
    permutation of its offset are themselves permuted, bit for bit. The
    cells whose offset along axis 0 is ``flat_row`` are flat-plane cells."""
    length = np.sqrt((offsets * offsets).sum(axis=1).astype(float))
    flat = np.zeros(len(offsets), dtype=bool) if flat_row is None else offsets[:, 0] == flat_row
    return cut_fractions(offsets / length[:, None], steps - length, flat)


class _Orbits:
    """``_node_fractions`` computed once per symmetry orbit of the cells of a
    node-centred Euclidean sphere and looked up for every cell. A ball's
    cells are symmetric under all 2^n n! signed permutations of their offset
    k from the centre node, so an orbit is keyed by the sorted |k_i|; on a
    half-ball axis 0 and the flat row break that symmetry, and the key is
    k_0 with the sorted |k_i| of the other axes. Each key is one integer
    code; the table of evaluated orbits is kept sorted by it and grows as
    blocks of cells bring new ones, so no band-sized array is ever sorted."""

    def __init__(self, domain: Domain, node: np.ndarray, radius: float, reach: int):
        """An empty table for the sphere of ``radius`` about the node of integer
        index ``node`` of ``domain`` (in or off its box), for the cells at most
        ``reach`` steps from it along every axis."""
        row = domain.flat_plane_index
        self._steps = radius / domain.spacing
        self._flat_row = None if row is None else row - node[0]  # an offset along axis 0
        self._first = 1 if domain.kind == HALF_BALL else 0  # the axes past it are sorted by |k|
        self._reach = reach
        self._dims = (2 * reach + 1,) * domain.dimension
        # the sorted codes evaluated so far and their fractions, from a code
        # no orbit has (-1), so that a lookup always lands on a key
        self._keys = np.array([-1])
        self._values = np.array([np.nan])

    def codes(self, offsets: np.ndarray) -> np.ndarray:
        """The code of the orbit of the cell at each integer offset (m, n)."""
        first = self._first
        cols = [col if k < first else np.abs(col) for k, col in enumerate(offsets.T)]
        rest = cols[first:]
        for i, j in _SORT_NETWORK[len(rest)]:  # descending
            rest[i], rest[j] = np.maximum(rest[i], rest[j]), np.minimum(rest[i], rest[j])
        return np.ravel_multi_index(tuple(col + self._reach for col in cols[:first] + rest),
                                    self._dims)

    def fractions(self, offsets: np.ndarray) -> np.ndarray:
        """The fraction of the cell at each integer offset (m, n); the orbits
        the table lacks are first evaluated in one kernel call, each on its
        canonical offset."""
        codes = self.codes(offsets)
        at = np.searchsorted(self._keys, codes)
        new = self._keys.take(at, mode="clip") != codes
        if new.any():
            # the distinct new codes (numpy 2.4's np.unique hashes, 14x slower on 4,096)
            fresh = np.sort(codes[new])
            fresh = fresh[np.append(True, fresh[1:] != fresh[:-1])]
            canonical = np.stack(np.unravel_index(fresh, self._dims), axis=-1) - self._reach
            keys = np.concatenate([self._keys, fresh])
            order = np.argsort(keys)
            self._keys = keys[order]
            self._values = np.concatenate([self._values, _node_fractions(
                canonical, self._steps, self._flat_row)])[order]
            at = np.searchsorted(self._keys, codes)
        return self._values[at]


class CutCells(NamedTuple):
    """The cells of the nodes within ``Domain.cut_margin`` of a domain's
    sphere, in or out of the mask: raveled node indices, the in-region
    fraction of each cell, and the in-mask node that carries its weight
    (itself when in the mask; -1 when no neighbour is)."""
    nodes: np.ndarray
    fractions: np.ndarray
    receivers: np.ndarray


class _Geometry(NamedTuple):
    """What a domain keeps of its centre distances, from ``Domain._geometry``:
    the mask; the cut band, the raveled nodes within ``Domain.cut_margin`` of
    the sphere (C order); and on metric balls the band's exact distances and
    its normals (central differences of the distances, which read neighbours
    no one keeps). Euclidean domains keep neither: a cut cell's inputs come
    from its integer offset from the centre node."""
    mask: np.ndarray
    band: np.ndarray
    band_distances: np.ndarray | None
    band_normals: np.ndarray | None


@dataclass(frozen=True)
class MetricSpec:
    """A smooth metric g(x) on R^n given as a vectorized matrix field.

    ``matrix`` maps an array of points with shape (..., n) to symmetric
    positive-definite matrices with shape (..., n, n), a pure function of
    each point: the per-node passes call it a block of points at a time and
    are bitwise the same in any blocks. Calling the spec checks both shapes.
    The passes hand over (m, n) points whose coordinate columns are each
    contiguous, and read g an entry g[:, i, j] at a time, so they run fastest
    on a result whose entries are each contiguous (the presets return the
    (m, n, n) view of an (n, n, m) array); any layout gives the same bits.
    ``declared_deviation`` is the intended bound on the W^{1,inf} distance
    to the identity; the measured value (``metric_deviation``) is checked
    against it.
    """

    dimension: int
    matrix: Callable[[np.ndarray], np.ndarray]
    declared_deviation: float = 0.0
    name: str = "custom"
    trivial: bool = False  # make_ball_domain builds no metric for it
    config: dict | None = field(default=None, compare=False)  # round-trip recipe

    def __post_init__(self):
        if not 0.0 <= self.declared_deviation < math.inf:  # False at NaN too
            raise MVLabError(f"metric 'declared_deviation' must be finite and >= 0, "
                             f"got {self.declared_deviation!r}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        n = self.dimension
        if points.shape[-1:] != (n,):
            raise MVLabError(f"metric of dimension {n} got points of shape {points.shape}")
        g = self.matrix(points)
        if np.shape(g) != points.shape[:-1] + (n, n):
            raise MVLabError(f"metric of dimension {n} returned shape {np.shape(g)} "
                             f"for points of shape {points.shape}")
        return g


def _check_preset(n: int, coefficient: float, **indices: Sequence[int]) -> None:
    if not math.isfinite(coefficient):
        raise MVLabError(f"metric 'coefficient' must be finite, got {coefficient!r}")
    for key, values in indices.items():
        if not all(0 <= k < n for k in values):
            raise MVLabError(f"metric {key!r} must be in 0..{n - 1}, got {list(values)}")


def _segment_floor(n: int, deviation: float) -> float:
    """f = max(0, 1 - n delta / 2): segment_distance >= f L on a segment of Euclidean
    length L where |g - I| <= delta entrywise, as |corr| <= |g - I|_2 <= n delta."""
    return max(0.0, 1.0 - 0.5 * n * deviation)


def _identities(points: np.ndarray, n: int, factor: float | np.ndarray = 1.0) -> np.ndarray:
    """factor * I at each of ``points`` (..., n), entry-major: the (..., n, n)
    view of an (n, n, ...) array, so that each entry [..., i, j] is one
    contiguous block. Each entry is factor * I_ij, so a negative or NaN
    factor gives -0.0 or NaN off the diagonal."""
    out = np.moveaxis(np.empty((n, n) + points.shape[:-1]), (0, 1), (-2, -1))
    return np.multiply(np.asarray(factor)[..., None, None], np.eye(n), out=out)


def identity_metric(n: int) -> MetricSpec:
    def matrix(points: np.ndarray) -> np.ndarray:
        return _identities(points, n)

    return MetricSpec(n, matrix, declared_deviation=0.0, name="identity",
                      trivial=True, config={"preset": "identity"})


def conformal_metric(n: int, coefficient: float, axis: int = 1,
                     declared_deviation: float | None = None) -> MetricSpec:
    """g(x) = (1 + coefficient * x_axis) * identity."""
    _check_preset(n, coefficient, axis=[axis])

    def matrix(points: np.ndarray) -> np.ndarray:
        return _identities(points, n, 1.0 + coefficient * points[..., axis])

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
    for i, j, c, pw in terms:
        if not (0 <= i < n and 0 <= j < n) or len(pw) != n or not math.isfinite(c):
            raise MVLabError(f"bad metric term ({i},{j},c={c!r},powers={pw}) for dimension {n}")

    def matrix(points: np.ndarray) -> np.ndarray:
        out = _identities(points, n)
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
    _check_preset(n, coefficient, entry=entry, axis=[axis])

    def matrix(points: np.ndarray) -> np.ndarray:
        out = _identities(points, n)
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
    on one (m,) array per entry (each g[:, i, j] read is contiguous when g is
    entry-major, as the presets return it). Returns the pivots D (a list of
    n (m,) arrays; the matrix is positive definite exactly when all are positive),
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


def _squared_gaps(columns: Iterable[np.ndarray], center: Sequence[float]) -> np.ndarray:
    """|x - center|^2 from the coordinate ``columns`` of points x (``points.T``),
    summed a column at a time in axis order, as numpy sums a row shorter than
    8: bitwise ``np.sum((points - center) ** 2, axis=-1)``, and under a square
    root bitwise ``np.linalg.norm(points - center, axis=-1)``."""
    columns = iter(columns)
    total = 0.0
    for c in center:  # not zip(), whose reused result tuple would keep each column alive
        gap = next(columns) - c
        total = total + gap * gap
    return total


def _quadratic_form(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_ij g_ij v_i v_j for matrices ``g`` (m, n, n) and vectors ``v``
    (n, m), summed as (g_ij v_i) v_j over i, then j, an entry at a time: in
    this fixed order for any layout, and bitwise
    ``np.einsum("mij,mi,mj->m", g, v.T, v.T)`` on C-order arrays."""
    total = 0.0
    for i, j in itertools.product(range(len(v)), repeat=2):
        total = total + g[:, i, j] * v[i] * v[j]
    return total


def _segment_block(metric: MetricSpec, base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``segment_distance`` with a metric, for one block of points (m, n) in
    any layout, worked entry-major: on one contiguous m-vector per
    coordinate and per entry of g."""
    n = len(base)
    v = np.subtract(points.T, base[:, None], out=np.empty((n, len(points))))
    length = np.sqrt(_squared_gaps(v, np.zeros(n)))
    out = length.copy()
    nz = length > 0
    v, length = np.compress(nz, v, axis=1), length[nz]
    vhat = v / length
    base = base[:, None]
    mean = _GL_W[0] * metric((base + _GL_T[0] * v).T)
    for t, w in zip(_GL_T[1:], _GL_W[1:]):
        mean += w * metric((base + t * v).T)
    for i in range(n):
        mean[:, i, i] -= _GL_W_SUM
    out[nz] = length * (1.0 + 0.5 * _quadratic_form(mean, vhat))
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
        return np.sqrt(_squared_gaps(np.moveaxis(points, -1, 0), base))
    flat = points.reshape(-1, points.shape[-1])
    out = np.empty(len(flat))
    for rows in _blocks(len(flat), flat.shape[1]):
        out[rows] = _segment_block(metric, base, flat[rows])
    return out.reshape(points.shape[:-1])


@dataclass(frozen=True)
class Domain:
    """Immutable masked grid over a ball or clipped half-ball.

    Geometry that depends on the domain alone (the coordinate axes, the mask
    and cut band, sqrt(det g) at the in-mask nodes, the cut band and the
    faces, the quadrature weights as an in-mask vector, the measured metric
    deviation) is computed on first use, kept, and handed out read-only. The
    box-shaped arrays a domain keeps are its int8 mask and bool ``in_mask``;
    every other kept array holds one entry per in-mask or cut-band node.
    Node coordinates are gathered from the axes where they are needed.
    ``points()``, ``center_distances()`` and ``sqrt_det_metric()`` build
    their box on request and keep nothing; no lab routine calls them."""

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

    @property
    def mask(self) -> np.ndarray:
        """Node classes (int8): OUTSIDE, INTERIOR, FLAT_BOUNDARY, CAP_BOUNDARY."""
        return self._geometry.mask

    @cached_property
    def _geometry(self) -> _Geometry:
        """The mask and the cut band from one pass over slabs of axis-0 rows of
        the centre distances (``_slab_distances``, about ``_CHUNK`` box nodes
        a slab), each slab computed once and read with one row of each
        neighbouring slab: the classes and the normals look one step along
        axis 0. A node is inside when its distance is below r."""
        extent, row = self.shape[0], math.prod(self.shape[1:])
        step = max(1, _CHUNK // row)
        flat_row = self.flat_plane_index
        mask = np.empty(self.shape, dtype=np.int8)
        band, band_distances, band_normals = [], [], []
        ahead = self._slab_distances(0, min(step, extent))
        below = ahead[:0]  # the row before the slab
        for a in range(0, extent, step):
            b = min(a + step, extent)
            dist = ahead
            ahead = self._slab_distances(b, min(b + step, extent)) if b < extent else dist[:0]
            lo = a - len(below)
            context = [below, dist, ahead[:1]]  # rows [lo, b + 1) of the box
            inside = np.concatenate([rows < self.radius for rows in context])
            padded = _pad(inside, False)[a - lo:b - lo + 2]  # rows [a - 1, b + 1)
            flat = flat_row - a if flat_row is not None and a <= flat_row < b else None
            mask[a:b] = _classify(padded, flat)
            cut = np.flatnonzero(np.abs(dist.ravel() - self.radius) <= self.cut_margin)
            band.append(a * row + cut)
            if not self._euclidean:
                band_distances.append(dist.ravel()[cut])
                band_normals.append(self._normals(np.concatenate(context), lo, band[-1]))
            below = dist[-1:]
        metric = [None if self._euclidean else _read_only(np.concatenate(part))
                  for part in (band_distances, band_normals)]
        return _Geometry(_read_only(mask), _read_only(np.concatenate(band)), *metric)

    def _slab_distances(self, a: int, b: int) -> np.ndarray:
        """The centre distances of the box's axis-0 rows [a, b), shape
        (b - a,) + shape[1:]: ``_squared_gaps`` of the broadcast axes under a
        root; on metric balls f L, with the segment rule only where it decides
        the mask or the cut band (``center_distances``)."""
        columns = self._columns()
        columns[0] = columns[0][a:b]
        dist = _squared_gaps(columns, self.center)
        np.sqrt(dist, out=dist)
        if not self._euclidean:
            r, margin, h = self.radius, self.cut_margin, self.spacing
            deviation = self._deviation_limit
            factor = _segment_floor(self.dimension, deviation)
            # segment_distance <= (1 + n delta / 2) L, so below ``inner`` a node is
            # inside, off the band and no band node's neighbour (its L is within h)
            inner = ((r - margin) / (1.0 + 0.5 * self.dimension * deviation) - h) * (1.0 - 1e-9)
            near = np.flatnonzero(dist.ravel() >= inner)
            dist *= factor
            near = near[dist.ravel()[near] <= r + margin + factor * h]
            first = a * math.prod(self.shape[1:])
            dist.reshape(-1)[near] = self.distance(self._node_points(first + near))
        return dist

    def _normals(self, dist: np.ndarray, lo: int, nodes: np.ndarray) -> np.ndarray:
        """The central differences of the centre distances ``dist`` (the box's
        axis-0 rows from ``lo``) at the raveled ``nodes``, one-sided on the box's
        faces: the gradient whose direction is a cut cell's normal."""
        index = np.stack(np.unravel_index(nodes, self.shape), axis=-1)
        normal = np.empty(index.shape)
        for ax, extent in enumerate(self.shape):
            up, down = index.copy(), index.copy()
            up[:, ax] = np.minimum(index[:, ax] + 1, extent - 1)
            down[:, ax] = np.maximum(index[:, ax] - 1, 0)
            spread = (up[:, ax] - down[:, ax]) * self.spacing
            up[:, 0] -= lo
            down[:, 0] -= lo
            normal[:, ax] = (dist[tuple(up.T)] - dist[tuple(down.T)]) / spread
        return normal

    @cached_property
    def in_mask(self) -> np.ndarray:
        return _read_only(self.mask != OUTSIDE)

    @cached_property
    def _mask_nodes(self) -> np.ndarray:
        """Raveled in-mask node indices, C order: what every per-node kernel gathers through."""
        return _read_only(np.flatnonzero(self.in_mask))

    @property
    def node_count(self) -> int:
        return len(self._mask_nodes)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates along each axis, origin[k] + h * arange(shape[k]):
        the node with multi-index i sits at (axes[0][i_0], ..., axes[n-1][i_(n-1)]).
        Every coordinate below is gathered from these, or computed as they are
        by ``_node_points``; none is cached box-sized."""
        return tuple(_read_only(o + self.spacing * np.arange(k))
                     for o, k in zip(self.origin, self.shape))

    def _node_points(self, nodes: slice | np.ndarray) -> np.ndarray:
        """Coordinates of the box nodes with raveled C-order indices ``nodes``
        (an array or a slice), shape (m, n): origin + h * index, bitwise the
        ``axes`` entries. Entry-major: the transpose of an (n, m) array, so
        that each coordinate column is one contiguous m-vector."""
        index = np.unravel_index(np.r_[nodes], self.shape)
        out = np.empty((self.dimension, len(index[0])))
        for k, column in enumerate(index):
            out[k] = column
        out *= self.spacing
        out += self.origin[:, None]
        return out.T

    def points(self) -> np.ndarray:
        """All box node coordinates, shape (prod(shape), n), C-order. Built on
        each call (nodes x n floats) and not cached; no lab routine calls it."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))

    def _columns(self) -> list[np.ndarray]:
        """Each axis shaped (len, 1, ..., 1) to broadcast over the box."""
        return [ax.reshape((-1,) + (1,) * (self.dimension - 1 - k))
                for k, ax in enumerate(self.axes)]

    def in_mask_points(self) -> np.ndarray:
        """Coordinates of the in-mask nodes, C order, shape (m, n)."""
        out = np.empty((len(self._mask_nodes), self.dimension))
        for k in range(self.dimension):
            out[:, k] = self._in_mask_column(k)
        return out

    def _in_mask_column(self, k: int) -> np.ndarray:
        """Column k of ``in_mask_points()``, gathered alone."""
        return np.broadcast_to(self._columns()[k], self.shape)[self.in_mask]

    def _window_nodes(self, win: tuple[slice, ...]):
        """The in-mask nodes of the ``window`` ``win``, C order, in blocks of
        axis-0 rows of about ``_CHUNK`` box nodes (one empty block for an
        empty window): per block, their positions in an in-mask vector and
        their coordinates, shape (m, n). The nodes of one line along the last
        axis have consecutive positions from the line's start, past the line's
        in-mask nodes left of the window."""
        lines = self._line_starts[:-1].reshape(self.shape[:-1])
        rows = max(1, _CHUNK // max(1, math.prod(part.stop - part.start for part in win[1:])))
        first, last = win[0].start, win[0].stop
        for a in range(first, max(last, first + 1), rows):
            block = (slice(a, min(a + rows, last)),) + win[1:]
            inside = self.in_mask[block]
            counts = np.count_nonzero(inside, axis=-1).ravel()  # per line of the block
            left = np.count_nonzero(self.in_mask[block[:-1] + (slice(0, win[-1].start),)], axis=-1)
            # a line's first position, less the block's nodes on the lines before it
            offset = lines[block[:-1]].ravel() + left.ravel() - (np.cumsum(counts) - counts)
            points = np.empty((int(counts.sum()), self.dimension))
            for k, (column, part) in enumerate(zip(self._columns(), block)):
                points[:, k] = np.broadcast_to(column[part], inside.shape)[inside]
            yield np.arange(len(points)) + np.repeat(offset, counts), points

    @cached_property
    def _line_starts(self) -> np.ndarray:
        """Position in an in-mask vector of the first node of each line of the
        box along its last axis, the lines in C order, then the vector's length."""
        counts = np.count_nonzero(self.in_mask, axis=-1).ravel()
        return _read_only(np.concatenate([[0], np.cumsum(counts)]))

    @property
    def _row_starts(self) -> np.ndarray:
        """Position in an in-mask vector of the first node of each axis-0 row
        of the box, then the vector's length."""
        return self._line_starts[::math.prod(self.shape[1:-1])]

    @cached_property
    def _lateral_faces(self) -> dict[tuple[int, int], np.ndarray]:
        """Per step (axis, +-1) along an axis above 0: the positions in an
        in-mask vector of the nodes on the box face that step leaves."""
        faces = {}
        for ax, step in itertools.product(range(1, self.dimension), (1, -1)):
            edge = 0 if step < 0 else self.shape[ax] - 1
            face = np.nonzero(np.take(self.in_mask, edge, axis=ax))
            index = face[:ax] + (np.full(len(face[0]), edge),) + face[ax:]
            faces[ax, step] = _read_only(np.searchsorted(
                self._mask_nodes, np.ravel_multi_index(index, self.shape)))
        return faces

    def _band(self, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The in-mask vector ``values`` scattered into the axis-0 rows [lo, hi)
        of the box, NaN off the mask and on rows past the box: a fresh array
        of shape (hi - lo,) + shape[1:], the only box-shaped form of a field."""
        row = math.prod(self.shape[1:])
        out = np.full((hi - lo) * row, np.nan)
        first, last = self._row_starts[np.clip([lo, hi], 0, self.shape[0])]
        out[self._mask_nodes[first:last] - lo * row] = values[first:last]
        return out.reshape((hi - lo,) + self.shape[1:])

    def distance(self, points: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
        """Distance used by the mask: geodesic-corrected for metric balls."""
        if base is None:
            base = self.center
        return segment_distance(self.metric, base, points)

    def center_distances(self) -> np.ndarray:
        """Distance from the center to every box node, box-shaped, built on each
        call and not kept (metric balls keep them on the cut band; no lab
        routine calls this). On metric balls, with f = ``_segment_floor(n,
        delta)`` and delta = ``_deviation_limit``, the segment rule at the nodes
        whose Euclidean length L from the centre lies in [((r - cut_margin) /
        (1 + n delta / 2) - h)(1 - 1e-9), (r + cut_margin)/f + h], and f L, a
        lower bound on the same side of r, at the others: the values the mask
        and the cut band are read from."""
        return _read_only(self._slab_distances(0, self.shape[0]))

    @property
    def _deviation_limit(self) -> float:
        """The largest ``measured_deviation`` make_ball_domain accepts."""
        return self.metric.declared_deviation + 1e-9 + 10.0 * self.spacing**2

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
        """Axis-0 row index of the plane x0 = 0, when it lies in the box: a
        half-ball's box starts on the plane (row 0) or at least h above it."""
        return 0 if self.kind == HALF_BALL and abs(self.origin[0]) < 0.5 * self.spacing else None

    @property
    def flat_node_count(self) -> int:
        """In-mask nodes on the flat plane, all of them FLAT_BOUNDARY: one run
        of an in-mask vector, ``_row_starts[row]:_row_starts[row + 1]``."""
        row = self.flat_plane_index
        return 0 if row is None else int(self._row_starts[row + 1] - self._row_starts[row])

    @property
    def _euclidean(self) -> bool:
        return self.metric is None

    def _gate(self, *selections: np.ndarray) -> list[np.ndarray]:
        """sqrt(det g) at each selection of raveled, sorted box nodes, from one
        pass over every box node that is also the gate of a metric ball:
        MetricNotPositiveDefinite unless g is symmetric and positive definite
        at every box node; the error names the smallest eigenvalue over all box
        nodes that fail, unless a block is not symmetric, whose "metric is not
        symmetric" is raised when it is reached."""
        count = math.prod(self.shape)
        outs = [np.empty(len(nodes)) for nodes in selections]
        failed = []
        for rows in _blocks(count, self.dimension):
            values = np.empty(rows.stop - rows.start)
            lowest = _gated_sqrt_det(self.metric(self._node_points(rows)), values)
            if lowest is not None:
                failed.append(lowest)
            for nodes, out in zip(selections, outs):
                lo, hi = np.searchsorted(nodes, (rows.start, rows.stop))
                out[lo:hi] = values[nodes[lo:hi] - rows.start]
        if failed:
            raise MetricNotPositiveDefinite(
                f"metric has eigenvalue {np.min(failed)} <= 0 on the grid box")
        return outs

    @cached_property
    def _gated(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(det g) of a metric ball at its in-mask nodes, an in-mask vector,
        and at its cut band, one value per band node, from the gate's one pass
        over the box (which ``make_ball_domain`` runs)."""
        parts = self._gate(self._mask_nodes, self._geometry.band)
        return tuple(_read_only(part) for part in parts)

    @property
    def _sqrt_det(self) -> np.ndarray:
        """sqrt(det g) at the in-mask nodes of a metric ball, an in-mask vector."""
        return self._gated[0]

    def sqrt_det_metric(self) -> np.ndarray:
        """sqrt(det g) at every box node (ones for Euclidean domains), built on
        each call and not kept: the domain keeps it at the in-mask nodes, and
        no lab routine calls this. On metric balls the pass is the gate
        (``_gate``) and raises its error."""
        if self._euclidean:
            return _read_only(np.ones(self.shape))
        return _read_only(self._gate(np.arange(math.prod(self.shape)))[0].reshape(self.shape))

    @cached_property
    def face_metric(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis a, at the faces x + h/2 e_a of the in-mask nodes x, in C
        order: sqrt(det g), shape (m,), and the rows g^{aj} of g^-1, shape (n, m).
        The node coordinates are gathered a block at a time."""
        n = self.dimension
        nodes = self._mask_nodes
        faces = np.empty((n, n + 1, len(nodes)))
        for rows in _blocks(len(nodes), n):
            points = self._node_points(nodes[rows])
            for ax, face in enumerate(faces):
                face_pts = np.copy(points)  # entry-major, as ``points``
                face_pts[:, ax] += 0.5 * self.spacing
                _, det, inv = _ldl(self.metric(face_pts), inverse=True)
                face[0, rows] = np.sqrt(det)
                face[1:, rows] = inv[ax]
        return tuple((face[0], face[1:]) for face in _read_only(faces))

    @property
    def cut_margin(self) -> float:
        """Distance from the sphere within which a node's cell may be cut:
        half the cell diagonal, widened on metric balls by the box padding."""
        pad = 1.0 if self._euclidean else 1.0 + 2.0 * self.metric.declared_deviation
        return 0.5 * math.sqrt(self.dimension) * self.spacing * pad

    def cut_cells(self) -> CutCells:
        """The cells of the cut band (the nodes within ``cut_margin`` of the
        sphere), with the sphere replaced by its tangent half space at their
        node. On Euclidean domains its normal is k/|k|, k the node's integer
        offset from the centre node, and its offset r/h - |k| (``_Orbits``:
        one evaluation per symmetry orbit of cells); on metric balls the
        normal is the central difference of ``center_distances()``, kept with
        the band, and each cell is evaluated on its own. An out-of-mask node
        hands its cell to its in-mask neighbour one axis step toward the
        centre, else one diagonal step toward it. Worked a block of cells at
        a time."""
        h = self.spacing
        geometry = self._geometry
        nodes = geometry.band
        centre = np.rint((self.center - self.origin) / h).astype(int)
        in_mask = self.in_mask.ravel()
        fractions = np.empty(len(nodes))
        receivers = np.empty(len(nodes), dtype=nodes.dtype)
        strides = np.array([math.prod(self.shape[ax + 1:]) for ax in range(self.dimension)])
        size = _CHUNK >> (self.dimension + 1)  # per cell, cube_fraction sums 2^(n-1) terms
        if self._euclidean:
            orbits = _Orbits(self, centre, self.radius, max(self.shape))
        for start in range(0, len(nodes), size):
            block = nodes[start:start + size]
            part = slice(start, start + len(block))
            off = np.stack(np.unravel_index(block, self.shape), axis=-1) - centre
            if self._euclidean:
                fractions[part] = orbits.fractions(off)
            else:  # a metric ball has no flat plane
                d, normal = geometry.band_distances[part], geometry.band_normals[part]
                norm = np.sqrt(_squared_gaps(normal.T, np.zeros(self.dimension)))
                fractions[part] = cut_fractions(normal / norm[:, None],
                                                (self.radius - d) / (norm * h),
                                                np.zeros(len(block), dtype=bool))
            sign = np.sign(off)
            major = np.argmax(np.abs(off), axis=1)
            receiver = np.where(in_mask[block], block, -1)
            # raveled steps toward the centre node, which never leave the box
            axis_step = block - sign[np.arange(len(block)), major] * strides[major]
            for step in (axis_step, block - sign @ strides):
                receiver = np.where((receiver < 0) & in_mask[step], step, receiver)
            receivers[part] = receiver
        return CutCells(nodes, fractions, receivers)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weight of every in-mask node, an in-mask vector: h^n
        sqrt(det g) times the in-region part of the node's cell (1, or 1/2 on
        the flat plane) plus the cut cells it receives from ``cut_cells``."""
        nodes = self._mask_nodes
        cut = self.cut_cells()
        kept = cut.receivers >= 0
        own = self.in_mask.ravel()[cut.nodes[kept]]  # an in-mask cell is its own receiver
        receivers = np.searchsorted(nodes, cut.receivers[kept])  # positions in the vector
        shares = cut.fractions[kept]
        if not self._euclidean:  # else sqrt(det g) = 1
            shares *= self._gated[1][kept]
        del cut, kept  # before the weights are allocated
        weights = np.ones(len(nodes))
        row = self.flat_plane_index
        if row is not None:
            weights[self._row_starts[row]:self._row_starts[row + 1]] *= 0.5
        weights[receivers[own]] = 0.0
        if not self._euclidean:
            weights *= self._sqrt_det
        np.add.at(weights, receivers, shares)
        weights *= self.spacing ** self.dimension
        return _read_only(weights)

    def ball_weights(self, center: Sequence[float],
                     radius: float) -> tuple[np.ndarray, np.ndarray]:
        """The quadrature of the domain's intersection with the Euclidean
        ball B_radius(center): the positions in an in-mask vector of the nodes
        it keeps, C order, and their weights, ``weights`` times the share of
        the node's cell (its half cell on the flat row) inside the ball: 1
        below radius - m, 0 beyond radius + m (m = sqrt(n) h / 2, half the
        cell diagonal), between them the fraction under the sphere's tangent
        half space at the node (``cut_fractions``), and at the centre node,
        which has no normal, vol(B_radius) / h^n, which is 1 once radius >= m.
        A centre within 1e-9 h of a node along every axis is taken at the
        node: the cut cells' inputs come from their integer offsets from it
        and are evaluated once per symmetry orbit (``_Orbits``). Any other
        centre has no node, and each cut cell is evaluated on its own, with
        the normal (x - center)/|x - center|. Only the in-mask nodes of the
        ball's ``window`` are visited, a block of rows at a time, with their
        coordinates (``_window_nodes``). The two vectors are allocated once,
        for every in-mask node of the window, and shrunk in place to the kept
        ones. Nothing is kept: each call builds its quadrature afresh."""
        h = self.spacing
        n = self.dimension
        center = np.asarray(center, dtype=float)
        radius = float(radius)
        if radius <= 0:
            raise MVLabError("subregion radius must be positive")
        center_gap = float(np.linalg.norm(center - self.center))
        if center_gap - radius >= self.radius:
            raise SubregionOutsideDomain(
                f"ball of radius {radius} at {center} misses the domain")
        margin = 0.5 * math.sqrt(n) * h
        win = self.window(center, radius + margin)
        rel = (center - self.origin) / h
        node = np.rint(rel)
        orbits = None
        if np.all(np.abs(rel - node) <= 1e-9):
            node = node.astype(np.intp)
            reach = max(max(abs(part.start - k), abs(part.stop - k)) for part, k in zip(win, node))
            orbits = _Orbits(self, node, radius, reach)
        kept = np.empty(np.count_nonzero(self.in_mask[win]), dtype=np.intp)
        weights = np.empty(len(kept))
        size = 0
        for positions, points in self._window_nodes(win):
            d = _squared_gaps(points.T, center)
            np.sqrt(d, out=d)
            share = (d < radius - margin).astype(float)
            centre = d == 0.0 if orbits is None else d < 0.5 * h  # the centre node
            cut = (np.abs(d - radius) <= margin) & ~centre
            pts = points[cut]
            flat = (pts[:, 0] < 0.5 * h) & (self.kind == HALF_BALL)
            if orbits is None:
                fractions = cut_fractions((pts - center) / d[cut, None], (radius - d[cut]) / h, flat)
            else:
                offsets = np.unravel_index(self._mask_nodes[positions[cut]], self.shape)
                fractions = orbits.fractions(np.stack(offsets, axis=-1) - node)
            share[cut] = fractions / np.where(flat, 0.5, 1.0)
            share[centre] = min(1.0, vol_sphere(n - 1) / n * (radius / h) ** n)
            keep = share > 0.0
            part = slice(size, size + np.count_nonzero(keep))
            kept[part] = positions[keep]
            weights[part] = self.weights[kept[part]] * share[keep]
            size = part.stop
        kept.resize(size, refcheck=False)  # no view of either exists
        weights.resize(size, refcheck=False)
        return kept, weights

    @cached_property
    def measured_deviation(self) -> float | None:
        """``metric_deviation`` of the domain's metric; None when Euclidean."""
        if self._euclidean:
            return None
        return metric_deviation(self.metric, self)

    # -- field construction -------------------------------------------------

    def make_field(self, values: np.ndarray, density: bool = True,
                   facts: dict | None = None) -> "ScalarField":
        """A field of ``values``, an in-mask vector (C order; kept, not copied)."""
        return ScalarField(self, np.asarray(values, dtype=float), density, facts)

    def field_from_function(self, fn: Callable[[np.ndarray], np.ndarray],
                            density: bool = True, facts: dict | None = None) -> "ScalarField":
        """A field holding ``fn`` evaluated at the in-mask nodes ((m, n)
        coordinates in, m values out)."""
        values = np.asarray(fn(self.in_mask_points()), dtype=float)
        return ScalarField(self, values, density, facts)


@dataclass(frozen=True)
class ScalarField:
    """Nonnegative density values on the in-mask nodes of a domain.

    ``values`` is an in-mask vector: one float64 per in-mask node, in the C
    order of ``Domain._mask_nodes``. A field has no value off the mask:
    ``box()`` and every stencil read NaN there, so a stencil reaching out of
    the mask poisons its result visibly. Comparison functions reuse the
    container with ``density=False`` and may be signed. ``values`` (the
    array passed in, not a copy) is made read-only, so the checks below keep
    holding.
    """

    domain: Domain
    values: np.ndarray = field(repr=False)
    density: bool = True
    facts: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        count = len(self.domain._mask_nodes)
        if self.values.shape != (count,):
            raise MVLabError(f"field values of shape {self.values.shape} for "
                             f"{count} in-mask nodes")
        _read_only(self.values)
        if self.density:
            # operator outputs (density=False) may carry NaN at in-mask nodes
            # whose stencil exits the mask; densities must be total and >= 0
            vals = self.values
            if not np.all(np.isfinite(vals)):
                raise MVLabError("density field has non-finite in-mask values")
            if vals.size and np.min(vals) < -1e-12 * max(1.0, float(np.max(np.abs(vals)))):
                raise MVLabError(f"density field has negative values (min {np.min(vals)})")

    def at(self, point: Sequence[float]) -> float:
        """The value at the grid node ``point``; NaN off the mask."""
        dom = self.domain
        index = dom.node_index(point)
        if not dom.in_mask[index]:
            return math.nan
        return float(self.values[np.searchsorted(dom._mask_nodes,
                                                 np.ravel_multi_index(index, dom.shape))])

    def sup(self) -> float:
        """The largest in-mask value, NaN ones skipped."""
        return float(np.nanmax(self.values))

    def box(self) -> np.ndarray:
        """The values scattered into a fresh box-shaped array, NaN off the mask."""
        return self.domain._band(self.values, 0, self.domain.shape[0])


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


def _classify(padded: np.ndarray, flat_row: int | None) -> np.ndarray:
    """The classes of the nodes of ``_shifted(padded, {})``, ``padded`` being
    inside flags with one layer of neighbours around them (False past the
    box). Interior nodes have all 2n axis neighbors inside; the inside nodes
    of row ``flat_row`` (the flat plane, when given) are flat boundary
    whatever their neighbours."""
    inside = _shifted(padded, {})
    interior = inside.copy()
    for ax in range(padded.ndim):
        for step in (1, -1):
            interior &= _shifted(padded, {ax: step})
    mask = np.where(inside, np.int8(CAP_BOUNDARY), np.int8(OUTSIDE))
    mask[interior] = INTERIOR
    if flat_row is not None:
        mask[flat_row] = np.where(inside[flat_row], FLAT_BOUNDARY, OUTSIDE)
    return mask


def _grid_center(kind: str, center: Sequence[float], r: float, h: float,
                 n: int) -> np.ndarray:
    """The center as a read-only copy, after the checks both domain builders share."""
    center = _read_only(np.array(center, dtype=float))
    if n not in SUPPORTED_DIMENSIONS:
        raise MVLabError(f"dimension {n} not in {SUPPORTED_DIMENSIONS}")
    if center.shape != (n,):
        raise MVLabError(f"center must have {n} components")
    if not np.all(np.isfinite(center)):
        raise MVLabError(f"center must be finite, got {center.tolist()}")
    if not (0 < r < math.inf and 0 < h < math.inf):
        raise MVLabError("radius and spacing must be positive and finite")
    if kind == HALF_BALL and center[0] < 0:
        raise CenterBelowBoundary(f"half-ball center has y0={center[0]} < 0")
    if h > r / 8 + 1e-12:
        raise ResolutionTooCoarse(f"spacing h={h} exceeds r/8={r / 8}")
    return center


def _box(center: np.ndarray, r: float, h: float, pad: float = 1.0,
         below: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only origin and the shape of a grid box reaching ceil(pad r / h) + 1
    nodes past the centre along every axis, and at most ``below`` below it on axis 0."""
    half = int(np.ceil(pad * r / h)) + 1
    steps = np.full(len(center), half)
    if below is not None:
        steps[0] = min(half, below)
    return _read_only(center - steps * h), tuple(int(k) for k in steps + half + 1)


def make_ball_domain(center: Sequence[float], r: float, h: float, n: int,
                     metric: MetricSpec | None = None) -> Domain:
    """Masked grid over the geodesic ball B_r(center).

    The mask marks nodes whose first-order-corrected geodesic distance to the
    center is < r. The center is a grid node.
    """
    center = _grid_center(BALL, center, r, h, n)
    if metric is not None and metric.dimension != n:
        raise MVLabError(f"metric of dimension {metric.dimension} on a ball of dimension {n}")
    if metric is not None and metric.trivial:
        metric = None

    pad = 1.0 + (2.0 * metric.declared_deviation if metric is not None else 0.0)
    domain = Domain(BALL, center, float(r), float(h), n, *_box(center, r, h, pad), metric)
    if metric is not None:
        domain._gated  # the positive-definite gate, over every box node, after the mask
        measured = domain.measured_deviation
        if not measured <= domain._deviation_limit:  # NaN too
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
    # no row below the plane x0 = 0
    return Domain(HALF_BALL, y, float(r), float(h), n, *_box(y, r, h, below=round(steps)))


def metric_deviation(metric: MetricSpec, domain: Domain) -> float:
    """Measured W^{1,inf} deviation of g from the identity over in-mask nodes:
    max of |g - identity| entries and central-difference |dg| entries, NaN
    when any of them is NaN."""
    if domain.kind != BALL:
        raise MVLabError("metric deviation is measured on ball domains only")
    nodes = domain._mask_nodes
    n = domain.dimension
    h = domain.spacing
    eye = np.eye(n)
    worst = [0.0]  # then each block's worst
    for rows in _blocks(len(nodes), n):
        chunk = domain._node_points(nodes[rows])
        block = np.max(np.abs(metric(chunk) - eye))
        for step in h * eye:
            dg = (metric(chunk + step) - metric(chunk - step)) / (2.0 * h)
            block = np.maximum(block, np.max(np.abs(dg)))  # NaN wins, as in np.max
        worst.append(block)
    return float(np.max(worst))
