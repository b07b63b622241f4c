"""Deterministic generators of test densities and blow-up sequences.

Every generator attaches machine-checkable analytic facts to the field it
produces (exact Laplacian constants, normal-derivative values, masses), so
the calculus operators can be validated against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import calculus, verify
from .constants import BoundParams
from .errors import MVLabError, SpecOutOfDomain, UnresolvableScale
from .grid import HALF_BALL, Domain, ScalarField, _read_only, _squared_gaps
from .quantization import DensitySequence, make_density_sequence

KINDS = ("constant", "quadratic", "harmonic_product", "poisson_peak",
         "bubble", "reflected_bubble", "linear_x0", "sum")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic density field."""

    kind: str
    amplitude: float = 1.0
    center: tuple[float, ...] | None = None
    scale: float | None = None           # bubble width, wave number, ...
    offset: float = 0.0
    axis: int = 1                        # lateral axis for products/linears
    pole: tuple[float, ...] | None = None  # harmonic peak pole (outside domain)
    parts: tuple["GeneratorSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MVLabError(f"unknown generator kind {self.kind!r}")
        if self.amplitude < 0:
            raise MVLabError("generator amplitude must be nonnegative")
        if self.offset < 0:
            raise MVLabError("generator offset must be nonnegative")


def bubble_mass(n: int, lam: float, amplitude: float = 1.0,
                rho: float | None = None) -> float:
    """Mass of the bubble profile amplitude * lam^-n (1 + |x|^2/lam^2)^-n
    inside B_rho (whole space when rho is None). The total is lam-invariant.
    The radial integral int_0^T t^(n-1) (1 + t^2)^-n dt, T = rho/lam, is taken
    in closed form, at n = 4 in a form where nothing cancels at small T. At
    n = 3 the closed form cancels below T = 1/4, where the alternating series
    sum_k (-1)^k C(k+2, 2) T^(2k+3) / (2k+3) takes over (20 terms reach full
    precision there)."""
    if rho is None:
        radial = {2: 0.5, 3: math.pi / 16.0, 4: 1.0 / 12.0}[n]
    else:
        t = rho / lam
        u = t * t
        if n == 2:
            radial = u / (2.0 * (1.0 + u))
        elif n == 3 and t < 0.25:
            radial = sum((-1) ** k * (k + 1) * (k + 2) // 2 * t ** (2 * k + 3) / (2 * k + 3)
                         for k in reversed(range(20)))
        elif n == 3:
            radial = (math.atan(t) + t * (u - 1.0) / (1.0 + u) ** 2) / 8.0
        else:
            radial = u * u * (u + 3.0) / (12.0 * (1.0 + u) ** 3)
    return calculus.vol_sphere(n - 1) * amplitude * radial


def bubble_critical_ratio(n: int, amplitude: float) -> float:
    """Exact sup of Delta(e) / e^((n+2)/n) for the bubble profile: the
    radial computation gives 2 n^2 amplitude^(-2/n), independent of lam."""
    return 2.0 * n * n * amplitude ** (-2.0 / n)


def _point(spec: GeneratorSpec, key: str, default: np.ndarray | None, n: int) -> np.ndarray:
    """The spec's ``key`` point (``default`` when unset), checked to have n coordinates."""
    point = np.asarray(default if getattr(spec, key) is None else getattr(spec, key), dtype=float)
    if point.shape != (n,):
        raise MVLabError(f"generator {spec.kind}: {key!r} needs {n} coordinates, "
                         f"got {point.tolist()}")
    return point


def _squared_gaps_memo(domain: Domain, center: np.ndarray, memo: dict) -> np.ndarray:
    """|x - center|^2 at the in-mask nodes x, C order, from one coordinate
    column at a time; kept in ``memo`` by centre, and read-only, so a
    sequence pays for each centre once."""
    key = tuple(center)
    if key not in memo:
        columns = map(domain._in_mask_column, range(domain.dimension))
        memo[key] = _read_only(_squared_gaps(columns, center))
    return memo[key]


def _values_and_facts(spec: GeneratorSpec, domain: Domain, memo: dict):
    """The generator's values at the in-mask nodes, C order, and its facts;
    squared distances come from and go to ``memo`` (see ``_squared_gaps_memo``)."""
    n = domain.dimension
    kind = spec.kind

    if kind == "constant":
        vals = np.full(len(domain._mask_nodes), spec.amplitude + spec.offset)
        facts = {"laplacian_const": 0.0, "neumann_const": 0.0,
                 "harmonic": True, "subharmonic": True}
        return vals, facts

    if kind == "quadratic":
        center = _point(spec, "center", domain.center, n)
        vals = spec.amplitude * _squared_gaps_memo(domain, center, memo) + spec.offset
        facts = {
            "laplacian_const": -2.0 * n * spec.amplitude,
            "neumann_const": 2.0 * spec.amplitude * float(center[0]),
            "subharmonic": True,
        }
        return vals, facts

    if kind == "harmonic_product":
        k = spec.scale if spec.scale is not None else 1.0
        ax = spec.axis
        if not 1 <= ax < n:
            raise MVLabError(f"harmonic_product axis {ax} out of range for n={n}")
        x0 = domain._in_mask_column(0)
        x0_max = float(np.max(np.abs(x0)))
        if k * x0_max >= 0.5 * math.pi:
            raise SpecOutOfDomain(
                f"cos({k} x0) changes sign on the domain (k*max|x0| = {k * x0_max:.3g})")
        vals = spec.amplitude * np.cos(k * x0)
        del x0
        vals = vals * np.cosh(k * domain._in_mask_column(ax)) + spec.offset
        facts = {"laplacian_const": 0.0, "harmonic": True, "subharmonic": True,
                 "neumann_const": 0.0}
        return vals, facts

    if kind == "poisson_peak":
        if spec.pole is None:
            raise MVLabError("poisson_peak needs a pole location")
        pole = _point(spec, "pole", None, n)
        gap = float(np.linalg.norm(pole - domain.center))
        if gap <= 1.02 * domain.radius:
            raise SpecOutOfDomain(
                f"pole at distance {gap:.3g} must sit outside the domain radius "
                f"{domain.radius:.3g}")
        dist = np.sqrt(_squared_gaps_memo(domain, pole, memo))
        if n == 2:
            big = spec.scale if spec.scale is not None else 1.1 * (gap + domain.radius)
            vals = spec.amplitude * np.log(big / np.maximum(dist, 1e-300)) + spec.offset
        else:
            vals = spec.amplitude * dist ** (2 - n) + spec.offset
        facts = {"laplacian_const": 0.0, "harmonic": True, "subharmonic": True}
        return vals, facts

    if kind in ("bubble", "reflected_bubble"):
        lam = spec.scale
        if lam is None or lam <= 0:
            raise MVLabError("bubble needs a positive scale")
        center = _point(spec, "center", domain.center, n)
        if kind == "reflected_bubble":
            if domain.kind != HALF_BALL:
                raise SpecOutOfDomain("reflected bubble lives on a half-ball")
            if abs(center[0]) > 1e-12:
                raise SpecOutOfDomain("reflected bubble center must sit on x0 = 0")
        sq = _squared_gaps_memo(domain, center, memo)
        vals = spec.amplitude * lam ** (-n) * (1.0 + sq / lam**2) ** (-n) + spec.offset
        facts = {
            "sup_value": spec.amplitude * lam ** (-n) + spec.offset,
            "sup_at": tuple(center),
            "mass_full_space": bubble_mass(n, lam, spec.amplitude),
            "mass_within": lambda rho, _n=n, _l=lam, _a=spec.amplitude: bubble_mass(_n, _l, _a, rho),
            "critical_ratio": bubble_critical_ratio(n, spec.amplitude),
            "scale": lam,
        }
        if kind == "reflected_bubble":
            facts["neumann_const"] = 0.0  # even in x0 by construction
        return vals, facts

    if kind == "linear_x0":
        vals = spec.amplitude * domain._in_mask_column(0) + spec.offset
        facts = {"laplacian_const": 0.0, "harmonic": True, "subharmonic": True,
                 "neumann_const": -spec.amplitude}
        return vals, facts

    if kind == "sum":
        if not spec.parts:
            raise MVLabError("sum generator needs parts")
        total = np.zeros(len(domain._mask_nodes))
        part_facts = []
        for part in spec.parts:
            vals, facts = _values_and_facts(part, domain, memo)
            total += vals
            part_facts.append(facts)
        total += spec.offset
        # a constant adds when every part has it; a property holds when every part has it
        merged = {key: sum((facts[key] for facts in part_facts), 0.0)
                  for key in ("laplacian_const", "neumann_const")
                  if all(key in facts for facts in part_facts)}
        for key in ("harmonic", "subharmonic"):
            merged[key] = all(facts.get(key, False) for facts in part_facts)
        return total, merged

    raise MVLabError(f"unhandled generator kind {kind!r}")


def _sample(spec: GeneratorSpec, domain: Domain, memo: dict):
    """The generator's values at the in-mask nodes, checked nonnegative up
    to rounding and clamped at 0, and its facts."""
    vals, facts = _values_and_facts(spec, domain, memo)
    low = float(np.min(vals))
    if low < -1e-12 * max(1.0, float(np.max(np.abs(vals)))):
        raise SpecOutOfDomain(f"generator {spec.kind} goes negative (min {low:.3g})")
    return np.maximum(vals, 0.0, out=vals), facts


def gen(spec: GeneratorSpec, domain: Domain) -> ScalarField:
    """Sample the generator at the in-mask nodes, with analytic facts attached."""
    vals, facts = _sample(spec, domain, {})
    facts["spec"] = spec
    return ScalarField(domain, vals, density=True, facts=facts)


def gen_sequence(specs: list[GeneratorSpec], schedule: list[float],
                 domain: Domain,
                 background: GeneratorSpec | None = None,
                 params: BoundParams | None = None) -> DensitySequence:
    """Blow-up sequence e_i = background + sum of planted bubbles at scale
    lambda_i. The schedule must decrease strictly and stay resolvable
    (lambda_min >= 4h). Without ``params`` the nonlinearities (a_i, b_i) are
    fitted per field and their maxima are the params; with ``params``
    nothing is fitted."""
    if not specs:
        raise MVLabError("need at least one planted bubble spec")
    for s in specs:
        if s.kind not in ("bubble", "reflected_bubble"):
            raise MVLabError("planted specs must be bubbles")
    schedule = [float(lam) for lam in schedule]
    if not schedule:
        raise MVLabError("bubble schedule is empty")
    if not all(0.0 < lam < math.inf for lam in schedule):  # False at NaN too
        raise MVLabError(f"bubble 'schedule' entries must be finite and > 0, got {schedule}")
    if any(l2 >= l1 for l1, l2 in zip(schedule, schedule[1:])):
        raise MVLabError("bubble schedule must be strictly decreasing")
    if schedule[-1] < 4.0 * domain.spacing:
        raise UnresolvableScale(
            f"lambda_min = {schedule[-1]} below the 4h = {4 * domain.spacing} guardrail")

    memo: dict = {}  # each centre's squared distances, shared by every scale
    base = _sample(background, domain, {})[0] if background is not None else 0.0
    fields = []
    fitted = []
    for lam in schedule:
        values = sum((_sample(replace(s, scale=lam), domain, memo)[0] for s in specs), base)
        field = ScalarField(domain, values, density=True)
        fields.append(field)
        if params is None:
            a_req = verify.fit_nonlinearity(field, 0.0, 0.0)
            if domain.kind == HALF_BALL and domain.flat_node_count > 0:
                b_req = verify.fit_boundary_nonlinearity(field, 0.0, 0.0)
            else:
                b_req = 0.0
            fitted.append((a_req, b_req))
    if params is None:
        params = BoundParams(domain.dimension, a=max(f[0] for f in fitted),
                             b=max(f[1] for f in fitted))
    return make_density_sequence(fields, params)


_LAYOUT_REGION_FRACTION = 0.6  # bubble centers within this share of the radius
_LAYOUT_MAX_TRIES = 10_000


def random_bubble_layout(domain: Domain, count: int, min_separation: float,
                         seed: int) -> list[tuple[float, ...]]:
    """Deterministic seeded placement of bubble centers on grid nodes inside
    the shrunken domain, pairwise separated by at least ``min_separation``."""
    rng = np.random.default_rng(seed)
    pts = domain.in_mask_points()
    dist = domain.distance(pts)
    candidates = pts[dist <= _LAYOUT_REGION_FRACTION * domain.radius]
    if domain.kind == HALF_BALL:
        candidates = candidates[candidates[:, 0] >= 0.0]
    if candidates.shape[0] == 0:
        raise MVLabError("no candidate nodes for bubble placement")
    chosen: list[np.ndarray] = []
    for _ in range(_LAYOUT_MAX_TRIES):
        if len(chosen) == count:
            break
        pick = candidates[rng.integers(candidates.shape[0])]
        if all(np.linalg.norm(pick - c) >= min_separation for c in chosen):
            chosen.append(pick)
    if len(chosen) < count:
        raise MVLabError(
            f"could not place {count} bubbles {min_separation} apart (seed {seed})")
    return [tuple(c) for c in chosen]
