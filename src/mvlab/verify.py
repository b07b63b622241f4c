"""End-to-end inequality checkers: Morrey suites, the nonlinear mean value
theorems, the shell-average monotonicity suite, hypothesis fitting, and
empirical constant estimation.

Verdicts are three-valued: Holds / Fails / HypothesisViolated. A violated
hypothesis (including energy above the smallness threshold) means the
inequality is not claimed, not that it failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import calculus
from .constants import BoundParams, ConstantLedger, boundary_rhs, interior_rhs
from .errors import (
    AllNodesBelowFloor,
    EmptyFamily,
    MVLabError,
    RadiusOutOfRange,
)
from .grid import _CHUNK, BALL, HALF_BALL, ScalarField
from .report import record

HOLDS = "Holds"
FAILS = "Fails"
HYPOTHESIS_VIOLATED = "HypothesisViolated"

# nodes with e at or below this share of sup e are left out of the
# nonlinearity fits, which divide by a power of e
_E_FLOOR_FACTOR = 1e-8
# relative tolerance of the monotonicity suite's small-radius limit
_LIMIT_REL_TOL = 0.02


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    lhs: float
    rhs: float
    margin: float
    verdict: str
    reason: str | None
    tol: float
    hypothesis: dict
    grid: dict
    ledger: ConstantLedger | None = None
    required_c: float | None = None

    def as_dict(self) -> dict:
        out = record(self)
        if self.ledger is None:
            del out["ledger"]
        return out


def _grid_summary(e: ScalarField) -> dict:
    dom = e.domain
    out = {
        "kind": dom.kind,
        "dimension": dom.dimension,
        "radius": dom.radius,
        "spacing": dom.spacing,
        "center": [float(c) for c in dom.center],
        "node_count": dom.node_count,
    }
    if dom.measured_deviation is not None:
        out["metric"] = dom.metric.name
        out["measured_metric_deviation"] = dom.measured_deviation
    return out


def _operator_pairs(e: ScalarField, flat: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator at the nodes it is checked on, the density there, and the
    nodes. Interior: the Laplacian at the in-mask nodes (C order, raveled
    indices; NaN where the stencil exits the mask). Flat (``flat=True``): the
    outer normal derivative at the flat-boundary nodes (multi-indices), which
    are the in-mask nodes of the flat row, one run of the in-mask vector."""
    dom = e.domain
    if flat:
        bv = calculus.normal_derivative(e)
        row = dom.flat_plane_index
        return bv.values, e.values[dom._row_starts[row]:dom._row_starts[row + 1]], bv.indices
    return calculus.laplacian(e).values, e.values, dom._mask_nodes


def _fit(e: ScalarField, c0: float, c1: float, flat: bool) -> float:
    """The largest ratio (op - c0 - c1 e) / e^p over the nodes with a finite
    operator and e above the floor, clamped at 0; worked a block of
    ``_CHUNK`` nodes at a time, so its temporaries stay block-sized."""
    n = e.domain.dimension
    op, ev, _ = _operator_pairs(e, flat)
    floor = _E_FLOOR_FACTOR * max(e.sup(), 0.0)
    power = (n + (1 if flat else 2)) / n
    worst = []
    for start in range(0, len(op), _CHUNK):
        part = slice(start, start + _CHUNK)
        keep = np.isfinite(op[part]) & (ev[part] > floor)
        if keep.any():
            kept = ev[part][keep]
            worst.append(np.max((op[part][keep] - c0 - c1 * kept) / kept ** power))
    if not worst:
        where = "flat-boundary" if flat else "stencil-valid"
        raise AllNodesBelowFloor(f"no {where} node above the density floor")
    return max(0.0, float(np.max(worst)))


def fit_nonlinearity(e: ScalarField, a0: float, a1: float) -> float:
    """Smallest a with Delta e <= a0 + a1 e + a e^((n+2)/n) over the
    stencil-valid nodes where e clears the division floor; clamped at 0."""
    return _fit(e, a0, a1, False)


def fit_boundary_nonlinearity(e: ScalarField, b0: float, b1: float) -> float:
    """Boundary analogue on the flat nodes with exponent (n+1)/n."""
    return _fit(e, b0, b1, True)


def _bound_margin(e: ScalarField, params: BoundParams, flat: bool,
                  select: np.ndarray | None = None) -> tuple[float, tuple | None]:
    """Worst excess of an operator over its hypothesis bound and its node;
    (-inf, None) when no node qualifies.

    Interior: Delta e - (A0 + A1 e + a e^((n+2)/n)) over the stencil-valid
    in-mask nodes (where the in-mask boolean vector ``select`` is set, if
    given). Flat (``flat=True``): de/dnu - (B0 + B1 e + b e^((n+1)/n)) over
    the usable flat-boundary nodes. A zero power coefficient drops its term,
    so zero params give the operator itself, on signed fields too."""
    n = e.domain.dimension
    op, ev, nodes = _operator_pairs(e, flat)
    c0, c1, c, power = ((params.B0, params.B1, params.b, (n + 1) / n) if flat
                        else (params.A0, params.A1, params.a, (n + 2) / n))
    resid = op - (c0 + c1 * ev + (c * ev ** power if c else 0.0))
    finite = np.isfinite(resid)
    if select is not None:
        finite &= select
    if not np.any(finite):
        return -math.inf, None
    k = int(np.argmax(np.where(finite, resid, -np.inf)))
    node = nodes[k] if flat else np.unravel_index(nodes[k], e.domain.shape)
    return float(resid[k]), tuple(int(x) for x in node)


# per operator (interior, flat): its record key, and its reason labels as a
# sign condition (Morrey, monotonicity, constant estimation) and as the
# nonlinear bound of the two mean value inequalities
_OPERATORS = (("laplacian_margin", "laplacian-positive", "laplacian-bound"),
              ("normal_margin", "normal-derivative-positive", "normal-bound"))


def _hypothesis_margins(e: ScalarField, params: BoundParams, hypothesis: dict,
                        bounds: bool = False):
    """(reason, margin) pairs for ``calculus.judge``: the Laplacian bound, then
    on half-balls with flat nodes the normal bound, each recorded in
    ``hypothesis`` with the excess sign (operator minus bound) as it is
    yielded. ``bounds`` picks the nonlinear-bound labels."""
    dom = e.domain
    with_flat = dom.kind == HALF_BALL and dom.flat_node_count > 0
    for flat in (False, True) if with_flat else (False,):
        key, sign_label, bound_label = _OPERATORS[flat]
        excess, node = _bound_margin(e, params, flat)
        if node is None:
            raise MVLabError(f"no usable node for the {key} check")
        hypothesis[key] = excess
        yield f"{bound_label if bounds else sign_label}@{node}", -excess


def _check(claim: str, e: ScalarField, params: BoundParams, c: float,
           ledger: ConstantLedger | None = None) -> VerificationReport:
    """The mean value check e(center) <= rhs(params, r, int e, c): interior
    right-hand side on balls, boundary one on half-balls.

    With a ledger (the nonlinear inequalities) the metric deviation and the
    energy are gated against the ledger's delta and smallness threshold."""
    dom = e.domain
    n = dom.dimension
    tol = calculus.verdict_tolerance(dom)
    grid = _grid_summary(e)
    hypothesis: dict = {}

    def violated(reason: str) -> VerificationReport:
        return VerificationReport(claim, math.nan, math.nan, math.nan, HYPOTHESIS_VIOLATED,
                                  reason, tol, hypothesis, grid, ledger, None)

    deviation = grid.get("measured_metric_deviation")
    if ledger is not None and deviation is not None and deviation > ledger.delta + 1e-12:
        return violated(f"metric-deviation {deviation:.3g} above delta={ledger.delta}")
    reason = calculus.judge(_hypothesis_margins(e, params, hypothesis, ledger is not None), tol)
    if reason is not None:
        return violated(reason)

    energy = calculus.integrate(e)
    hypothesis["energy"] = energy
    if ledger is not None:
        threshold = (ledger.energy_threshold_interior() if dom.kind == BALL
                     else ledger.energy_threshold_boundary())
        hypothesis["energy_threshold"] = threshold
        if energy > threshold:
            return violated("energy-above-threshold")

    lhs = e.at(dom.center)
    if dom.kind == BALL:
        rhs = interior_rhs(params, dom.radius, energy, c)
        if ledger is not None:
            terms = {
                "A0_term": c * params.A0 * dom.radius**2,
                "morrey_term": c * dom.radius ** (-n) * energy,
                "A1_term": c * params.A1 ** (n / 2.0) * energy,
            }
            hypothesis["branch"] = max(terms, key=lambda k: terms[k])
            hypothesis["terms"] = terms
    else:
        rhs = boundary_rhs(params, dom.radius, energy, c)
    margin = rhs - lhs
    verdict = calculus.judge([(FAILS, margin)], tol) or HOLDS
    required_c = lhs * c / rhs if rhs > 0 else None
    return VerificationReport(claim, float(lhs), float(rhs), float(margin),
                              verdict, None, tol, hypothesis, grid, ledger,
                              required_c)


def verify_morrey(e: ScalarField, c: float) -> VerificationReport:
    """Sub-mean-value check e(center) <= c r^-n int e for fields passing the
    subharmonicity hypothesis (plus the Neumann sign on half-balls): the
    a = b = 0 case of the two mean value inequalities."""
    return _check("morrey", e, BoundParams(e.domain.dimension), c)


def _check_params(e: ScalarField, params: BoundParams, ledger: ConstantLedger) -> None:
    if params.n != e.domain.dimension:
        raise MVLabError("params dimension differs from the domain")
    if params.a + params.b > 0 or ledger.a + ledger.b > 0:
        if params.a != ledger.a or params.b != ledger.b:
            raise MVLabError(
                f"ledger built for (a={ledger.a}, b={ledger.b}) but params have "
                f"(a={params.a}, b={params.b})")


def verify_interior_mvi(e: ScalarField, params: BoundParams,
                        ledger: ConstantLedger) -> VerificationReport:
    """Nonlinear interior mean value inequality on a ball of radius <= 1."""
    dom = e.domain
    if dom.kind != BALL:
        raise MVLabError("interior inequality lives on ball domains")
    _check_params(e, params, ledger)
    if dom.radius > 1.0:
        raise RadiusOutOfRange(f"the interior inequality is stated for radii r <= 1, got {dom.radius}")
    return _check("interior-mvi", e, params, ledger.c_master, ledger)


def verify_boundary_mvi(e: ScalarField, params: BoundParams,
                        ledger: ConstantLedger) -> VerificationReport:
    """Nonlinear boundary mean value inequality on a half-ball (any r > 0)."""
    dom = e.domain
    if dom.kind != HALF_BALL:
        raise MVLabError("boundary inequality lives on half-ball domains")
    _check_params(e, params, ledger)
    return _check("boundary-mvi", e, params, ledger.c_master, ledger)


@dataclass(frozen=True)
class LargeRadiusCheck:
    r: float
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class MonotonicityReport:
    profile: calculus.ShellProfile
    y0: float
    monotone: bool
    worst_drop: float
    limit_value: float
    limit_target: float | None
    limit_kind: str          # "full" | "half" | "unresolved"
    limit_passed: bool | None
    large_r: tuple[LargeRadiusCheck, ...]
    hypothesis: dict
    tol: float
    verdict: str
    weak: calculus.WeakTestReport | None = None  # weak mode only; not a record field

    def as_dict(self) -> dict:
        out = record(replace(self, profile=None, weak=None))
        del out["weak"]
        out["profile"] = [{"r": s.r, "m": s.m, "nodes": s.node_count, "clipped": s.clipped}
                          for s in self.profile.samples]
        return out


def monotonicity_suite(e: ScalarField, center, radii, *,
                       limit_abs_tol: float | None = None,
                       hypothesis_mode: str = "pointwise") -> MonotonicityReport:
    """Shell-average checks for a Neumann-subharmonic field on a half-ball:
    monotonicity of M(r) on the unclipped range, the small-radius limit, and
    the large-radius inequality with the closed clipping constant."""
    dom = e.domain
    if dom.kind != HALF_BALL:
        raise MVLabError("the monotonicity suite runs on half-ball domains")
    if not len(radii):
        raise MVLabError("the monotonicity suite needs at least one shell radius ('radii')")
    n = dom.dimension
    center = np.asarray(center, dtype=float)
    y0 = float(center[0])
    tol = calculus.verdict_tolerance(dom)
    hypothesis: dict = {"mode": hypothesis_mode}
    weak = None

    if hypothesis_mode == "pointwise":
        ok = calculus.judge(_hypothesis_margins(e, BoundParams(n), hypothesis), tol) is None
    elif hypothesis_mode == "weak":
        weak = calculus.weak_subharmonic_test(e)
        hypothesis["weak_worst"] = weak.worst()
        ok = weak.subharmonic
    else:
        raise MVLabError(f"unknown hypothesis mode {hypothesis_mode!r}")
    if not ok:
        profile = calculus.shell_profile(e, center, radii)
        return MonotonicityReport(profile, y0, False, math.nan, math.nan,
                                  None, "unresolved", None, (), hypothesis,
                                  tol, HYPOTHESIS_VIOLATED, weak)

    profile = calculus.shell_profile(e, center, radii)
    rs = profile.radii()
    ms = profile.values()

    # (i)/(ii): nondecreasing where the clipping angle is frozen
    if y0 == 0.0:
        mono_sel = np.ones(len(rs), dtype=bool)
    else:
        mono_sel = rs <= y0 + 1e-12
    drops = np.diff(ms[mono_sel])
    worst_drop = float(np.min(drops)) if drops.size else 0.0
    monotone = calculus.judge([("drop", worst_drop)], tol) is None

    # (iii): small-radius limit
    r_min = float(rs[0])
    limit_value = float(ms[0])
    vol = calculus.vol_sphere(n - 1)
    e_center = e.at(center)
    if limit_abs_tol is None:
        limit_abs_tol = 2.0 * vol * r_min**2
    if y0 == 0.0:
        limit_kind, target = "half", 0.5 * vol * e_center
    elif y0 > r_min:
        limit_kind, target = "full", vol * e_center
    else:
        limit_kind, target = "unresolved", None
    if target is None:
        limit_passed = None
    else:
        limit_passed = calculus.judge([("limit", -abs(limit_value - target))],
                                      max(_LIMIT_REL_TOL * abs(target), limit_abs_tol)) is None

    # (iv): large-radius inequality, closed clipping constant
    big_r = float(rs[-1])
    checks = []
    if y0 > 0.0:
        total = calculus.integrate(e, subregion=(center, big_r))
        cn = calculus.cap_constant(n)
        lhs = vol * e_center
        for r, m in zip(rs, ms):
            if r > 0.5 * big_r:
                continue
            rhs = m + (cn * big_r ** (-n) * total if r > y0 else 0.0)
            passed = calculus.judge([("large-radius", rhs - lhs)], tol) is None
            checks.append(LargeRadiusCheck(float(r), lhs, float(rhs), passed))

    all_ok = (monotone and (limit_passed is not False)
              and all(c.passed for c in checks))
    verdict = HOLDS if all_ok else FAILS
    return MonotonicityReport(profile, y0, monotone, worst_drop, limit_value,
                              target, limit_kind, limit_passed, tuple(checks),
                              hypothesis, tol, verdict, weak)


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    ratios: tuple[float, ...]
    argmax_index: int
    kind: str

    def as_dict(self) -> dict:
        return record(self)


def estimate_constant(family: Iterable[ScalarField], kind: str) -> ConstantEstimate:
    """Empirical mean-value constant: max over the family of
    e(center) r^n / int e. Every member must pass its subharmonicity
    hypothesis (with the Neumann sign for the boundary kind). The family is
    iterated once, and each member is released before the next is drawn, so
    a lazy family holds one field at a time."""
    if kind not in ("interior", "boundary"):
        raise MVLabError("kind must be 'interior' or 'boundary'")
    ratios = []
    for e in family:  # not enumerate(), whose reused result tuple keeps the last member alive
        i, dom = len(ratios), e.domain
        expected = BALL if kind == "interior" else HALF_BALL
        if dom.kind != expected:
            raise MVLabError(f"family member {i} is on a {dom.kind} domain, "
                             f"need {expected}")
        hypothesis: dict = {}
        reason = calculus.judge(_hypothesis_margins(e, BoundParams(dom.dimension), hypothesis),
                                calculus.verdict_tolerance(dom))
        if reason is not None:
            raise MVLabError(f"family member {i} violates its hypothesis: {reason} "
                             f"(margins {hypothesis})")
        energy = calculus.integrate(e)
        if energy <= 0:
            raise MVLabError(f"family member {i} has nonpositive energy")
        ratios.append(e.at(dom.center) * dom.radius ** dom.dimension / energy)
        del e  # released before the next member is sampled
    if not ratios:
        raise EmptyFamily("constant estimation needs at least one field")
    best = int(np.argmax(ratios))
    return ConstantEstimate(float(ratios[best]), tuple(ratios), best, kind)
