"""Bubble detector: extract concentration points from a finite sequence of
density fields with bounded energy.

A finite computed sequence cannot blow up, so divergence is operationalized:
a candidate point is a cluster (within a configurable radius, default 4h) of
per-index argmax nodes whose values exceed a declared divergence threshold
for at least ceil(sqrt(sequence length)) indices. At each witness index the
rescaled dichotomy either forces concentration (then the measured ball energy
must exceed the quantum hbar) or is consistent with boundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import calculus
from .constants import BoundParams, ConstantLedger, quantization_dichotomy
from .errors import MVLabError, QuantizationViolated
from .grid import HALF_BALL, ScalarField, _squared_gaps
from .report import record


@dataclass(frozen=True)
class DensitySequence:
    """Ordered density fields on a common domain with a shared energy bound."""

    fields: tuple[ScalarField, ...]
    energy_bound: float
    params: BoundParams
    energies: tuple[float, ...]

    def __post_init__(self):
        if not self.fields:
            raise MVLabError("density sequence is empty")
        dom = self.fields[0].domain
        for f in self.fields:
            if f.domain is not dom:
                raise MVLabError("density sequence fields must share one domain")
            if not f.density:
                raise MVLabError("density sequence fields must be densities")
        if not math.isfinite(self.energy_bound):
            raise MVLabError(f"'energy_bound' must be finite, got {self.energy_bound!r}")
        tol = 1e-9 * max(1.0, self.energy_bound)
        for i, en in enumerate(self.energies):
            if en > self.energy_bound + tol:
                raise MVLabError(
                    f"field {i} has energy {en} above the bound {self.energy_bound}")

    @property
    def domain(self):
        return self.fields[0].domain

    def __len__(self) -> int:
        return len(self.fields)


def make_density_sequence(fields, params: BoundParams,
                          energy_bound: float | None = None) -> DensitySequence:
    energies = tuple(calculus.integrate(f) for f in fields)
    if energy_bound is None:
        energy_bound = max(energies)
    return DensitySequence(tuple(fields), float(energy_bound), params, energies)


def concentration_energy(e: ScalarField, x, delta: float) -> float:
    """Energy of e inside B_delta(x) clipped to the domain."""
    return calculus.integrate(e, subregion=(np.asarray(x, dtype=float), float(delta)))


@dataclass(frozen=True)
class ExtractionStep:
    index: int
    z: tuple[float, ...]
    R: float
    delta: float
    energy: float
    branch: str


@dataclass(frozen=True)
class MergeEvent:
    location: tuple[float, ...]
    merged_into: int
    distance: float


@dataclass(frozen=True)
class ConcentrationPoint:
    location: tuple[float, ...]
    witness_indices: tuple[int, ...]
    steps: tuple[ExtractionStep, ...]
    onset_index: int | None
    certified_energy: float | None
    exclusion_radius: float
    near_flat_boundary: bool


@dataclass(frozen=True)
class BoundedCandidate:
    """Cluster whose dichotomy never forced concentration: bounded after all."""

    location: tuple[float, ...]
    witness_indices: tuple[int, ...]
    max_value: float


@dataclass(frozen=True)
class ConcentrationReport:
    points: tuple[ConcentrationPoint, ...]
    bounded_candidates: tuple[BoundedCandidate, ...]
    merges: tuple[MergeEvent, ...]
    surviving_indices: tuple[int, ...]
    residual_bounds: dict = field(default_factory=dict)  # index -> sup on complement
    energy_bound: float = 0.0
    hbar: float = 0.0
    max_points: int = 0
    divergence_threshold: float = 0.0
    cluster_radius: float = 0.0
    budget_exhausted: bool = False

    @property
    def count(self) -> int:
        return len(self.points)

    def as_dict(self) -> dict:
        return {**record(self), "count": self.count,
                "residual_bounds": {str(k): v for k, v in sorted(self.residual_bounds.items())}}


def _clear_ball(domain, allowed, center, radius) -> None:
    """Clear in the in-mask vector ``allowed`` the nodes within Euclidean
    distance ``radius`` of ``center``, read from the ball's window."""
    for positions, points in domain._window_nodes(domain.window(center, radius)):
        dist = _squared_gaps(points.T, center)
        allowed[positions] &= np.sqrt(dist, out=dist) > radius


def _ball_energies(seq: DensitySequence, center, radius: float, indices) -> dict:
    """The energy of each field of ``indices`` in B_radius(center), as
    ``concentration_energy`` gives it, from one quadrature of the ball, which
    dies on return."""
    positions, weights = seq.domain.ball_weights(center, radius)
    return {i: float(np.dot(seq.fields[i].values[positions], weights)) for i in indices}


def _allowed_argmax(values, allowed) -> int:
    """Position of the first largest of the finite ``values`` at the
    ``allowed`` positions of an in-mask vector, C order."""
    return int(np.argmax(np.where(allowed, values, -np.inf)))


def detect_concentration(seq: DensitySequence, ledger: ConstantLedger,
                         divergence_threshold: float) -> ConcentrationReport:
    """Iteratively extract concentration points.

    Each round: find the largest cluster of above-threshold argmax nodes over
    the active subsequence; run the dichotomy along its witnesses; when some
    step forces concentration, certify the measured ball energies, record the
    point, exclude its neighborhood, and keep only the witness subsequence.
    Clusters that never force concentration are recorded as bounded and
    removed from the candidate search. Stops when no candidate remains or the
    budget floor(E / hbar) is reached.
    """
    if not 0.0 < divergence_threshold < math.inf:  # False at NaN too
        raise MVLabError(f"divergence threshold must be finite and > 0, "
                         f"got {divergence_threshold!r}")
    if ledger.hbar is None or ledger.hbar <= 0:
        raise MVLabError("detector needs hbar = mu(a, b) > 0 in the ledger")
    dom = seq.domain
    n = dom.dimension
    h = dom.spacing
    cluster_radius = 4.0 * h    # argmaxes this close join one cluster
    exclusion_floor = 8.0 * h   # smallest radius an extraction or dismissal clears
    hbar = ledger.hbar
    budget = int(math.floor(seq.energy_bound / hbar))
    need = int(math.ceil(math.sqrt(len(seq))))

    active = list(range(len(seq)))
    allowed = np.ones(dom.node_count, dtype=bool)  # outside every ball cleared so far
    points: list[ConcentrationPoint] = []
    bounded: list[BoundedCandidate] = []
    merges: list[MergeEvent] = []
    budget_exhausted = False

    while allowed.any():
        argmaxes = {}
        for i in active:
            k = _allowed_argmax(seq.fields[i].values, allowed)
            argmaxes[i] = (dom._node_points(dom._mask_nodes[k])[0],
                           float(seq.fields[i].values[k]))
        witnesses = [i for i in active if argmaxes[i][1] > divergence_threshold]
        if len(witnesses) < need:
            break

        # largest cluster of witness argmaxes; ties resolved toward the
        # lexicographically smallest anchor point, then the first witness
        members = {i: [j for j in witnesses
                       if np.linalg.norm(argmaxes[j][0] - argmaxes[i][0]) <= cluster_radius]
                   for i in witnesses}
        anchor = min(witnesses, key=lambda i: (-len(members[i]), tuple(argmaxes[i][0])))
        if len(members[anchor]) < need:
            break
        cluster = sorted(members[anchor])

        scales = []  # per witness: R, delta and the dichotomy
        for i in cluster:
            R = argmaxes[i][1] ** (1.0 / n)
            scales.append((R, R ** (-0.5), quantization_dichotomy(R, seq.params, hbar,
                                                                   ledger.c_master)))
        forced_any = any(dich.forced for _, _, dich in scales)
        # a forced round extracts a point at the last witness's node with the
        # exclusion radius, or merges it into the first point it comes near
        location = argmaxes[cluster[-1]][0]
        delta_excl = max(max(delta for _, delta, _ in scales), exclusion_floor)
        gaps = [float(np.linalg.norm(location - np.asarray(p.location))) for p in points]
        target = next((k for k, p in enumerate(points)
                       if gaps[k] <= 2.0 * max(delta_excl, p.exclusion_radius)), None)
        # the round's distinct balls, each with the fields whose energy in it
        # is read: every witness's own ball, and the onset ball with every
        # cluster field when a new point is appended; each quadrature is built
        # once, and one is alive at a time
        balls = {}
        for i, (_, delta, _) in zip(cluster, scales):
            balls.setdefault((tuple(argmaxes[i][0]), delta), set()).add(i)
        onset_ball = (tuple(location), delta_excl)
        if forced_any and len(points) < budget and target is None:
            balls.setdefault(onset_ball, set()).update(cluster)
        energies = {ball: _ball_energies(seq, ball[0], ball[1], indices)
                    for ball, indices in balls.items()}

        steps = []
        for i, (R, delta, dich) in zip(cluster, scales):
            z = argmaxes[i][0]
            energy = energies[tuple(z), delta][i]
            if dich.forced and energy <= hbar:
                raise QuantizationViolated(
                    f"index {i}: dichotomy forces concentration at R={R:.6g} "
                    f"but the ball of radius {delta:.6g} holds {energy:.6g} <= "
                    f"hbar={hbar:.6g}")
            steps.append(ExtractionStep(i, tuple(float(x) for x in z), float(R),
                                        float(delta), float(energy),
                                        dich.branch.value))

        if not forced_any:
            bounded.append(BoundedCandidate(steps[-1].z, tuple(cluster),
                                            max(argmaxes[i][1] for i in cluster)))
            # remove the candidate at the scale the dichotomy certified it,
            # or its own shoulder re-triggers the cluster search
            _clear_ball(dom, allowed, location, delta_excl)
            active = cluster
            continue

        # bounded findings are free; the energy budget caps extractions only
        if len(points) >= budget:
            budget_exhausted = True
            break

        if target is not None:
            existing = points[target]
            merges.append(MergeEvent(tuple(location), target, gaps[target]))
            grown = max(existing.exclusion_radius, gaps[target] + delta_excl)
            # a merge only grows the ball, so clearing it again keeps the union
            _clear_ball(dom, allowed, existing.location, grown)
            points[target] = replace(existing, exclusion_radius=grown)
            active = cluster
            continue

        # onset: first witness index past which the fixed-scale ball at the
        # extracted point always carries more than hbar
        conc = energies[onset_ball]
        onset = None
        for pos, i in enumerate(cluster):
            if all(conc[j] > hbar for j in cluster[pos:]):
                onset = i
                break
        certified = (min(conc[j] for j in cluster if j >= onset)
                     if onset is not None else None)

        near_flat = bool(dom.kind == HALF_BALL and location[0] <= 4.0 * h)
        points.append(ConcentrationPoint(
            tuple(float(x) for x in location), tuple(cluster), tuple(steps),
            onset, certified, float(delta_excl), near_flat))
        _clear_ball(dom, allowed, location, float(delta_excl))
        active = cluster

    rest = np.ones(dom.node_count, dtype=bool)  # outside the points' final balls
    for p in points:
        _clear_ball(dom, rest, p.location, p.exclusion_radius)
    residual = {i: float(np.max(seq.fields[i].values, where=rest, initial=-np.inf))
                if rest.any() else None for i in active}
    return ConcentrationReport(
        tuple(points), tuple(bounded), tuple(merges), tuple(active), residual,
        seq.energy_bound, hbar, budget, divergence_threshold, cluster_radius,
        budget_exhausted)
