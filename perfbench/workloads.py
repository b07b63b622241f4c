"""The three benchmark workloads as lists of ``mvlab`` CLI jobs.

Every job is one ``mvlab.cli.main(argv)`` call on a JSON config that this
module builds from the workload seed. The seed moves amplitudes, offsets,
bubble positions and thresholds, never grid sizes, so every seed costs the
same work. Each job carries the output it must produce (``expect``, checked
by ``checks.py``); a job that fails today because of a known program defect
says how it fails in ``known_failure``.

``smoke=True`` gives a tiny-grid variant of each workload (n = 2 and 3,
coarse h) for the self-test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Known program defects. Jobs keep expecting the correct output, so each
# defect a job exposes shows as a failed job until the program is fixed.
KNOWN_DEFECTS = {
    "builtin-family-lifted-centre": (
        "with the default C='measure', every half-ball whose centre sits above "
        "the plane exits 3: cli.builtin_family centres its quadratic at y0 > 0, "
        "which breaks the Neumann sign; monotonicity does not even use C"),
    "monotonicity-default-radii": (
        "the default monotonicity radii (16h .. r - 4h) invert when h > r/20, "
        "so the n = 4, h = 1/10 job passes explicit radii"),
    "integrate-drops-outside-cells": (
        "calculus.integrate weighs straddling cells only at in-mask nodes, so "
        "the in-region part of cells whose node lies outside the mask is lost: "
        "full-ball integrals are low by O(h), -1.7% at n = 3, h = 1/32 and "
        "-3.7% at n = 4, h = 1/16, outside the 0.5% quadrature oracle"),
}


@dataclass
class KnownFailure:
    """How a known defect makes a job fail today.

    A failed run is booked under ``defect`` only when it fails exactly
    ``checks`` and every value in ``ranges`` (check name -> inclusive
    (low, high) of the value the check observed) lies in its range. Any
    other failure of the job is a new one."""
    defect: str                  # a KNOWN_DEFECTS id
    checks: tuple[str, ...]
    ranges: dict = field(default_factory=dict)


# exit 3 before any record is written
LIFTED_CENTRE = KnownFailure("builtin-family-lifted-centre", ("exit", "record"),
                             {"exit": (3, 3)})


def low_energy(h: float) -> KnownFailure:
    """The energy check failing by the integrate defect alone: the quadratics
    here lose 0.5-0.6 h of their mass, so a larger loss, a gain or a missing
    energy is a new failure."""
    return KnownFailure("integrate-drops-outside-cells", ("energy",),
                        {"energy": (-h, 0.0)})


@dataclass
class Job:
    id: str
    subcommand: str
    config: dict
    record: str                  # record file holding the verdict
    expect: dict                 # see checks.check_job
    known_failure: KnownFailure | None = None
    # a bubble sequence written to field files at set-up; the job reads
    # them through config["manifest"]["fields"]
    field_sequence: dict | None = None


def _ball(n, h, metric=None):
    cfg = {"kind": "ball", "dimension": n, "radius": 1.0, "spacing": h,
           "center": [0.0] * n}
    if metric is not None:
        cfg["metric"] = metric
    return cfg


def _half(n, h, y0=0.0):
    return {"kind": "half_ball", "dimension": n, "radius": 1.0, "spacing": h,
            "center": [y0] + [0.0] * (n - 1)}


def _quadratic(n, amplitude, offset):
    """amplitude |x|^2 + offset: subharmonic, zero normal derivative on the plane."""
    return {"kind": "quadratic", "amplitude": amplitude, "offset": offset,
            "center": [0.0] * n}


def sphere_volume(k: int) -> float:
    """Volume of the unit sphere S^k."""
    return 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


def quadratic_mass(n, amplitude, offset, half=False):
    """int over the unit ball (or the half-ball on the plane) of
    amplitude |x|^2 + offset, with the quadratic centred at the ball centre."""
    full = sphere_volume(n - 1) * (amplitude / (n + 2) + offset / n)
    return 0.5 * full if half else full


def halfball_quadrature(seed: int, smoke: bool = False) -> list[Job]:
    """Euclidean half-balls on the plane: weak-mode monotonicity, estimate-c,
    the Morrey and boundary checks with the measured C, and a lifted centre."""
    rng = random.Random(seed)
    h2, h3 = (1 / 32, 1 / 16) if smoke else (1 / 128, 1 / 32)
    jobs = []
    for n, h in ((2, h2), (3, h3)) + (() if smoke else ((4, 1 / 10),)):
        amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
        cfg = {"domain": _half(n, h), "generator": _quadratic(n, amp, off),
               "hypothesis_mode": "weak"}
        if h > 1 / 20:  # known defect: the default radii would invert
            cfg["radii"] = [0.4, 0.5, 0.6, 0.7, 0.8]
        jobs.append(Job(f"mono-weak-n{n}", "monotonicity", cfg,
                        "monotonicity.txt",
                        {"exit": 0, "verdict": "Holds", "limit_kind": "half"}))
    n_c, h_c = (3, 1 / 16) if smoke else (4, 1 / 16)
    jobs.append(Job(f"estimate-c-n{n_c}", "estimate-c", {"domain": _half(n_c, h_c)},
                    "estimate_c.txt", {"exit": 0, "measured_c_kind": "half_ball"}))

    amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    jobs.append(Job("morrey-n3", "verify-morrey",
                    {"domain": _half(3, h3), "generator": _quadratic(3, amp, off)},
                    "morrey.txt",
                    {"exit": 0, "verdict": "Holds",
                     "energy": quadratic_mass(3, amp, off, half=True)},
                    low_energy(h3)))
    amp, off = rng.uniform(0.008, 0.012), rng.uniform(0.002, 0.004)
    jobs.append(Job("boundary-n3", "verify-boundary",
                    {"domain": _half(3, h3), "generator": _quadratic(3, amp, off),
                     "params": {"a": 1.0, "b": 1.0}},
                    "boundary.txt",
                    {"exit": 0, "verdict": "Holds",
                     "energy": quadratic_mass(3, amp, off, half=True)},
                    low_energy(h3)))

    # pointwise monotonicity about a lifted centre, default ledger
    amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    jobs.append(Job("mono-lifted-n2", "monotonicity",
                    {"domain": _half(2, h2, y0=0.25),
                     "generator": _quadratic(2, amp, off)},
                    "monotonicity.txt",
                    {"exit": 0, "verdict": "Holds", "limit_kind": "full"},
                    LIFTED_CENTRE))
    return jobs


def metric_ball(seed: int, smoke: bool = False) -> list[Job]:
    """Balls with conformal, sine and polynomial metrics, plus one Euclidean
    n = 4 ball: domain build, metric checks and the metric Laplacian."""
    rng = random.Random(seed)
    h2, h3 = (1 / 32, 1 / 8) if smoke else (1 / 128, 1 / 32)
    conformal = {"preset": "conformal", "coefficient": 0.01, "axis": 1}
    sine = {"preset": "sine", "coefficient": 0.02, "entry": [0, 1], "axis": 1}
    poly = {"preset": "polynomial", "declared_deviation": 0.03,
            "terms": [[0, 0, 0.01, [0, 2]], [0, 1, 0.005, [1, 1]]]}
    jobs = []

    amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    jobs.append(Job("morrey-conformal-n3", "verify-morrey",
                    {"domain": _ball(3, h3, metric=conformal),
                     "generator": _quadratic(3, amp, off)},
                    "morrey.txt", {"exit": 0, "verdict": "Holds"}))
    for name, n, h, metric in (("conformal", 3, h3, conformal),
                               ("sine", 2, h2, sine), ("poly", 2, h2, poly)):
        amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
        jobs.append(Job(f"interior-{name}-n{n}", "verify-interior",
                        {"domain": _ball(n, h, metric=metric),
                         "generator": _quadratic(n, amp, off),
                         "params": {"A0": 1.0, "a": 0.01}, "ledger": {"C": 1.0}},
                        "interior.txt", {"exit": 0, "verdict": "Holds"}))

    center = [round(rng.uniform(-0.3, 0.3) / h3) * h3 for _ in range(3)]
    jobs.append(Job("heinz-conformal-n3", "heinz-scan",
                    {"domain": _ball(3, h3, metric=conformal),
                     "generator": {"kind": "bubble", "center": center,
                                   "scale": rng.uniform(0.2, 0.3),
                                   "amplitude": rng.uniform(1.0, 2.0)}},
                    "heinz.txt", {"exit": 0, "heinz_passed": True}))

    n4, h4 = (3, 1 / 16) if smoke else (4, 1 / 16)
    amp, off = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4)
    jobs.append(Job(f"interior-euclid-n{n4}", "verify-interior",
                    {"domain": _ball(n4, h4), "generator": _quadratic(n4, amp, off),
                     "params": {"A0": 1.0, "a": 0.01}, "ledger": {"C": 1.0}},
                    "interior.txt",
                    {"exit": 0, "verdict": "Holds",
                     "energy": quadratic_mass(n4, amp, off)},
                    low_energy(h4)))
    return jobs


def _random_centres(rng, count, radius, separation, h):
    """Grid-node centres inside B_radius, pairwise ``separation`` apart.

    Whole layouts are drawn until one fits: placing points one at a time
    can strand the last one (a first point near the centre leaves no room
    for a second one 0.6 away inside B_0.55)."""
    while True:
        chosen = [[round(rng.uniform(-radius, radius) / h) * h for _ in range(2)]
                  for _ in range(count)]
        if all(math.hypot(*p) <= radius for p in chosen) and all(
                math.dist(p, q) >= separation
                for i, p in enumerate(chosen) for q in chosen[:i]):
            return chosen


def bubble_detect(seed: int, smoke: bool = False) -> list[Job]:
    """detect-bubbles on inline sequences and on a field-file manifest, plus
    Euclidean Heinz scans: many small subregion integrals and argmax scans."""
    rng = random.Random(seed)
    h2, h3 = (1 / 128, 1 / 16) if smoke else (1 / 256, 1 / 32)
    ledger = {"C": 3.0}
    jobs = []

    amp = rng.uniform(3.5, 4.5)
    centres = [[0.5, 0.0], [-0.25, 0.4296875], [-0.25, -0.4296875]]
    three = {"bubbles": [{"kind": "bubble", "amplitude": amp, "center": c}
                         for c in centres],
             "schedule": [1 / 8, 1 / 16, 1 / 32, 1 / 64][:3 if smoke else 4],
             "divergence_threshold": 100.0}
    jobs.append(Job("detect-three-n2", "detect-bubbles",
                    {"domain": _ball(2, h2), "sequence": three, "ledger": ledger},
                    "detect.txt", {"exit": 0, "points": centres, "spacing": h2}))

    sched3 = [0.5, 0.35, 0.25, 0.18, 0.125][:3 if smoke else 5]
    centres3 = [[0.5625, 0.0, 0.0], [-0.5625, 0.0, 0.0]]
    jobs.append(Job("detect-two-n3", "detect-bubbles",
                    {"domain": _ball(3, h3),
                     "sequence": {"bubbles": [{"kind": "bubble", "center": c,
                                               "amplitude": rng.uniform(3.5, 4.5)}
                                              for c in centres3],
                                  "schedule": sched3,
                                  "divergence_threshold": 50.0 if smoke else 150.0},
                     "ledger": ledger},
                    "detect.txt", {"exit": 0, "points": centres3, "spacing": h3}))

    hr = 1 / 64 if smoke else 1 / 128
    refl = [[0.0, round(rng.uniform(-0.3, 0.3) / hr) * hr]]
    jobs.append(Job("detect-reflected-n2", "detect-bubbles",
                    {"domain": _half(2, hr),
                     "sequence": {"bubbles": [{"kind": "reflected_bubble",
                                               "center": refl[0],
                                               "amplitude": rng.uniform(3.5, 4.5)}],
                                  "schedule": [1 / 8, 1 / 16, 1 / 32][:2 if smoke else 3],
                                  "divergence_threshold": 50.0},
                     "ledger": ledger},
                    "detect.txt", {"exit": 0, "points": refl, "spacing": hr}))

    rand = _random_centres(rng, 2, 0.55, 0.6, hr)
    jobs.append(Job("detect-random-n2", "detect-bubbles",
                    {"domain": _ball(2, hr),
                     "sequence": {"bubbles": [{"kind": "bubble", "center": c,
                                               "amplitude": rng.uniform(3.0, 5.0)}
                                              for c in rand],
                                  "schedule": [1 / 8, 1 / 16, 1 / 32][:2 if smoke else 3],
                                  "divergence_threshold": rng.uniform(60.0, 100.0)},
                     "ledger": ledger},
                    "detect.txt", {"exit": 0, "points": rand, "spacing": hr}))

    # the three-bubble sequence again, read back from field files
    jobs.append(Job("detect-manifest-n2", "detect-bubbles",
                    {"manifest": {"fields": [], "divergence_threshold": 100.0},
                     "ledger": ledger},
                    "detect.txt", {"exit": 0, "points": centres, "spacing": h2},
                    field_sequence={"domain": _ball(2, h2), **three}))

    for n, h in ((2, h2), (3, h3)):
        centre = [round(rng.uniform(-0.3, 0.3) / h) * h for _ in range(n)]
        jobs.append(Job(f"heinz-n{n}", "heinz-scan",
                        {"domain": _ball(n, h),
                         "generator": {"kind": "bubble", "center": centre,
                                       "scale": rng.uniform(0.1, 0.2),
                                       "amplitude": rng.uniform(1.0, 2.0)}},
                        "heinz.txt", {"exit": 0, "heinz_passed": True}))
    return jobs


BUILDERS = {
    "halfball-quadrature": halfball_quadrature,
    "metric-ball": metric_ball,
    "bubble-detect": bubble_detect,
}
WORKLOADS = tuple(BUILDERS)


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    return BUILDERS[workload](seed, smoke)
