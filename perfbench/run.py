"""Benchmark of the mvlab CLI on three workloads of verdict jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload halfball-quadrature --seed 1 \\
        --seconds 20 --trace 0

Each workload (see ``workloads.py``) is a fixed list of CLI jobs built from
the seed. This script measures set-up in fresh processes, then starts one
fresh worker process (``worker.py``) that runs the job list in a closed loop
as often as fits in ``--seconds`` (at least once) and, with ``--trace 1``,
once more traced. It checks every job's output, keeps the full result and the spans
under ``.perfbench-work/results/``, and prints one JSON line last:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``--smoke`` runs the tiny-grid variant of the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5        # fresh processes timing set-up; the median is reported
TIME_LIMIT_S = 170.0     # the whole run, set-up samples included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# self times of these spans; "self_s" is a span's time minus its children's
SELF_TIMES = {
    "calculus.integrate.full.self_s": ("calculus.integrate.full",),
    "calculus.integrate.subregion.self_s": ("calculus.integrate.subregion",),
    "grid.Domain.region_contains.self_s": ("grid.Domain.region_contains",),
    "grid.segment_distance.self_s": ("grid.segment_distance",),
    "grid.Domain.points.self_s": ("grid.Domain.points",),
    "grid.Domain.center_distances.self_s": ("grid.Domain.center_distances",),
    "grid.Domain.sqrt_det_metric.self_s": ("grid.Domain.sqrt_det_metric",),
    "grid.metric_deviation.self_s": ("grid.metric_deviation",),
    "grid.make_domain.self_s": ("grid.make_ball_domain", "grid.make_half_ball_domain"),
    "calculus.weak_subharmonic_test.self_s": ("calculus.weak_subharmonic_test",),
    "calculus.laplacian.self_s": ("calculus.laplacian",),
    "calculus.shell_profile.self_s": ("calculus.shell_profile",),
    "calculus.interpolate.self_s": ("calculus.interpolate",),
    "calculus.normal_derivative.self_s": ("calculus.normal_derivative",),
    "verify.estimate_constant.self_s": ("verify.estimate_constant",),
    "verify.checkers.self_s": ("verify.verify_morrey", "verify.verify_interior_mvi",
                               "verify.verify_boundary_mvi"),
    "verify.monotonicity_suite.self_s": ("verify.monotonicity_suite",),
    "heinz.heinz_scan.self_s": ("heinz.heinz_scan",),
    "quantization.detect_concentration.self_s": ("quantization.detect_concentration",),
    "synth.gen.self_s": ("synth.gen",),
    "synth.gen_sequence.self_s": ("synth.gen_sequence",),
    "fieldio.read_field.self_s": ("fieldio.read_field",),
    "fieldio.write_field.self_s": ("fieldio.write_field",),
    "report.write.self_s": ("report.write_records", "report.write_shell_csv",
                            "report.write_weak_csv", "report.write_detection_csv"),
}
CALLS = {
    "calculus.integrate.full.calls": "calculus.integrate.full",
    "calculus.integrate.subregion.calls": "calculus.integrate.subregion",
    "calculus.laplacian.calls": "calculus.laplacian",
    "cli.measure_c.calls": "cli.measure_c",
    "quantization.concentration_energy.calls": "quantization.concentration_energy",
    "synth.gen.calls": "synth.gen",
}


class BenchError(Exception):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json``, next to this directory, lists."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in THREAD_VARS})
    return env


def run_worker(args, src: Path, work: Path, result: Path, deadline: float,
               setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(src), "--work", str(work), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, env=child_env(src), timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    return json.loads(result.read_text(encoding="utf-8"))


def source_meta(root: Path, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "mvlab").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                      capture_output=True, text=True,
                                      check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            revision = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def end_to_end(res: dict, setup_samples: list[float]) -> dict[str, float]:
    passes = res["passes"]
    return {
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "slowest_job_s": max(statistics.median(p[job] for p in passes)
                             for job in passes[0]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "jobs_ok_ratio": res["ok"] / res["attempted"],
    }


def per_layer(res: dict, import_samples: list[float]) -> dict[str, float]:
    trace = res["trace"]
    spans = trace["summary"]

    def total(names, key):
        return sum(spans.get(name, {}).get(key, 0) for name in names)

    traced_wall = sum(trace["jobs"].values())
    untraced_wall = statistics.median(sum(p.values()) for p in res["passes"])
    integrate_calls = total(("calculus.integrate.full", "calculus.integrate.subregion"),
                            "calls")
    measure_c_s = total(("cli.measure_c",), "s")
    out = {name: total(spans_of, "self_s") for name, spans_of in SELF_TIMES.items()}
    out.update({name: total((span,), "calls") for name, span in CALLS.items()})
    out.update({
        "calculus.integrate.calls_per_domain":
            integrate_calls / max(trace["integrated_domains"], 1),
        "calculus.weak_subharmonic_test.calls_per_weak_job":
            total(("calculus.weak_subharmonic_test",), "calls") / max(res["weak_jobs"], 1),
        "cli.measure_c.s": measure_c_s,
        "cli.measure_c.share": measure_c_s / traced_wall,
        "fieldio.read_field.bytes": trace["bytes"].get("fieldio.read_field", 0),
        "fieldio.write_field.bytes": trace["bytes"].get("fieldio.write_field", 0),
        "report.write.bytes": trace["bytes"].get("report.write", 0),
        "import.mvlab_s": statistics.median(import_samples),
        "grid.box_nodes": sum(j["box_nodes"] for j in res["jobs"]),
        "grid.mask_nodes": sum(j["mask_nodes"] for j in res["jobs"]),
        "jobs_failed_ratio": 1.0 - res["ok"] / res["attempted"],
        "jobs.known_defect_failed": sum(res["known"].values()),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, one set-up sample")
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "mvlab" / "cli.py").is_file():
        print(f"no mvlab sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench_dir = root / ".perfbench-work"
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    run_dir = bench_dir / f"run-{label}-{os.getpid()}"
    results_dir = bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)

    try:
        setups = []
        for i in range(0 if args.smoke else SETUP_SAMPLES - 1):
            setups.append(run_worker(args, src, run_dir / f"setup{i}",
                                     run_dir / f"setup{i}.json", deadline, True))
        res = run_worker(args, src, run_dir / "main", results_dir / f"{label}.json",
                         deadline, False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setups.append(res)
    setup_samples = [s["setup_s"] for s in setups]
    import_samples = [s["import_s"] for s in setups]
    if args.trace:
        values, units = per_layer(res, import_samples), metric_units("per_layer")
    else:
        values, units = end_to_end(res, setup_samples), metric_units("end_to_end")
    if set(values) != set(units):
        print(f"metrics computed {sorted(values)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    res["meta"] = {
        **source_meta(root, src),
        **res["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: child_env(src)[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "passes": len(res["passes"]),
        "setup_samples": setup_samples,
        "known_defects": workloads.KNOWN_DEFECTS,
        "known_defect_failures": res["known"],
    }
    res["metrics"] = values
    (results_dir / f"{label}.json").write_text(json.dumps(res, indent=1),
                                               encoding="utf-8")

    for job in res["jobs"]:
        times = [p[job["id"]] for p in res["passes"]]
        state = "ok"
        if job["known_defect"] and not job["failed_checks"]:
            state = f"ok, known defect no longer shows: {job['known_defect']['defect']}"
        if job["failed_checks"]:
            state = ("FAILED" if job["known_failure"] is None
                     else f"FAILED (known defect {job['known_failure']})")
            state += ": " + "; ".join(m for _, m, _ in job["failed_checks"])
        digests = job["digest"]
        digest = digests[0][:12] if len(digests) == 1 else f"{len(digests)} differing"
        print(f"job {job['id']}: median {statistics.median(times):.4f} s, "
              f"box {job['box_nodes']} / mask {job['mask_nodes']} nodes, "
              f"digest {digest}, {state}")
    print("meta " + json.dumps(res["meta"], sort_keys=True))
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": len(res["unexpected"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
