"""One workload process: import mvlab, write the inputs, run the job list.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src`` and the BLAS/OpenMP pools capped. It runs the job list in
a closed loop (one client, each job after the previous one ends) as many
times as fit in ``--seconds``, at least once; with ``--trace 1`` it then runs one
more pass with the tracer installed. It writes a JSON result to
``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer


def materialize(jobs, work: Path) -> dict[str, list[str]]:
    """Write every job's config (and field files) under ``work``; return the
    argv of each job."""
    from mvlab.config import domain_from_config, generator_from_config
    from mvlab.fieldio import write_field
    from mvlab.synth import gen_sequence

    work.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for job in jobs:
        if job.field_sequence is not None:
            spec = job.field_sequence
            domain = domain_from_config(spec["domain"])
            seq = gen_sequence([generator_from_config(b) for b in spec["bubbles"]],
                               spec["schedule"], domain)
            paths = []
            for i, field in enumerate(seq.fields):
                path = work / f"{job.id}-field{i}.txt"
                write_field(field, path)
                paths.append(str(path))
            job.config["manifest"].update(
                fields=paths, energy_bound=seq.energy_bound,
                params={"a": seq.params.a, "b": seq.params.b})
        config_path = work / f"{job.id}.json"
        config_path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
        argvs[job.id] = ["--config", str(config_path),
                         "--out", str(work / "out" / job.id), job.subcommand]
    return argvs


class Runner:
    """Runs jobs, checks their outputs and tallies the outcomes."""

    def __init__(self, jobs, argvs, work: Path):
        import checks  # imports mvlab: only after the timed import
        from mvlab.cli import main

        self.checks = checks
        self.cli_main = main
        self.jobs = jobs
        self.argvs = argvs
        self.work = work
        self.attempted = 0
        self.ok = 0
        self.unexpected: list[dict] = []
        self.known: dict[str, int] = {}
        self.digests: dict[str, set] = {job.id: set() for job in jobs}
        self.last_failures: dict[str, list] = {}
        self.last_known: dict[str, str | None] = {}

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = self.cli_main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = "exception"
                buf.write(traceback.format_exc())
        return code, buf.getvalue()

    def run_job(self, job, tracer: Tracer | None = None) -> float:
        out_dir = self.work / "out" / job.id
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        argv = self.argvs[job.id]
        start = time.perf_counter()
        if tracer is None:
            code, text = self._call(argv)
        else:
            tracer.job = job.id
            code, text = tracer.run("job", self._call, argv)
        elapsed = time.perf_counter() - start
        self._tally(job, code, text, out_dir)
        return elapsed

    def _tally(self, job, code, text, out_dir: Path) -> None:
        self.attempted += 1
        failed = self.checks.check_job(job, code, out_dir)
        defect = self.checks.known_failure(job, failed)
        self.last_failures[job.id] = failed
        self.last_known[job.id] = defect
        if out_dir.is_dir():
            self.digests[job.id].add(self.checks.output_digest(out_dir))
        if not failed:
            self.ok += 1
            return
        if defect is not None:
            self.known[defect] = self.known.get(defect, 0) + 1
            return
        self.unexpected.append({"job": job.id, "failed": failed,
                                "output": text[-2000:]})
        print(f"job {job.id} FAILED: {failed}\n{text[-2000:]}", file=sys.stderr)

    def run_pass(self, tracer: Tracer | None = None) -> dict[str, float]:
        return {job.id: self.run_job(job, tracer) for job in self.jobs}


def job_sizes(jobs) -> dict[str, dict]:
    """Box and in-mask node counts of each job's domain."""
    from mvlab.config import domain_from_config

    sizes = {}
    for job in jobs:
        cfg = job.config.get("domain") or job.field_sequence["domain"]
        domain = domain_from_config(cfg)
        sizes[job.id] = {"box_nodes": math.prod(domain.shape),
                         "mask_nodes": domain.node_count}
    return sizes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import mvlab.cli  # noqa: F401  (timed: the user's start-up cost)
    import_s = time.perf_counter() - t0
    import mvlab

    if not Path(mvlab.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"mvlab imported from {mvlab.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed, args.smoke)
    work = Path(args.work)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.job = "setup"
    argvs = materialize(jobs, work)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    result = {"import_s": import_s, "setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    runner = Runner(jobs, argvs, work)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:  # next pass would overrun
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.install()
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))
        result["trace"] = {
            "jobs": traced,
            "summary": tracer.summary(),
            "bytes": dict(tracer.bytes),
            "integrated_domains": tracer.integrated_domains,
        }

    import numpy
    import scipy

    sizes = job_sizes(jobs)
    result.update({
        "passes": passes,
        "attempted": runner.attempted,
        "ok": runner.ok,
        "unexpected": runner.unexpected,
        "known": runner.known,
        "weak_jobs": sum(1 for j in jobs if j.config.get("hypothesis_mode") == "weak"),
        "jobs": [{
            "id": job.id,
            "subcommand": job.subcommand,
            "failed_checks": runner.last_failures[job.id],
            "known_failure": runner.last_known[job.id],
            "known_defect": (dataclasses.asdict(job.known_failure)
                             if job.known_failure else None),
            "digest": sorted(runner.digests[job.id]),
            **sizes[job.id],
        } for job in jobs],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
