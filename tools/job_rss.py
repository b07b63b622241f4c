"""Peak RSS of one perfbench job, run alone in a fresh process.

Run from the root of a checkout:

    python3 tools/job_rss.py --workload halfball-quadrature --seed 7 --job estimate-c-n4

It imports ``mvlab`` from this checkout's ``src`` and perfbench's ``workloads``
and ``worker`` modules (read-only), caps the BLAS/OpenMP pools at ``nproc`` as
``perfbench/run.py`` does, imports ``mvlab.cli``, writes the job's inputs
(field files included) to a temporary directory, and runs the job once
through ``mvlab.cli.main``. It prints one JSON line: ``ru_maxrss`` in MB
before the job (after the import and the set-up) and after it, their
difference, the job's exit code and its wall time. Run it once per process:
``ru_maxrss`` never falls, so a second job in one process would only show
the larger of the two peaks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", required=True, help="a job id of the workload")
    parser.add_argument("--smoke", action="store_true", help="the tiny-grid variant")
    args = parser.parse_args()

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import mvlab.cli
    import workloads
    from worker import materialize

    jobs = [job for job in workloads.jobs_for(args.workload, args.seed, args.smoke)
            if job.id == args.job]
    if not jobs:
        ids = [job.id for job in workloads.jobs_for(args.workload, args.seed, args.smoke)]
        parser.error(f"no job {args.job!r} in {args.workload}; its jobs: {', '.join(ids)}")
    with tempfile.TemporaryDirectory(prefix="job-rss-") as work:
        argv = materialize(jobs, Path(work))[args.job]
        before = peak_mb()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = mvlab.cli.main(argv)
        elapsed = time.perf_counter() - start
        after = peak_mb()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "job": args.job,
                      "exit": code, "job_s": round(elapsed, 4), "before_mb": round(before, 1),
                      "after_mb": round(after, 1), "growth_mb": round(after - before, 1)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
