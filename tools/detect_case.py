"""Time and memory of the n = 4 one-bubble detector case, in one fresh process.

Run from the root of a checkout:

    python3 tools/detect_case.py --spacing 1/64

The case: one bubble at the centre of the r = 0.5 ball in n = 4, the
schedule lambda = 1/4, 0.177, 1/8, fitted nonlinearities, C = 3 and the
divergence threshold 50, at spacing h = 1/64 or 1/80. It imports ``mvlab``
from this checkout's ``src`` and uses its public API only. It prints one
JSON line: the seconds of the domain build (with the mask), of
``gen_sequence`` and of ``detect_concentration``; the process's
``ru_maxrss`` after them; the extracted points; the number of ball
quadratures the detection builds (``Domain.ball_weights`` calls, counted in
the untraced detection); the sha256 of the canonical
report record, which is the same on two trees exactly when their records
agree bit for bit; and the tracemalloc peak of a second, traced detection
(the allocations made while it runs, so the fields it reads do not count).
The detection runs twice because tracing slows it by about 40%. Run the
script once per process: ``ru_maxrss`` never falls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spacing", choices=("1/64", "1/80"), default="1/64",
                        help="grid spacing h (default 1/64)")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from mvlab import (GeneratorSpec, detect_concentration, gen_sequence,
                       make_ball_domain, make_ledger)
    from mvlab.grid import Domain
    from mvlab.report import canonical_json

    n = 4
    start = time.perf_counter()
    dom = make_ball_domain([0.0] * n, 0.5, float(Fraction(args.spacing)), n)
    dom.in_mask  # the mask pass
    built = time.perf_counter()
    seq = gen_sequence([GeneratorSpec("bubble", center=(0.0,) * n)], [1 / 4, 0.177, 1 / 8], dom)
    generated = time.perf_counter()
    ledger = make_ledger(n, seq.params.a, seq.params.b, 3.0)
    ball_weights, balls = Domain.ball_weights, []

    def counted(domain, center, radius):
        balls.append(radius)
        return ball_weights(domain, center, radius)

    Domain.ball_weights = counted
    rep = detect_concentration(seq, ledger, divergence_threshold=50.0)
    detected = time.perf_counter()
    Domain.ball_weights = ball_weights
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    detect_concentration(seq, ledger, divergence_threshold=50.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "spacing": args.spacing, "in_mask_nodes": dom.node_count,
        "build_s": round(built - start, 3), "gen_sequence_s": round(generated - built, 3),
        "detect_s": round(detected - generated, 3), "max_rss_mb": round(max_rss, 1),
        "points": [p.location for p in rep.points], "ball_quadratures": len(balls),
        "record_sha256": hashlib.sha256(canonical_json(rep.as_dict()).encode()).hexdigest(),
        "detect_peak_mb": round(peak / 2**20, 1)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
