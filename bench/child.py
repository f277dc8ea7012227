"""One pass of a workload in a fresh interpreter, so polyseq's memo tables start cold.

    python3 bench/child.py ROOT --workload NAME --seed N [--trace SPANS] [--perturb I]
    python3 bench/child.py ROOT --import-only

Imports polyseq from ROOT/src, runs every op of the workload once in the
seed's order, and prints one JSON object as its last line: the import time,
the op loop's wall time, each op's time and output digest (in canonical op
order), and the process's peak resident memory. With --trace it also wraps
the layers, writes the spans to SPANS and adds the per-layer metrics.

The record also holds the calibration samples that bench/run.py uses to put
the times at reference speed: a fixed kernel of exact arithmetic, timed right
after the import and then before an op whenever 50 ms have passed since the
last sample.
"""

from __future__ import annotations

import os
import sys
import time

# Import polyseq first, before any module it imports itself, so that the
# timed import includes its whole set-up as a command-line user pays it.
SRC = os.path.realpath(os.path.join(sys.argv[1], "src"))
sys.path.insert(0, SRC)
_start = time.perf_counter()
import polyseq  # noqa: E402
import polyseq.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SKIP = "skip"
CALIBRATION_INTERVAL_S = 0.05


def calibration_s(clock=time.perf_counter) -> float:
    """Time one run of the calibration kernel: a harmonic sum in exact rationals."""
    start = clock()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return clock() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--perturb", type=int, default=None)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(polyseq.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polyseq was imported from {polyseq.__file__}, not from {SRC}")
    setup = {"import_s": IMPORT_S, "import_calibration_s": statistics.median(calibration_s() for _ in range(3))}
    if args.import_only:
        print(json.dumps(setup))
        return 0

    from tracer import Tracer
    from workloads import WORKLOADS, run_op, shuffled_indices

    ops = WORKLOADS[args.workload]()
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    times = [0.0] * len(ops)
    results = [""] * len(ops)
    starts = [0.0] * len(ops)
    samples: list[tuple[float, float]] = []  # (start, duration) of each calibration run
    output_bytes = 0
    clock = time.perf_counter
    loop_start = clock()
    last_sample = float("-inf")
    for i in shuffled_indices(len(ops), args.seed):
        if clock() - last_sample >= CALIBRATION_INTERVAL_S:
            last_sample = clock()
            samples.append((last_sample - loop_start, calibration_s(clock)))
        t = clock()
        starts[i] = t - loop_start
        try:
            out = run_op(polyseq, ops[i], perturb=i == args.perturb)
        except polyseq.HypothesisViolation:
            out = None
        except Exception as exc:  # any other error is a failed op; record it and go on
            times[i] = clock() - t
            results[i] = f"error: {type(exc).__name__}: {exc}"
            continue
        times[i] = clock() - t
        if out is None:
            results[i] = SKIP
        else:
            results[i] = digest(out)
            if ops[i][0] == "table":
                output_bytes += len(out.encode())
    wall_s = clock() - loop_start

    record = dict(
        setup,
        wall_s=wall_s,
        times=times,
        starts=starts,
        samples=samples,
        results=results,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        sweeps = [r for op, r in zip(ops, results) if op[0] == "verify"]
        skip_share = sweeps.count(SKIP) / len(sweeps) if sweeps else 0.0
        record["layers"] = tracer.layer_metrics(wall_s, skip_share, output_bytes)
        tracer.write_spans(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
