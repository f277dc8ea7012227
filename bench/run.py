"""polyseq's benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload {table,verify,oracle} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-check
    python3 bench/run.py --write-reference

Run it from the repository root. It is a closed loop with one caller: each
pass of a workload runs in a fresh interpreter (bench/child.py), so the memo
tables start cold as they do for a command-line user, and passes run one
after another until the next one would end past --seconds (at least two
run). The seed only shuffles the order of a workload's ops; every op's
output is checked against the digest stored in bench/reference.json.

With --trace 0 it reports the end-to-end metrics: setup_s (time to import
polyseq, median over several fresh interpreters), ops_per_s, op_p50_ms and
op_p90_ms (over every op of every pass) and peak_rss_mb (median over passes).
The times are at reference speed (see bench/child.py), which takes out the
drift in the speed of a shared machine; the wall-clock figures are printed
next to them. The error rate is failed / attempted ops, where a failed op is
a wrong output, a `fail` verdict, an exception other than an expected
`HypothesisViolation`, or a skip where none is expected or the reverse. With
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see bench/README.md).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A record of the run, with its metadata, goes
to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, shuffled_indices  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
CALIBRATION_REFERENCE_S = 0.001
CALIBRATION_WINDOW_S = 0.25
CHILD_TIMEOUT_S = 150
SKIP = "skip"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"calls": "count", "_s": "s", "_share": "ratio", "_bits": "bits", "_bytes": "bytes"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child(*args: str) -> dict:
    """Run bench/child.py in a fresh interpreter and return the JSON record it prints."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("POLYSEQ_TRUNCATION", None)  # the workloads use the default truncation
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not end within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, spans: Path | None = None, perturb: int | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    if spans is not None:
        args += ["--trace", str(spans)]
    if perturb is not None:
        args += ["--perturb", str(perturb)]
    return child(*args)


def failures(results: list[str], expected: list[str]) -> int:
    return sum(got != want for got, want in zip(results, expected, strict=True))


def metadata() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyseq").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min_start": os.getloadavg()[0],
    }


def timed_passes(seconds: float, one_round, at_least: int) -> list:
    """Call `one_round` until the next call would end past `seconds`, but at least `at_least` times."""
    rounds = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(one_round())
        last = time.monotonic() - t
        if len(rounds) >= at_least and time.monotonic() - start + last > seconds:
            return rounds


def reference_times(p: dict) -> list[float]:
    """Each op's time scaled by 1 ms over the median calibration time within 0.25 s of the op."""
    at = [t for t, _ in p["samples"]]
    took = [d for _, d in p["samples"]]
    scaled = []
    for start, t in zip(p["starts"], p["times"]):
        lo = bisect_left(at, start - CALIBRATION_WINDOW_S)
        hi = bisect_right(at, start + t + CALIBRATION_WINDOW_S)
        nearby = took[lo:hi] or took[max(0, lo - 1) : lo]
        scaled.append(t * CALIBRATION_REFERENCE_S / statistics.median(nearby))
    return scaled


def import_reference_s(p: dict) -> float:
    return p["import_s"] * CALIBRATION_REFERENCE_S / p["import_calibration_s"]


def timing(times: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
    }


def tally(passes: list[dict], expected: list[str]) -> dict:
    return {
        "passes": len(passes),
        "attempted": sum(len(p["results"]) for p in passes),
        "failed": sum(failures(p["results"], expected) for p in passes),
        "skipped": sum(p["results"].count(SKIP) for p in passes),
    }


def end_to_end(workload: str, seed: int, seconds: float, expected: list[str]) -> tuple[dict, dict]:
    probes = [child("--import-only") for _ in range(SETUP_PROBES)]
    passes = timed_passes(seconds, lambda: run_pass(workload, seed), at_least=2)
    metrics = {
        "setup_s": statistics.median(import_reference_s(p) for p in probes + passes),
        **timing([t for p in passes for t in reference_times(p)]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    counts = tally(passes, expected)
    counts["wall_clock"] = {
        "setup_s": statistics.median(p["import_s"] for p in probes + passes),
        **timing([t for p in passes for t in p["times"]]),
    }
    return metrics, counts


def traced(workload: str, seed: int, seconds: float, expected: list[str]) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}.spans"
    pairs = timed_passes(seconds, lambda: (run_pass(workload, seed), run_pass(workload, seed, spans=spans)), at_least=1)
    layers = [t["layers"] for _, t in pairs]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.wall_s"] = statistics.median(t["wall_s"] for _, t in pairs)
    traced_s = sum(sum(reference_times(t)) for _, t in pairs)
    metrics["trace.overhead_share"] = traced_s / sum(sum(reference_times(u)) for u, _ in pairs) - 1
    counts = tally([p for pair in pairs for p in pair], expected)
    counts["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, counts


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return next((unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def benchmark(args) -> int:
    expected = load_reference()[args.workload]
    meta = metadata()
    measure = traced if args.trace else end_to_end
    metrics, counts = measure(args.workload, args.seed, args.seconds, expected)
    meta["load_1min_end"] = os.getloadavg()[0]
    error_rate = counts["failed"] / counts["attempted"]

    print(f"polyseq benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    print(
        f"  {counts['passes']} passes, {counts['attempted']} ops attempted "
        f"({len(expected)} per pass, {counts['skipped']} hypothesis skips), {counts['failed']} failed"
    )
    print(f"  {'error_rate':<32} {error_rate:.6g} failed/op")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit_of(name)}")
    for name, value in counts.get("wall_clock", {}).items():
        print(f"  {name + ' (wall clock)':<32} {value:.6g} {unit_of(name)}")

    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, meta=meta, counts=counts, error_rate=error_rate)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Seed independence and planted faults; prints one PASS/FAIL line per check."""
    reference = load_reference()
    outcomes = []

    def check(ok: bool, what: str) -> None:
        outcomes.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    results = {}
    for workload, make in WORKLOADS.items():
        count = len(make())
        a, b = shuffled_indices(count, 1), shuffled_indices(count, 2)
        check(sorted(a) == sorted(b) == list(range(count)) and a != b, f"{workload}: seeds 1 and 2 order the same {count} ops differently")
        one, two = run_pass(workload, 1), run_pass(workload, 2)
        results[workload] = one["results"]
        check(one["results"] == two["results"], f"{workload}: seeds 1 and 2 give the same output for every op")
        check(failures(one["results"], reference[workload]) == 0, f"{workload}: clean pass has error_rate 0")

    target = next(i for i, r in enumerate(reference["verify"]) if r != SKIP)
    planted = failures(run_pass("verify", 1, perturb=target)["results"], reference["verify"])
    check(planted > 0, f"verify: perturb_index=0 on op {target} gives error_rate {planted}/{len(reference['verify'])} > 0")
    corrupted = ["0" * 16] + reference["table"][1:]
    planted = failures(results["table"], corrupted)
    check(planted > 0, f"table: a changed stored reference gives error_rate {planted}/{len(corrupted)} > 0")
    return 0 if all(outcomes) else 1


def write_reference() -> int:
    """Store each op's output digest, from one pass per workload, as the correctness reference."""
    reference = {}
    for workload in WORKLOADS:
        results = run_pass(workload, 0)["results"]
        errors = [r for r in results if r.startswith("error")]
        if errors:
            raise BenchError(f"{workload}: {len(errors)} ops failed, first: {errors[0]}")
        reference[workload] = results
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: " + ", ".join(f"{w} {len(r)} ops" for w, r in reference.items()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check seed independence and planted faults")
    parser.add_argument("--write-reference", action="store_true", help="store the current outputs as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyseq" / "__init__.py").is_file():
        print(f"error: no polyseq sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
