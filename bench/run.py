"""Benchmark entry point for lieorbits.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the checkout's
src/lieorbits, imported from source by worker processes; this process only
starts them one at a time, waits for each, and reports.  With --trace 0 the
last stdout line is the end-to-end result; with --trace 1 it is the
per-layer result of the traced replay.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("weyl_parabolic", "matrix_algebra", "nilpotent_poset", "cli_calls")
# Fresh processes that only set up, this many before and as many after the
# measuring worker (which adds one more sample), so that set-up is sampled
# across the whole run rather than at one moment of a drifting host.
SETUP_PROBES = 4
START_PROBES = 5  # bare interpreters and bare imports timed for the traced run's cli stages
DEADLINE_S = 170  # every child must be done this long after start


class BenchError(Exception):
    pass


def child(argv, deadline) -> dict:
    """Run one child to completion and return the JSON object on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"child timed out: {' '.join(argv[1:4])}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed with exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def worker(*extra) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *extra]


def interpreter_start_ms(deadline) -> float:
    samples = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def quantile(values, q: int) -> float:
    """The q-th decile cut (exclusive method); needs at least ten samples beyond it."""
    return statistics.quantiles(values, n=10, method="exclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lieorbits", "__init__.py")):
        print(f"bench: no lieorbits source under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        probe = worker("--probe", "setup", "--workload", args.workload)
        probes = 0 if args.trace else SETUP_PROBES
        setups = [child(probe, deadline) for _ in range(probes)]
        res = child(
            worker(
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ),
            deadline,
        )  # fmt: skip
        setups.append(res)
        setups += [child(probe, deadline) for _ in range(probes)]
        if args.trace:
            start_ms = interpreter_start_ms(deadline)
            imports = [child(worker("--probe", "import"), deadline)["import_s"] for _ in range(START_PROBES)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    tally = res["tally"]
    lat = tally["latencies_ms"]
    attempted, passed = tally["attempted"], tally["passed"]
    failed = attempted - passed
    correct = not tally["unexpected"] and res["identical"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {res['passes']}  ops {attempted}")
    print(f"digest sha256 {res['digest']}" + ("" if res["identical"] else "  TRACED OUTPUT DIFFERS"))
    print(f"fail_ratio {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for kind, count in sorted(tally["unexpected"].items()):
        print(f"  unexpected failure: {kind} x{count}")
    for defect, count in sorted(tally["defects"].items()):
        print(f"  known defect: {defect} x{count}")

    for kind, (count, p50) in tally["kind_p50_ms"].items():
        print(f"  op {kind:38s} x{count:<5d} p50 {p50:10.3f} ms")

    if args.trace:
        layer = dict(res["layer"])
        layer["cli.python_start_ms"] = start_ms
        layer["cli.import_ms"] = statistics.median(imports) * 1e3
        print(f"spans {res['spans']} written to {res['span_file']}")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
    else:
        # times at the nominal host speed are the metrics; raw wall clock is printed beside them
        scaled = tally["scaled_ms"]
        metrics = {
            "setup_s": {"value": statistics.median(x["setup_scaled_s"] for x in setups), "unit": "s"},
            "ops_per_s": {"value": passed / (sum(scaled) / 1e3), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(scaled), "unit": "ms"},
            "latency_p90_ms": {"value": quantile(scaled, 9), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": passed / attempted, "unit": "ratio"},
        }
        print(
            f"raw wall clock: setup_s {statistics.median(x['setup_s'] for x in setups):.4f}"
            f"  ops_per_s {passed / (sum(lat) / 1e3):.4f}"
            f"  latency_p50_ms {statistics.median(lat):.4f}  latency_p90_ms {quantile(lat, 9):.4f}"
        )
        print(f"host.ref_loop_ms {res['ref_loop_ms']:.4f}  (median time of the reference kernel)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
