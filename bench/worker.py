"""The workload process: import lieorbits, set up, then run a closed loop of ops.

One client, one call in flight: each op's answer is checked before the next
op is sent.  Started by run.py with PYTHONPATH pointing at the checkout's
src/; prints one JSON object as its last stdout line.

    worker.py --probe setup  --workload W     set-up time of a fresh process
    worker.py --probe import                  time to import lieorbits.cli
    worker.py --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# A run keeps starting passes until it has measured --seconds and has this
# many op latencies, so that the reported p90 has at least ten samples above it.
MIN_SAMPLES = 110
# A run starts no new pass after this many seconds, so that it ends within
# the 180 s a run may take even on a slow host.
HARD_STOP_S = 120
# The traced run replays this many passes per workload (untraced and traced),
# so its call counts repeat exactly for a seed.
TRACE_PASSES = {"weyl_parabolic": 4, "matrix_algebra": 4, "nilpotent_poset": 2, "cli_calls": 16}
# The host's speed drifts by up to half over minutes (CPU time tracks wall
# time, so the host itself runs slower or faster).  Between ops, at most every
# REF_EVERY_S, the worker times a fixed reference kernel; each op's wall time
# is also reported scaled to a host on which that kernel takes REF_NOMINAL_MS.
REF_EVERY_S = 0.5
REF_NOMINAL_MS = 3.0


def timed_setup(name: str, root: str, in_process_cli: bool):
    """Import the package, set up and warm up; returns (workload, set-up s, reference-kernel ms).

    The benchmark's own imports and the generation of the warm-up inputs
    are not timed.
    """
    ref_before = ref_loop_ms()
    t0 = time.perf_counter()
    import lieorbits  # noqa: F401

    if name == "cli_calls":
        import lieorbits.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    wl = workloads.make(name, root, in_process_cli)
    t2 = time.perf_counter()
    wl.setup()
    t3 = time.perf_counter()
    warm = wl.warm_ops()
    t4 = time.perf_counter()
    workloads.warm_pass(warm)
    t5 = time.perf_counter()
    ref = (ref_before + ref_loop_ms()) / 2
    return wl, (t1 - t0) + (t3 - t2) + (t5 - t4), ref


def _ref_kernel() -> int:
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) % 1_000_003
    for i in range(400):
        x = Fraction(i % 13 - 6, i % 7 + 1)
        acc += (x * x + Fraction(1, 3)).numerator % 5
    return acc


def ref_loop_ms() -> float:
    """Median of three timings of a fixed kernel of integer and small-Fraction arithmetic.

    The kernel is the benchmark's own code, so its time tracks the speed of
    the host alone.
    """
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _ref_kernel()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


class HostClock:
    """Reference-kernel timings taken between ops, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.samples.append(ref_loop_ms())
            self._due = time.perf_counter() + REF_EVERY_S

    def scale(self) -> float:
        """Factor from wall time to time at the nominal host speed (last three timings)."""
        return REF_NOMINAL_MS / statistics.median(self.samples[-3:])


def canon(x):
    if is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in fields(x)]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, BaseException):
        return ["raised", type(x).__name__, str(x)]
    raise TypeError(f"no canonical form for {type(x).__name__}")


class Tally:
    """Outcomes of the ops of one run (or of one side of the traced run)."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.attempted = 0
        self.passed = 0
        self.unexpected: dict[str, int] = {}
        self.defects: dict[str, int] = {}
        self.output_bytes = 0
        self.by_kind: dict[str, list[float]] = {}

    def add(self, op, ms, scale, ok, value):
        self.latencies_ms.append(ms)
        self.scaled_ms.append(ms * scale)
        self.by_kind.setdefault(op.kind, []).append(ms)
        self.attempted += 1
        if ok:
            self.passed += 1
        elif op.defect:
            self.defects[op.defect] = self.defects.get(op.defect, 0) + 1
        else:
            self.unexpected[op.kind] = self.unexpected.get(op.kind, 0) + 1
        out = getattr(value, "out", None)
        if isinstance(out, str):
            self.output_bytes += len(out.encode())


def run_ops(ops, tally: Tally, digest, judge, host: HostClock, tracer=None):
    for op in ops:
        host.tick()
        if tracer is not None:
            tracer.begin_op(op.kind)
        err = value = None
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # the check decides whether this error was expected
            err = exc
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.end_op()
        tally.add(op, ms, host.scale(), judge(op, value, err), value)
        if digest is not None:
            line = json.dumps([op.kind, canon(err if err is not None else value)], separators=(",", ":"))
            digest.update(line.encode())
            digest.update(b"\n")


def pass_rng(seed: int, name: str, p: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{p}")


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(args, wl, judge) -> dict:
    tally, host = Tally(), HostClock()
    digest = hashlib.sha256()
    start = time.perf_counter()
    p = 0
    while True:
        ops = wl.make_pass(pass_rng(args.seed, args.workload, p))
        run_ops(ops, tally, digest if p == 0 else None, judge, host)
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and tally.attempted >= MIN_SAMPLES):
            break
    return {
        "tally": tally,
        "passes": p,
        "digest": digest.hexdigest(),
        "ref_loop_ms": statistics.median(host.samples),
        "peak_rss_mb": peak_rss_mb(args.workload),
        "identical": True,
    }


def traced(args, wl, judge) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced_tally, host = Tally(), Tally(), HostClock()
    first = None
    identical = True
    for p in range(TRACE_PASSES[args.workload]):
        ops = wl.make_pass(pass_rng(args.seed, args.workload, p))
        digests = {}
        # alternate which side runs first, so warm caches favour neither
        for side in ((False, True) if p % 2 == 0 else (True, False)):
            digest = hashlib.sha256()
            if side:
                tracer.install()
                try:
                    run_ops(ops, traced_tally, digest, judge, host, tracer=tracer)
                finally:
                    tracer.uninstall()
            else:
                run_ops(ops, plain, digest, judge, host)
            digests[side] = digest.hexdigest()
        identical = identical and digests[False] == digests[True]
        if p == 0:
            first = digests[True]
    os.makedirs(os.path.join(args.root, ".bench_out"), exist_ok=True)
    span_file = os.path.join(args.root, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    nspans = tracer.write_spans(span_file)
    layer = tracer.metrics()
    cli = args.workload == "cli_calls"
    layer["cli.main_ms"] = sum(plain.latencies_ms) if cli else 0.0
    layer["cli.output_bytes"] = plain.output_bytes if cli else 0
    layer["trace.overhead_ratio"] = sum(traced_tally.scaled_ms) / sum(plain.scaled_ms)
    layer["host.ref_loop_ms"] = statistics.median(host.samples)
    return {
        "tally": traced_tally,
        "passes": TRACE_PASSES[args.workload],
        "digest": first,
        "identical": identical,
        "layer": layer,
        "span_file": os.path.relpath(span_file, args.root),
        "spans": nspans,
    }


def tally_dict(t: Tally) -> dict:
    return {
        "latencies_ms": t.latencies_ms,
        "scaled_ms": t.scaled_ms,
        "attempted": t.attempted,
        "passed": t.passed,
        "unexpected": t.unexpected,
        "defects": t.defects,
        "kind_p50_ms": {k: [len(v), statistics.median(v)] for k, v in sorted(t.by_kind.items())},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", choices=("setup", "import"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    if args.probe == "import":
        t0 = time.perf_counter()
        import lieorbits.cli  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    in_process_cli = args.trace == 1
    wl, setup_s, setup_ref = timed_setup(args.workload, args.root, in_process_cli)
    setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * REF_NOMINAL_MS / setup_ref}
    if args.probe == "setup":
        print(json.dumps(setup))
        return 0
    import workloads

    out = (traced if args.trace else untraced)(args, wl, workloads.judge)
    result = {
        **setup,
        "passes": out["passes"],
        "digest": out["digest"],
        "identical": out["identical"],
        "tally": tally_dict(out["tally"]),
    }
    for key in ("ref_loop_ms", "peak_rss_mb", "layer", "span_file", "spans"):
        if key in out:
            result[key] = out[key]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
