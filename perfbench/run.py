#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads on both clocks.

Run from the repository root::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up and runs fresh repetitions with no probes
installed, each on its own draw of inputs, until ``--seconds`` have
passed (at least the workload's ``draws`` of them), and reports the
end-to-end metrics: host wall clock next to the modeled device clock.
``--trace 1`` runs one untraced and one traced repetition and reports
the per-layer metrics plus the tracing overhead between the two. Every
run checks its answers outside the timed region (brute-force oracle,
conservation, repetition-to-repetition identity).

The run prints a table, writes a result record (and, traced, the spans)
under ``perfbench/results/``, and prints one JSON object as its last
line. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-batch", "zipf-planned", "live-ingest")

#: Nominal seconds of one :func:`reference_loop`: its mean on the 2-core
#: x86-64 VM the bounds were set on (Python 3.11).
REF_LOOP_S = 0.015
#: Most repetitions per untraced run; the least is the scenario's
#: ``draws``.
MAX_REPS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Run from the repository root; see perfbench/README.md.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start repetitions until this many seconds "
                        "have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result records and spans")
    return parser.parse_args(argv)


def git_commit():
    """The checkout's commit from ``.git`` files, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def reference_loop(n: int = 20000) -> int:
    """Fixed pure-Python work (dict updates, tuple appends, a sort) that
    shares no code with the program, so its time tracks the host alone.

    On a shared host the speed of the same work drifts by a third over
    minutes, and every phase of a run slows together: across twenty
    runs, set-up time and pass time correlated 0.8 to 0.9. This loop,
    timed around every phase, measures that drift.
    """
    table: dict = {}
    items = []
    for i in range(n):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
        items.append((key, i & 255))
    items.sort()
    return sum(value for _, value in items[::97]) + len(table)


def time_reference_loop(times, runs: int = 2) -> None:
    for _ in range(runs):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)


def _repetition(scenario, inputs, ref_times, recorder=None):
    """Fresh set-up plus one timed pass; returns (setup_s, pass, state).

    The reference loop runs before the set-up, between set-up and pass,
    and after the pass, outside both timings.
    """
    gc.collect()
    if recorder is not None:
        from layers import probes

        recorder.install(probes())
    try:
        time_reference_loop(ref_times)
        start = time.perf_counter()
        state = scenario.setup(inputs)
        setup_s = time.perf_counter() - start
        time_reference_loop(ref_times)
        result = scenario.run(inputs, state, recorder)
        time_reference_loop(ref_times)
    finally:
        if recorder is not None:
            recorder.uninstall()
    return setup_s, result, state


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", spans_path=None) -> dict:
    """Run one workload and return its result record.

    Untraced, repetition ``d`` runs draw ``d``: at least the scenario's
    ``draws`` of them, and more until ``seconds`` have passed since the
    run began. Wall metrics are medians over all repetitions; the
    modeled figures are medians over the first ``draws``, so they depend
    on the seed alone. Traced, draw 0 runs twice, untraced and then
    traced.
    """
    from layers import UNITS, traced_metrics
    from scenarios import SCENARIOS, percentile
    from spans import SpanRecorder

    started_unix = time.time()
    began = time.perf_counter()
    scenario = SCENARIOS[workload](seed, size)
    reps = []
    ref_times = []
    failures = []
    peak_rss_mb = None
    recorder = None
    while True:
        if trace and reps:
            recorder = SpanRecorder()
        inputs = scenario.inputs(0 if trace else len(reps))
        setup_s, result, state = _repetition(scenario, inputs, ref_times,
                                             recorder)
        if peak_rss_mb is None:
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024)
        failures += scenario.check(inputs, state, result)
        # Results kept alive would slow later passes' garbage collection.
        state = result.raw = None
        reps.append((setup_s, result))
        if trace:
            if len(reps) == 2:
                break
            continue
        if len(reps) >= MAX_REPS or (
                len(reps) >= scenario.draws
                and time.perf_counter() - began >= seconds):
            break
    attempted = sum(r.requests for _, r in reps)
    failed = min(attempted, sum(r.failed for _, r in reps) + len(failures))

    if trace:
        untraced = reps[0][0] + reps[0][1].wall_seconds
        traced = reps[1][0] + reps[1][1].wall_seconds
        metrics = dict(reps[1][1].layer)
        metrics.update(traced_metrics(recorder))
        metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        samples = {"spans": len(recorder.spans)}
    else:
        passes = [r for _, r in reps]
        per_pass = [sorted(r.latencies) for r in passes]
        modeled = [r.modeled for r in passes[:scenario.draws]]
        wall_qps = statistics.median(r.requests / r.wall_seconds
                                     for r in passes)
        wall_p50_ms = statistics.median(
            percentile(lat, 0.50) for lat in per_pass) * 1e3
        wall_p99_ms = statistics.median(
            percentile(lat, 0.99) for lat in per_pass) * 1e3
        # Above 1 when this run's host ran faster than the nominal one.
        speed = REF_LOOP_S / statistics.mean(ref_times)
        metrics = {
            "setup_s": statistics.median(s for s, _ in reps),
            "wall_qps": wall_qps,
            "wall_p50_ms": wall_p50_ms,
            "wall_p99_ms": wall_p99_ms,
            "ref_loop_ms": statistics.mean(ref_times) * 1e3,
            "norm_qps": wall_qps / speed,
            "norm_p50_ms": wall_p50_ms * speed,
            "norm_p99_ms": wall_p99_ms * speed,
            **{name: statistics.median(m[name] for m in modeled)
               for name in modeled[0]},
            "peak_rss_mb": peak_rss_mb,
            "error_rate": failed / attempted,
        }
        samples = {
            "setup_s_each": [s for s, _ in reps],
            "wall_qps_each": [r.requests / r.wall_seconds for r in passes],
            "wall_latency_per_pass": [len(lat) for lat in per_pass],
            "ref_loops": len(ref_times),
            "modeled_draws": len(modeled),
            "modeled_requests_per_draw": passes[0].requests,
        }
    record = {
        "schema": "perfbench-result/1",
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "run_seconds": seconds,
        "started_unix": started_unix,
        "machine": machine(),
        "repetitions": len(reps),
        "samples": samples,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(metrics.items())},
    }
    if trace and spans_path is not None:
        recorder.dump(spans_path, workload=workload, seed=seed,
                      setup_s=reps[1][0], pass_s=reps[1][1].wall_seconds,
                      overhead_pct=metrics["trace.overhead_pct"])
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), spans_path=args.out / f"spans-{stem}.json")
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={record['repetitions']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")

    section = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"][m["name"]]
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
