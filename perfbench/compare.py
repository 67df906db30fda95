#!/usr/bin/env python3
"""Compare two commits' benchmark runs, paired by seed, against the bounds.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result records ``run.py --out DIR`` wrote for
one commit. A base record and a new record of the same workload, trace
mode and seed form a pair; make the two runs of a pair back to back,
alternating which commit runs first (see README.md), so that slow drift
of the host clock hits both sides of every pair alike. Seeds present on
one side only are ignored.

For each workload and end-to-end metric the helper prints both sides'
median and quartiles (``statistics.quantiles(values, n=4)``), the median
of the per-pair ratios new/base as a change, how many pairs the new
commit won, and a verdict:

* ``better``     the new commit wins at least 9/10 of the pairs (ties
                 count for neither) and the change beats the base runs'
                 own quartile spread;
* ``regressed``  the change is worse than the metric's bound, and the
                 base runs spread less than the bound or the new commit
                 loses at least 9/10 of the pairs;
* ``unresolved`` the base runs spread wider than the bound, so a change
                 inside that spread cannot be told from noise;
* ``same``       otherwise.

The modeled metrics are a function of the seed, so they are also
compared seed by seed: any pair that differs is flagged as ``changed``,
whatever the bound says. Per-layer metrics from traced records are
listed with their medians and change only: they have no bound. Exit
status is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics that repeat bit for bit for a seed.
DETERMINISTIC = ("modeled_qps", "modeled_p50_us", "modeled_p99_us",
                 "scm_bytes_per_req", "write_amp")
#: Share of pairs a side must win for a verdict to rest on it.
WIN_SHARE = 0.9


def load(directory: Path, trace: int) -> dict:
    """``{workload: {seed: record}}`` over the records in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("schema") != "perfbench-result/1":
            continue
        if record["trace"] != trace:
            continue
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def pairs(base: dict, new: dict, name: str):
    """``[(base value, new value)]`` per shared seed, in seed order."""
    return [(base[seed]["metrics"][name]["value"],
             new[seed]["metrics"][name]["value"])
            for seed in sorted(set(base) & set(new))
            if name in base[seed]["metrics"]
            and name in new[seed]["metrics"]]


def summary(values):
    """``(median, q1, q3)``; a single run is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def change(paired) -> float:
    """Median over pairs of new/base - 1; 0 when every pair is equal."""
    return statistics.median(
        n / b - 1.0 if b else (0.0 if n == b else float("inf"))
        for b, n in paired)


def verdict(paired, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * n < sign * b for b, n in paired)
    losses = sum(sign * n > sign * b for b, n in paired)
    b_med, b_q1, b_q3 = summary([b for b, _ in paired])
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    worse = sign * change(paired)
    if wins >= WIN_SHARE * len(paired) and -worse > spread:
        return "better"
    if worse > bound and (spread <= bound
                          or losses >= WIN_SHARE * len(paired)):
        return "regressed"
    if spread > bound:
        return "unresolved"
    return "same"


def alternated(base: dict, new: dict) -> bool:
    """False when one side's runs all started before the other's."""
    started = [(r.get("started_unix"), side)
               for side, records in (("base", base), ("new", new))
               for r in records.values()]
    if any(t is None for t, _ in started):
        return True
    sides = [side for _, side in sorted(started)]
    return sum(a != b for a, b in zip(sides, sides[1:])) > 1


def _cell(values) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="base commit's records")
    parser.add_argument("new", type=Path, help="new commit's records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    regressed = 0
    base, new = load(args.base, 0), load(args.new, 0)
    print(f"{'workload':<14}{'metric':<20}{'base median [q1, q3]':>40}"
          f"{'new median [q1, q3]':>40}{'change':>9}{'wins':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        if not alternated(b_runs, n_runs):
            print(f"{workload}: every run of one commit came before the "
                  "other's, so host drift enters every pair")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            paired = pairs(b_runs, n_runs, name)
            if not paired:
                continue
            result = verdict(paired, metric["better"], metric["bound"])
            regressed += result == "regressed"
            if name in DETERMINISTIC:
                moved = sum(b != n for b, n in paired)
                if moved:
                    result += f", changed on {moved}/{len(paired)} seeds"
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * n < sign * b for b, n in paired)
            print(f"{workload:<14}{name:<20}"
                  f"{_cell([b for b, _ in paired]):>40}"
                  f"{_cell([n for _, n in paired]):>40}"
                  f"{change(paired):>+9.1%}{f'{wins}/{len(paired)}':>7}"
                  f"  {result}")

    base, new = load(args.base, 1), load(args.new, 1)
    for workload in sorted(set(base) & set(new)):
        print(f"\nper-layer, {workload} (median base -> new)")
        for metric in spec["per_layer"]:
            paired = pairs(base[workload], new[workload], metric["name"])
            if paired:
                b = statistics.median(b for b, _ in paired)
                n = statistics.median(n for _, n in paired)
                print(f"  {metric['name']:<34}{b:>14.6g}{n:>14.6g}"
                      f"{change(paired):>+9.1%}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
