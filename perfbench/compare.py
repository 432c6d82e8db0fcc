"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are folders of the result records that ``run.py`` keeps
under ``.bench_out/results/`` (searched recursively).  For every workload
and end-to-end metric this prints both sides' median and quartiles and a
verdict under the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` -- a side's spread (quartile distance over median) is wider
  than the bound, and not every NEW run reads better than every OLD run;
* ``worse`` -- NEW's median is worse than OLD's by more than the bound;
* ``better`` -- NEW's median is better by more than OLD's spread and NEW
  wins at least nine tenths of the pairs (runs of equal seed, or all pairs
  when no seeds match), or every NEW run beats every OLD run;
* ``unchanged`` -- otherwise.

Below that, the traced runs' per-layer medians and their change, with both
sides' ``machine.probe_ms`` beside them.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(folder: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(folder, "**", "*.json"),
                                 recursive=True)):
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), first, third


def verdict(old: list[tuple[int, float]], new: list[tuple[int, float]],
            bound: float, higher: bool) -> str:
    """Verdict for one metric from both sides' ``(seed, value)`` runs."""
    def gain(a: float, b: float) -> float:
        return (b - a) / a if higher else (a - b) / a

    old_values = [value for _, value in old]
    new_values = [value for _, value in new]
    old_median, old_q1, old_q3 = summary(old_values)
    new_median, new_q1, new_q3 = summary(new_values)
    old_spread = (old_q3 - old_q1) / old_median
    new_spread = (new_q3 - new_q1) / new_median
    dominates = all(gain(a, b) > 0 for a in old_values for b in new_values)
    if max(old_spread, new_spread) > bound:
        return "better" if dominates else "unresolved"
    change = gain(old_median, new_median)
    if change < -bound:
        return "worse"
    old_by_seed, new_by_seed = dict(old), dict(new)
    seeds = old_by_seed.keys() & new_by_seed.keys()
    pairs = ([(old_by_seed[s], new_by_seed[s]) for s in seeds] if seeds else
             [(a, b) for a in old_values for b in new_values])
    wins = sum(gain(a, b) > 0 for a, b in pairs) / len(pairs)
    if dominates or (change > old_spread and wins >= 0.9):
        return "better"
    return "unchanged"


def values(records, workload, trace, metric) -> list[tuple[int, float]]:
    """``(seed, value)`` of every matching record."""
    return [(r["seed"], r["metrics"][metric]["value"]) for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def probe_median(records, workload) -> float | None:
    probes = [r["details"]["probe_ms"] for r in records
              if r["workload"] == workload and "probe_ms" in r["details"]]
    return statistics.median(probes) if probes else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    print(f"{'workload':15} {'metric':16} {'old median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}  verdict")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = values(old, workload, 0, name)
            b = values(new, workload, 0, name)
            if not a or not b:
                continue
            sides = [summary([value for _, value in side]) for side in (a, b)]
            cells = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for m, q1, q3 in sides]
            change = 100 * (sides[1][0] - sides[0][0]) / sides[0][0]
            print(f"{workload:15} {name:16} {cells[0]:>32} {cells[1]:>32} "
                  f"{change:+7.2f}%  "
                  f"{verdict(a, b, metric['bound'], metric['better'] == 'higher')}"
                  f"  ({metric['unit']}, bound {metric['bound']:.0%}, "
                  f"n={len(a)}/{len(b)})")
    print("\nper-layer medians of the traced runs")
    for workload in workloads:
        print(f"{workload}: machine.probe_ms old {probe_median(old, workload)}"
              f" new {probe_median(new, workload)}")
        for metric in bench["per_layer"]:
            a = [value for _, value in values(old, workload, 1, metric["name"])]
            b = [value for _, value in values(new, workload, 1, metric["name"])]
            if not a or not b:
                continue
            am, bm = statistics.median(a), statistics.median(b)
            delta = f"{100 * (bm - am) / am:+8.2f}%" if am else "       -"
            print(f"  {metric['name']:32} {am:14.5g} {bm:14.5g} {delta} "
                  f"{metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
