"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are directories (or single files) of the
result documents ``run.py`` writes to ``perfbench/results/``, measured
with identical benchmark code and settings.  Runs are paired by seed,
in order.  Each row gives both sides' median and quartiles, the ratio
change/parent with its base, the pairs the change won, and a verdict:

* ``improved`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``worse`` — the same rule in the other direction, or (for a metric
  with a bound) the change's median is worse by more than the bound;
* ``no worse`` — the change's median is within the bound of the
  parent's and the parent's own spread is within the bound, or every
  change run reads better than every parent run;
* ``unresolved`` — anything else, e.g. a spread wider than the bound.

Per-layer metrics have no bound, so they read improved, worse or
unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(location: str) -> list[dict]:
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        document = json.loads(file.read_text())
        if "workload" in document and "metrics" in document:
            runs.append(document)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple]:
    """(parent value, change value) for runs of equal seed, in order."""
    by_seed: dict[int, list[float]] = {}
    for run in parent:
        by_seed.setdefault(run["seed"], []).append(run["metrics"][metric]["value"])
    out = []
    for run in change:
        queue = by_seed.get(run["seed"])
        if queue:
            out.append((queue.pop(0), run["metrics"][metric]["value"]))
    return out


def verdict(p: list[float], c: list[float], matched: list[tuple],
            lower_is_better: bool, bound: float | None) -> tuple[str, int, int]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    wins = sum(better(cv, pv) for pv, cv in matched)
    losses = sum(better(pv, cv) for pv, cv in matched)
    q1, pm, q3 = quartiles(p)
    cm = statistics.median(c)
    spread = q3 - q1
    distinct = abs(cm - pm) > spread
    if matched and wins >= 0.9 * len(matched) and distinct and better(cm, pm):
        return "improved", wins, len(matched)
    if matched and losses >= 0.9 * len(matched) and distinct and better(pm, cm):
        return "worse", wins, len(matched)
    if bound is None:
        return "unresolved", wins, len(matched)
    scale = abs(pm) if pm else 1.0
    worse_by = (cm - pm if lower_is_better else pm - cm) / scale
    all_better = all(better(cv, pv) for cv in c for pv in p)
    if spread / scale <= bound or all_better:
        if worse_by > bound:
            return "worse", wins, len(matched)
        return "no worse", wins, len(matched)
    return "unresolved", wins, len(matched)


def rows(parent: list[dict], change: list[dict], spec: dict) -> list[list[str]]:
    table = []
    workloads = sorted({run["workload"] for run in parent + change})
    for group, traced in (("end_to_end", False), ("per_layer", True)):
        for workload in workloads:
            ps = [r for r in parent if r["workload"] == workload and r["trace"] == traced]
            cs = [r for r in change if r["workload"] == workload and r["trace"] == traced]
            if not ps or not cs:
                continue
            for entry in spec[group]:
                name = entry["name"]
                p = [r["metrics"][name]["value"] for r in ps if name in r["metrics"]]
                c = [r["metrics"][name]["value"] for r in cs if name in r["metrics"]]
                if not p or not c:
                    continue
                lower = entry["better"] == "lower"
                outcome, wins, n = verdict(
                    p, c, pairs(ps, cs, name), lower, entry.get("bound")
                )
                pq = quartiles(p)
                cq = quartiles(c)
                ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "n/a"
                table.append([
                    workload, name, entry["unit"],
                    f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(p)}",
                    f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}",
                    f"{ratio} (base: parent median {pq[1]:.6g} {entry['unit']})",
                    f"{wins}/{n}",
                    outcome,
                ])
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    table = rows(load_runs(args.parent), load_runs(args.change), spec)
    header = ["workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change/parent", "wins", "verdict"]
    print(" | ".join(header))
    for row in table:
        print(" | ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
