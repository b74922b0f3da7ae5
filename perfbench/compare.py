"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appended, one per run;
run both sides with the same ``--seconds`` and the same seeds. For each
workload and metric this prints each side's median and quartiles over
its runs and a verdict:

- ``better``: the change wins at least 9/10 of the seed-matched pairs
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: either side's interquartile range exceeds the bound
  (as a share of its median), unless every change run beats every
  parent run;
- ``same``: none of the above.

Per-layer metrics have no bound; they get ``better`` or ``worse`` by
the 9/10 rule in either direction, or ``-``. A gain does not count when
more operations failed than on the parent, so failures are printed too.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace), in file order."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of runs with the same seed, matched in order."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for record in parent:
        by_seed[record["seed"]].append(record["metrics"][metric]["value"])
    out = []
    for record in change:
        waiting = by_seed.get(record["seed"])
        if waiting:
            out.append((waiting.pop(0), record["metrics"][metric]["value"]))
    return out


def verdict(parent: list[float], change: list[float], matched: list[tuple[float, float]],
            lower_is_better: bool, bound: float | None) -> tuple[str, int]:
    """(verdict, pairs the change won)."""

    def gain(p: float, c: float) -> float:
        return p - c if lower_is_better else c - p

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in matched if gain(p, c) > 0)
    losses = sum(1 for p, c in matched if gain(p, c) < 0)
    needed = WIN_SHARE * len(matched)
    if matched and wins >= needed and gain(p_med, c_med) > p_q3 - p_q1:
        return "better", wins
    if bound is None:
        if matched and losses >= needed and -gain(p_med, c_med) > p_q3 - p_q1:
            return "worse", wins
        return "-", wins
    if -gain(p_med, c_med) > bound * abs(p_med):
        return "worse", wins
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        every_change_better = all(gain(p, c) > 0 for p in parent for c in change)
        return ("better" if every_change_better else "unresolved"), wins
    return "same", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(f"{'workload':<14} {'metric':<31} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    for key in sorted(parent_runs.keys() & change_runs.keys()):
        parent, change = parent_runs[key], change_runs[key]
        workload, trace = key
        for metric in parent[0]["metrics"]:
            p_vals = [r["metrics"][metric]["value"] for r in parent]
            c_vals = [r["metrics"][metric]["value"] for r in change]
            matched = pairs(parent, change, metric)
            info = declared.get(metric, {"better": "lower"})
            label, wins = verdict(p_vals, c_vals, matched, info["better"] == "lower",
                                  info.get("bound"))
            sides = ["{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(v)) for v in (p_vals, c_vals)]
            print(f"{workload:<14} {metric:<31} {sides[0]:<34} {sides[1]:<34} "
                  f"{f'{wins}/{len(matched)}':<7} {label}")
        for side, runs in (("parent", parent), ("change", change)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:<14} {side} trace={trace}: {len(runs)} runs, "
                  f"{failed} of {attempted} operations failed")
        parent_digests = {r["seed"]: r["results_sha256"] for r in parent}
        shared = [r["seed"] for r in change if r["seed"] in parent_digests]
        differ = [seed for seed in shared
                  if parent_digests[seed] != next(r["results_sha256"] for r in change
                                                  if r["seed"] == seed)]
        print(f"{workload:<14} results CSV byte-identical on {len(shared) - len(differ)} "
              f"of {len(shared)} shared seeds" + (f"; differs on {differ}" if differ else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
