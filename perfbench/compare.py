"""Compare benchmark result files written by ``run.py --results``.

Usage (from the root of a checkout):

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

For every workload and metric the BASE runs give the median, the quartiles
and the spread (interquartile distance over the median).  An end-to-end
metric whose spread exceeds a third of its bound in ``BENCHMARK.json`` is
marked ``noisy``.

With CHANGE, runs are paired by seed (by order where seeds differ) and each
metric gets the change's median, the relative delta and a verdict:

* ``gain``/``loss``: the change wins (loses) at least nine tenths of the
  pairs, ties counting for neither, and the medians differ by more than the
  base quartile distance;
* ``REGRESSION``: an end-to-end median worse than the base median by more
  than the metric's bound;
* ``unresolved``: an end-to-end metric whose base spread exceeds its bound,
  unless every change run beats every base run;
* ``-``: none of these.

Exits 1 when any end-to-end metric regressed, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_specs(path: Path = BENCHMARK) -> dict[str, dict]:
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Runs per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def values(runs: list[dict], metric: str) -> list[tuple[int, float]]:
    return [(r["seed"], r["result"]["metrics"][metric]["value"])
            for r in runs if metric in r["result"]["metrics"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs: list[float]) -> float:
    q1, median, q3 = quartiles(xs)
    return (q3 - q1) / abs(median) if median else 0.0


def pairs(base: list[tuple[int, float]], change: list[tuple[int, float]]):
    change_by_seed = dict(change)
    if {s for s, _ in base} == set(change_by_seed) and len(base) == len(change_by_seed):
        return [(b, change_by_seed[s]) for s, b in base]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(spec: dict, base: list[float], change: list[float],
            paired: list[tuple[float, float]]) -> str:
    lower = spec["better"] == "lower"

    def better(c, b):
        return c < b if lower else c > b

    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    wins = sum(better(c, b) for b, c in paired)
    losses = sum(better(b, c) for b, c in paired)
    apart = abs(change_median - base_median) > q3 - q1
    bound = spec.get("bound")
    if bound is not None:
        worse = (change_median - base_median) if lower else (base_median - change_median)
        if spread(base) > bound:
            beats_all = all(better(c, b) for c in change for b in base)
            return "gain" if beats_all else "unresolved"
        if worse > bound * abs(base_median):
            return "REGRESSION"
    if paired and wins >= WIN_SHARE * len(paired) and apart:
        return "gain"
    if paired and losses >= WIN_SHARE * len(paired) and apart:
        return "loss"
    return "-"


def report(base_path: Path, change_path: Path | None, specs: dict[str, dict]) -> int:
    base_runs = load_runs(base_path)
    change_runs = load_runs(change_path) if change_path else {}
    regressed = False
    for workload, runs in base_runs.items():
        print(f"== {workload} ({len(runs)} base runs"
              + (f", {len(change_runs.get(workload, []))} change runs)" if change_path else ")"))
        print(f"{'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
              + (f" {'change':>12} {'delta':>8} {'wins':>6}  verdict" if change_path else ""))
        for name, spec in specs.items():
            base = values(runs, name)
            if not base:
                continue
            xs = [v for _, v in base]
            q1, median, q3 = quartiles(xs)
            row = (f"{name:<40} {spec['unit']:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                   f"{spread(xs):>7.2%}")
            bound = spec.get("bound")
            if change_path:
                change = values(change_runs.get(workload, []), name)
                if change:
                    ys = [v for _, v in change]
                    paired = pairs(base, change)
                    lower = spec["better"] == "lower"
                    wins = sum((c < b) if lower else (c > b) for b, c in paired)
                    delta = (statistics.median(ys) - median) / abs(median) if median else 0.0
                    outcome = verdict(spec, xs, ys, paired)
                    regressed |= outcome == "REGRESSION"
                    row += (f" {statistics.median(ys):>12.6g} {delta:>+8.2%} "
                            f"{wins:>3}/{len(paired):<2}  {outcome}")
            elif bound is not None and spread(xs) > bound / 3:
                row += "  noisy"
            print(row)
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    return report(args.base, args.change, load_specs())


if __name__ == "__main__":
    sys.exit(main())
