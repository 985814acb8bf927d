"""Print the benchmark's metrics, or summarize and compare result sets.

    python3 bench/compare.py                 # every metric: name, unit, direction, bound
    python3 bench/compare.py SET             # median and quartiles of one result set
    python3 bench/compare.py BASE NEW        # NEW against BASE, with a verdict per metric

A result set is a directory of result files written by bench/run.py (by
default ``.bench_results/``). Every workload gets its own row per metric.
Quartiles are those of ``statistics.quantiles(values, n=4)``; the spread is
their distance as a share of the median. A verdict is ``unresolved`` when
either set's spread exceeds the metric's bound, unless every NEW run is
better than every BASE run; ``regression`` when NEW's median is worse than
BASE's by more than the bound; ``gain`` when NEW wins at least nine tenths
of the runs paired by seed and the medians differ by more than BASE's
quartile distance; ``no change`` otherwise. Per-layer metrics have no bound
and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> tuple[list[str], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = ([dict(m, trace=0) for m in spec["end_to_end"]]
               + [dict(m, trace=1) for m in spec["per_layer"]])
    return [w["name"] for w in spec["workloads"]], metrics


def load_set(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Result records by (workload, trace), ordered by seed then file name."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["trace"])].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def values(records: list[dict], name: str) -> list[tuple[int, float]]:
    out = []
    for r in records:
        metric = r["result"]["metrics"].get(name)
        if metric is not None and metric["value"] is not None:
            out.append((r["seed"], float(metric["value"])))
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(q1: float, med: float, q3: float) -> float:
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def better(metric: dict, new: float, base: float) -> bool:
    return new < base if metric["better"] == "lower" else new > base


def verdict(metric: dict, base: list[tuple[int, float]], new: list[tuple[int, float]]) -> str:
    bound = metric.get("bound")
    if bound is None:
        return "-"
    bq, nq = quartiles([v for _, v in base]), quartiles([v for _, v in new])
    all_better = all(better(metric, n, b) for _, n in new for _, b in base)
    if max(spread(*bq), spread(*nq)) > bound and not all_better:
        return "unresolved"
    worse_by = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
    if metric["better"] == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regression"
    pairs = _pairs(base, new)
    wins = sum(better(metric, n, b) for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(nq[1] - bq[1]) > bq[2] - bq[0]:
        return "gain"
    return "no change"


def _pairs(base, new) -> list[tuple[float, float]]:
    """Runs paired by seed; runs whose seed has no partner pair in order."""
    by_seed = defaultdict(list)
    for seed, v in base:
        by_seed[seed].append(v)
    pairs, left = [], []
    for seed, v in new:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), v))
        else:
            left.append(v)
    rest = [v for vs in by_seed.values() for v in vs]
    return pairs + list(zip(rest, left))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def print_table(rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def catalogue(workloads, metrics) -> None:
    rows = [["workload", "metric", "unit", "better", "bound", "kind"]]
    for m in metrics:
        for w in workloads:
            rows.append([w, m["name"], m["unit"], m["better"],
                         _fmt(m["bound"]) if "bound" in m else "-",
                         "per-layer (--trace 1)" if m["trace"] else "end-to-end"])
    print_table(rows)


def header(label: str, runs) -> None:
    for (workload, trace), records in sorted(runs.items()):
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        env = records[0]["environment"]
        print(f"{label} {workload} trace={trace}: {len(records)} runs, seeds "
              f"{[r['seed'] for r in records]}, attempted {attempted}, failed {failed}, "
              f"error_rate {failed / attempted if attempted else 0:.3g}, python {env['python']}, "
              f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}")


def summarize_set(workloads, metrics, runs) -> None:
    header("set", runs)
    rows = [["workload", "metric", "unit", "better", "n", "q1", "median", "q3", "spread", "note"]]
    for m in metrics:
        for w in workloads:
            vals = values(runs.get((w, m["trace"]), []), m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles([v for _, v in vals])
            s = spread(q1, med, q3)
            note = "unsteady" if "bound" in m and s > m["bound"] else ""
            rows.append([w, m["name"], m["unit"], m["better"], str(len(vals)),
                         _fmt(q1), _fmt(med), _fmt(q3), f"{s:.3f}", note])
    print_table(rows)


def compare_sets(workloads, metrics, base_runs, new_runs) -> None:
    header("base", base_runs)
    header("new ", new_runs)
    rows = [["workload", "metric", "unit", "better", "base median [q1, q3]",
             "new median [q1, q3]", "new/base", "verdict"]]
    for m in metrics:
        for w in workloads:
            base = values(base_runs.get((w, m["trace"]), []), m["name"])
            new = values(new_runs.get((w, m["trace"]), []), m["name"])
            if not base or not new:
                continue
            bq, nq = quartiles([v for _, v in base]), quartiles([v for _, v in new])
            ratio = f"{nq[1] / bq[1]:.4f} of {_fmt(bq[1])}" if bq[1] else "-"
            rows.append([w, m["name"], m["unit"], m["better"],
                         f"{_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}]",
                         f"{_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}]",
                         ratio, verdict(m, base, new)])
    print_table(rows)


def main(argv: list[str]) -> int:
    if len(argv) > 2 or any(a.startswith("-") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    workloads, metrics = load_spec()
    sets = [Path(a) for a in argv]
    for d in sets:
        if not d.is_dir():
            print(f"error: {d} is not a directory of result files", file=sys.stderr)
            return 2
    if not sets:
        catalogue(workloads, metrics)
    elif len(sets) == 1:
        summarize_set(workloads, metrics, load_set(sets[0]))
    else:
        compare_sets(workloads, metrics, load_set(sets[0]), load_set(sets[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
