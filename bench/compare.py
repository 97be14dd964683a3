"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

One row per (metric, workload) with both medians and quartiles, the change of
B against A, the run-to-run spread, and a verdict judged with the bounds in
``BENCHMARK.json``:

* ``unresolved`` -- the spread exceeds the bound, so the runs cannot tell
  (unless every run of B is better than every run of A: ``improved``);
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better by more than the spread;
* ``unchanged``  -- anything else.

A record made with ``run.py --repeat N`` holds N runs; medians and quartiles
are then taken over the runs' own medians.  With a single run on a side the
spread of its median is estimated from the quartiles of its samples as
``(q3 - q1) / sqrt(n)``.  Per-layer metrics have no bound and get no verdict.
Exit status 1 when any bounded metric regressed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from common import quartiles  # noqa: E402


def load_bounds() -> dict[str, tuple[str, Optional[float]]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in manifest["per_layer"]})
    return bounds


def side(record: dict, workload: str, metric: str) -> Optional[dict]:
    """Median, quartiles, relative spread and per-run values of one cell."""
    entries = [
        run["workloads"][workload]["metrics"][metric]
        for run in record["runs"]
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, q3 = quartiles(values)
        width = q3 - q1
    else:
        q1, q3 = entries[0]["q1"], entries[0]["q3"]
        width = (q3 - q1) / math.sqrt(entries[0]["n"])
    return {
        "median": median, "q1": q1, "q3": q3, "values": values,
        "spread": abs(width / median) if median else 0.0,
    }


def verdict(a: dict, b: dict, better: str, bound: Optional[float]) -> tuple[float, str]:
    """Signed change (positive = worse) and the verdict."""
    if not a["median"]:
        return 0.0, "unchanged" if not b["median"] else "-"
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse = change if better == "lower" else -change
    if bound is None:
        return worse, "-"
    spread = max(a["spread"], b["spread"])
    if spread > bound:
        if better == "lower":
            separated = max(b["values"]) < min(a["values"])
        else:
            separated = min(b["values"]) > max(a["values"])
        multiple = len(a["values"]) >= 2 and len(b["values"]) >= 2
        return worse, "improved" if separated and multiple else "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -spread:
        return worse, "improved"
    return worse, "unchanged"


def compare(a: dict, b: dict) -> list[dict]:
    bounds = load_bounds()
    rows = []
    workloads = list(a["runs"][0]["workloads"])
    for workload in workloads:
        metrics = a["runs"][0]["workloads"][workload]["metrics"]
        for metric in metrics:
            left, right = side(a, workload, metric), side(b, workload, metric)
            if left is None or right is None or metric not in bounds:
                continue
            better, bound = bounds[metric]
            worse, word = verdict(left, right, better, bound)
            rows.append({
                "workload": workload, "metric": metric, "a": left, "b": right,
                "worse_by": worse, "bound": bound, "verdict": word,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:3])
    rows = compare(a, b)
    print(f"{'workload':16s} {'metric':34s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'spread':>7s} {'bound':>6s} verdict")
    for row in rows:
        if row["bound"] is None and not (row["a"]["median"] or row["b"]["median"]):
            continue  # a layer neither run exercised
        cells = [
            f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]" for s in (row["a"], row["b"])
        ]
        spread = max(row["a"]["spread"], row["b"]["spread"])
        bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
        print(f"{row['workload']:16s} {row['metric']:34s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['worse_by']:+9.3f} {spread:7.3f} {bound:>6s} {row['verdict']}")
    counts: dict[str, int] = {}
    for row in rows:
        if row["bound"] is not None:
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("bounded metrics: " + ", ".join(f"{n} {w}" for w, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
