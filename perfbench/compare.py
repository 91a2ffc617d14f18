"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``--trace 0`` result files ``run.py`` writes
(``<workload>-seed<n>-trace0.json``).  Per workload and end-to-end
metric this prints each side's median and quartiles and a verdict:

* ``better`` -- the change wins at least 9 of 10 pairs (ties count for
  neither; pairs match on seed) and the medians differ by more than the
  base's quartile spread;
* ``worse`` -- the change's median is worse than the base's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` -- the base's own spread exceeds the bound and not
  every run of the change reads better (or worse) than every base run,
  or fewer than ten pairs back a claimed gain;
* ``same`` -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result, for every untraced result file."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        seed = result["provenance"]["seed"]
        out.setdefault(result["workload"], {})[seed] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs, higher: bool,
            bound: float) -> str:
    sign = 1.0 if higher else -1.0
    b1, b2, b3 = quartiles(base)
    _, c2, _ = quartiles(change)
    gain = sign * (c2 - b2)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    all_worse = max(sign * c for c in change) < min(sign * b for b in base)
    spread = (b3 - b1) / abs(b2) if b2 else float("inf")
    if wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if -gain > bound * abs(b2):
        return "worse"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    header = (f"{'workload':<9} {'metric':<18} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6}  verdict")
    print(header)
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload].values()]
            c = [r["metrics"][name]["value"] for r in change[workload].values()]
            pairs = [(base[workload][s]["metrics"][name]["value"],
                      change[workload][s]["metrics"][name]["value"])
                     for s in seeds]
            higher = metric["better"] == "higher"
            sign = 1.0 if higher else -1.0
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            result = verdict(b, c, pairs, higher, metric["bound"])
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:<9} {name:<18} "
                  f"{bq[0]:>9.4g} {bq[1]:>9.4g} {bq[2]:>9.4g}  "
                  f"{cq[0]:>9.4g} {cq[1]:>9.4g} {cq[2]:>9.4g}  "
                  f"{wins:>2}/{len(pairs):<3}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
