"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py or directories holding them
(such as a copy of ``.perfbench_runs`` from each commit).  For every workload
in both sets it prints, for each end-to-end metric, the median of each set,
the relative change and the bound from BENCHMARK.json, and marks a change
that is worse than its bound.  It also prints the share of failed operations.
Exits 1 when any metric is worse than its bound, else 0.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records grouped by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if isinstance(record, dict) and record.get("trace") == 0 and "end_to_end" in record:
            runs[record["workload"]].append(record)
    return runs


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    lines, worse = [], False
    for workload in sorted(base.keys() & new.keys()):
        lines.append(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = statistics.median(r["end_to_end"][name] for r in base[workload])
            n = statistics.median(r["end_to_end"][name] for r in new[workload])
            change = (n - b) / b
            loss = change if metric["better"] == "lower" else -change
            flag = "WORSE THAN BOUND" if loss > metric["bound"] else ""
            worse = worse or bool(flag)
            lines.append(f"  {name:12s} {b:12.6g} -> {n:12.6g} {metric['unit']:3s} "
                         f"{change:+8.2%}  bound {metric['bound']:.0%}  {flag}".rstrip())
        for label, runs in (("base", base[workload]), ("new", new[workload])):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            lines.append(f"  failed ({label}) {failed}/{attempted} = {failed / attempted:.4f}")
    lines.append("result: " + ("regression beyond a bound" if worse else "within bounds"))
    return lines, worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, worse = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
