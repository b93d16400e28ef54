"""The committed benchmark baseline stays diffable with perfbench/compare.py."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPARE = ROOT / "perfbench" / "compare.py"


def test_committed_baseline_compares_with_itself():
    spec = importlib.util.spec_from_file_location("perfbench_compare", COMPARE)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)   # standard library imports only
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = {}
    for path in sorted(ROOT.glob("BENCH_pr26-*-trace0.json")):
        for workload, runs in compare.load(path).items():
            base.setdefault(workload, []).extend(runs)
    assert sorted(base) == sorted(w["name"] for w in bench["workloads"])
    for workload, runs in base.items():
        for metric in bench["end_to_end"]:
            assert all(metric["name"] in run["end_to_end"] for run in runs), \
                (workload, metric["name"])
    lines, worse = compare.compare(base, base, bench)
    assert not worse, "\n".join(lines)
