"""Write every benchmark operation's outputs to a tree, for a byte-for-byte diff.

    PYTHONPATH=src python3 tools/dump_artifacts.py --seed 1 OUT

Each operation of every workload in perfbench/workloads.py (loaded by path,
read-only) goes through the finstab found on the path:

- a run writes its artifacts (trajectory.csv, summary.json, plot.svg and the
  psi grids) to OUT/<workload>/<op>;
- a check writes the summary that check_scenario returns to
  OUT/<workload>/<op>/summary.json.

Two trees made this way from two checkouts compare with ``diff -r``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """perfbench/workloads.py as a module of its own (it imports numpy only)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def dump_workload(workloads, workload: str, seed: int, out: Path) -> int:
    """Write the outputs of one workload's operations under out/<workload>; returns
    the number of operations."""
    from finstab import scenario

    ops = workloads.build(workload, seed)
    for op in ops:
        config = scenario.scenario_from_json(json.loads(json.dumps(op.doc)))
        target = out / workload / op.name
        if op.entry == "run":
            scenario.run_scenario(config, target)
        else:
            target.mkdir(parents=True, exist_ok=True)
            scenario.write_summary(target / "summary.json", scenario.check_scenario(config)[1])
    return len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        count = dump_workload(workloads, workload, args.seed, args.out)
        print(f"{workload}: {count} operations -> {args.out / workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
