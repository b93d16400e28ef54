"""Run the benchmark in two checkouts, alternately, and compare the two sets of records.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S \
        [--seed 1] [--out .perfbench_pairs]

PARENT and CHANGE are the roots of two finstab checkouts.  Each is copied
once per call into a temporary directory, leaving out ``.git``,
``__pycache__``, ``.pytest_cache`` and ``.perfbench_runs``, and the copies
are removed at the end: the same code has read 7-14 % slower per operation
from a development checkout than from a fresh copy of its files.  Each pair
runs ``perfbench/run.py --trace 0`` once in each copy, from its root; the
order flips from pair to pair (parent first, then change first), so that a
drift of the host's speed within the session loads both sides alike.
run.py overwrites its record ``.perfbench_runs/<W>-seed<N>-trace0.json`` on
every run, so each record is copied to ``OUT/parent/`` or ``OUT/change/``
as ``<W>-pair<k>.json`` right after its run.  Then ``perfbench/compare.py``
of CHANGE prints its table for OUT/parent against OUT/change, and one line
per end-to-end metric gives the change's median ratio over the pairs and
the number of pairs in which it was lower.  Exits as compare.py does: 0
within bounds, 1 beyond one; 2 when a run fails.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# left out of the fresh copy of each tree
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_runs")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "modal-sweep", "structure"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path(".perfbench_pairs"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} is not a finstab checkout (perfbench/run.py not found)")
    return args


def _run(root: Path, args) -> Path:
    """One untraced run.py in root; returns the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {root} exited with {proc.returncode}")
    return root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace0.json"


def main(argv=None) -> int:
    args = _parse_args(argv)
    for side in SIDES:
        (args.out / side).mkdir(parents=True, exist_ok=True)
        for stale in (args.out / side).glob(f"{args.workload}-pair*.json"):
            stale.unlink()   # an earlier call's extra pairs would enter the medians
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            shutil.copytree(getattr(args, side), roots[side], ignore=SKIP)
        return _pairs(args, roots)


def _pairs(args, roots) -> int:
    """The alternating runs in the copies at roots, then compare.py's table."""
    records = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            try:
                record = _run(roots[side], args)
            except RuntimeError as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 2
            copy = args.out / side / f"{args.workload}-pair{pair}.json"
            shutil.copyfile(record, copy)
            records[side].append(json.loads(copy.read_text(encoding="utf-8")))
            print(f"pair {pair} {side:6s} pass_s "
                  f"{records[side][-1]['end_to_end']['pass_s']:.4g}", flush=True)
    compare = subprocess.run([sys.executable, str(roots["change"] / "perfbench" / "compare.py"),
                              str(args.out / "parent"), str(args.out / "change")])
    for name in records["parent"][0]["end_to_end"]:
        ratios = [c["end_to_end"][name] / p["end_to_end"][name]
                  for p, c in zip(records["parent"], records["change"])]
        lower = sum(r < 1.0 for r in ratios)
        print(f"{args.workload} {name}: median change/parent {statistics.median(ratios):.3f}, "
              f"change lower in {lower} of {len(ratios)} pairs")
    return compare.returncode


if __name__ == "__main__":
    sys.exit(main())
