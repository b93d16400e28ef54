"""One workload in its own process: set up, run whole passes, check every output.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread count fixed.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--spans FILE] [--setup-only]
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = time.perf_counter()
    import finstab
    from finstab import scenario

    import workloads

    ops = workloads.build(args.workload, args.seed)
    configs = [scenario.scenario_from_json(json.loads(json.dumps(op.doc))) for op in ops]
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    args.workdir.mkdir(parents=True, exist_ok=True)
    runner = _Runner(scenario, ops, configs, args.workdir)
    begin = time.perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.passes(begin, untraced_budget, tracer=None)
    traced = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        traced = runner.passes(begin, args.seconds, tracer=tracer)
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.export()), encoding="utf-8")
    result = {
        "setup_s": setup_s,
        "pass_s": [p["seconds"] for p in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": not runner.unexplained,
        "failures": runner.failures,
        "unexplained": runner.unexplained,
        "op_seconds": {op: statistics.median(ts) for op, ts in runner.op_seconds.items()},
        "counts_repeat": runner.counts_repeat,
        "using_numba": bool(finstab.USING_NUMBA),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if args.trace:
        result["traced_pass_s"] = [p["seconds"] for p in traced]
        result["layers"] = _layer_metrics(untraced, traced)
    print(json.dumps(result))
    return 0


class _Runner:
    """Runs whole passes over the operations and checks every result."""

    def __init__(self, scenario, ops, configs, workdir: Path):
        import workloads

        self.scenario = scenario
        self.check = workloads.check
        self.causes = workloads.FAULTS
        self.ops = ops
        self.configs = configs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}     # op name -> failing checks and fault
        self.unexplained: list[str] = []
        self.op_seconds: dict[str, list[float]] = {op.name: [] for op in ops}
        self.counts = None
        self.counts_repeat = True

    def passes(self, begin: float, budget: float, tracer) -> list[dict]:
        """Whole passes while another one of the last one's length fits the budget."""
        done = []
        while True:
            wall = time.perf_counter()
            done.append(self._one_pass(tracer))
            now = time.perf_counter()
            if now - begin + (now - wall) > budget:
                return done

    def _one_pass(self, tracer) -> dict:
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        counts = {"steps": 0, "rejections": 0, "samples": 0, "artifact_bytes": 0}
        seconds = 0.0
        try:
            for op, config in zip(self.ops, self.configs):
                outcome, stats = self._one_op(op, config)
                seconds += outcome.seconds
                for key, value in stats.items():
                    counts[key] += value
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.counts_repeat = False
        record = {"seconds": seconds, "counts": counts}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
        return record

    def _one_op(self, op, config):
        out = self.workdir / op.name
        shutil.rmtree(out, ignore_errors=True)
        error = code = summary = None
        started = time.perf_counter()
        try:
            if op.entry == "run":
                code, summary = self.scenario.run_scenario(config, out)
            else:
                code, summary = self.scenario.check_scenario(config)
        except Exception as exc:  # a raising entry point is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        try:
            outcome = self.check(op, code, summary, out, error, seconds)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = self.check(op, None, None, out, f"unreadable output: {exc!r}", seconds)
        stats = _artifact_stats(out, summary) if error is None and op.entry == "run" else {}
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.op_seconds[op.name].append(seconds)
        if outcome.failed:
            self.failed += 1
            self.failures[op.name] = {
                "checks": {name: detail for name, ok, detail in outcome.checks if not ok},
                "fault": op.fault, "cause": self.causes.get(op.fault)}
            if not outcome.explained and op.name not in self.unexplained:
                self.unexplained.append(op.name)
        return outcome, stats


def _artifact_stats(out: Path, summary: dict) -> dict:
    stats = {"artifact_bytes": sum(p.stat().st_size for p in out.iterdir())}
    if summary.get("kind") == "modal" and "diagnostics" in summary:
        with open(out / "trajectory.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        disk = json.loads((out / "summary.json").read_text(encoding="utf-8"))["diagnostics"]
        stats.update(steps=disk["steps"], rejections=disk["rejections"], samples=rows - 1)
    return stats


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Median self times over the traced passes plus the exact counts of one pass."""
    names = traced[0]["layers"].keys()
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    counts = traced[-1]["counts"]
    steps, rejections = counts["steps"], counts["rejections"]
    rhs_calls = traced[-1]["layers"]["kernels.rhs_calls"]
    layers.update({
        "kernels.rhs_calls": rhs_calls,
        "controllers.assemble_calls": traced[-1]["layers"]["controllers.assemble_calls"],
        "kernels.steps": steps,
        "kernels.rejections": rejections,
        "scenario.artifact_bytes": counts["artifact_bytes"],
        "kernels.rhs_per_step": rhs_calls / max(steps + rejections, 1),
        "kernels.steps_per_sample": steps / max(counts["samples"], 1),
        "kernels.us_per_rhs": 1e6 * layers["kernels.rhs_s"] / max(rhs_calls, 1),
        "kernels.us_per_step": (1e6 * (layers["kernels.integrate_s"] + layers["kernels.rhs_s"])
                                / max(steps, 1)),
        # the first pass also pays first-call costs, so it is left out when it can be
        "trace.overhead_s": (statistics.median(p["seconds"] for p in traced)
                             - statistics.median(p["seconds"] for p in untraced[1:] or untraced)),
    })
    return layers


if __name__ == "__main__":
    sys.exit(main())
