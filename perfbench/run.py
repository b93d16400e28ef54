"""finstab benchmark: one workload, its end-to-end or per-layer metrics, checked.

Run from the root of a finstab checkout:

    python3 perfbench/run.py --workload scenarios|modal-sweep|structure \
        --seed N --seconds S --trace 0|1

The workload runs in a worker process of its own, so that its peak memory is
its own, with BLAS and OpenMP held to at most ``nproc`` threads.  Set-up is
timed in further fresh processes and reported as a median.  Every metric is
printed by name and unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
is written to ``.perfbench_runs/<workload>-seed<N>-trace<T>.json``; compare
two sets of such files with ``perfbench/compare.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7          # set-up times per run: six probes and the worker's own
DEADLINE_S = 170.0         # a run ends within 180 s
RUNS_DIR = Path(".perfbench_runs")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "modal-sweep", "structure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "finstab" / "__init__.py").is_file():
        return _fail("run from the root of a finstab checkout (src/finstab not found)")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(root, nproc)
    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS_DIR / f"work-{tag}-{os.getpid()}"
    spans_path = RUNS_DIR / f"spans-{tag}.json"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setups = [_worker(base + ["--setup-only"], env, started)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = _worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--spans", str(spans_path)], env, started)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(f"worker failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    end_to_end = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(result["pass_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result.get("layers", {}) if args.trace else end_to_end
    missing = [m["name"] for m in listed if m["name"] not in source]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "using_numba": result["using_numba"],
        "python": platform.python_version(), "numpy": result["numpy"],
        "scipy": result["scipy"],
        "setup_s_samples": setups, "pass_s_samples": result["pass_s"],
        "end_to_end": end_to_end, "layers": result.get("layers"),
        "traced_pass_s_samples": result.get("traced_pass_s"),
        "op_seconds": result["op_seconds"],
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": result["correct"], "failures": result["failures"],
        "unexplained_failures": result["unexplained"],
        "counts_repeat": result["counts_repeat"],
        "spans": str(spans_path) if args.trace else None,
    }
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    _report(record, metrics)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _worker_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("FINSTAB_SEED", None)  # the program's own seed override would bypass --seed
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(cmd: list[str], env: dict, started: float) -> dict:
    """Run one worker process to completion and return its last stdout line as JSON."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("out of time before the worker started")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _report(record: dict, metrics: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"nproc {record['nproc']}  numba {record['using_numba']}  "
          f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}")
    print(f"passes timed: {len(record['pass_s_samples'])}"
          + (f", traced: {len(record['traced_pass_s_samples'])}" if record["trace"] else "")
          + f"; set-up samples: {len(record['setup_s_samples'])}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")
    for op, info in record["failures"].items():
        print(f"  failed {op}: {'; '.join(info['checks'].values())}")
        print(f"    fault: {info['cause'] or 'none known: the result is wrong'}")
    if not record["counts_repeat"]:
        print("  counts differ between passes")


if __name__ == "__main__":
    sys.exit(main())
