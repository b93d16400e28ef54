"""The benchmark's checks can fail: wrong outputs are reported as failed operations.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
import worker  # noqa: E402
from finstab import scenario  # noqa: E402


def _op(workload, name):
    return next(op for op in workloads.build(workload, seed=5) if op.name == name)


def _runner(fake_scenario, op, tmp_path):
    return worker._Runner(fake_scenario, [op], [scenario.scenario_from_json(op.doc)], tmp_path)


class _PerturbedRun:
    """The real run_scenario, after which one trajectory row is changed."""

    def __init__(self, column, change):
        self.column, self.change = column, change

    def run_scenario(self, config, out):
        code, summary = scenario.run_scenario(config, out)
        path = Path(out) / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = lines[100].split(",")
        row[self.column] = repr(self.change(float(row[self.column])))
        lines[100] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return code, summary


class _WrongDimW:
    """check_scenario that reports one dimension too many for W."""

    def check_scenario(self, config):
        code, summary = scenario.check_scenario(config)
        summary["decomposition"]["dim_w"] += 1
        return code, summary


def test_unperturbed_heat_settling_passes(tmp_path):
    runner = _runner(scenario, _op("scenarios", "heat-settling"), tmp_path)
    runner._one_pass(tracer=None)
    assert (runner.attempted, runner.failed, runner.unexplained) == (1, 0, [])
    assert runner.counts["steps"] > 0 and runner.counts["artifact_bytes"] > 0


@pytest.mark.parametrize("column,change,check", [
    (-1, lambda v: 2.5, "decay_envelope"),       # V(0.099) above V(0) = 1.25
    (0, lambda t: t * (1.0 + 1e-9), "grid"),     # a sample time off the grid
])
def test_perturbed_trajectory_row_is_a_failed_operation(tmp_path, column, change, check):
    runner = _runner(_PerturbedRun(column, change), _op("scenarios", "heat-settling"), tmp_path)
    runner._one_pass(tracer=None)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert check in runner.failures["heat-settling"]["checks"]
    assert runner.unexplained == ["heat-settling"]


def test_wrong_dim_w_is_a_failed_operation(tmp_path):
    runner = _runner(_WrongDimW(), _op("structure", "planted-general-n8"), tmp_path)
    runner._one_pass(tracer=None)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert set(runner.failures["planted-general-n8"]["checks"]) == {"dim_w"}
    assert runner.unexplained == ["planted-general-n8"]


def test_known_fault_is_failed_but_explained(tmp_path):
    runner = _runner(scenario, _op("structure", "heat-n16"), tmp_path)
    runner._one_pass(tracer=None)
    assert (runner.attempted, runner.failed, runner.unexplained) == (1, 1, [])


def test_planted_gamma_matches_the_program_where_dim_w_is_right():
    op = _op("structure", "planted-general-n6")
    code, summary = scenario.check_scenario(scenario.scenario_from_json(json.loads(json.dumps(op.doc))))
    outcome = workloads.check(op, code, summary, Path("."), None, 0.0)
    assert not outcome.failed, outcome.checks
    assert np.isclose(summary["decomposition"]["gamma"], op.expect["gamma"], rtol=1e-8)


def test_inputs_follow_the_seed():
    first = [op.doc for op in workloads.build("structure", seed=1)]
    again = [op.doc for op in workloads.build("structure", seed=1)]
    other = [op.doc for op in workloads.build("structure", seed=2)]
    assert json.dumps(first) == json.dumps(again)
    seeded = [i for i, op in enumerate(workloads.build("structure", seed=1)) if op.fault is None
              and op.name.startswith("planted")]
    assert all(first[i] != other[i] for i in seeded)
    faulty = [i for i, op in enumerate(workloads.build("structure", seed=1)) if op.fault]
    assert all(first[i] == other[i] for i in faulty)
