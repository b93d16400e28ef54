"""The benchmark's structure families decompose as they were built.

perfbench/workloads.py (loaded by path, read-only) plants each structure
operation's dim W and gamma; every one of its check_scenario calls must pass
with them, on the route its generator's structure names.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from finstab import scenario

TOOL = Path(__file__).resolve().parents[1] / "tools" / "dump_artifacts.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("dump_artifacts", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.load_workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_structure_operation_recovers_its_planted_split(seed):
    ops = _workloads().build("structure", seed)
    assert {op.name.split("-")[0] for op in ops} == {"heat", "wave", "beam", "planted"}
    for op in ops:
        code, summary = scenario.check_scenario(
            scenario.scenario_from_json(json.loads(json.dumps(op.doc))))
        dec = summary["decomposition"]
        assert code == 0, (op.name, [c for c in summary["checks"] if not c["passed"]])
        assert dec["dim_w"] == op.expect["dim_w"], op.name
        assert dec["gamma"] == pytest.approx(op.expect["gamma"], rel=1e-8), op.name
        assert dec["route"] == ("recursion" if op.name.startswith("planted") else "spectral"), \
            op.name
