"""tools/dump_artifacts.py writes one directory per benchmark operation."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "dump_artifacts.py"


def test_dump_writes_every_structure_check_summary(tmp_path):
    spec = importlib.util.spec_from_file_location("dump_artifacts", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    workloads = tool.load_workloads()
    count = tool.dump_workload(workloads, "structure", 1, tmp_path)
    names = [op.name for op in workloads.build("structure", 1)]
    assert count == len(names) == 23
    assert sorted(p.name for p in (tmp_path / "structure").iterdir()) == sorted(names)
    for name in names:
        files = list((tmp_path / "structure" / name).iterdir())
        assert [p.name for p in files] == ["summary.json"]
        summary = json.loads(files[0].read_text(encoding="utf-8"))
        assert summary["name"] == name and summary["exit_code"] in (0, 1)
