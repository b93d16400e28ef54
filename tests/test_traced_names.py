"""perfbench traces finstab functions by name: every name must still exist."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_finstab_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)   # standard library imports only
    functions = set()
    for qualified in spans.TRACED:
        module_name, name = qualified.split(".")
        module = importlib.import_module(f"finstab.{module_name}")
        assert callable(getattr(module, name, None)), qualified
        functions.add(getattr(module, name))
    # one function under two names would be wrapped twice, its time split between layers
    assert len(functions) == len(spans.TRACED) == 28
