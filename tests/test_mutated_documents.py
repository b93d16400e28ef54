"""Mutated suite documents end in a documented exit code (0-3), never in a traceback."""
import copy
import json

import numpy as np
import pytest

from finstab import cli
from finstab.suite import SCENARIOS

# Every class of bad input a past mend names: None, strings, booleans, small and
# fractional numbers, extreme and subnormal floats, NaN and infinities, empty,
# ragged and mixed containers, bad mode names.  Sizes are either at test scale or
# far past every limit, so none is allocated before it is refused.
POOL = [None, "", "x", "0.5", "mode99", "mode2+", "wperp-random(-1)", True, False,
        0, 1, -1, 2, 3, 2.5, 1e308, -1e308, 1e-320, float("nan"), float("inf"),
        float("-inf"), [], {}, [[1.0, 2.0], [3.0]], [1, "a"], [[0, 0]], 1e30, 10**12,
        10**30]
T_MAX_CAP = 0.3
DOCUMENTS = 300


def _leaves(node, path=()):
    """The path (keys and list indices) to every leaf of a JSON document."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _mutate(doc, rng):
    """Replace one or two leaves with pool values; now and then add an unknown key."""
    for _ in range(1 + int(rng.integers(2))):
        value = copy.deepcopy(POOL[int(rng.integers(len(POOL)))])
        if rng.random() < 0.1:
            dicts = [doc] + [doc[k] for k in doc if isinstance(doc[k], dict)]
            dicts[int(rng.integers(len(dicts)))]["extra"] = value
            continue
        paths = list(_leaves(doc))
        *parents, last = paths[int(rng.integers(len(paths)))]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_suite_documents_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(17)
    names = sorted(SCENARIOS)
    escaped = []
    for i in range(DOCUMENTS):
        doc = json.loads(json.dumps(SCENARIOS[names[i % len(names)]]))
        doc["integration"]["t_max"] = min(doc["integration"]["t_max"], T_MAX_CAP)
        doc = _mutate(doc, rng)
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = (["run", "--config", str(path), "--out", str(tmp_path / f"out{i}")]
                if i % 2 == 0 else ["check", "--config", str(path)])
        try:
            code = cli.main(argv)
        except Exception as exc:   # every document must end in an exit code
            escaped.append(f"{argv[0]} {json.dumps(doc)}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2, 3):
            escaped.append(f"{argv[0]} {json.dumps(doc)}: exit code {code!r}")
    capsys.readouterr()
    assert not escaped, "\n".join(escaped)
