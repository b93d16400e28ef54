import json
import re
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from finstab import (ConfigError, build_scenario, check_scenario, load_scenario,
                     run_scenario, scenario_from_json)
from finstab import cli, decomposition
from finstab.scenario import hybrid_initial_state, parse_initial_state, resolve_seed
from finstab.frontends import transport_heat_model
from finstab import FrontendSpec


def heat_doc(**overrides):
    doc = {
        "name": "heat-small",
        "frontend": {"kind": "Heat1D", "n_modes": 4},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "mode2+0.5*mode3",
        "integration": {"t_max": 0.5, "sample_dt": 0.005},
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    cmd = [sys.executable, "-m", "finstab.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


# ---------------------------------------------------------------------------
# Config parsing


def test_rejects_unknown_keys_and_missing_routes():
    with pytest.raises(ConfigError):
        scenario_from_json(heat_doc(extra=1))
    with pytest.raises(ConfigError):
        scenario_from_json({"controller": {"variant": "ZeroControl"}})
    doc = heat_doc()
    doc["matrices"] = {"dim": 1, "generator": [[-1.0]], "control_op": "identity"}
    with pytest.raises(ConfigError):
        scenario_from_json(doc)
    with pytest.raises(ConfigError):
        scenario_from_json({"frontend": {"kind": "Heat1D"}, "controller": "BilinearPhi"})
    with pytest.raises(ConfigError):
        scenario_from_json(heat_doc(seed="not-a-number"))
    with pytest.raises(ConfigError):
        scenario_from_json([1, 2, 3])


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_scenario(bad)


def test_seed_env_override(monkeypatch):
    config = scenario_from_json(heat_doc(seed=7))
    monkeypatch.delenv("FINSTAB_SEED", raising=False)
    assert resolve_seed(config) == 7
    monkeypatch.setenv("FINSTAB_SEED", "99")
    assert resolve_seed(config) == 99
    monkeypatch.setenv("FINSTAB_SEED", "pi")
    with pytest.raises(ConfigError):
        resolve_seed(config)


def test_unknown_integration_key_is_rejected():
    with pytest.raises(ConfigError):
        build_scenario(scenario_from_json(heat_doc(integration={"tmax": 1.0})))


# ---------------------------------------------------------------------------
# Initial states


def test_parse_combo_states():
    built = build_scenario(scenario_from_json(heat_doc()))
    model, dec = built.model, built.dec
    vec = parse_initial_state("mode2+0.5*mode3", model, dec, seed=0)
    assert np.array_equal(vec, [0.0, 1.0, 0.5, 0.0])
    vec = parse_initial_state("2*mode1-mode4", model, dec, seed=0)
    assert np.array_equal(vec, [2.0, 0.0, 0.0, -1.0])
    assert np.array_equal(parse_initial_state("zero", model, dec, 0), np.zeros(4))
    assert np.array_equal(parse_initial_state([1, 2, 3, 4], model, dec, 0),
                          [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ConfigError):
        parse_initial_state("mode9", model, dec, 0)
    with pytest.raises(ConfigError):
        parse_initial_state("mode2+!", model, dec, 0)
    with pytest.raises(ConfigError):
        parse_initial_state([1.0, 2.0], model, dec, 0)


def test_wperp_random_is_seeded_and_normalized():
    built = build_scenario(scenario_from_json(heat_doc()))
    model, dec = built.model, built.dec
    a = parse_initial_state("wperp-random(42)", model, dec, seed=0)
    b = parse_initial_state("wperp-random(42)", model, dec, seed=5)
    c = parse_initial_state("wperp-random(43)", model, dec, seed=0)
    assert np.array_equal(a, b)      # explicit seed wins over the config seed
    assert not np.array_equal(a, c)
    assert a[0] == 0.0               # no component along the unobservable mode
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
    # without parentheses the scenario seed is used
    d = parse_initial_state("wperp-random", model, dec, seed=5)
    e = parse_initial_state("wperp-random", model, dec, seed=6)
    assert not np.array_equal(d, e)


def test_hybrid_presets():
    model = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                              grid_n=16, omega_h=0.25))
    bump = hybrid_initial_state("hybrid-bump", model)
    assert bump.c[0, 0] == 1.0 and bump.c[1, 1] == 1.0
    assert np.all(bump.psi[:model.n_omega, :model.n_omega] == 0.0)
    assert np.any(bump.psi != 0.0)
    flat = hybrid_initial_state("phi00", model)
    assert flat.c[0, 0] == 1.0 and np.all(flat.psi == 0.0)
    custom = hybrid_initial_state({"phi_modes": [[2, 3, -1.5]], "psi": "zero"}, model)
    assert custom.c[2, 3] == -1.5
    with pytest.raises(ConfigError):
        hybrid_initial_state("no-such-preset", model)
    with pytest.raises(ConfigError):
        hybrid_initial_state({"phi_modes": [[9, 0, 1.0]]}, model)
    with pytest.raises(ConfigError):
        hybrid_initial_state({"psi": [[1.0, 2.0]]}, model)


# ---------------------------------------------------------------------------
# Running scenarios in process


def test_heat_run_writes_consistent_artifacts(tmp_path):
    config = scenario_from_json(heat_doc())
    code, summary = run_scenario(config, tmp_path / "out")
    assert code == 0
    assert summary["status"] == "ok"
    assert all(r["passed"] for r in summary["checks"])
    assert sorted(summary["artifacts"]) == ["plot.svg", "summary.json", "trajectory.csv"]
    csv_bytes = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert b"\r" not in csv_bytes  # LF endings only
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,y_4,u,V"
    for token in lines[1].split(",") + lines[-1].split(","):
        assert repr(float(token)) == token  # shortest round-trip formatting
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["exit_code"] == 0
    assert doc["decomposition"]["delta"] == "NotNilpotent"
    svg = (tmp_path / "out" / "plot.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_runs_are_deterministic(tmp_path):
    config = scenario_from_json(heat_doc())
    run_scenario(config, tmp_path / "a")
    run_scenario(config, tmp_path / "b")
    for name in ("trajectory.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_plot_can_be_disabled(tmp_path):
    config = scenario_from_json(heat_doc(plot=False))
    code, summary = run_scenario(config, tmp_path / "out")
    assert code == 0
    assert "plot.svg" not in summary["artifacts"]
    assert not (tmp_path / "out" / "plot.svg").exists()


def test_matrix_route_run(tmp_path):
    doc = {
        "name": "matrix-pair",
        "matrices": {"dim": 2, "generator": {"diagonal": [-1.0, -2.0]},
                     "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0, 1.0],
        "integration": {"t_max": 3.0, "sample_dt": 0.01},
    }
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "out")
    assert code == 0
    assert summary["settling_time"] is not None
    assert summary["settling_time"] <= summary["settling_bound"] + 0.01 + 1e-9


def test_invalid_control_operator_short_circuits(tmp_path):
    doc = {
        "name": "bad-operator",
        "matrices": {"dim": 2, "generator": {"diagonal": [-1.0, -2.0]},
                     "control_op": [[0.0, 1.0], [0.0, 0.0]]},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0, 1.0],
        "integration": {"t_max": 1.0},
    }
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "out")
    assert code == 1
    assert summary["status"] == "invalid"
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_h1_failing_matrix_run_skips_the_split_check(tmp_path):
    # W = span(e2) is A-invariant, but A e1 leaks into W, so H1 fails
    doc = {
        "name": "h1-fail",
        "matrices": {"dim": 2, "generator": [[-1.0, 0.0], [1.0, -2.0]],
                     "control_op": {"diagonal": [1.0, 0.0]}},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0, 1.0],
        "integration": {"t_max": 2.0, "sample_dt": 0.01},
    }
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "out")
    checks = {r["name"]: r for r in summary["checks"]}
    assert code == 1
    assert not checks["H1"]["passed"]
    assert summary["decomposition"]["h1_holds"] is False
    assert checks["split"] == {"name": "split", "passed": True, "applicable": False,
                               "reason": "H1 not certified"}


def test_stalled_run_exits_3(tmp_path):
    doc = {
        "name": "stall",
        "matrices": {"dim": 1, "generator": [[-200.0]], "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0],
        "integration": {"t_max": 5.0, "rtol": 1e-12, "atol": 1e-15,
                        "dt_min": 0.5, "dt_init": 0.5, "dt_max": 0.5,
                        "sample_dt": 0.5},
    }
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "out")
    assert code == 3
    assert summary["status"] == "stalled"


def test_zero_control_run_is_the_exact_free_flow(tmp_path, capsys):
    # no law acts, so the run samples y' = Ay exactly instead of stepping it:
    # a non-normal A under a non-identity metric, against scipy's exponential
    rng = np.random.default_rng(4)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + 4.0 * np.eye(4)
    A = np.triu(rng.standard_normal((4, 4)), 1) * 3.0 - np.diag([0.5, 1.0, 1.5, 2.0])
    C = rng.standard_normal((4, 4))
    B = np.linalg.solve(M, C @ C.T + np.eye(4))    # M-self-adjoint, definite
    y0 = rng.standard_normal(4)
    doc = {"name": "free", "matrices": {"dim": 4, "metric": M.tolist(), "generator": A.tolist(),
                                        "control_op": B.tolist()},
           "controller": {"variant": "ZeroControl"}, "initial_state": y0.tolist(),
           "integration": {"t_max": 2.0, "sample_dt": 2.0 / 256}}
    out = tmp_path / "free"
    assert cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert "  stepper: 0 steps, 0 rejections, 0 RHS calls, accepted dt none" in \
        capsys.readouterr().out.splitlines()
    header, data = (out / "trajectory.csv").read_text(encoding="utf-8").split("\n", 1)
    assert header == "t,y_1,y_2,y_3,y_4,u,V"
    data = np.loadtxt(data.splitlines(), delimiter=",")   # repr round-trips every float
    assert data.shape == (257, 7)    # V by two law blocks, the second one row
    worst = max(np.linalg.norm(row[1:5] - scipy.linalg.expm(row[0] * A) @ y0)
                / np.linalg.norm(scipy.linalg.expm(row[0] * A) @ y0) for row in data)
    assert worst <= 1e-12
    assert np.all(data[:, 5] == 0.0)
    # W is trivial, so V = <B y, y>_M
    V = np.einsum("ki,ij,kj->k", data[:, 1:5], M @ B, data[:, 1:5])
    np.testing.assert_allclose(data[:, 6], V, rtol=1e-12, atol=0.0)
    diag = json.loads((out / "summary.json").read_text(encoding="utf-8"))["diagnostics"]
    assert diag == {"steps": 0, "rejections": 0, "rhs_calls": 0, "dt_min_accepted": None,
                    "dt_max_accepted": None, "saturation_events": 0, "v_increase_events": 0,
                    "latch_time": None, "clamp_time": None, "dead_zone_regrow": False}
    # the same counters as a stepped run
    stepped = run_scenario(scenario_from_json(heat_doc()), tmp_path / "heat")[1]
    assert sorted(stepped["diagnostics"]) == sorted(diag)


def test_free_wave_at_128_modes_conserves_the_norm(tmp_path):
    # a draw on which stepping the free flow drifted by 1.06e-9 per unit time,
    # above the 1e-9 budget; the exact samples drift by roundoff only
    doc = {"name": "wave-n128", "frontend": {"kind": "Wave1D", "n_modes": 128, "q": 3},
           "controller": {"variant": "ZeroControl"}, "initial_state": "wperp-random",
           "integration": {"t_max": 1.0, "sample_dt": 0.0015}, "seed": 1613193520}
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "wave")
    assert code == 0
    conservation = [r for r in summary["checks"] if r["name"] == "norm_conservation"][0]
    assert conservation["passed"]
    assert conservation["max_drift"] <= 1e-12   # per unit time: t_max is 1


def test_check_scenario_heat_passes_and_wave_reports_h2():
    code, summary = check_scenario(scenario_from_json(heat_doc()))
    assert code == 0
    assert {r["name"] for r in summary["checks"]} >= {"H1", "H2", "gamma_certificate"}
    wave_doc = heat_doc(frontend={"kind": "Wave1D", "n_modes": 4, "q": 2},
                        initial_state="wperp-random(1)")
    code, summary = check_scenario(scenario_from_json(wave_doc))
    # the built-in wave compensation under-compensates, and the check says so
    assert code == 1
    h2 = [r for r in summary["checks"] if r["name"] == "H2"][0]
    assert not h2["passed"]


def test_seed_override_changes_the_drawn_state(monkeypatch):
    doc = heat_doc(initial_state="wperp-random")
    monkeypatch.setenv("FINSTAB_SEED", "11")
    y_a = build_scenario(scenario_from_json(doc)).y0
    monkeypatch.setenv("FINSTAB_SEED", "12")
    y_b = build_scenario(scenario_from_json(doc)).y0
    assert not np.array_equal(y_a, y_b)


# ---------------------------------------------------------------------------
# The installed command line


def test_cli_run_and_check(tmp_path):
    path = write_config(tmp_path, heat_doc())
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(path), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert "[pass]" in cp.stdout and "status=ok" in cp.stdout
    assert (out / "trajectory.csv").exists()
    cp = run_cli("check", "--config", str(path))
    assert cp.returncode == 0, cp.stderr
    assert "all checks passed" in cp.stdout


def test_cli_config_errors(tmp_path):
    path = write_config(tmp_path, heat_doc(bogus=1))
    cp = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert cp.returncode == 2
    assert "config error" in cp.stderr
    cp = run_cli("check", "--config", str(tmp_path / "nowhere.json"))
    assert cp.returncode == 2


def test_cli_stall_exit_code(tmp_path):
    doc = {
        "name": "stall",
        "matrices": {"dim": 1, "generator": [[-200.0]], "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0],
        "integration": {"t_max": 5.0, "rtol": 1e-12, "atol": 1e-15,
                        "dt_min": 0.5, "dt_init": 0.5, "dt_max": 0.5,
                        "sample_dt": 0.5},
    }
    path = write_config(tmp_path, doc)
    cp = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert cp.returncode == 3
    assert "status=stalled" in cp.stdout


@pytest.mark.parametrize("matrices", [
    {"dim": 2, "generator": [[-1.0, float("nan")], [0.0, -2.0]], "control_op": "identity"},
    {"dim": 2, "metric": {"diagonal": [1.0, float("inf")]},
     "generator": {"diagonal": [-1.0, -2.0]}, "control_op": "identity"},
    {"dim": 2, "generator": {"diagonal": [-1.0, -2.0]},
     "control_op": [[float("inf"), 0.0], [0.0, 1.0]]},
])
def test_cli_check_rejects_non_finite_matrices(tmp_path, capsys, matrices):
    # json writes and reads these as NaN / Infinity
    doc = {"name": "non-finite", "matrices": matrices,
           "controller": {"variant": "BilinearPhi", "mu": 0.25},
           "initial_state": [1.0, 1.0], "integration": {"t_max": 1.0}}
    path = write_config(tmp_path, doc)
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert cli.main(["check", "--config", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err


def _hybrid_doc(**integration):
    return {"frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 16,
                         "omega_h": 0.25},
            "initial_state": "phi00", "integration": integration}


def _matrices_doc(**matrices):
    return {"frontend": None, "initial_state": [1.0, 1.0],
            "matrices": {"dim": 2, "generator": {"diagonal": [-1.0, -2.0]}, **matrices}}


@pytest.mark.parametrize("overrides, cause", [
    (_hybrid_doc(t_max="abc"), "'t_max' must be a number"),
    (_hybrid_doc(t_max=[1]), "'t_max' must be a number"),
    (_hybrid_doc(t_max=None), "'t_max' must be a number"),
    (_hybrid_doc(t_max=float("inf")), "t_max must be positive and finite"),
    (_hybrid_doc(t_max=1.0, eps_settle="x"), "'eps_settle' must be a number"),
    (_hybrid_doc(t_max=1.0, eps_settle=None), "'eps_settle' must be a number"),
    ({"integration": {"t_max": 0.5, "eps_settle": None}}, "'eps_settle' must be a number"),
    ({"integration": {"t_max": 0.5, "sample_dt": "nan"}}, "sample_dt must be positive"),
    ({"integration": {"t_max": 0.5, "rtol": float("nan")}}, "tolerances must be positive"),
    ({"frontend": {"kind": "Heat1D", "n_modes": 8.5}}, "n_modes must be an integer"),
    ({"frontend": {"kind": "Wave1D", "n_modes": 4, "q": 2.5}}, "q must be an integer"),
    ({"frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 16.5,
                   "omega_h": 0.25}}, "grid_n must be an integer"),
    ({"frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 16,
                   "omega_h": "x"}}, "invalid frontend"),
    ({"frontend": {"kind": "Beam1D", "n_modes": 4, "h_coeffs": ["a"]}}, "invalid frontend"),
    (_matrices_doc(control_op="x"), "control_op: expected a rectangular array"),
    (_matrices_doc(generator=[[-1.0, 0.0], [0.0]], control_op="identity"),
     "generator: expected a rectangular array"),
    (_matrices_doc(generator={"diagonal": ["a", -2.0]}, control_op="identity"),
     "generator: expected a rectangular array"),
    ({**_matrices_doc(input_map=[[1.0], [0.0, 1.0]]),
      "controller": {"variant": "LinearPhi", "mu": 0.25}},
     "input_map: expected a rectangular array"),
    ({"initial_state": ["a", 1, 2, 3]}, "initial_state must be a rectangular array"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"psi": "x"}},
     "psi must be a rectangular array"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"psi": [[0.0] * 16] * 15 + [[0.0]]}},
     "psi must be a rectangular array"),
    (_matrices_doc(dim=2.5, control_op="identity"), "integer 'dim', got 2.5"),
    ({"seed": 2.5}, "'seed' must be an integer, got 2.5"),
    ({"controller": {"variant": "BilinearPhi", "phi": [1]}},
     "phi must be a kind name or an object"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "WaveK", "q": 2.5, "half": 4}}},
     "phi.q must be an integer, got 2.5"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "WaveK", "q": 2, "half": 4.9}}},
     "phi.half must be an integer, got 4.9"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": [[1.7, 0.2, 1.0]]}},
     "phi_modes indices must be integers, got [1.7, 0.2]"),
])
def test_cli_check_rejects_malformed_documents(tmp_path, capsys, overrides, cause):
    doc = {**heat_doc(), **overrides}
    if doc["frontend"] is None:
        del doc["frontend"]
    path = write_config(tmp_path, doc)
    assert cli.main(["check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert re.match(r"(config|model) error: ", err), err
    assert cause in err
    assert "Traceback" not in out + err


def test_cli_run_prints_the_stepper_line(tmp_path, capsys):
    path = write_config(tmp_path, heat_doc())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    diag = json.loads((out / "summary.json").read_text(encoding="utf-8"))["diagnostics"]
    stepper = [i for i, line in enumerate(lines) if line.startswith("  stepper:")]
    assert len(stepper) == 1
    # after the check table, before the closing status line
    assert lines[stepper[0] - 1].startswith("  [") and "status=ok" in lines[-1]
    assert lines[stepper[0]] == (
        f"  stepper: {diag['steps']} steps, {diag['rejections']} rejections, "
        f"{diag['rhs_calls']} RHS calls, accepted dt "
        f"[{diag['dt_min_accepted']:.3g}, {diag['dt_max_accepted']:.3g}]")
    assert sorted(p.name for p in out.iterdir()) == ["plot.svg", "summary.json",
                                                     "trajectory.csv"]


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def solver_config(tmp_path):
    return write_config(tmp_path, {
        "name": "solver",
        "matrices": {"dim": 2, "generator": {"diagonal": [-1.0, -2.0]},
                     "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0, 1.0], "integration": {"t_max": 1.0}})


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_solver_failure_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(np.linalg, "svd", _no_convergence)
    args = [command, "--config", str(solver_config(tmp_path))]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert "model error: unobservable_subspace: did not converge" in capsys.readouterr().err


def test_cli_gamma_solver_failure_is_not_an_h3_verdict(tmp_path, capsys, monkeypatch):
    # only the decomposition module's eigvalsh fails; the model checks keep theirs
    linalg = SimpleNamespace(eigvalsh=_no_convergence, eigh=np.linalg.eigh, svd=np.linalg.svd)
    monkeypatch.setattr(decomposition, "linalg", linalg)
    assert cli.main(["check", "--config", str(solver_config(tmp_path))]) == 2
    assert "model error: compute_gamma: did not converge" in capsys.readouterr().err


def test_cli_suite_prints_each_criterion_wall_time(capsys):
    assert cli.main(["suite", "--filter", "c7-*"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("c7-decomposition-oracle")
    assert re.search(r"\(\d+\.\d\d s\)$", header)


def test_cli_suite_list_and_bad_filter():
    cp = run_cli("suite", "--list")
    assert cp.returncode == 0, cp.stderr
    names = cp.stdout.split()
    assert len(names) == 9
    assert names[0] == "c1-heat-settling" and names[-1] == "c9-stability-sweep"
    cp = run_cli("suite", "--filter", "zz-no-such-*")
    assert cp.returncode == 2
    assert "no criteria match" in cp.stderr


def test_cli_hybrid_run_writes_grids(tmp_path):
    doc = {
        "name": "hybrid-small",
        "frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 32,
                     "omega_h": 0.25},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "hybrid-bump",
        "integration": {"t_max": 3.0},
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(path), "--out", str(out))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert (out / "psi_initial.csv").exists() and (out / "psi_final.csv").exists()
    final = np.loadtxt(out / "psi_final.csv", delimiter=",")
    assert final.shape == (32, 32)
    assert np.all(final == 0.0)  # the transport component has exited


def test_cli_seed_env_changes_the_run(tmp_path):
    doc = heat_doc(initial_state="wperp-random",
                   controller={"variant": "ZeroControl"},
                   integration={"t_max": 0.1, "sample_dt": 0.01})
    path = write_config(tmp_path, doc)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("run", "--config", str(path), "--out", str(a),
                   env={"FINSTAB_SEED": "5"}).returncode == 0
    assert run_cli("run", "--config", str(path), "--out", str(b),
                   env={"FINSTAB_SEED": "5"}).returncode == 0
    assert run_cli("run", "--config", str(path), "--out", str(c),
                   env={"FINSTAB_SEED": "6"}).returncode == 0
    csv = lambda d: (d / "trajectory.csv").read_bytes()
    assert csv(a) == csv(b)
    assert csv(a) != csv(c)


def _metric_matrices_doc():
    # a heat-like system in the metric-orthonormal basis L^-T e_i of M = L L^T,
    # so A and B are M-self-adjoint but neither is symmetric
    rng = np.random.default_rng(3)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + 4.0 * np.eye(4)
    L = np.linalg.cholesky(M)
    Linv_T = np.linalg.inv(L).T
    A = Linv_T @ np.diag([-1.0, -2.0, -3.0, -4.0]) @ L.T
    B = Linv_T @ np.diag([0.0, 1.0, 1.0, 2.0]) @ L.T
    y0 = Linv_T @ np.array([0.3, 1.0, 0.5, 0.2])
    return {"name": "metric", "seed": 0,
            "matrices": {"dim": 4, "metric": M.tolist(), "generator": A.tolist(),
                         "control_op": B.tolist()},
            "controller": {"variant": "BilinearPhi", "mu": 0.25},
            "initial_state": y0.tolist(), "integration": {"t_max": 3.0}}


def _planted_matrices_doc():
    # W = the span of the first two columns of a random rotation: A-invariant
    # and inside ker B
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    core = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
    core[0, 1] = 0.7
    A = Q @ core @ Q.T
    B = Q @ np.diag([0.0, 0.0, 1.0, 2.0, 1.5, 3.0]) @ Q.T
    return {"name": "planted", "seed": 0,
            "matrices": {"dim": 6, "generator": A.tolist(), "control_op": B.tolist()},
            "controller": {"variant": "BilinearPhi", "mu": 0.25},
            "initial_state": Q[:, 2].tolist(), "integration": {"t_max": 1.0}}


def test_run_path_needs_no_scipy_solver(tmp_path, monkeypatch):
    # run and check do all their linear algebra in numpy: with scipy's
    # eigensolvers, SVD and expm broken they give the same exit codes
    from finstab.suite import SCENARIOS

    def broken(*args, **kwargs):
        raise AssertionError("scipy.linalg called on the run path")

    for name in ("eigh", "eigvalsh", "svd", "expm"):
        monkeypatch.setattr(scipy.linalg, name, broken)
    expected = {"heat-settling": 0, "wave-conservation": 0, "wave-settling": 1,
                "beam-rankone": 0}
    for key, code in expected.items():
        config = scenario_from_json(json.loads(json.dumps(SCENARIOS[key])))
        assert run_scenario(config, tmp_path / key)[0] == code, key
    metric_code, summary = run_scenario(scenario_from_json(_metric_matrices_doc()),
                                        tmp_path / "metric")
    assert metric_code == 0
    assert summary["decomposition"]["dim_w"] == 1
    planted_code, summary = check_scenario(scenario_from_json(_planted_matrices_doc()))
    assert planted_code == 0
    assert summary["decomposition"]["dim_w"] == 2
    # nor is scipy.linalg loaded: a fresh interpreter reports it after the
    # import and after each entry point; sys.modules only grows, so the first
    # report that finds it names the step that loaded it
    config = write_config(tmp_path, heat_doc())
    report = "print('loaded after {}:', 'scipy.linalg' in sys.modules)"
    code = "\n".join([
        "import sys",
        "from finstab import cli",
        report.format("import"),
        f"cli.main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'cli')!r}])",
        report.format("run"),
        f"cli.main(['check', '--config', {str(config)!r}])",
        report.format("check"),
        "cli.main(['suite', '--filter', 'c7*'])",
        report.format("suite"),
    ])
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    reports = [line for line in cp.stdout.splitlines() if line.startswith("loaded after ")]
    assert reports == [f"loaded after {step}: False"
                       for step in ("import", "run", "check", "suite")]


def test_import_keeps_the_benchmark_contract():
    # perfbench/worker.py records finstab.USING_NUMBA and scipy's version from
    # sys.modules; both go once the worker stops reading them (ROADMAP item 1)
    cp = subprocess.run(
        [sys.executable, "-c",
         "import sys, finstab; print(finstab.USING_NUMBA, 'scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["False", "True"]


def test_traced_functions_resolve_on_a_fresh_import():
    # the benchmark's tracer looks up every "module.function" named in
    # perfbench/spans.py on the finstab modules; one that a refactor renames,
    # folds or makes local would stop that tracer, though no run changes
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    code = "\n".join([
        "import importlib.util, sys, finstab",
        f"spec = importlib.util.spec_from_file_location('spans', {str(spans)!r})",
        "spans = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(spans)",
        "for name in spans.TRACED:",
        "    module, function = name.split('.')",
        "    if not callable(getattr(sys.modules['finstab.' + module], function, None)):",
        "        print(name)",
    ])
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == ""


def test_star_import_resolves_every_public_name():
    # a name deleted from a module but left in __all__ breaks "import *"
    code = "\n".join([
        "import finstab",
        "namespace = {}",
        "exec('from finstab import *', namespace)",
        "print(sorted(set(finstab.__all__) - set(namespace)))",
    ])
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"
