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
from finstab import cli, compute_gamma, gamma_certificate, scenario
from finstab.integrator import IntegrationStalledError, simulate
from finstab import model as model_module
from finstab.scenario import hybrid_initial_state, parse_initial_state
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


def run_cli(*args):
    """The installed entry point in a fresh interpreter."""
    cmd = [sys.executable, "-m", "finstab.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def main_cli(capsys, *args):
    """cli.main in this interpreter, with the captured output of the call."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


def h4_json(summary):
    # json keeps key order and tells 0.0 from 0 and True from 1
    return json.dumps([r for r in summary["checks"] if r["name"] == "H4"][0])


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


def test_the_seed_comes_from_the_document():
    assert build_scenario(scenario_from_json(heat_doc(seed=7))).seed == 7
    with pytest.raises(ConfigError, match="'seed' must be non-negative"):
        scenario_from_json(heat_doc(seed=-1))   # numpy's generators take no negative seed


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
    assert h4_json(summary) == json.dumps({"name": "H4", "passed": True, "nilpotent": False,
                                           "delta": "NotNilpotent", "dim_w": 1})
    svg = (tmp_path / "out" / "plot.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_runs_are_deterministic(tmp_path):
    hybrid = {**heat_doc(name="hybrid-small"), **_hybrid_doc(t_max=1.0),
              "initial_state": "hybrid-bump"}
    for doc, grids in ((heat_doc(), ()), (hybrid, ("psi_initial.csv", "psi_final.csv"))):
        config = scenario_from_json(doc)
        a, b = tmp_path / f"{doc['name']}-a", tmp_path / f"{doc['name']}-b"
        run_scenario(config, a)
        run_scenario(config, b)
        for name in ("trajectory.csv", "summary.json", "plot.svg", *grids):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_hybrid_assumption_reports(tmp_path):
    # the run's transport_exit check, not H4, tests the horizon
    doc = {**heat_doc(name="hybrid-small"), **_hybrid_doc(t_max=3.0),
           "initial_state": "hybrid-bump"}
    h1 = json.dumps({"name": "H1", "passed": True, "coupling": "transport mass leaves the "
                     "observable patch and never re-enters"})
    h4 = json.dumps({"name": "H4", "passed": True, "nilpotent": True, "delta": 1.0})
    for code, summary in (check_scenario(scenario_from_json(doc)),
                          run_scenario(scenario_from_json(doc), tmp_path / "out")):
        assert code == 0
        reports = {r["name"]: json.dumps(r) for r in summary["checks"]}
        assert reports["H1"] == h1
        assert reports["H4"] == h4
    assert "transport_exit" in reports


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
    # W = {0}: the whole state is observed, so no unobservable part outlives the bound
    h4 = json.dumps({"name": "H4", "passed": True, "nilpotent": True, "delta": 0.0,
                     "dim_w": 0})
    assert json.dumps(summary["decomposition"]["delta"]) == "0.0"
    assert h4_json(summary) == h4
    code, summary = check_scenario(scenario_from_json(doc))
    assert code == 0
    assert json.dumps(summary["decomposition"]["delta"]) == "0.0"
    assert h4_json(summary) == h4


_ROUTE_FRONTENDS = [
    {"kind": "Heat1D", "n_modes": 8},
    {"kind": "Wave1D", "n_modes": 8, "q": 3},
    {"kind": "Beam1D", "n_modes": 8, "h_coeffs": [1.0, 0.5]},
]


def _route_docs(frontend):
    """The front end's scenario, and the same model given as raw matrices."""
    doc = {"name": "route", "controller": {"variant": "ZeroControl"},
           "integration": {"t_max": 0.1}}
    model = build_scenario(scenario_from_json({**doc, "frontend": frontend})).model
    matrices = {"dim": model.dim, "metric": model.metric.tolist(),
                "generator": model.generator.tolist()}
    if model.control_op is not None:
        matrices["control_op"] = model.control_op.tolist()
    else:
        matrices["input_map"] = model.input_map.tolist()
    return {**doc, "frontend": frontend}, {**doc, "matrices": matrices}


@pytest.mark.parametrize("frontend", _ROUTE_FRONTENDS, ids=lambda f: f["kind"])
def test_frontend_and_matrices_routes_agree(frontend):
    a, b = (build_scenario(scenario_from_json(doc)) for doc in _route_docs(frontend))
    assert a.dec.dim_w == b.dec.dim_w
    assert a.dec.gamma == pytest.approx(b.dec.gamma, rel=1e-12)
    assert a.control.passed and b.control.passed
    assert (a.control.details.get("min_rayleigh_quotient")
            == b.control.details.get("min_rayleigh_quotient"))
    assert a.h1.passed and b.h1.passed


@pytest.mark.parametrize("frontend", _ROUTE_FRONTENDS, ids=lambda f: f["kind"])
def test_control_operator_is_validated_once_per_build(monkeypatch, frontend):
    calls, eigensolves = [], []

    def counted(model):
        calls.append(model)
        return validate(model)

    def counted_pencil(S, M):
        eigensolves.append(S)
        return pencil(S, M)

    validate = scenario.validate_control_operator
    pencil = model_module.pencil_eigvalsh
    monkeypatch.setattr(scenario, "validate_control_operator", counted)
    monkeypatch.setattr(model_module, "pencil_eigvalsh", counted_pencil)
    for doc in _route_docs(frontend):
        calls.clear()
        eigensolves.clear()
        built = build_scenario(scenario_from_json(doc))
        scenario.assumption_reports(built)
        # one validation and one metric eigensolve of B per build
        assert len(calls) == 1 and len(eigensolves) == 1, doc
        # gamma and its report read that spectrum: with every numpy solver
        # broken they still give the build's answers
        with monkeypatch.context() as broken:
            for name in ("eigh", "eigvalsh", "svd", "cholesky", "solve"):
                broken.setattr(np.linalg, name, _no_convergence)
            assert compute_gamma(built.model, built.dec, built.control) == built.dec.gamma
            assert gamma_certificate(built.model, built.dec, built.control).passed


@pytest.mark.parametrize("controller", [
    {"variant": "BilinearPhi", "mu": 0.25},
    {"variant": "BilinearPhi", "mu": 0.25, "phi": {"kind": "Constant", "value": 0.5}},
], ids=["Zero", "Constant"])
def test_gamma_and_constant_phi_h2_reports_draw_no_sample(monkeypatch, controller):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random sample was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, summary = check_scenario(scenario_from_json(heat_doc(controller=controller)))
    assert code == 0
    reports = {r["name"]: r for r in summary["checks"]}
    assert reports["gamma_certificate"]["passed"] and reports["H2"]["passed"]
    # no gamma (B not PSD): the gamma report fails and says why, still without a draw
    doc = {**heat_doc(controller=controller),
           **_matrices_doc(control_op={"diagonal": [1.0, -1.0]})}
    del doc["frontend"]
    code, summary = check_scenario(scenario_from_json(doc))
    assert code == 1
    gamma = next(r for r in summary["checks"] if r["name"] == "gamma_certificate")
    assert gamma == {"name": "gamma_certificate", "passed": False, "gamma": None,
                     "error": "compute_gamma requires a self-adjoint PSD control operator"}


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
        "matrices": {"dim": 1, "generator": [[-1.0]], "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0],
        "integration": {"t_max": 5.0, "rtol": 1e-12, "atol": 1e-15,
                        "dt_min": 0.5, "dt_init": 0.5, "dt_max": 0.5,
                        "sample_dt": 0.5},
    }
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "out")
    assert code == 3
    assert summary["status"] == "stalled"


def test_a_nan_error_estimate_is_a_rejection():
    # V and the pairing overflow at y0, so every slope is NaN: the stepper
    # must reject each step down to dt_min and stall, never accept one.  A
    # document naming this y0 is refused (its squared norm is 1e320), so the
    # stepper is driven directly
    doc = {"name": "nan", "frontend": {"kind": "Heat1D", "n_modes": 8},
           "controller": {"variant": "BilinearGrad", "mu": 0.25},
           "initial_state": "zero", "integration": {"t_max": 0.1}}
    built = build_scenario(scenario_from_json(doc))
    y0 = np.array([0.0, 1e160] + [0.0] * 6)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationStalledError) as stalled:
        simulate(built.model, built.dec, built.ops, y0, built.opts)
    traj = stalled.value.trajectory
    assert traj.diagnostics["steps"] == 0
    assert traj.diagnostics["rejections"] > 0
    assert traj.settling_time is None


@pytest.mark.parametrize("name, index, value", [
    ("heat-settling", None, "1e308*mode2"),
    ("beam-rankone", 8, 1e308),
], ids=["heat-settling-1e308-mode2", "beam-rankone-initial_state-8-1e308"])
def test_cli_run_refuses_an_initial_state_whose_squared_norm_overflows(tmp_path, capsys, name,
                                                                       index, value):
    # V, the settling bound and the norms would read inf or NaN
    from finstab.suite import SCENARIOS
    doc = json.loads(json.dumps(SCENARIOS[name]))
    if index is None:
        doc["initial_state"] = value
    else:
        doc["initial_state"][index] = value
    out = tmp_path / "out"
    cp = main_cli(capsys, "run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error: ")
    assert not (out / "summary.json").exists()


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
    assert summary["decomposition"]["delta"] == "NotNilpotent"
    assert h4_json(summary) == json.dumps({"name": "H4", "passed": True, "nilpotent": False,
                                           "delta": "NotNilpotent", "dim_w": 1})
    wave_doc = heat_doc(frontend={"kind": "Wave1D", "n_modes": 4, "q": 2},
                        initial_state="wperp-random(1)")
    code, summary = check_scenario(scenario_from_json(wave_doc))
    # the built-in wave compensation under-compensates, and the check says so
    assert code == 1
    h2 = [r for r in summary["checks"] if r["name"] == "H2"][0]
    assert not h2["passed"]


def test_the_document_seed_changes_the_drawn_state():
    y_a, y_b = (build_scenario(scenario_from_json(heat_doc(initial_state="wperp-random",
                                                           seed=seed))).y0
                for seed in (11, 12))
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
    assert "Traceback" not in cp.stdout + cp.stderr
    cp = run_cli("check", "--config", str(tmp_path / "nowhere.json"))
    assert cp.returncode == 2
    assert "Traceback" not in cp.stdout + cp.stderr


def test_cli_stall_exit_code(tmp_path, capsys):
    doc = {
        "name": "stall",
        "matrices": {"dim": 1, "generator": [[-1.0]], "control_op": "identity"},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": [1.0],
        "integration": {"t_max": 5.0, "rtol": 1e-12, "atol": 1e-15,
                        "dt_min": 0.5, "dt_init": 0.5, "dt_max": 0.5,
                        "sample_dt": 0.5},
    }
    path = write_config(tmp_path, doc)
    cp = main_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "out"))
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


def _wave_doc(phi):
    return {"frontend": {"kind": "Wave1D", "n_modes": 3, "q": 2}, "initial_state": "zero",
            "controller": {"variant": "BilinearPhi", "phi": phi}}


def _beam_doc(zeta=(0, 0, 0, 1, 0, 0), varpi=(1,)):
    return {"frontend": {"kind": "Beam1D", "n_modes": 3, "h_coeffs": [1.0]},
            "initial_state": "zero",
            "controller": {"variant": "RankOne", "zeta": list(zeta), "varpi": list(varpi)}}


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
    ({"integration": {"t_max": 0.5, "sample_dt": float("nan")}}, "sample_dt must be positive"),
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
    # a JSON true is not the number 1.0, nor is a string a plot switch
    ({"integration": {"t_max": True}}, "'t_max' must be a number, got True"),
    (_hybrid_doc(t_max=True), "'t_max' must be a number, got True"),
    ({"integration": {"t_max": 0.5, "sample_dt": True}}, "'sample_dt' must be a number, got True"),
    ({"controller": {"variant": "BilinearPhi", "mu": True}}, "mu must be a number, got True"),
    ({"controller": {"variant": "BilinearPhi", "dead_zone": True}},
     "dead_zone must be a number, got True"),
    ({"controller": {"variant": "BilinearGrad", "u_max": True}},
     "u_max must be a number, got True"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "Constant", "value": True}}},
     "phi.value must be a number, got True"),
    ({"controller": {"variant": "BilinearPhi",
                     "phi": {"kind": "WaveK", "q": 1, "half": 2, "cap": False}}},
     "phi.cap must be a number, got False"),
    ({"plot": "no"}, "'plot' must be true or false, got 'no'"),
    # nor is a string a number, alone or in an array
    ({"integration": {"t_max": "0.5"}}, "'t_max' must be a number, got '0.5'"),
    ({"integration": {"t_max": 0.5, "sample_dt": "nan"}}, "'sample_dt' must be a number, got 'nan'"),
    ({"controller": {"variant": "BilinearPhi", "mu": "0.3"}}, "mu must be a number, got '0.3'"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "Constant", "value": "0.5"}}},
     "phi.value must be a number, got '0.5'"),
    ({"initial_state": [True, 0, 0, 0]}, "initial_state must be a rectangular array"),
    ({"initial_state": ["0", "1.0", "0", "0"]}, "initial_state must be a rectangular array"),
    (_matrices_doc(generator=[[True, 0], [0, -2.0]], control_op="identity"),
     "generator: expected a rectangular array"),
    (_matrices_doc(generator={"diagonal": [-1.0, -2.0]}, control_op=[[1.0, 0], [0, "1"]]),
     "control_op: expected a rectangular array"),
    ({**_matrices_doc(input_map=[[False], [1.0]]),
      "controller": {"variant": "LinearPhi", "mu": 0.25}},
     "input_map: expected a rectangular array"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"psi": [[True] * 16] + [[0.0] * 16] * 15}},
     "psi must be a rectangular array"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": [[0, 0, "1.0"]]}},
     "phi_modes entries must be [j, k, coeff]"),
    ({"controller": {"variant": "RankOne", "zeta": ["1", 0, 0, 0], "varpi": [1.0]}},
     "zeta: expected a rectangular array"),
    ({"frontend": {"kind": "Beam1D", "n_modes": 4, "h_coeffs": [True]}},
     "h_coeffs: expected a rectangular array"),
    # numpy's generators take no negative seed
    ({"seed": -3}, "'seed' must be non-negative, got -3"),
    # the hybrid object takes a phi_modes list and psi, nothing else
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": 5}},
     "phi_modes must be a list of [j, k, coeff], got 5"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": [], "psi_modes": "bump"}},
     "unknown hybrid initial_state keys: ['psi_modes']"),
    # 1e-11 is within 1e-9 of the multiple 0 of 1/16: a patch of no cells
    ({**_hybrid_doc(t_max=1.0), "frontend": {"kind": "TransportHeat2D", "n_modes": 4,
                                             "grid_n": 16, "omega_h": 1e-11}},
     "omega_h must be at least one cell"),
    # initial data must be finite, however it is written
    ({"initial_state": [float("nan"), 0, 0, 0]}, "initial_state must be finite"),
    ({"initial_state": "1e999*mode2"}, "must have finite coefficients"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"psi": [[float("nan")] * 16] * 16}},
     "psi must be finite"),
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": [[0, 0, float("inf")]]}},
     "phi_modes coeff must be finite"),
    # nor may a phi_modes entry carry a fourth item
    ({**_hybrid_doc(t_max=1.0), "initial_state": {"phi_modes": [[0, 0, 1.0, 99]]}},
     "phi_modes entries must be [j, k, coeff]"),
    # a WaveK phi reads q positions and the q velocities from half on: both inside the state
    (_wave_doc({"kind": "WaveK", "q": 5, "half": 3}), "WaveK needs q <= half <= dim - q"),
    (_wave_doc({"kind": "WaveK", "q": 1, "half": 9}), "WaveK needs q <= half <= dim - q"),
    # RankOne's zeta has the state's length and varpi the input's
    (_beam_doc(zeta=[1, 0]), "RankOne needs zeta of length 6 and varpi of length 1"),
    (_beam_doc(varpi=[1, 2]), "RankOne needs zeta of length 6 and varpi of length 1"),
    # controller numbers that would make a certificate meaningless
    ({"controller": {"variant": "BilinearPhi", "dead_zone": float("inf")}},
     "dead_zone must be positive and finite, got inf"),
    ({"controller": {"variant": "BilinearPhi", "dead_zone": float("nan")}},
     "dead_zone must be positive and finite, got nan"),
    ({"controller": {"variant": "BilinearGrad", "u_max": 0.0}}, "u_max must be positive, got 0.0"),
    ({"controller": {"variant": "BilinearGrad", "u_max": float("nan")}},
     "u_max must be positive, got nan"),
    ({"controller": {"variant": "BilinearPhi",
                     "phi": {"kind": "WaveK", "q": 1, "half": 2, "cap": -1.0}}},
     "WaveK cap must be positive, got -1.0"),
    ({"controller": {"variant": "BilinearPhi",
                     "phi": {"kind": "WaveK", "q": 1, "half": 2, "cap": float("nan")}}},
     "WaveK cap must be positive, got nan"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "Constant", "value": float("nan")}}},
     "Constant phi value must be finite, got nan"),
    ({"controller": {"variant": "BilinearPhi", "phi": {"kind": "Constant", "value": float("inf")}}},
     "Constant phi value must be finite, got inf"),
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


@pytest.mark.parametrize("name, section, key, value, limit", [
    ("heat-settling", "integration", "t_max", 1e308, "limit of 1000000"),
    ("beam-rankone", "integration", "t_max", 1e30, "limit of 1000000"),
    ("transport-heat-settling", "frontend", "grid_n", 10**30, "grid_n must be at most 1024"),
    # one sample per macro step of 1/64
    ("transport-heat-settling", "integration", "t_max", 1e308,
     "at sample step 0.015625 needs inf samples, more than the limit of 1000000"),
    # the default grid of t_max / 2000 passes the sample limit, the stepper's dt_max does not
    (None, "integration", "t_max", 1e30, "at dt_max 0.05 needs at least 2e+31 steps, "
                                         "more than the limit of 10000000"),
], ids=["heat-settling-t_max-1e308", "beam-rankone-t_max-1e30",
        "transport-heat-settling-grid_n-1e30", "transport-heat-settling-t_max-1e308",
        "heat-n8-default-grid-t_max-1e30"])
def test_cli_run_refuses_sizes_past_the_limits(tmp_path, capsys, name, section, key, value,
                                               limit):
    # a suite scenario (or Heat1D n 8 on the default grid) with one size past its
    # limit: refused before the grid is allocated
    from finstab.suite import SCENARIOS
    doc = (json.loads(json.dumps(SCENARIOS[name])) if name else
           heat_doc(frontend={"kind": "Heat1D", "n_modes": 8}, integration={}))
    doc[section][key] = value
    cp = main_cli(capsys, "run", "--config", str(write_config(tmp_path, doc)),
                  "--out", str(tmp_path / "out"))
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error: ") and limit in cp.stderr
    assert "Traceback" not in cp.stdout + cp.stderr


def _sized_doc(**route):
    return {"name": "big", **route, "controller": {"variant": "BilinearPhi", "mu": 0.25},
            "initial_state": "zero", "integration": {"t_max": 1.0}}


@pytest.mark.parametrize("doc, what", [
    (_sized_doc(frontend={"kind": "Heat1D", "n_modes": 10**7}),
     "the state dimension of Heat1D n_modes 10000000 is 10000000"),
    (_sized_doc(matrices={"dim": 10**7, "generator": "identity", "control_op": "identity"}),
     "the state dimension of the matrices is 10000000"),
    (_sized_doc(frontend={"kind": "Wave1D", "n_modes": 513, "q": 3}),
     "the state dimension of Wave1D n_modes 513 is 1026"),
    (_sized_doc(frontend={"kind": "TransportHeat2D", "n_modes": 33, "grid_n": 16,
                             "omega_h": 0.25}),
     "the state dimension of TransportHeat2D n_modes 33 is 1089"),
], ids=["heat1d-n_modes-1e7", "matrices-dim-1e7-identity", "wave1d-n_modes-513",
        "transport-heat-n_modes-33"])
def test_cli_check_refuses_state_dimensions_past_the_limit(tmp_path, capsys, doc, what):
    # refused before any matrix or grid is allocated for it
    cp = main_cli(capsys, "check", "--config", str(write_config(tmp_path, doc)))
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error: ")
    assert f"{what}, more than the limit of 1024" in cp.stderr
    assert "Traceback" not in cp.stdout + cp.stderr


@pytest.mark.parametrize("doc, what", [
    ({**_sized_doc(frontend={"kind": "Wave1D", "n_modes": 512, "q": 3}),
      "controller": {"variant": "ZeroControl"}, "initial_state": "wperp-random(1)",
      "integration": {"t_max": 1000.0, "sample_dt": 0.001}},
     "1e+06 samples of 1024 state entries make 1.02e+09 trajectory entries"),
    ({**_sized_doc(frontend={"kind": "TransportHeat2D", "n_modes": 32, "grid_n": 1024,
                             "omega_h": 0.25}),
      "initial_state": "phi00", "integration": {"t_max": 976.0}},
     "9.99e+05 samples of 1024 state entries make 1.02e+09 trajectory entries"),
], ids=["wave1d-n_modes-512-sample_dt-1e-3-t_max-1000", "transport-heat-grid_n-1024-t_max-976"])
def test_cli_check_refuses_trajectories_past_the_entry_limit(tmp_path, capsys, doc, what):
    # each would record 8.2 GB of states; check builds the run and allocates no trajectory
    cp = main_cli(capsys, "check", "--config", str(write_config(tmp_path, doc)))
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error: ")
    assert f"{what}, more than the limit of 10000000" in cp.stderr
    assert "Traceback" not in cp.stdout + cp.stderr


def test_the_state_dimension_limit_admits_the_largest_planned_sizes():
    # wave and hybrid at the limit, the wave's run on its default grid of 2001
    # samples; a matrices document of dim 1024
    wave = build_scenario(scenario_from_json(
        _sized_doc(frontend={"kind": "Wave1D", "n_modes": 512, "q": 3})))
    assert wave.model.dim == 1024 and wave.opts.sample_dt == 1.0 / 2000
    FrontendSpec(kind="TransportHeat2D", n_modes=32, grid_n=16, omega_h=0.25)
    assert model_module.model_from_json(
        {"dim": 1024, "generator": "identity", "control_op": "identity"}).dim == 1024


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


def test_cli_control_spectrum_solver_failure_exits_2(tmp_path, capsys, monkeypatch):
    # the spectrum gamma is read from fails to converge: no verdict on gamma
    def pencil(S, M):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(model_module, "pencil_eigvalsh", pencil)
    assert cli.main(["check", "--config", str(solver_config(tmp_path))]) == 2
    assert ("model error: validate_control_operator: did not converge"
            in capsys.readouterr().err)


def test_cli_suite_prints_each_criterion_wall_time(capsys):
    assert cli.main(["suite", "--filter", "c7-*"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("c7-decomposition-oracle")
    assert re.search(r"\(\d+\.\d\d s\)$", header)


def test_cli_suite_list_and_bad_filter(capsys):
    cp = main_cli(capsys, "suite", "--list")
    assert cp.returncode == 0, cp.stderr
    names = cp.stdout.split()
    assert len(names) == 9
    assert names[0] == "c1-heat-settling" and names[-1] == "c9-stability-sweep"
    cp = main_cli(capsys, "suite", "--filter", "zz-no-such-*")
    assert cp.returncode == 2
    assert "no criteria match" in cp.stderr


def test_cli_hybrid_run_writes_grids(tmp_path, capsys):
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
    cp = main_cli(capsys, "run", "--config", str(path), "--out", str(out))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert (out / "psi_initial.csv").exists() and (out / "psi_final.csv").exists()
    final = np.loadtxt(out / "psi_final.csv", delimiter=",")
    assert final.shape == (32, 32)
    assert np.all(final == 0.0)  # the transport component has exited


@pytest.mark.parametrize("variant", ["ZeroControl", "BilinearPhi"])
def test_cli_hybrid_run_shorter_than_the_exit_horizon(tmp_path, capsys, variant):
    # t_max 0.5 < delta = 1: no sample reaches the horizon, so transport_exit
    # is not applicable; the bound max(V(0)^mu / (2 mu), delta) >= delta > t_max,
    # so settled_within_bound is not applicable to a controlled run either
    doc = {"name": "hybrid-short",
           "frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 16,
                        "omega_h": 0.25},
           "controller": {"variant": variant, "mu": 0.25},
           "initial_state": "hybrid-bump", "integration": {"t_max": 0.5}}
    out = tmp_path / "out"
    cp = main_cli(capsys, "run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
    assert "Traceback" not in cp.stdout + cp.stderr
    checks = {r["name"]: r for r in json.loads((out / "summary.json").read_text())["checks"]}
    exit_check = checks["transport_exit"]
    assert exit_check["passed"] and exit_check["applicable"] is False
    assert "before the exit horizon" in exit_check["reason"]
    failed = sorted(name for name, r in checks.items() if not r["passed"])
    assert failed == [] and cp.returncode == 0
    if variant == "BilinearPhi":
        assert checks["settled_within_bound"]["applicable"] is False


def test_cli_hybrid_decay_envelope_is_clipped_at_zero(tmp_path, capsys):
    # T(V0) = 0.632: the clamp sets V to 0 at t = 0.672 and the run settles at
    # 0.75, within its bound of 1.0; at the samples after the clamp the
    # envelope V(0)^mu - 2 mu t is negative, and its clip at zero holds V = 0
    doc = {"name": "hyb-small",
           "frontend": {"kind": "TransportHeat2D", "n_modes": 8, "grid_n": 64,
                        "omega_h": 0.25},
           "controller": {"variant": "BilinearPhi", "mu": 0.25},
           "initial_state": {"phi_modes": [[0, 0, 0.1]], "psi": "bump"},
           "integration": {"t_max": 2.0}}
    out = tmp_path / "out"
    cp = main_cli(capsys, "run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    summary = json.loads((out / "summary.json").read_text())
    checks = {r["name"]: r for r in summary["checks"]}
    assert checks["decay_envelope"]["passed"]
    assert checks["decay_envelope"]["max_violation"] <= 1e-6
    assert summary["diagnostics"]["clamp_time"] < summary["settling_time"] == 0.75


@pytest.mark.parametrize("variant, phi", [
    ("BilinearPhi", {"kind": "Constant", "value": 50}),
    ("ZeroControl", {"kind": "WaveK", "q": 1, "half": 2}),
], ids=["bilinear-phi-constant-50", "zero-control-wavek"])
def test_cli_hybrid_refuses_a_phi_it_cannot_apply(tmp_path, capsys, variant, phi):
    # the splitter applies u = -V^-mu alone: a phi would be reported in
    # summary.json without ever acting on the trajectory
    doc = {"name": "hybrid-phi",
           "frontend": {"kind": "TransportHeat2D", "n_modes": 4, "grid_n": 16,
                        "omega_h": 0.25},
           "controller": {"variant": variant, "mu": 0.25, "phi": phi},
           "initial_state": "hybrid-bump", "integration": {"t_max": 1.0}}
    out = tmp_path / "out"
    cp = main_cli(capsys, "run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error: ") and f"not {variant} with a {phi['kind']} phi" in cp.stderr
    assert "Traceback" not in cp.stdout + cp.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["heat-settling", "beam-rankone"])
def test_a_modal_run_assembles_one_law_bundle(tmp_path, monkeypatch, name):
    # the bound, the stepper, the recorded law and the decay check share one
    # bundle; a check integrates nothing and assembles none
    from finstab import controllers
    from finstab.suite import SCENARIOS
    assemble = controllers.assemble_kernel_args
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("finstab") and hasattr(module, "assemble_kernel_args"):
            monkeypatch.setattr(module, "assemble_kernel_args", counting)
    config = scenario_from_json(json.loads(json.dumps(SCENARIOS[name])))
    assert check_scenario(config)[0] == 0
    assert calls == []
    assert run_scenario(config, tmp_path / "out")[0] == 0
    assert len(calls) == 1


def _grad_heat_doc(t_max):
    return {"name": "grad-heat", "frontend": {"kind": "Heat1D", "n_modes": 8},
            "controller": {"variant": "BilinearGrad", "mu": 0.25},
            "initial_state": "mode2+0.5*mode3", "integration": {"t_max": t_max}}


def test_decay_check_allows_the_dead_zone_level_after_the_latch(tmp_path):
    # BilinearGrad follows its envelope up to the latch at t = 2.1127; the one
    # sample before the clamp has V = 9.4e-13, above the envelope but below
    # the dead zone's level 2 eps / gamma
    code, summary = run_scenario(scenario_from_json(_grad_heat_doc(3.0)), tmp_path / "heat")
    checks = {c["name"]: c for c in summary["checks"]}
    assert code == 0 and checks["decay_envelope"]["passed"]
    assert summary["diagnostics"]["latch_time"] < summary["diagnostics"]["clamp_time"]
    # on Wave1D the same law regrows after its latch, and the check still fails
    doc = {"name": "grad-wave", "frontend": {"kind": "Wave1D", "n_modes": 4, "q": 4},
           "controller": {"variant": "BilinearGrad", "mu": 0.25},
           "initial_state": "wperp-random(3)", "integration": {"t_max": 3.0}}
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "wave")
    checks = {c["name"]: c for c in summary["checks"]}
    assert summary["diagnostics"]["dead_zone_regrow"]
    assert code == 1 and not checks["decay_envelope"]["passed"]


def test_settled_within_bound_is_not_applicable_before_the_bound(tmp_path):
    code, summary = run_scenario(scenario_from_json(_grad_heat_doc(0.5)), tmp_path / "short")
    check = {c["name"]: c for c in summary["checks"]}["settled_within_bound"]
    assert code == 0 and summary["settling_bound"] > 2.0 and summary["settling_time"] is None
    assert check["passed"] and check["applicable"] is False
    assert "before the bound" in check["reason"]
    # wave-settling's bound plus slack, 1.926, lies inside its t_max 4: it still fails
    from finstab.suite import SCENARIOS
    config = scenario_from_json(json.loads(json.dumps(SCENARIOS["wave-settling"])))
    code, summary = run_scenario(config, tmp_path / "wave")
    check = {c["name"]: c for c in summary["checks"]}["settled_within_bound"]
    assert code == 1 and not check["passed"] and "applicable" not in check


def test_cli_document_seed_changes_the_run(tmp_path, capsys, monkeypatch):
    def run(name, seed):
        doc = heat_doc(initial_state="wperp-random", controller={"variant": "ZeroControl"},
                       integration={"t_max": 0.1, "sample_dt": 0.01}, seed=seed)
        path = write_config(tmp_path, doc, f"{name}.json")
        return main_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / name))

    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        assert run(name, seed).returncode == 0
    monkeypatch.setenv("FINSTAB_SEED", "6")   # no environment variable overrides the seed
    assert run("d", 5).returncode == 0
    csv = lambda name: (tmp_path / name / "trajectory.csv").read_bytes()
    assert csv("a") == csv("b") == csv("d")
    assert csv("a") != csv("c")
    cp = run("e", -1)
    assert cp.returncode == 2 and "'seed' must be non-negative" in cp.stderr


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
