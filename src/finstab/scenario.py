"""Scenario configuration, the run/check pipelines, and artifact writers.

A scenario JSON document selects a system (a named front-end or raw
matrices), a feedback law, an initial state (explicit coefficients or a named
preset), and integration options.  Running a scenario produces trajectory.csv,
summary.json, and plot.svg in the output directory; transport grids add
psi_initial.csv / psi_final.csv.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
configuration or a model the structural solvers cannot decompose (a
ModelError reaching the CLI), 3 the adaptive integrator stalled.
"""
from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import svgplot
from .controllers import (UNBOUNDED, ControllerSpec, controller_from_json,
                          controller_to_json, settling_bound_details,
                          validate_rank_one_data)
from .decomposition import (NOT_NILPOTENT, DecompositionResult, SolverError, check_H1,
                            check_H2, compute_delta, compute_gamma, gamma_certificate,
                            unobservable_subspace)
from .frontends import (FrontendBundle, FrontendSpec, HybridModel, HybridState,
                        build_frontend, hybrid_decay_check, hybrid_split_check, hybrid_v,
                        simulate_hybrid)
from .integrator import (IntegrationOpts, IntegrationStalledError, decay_envelope, simulate,
                         verify_decay, verify_lyapunov_stability, verify_split)
from .model import (CheckReport, ModalModel, ModelError, model_from_json,
                    quasi_contraction_type, validate_control_operator)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_STALLED = 3

_CONFIG_KEYS = {"name", "frontend", "matrices", "controller", "initial_state",
                "integration", "seed", "plot"}
_OPTS_KEYS = {"t_max", "rtol", "atol", "dt_init", "dt_min", "dt_max", "eps_settle",
              "sample_dt"}


class ConfigError(Exception):
    """Malformed scenario configuration."""


@dataclass
class ScenarioConfig:
    name: str
    controller: dict[str, Any]
    frontend: dict[str, Any] | None = None
    matrices: dict[str, Any] | None = None
    initial_state: Any = "zero"
    integration: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    make_plot: bool = True


def scenario_from_json(doc: Any) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    if ("frontend" in doc) == ("matrices" in doc):
        raise ConfigError("exactly one of 'frontend' / 'matrices' is required")
    controller = doc.get("controller")
    if not isinstance(controller, dict):
        raise ConfigError("scenario requires a 'controller' object")
    integration = doc.get("integration", {})
    if not isinstance(integration, dict):
        raise ConfigError("'integration' must be an object")
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError("'seed' must be an integer") from exc
    return ScenarioConfig(
        name=str(doc.get("name", "scenario")),
        controller=controller,
        frontend=doc.get("frontend"),
        matrices=doc.get("matrices"),
        initial_state=doc.get("initial_state", "zero"),
        integration=integration,
        seed=seed,
        make_plot=bool(doc.get("plot", True)),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return scenario_from_json(doc)


def resolve_seed(config: ScenarioConfig) -> int:
    raw = os.environ.get("FINSTAB_SEED")
    if raw is None:
        return config.seed
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"FINSTAB_SEED must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# Building


@dataclass
class BuiltScenario:
    kind: str                                   # "modal" | "hybrid"
    spec: ControllerSpec
    seed: int
    model: ModalModel | None = None
    dec: DecompositionResult | None = None
    y0: np.ndarray | None = None
    opts: IntegrationOpts | None = None
    bundle: FrontendBundle | None = None
    gamma_error: str | None = None
    h1: CheckReport | None = None               # computed once, while building
    hybrid: HybridModel | None = None
    hybrid_y0: HybridState | None = None
    t_max: float = 0.0
    eps_settle: float = 1e-8


def _integration_opts(doc: dict[str, Any]) -> IntegrationOpts:
    unknown = set(doc) - _OPTS_KEYS
    if unknown:
        raise ConfigError(f"unknown integration keys: {sorted(unknown)}")
    if "t_max" not in doc:
        raise ConfigError("integration requires 't_max'")
    try:
        return IntegrationOpts(**{k: (None if v is None else float(v))
                                  for k, v in doc.items()})
    except (TypeError, ValueError, ModelError) as exc:
        raise ConfigError(f"invalid integration options: {exc}") from exc


def _controller_spec(config: ScenarioConfig, bundle: FrontendBundle | None) -> ControllerSpec:
    cdoc = dict(config.controller)
    if bundle is not None:
        if "phi" not in cdoc and bundle.phi.kind != "Zero":
            cdoc["phi"] = {"kind": bundle.phi.kind, "value": bundle.phi.value,
                           "cap": bundle.phi.cap, "q": bundle.phi.q, "half": bundle.phi.half}
        if cdoc.get("variant") == "RankOne" and "zeta" not in cdoc and "zeta" in bundle.info:
            cdoc["zeta"] = np.asarray(bundle.info["zeta"], dtype=float).tolist()
            cdoc["varpi"] = np.asarray(bundle.info["varpi"], dtype=float).tolist()
    try:
        return controller_from_json(cdoc)
    except (ModelError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid controller: {exc}") from exc


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    seed = resolve_seed(config)
    if config.frontend is not None:
        try:
            fspec = FrontendSpec(**{**config.frontend,
                                    "h_coeffs": tuple(config.frontend.get("h_coeffs", ()))})
        except (TypeError, ModelError) as exc:
            raise ConfigError(f"invalid frontend: {exc}") from exc
        if fspec.kind == "TransportHeat2D":
            return _build_hybrid(config, fspec, seed)
        try:
            bundle = build_frontend(fspec)
        except ModelError as exc:
            raise ConfigError(f"invalid frontend: {exc}") from exc
        model, dec = bundle.model, bundle.dec
        h1 = check_H1(model, dec)
        gamma_error = None
    else:
        bundle = None
        try:
            model = model_from_json(config.matrices)
        except ModelError as exc:
            raise ConfigError(f"invalid matrices: {exc}") from exc
        dec0 = unobservable_subspace(model)
        h1 = check_H1(model, dec0)
        gamma_error = None
        try:
            gamma = compute_gamma(model, dec0)
        except SolverError:
            raise  # no verdict on H3: the run cannot go on
        except ModelError as exc:
            gamma = None
            gamma_error = str(exc)
        delta = compute_delta(model, dec0)
        dec = dataclasses.replace(dec0, gamma=gamma, delta=delta,
                                  h1_holds=h1.passed,
                                  h3_holds=gamma is not None,
                                  h4_holds=not (delta is NOT_NILPOTENT) or dec0.dim_w == 0)
    spec = _controller_spec(config, bundle)
    if spec.variant == "RankOne":
        try:
            validate_rank_one_data(spec, model)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
    if spec.variant in ("LinearPhi",) and model.input_map is None:
        raise ConfigError("LinearPhi requires a model with an input_map")
    if spec.variant in ("BilinearPhi", "BilinearGrad") and model.control_op is None:
        raise ConfigError(f"{spec.variant} requires a bilinear model")
    y0 = parse_initial_state(config.initial_state, model, dec, seed)
    opts = _integration_opts(config.integration)
    return BuiltScenario(kind="modal", spec=spec, seed=seed, model=model, dec=dec,
                         y0=y0, opts=opts, bundle=bundle, gamma_error=gamma_error, h1=h1,
                         t_max=opts.t_max, eps_settle=opts.eps_settle)


def _build_hybrid(config: ScenarioConfig, fspec: FrontendSpec, seed: int) -> BuiltScenario:
    try:
        hybrid = build_frontend(fspec)
    except ModelError as exc:
        raise ConfigError(f"invalid frontend: {exc}") from exc
    spec = _controller_spec(config, None)
    if spec.variant not in ("BilinearPhi", "ZeroControl"):
        raise ConfigError("the transport-heat front-end supports BilinearPhi or ZeroControl")
    doc = config.integration
    unknown = set(doc) - {"t_max", "eps_settle"}
    if unknown:
        raise ConfigError(f"hybrid integration accepts t_max/eps_settle only, got {sorted(unknown)}")
    if "t_max" not in doc:
        raise ConfigError("integration requires 't_max'")
    t_max = float(doc["t_max"])
    if t_max <= 0:
        raise ConfigError("t_max must be positive")
    eps_settle = float(doc.get("eps_settle", 1e-8))
    y0 = hybrid_initial_state(config.initial_state, hybrid)
    return BuiltScenario(kind="hybrid", spec=spec, seed=seed, hybrid=hybrid,
                         hybrid_y0=y0, t_max=t_max, eps_settle=eps_settle)


# ---------------------------------------------------------------------------
# Initial states

_TERM_RE = re.compile(r"([+-]?)((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\*)?([A-Za-z_]\w*)")
_WPERP_RE = re.compile(r"wperp-random(?:\((\d+)\))?")


def parse_initial_state(value: Any, model: ModalModel, dec: DecompositionResult,
                        seed: int) -> np.ndarray:
    if isinstance(value, (list, tuple, np.ndarray)):
        vec = np.asarray(value, dtype=float)
        if vec.shape != (model.dim,):
            raise ConfigError(f"initial_state length {vec.shape} does not match dim {model.dim}")
        return vec
    if not isinstance(value, str):
        raise ConfigError("initial_state must be a list of numbers or a preset string")
    text = value.replace(" ", "")
    if text == "zero":
        return np.zeros(model.dim)
    m = _WPERP_RE.fullmatch(text)
    if m:
        if dec.dim_wperp == 0:
            raise ConfigError("wperp-random needs a nontrivial observable subspace")
        rng = np.random.default_rng(int(m.group(1)) if m.group(1) else seed)
        y = dec.wperp_basis @ rng.standard_normal(dec.dim_wperp)
        nrm = float(np.sqrt(y @ model.metric @ y))
        return y / nrm
    return _parse_combo(text, model)


def _parse_combo(text: str, model: ModalModel) -> np.ndarray:
    labels = {lab: i for i, lab in enumerate(model.basis_labels)}
    vec = np.zeros(model.dim)
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ConfigError(f"cannot parse initial_state near {text[pos:]!r}")
        sign, coeff_part, label = m.groups()
        coeff = float(coeff_part[:-1]) if coeff_part else 1.0
        if sign == "-":
            coeff = -coeff
        if label not in labels:
            raise ConfigError(f"unknown basis label {label!r} "
                              f"(known: {', '.join(model.basis_labels[:6])}...)")
        vec[labels[label]] += coeff
        pos = m.end()
    return vec


def _psi_bump(grid_n: int, n_omega: int) -> np.ndarray:
    x = (np.arange(grid_n) + 0.5) / grid_n
    X, Y = np.meshgrid(x, x, indexing="ij")
    psi = np.exp(-((X - 0.6) ** 2 + (Y - 0.6) ** 2) / (2.0 * 0.1 ** 2))
    psi[:n_omega, :n_omega] = 0.0
    return psi


def hybrid_initial_state(value: Any, model: HybridModel) -> HybridState:
    nm, G = model.n_modes, model.grid_n
    if isinstance(value, str):
        presets = {
            "hybrid-bump": {"phi_modes": [[0, 0, 1.0], [1, 1, 1.0]], "psi": "bump"},
            "phi00": {"phi_modes": [[0, 0, 1.0]], "psi": "zero"},
            "psi-bump": {"phi_modes": [], "psi": "bump"},
        }
        if value not in presets:
            raise ConfigError(f"unknown hybrid preset {value!r} "
                              f"(known: {', '.join(sorted(presets))})")
        value = presets[value]
    if not isinstance(value, dict):
        raise ConfigError("hybrid initial_state must be a preset name or an object")
    c = np.zeros((nm, nm))
    for entry in value.get("phi_modes", []):
        try:
            j, k, coeff = int(entry[0]), int(entry[1]), float(entry[2])
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError("phi_modes entries must be [j, k, coeff]") from exc
        if not (0 <= j < nm and 0 <= k < nm):
            raise ConfigError(f"phi mode ({j},{k}) out of range for n_modes={nm}")
        c[j, k] += coeff
    psi_doc = value.get("psi", "zero")
    if psi_doc == "zero":
        psi = np.zeros((G, G))
    elif psi_doc == "bump":
        psi = _psi_bump(G, model.n_omega)
    else:
        psi = np.asarray(psi_doc, dtype=float)
        if psi.shape != (G, G):
            raise ConfigError(f"psi grid must be {G}x{G}")
    return HybridState(c=c, psi=psi)


# ---------------------------------------------------------------------------
# Checks shared by run and check


def _h4_report(dec: DecompositionResult) -> CheckReport:
    nilpotent = not (dec.delta is NOT_NILPOTENT or dec.delta is None)
    return CheckReport("H4", True, {"nilpotent": nilpotent or dec.dim_w == 0,
                                    "delta": _delta_json(dec.delta),
                                    "dim_w": dec.dim_w})


def assumption_reports(built: BuiltScenario) -> list[CheckReport]:
    if built.kind == "hybrid":
        hy = built.hybrid
        return [
            CheckReport("H1", True, {"coupling": "transport mass leaves the observable "
                                                 "patch and never re-enters"}),
            CheckReport("H4", True, {"nilpotent": True, "delta": hy.delta,
                                     "validated_by": "zero-control grid flow"}),
        ]
    model, dec, spec = built.model, built.dec, built.spec
    reports = [validate_control_operator(model), built.h1]
    if built.gamma_error is not None:
        reports.append(CheckReport("H3", False, {"error": built.gamma_error}))
    elif dec.gamma is not None:
        reports.append(gamma_certificate(model, dec, dec.gamma, samples=500, seed=built.seed))
    if spec.variant in ("BilinearPhi", "LinearPhi"):
        reports.append(check_H2(model, dec, spec.phi, spec.dead_zone, samples=256,
                                seed=built.seed))
    reports.append(_h4_report(dec))
    return reports


# ---------------------------------------------------------------------------
# Serialization helpers


def _delta_json(delta) -> Any:
    if delta is NOT_NILPOTENT:
        return "NotNilpotent"
    return delta


def _bound_json(bound) -> Any:
    if bound is UNBOUNDED:
        return "Unbounded"
    return bound


def _float_str(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, times: np.ndarray, states: np.ndarray,
                         controls: np.ndarray, lyapunov: np.ndarray,
                         bilinear: bool) -> None:
    n = states.shape[1]
    m = controls.shape[1]
    header = ["t"] + [f"y_{i + 1}" for i in range(n)]
    header += ["u"] if bilinear and m == 1 else [f"v_{j + 1}" for j in range(m)]
    header += ["V"]
    lines = [",".join(header)]
    for i in range(len(times)):
        row = [_float_str(times[i])]
        row += [_float_str(v) for v in states[i]]
        row += [_float_str(v) for v in controls[i]]
        row.append(_float_str(lyapunov[i]))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_grid_csv(path: Path, grid: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in grid:
            fh.write(",".join(_float_str(v) for v in row) + "\n")


def write_summary(path: Path, summary: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plot_run(path: Path, title: str, times: np.ndarray, lyapunov: np.ndarray,
              norms: np.ndarray, envelope: np.ndarray | None) -> None:
    series = [("V(t)", times, lyapunov)]
    if envelope is not None:
        series.append(("envelope", times, envelope))
    series.append(("||y(t)||", times, norms))
    svgplot.write_svg(path, svgplot.render_line_chart(title, series, xlabel="t", logy=True))


# ---------------------------------------------------------------------------
# Run pipelines


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> tuple[int, dict[str, Any]]:
    built = build_scenario(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if built.kind == "hybrid":
        return _run_hybrid(config, built, out)
    return _run_modal(config, built, out)


def _run_modal(config: ScenarioConfig, built: BuiltScenario,
               out: Path) -> tuple[int, dict[str, Any]]:
    model, dec, spec, opts = built.model, built.dec, built.spec, built.opts
    checks = assumption_reports(built)
    omega = quasi_contraction_type(model)
    summary: dict[str, Any] = {
        "name": config.name,
        "kind": "modal",
        "seed": built.seed,
        "frontend": config.frontend,
        "matrices_dim": None if config.matrices is None else model.dim,
        "controller": controller_to_json(spec),
        "decomposition": {
            "dim_w": dec.dim_w,
            "dim_wperp": dec.dim_wperp,
            "gamma": dec.gamma,
            "delta": _delta_json(dec.delta),
            "h1_holds": dec.h1_holds,
        },
        "quasi_contraction_omega": omega,
        "initial_state": config.initial_state if isinstance(config.initial_state, str)
        else np.asarray(built.y0).tolist(),
    }
    fatal = built.gamma_error is not None or not checks[0].passed
    if fatal:
        summary["status"] = "invalid"
        summary["checks"] = [r.as_dict() for r in checks]
        summary["exit_code"] = EXIT_CHECK_FAILED
        write_summary(out / "summary.json", summary)
        return EXIT_CHECK_FAILED, summary
    bound, extras = settling_bound_details(spec, model, dec, built.y0)
    summary["settling_bound"] = _bound_json(bound)
    summary["bound_extras"] = {k: float(v) for k, v in extras.items()
                               if isinstance(v, (int, float))}
    stalled = False
    try:
        traj = simulate(model, dec, spec, built.y0, opts)
    except IntegrationStalledError as exc:
        traj = exc.trajectory
        stalled = True
    gamma_decay = None
    if spec.variant != "ZeroControl":
        if spec.variant == "RankOne":
            zn2 = float(spec.zeta @ model.metric @ spec.zeta)
            gamma_decay = zn2 ** (1.0 - spec.mu)
        else:
            gamma_decay = dec.gamma
    if not stalled:
        if gamma_decay is not None:
            checks.append(verify_decay(traj, gamma_decay, spec.mu))
        checks.append(verify_split(model, dec, traj))
        checks.append(verify_lyapunov_stability(traj, omega))
        if spec.variant == "ZeroControl" and built.h1.details["generator_skew"]:
            drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
            budget = 1e-9 * max(1.0, opts.t_max)
            checks.append(CheckReport("norm_conservation", drift <= budget,
                                      {"max_drift": drift, "budget": budget}))
        if isinstance(bound, float):
            sdt = opts.sample_dt if opts.sample_dt is not None else opts.t_max / 2000.0
            settled = (traj.settling_time is not None
                       and traj.settling_time <= bound + sdt + 1e-9)
            checks.append(CheckReport(
                "settled_within_bound", settled,
                {"settling_time": traj.settling_time, "bound": bound,
                 "grid_slack": sdt}))
    summary["settling_time"] = traj.settling_time
    summary["status"] = "stalled" if stalled else "ok"
    summary["checks"] = [r.as_dict() for r in checks]
    summary["diagnostics"] = {k: (v if not isinstance(v, (np.floating, np.integer))
                                  else v.item())
                              for k, v in traj.diagnostics.items()}
    write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states, traj.controls,
                         traj.lyapunov, model.is_bilinear())
    artifacts = ["trajectory.csv", "summary.json"]
    if config.make_plot:
        envelope = None
        if gamma_decay is not None and len(traj.times):
            envelope = decay_envelope(traj.lyapunov[0], gamma_decay, spec.mu,
                                      traj.times) ** (1.0 / spec.mu)
        _plot_run(out / "plot.svg", config.name, traj.times, traj.lyapunov, traj.norms,
                  envelope)
        artifacts.append("plot.svg")
    summary["artifacts"] = sorted(artifacts)
    if stalled:
        code = EXIT_STALLED
    elif all(r.passed for r in checks):
        code = EXIT_OK
    else:
        code = EXIT_CHECK_FAILED
    summary["exit_code"] = code
    write_summary(out / "summary.json", summary)
    return code, summary


def _run_hybrid(config: ScenarioConfig, built: BuiltScenario,
                out: Path) -> tuple[int, dict[str, Any]]:
    hy, spec = built.hybrid, built.spec
    y0 = built.hybrid_y0
    checks = assumption_reports(built)
    V0 = hybrid_v(hy, y0)
    if spec.variant == "BilinearPhi":
        bound = max(V0 ** spec.mu / (2.0 * spec.mu), hy.delta)
    else:
        bound = None
    traj = simulate_hybrid(hy, spec, y0, built.t_max, eps_settle=built.eps_settle)
    if spec.variant == "BilinearPhi":
        checks.append(hybrid_decay_check(hy, traj, spec.mu, spec.dead_zone))
    split_ok = hybrid_split_check(hy, y0, traj)
    checks.append(CheckReport("split_free_flow", split_ok,
                              {"comparison": "undamped cells vs exact shift"}))
    checks.append(verify_lyapunov_stability(traj, 0.0))
    exit_mask = traj.times >= hy.delta - 1e-12
    gone = bool(np.all(traj.psi_norms[exit_mask] == 0.0))
    checks.append(CheckReport("transport_exit", gone,
                              {"horizon": hy.delta,
                               "max_psi_after": float(np.max(traj.psi_norms[exit_mask]))}))
    if bound is not None:
        settled = (traj.settling_time is not None
                   and traj.settling_time <= bound + hy.dt_macro + 1e-9)
        checks.append(CheckReport("settled_within_bound", settled,
                                  {"settling_time": traj.settling_time, "bound": bound,
                                   "grid_slack": hy.dt_macro}))
    summary: dict[str, Any] = {
        "name": config.name,
        "kind": "hybrid",
        "seed": built.seed,
        "frontend": config.frontend,
        "controller": controller_to_json(spec),
        "lyapunov_initial": V0,
        "settling_bound": bound,
        "settling_time": traj.settling_time,
        "status": "ok",
        "checks": [r.as_dict() for r in checks],
        "diagnostics": traj.diagnostics,
    }
    write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states, traj.controls,
                         traj.lyapunov, bilinear=True)
    write_grid_csv(out / "psi_initial.csv", traj.psi_initial)
    write_grid_csv(out / "psi_final.csv", traj.psi_final)
    artifacts = ["psi_final.csv", "psi_initial.csv", "summary.json", "trajectory.csv"]
    if config.make_plot:
        envelope = None
        if spec.variant == "BilinearPhi":
            envelope = decay_envelope(V0, 1.0, spec.mu, traj.times) ** (1.0 / spec.mu)
        _plot_run(out / "plot.svg", config.name, traj.times, traj.lyapunov, traj.norms,
                  envelope)
        artifacts.append("plot.svg")
    summary["artifacts"] = sorted(artifacts)
    code = EXIT_OK if all(r.passed for r in checks) else EXIT_CHECK_FAILED
    summary["exit_code"] = code
    write_summary(out / "summary.json", summary)
    return code, summary


def check_scenario(config: ScenarioConfig) -> tuple[int, dict[str, Any]]:
    built = build_scenario(config)
    checks = assumption_reports(built)
    summary: dict[str, Any] = {
        "name": config.name,
        "kind": built.kind,
        "seed": built.seed,
        "checks": [r.as_dict() for r in checks],
    }
    if built.kind == "modal":
        summary["decomposition"] = {
            "dim_w": built.dec.dim_w,
            "dim_wperp": built.dec.dim_wperp,
            "gamma": built.dec.gamma,
            "delta": _delta_json(built.dec.delta),
        }
    code = EXIT_OK if all(r.passed for r in checks) else EXIT_CHECK_FAILED
    summary["exit_code"] = code
    return code, summary
