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
import functools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import svgplot
from .controllers import (ControllerSpec, KernelOps, assemble_kernel_args, controller_from_json,
                          controller_to_json, settling_bound_details, validate_law_for_model)
from .decomposition import (DecompositionResult, _metric_normsq, check_H1, check_H2,
                            compute_gamma, gamma_certificate, unobservable_subspace)
from .frontends import (HYBRID_RATE, FrontendBundle, FrontendSpec, HybridModel, HybridState,
                        build_frontend, check_hybrid_law, hybrid_decay_check,
                        hybrid_split_check, hybrid_v, simulate_hybrid)
from .integrator import (IntegrationOpts, IntegrationStalledError, decay_envelope, simulate,
                         verify_decay, verify_lyapunov_stability, verify_split)
from .kernels import settling_time
from .model import (CheckReport, ModalModel, ModelError, _float, _float_array, _is_int,
                    _jsonify, model_from_json, quasi_contraction_type,
                    validate_control_operator)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_STALLED = 3

_CONFIG_KEYS = {"name", "frontend", "matrices", "controller", "initial_state",
                "integration", "seed", "plot"}
_OPTS_KEYS = {"t_max", "rtol", "atol", "dt_init", "dt_min", "dt_max", "eps_settle",
              "sample_dt"}
MAX_TRAJECTORY_ENTRIES = 10**7   # samples x recorded state width of one run: 80 MB of states


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
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    if seed < 0:   # numpy's generators take no negative seed
        raise ConfigError(f"'seed' must be non-negative, got {seed!r}")
    plot = doc.get("plot", True)
    if not isinstance(plot, bool):
        raise ConfigError(f"'plot' must be true or false, got {plot!r}")
    return ScenarioConfig(
        name=str(doc.get("name", "scenario")),
        controller=controller,
        frontend=doc.get("frontend"),
        matrices=doc.get("matrices"),
        initial_state=doc.get("initial_state", "zero"),
        integration=integration,
        seed=seed,
        make_plot=plot,
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


# ---------------------------------------------------------------------------
# Building


@dataclass
class BuiltScenario:
    kind: str                                   # "modal" | "hybrid"
    spec: ControllerSpec
    seed: int
    model: ModalModel | HybridModel
    y0: np.ndarray | HybridState
    opts: IntegrationOpts
    dec: DecompositionResult | None = None      # modal only, as are the fields below
    control: CheckReport | None = None          # computed once each, while building
    h1: CheckReport | None = None

    @functools.cached_property
    def ops(self) -> KernelOps:
        """The modal run's one law bundle, assembled on first use: a check reads none."""
        return assemble_kernel_args(self.spec, self.model, self.dec)

    @functools.cached_property
    def omega(self) -> float:
        """The quasi-contraction type of the free flow, computed on first use: a check
        reads none.  The hybrid's splitter is a contraction (0)."""
        return 0.0 if self.kind == "hybrid" else quasi_contraction_type(self.model)


def _integration_opts(doc: dict[str, Any], width: int) -> IntegrationOpts:
    """The integration options, refused when their samples of a state of the given
    width would record more than MAX_TRAJECTORY_ENTRIES entries."""
    unknown = set(doc) - _OPTS_KEYS
    if unknown:
        raise ConfigError(f"unknown integration keys: {sorted(unknown)}")
    if "t_max" not in doc:
        raise ConfigError("integration requires 't_max'")
    values = {}
    for key, value in doc.items():
        if key == "sample_dt" and value is None:
            continue  # the default grid
        try:
            values[key] = _float(value, key)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"integration option {key!r} must be a number, "
                              f"got {value!r}") from exc
    try:
        opts = IntegrationOpts(**values)
    except ModelError as exc:
        raise ConfigError(f"invalid integration options: {exc}") from exc
    samples = opts.t_max / opts.sample_dt + 1
    if samples * width > MAX_TRAJECTORY_ENTRIES:
        raise ConfigError(f"invalid integration options: {samples:.3g} samples of {width} state "
                          f"entries make {samples * width:.3g} trajectory entries, more than "
                          f"the limit of {MAX_TRAJECTORY_ENTRIES}")
    return opts


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
    if config.frontend is not None:
        try:
            bundle = build_frontend(FrontendSpec(**{
                **config.frontend, "h_coeffs": tuple(config.frontend.get("h_coeffs", ()))}))
        except (TypeError, ValueError) as exc:   # ModelError is a ValueError
            raise ConfigError(f"invalid frontend: {exc}") from exc
        if isinstance(bundle, HybridModel):
            return _build_hybrid(config, bundle)
        model, dec = bundle.model, bundle.dec
    else:
        bundle = None
        try:
            model = model_from_json(config.matrices)
        except ModelError as exc:
            raise ConfigError(f"invalid matrices: {exc}") from exc
        dec = unobservable_subspace(model)
    control = validate_control_operator(model)
    h1 = check_H1(model, dec)
    try:
        gamma = compute_gamma(model, dec, control)
    except ModelError:   # no gamma: the gamma certificate fails and says why
        gamma = None
    dec = dataclasses.replace(dec, gamma=gamma)
    spec = _controller_spec(config, bundle)
    try:
        validate_law_for_model(spec, model)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    y0 = parse_initial_state(config.initial_state, model, dec, config.seed)
    # V, the bound and the norms all scale with <y0, M y0>: past the float range
    # they would read inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        y0_normsq = float(_metric_normsq(y0[None, :], model)[0])
    if not np.isfinite(y0_normsq):
        raise ConfigError(f"the squared metric norm of initial_state is {y0_normsq}, "
                          "past the float range")
    opts = _integration_opts(config.integration, model.dim)
    return BuiltScenario(kind="modal", spec=spec, seed=config.seed, model=model, y0=y0,
                         opts=opts, dec=dec, control=control, h1=h1)


def _build_hybrid(config: ScenarioConfig, hybrid: HybridModel) -> BuiltScenario:
    spec = _controller_spec(config, None)
    try:
        check_hybrid_law(spec)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    unknown = set(config.integration) - {"t_max", "eps_settle"}
    if unknown:
        raise ConfigError(f"hybrid integration accepts t_max/eps_settle only, got {sorted(unknown)}")
    # one sample per macro step; each records the n_modes^2 heat coefficients
    opts = _integration_opts({**config.integration, "sample_dt": hybrid.dt_macro},
                             hybrid.n_modes ** 2)
    y0 = hybrid_initial_state(config.initial_state, hybrid)
    return BuiltScenario(kind="hybrid", spec=spec, seed=config.seed, model=hybrid, y0=y0,
                         opts=opts)


# ---------------------------------------------------------------------------
# Initial states

_TERM_RE = re.compile(r"([+-]?)((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\*)?([A-Za-z_]\w*)")
_WPERP_RE = re.compile(r"wperp-random(?:\((\d+)\))?")


def _config_floats(obj: Any, what: str) -> np.ndarray:
    try:
        arr = _float_array(obj, what)
    except ModelError as exc:
        raise ConfigError(f"{what} must be a rectangular array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite")
    return arr


def parse_initial_state(value: Any, model: ModalModel, dec: DecompositionResult,
                        seed: int) -> np.ndarray:
    if isinstance(value, (list, tuple, np.ndarray)):
        vec = _config_floats(value, "initial_state")
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
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"initial_state {text!r} must have finite coefficients")
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
    unknown = set(value) - {"phi_modes", "psi"}
    if unknown:
        raise ConfigError(f"unknown hybrid initial_state keys: {sorted(unknown)}")
    if not isinstance(value.get("phi_modes", []), (list, tuple)):
        raise ConfigError(f"phi_modes must be a list of [j, k, coeff], got {value['phi_modes']!r}")
    c = np.zeros((nm, nm))
    for entry in value.get("phi_modes", []):
        try:
            j, k, coeff = entry
            coeff = _float(coeff, "phi_modes coeff")
        except (TypeError, ValueError) as exc:
            raise ConfigError("phi_modes entries must be [j, k, coeff]") from exc
        if not np.isfinite(coeff):
            raise ConfigError(f"phi_modes coeff must be finite, got {coeff!r}")
        if not (_is_int(j) and _is_int(k)):
            raise ConfigError(f"phi_modes indices must be integers, got [{j!r}, {k!r}]")
        if not (0 <= j < nm and 0 <= k < nm):
            raise ConfigError(f"phi mode ({j},{k}) out of range for n_modes={nm}")
        c[j, k] += coeff
    psi_doc = value.get("psi", "zero")
    if psi_doc == "zero":
        psi = np.zeros((G, G))
    elif psi_doc == "bump":
        psi = _psi_bump(G, model.n_omega)
    else:
        psi = _config_floats(psi_doc, "psi")
        if psi.shape != (G, G):
            raise ConfigError(f"psi grid must be {G}x{G}")
    return HybridState(c=c, psi=psi)


# ---------------------------------------------------------------------------
# Checks shared by run and check


def _h4_report(dec: DecompositionResult) -> CheckReport:
    # a modal flow is injective: it reaches zero in finite time only on W = {0}
    return CheckReport("H4", True, {"nilpotent": dec.dim_w == 0, "delta": _delta_json(dec),
                                    "dim_w": dec.dim_w})


def assumption_reports(built: BuiltScenario) -> list[CheckReport]:
    if built.kind == "hybrid":
        return [
            CheckReport("H1", True, {"coupling": "transport mass leaves the observable "
                                                 "patch and never re-enters"}),
            CheckReport("H4", True, {"nilpotent": True, "delta": built.model.delta}),
        ]
    model, dec, spec = built.model, built.dec, built.spec
    reports = [built.control, built.h1, gamma_certificate(model, dec, built.control)]
    if spec.variant in ("BilinearPhi", "LinearPhi"):
        reports.append(check_H2(model, dec, spec.phi, spec.dead_zone, samples=256,
                                seed=built.seed))
    reports.append(_h4_report(dec))
    return reports


# ---------------------------------------------------------------------------
# Serialization helpers


def _delta_json(dec: DecompositionResult) -> Any:
    return 0.0 if dec.dim_w == 0 else "NotNilpotent"


_CSV_BLOCK_ROWS = 32   # rows per format call; a whole table at once raises peak memory


def _csv_lines(table: np.ndarray):
    # Each value is the repr of a Python float, its shortest round-trip form.
    # A column that holds only +0.0 is the literal "0.0", which is repr(0.0);
    # -0.0 (repr "-0.0"), nan and inf keep their column live.  Every block of
    # rows fills one template with the live columns' values.
    table = np.asarray(table, dtype=float)
    live = np.any((table != 0.0) | np.signbit(table), axis=0)
    row = ",".join(np.where(live, "%r", "0.0").tolist()) + "\n"
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS, live]
        yield row * block.shape[0] % tuple(block.ravel().tolist())


def write_trajectory_csv(path: Path, times: np.ndarray, states: np.ndarray,
                         controls: np.ndarray, lyapunov: np.ndarray,
                         bilinear: bool) -> None:
    n = states.shape[1]
    m = controls.shape[1]
    header = ["t"] + [f"y_{i + 1}" for i in range(n)]
    header += ["u"] if bilinear and m == 1 else [f"v_{j + 1}" for j in range(m)]
    header += ["V"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(np.column_stack((times, states, controls, lyapunov))))


def write_grid_csv(path: Path, grid: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_lines(grid))


def write_summary(path: Path, summary: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Run pipeline


def _decomposition_json(dec: DecompositionResult) -> dict[str, Any]:
    return {"dim_w": dec.dim_w, "dim_wperp": dec.dim_wperp, "gamma": dec.gamma,
            "delta": _delta_json(dec)}


def simulate_scenario(built: BuiltScenario):
    """The closed-loop trajectory of a built scenario (a HybridTrajectory for hybrids).

    Modal runs raise IntegrationStalledError, carrying the partial run, when
    the stepper stalls.
    """
    if built.kind == "hybrid":
        return simulate_hybrid(built.model, built.spec, built.y0, built.opts.t_max,
                               eps_settle=built.opts.eps_settle)
    return simulate(built.model, built.dec, built.ops, built.y0, built.opts,
                    h1_holds=built.h1.passed)


def _trajectory_checks(built: BuiltScenario, traj, rate: float | None) -> list[CheckReport]:
    """The kind's checks of a completed run: decay envelope at the law's rate
    (when a law acts), free-flow split, Lyapunov stability, then the transport
    exit or the free wave's norm conservation."""
    model, spec = built.model, built.spec
    hybrid = built.kind == "hybrid"
    reports = []
    if rate is not None:
        reports.append(hybrid_decay_check(model, traj, spec.mu, spec.dead_zone) if hybrid
                       else verify_decay(traj, rate, spec.mu, built.ops.v_dead_zone))
    if hybrid:
        reports.append(hybrid_split_check(model, built.y0, traj))
    elif built.h1.passed:
        reports.append(verify_split(model, built.dec, traj))
    else:
        reports.append(CheckReport("split", True, {"applicable": False,
                                                   "reason": "H1 not certified"}))
    reports.append(verify_lyapunov_stability(traj, built.omega))
    if hybrid:
        after = traj.psi_norms[traj.times >= model.delta - 1e-12]
        details = {"horizon": model.delta}
        if after.size:
            details["max_psi_after"] = float(np.max(after))
        else:   # no sample reaches the horizon
            details.update(applicable=False, reason="the run ends before the exit horizon")
        reports.append(CheckReport("transport_exit", bool(np.all(after == 0.0)), details))
    elif spec.variant == "ZeroControl" and model.generator_skew:
        drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
        budget = 1e-9 * max(1.0, built.opts.t_max)
        reports.append(CheckReport("norm_conservation", drift <= budget,
                                   {"max_drift": drift, "budget": budget}))
    return reports


def _finish(out: Path, summary: dict[str, Any], checks: list[CheckReport], status: str,
            code: int) -> tuple[int, dict[str, Any]]:
    summary["status"] = status
    summary["checks"] = [r.as_dict() for r in checks]
    summary["exit_code"] = code
    write_summary(out / "summary.json", summary)
    return code, summary


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> tuple[int, dict[str, Any]]:
    built = build_scenario(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, spec = built.model, built.spec
    checks = assumption_reports(built)
    summary: dict[str, Any] = {"name": config.name, "kind": built.kind, "seed": built.seed,
                               "frontend": config.frontend,
                               "controller": controller_to_json(spec)}
    # each kind: its header keys, the bound and the rate of its decay envelope
    # (None when no law acts)
    if built.kind == "hybrid":
        V0 = hybrid_v(model, built.y0)
        summary["lyapunov_initial"] = V0
        rate = HYBRID_RATE if spec.variant == "BilinearPhi" else None
        bound = None if rate is None else max(settling_time(V0, rate, spec.mu), model.delta)
    else:
        dec = built.dec
        summary.update({
            "matrices_dim": None if config.matrices is None else model.dim,
            "decomposition": {**_decomposition_json(dec), "h1_holds": built.h1.passed},
            "quasi_contraction_omega": built.omega,
            "initial_state": config.initial_state if isinstance(config.initial_state, str)
            else np.asarray(built.y0).tolist(),
        })
        if dec.gamma is None or not built.control.passed:
            return _finish(out, summary, checks, "invalid", EXIT_CHECK_FAILED)
        bound, extras = settling_bound_details(built.ops, model, dec, built.y0)
        summary["bound_extras"] = {k: float(v) for k, v in extras.items()
                                   if isinstance(v, (int, float))}
        rate = built.ops.rate
    summary["settling_bound"] = bound
    stalled = False
    try:
        traj = simulate_scenario(built)
    except IntegrationStalledError as exc:
        traj = exc.trajectory
        stalled = True
    if not stalled:
        checks += _trajectory_checks(built, traj, rate)
        if isinstance(bound, float):
            grid_slack = built.opts.sample_dt
            details = {"settling_time": traj.settling_time, "bound": bound,
                       "grid_slack": grid_slack}
            short = traj.settling_time is None and built.opts.t_max < bound + grid_slack
            if short:
                details.update(applicable=False, reason="the run ends before the bound")
            settled = short or (traj.settling_time is not None
                                and traj.settling_time <= bound + grid_slack + 1e-9)
            checks.append(CheckReport("settled_within_bound", settled, details))
    summary["settling_time"] = traj.settling_time
    summary["diagnostics"] = _jsonify(traj.diagnostics)
    write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states, traj.controls,
                         traj.lyapunov, built.kind == "hybrid" or model.is_bilinear())
    artifacts = ["trajectory.csv", "summary.json"]
    if built.kind == "hybrid":
        write_grid_csv(out / "psi_initial.csv", built.y0.psi)
        write_grid_csv(out / "psi_final.csv", traj.psi_final)
        artifacts += ["psi_initial.csv", "psi_final.csv"]
    if config.make_plot:
        series = [("V(t)", traj.times, traj.lyapunov)]
        if rate is not None and len(traj.times):
            envelope = decay_envelope(traj.lyapunov[0], rate, spec.mu, traj.times)
            series.append(("envelope", traj.times, envelope ** (1.0 / spec.mu)))
        series.append(("||y(t)||", traj.times, traj.norms))
        svgplot.write_svg(out / "plot.svg", svgplot.render_line_chart(config.name, series))
        artifacts.append("plot.svg")
    summary["artifacts"] = sorted(artifacts)
    if stalled:
        return _finish(out, summary, checks, "stalled", EXIT_STALLED)
    return _finish(out, summary, checks, "ok",
                   EXIT_OK if all(r.passed for r in checks) else EXIT_CHECK_FAILED)


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
        summary["decomposition"] = _decomposition_json(built.dec)
    code = EXIT_OK if all(r.passed for r in checks) else EXIT_CHECK_FAILED
    summary["exit_code"] = code
    return code, summary
