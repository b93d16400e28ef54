"""Built-in acceptance criteria.

Each criterion runs one or more built-in scenarios (cached across criteria)
and evaluates its clauses at fixed tolerances.  The CLI renders the results
as a table; the test suite asserts every clause.
"""
from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass

import numpy as np

from .controllers import ControllerSpec, PhiSpec, control_value
from .decomposition import gamma_certificate, unobservable_subspace
from .frontends import (FrontendSpec, HybridState, build_frontend, hybrid_v,
                        transport_heat_model)
from .integrator import expm, verify_decay, verify_lyapunov_stability
from .model import ModalModel, quasi_contraction_type
from .scenario import BuiltScenario, build_scenario, scenario_from_json, simulate_scenario

_BEAM_A0 = -2.0 * np.pi ** 2 / 3.0


def _beam_initial() -> list[float]:
    y = np.zeros(16)
    y[0] = _BEAM_A0   # position balanced so both components vanish together
    y[8] = 1.0        # unit pairing with the input profile
    return y.tolist()


SCENARIOS: dict[str, dict] = {
    "heat-settling": {
        "name": "heat-settling",
        "frontend": {"kind": "Heat1D", "n_modes": 16},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "mode2+0.5*mode3",
        "integration": {"t_max": 3.0, "sample_dt": 0.001},
        "seed": 0,
    },
    "heat-unobservable": {
        "name": "heat-unobservable",
        "frontend": {"kind": "Heat1D", "n_modes": 16},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "mode1",
        "integration": {"t_max": 0.5, "rtol": 1e-12, "atol": 1e-15,
                        "sample_dt": 0.00025},
        "seed": 0,
    },
    "transport-heat-settling": {
        "name": "transport-heat-settling",
        "frontend": {"kind": "TransportHeat2D", "n_modes": 8, "grid_n": 64,
                     "omega_h": 0.25},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "hybrid-bump",
        "integration": {"t_max": 3.0},
        "seed": 0,
    },
    "transport-heat-free": {
        "name": "transport-heat-free",
        "frontend": {"kind": "TransportHeat2D", "n_modes": 8, "grid_n": 64,
                     "omega_h": 0.25},
        "controller": {"variant": "ZeroControl"},
        "initial_state": "hybrid-bump",
        "integration": {"t_max": 2.0},
        "seed": 0,
    },
    "wave-settling": {
        "name": "wave-settling",
        "frontend": {"kind": "Wave1D", "n_modes": 8, "q": 3},
        "controller": {"variant": "BilinearPhi", "mu": 0.25},
        "initial_state": "wperp-random(20240817)",
        "integration": {"t_max": 4.0},
        "seed": 0,
    },
    "wave-conservation": {
        "name": "wave-conservation",
        "frontend": {"kind": "Wave1D", "n_modes": 8, "q": 3},
        "controller": {"variant": "ZeroControl"},
        "initial_state": "wperp-random(20240817)",
        "integration": {"t_max": 3.0},
        "seed": 0,
    },
    "beam-rankone": {
        "name": "beam-rankone",
        "frontend": {"kind": "Beam1D", "n_modes": 8, "h_coeffs": [1.0]},
        "controller": {"variant": "RankOne", "mu": 0.25},
        "initial_state": _beam_initial(),
        "integration": {"t_max": 2.5, "sample_dt": 0.00125},
        "seed": 0,
    },
}


@dataclass
class ClauseResult:
    description: str
    target: str
    measured: str
    passed: bool


@dataclass
class CriterionResult:
    key: str
    title: str
    clauses: list[ClauseResult]
    wall_s: float = 0.0    # wall time of the criterion, shown in the table only

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


@dataclass
class _Run:
    built: BuiltScenario
    traj: object


_run_cache: dict[str, _Run] = {}


def _get_run(key: str) -> _Run:
    if key not in _run_cache:
        built = build_scenario(scenario_from_json(SCENARIOS[key]))
        _run_cache[key] = _Run(built=built, traj=simulate_scenario(built))
    return _run_cache[key]


def _clause(description: str, target: str, measured, passed: bool) -> ClauseResult:
    if isinstance(measured, float):
        measured = f"{measured:.6g}"
    return ClauseResult(description, target, str(measured), bool(passed))


# ---------------------------------------------------------------------------
# Criteria


def criterion_heat_settling() -> CriterionResult:
    run = _get_run("heat-settling")
    traj = run.traj
    mu = run.built.spec.mu
    V0 = float(traj.lyapunov[0])
    bound = V0 ** mu / (2.0 * mu)
    decay = verify_decay(traj, 1.0, mu)
    clauses = [
        _clause("initial Lyapunov value", "V(0) == 1.25", V0, V0 == 1.25),
        _clause("settling within the bound", f"settling <= {bound:.10g}",
                traj.settling_time,
                traj.settling_time is not None and traj.settling_time <= bound),
        _clause("decay envelope verified", "max violation <= 1e-6",
                decay.details["max_violation"], decay.passed),
    ]
    return CriterionResult("c1-heat-settling", "heat settling bound", clauses)


def criterion_heat_envelope() -> CriterionResult:
    run = _get_run("heat-settling")
    traj = run.traj
    mu = run.built.spec.mu
    V0m = float(traj.lyapunov[0]) ** mu
    settle = traj.settling_time if traj.settling_time is not None else np.inf
    mask = traj.times <= settle + 1e-15
    t = traj.times[mask]
    deficit = V0m - (np.maximum(traj.lyapunov[mask], 0.0) ** mu + 2.0 * mu * t)
    worst = float(np.min(deficit))
    positive_t = t > 0
    strict = float(np.min(deficit[positive_t]))
    i05 = int(np.argmin(np.abs(traj.times - 0.5)))
    margin05 = V0m - (max(traj.lyapunov[i05], 0.0) ** mu
                      + 2.0 * mu * traj.times[i05])
    clauses = [
        _clause("envelope holds at every sample", "min deficit >= -1e-6", worst,
                worst >= -1e-6),
        _clause("strictly below the envelope for t > 0", "min deficit > 0", strict,
                strict > 0.0),
        _clause("positive margin at t = 0.5", "deficit(0.5) > 0", float(margin05),
                margin05 > 0.0),
    ]
    return CriterionResult("c2-heat-envelope", "heat envelope sharpness", clauses)


def criterion_unobservable_decay() -> CriterionResult:
    run = _get_run("heat-unobservable")
    traj = run.traj
    exact = np.exp(-np.pi ** 2 * traj.times)
    rel = np.max(np.abs(traj.norms - exact) / exact)
    max_u = float(np.max(np.abs(traj.controls)))
    clauses = [
        _clause("norm follows the free flow", "rel error <= 1e-8 on [0, 0.5]",
                float(rel), rel <= 1e-8),
        _clause("control stays switched off", "max |u| == 0", max_u, max_u == 0.0),
        _clause("no settling claimed", "settling_time is None",
                str(traj.settling_time), traj.settling_time is None),
    ]
    return CriterionResult("c3-unobservable-decay", "unobservable free decay", clauses)


def criterion_transport_heat() -> CriterionResult:
    run = _get_run("transport-heat-settling")
    traj = run.traj
    mu = run.built.spec.mu
    V0 = float(traj.lyapunov[0])
    bound = max(V0 ** mu / (2.0 * mu), run.built.model.delta)
    free = _get_run("transport-heat-free")
    ft = free.traj
    after = ft.times >= 1.0 - 1e-12
    psi_max_after = float(np.max(ft.psi_norms[after]))
    clauses = [
        _clause("settling within the bound", f"settling <= {bound:.10g}",
                traj.settling_time,
                traj.settling_time is not None and traj.settling_time <= bound),
        _clause("free transport leaves exactly", "psi == 0 for t >= 1 (no tolerance)",
                psi_max_after, psi_max_after == 0.0),
        _clause("free heat part never settles", "settling_time is None",
                str(ft.settling_time), ft.settling_time is None),
    ]
    return CriterionResult("c4-transport-heat", "transport-heat settling and exit", clauses)


def criterion_wave() -> CriterionResult:
    from .controllers import settling_bound_details

    run = _get_run("wave-settling")
    traj = run.traj
    built = run.built
    bound, _ = settling_bound_details(built.spec, built.model, built.dec, built.y0)
    deadline = float(bound) + 0.1
    late = traj.times >= deadline
    worst_norm = float(np.max(traj.norms[late]))
    cons = _get_run("wave-conservation")
    drift = float(np.max(np.abs(cons.traj.norms - cons.traj.norms[0])))
    per_unit = drift / cons.built.opts.t_max
    clauses = [
        _clause("full norm small after bound + 0.1",
                f"max norm <= 1e-6 for t >= {deadline:.6g}", worst_norm,
                worst_norm <= 1e-6),
        _clause("free wave conserves the norm", "drift <= 1e-9 per unit time",
                per_unit, per_unit <= 1e-9),
    ]
    return CriterionResult("c5-wave", "wave settling and conservation", clauses)


def criterion_beam() -> CriterionResult:
    run = _get_run("beam-rankone")
    traj = run.traj
    built = run.built
    s = traj.states[:, 8]  # pairing coordinate against the input profile
    after_t1 = traj.times >= 2.0 - 1e-12
    after_slack = traj.times >= 2.1 - 1e-12
    worst_s = float(np.max(np.abs(s[after_t1])))
    worst_norm = float(np.max(traj.norms[after_slack]))
    from .controllers import settling_bound_details

    bound, _ = settling_bound_details(built.spec, built.model, built.dec, built.y0)
    clauses = [
        _clause("bound equals the rank-one horizon", "bound == 2.0", float(bound),
                float(bound) == 2.0),
        _clause("observed pairing dead after the horizon",
                "|<Py, zeta>| <= 1e-8 for t >= 2.0", worst_s, worst_s <= 1e-8),
        _clause("full norm dead shortly after", "norm <= 1e-6 for t >= 2.1",
                worst_norm, worst_norm <= 1e-6),
    ]
    return CriterionResult("c6-beam-rank-one", "beam rank-one settling", clauses)


def _random_system(i: int) -> tuple[ModalModel, int]:
    """Random self-adjoint PSD pair; most draws plant an unobservable subspace.

    Returns the model and the planted dim W (generic draws expect 0)."""
    rng = np.random.default_rng(1000 + i)
    n = 2 + i % 5
    if i % 3 == 0:
        A = rng.standard_normal((n, n))
        k = 1 + i % n
        C = rng.standard_normal((n, k))
        Bsym = C @ C.T
        expected_w = 0
    else:
        nw = 1 + i % (n - 1)
        npp = n - nw
        A = np.zeros((n, n))
        A[:npp, :npp] = rng.standard_normal((npp, npp))
        A[npp:, npp:] = rng.standard_normal((nw, nw))
        A[npp:, :npp] = rng.standard_normal((nw, npp))
        # upper-right block zero keeps the last nw axes invariant; B vanishes
        # there and is definite on the complement, so W is exactly that span
        C = rng.standard_normal((npp, npp))
        Bsym = np.zeros((n, n))
        Bsym[:npp, :npp] = C @ C.T + 0.1 * np.eye(npp)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ A @ Q.T
        Bsym = Q @ Bsym @ Q.T
        expected_w = nw
    if i % 2 == 0:
        return ModalModel(dim=n, metric=np.eye(n), generator=A, control_op=Bsym), expected_w
    R = rng.standard_normal((n, n))
    M = R @ R.T + n * np.eye(n)
    B = np.linalg.solve(M, Bsym)
    return ModalModel(dim=n, metric=M, generator=A, control_op=B), expected_w


def _time_sampled_kernel(model: ModalModel) -> np.ndarray:
    """Oracle basis of W from B e^{tA} sampled on a time grid."""
    B = model.control_op
    A = model.generator
    rows = [B]
    for t in np.linspace(0.125, 2.0, 8):
        rows.append(B @ expm(A * t))
    stacked = np.vstack(rows)
    _, sv, vt = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(sv > 1e-10 * (sv[0] if sv.size else 1.0)))
    return vt[rank:].T


def _principal_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Principal angles between span U and span V, ascending (Bjorck & Golub 1973).

    The cosines are the singular values of Qu* Qv.  Where cos^2 >= 1/2 the angle
    is taken from its sine instead, a singular value of Qv - Qu Qu* Qv, as
    scipy.linalg.subspace_angles does: arccos cannot resolve angles below ~1e-8.
    """
    Qu = np.linalg.qr(U)[0]
    Qv = np.linalg.qr(V)[0]
    if Qu.shape[1] < Qv.shape[1]:
        Qu, Qv = Qv, Qu
    cross = Qu.T @ Qv
    cos = np.linalg.svd(cross, compute_uv=False)                      # descending
    sin = np.linalg.svd(Qv - Qu @ cross, compute_uv=False)[::-1]      # ascending
    return np.where(cos * cos >= 0.5, np.arcsin(np.minimum(sin, 1.0)),
                    np.arccos(np.minimum(cos, 1.0)))


def criterion_decomposition_oracle() -> CriterionResult:
    from .decomposition import compute_gamma

    worst_angle = 0.0
    matches = 0
    certs = 0
    dims_ok = 0
    nontrivial = 0
    total = 50
    for i in range(total):
        model, expected_w = _random_system(i)
        dec = unobservable_subspace(model)
        oracle = _time_sampled_kernel(model)
        if dec.dim_w == expected_w:
            dims_ok += 1
        if expected_w > 0:
            nontrivial += 1
        if dec.dim_w == oracle.shape[1]:
            if dec.dim_w == 0:
                angle = 0.0
            else:
                angle = float(np.max(_principal_angles(dec.w_basis, oracle)))
            worst_angle = max(worst_angle, angle)
            if angle < 1e-8:
                matches += 1
        gamma = compute_gamma(model, dec)
        if gamma_certificate(model, dec, gamma, samples=300, seed=i).passed:
            certs += 1
    clauses = [
        _clause("algebraic W matches the semigroup oracle",
                f"{total}/{total} principal angles < 1e-8",
                f"{matches}/{total}, worst {worst_angle:.3e}", matches == total),
        _clause("planted unobservable dimensions recovered",
                f"{total}/{total} dims, nontrivial in most draws",
                f"{dims_ok}/{total} ({nontrivial} planted)",
                dims_ok == total and nontrivial >= total // 2),
        _clause("two-sided gamma certificates", f"{total}/{total} certified",
                f"{certs}/{total}", certs == total),
    ]
    return CriterionResult("c7-decomposition-oracle", "decomposition vs oracle", clauses)


def _invariance_case(kind: str):
    """(model, dec, spec for invariance, spec for scaling, w_axes, exponent)."""
    if kind == "Heat1D":
        bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=8))
        inv_spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
        return bundle, inv_spec, inv_spec, -0.5
    if kind == "Wave1D":
        bundle = build_frontend(FrontendSpec(kind="Wave1D", n_modes=8, q=3))
        inv_spec = ControllerSpec(variant="BilinearPhi", mu=0.25, phi=bundle.phi)
        scale_spec = ControllerSpec(variant="BilinearPhi", mu=0.25, phi=PhiSpec("Zero"))
        return bundle, inv_spec, scale_spec, -0.5
    bundle = build_frontend(FrontendSpec(kind="Beam1D", n_modes=8, h_coeffs=(1.0,)))
    inv_spec = ControllerSpec(variant="RankOne", mu=0.25,
                              zeta=np.asarray(bundle.info["zeta"]),
                              varpi=np.asarray(bundle.info["varpi"]))
    scale_spec = ControllerSpec(variant="LinearPhi", mu=0.25)
    return bundle, inv_spec, scale_spec, 0.5


def criterion_control_invariance() -> CriterionResult:
    rng = np.random.default_rng(8)
    states_per_case = 100
    exact_ok = True
    worst_rel = 0.0
    for kind in ("Heat1D", "Wave1D", "Beam1D"):
        bundle, inv_spec, scale_spec, exponent = _invariance_case(kind)
        model, dec = bundle.model, bundle.dec
        axes = list(bundle.w_axes)
        for _ in range(states_per_case):
            y = rng.standard_normal(model.dim)
            w = np.zeros(model.dim)
            w[axes] = rng.standard_normal(len(axes))
            u_y = control_value(inv_spec, model, dec, y)
            u_yw = control_value(inv_spec, model, dec, y + w)
            if not np.array_equal(u_y, u_yw):
                exact_ok = False
            base = control_value(scale_spec, model, dec, y)
            for c in (0.5, 2.0, 10.0):
                scaled = control_value(scale_spec, model, dec, c * y)
                expect = c ** exponent * base
                rel = float(np.max(np.abs(scaled - expect))
                            / max(np.max(np.abs(expect)), 1e-300))
                worst_rel = max(worst_rel, rel)
    hybrid = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                               grid_n=16, omega_h=0.25))
    mu = 0.25
    for _ in range(states_per_case):
        c = rng.standard_normal((4, 4))
        psi = rng.standard_normal((16, 16))
        state = HybridState(c=c, psi=psi)
        u = -hybrid_v(hybrid, state) ** -mu
        delta = rng.standard_normal((16, 16))
        delta[: hybrid.n_omega, : hybrid.n_omega] = 0.0
        pert = HybridState(c=c, psi=psi + delta)
        u_pert = -hybrid_v(hybrid, pert) ** -mu
        if u != u_pert:
            exact_ok = False
        for cc in (0.5, 2.0, 10.0):
            scaled_state = HybridState(c=cc * c, psi=cc * psi)
            u_scaled = -hybrid_v(hybrid, scaled_state) ** -mu
            rel = abs(u_scaled - cc ** (-2.0 * mu) * u) / abs(u_scaled)
            worst_rel = max(worst_rel, rel)
    clauses = [
        _clause("unobservable shifts leave the control unchanged",
                "bitwise equality, 100 states per front-end",
                "exact" if exact_ok else "mismatch", exact_ok),
        _clause("homogeneous scaling of the singular term",
                "rel error <= 1e-12 for c in {0.5, 2, 10}", worst_rel,
                worst_rel <= 1e-12),
    ]
    return CriterionResult("c8-control-invariance", "control invariance and scaling",
                           clauses)


def criterion_stability_sweep() -> CriterionResult:
    clauses = []
    for key in SCENARIOS:
        run = _get_run(key)
        omega = 0.0 if run.built.kind == "hybrid" else quasi_contraction_type(run.built.model)
        report = verify_lyapunov_stability(run.traj, omega)
        clauses.append(_clause(f"stability of {key}",
                               "norm within the quasi-contraction bound",
                               f"excess {report.details['max_excess']:.3e}"
                               if "max_excess" in report.details else "ok",
                               report.passed))
    return CriterionResult("c9-stability-sweep", "stability of every run", clauses)


CRITERIA = {
    "c1-heat-settling": criterion_heat_settling,
    "c2-heat-envelope": criterion_heat_envelope,
    "c3-unobservable-decay": criterion_unobservable_decay,
    "c4-transport-heat": criterion_transport_heat,
    "c5-wave": criterion_wave,
    "c6-beam-rank-one": criterion_beam,
    "c7-decomposition-oracle": criterion_decomposition_oracle,
    "c8-control-invariance": criterion_control_invariance,
    "c9-stability-sweep": criterion_stability_sweep,
}


def list_criteria() -> list[str]:
    return list(CRITERIA)


def run_criteria(pattern: str = "*") -> list[CriterionResult]:
    results = []
    for key, fn in CRITERIA.items():
        if fnmatch.fnmatch(key, pattern):
            start = time.perf_counter()
            result = fn()
            result.wall_s = time.perf_counter() - start
            results.append(result)
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    width = max(len(r.key) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.key:<{width}}  {status}  {r.title}  ({r.wall_s:.2f} s)")
        for c in r.clauses:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  [{mark}] {c.description}: {c.measured} (target: {c.target})")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
