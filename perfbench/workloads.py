"""Workload inputs for the finstab benchmark and the checks on their outputs.

Every input is a scenario JSON document made here from the workload seed; the
program receives nothing else.  Every output is checked against a value this
file computes on its own (the analytic modal data, the planted subspace) or
against a property the method must have (the decay envelope, the free decay
of the unobservable mode, norm conservation, the sample grid).  Nothing is
compared with a stored copy of an earlier output.

Only numpy is imported here, so generating the inputs costs what the
program's users pay for it too.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("scenarios", "modal-sweep", "structure")

MU = 0.25
EPS_SETTLE = 1e-8  # the program's default settling threshold
WAVE_Q = 3
# Structure sizes.  Above dim 128 the full-matrix SVD of the stacked Kalman
# matrix (n^2 x n) no longer fits in memory: at dim 256 it would allocate ~34 GB.
FRONTEND_SIZES = (8, 16, 32, 64)
PLANTED_SEEDED = (4, 6, 8)
# Planted sizes whose dim W the program gets wrong; drawn from a fixed stream so
# that the failure does not depend on the workload seed.  Dims 12 to 20 fail on
# some seeds only (3 in 2000 draws at dim 12, about half at 16) and are left
# out, since a run's share of failed operations must not depend on its seed.
PLANTED_FAULTY = (24, 32)
FIXED_STREAM = 20240817

FAULTS = {
    "decay-envelope": (
        "verify_decay compares V^mu with the envelope V(0)^mu - 2 gamma mu t, which is "
        "not clipped at zero; with V = 0 from the start it fails for every t > 0 "
        "(exit 1) although criterion c3 holds"),
    "c5-wave": (
        "documented c5 failure: the H2 margin of the capped coordinate-ratio phi is "
        "negative and the norm at bound + 0.1 is about 6e-2 instead of <= 1e-6"),
    "kalman-rank": (
        "unobservable_subspace stacks the Kalman matrix B A^k and applies a relative "
        "SVD cutoff, so dim W is miscounted (ROADMAP item 4); check_scenario still "
        "exits 0 for the front-end models"),
    "kalman-overflow": (
        "unobservable_subspace overflows B A^k at dim 128 and scipy raises a raw "
        "ValueError instead of a ConfigError, so the documented exit code 2 is missing"),
}


@dataclass(frozen=True)
class Op:
    """One call of a public entry point: run_scenario ("run") or check_scenario."""

    name: str
    entry: str
    doc: dict
    expect: dict
    fault: str | None = None
    # checks that the fault may break; any other failing check is a wrong result
    may_fail: frozenset = frozenset()


@dataclass
class Outcome:
    op: Op
    seconds: float
    checks: list = field(default_factory=list)  # (name, passed, detail)

    @property
    def failing(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]

    @property
    def failed(self) -> bool:
        return bool(self.failing)

    @property
    def explained(self) -> bool:
        """True when every failing check is one the op's known fault accounts for."""
        return set(self.failing) <= self.op.may_fail


# ---------------------------------------------------------------------------
# Inputs


def build(workload: str, seed: int) -> list[Op]:
    if workload == "scenarios":
        return _scenarios(seed)
    if workload == "modal-sweep":
        return _modal_sweep(seed)
    if workload == "structure":
        return _structure(seed)
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


def _heat_doc(name: str, n_modes: int, seed: int, t_max: float = 3.0) -> dict:
    return {"name": name, "frontend": {"kind": "Heat1D", "n_modes": n_modes},
            "controller": {"variant": "BilinearPhi", "mu": MU},
            "initial_state": "mode2+0.5*mode3",
            "integration": {"t_max": t_max, "sample_dt": 0.001}, "seed": seed}


def _modal_grid(t_max: float, sample_dt: float | None = None) -> dict:
    ns = round(t_max / (sample_dt or t_max / 2000.0)) + 1
    return {"kind": "modal", "t_max": t_max, "samples": ns}


def _scenarios(seed: int) -> list[Op]:
    """The seven acceptance configurations of the suite, kept here as a copy.

    The workload seed becomes each document's "seed", which draws the sample
    points of the gamma and H2 certificates; the trajectories do not depend
    on it.
    """
    beam_y0 = [0.0] * 16
    beam_y0[0] = -2.0 * math.pi ** 2 / 3.0  # position balanced so both parts vanish together
    beam_y0[8] = 1.0                         # unit pairing with the input profile
    hybrid = {"kind": "TransportHeat2D", "n_modes": 8, "grid_n": 64, "omega_h": 0.25}
    wave = {"kind": "Wave1D", "n_modes": 8, "q": WAVE_Q}
    return [
        Op("heat-settling", "run", _heat_doc("heat-settling", 16, seed),
           {"grid": _modal_grid(3.0, 0.001), "settling": {"v0": 1.25, "gamma": 1.0}}),
        Op("heat-unobservable", "run",
           {"name": "heat-unobservable", "frontend": {"kind": "Heat1D", "n_modes": 16},
            "controller": {"variant": "BilinearPhi", "mu": MU}, "initial_state": "mode1",
            "integration": {"t_max": 0.5, "rtol": 1e-12, "atol": 1e-15,
                            "sample_dt": 0.00025}, "seed": seed},
           {"grid": _modal_grid(0.5, 0.00025), "free_decay": math.pi ** 2, "u_zero": True},
           fault="decay-envelope", may_fail=frozenset({"exit_code"})),
        Op("transport-heat-settling", "run",
           {"name": "transport-heat-settling", "frontend": hybrid,
            "controller": {"variant": "BilinearPhi", "mu": MU},
            "initial_state": "hybrid-bump", "integration": {"t_max": 3.0}, "seed": seed},
           {"grid": {"kind": "hybrid", "t_max": 3.0, "grid_n": 64}, "psi_exit": True}),
        Op("transport-heat-free", "run",
           {"name": "transport-heat-free", "frontend": hybrid,
            "controller": {"variant": "ZeroControl"},
            "initial_state": "hybrid-bump", "integration": {"t_max": 2.0}, "seed": seed},
           {"grid": {"kind": "hybrid", "t_max": 2.0, "grid_n": 64}, "psi_exit": True}),
        Op("wave-settling", "run",
           {"name": "wave-settling", "frontend": wave,
            "controller": {"variant": "BilinearPhi", "mu": MU},
            "initial_state": "wperp-random(20240817)", "integration": {"t_max": 4.0},
            "seed": seed},
           {"grid": _modal_grid(4.0), "deadline": {"gamma": 1.0, "slack": 0.1}},
           fault="c5-wave", may_fail=frozenset({"exit_code", "settled_after_deadline"})),
        Op("wave-conservation", "run",
           {"name": "wave-conservation", "frontend": wave,
            "controller": {"variant": "ZeroControl"},
            "initial_state": "wperp-random(20240817)", "integration": {"t_max": 3.0},
            "seed": seed},
           {"grid": _modal_grid(3.0), "conservation": 3.0, "u_zero": True}),
        Op("beam-rankone", "run",
           {"name": "beam-rankone",
            "frontend": {"kind": "Beam1D", "n_modes": 8, "h_coeffs": [1.0]},
            "controller": {"variant": "RankOne", "mu": MU}, "initial_state": beam_y0,
            "integration": {"t_max": 2.5, "sample_dt": 0.00125}, "seed": seed},
           {"grid": _modal_grid(2.5, 0.00125), "rank_one": {"bound": 2.0, "column": 8}}),
    ]


def _modal_sweep(seed: int) -> list[Op]:
    """Heat and free-wave runs at growing n_modes; the seed draws the wave states.

    The horizon is 1.0 rather than the suite's 3.0 (heat settles by t = 0.19),
    so that a run holds enough passes for a steady median.
    """
    t_max, wave_dt = 1.0, 0.0015
    ops = []
    for n in (16, 64, 128):
        ops.append(Op(f"heat-n{n}", "run", _heat_doc(f"heat-n{n}", n, seed, t_max),
                      {"grid": _modal_grid(t_max, 0.001),
                       "settling": {"v0": 1.25, "gamma": 1.0}}))
    for n in (16, 64, 128):
        wave_seed = int(np.random.default_rng([seed, n]).integers(2 ** 31))
        ops.append(Op(f"wave-n{n}", "run",
                      {"name": f"wave-n{n}",
                       "frontend": {"kind": "Wave1D", "n_modes": n, "q": WAVE_Q},
                       "controller": {"variant": "ZeroControl"},
                       "initial_state": "wperp-random",
                       "integration": {"t_max": t_max, "sample_dt": wave_dt},
                       "seed": wave_seed},
                      {"grid": _modal_grid(t_max, wave_dt), "conservation": t_max,
                       "u_zero": True,
                       "unit_in_wperp": {"n_modes": n, "q": WAVE_Q}}))
    return ops


# (fault, checks it may break) for check_scenario on raw matrices
NO_FAULT = (None, frozenset())
RANK_FAULT = ("kalman-rank", frozenset({"dim_w", "gamma", "exit_code"}))


def _matrices_doc(name: str, matrices: dict, controller: dict) -> dict:
    return {"name": name, "matrices": matrices, "controller": controller,
            "initial_state": "zero", "integration": {"t_max": 1.0}}


def _rotation_pairs(omega: np.ndarray) -> np.ndarray:
    """First-order form of undamped oscillators: pos' = omega vel, vel' = -omega pos."""
    n = omega.size
    A = np.zeros((2 * n, 2 * n))
    A[np.arange(n), n + np.arange(n)] = omega
    A[n + np.arange(n), np.arange(n)] = -omega
    return A


def _structure(seed: int) -> list[Op]:
    """check_scenario on raw matrices: analytic front-end models and planted systems."""
    ops = []
    for n in FRONTEND_SIZES + (128,):
        A = np.diag(-(math.pi * np.arange(1, n + 1)) ** 2)
        B = np.eye(n)
        B[0, 0] = 0.0
        fault = NO_FAULT
        if n >= 128:
            fault = ("kalman-overflow", frozenset({"raised"}))
        elif n >= 16:
            fault = RANK_FAULT
        ops.append(Op(f"heat-n{n}", "check",
                      _matrices_doc(f"heat-n{n}",
                                    {"dim": n, "generator": A.tolist(), "control_op": B.tolist()},
                                    {"variant": "BilinearPhi", "mu": MU}),
                      {"dim_w": 1, "gamma": 1.0}, *fault))
    for n in FRONTEND_SIZES:
        B = np.zeros((2 * n, 2 * n))
        B[n + np.arange(WAVE_Q), n + np.arange(WAVE_Q)] = 1.0
        ops.append(Op(f"wave-n{n}", "check",
                      _matrices_doc(f"wave-n{n}",
                                    {"dim": 2 * n,
                                     "generator": _rotation_pairs(math.pi * np.arange(1, n + 1)).tolist(),
                                     "control_op": B.tolist()},
                                    {"variant": "BilinearGrad", "mu": MU}),
                      {"dim_w": 2 * (n - WAVE_Q), "gamma": 1.0},
                      *(RANK_FAULT if n >= 16 else NO_FAULT)))
    for n in FRONTEND_SIZES:
        h = np.zeros(n)
        h[0] = 1.0
        L = np.zeros((2 * n, 1))
        L[n:, 0] = h
        zeta = L[:, 0]
        ops.append(Op(f"beam-n{n}", "check",
                      _matrices_doc(f"beam-n{n}",
                                    {"dim": 2 * n,
                                     "generator": _rotation_pairs((math.pi * np.arange(1, n + 1)) ** 2).tolist(),
                                     "input_map": L.tolist()},
                                    {"variant": "RankOne", "mu": MU, "zeta": zeta.tolist(),
                                     "varpi": [1.0]}),
                      {"dim_w": 2 * int(np.sum(h == 0.0)), "gamma": float(h @ h)}))
    for n in PLANTED_SEEDED + PLANTED_FAULTY:
        for metric in ("identity", "general"):
            faulty = n in PLANTED_FAULTY
            rng = np.random.default_rng([FIXED_STREAM if faulty else seed, n, metric == "general"])
            matrices, dim_w, gamma = planted_system(rng, n, metric == "general")
            ops.append(Op(f"planted-{metric}-n{n}", "check",
                          _matrices_doc(f"planted-{metric}-n{n}", matrices,
                                        {"variant": "BilinearGrad", "mu": MU}),
                          {"dim_w": dim_w, "gamma": gamma},
                          *(RANK_FAULT if faulty else NO_FAULT)))
    return ops


def planted_system(rng: np.random.Generator, n: int, general_metric: bool):
    """A self-adjoint PSD bilinear system whose unobservable subspace is planted.

    With Q orthogonal, W = span Q2 = ker B.  The generator keeps both W and its
    metric complement W_perp = span M^-1 Q1 invariant, and B is definite on
    W_perp, so W is exactly the unobservable subspace and H1 holds.  gamma is the
    smallest eigenvalue of B on W_perp, from the generalised eigenproblem on
    that basis.  Returns (matrices document, dim W, gamma).
    """
    dim_w = int(rng.integers(1, n // 2 + 1))
    npp = n - dim_w
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q1, Q2 = Q[:, :npp], Q[:, npp:]
    if general_metric:
        R = rng.standard_normal((n, n))
        M = R @ R.T + n * np.eye(n)
    else:
        M = np.eye(n)
    T1 = np.linalg.solve(M, Q1)
    T = np.hstack([T1, Q2])
    blocks = np.zeros((n, n))
    blocks[:npp, :npp] = rng.standard_normal((npp, npp))
    blocks[npp:, npp:] = rng.standard_normal((dim_w, dim_w))
    A = T @ blocks @ np.linalg.inv(T)
    C = rng.standard_normal((npp, npp))
    Bsym = Q1 @ (C @ C.T + 0.1 * np.eye(npp)) @ Q1.T
    B = np.linalg.solve(M, Bsym)
    # <Bx, x>_M = x^T Bsym x; gamma = min eig of (T1' Bsym T1, T1' M T1)
    chol = np.linalg.cholesky(T1.T @ M @ T1)
    inv = np.linalg.inv(chol)
    reduced = inv @ (T1.T @ Bsym @ T1) @ inv.T
    gamma = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    matrices = {"dim": n, "metric": M.tolist(), "generator": A.tolist(),
                "control_op": B.tolist()}
    return matrices, dim_w, gamma


# ---------------------------------------------------------------------------
# Checks


def check(op: Op, code, summary: dict | None, out_dir: Path, error: str | None,
          seconds: float) -> Outcome:
    """Check one operation's result; summary is what the entry point returned."""
    outcome = Outcome(op, seconds)
    add = outcome.checks.append
    if error is not None:
        add(("raised", False, error))
        return outcome
    add(("exit_code", code == 0, f"exit code {code}"))
    if op.entry == "check":
        dec = summary.get("decomposition", {})
        add(("dim_w", dec.get("dim_w") == op.expect["dim_w"],
             f"dim W {dec.get('dim_w')}, expected {op.expect['dim_w']}"))
        gamma, want = dec.get("gamma"), op.expect["gamma"]
        add(("gamma", gamma is not None and abs(gamma - want) <= 1e-8 * want,
             f"gamma {gamma}, expected {want!r}"))
        return outcome
    _check_run(op, code, out_dir, add)
    return outcome


def read_trajectory(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _check_run(op: Op, code, out_dir: Path, add) -> None:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    add(("summary_exit_code", summary.get("exit_code") == code,
         f"summary.json exit_code {summary.get('exit_code')} vs returned {code}"))
    header, data = read_trajectory(out_dir / "trajectory.csv")
    t = data[:, 0]
    ys = data[:, [i for i, h in enumerate(header) if h.startswith("y_")]]
    u = data[:, [i for i, h in enumerate(header) if h == "u" or h.startswith("v_")]]
    V = data[:, header.index("V")]
    norms = np.sqrt(np.sum(ys * ys, axis=1))  # every model here has the identity metric
    ex = op.expect
    add(_check_grid(ex["grid"], t))
    if "settling" in ex:
        for c in _check_settling(ex["settling"], t, ys, V, norms):
            add(c)
    if "free_decay" in ex:
        exact = np.exp(-ex["free_decay"] * t)
        rel = float(np.max(np.abs(norms - exact) / exact))
        add(("free_decay", rel <= 1e-8, f"max rel error {rel:.3e} vs exp(-pi^2 t)"))
    if ex.get("u_zero"):
        peak = float(np.max(np.abs(u)))
        add(("u_zero", peak == 0.0, f"max |u| {peak!r}"))
    if "psi_exit" in ex:
        psi = np.loadtxt(out_dir / "psi_final.csv", delimiter=",", ndmin=2)
        peak = float(np.max(np.abs(psi)))
        add(("psi_exit", peak == 0.0, f"max |psi_final| {peak!r}"))
    if "conservation" in ex:
        drift = float(np.max(np.abs(norms - norms[0]))) / ex["conservation"]
        add(("conservation", drift <= 1e-9, f"norm drift {drift:.3e} per unit time"))
    if "unit_in_wperp" in ex:
        n, q = ex["unit_in_wperp"]["n_modes"], ex["unit_in_wperp"]["q"]
        outside = np.delete(ys[0], np.r_[0:q, n:n + q])
        ok = bool(np.all(outside == 0.0)) and abs(norms[0] - 1.0) <= 1e-12
        add(("unit_in_wperp", ok, f"|y(0)| {norms[0]!r}, max off W_perp {np.max(np.abs(outside))!r}"))
    if "rank_one" in ex:
        bound = summary.get("settling_bound")
        add(("bound", bound == ex["rank_one"]["bound"], f"settling bound {bound!r}"))
        late = np.abs(ys[t >= 2.0 - 1e-12, ex["rank_one"]["column"]])
        peak = float(np.max(late))
        add(("pairing_dead", peak <= 1e-8, f"max |y_9| for t >= 2: {peak:.3e}"))
    if "deadline" in ex:
        deadline = V[0] ** MU / (2.0 * ex["deadline"]["gamma"] * MU) + ex["deadline"]["slack"]
        late = norms[t >= deadline]
        peak = float(np.max(late)) if late.size else math.inf
        add(("settled_after_deadline", peak <= 1e-6,
             f"max norm {peak:.3e} for t >= {deadline:.6g}"))


def _check_grid(grid: dict, t: np.ndarray):
    if grid["kind"] == "modal":
        ns = grid["samples"]
        expected = np.arange(ns) * (grid["t_max"] / (ns - 1))
    else:
        steps = math.ceil(grid["t_max"] * grid["grid_n"] - 1e-9)
        expected = np.arange(steps + 1) / grid["grid_n"]
    if t.shape != expected.shape:
        return ("grid", False, f"{t.size} samples, expected {expected.size}")
    worst = float(np.max(np.abs(t - expected)))
    return ("grid", worst <= 1e-12 * grid["t_max"], f"max grid offset {worst:.3e}")


def _check_settling(spec: dict, t, ys, V, norms):
    """Heat closed loop: V(0), settling within V(0)^mu / (2 gamma mu), envelope before it."""
    v0 = float(np.sum(ys[0, 1:] ** 2))  # B = I - e1 e1^T, so V = sum over modes >= 2
    yield ("v0", abs(v0 - spec["v0"]) <= 1e-12 and V[0] == v0,
           f"V(0) {V[0]!r} from the state {v0!r}, expected {spec['v0']}")
    bound = spec["v0"] ** MU / (2.0 * spec["gamma"] * MU)
    above = np.nonzero(norms > EPS_SETTLE)[0]
    settle = None
    if above.size == 0:
        settle = float(t[0])
    elif above[-1] + 1 < t.size:
        settle = float(t[above[-1] + 1])
    yield ("settled_within_bound", settle is not None and settle <= bound,
           f"settling {settle} vs bound {bound:.10g}")
    before = t <= (settle if settle is not None else math.inf) + 1e-15
    excess = (np.maximum(V[before], 0.0) ** MU
              - (spec["v0"] ** MU - 2.0 * spec["gamma"] * MU * t[before]))
    worst = float(np.max(excess))
    yield ("decay_envelope", worst <= 1e-6, f"max envelope excess {worst:.3e}")
