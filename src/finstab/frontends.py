"""Model builders for the four worked examples.

- heat: 1-D Dirichlet heat equation, modal truncation, B = I - e1 e1^T.
- wave: 1-D wave equation in first-order modal form, velocity damping on the
  first q modes; energy-normalized coordinates make the metric the identity.
- beam: 1-D beam in first-order modal form with a rank-one input profile h.
- transport_heat: 2-D heat modes coupled with a grid transport component that
  exits the domain in finite time (exact characteristic shift).

All single-field builders return a FrontendBundle whose decomposition is the
exact axis-aligned one (identity metric, 0/1 mask projector) so that control
invariance under adding unobservable components holds bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .controllers import ControllerSpec, DEFAULT_WAVE_CAP, PhiSpec
from .decomposition import NOT_NILPOTENT, DecompositionResult, decomposition_from_axes
from .integrator import _settling_time
from .model import ModalModel, ModelError


@dataclass(frozen=True)
class FrontendSpec:
    kind: str
    n_modes: int = 16
    q: int = 0                      # wave: number of damped velocity modes
    grid_n: int = 0                 # transport: cells per axis
    omega_h: float = 0.0            # transport: control patch edge length
    h_coeffs: tuple[float, ...] = ()  # beam: modal coefficients of the profile

    def __post_init__(self):
        if self.kind not in ("Heat1D", "Wave1D", "Beam1D", "TransportHeat2D"):
            raise ModelError(f"unknown front-end kind: {self.kind}")
        if self.n_modes <= 0:
            raise ModelError("n_modes must be positive")


@dataclass
class FrontendBundle:
    model: ModalModel
    dec: DecompositionResult
    phi: PhiSpec
    w_axes: tuple[int, ...]
    info: dict[str, Any] = field(default_factory=dict)


def _finish_dec(dec: DecompositionResult, gamma: float,
                delta) -> DecompositionResult:
    from dataclasses import replace

    return replace(dec, gamma=gamma, delta=delta, h1_holds=True, h3_holds=True,
                   h4_holds=not (delta is NOT_NILPOTENT))


def heat_model(spec: FrontendSpec) -> FrontendBundle:
    """Diagonal decay -(j pi)^2 with the first mode unobservable."""
    if spec.kind != "Heat1D":
        raise ModelError("spec.kind must be Heat1D")
    n = spec.n_modes
    if n < 2:
        raise ModelError("heat model needs at least 2 modes")
    lam = -(np.pi * np.arange(1, n + 1)) ** 2
    B = np.eye(n)
    B[0, 0] = 0.0
    model = ModalModel(dim=n, metric=np.eye(n), generator=np.diag(lam), control_op=B,
                       basis_labels=tuple(f"mode{j}" for j in range(1, n + 1)))
    dec = _finish_dec(decomposition_from_axes(model, (0,)), gamma=1.0, delta=NOT_NILPOTENT)
    return FrontendBundle(model=model, dec=dec, phi=PhiSpec("Zero"), w_axes=(0,),
                          info={"eigenvalues": lam.tolist()})


def wave_model(spec: FrontendSpec) -> FrontendBundle:
    """Block-rotation modes (frequency j pi) with velocity damping on modes 1..q."""
    if spec.kind != "Wave1D":
        raise ModelError("spec.kind must be Wave1D")
    n = spec.n_modes
    q = spec.q
    if not (1 <= q <= n):
        raise ModelError("wave model requires 1 <= q <= n_modes")
    om = np.pi * np.arange(1, n + 1)
    A = np.zeros((2 * n, 2 * n))
    for j in range(n):
        A[j, n + j] = om[j]
        A[n + j, j] = -om[j]
    B = np.zeros((2 * n, 2 * n))
    for i in range(q):
        B[n + i, n + i] = 1.0
    labels = tuple(f"pos{j}" for j in range(1, n + 1)) + tuple(f"vel{j}" for j in range(1, n + 1))
    model = ModalModel(dim=2 * n, metric=np.eye(2 * n), generator=A, control_op=B,
                       basis_labels=labels)
    w_axes = tuple(range(q, n)) + tuple(range(n + q, 2 * n))
    delta = 0.0 if q == n else NOT_NILPOTENT
    dec = _finish_dec(decomposition_from_axes(model, w_axes), gamma=1.0, delta=delta)
    phi = PhiSpec("WaveK", cap=DEFAULT_WAVE_CAP, q=q, half=n)
    return FrontendBundle(model=model, dec=dec, phi=phi, w_axes=w_axes,
                          info={"frequencies": om.tolist(), "q": q})


def beam_model(spec: FrontendSpec) -> FrontendBundle:
    """Block-rotation modes (frequency (j pi)^2) driven through the profile h.

    Returns the rank-one data (zeta = input direction, varpi = 1) in info.
    """
    if spec.kind != "Beam1D":
        raise ModelError("spec.kind must be Beam1D")
    n = spec.n_modes
    h = np.zeros(n)
    coeffs = np.asarray(spec.h_coeffs if spec.h_coeffs else (1.0,), dtype=float)
    if coeffs.shape[0] > n:
        raise ModelError("h_coeffs longer than n_modes")
    if float(np.linalg.norm(coeffs)) == 0.0:
        raise ModelError("profile h must be nonzero")
    h[: coeffs.shape[0]] = coeffs
    om = (np.pi * np.arange(1, n + 1)) ** 2
    A = np.zeros((2 * n, 2 * n))
    for j in range(n):
        A[j, n + j] = om[j]
        A[n + j, j] = -om[j]
    L = np.zeros((2 * n, 1))
    L[n:, 0] = h
    labels = tuple(f"pos{j}" for j in range(1, n + 1)) + tuple(f"vel{j}" for j in range(1, n + 1))
    model = ModalModel(dim=2 * n, metric=np.eye(2 * n), generator=A, input_map=L,
                       basis_labels=labels)
    zeta = np.zeros(2 * n)
    zeta[n:] = h
    varpi = np.ones(1)
    # distinct frequencies make each driven mode pair observable, so the
    # unobservable part is exactly the span of the undriven mode-pair axes
    off = [j for j in range(n) if h[j] == 0.0]
    w_axes = tuple(off) + tuple(n + j for j in off)
    dec = decomposition_from_axes(model, w_axes)
    delta = 0.0 if dec.dim_w == 0 else NOT_NILPOTENT
    dec = _finish_dec(dec, gamma=float(h @ h), delta=delta)
    return FrontendBundle(model=model, dec=dec, phi=PhiSpec("Zero"), w_axes=w_axes,
                          info={"frequencies": om.tolist(), "zeta": zeta, "varpi": varpi,
                                "h": h.tolist()})


def rank_one_controller(bundle: FrontendBundle, mu: float = 0.25,
                        dead_zone: float = 1e-12) -> ControllerSpec:
    """The beam's preset rank-one feedback built from the bundle's (zeta, varpi)."""
    return ControllerSpec(variant="RankOne", mu=mu, dead_zone=dead_zone,
                          zeta=np.asarray(bundle.info["zeta"], dtype=float),
                          varpi=np.asarray(bundle.info["varpi"], dtype=float))


# ---------------------------------------------------------------------------
# Coupled transport-heat hybrid


@dataclass(frozen=True)
class HybridModel:
    n_modes: int
    grid_n: int
    omega_h: float
    eigenvalues: np.ndarray     # (n_modes, n_modes), -(j^2+k^2) pi^2
    n_omega: int                # cells per axis inside the control patch
    delta: float                # exit horizon of the transport component

    @property
    def dt_macro(self) -> float:
        return 1.0 / self.grid_n

    @property
    def n_heat(self) -> int:
        return self.n_modes * self.n_modes


@dataclass
class HybridState:
    c: np.ndarray    # (n_modes, n_modes) heat modal coefficients
    psi: np.ndarray  # (grid_n, grid_n) transport samples at cell centers

    def copy(self) -> "HybridState":
        return HybridState(self.c.copy(), self.psi.copy())


def transport_heat_model(spec: FrontendSpec) -> HybridModel:
    """2-D Neumann cosine modes (including the constant mode) plus a transport grid."""
    if spec.kind != "TransportHeat2D":
        raise ModelError("spec.kind must be TransportHeat2D")
    if spec.grid_n <= 0:
        raise ModelError("transport model requires grid_n > 0")
    if not (0.0 < spec.omega_h < 1.0):
        raise ModelError("omega_h must lie in (0, 1)")
    n_omega_f = spec.omega_h * spec.grid_n
    n_omega = int(round(n_omega_f))
    if abs(n_omega_f - n_omega) > 1e-9:
        raise ModelError("omega_h must be a multiple of 1/grid_n")
    nm = spec.n_modes
    jj, kk = np.meshgrid(np.arange(nm), np.arange(nm), indexing="ij")
    lam = -(jj.astype(float) ** 2 + kk.astype(float) ** 2) * np.pi ** 2
    model = HybridModel(n_modes=nm, grid_n=spec.grid_n, omega_h=spec.omega_h,
                        eigenvalues=lam, n_omega=n_omega, delta=1.0)
    _validate_exit_horizon(model)
    return model


def _validate_exit_horizon(model: HybridModel) -> None:
    # the declared horizon must match the actual free flow: a generic profile
    # must be identically zero at the first step time >= delta
    G = model.grid_n
    psi = np.ones((G, G))
    steps = int(round(model.delta / model.dt_macro))
    for _ in range(steps):
        psi = transport_step(psi, 0.0, model.dt_macro, G, model.omega_h)
    if np.any(psi != 0.0):
        raise ModelError("declared transport horizon is not achieved by the free flow")


def transport_step(psi: np.ndarray, u_mid: float, dt: float, grid_n: int,
                   omega_h: float) -> np.ndarray:
    """One exact characteristic shift along (1,1) with in-patch damping.

    dt must equal the grid spacing so the shift is cell-exact; the damping
    factor uses the control value at the substep midpoint.  Cells whose
    characteristic originates outside the domain are set to zero.
    """
    if abs(dt * grid_n - 1.0) > 1e-12:
        raise ModelError("transport_step requires dt equal to the grid spacing")
    out = np.zeros_like(psi)
    out[1:, 1:] = psi[:-1, :-1]
    if u_mid != 0.0:
        n_omega = int(round(omega_h * grid_n))
        # characteristic midpoints of destination cells (i, j) sit at (i/G, j/G),
        # strictly inside the patch for 1 <= i, j <= n_omega - 1
        hi = max(n_omega, 1)
        out[1:hi, 1:hi] *= np.exp(u_mid * dt)
    return out


def hybrid_v(model: HybridModel, state: HybridState) -> float:
    k = model.n_omega
    vw = float(np.sum(state.psi[:k, :k] ** 2)) / model.grid_n ** 2
    return float(np.sum(state.c ** 2)) + vw


def hybrid_norm(model: HybridModel, state: HybridState) -> float:
    return float(np.sqrt(np.sum(state.c ** 2) + np.sum(state.psi ** 2) / model.grid_n ** 2))


def heat_field_on_grid(c: np.ndarray, grid_n: int) -> np.ndarray:
    """Reconstruct the heat field from cosine-mode coefficients at cell centers."""
    nm = c.shape[0]
    x = (np.arange(grid_n) + 0.5) / grid_n
    basis = np.empty((nm, grid_n))
    basis[0] = 1.0
    for j in range(1, nm):
        basis[j] = np.sqrt(2.0) * np.cos(j * np.pi * x)
    return basis.T @ c @ basis


@dataclass
class HybridTrajectory:
    times: np.ndarray
    states: np.ndarray          # (ns, n_heat) modal coefficients
    psi_norms: np.ndarray       # (ns,)
    controls: np.ndarray        # (ns, 1)
    lyapunov: np.ndarray
    norms: np.ndarray
    settling_time: float | None
    psi_initial: np.ndarray
    psi_final: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)


def simulate_hybrid(model: HybridModel, spec: ControllerSpec, y0: HybridState,
                    t_max: float, eps_settle: float = 1e-8) -> HybridTrajectory:
    """Frozen-control splitting: exact heat exponential + exact transport shift.

    Apart from the macro time step, the latch semantics match the adaptive
    integrator: the dead zone switches the control off, latches once entered,
    and the state's observed part (all heat modes plus the in-patch transport
    samples) is clamped to zero when the decay envelope predicts settling
    within one step.
    """
    if spec.variant not in ("BilinearPhi", "ZeroControl"):
        raise ModelError("hybrid simulation supports BilinearPhi or ZeroControl")
    dt = model.dt_macro
    n_steps = int(np.ceil(t_max / dt - 1e-9))
    state = y0.copy()
    times = [0.0]
    heat_states = [state.c.ravel().copy()]
    psi_norms = [float(np.sqrt(np.sum(state.psi ** 2))) / model.grid_n]
    Vs = [hybrid_v(model, state)]
    us = [0.0]
    norms = [hybrid_norm(model, state)]
    latched = False
    latch_time = None
    clamp_time = None
    regrow = False
    k = model.n_omega
    mu = spec.mu
    for step in range(n_steps):
        V = hybrid_v(model, state)
        u = 0.0
        if spec.variant == "BilinearPhi" and not latched and V > spec.dead_zone:
            u = -(V ** (-mu))
        state = HybridState(
            c=state.c * np.exp((model.eigenvalues + u) * dt),
            psi=transport_step(state.psi, u, dt, model.grid_n, model.omega_h),
        )
        t = (step + 1) * dt
        V_new = hybrid_v(model, state)
        if spec.variant != "ZeroControl" and V_new <= spec.dead_zone:
            if not latched:
                latched = True
                latch_time = t
            if clamp_time is None and V_new ** mu / (2.0 * mu) <= dt:
                state.c[:] = 0.0
                state.psi[:k, :k] = 0.0
                clamp_time = t
        if latched and V_new > 2.0 * spec.dead_zone:
            regrow = True
        times.append(t)
        heat_states.append(state.c.ravel().copy())
        psi_norms.append(float(np.sqrt(np.sum(state.psi ** 2))) / model.grid_n)
        Vs.append(V_new)
        us.append(u)
        norms.append(hybrid_norm(model, state))
    times_arr = np.asarray(times)
    norms_arr = np.asarray(norms)
    return HybridTrajectory(
        times=times_arr, states=np.asarray(heat_states), psi_norms=np.asarray(psi_norms),
        controls=np.asarray(us).reshape(-1, 1), lyapunov=np.asarray(Vs), norms=norms_arr,
        settling_time=_settling_time(times_arr, norms_arr, eps_settle),
        psi_initial=y0.psi.copy(), psi_final=state.psi.copy(),
        diagnostics={"latch_time": latch_time, "clamp_time": clamp_time,
                     "dead_zone_regrow": regrow, "steps": n_steps},
    )


def hybrid_decay_check(model: HybridModel, traj: HybridTrajectory, mu: float,
                       dead_zone: float, tol: float = 1e-6):
    """Decay envelope for the macro-stepped loop, with the splitting allowance.

    Freezing the control over a step of length dt loses at most
    mu * dt * log(V(0)^mu / V(t)^mu) of envelope headroom (one-step excess
    ~ (V^mu)'' dt^2 / 2 summed along the run), so the check is
    V(t)^mu <= V(0)^mu - 2 mu t + allowance(t) + tol.
    """
    from .model import CheckReport

    mask = traj.times <= (traj.settling_time if traj.settling_time is not None
                          else np.inf) + 1e-15
    t = traj.times[mask]
    V = traj.lyapunov[mask]
    V0m = V[0] ** mu
    floor = dead_zone ** mu
    Vm = np.maximum(V, 0.0) ** mu
    allowance = mu * model.dt_macro * np.log(np.maximum(V0m, floor) / np.maximum(Vm, floor))
    excess = Vm - (V0m - 2.0 * mu * t) - allowance
    worst = float(np.max(excess))
    return CheckReport("decay_envelope", worst <= tol,
                       {"max_violation": worst, "allowance_final": float(allowance[-1]),
                        "splitting_dt": model.dt_macro})


def hybrid_split_check(model: HybridModel, y0: HybridState,
                       traj: HybridTrajectory) -> bool:
    """Cells never damped by the control must follow the pure shift exactly.

    A cell is marked as touched when its characteristic sits in the damped
    patch during a step with active control; everywhere else the final grid
    must equal the bitwise-exact free shift of the initial data.
    """
    G = model.grid_n
    hi = max(model.n_omega, 1)
    psi = y0.psi.copy()
    touched = np.zeros((G, G), dtype=bool)
    steps = len(traj.times) - 1
    for step in range(steps):
        psi = transport_step(psi, 0.0, model.dt_macro, G, model.omega_h)
        shifted = np.zeros_like(touched)
        shifted[1:, 1:] = touched[:-1, :-1]
        touched = shifted
        if float(traj.controls[step + 1, 0]) != 0.0:
            touched[1:hi, 1:hi] = True
        clamp_time = traj.diagnostics.get("clamp_time")
        if clamp_time is not None and abs(traj.times[step + 1] - clamp_time) < 1e-12:
            touched[: model.n_omega, : model.n_omega] = True
    return bool(np.array_equal(psi[~touched], traj.psi_final[~touched]))


def build_frontend(spec: FrontendSpec):
    """Dispatch to the matching builder; hybrid returns a HybridModel."""
    if spec.kind == "Heat1D":
        return heat_model(spec)
    if spec.kind == "Wave1D":
        return wave_model(spec)
    if spec.kind == "Beam1D":
        return beam_model(spec)
    return transport_heat_model(spec)
