"""Model builders for the four worked examples.

- heat: 1-D Dirichlet heat equation, modal truncation, B = I - e1 e1^T.
- wave: 1-D wave equation in first-order modal form, velocity damping on the
  first q modes; energy-normalized coordinates make the metric the identity.
- beam: 1-D beam in first-order modal form with a rank-one input profile h.
- transport_heat: 2-D heat modes coupled with a grid transport component that
  exits the domain in finite time (exact characteristic shift).

All single-field builders return a FrontendBundle whose decomposition is the
exact axis-aligned one (identity metric, 0/1 mask projector) so that control
invariance under adding unobservable components holds bit-for-bit.  They
supply only the axes of W: gamma is read from the model's control-operator
spectrum by decomposition.compute_gamma, as for raw matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .controllers import ControllerSpec, DEFAULT_WAVE_CAP, PhiSpec
from .decomposition import DecompositionResult, decomposition_from_axes
from .integrator import DECAY_TOL, Trajectory, _pre_settling_mask, _settling_time, decay_envelope
from .kernels import dead_zone_rule, settling_time
from .model import CheckReport, ModalModel, ModelError, _float_array, _is_int, check_state_dim

MAX_GRID_N = 1024   # transport cells per axis: a grid of 8 MB per stored psi


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
        for name in ("n_modes", "q", "grid_n"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if self.grid_n > MAX_GRID_N:
            raise ModelError(f"grid_n must be at most {MAX_GRID_N}, got {self.grid_n}")
        if self.n_modes <= 0:
            raise ModelError("n_modes must be positive")
        # heat keeps n modes, wave and beam a position and a velocity each, the hybrid n^2
        per_mode = {"Heat1D": 1, "TransportHeat2D": self.n_modes}.get(self.kind, 2)
        check_state_dim(per_mode * self.n_modes, f"{self.kind} n_modes {self.n_modes}")


@dataclass
class FrontendBundle:
    model: ModalModel
    dec: DecompositionResult
    phi: PhiSpec
    w_axes: tuple[int, ...]
    info: dict[str, Any] = field(default_factory=dict)


def heat_model(spec: FrontendSpec) -> FrontendBundle:
    """Diagonal decay -(j pi)^2 with the first mode unobservable."""
    n = spec.n_modes
    if n < 2:
        raise ModelError("heat model needs at least 2 modes")
    lam = -(np.pi * np.arange(1, n + 1)) ** 2
    B = np.eye(n)
    B[0, 0] = 0.0
    model = ModalModel(dim=n, metric=np.eye(n), generator=np.diag(lam), control_op=B,
                       basis_labels=tuple(f"mode{j}" for j in range(1, n + 1)))
    return FrontendBundle(model=model, dec=decomposition_from_axes(model, (0,)),
                          phi=PhiSpec("Zero"), w_axes=(0,))


def _rotation_pairs(om: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Generator of n oscillators at frequencies om, positions first, and its labels."""
    n = om.shape[0]
    j = np.arange(n)
    A = np.zeros((2 * n, 2 * n))
    A[j, n + j], A[n + j, j] = om, -om
    labels = tuple(f"pos{j}" for j in range(1, n + 1)) + tuple(f"vel{j}" for j in range(1, n + 1))
    return A, labels


def wave_model(spec: FrontendSpec) -> FrontendBundle:
    """Block-rotation modes (frequency j pi) with velocity damping on modes 1..q."""
    n = spec.n_modes
    q = spec.q
    if not (1 <= q <= n):
        raise ModelError("wave model requires 1 <= q <= n_modes")
    A, labels = _rotation_pairs(np.pi * np.arange(1, n + 1))
    B = np.zeros((2 * n, 2 * n))
    for i in range(q):
        B[n + i, n + i] = 1.0
    model = ModalModel(dim=2 * n, metric=np.eye(2 * n), generator=A, control_op=B,
                       basis_labels=labels)
    w_axes = tuple(range(q, n)) + tuple(range(n + q, 2 * n))
    phi = PhiSpec("WaveK", cap=DEFAULT_WAVE_CAP, q=q, half=n)
    return FrontendBundle(model=model, dec=decomposition_from_axes(model, w_axes), phi=phi,
                          w_axes=w_axes)


def beam_model(spec: FrontendSpec) -> FrontendBundle:
    """Block-rotation modes (frequency (j pi)^2) driven through the profile h.

    Returns the rank-one data (zeta = input direction, varpi = 1) in info.
    """
    n = spec.n_modes
    h = np.zeros(n)
    coeffs = _float_array(spec.h_coeffs if spec.h_coeffs else (1.0,), "h_coeffs")
    if coeffs.shape[0] > n:
        raise ModelError("h_coeffs longer than n_modes")
    if float(np.linalg.norm(coeffs)) == 0.0:
        raise ModelError("profile h must be nonzero")
    h[: coeffs.shape[0]] = coeffs
    A, labels = _rotation_pairs((np.pi * np.arange(1, n + 1)) ** 2)
    L = np.zeros((2 * n, 1))
    L[n:, 0] = h
    model = ModalModel(dim=2 * n, metric=np.eye(2 * n), generator=A, input_map=L,
                       basis_labels=labels)
    zeta = np.zeros(2 * n)
    zeta[n:] = h
    varpi = np.ones(1)
    # distinct frequencies make each driven mode pair observable, so the
    # unobservable part is exactly the span of the undriven mode-pair axes
    off = [j for j in range(n) if h[j] == 0.0]
    w_axes = tuple(off) + tuple(n + j for j in off)
    return FrontendBundle(model=model, dec=decomposition_from_axes(model, w_axes),
                          phi=PhiSpec("Zero"), w_axes=w_axes, info={"zeta": zeta, "varpi": varpi})


# ---------------------------------------------------------------------------
# Coupled transport-heat hybrid


@dataclass(frozen=True)
class HybridModel:
    n_modes: int
    grid_n: int
    eigenvalues: np.ndarray     # (n_modes, n_modes), -(j^2+k^2) pi^2
    n_omega: int                # cells per axis inside the control patch
    delta: float                # exit horizon of the transport component

    @property
    def dt_macro(self) -> float:
        return 1.0 / self.grid_n


@dataclass
class HybridState:
    c: np.ndarray    # (n_modes, n_modes) heat modal coefficients
    psi: np.ndarray  # (grid_n, grid_n) transport samples at cell centers

    def copy(self) -> "HybridState":
        return HybridState(self.c.copy(), self.psi.copy())


def transport_heat_model(spec: FrontendSpec) -> HybridModel:
    """2-D Neumann cosine modes (including the constant mode) plus a transport grid."""
    if spec.grid_n <= 0:
        raise ModelError("transport model requires grid_n > 0")
    if not (0.0 < spec.omega_h < 1.0):
        raise ModelError("omega_h must lie in (0, 1)")
    n_omega_f = spec.omega_h * spec.grid_n
    n_omega = int(round(n_omega_f))
    if abs(n_omega_f - n_omega) > 1e-9:
        raise ModelError("omega_h must be a multiple of 1/grid_n")
    if n_omega < 1:
        raise ModelError("omega_h must be at least one cell (1/grid_n)")
    nm = spec.n_modes
    jj, kk = np.meshgrid(np.arange(nm), np.arange(nm), indexing="ij")
    lam = -(jj.astype(float) ** 2 + kk.astype(float) ** 2) * np.pi ** 2
    # a shift of one cell per macro step of 1/grid_n empties the grid after
    # exactly grid_n steps, at t = 1
    return HybridModel(n_modes=nm, grid_n=spec.grid_n, eigenvalues=lam, n_omega=n_omega,
                       delta=1.0)


def transport_step(model: HybridModel, psi: np.ndarray, u: float) -> np.ndarray:
    """One macro step of the exact characteristic shift along (1,1), with in-patch damping.

    The step is the grid spacing, so the shift is cell-exact; the damping
    factor holds the control value u over the step.  Cells whose
    characteristic originates outside the domain are set to zero.
    """
    out = np.zeros_like(psi)
    out[1:, 1:] = psi[:-1, :-1]
    if u != 0.0:
        # characteristic midpoints of destination cells (i, j) sit at (i/G, j/G),
        # strictly inside the patch for 1 <= i, j <= n_omega - 1
        n = model.n_omega
        out[1:n, 1:n] *= np.exp(u * model.dt_macro)
    return out


def hybrid_v(model: HybridModel, state: HybridState) -> float:
    k = model.n_omega
    vw = float(np.sum(state.psi[:k, :k] ** 2)) / model.grid_n ** 2
    return float(np.sum(state.c ** 2)) + vw


HYBRID_RATE = 1.0   # the hybrid law's r: under u = -V^-mu, V^mu falls at least at 2 mu


def check_hybrid_law(spec: ControllerSpec) -> None:
    """Refuse a law the splitter cannot apply. It applies BilinearPhi (hybrid_law) or
    ZeroControl, each with no phi."""
    if spec.variant not in ("BilinearPhi", "ZeroControl") or spec.phi.kind != "Zero":
        raise ModelError("the transport-heat front-end supports BilinearPhi (u = -V^-mu) or "
                         f"ZeroControl with no phi, not {spec.variant} with a {spec.phi.kind} phi")


def hybrid_law(V: float, spec: ControllerSpec, latched: bool = False) -> float:
    """The hybrid's control u = -V^-mu, off once latched and inside the dead zone."""
    return -(V ** (-spec.mu)) if V > spec.dead_zone and not latched else 0.0


@dataclass(kw_only=True)
class HybridTrajectory(Trajectory):
    """Heat modal coefficients as states, norms over heat and grid, plus the final grid."""
    psi_norms: np.ndarray       # (ns,)
    psi_final: np.ndarray


def simulate_hybrid(model: HybridModel, spec: ControllerSpec, y0: HybridState,
                    t_max: float, eps_settle: float = 1e-8) -> HybridTrajectory:
    """Frozen-control splitting: exact heat exponential + exact transport shift.

    Each step applies hybrid_law.  The dead zone follows the adaptive
    integrator's kernels.dead_zone_rule at each macro step: the control
    latches off once V falls to the dead zone, and the observed part (all
    heat modes plus the in-patch transport samples) is clamped to zero when
    settling_time(V) at HYBRID_RATE fits in one step.  A step-end V is also
    the next step's V: a clamp comes only with the latch, after which no step
    reads V.  Each sample takes one sum of psi^2, from which psi_norms =
    sqrt(sum psi^2) / G and norms = sqrt(sum c^2 + sum psi^2 / G^2) are
    formed once the run ends.
    """
    check_hybrid_law(spec)
    dt = model.dt_macro
    n_steps = int(np.ceil(t_max / dt - 1e-9))
    controlled = spec.variant != "ZeroControl"
    latch_time = None
    clamp_time = None
    regrow = False
    k = model.n_omega
    state = y0.copy()
    V = hybrid_v(model, state)
    # (t, heat coefficients, sum psi^2, V, u) per macro step end
    rows = [(0.0, state.c.ravel().copy(), float(np.sum(state.psi ** 2)), V, 0.0)]
    for step in range(n_steps):
        u = hybrid_law(V, spec, latch_time is not None) if controlled else 0.0
        state = HybridState(
            c=state.c * np.exp((model.eigenvalues + u) * dt),
            psi=transport_step(model, state.psi, u),
        )
        t = (step + 1) * dt
        V = hybrid_v(model, state)
        if controlled:
            latch_now, clamp_now, regrown = dead_zone_rule(
                V, settling_time(V, HYBRID_RATE, spec.mu), latch_time is not None,
                clamp_time is not None, dt, spec.dead_zone)
            if latch_now:
                latch_time = t
            if clamp_now:
                state.c[:] = 0.0
                state.psi[:k, :k] = 0.0
                clamp_time = t
            regrow = regrow or regrown
        rows.append((t, state.c.ravel().copy(), float(np.sum(state.psi ** 2)), V, u))
    times, heat, psi_sq, Vs, us = (np.asarray(col) for col in zip(*rows))
    norms = np.sqrt(np.sum(heat ** 2, axis=1) + psi_sq / model.grid_n ** 2)
    return HybridTrajectory(
        times=times, states=heat, psi_norms=np.sqrt(psi_sq) / model.grid_n,
        controls=us.reshape(-1, 1), lyapunov=Vs, norms=norms,
        settling_time=_settling_time(times, norms, eps_settle),
        psi_final=state.psi.copy(),
        diagnostics={"latch_time": latch_time, "clamp_time": clamp_time,
                     "dead_zone_regrow": regrow, "steps": n_steps},
    )


def hybrid_decay_check(model: HybridModel, traj: HybridTrajectory, mu: float,
                       dead_zone: float):
    """Decay envelope for the macro-stepped loop, with the splitting allowance.

    Freezing the control over a step of length dt loses at most
    mu * dt * log(V(0)^mu / V(t)^mu) of envelope headroom (one-step excess
    ~ (V^mu)'' dt^2 / 2 summed along the run), so the check is
    V(t)^mu <= decay_envelope(t) + allowance(t) + DECAY_TOL, with the
    envelope max(V(0)^mu - 2 r mu t, 0) at the rate HYBRID_RATE.
    """
    mask = _pre_settling_mask(traj)
    t = traj.times[mask]
    V = traj.lyapunov[mask]
    floor = dead_zone ** mu
    Vm = np.maximum(V, 0.0) ** mu
    allowance = mu * model.dt_macro * np.log(np.maximum(Vm[0], floor) / np.maximum(Vm, floor))
    excess = Vm - decay_envelope(V[0], HYBRID_RATE, mu, t) - allowance
    worst = float(np.max(excess))
    return CheckReport("decay_envelope", worst <= DECAY_TOL,
                       {"max_violation": worst, "allowance_final": float(allowance[-1]),
                        "splitting_dt": model.dt_macro})


def hybrid_split_check(model: HybridModel, y0: HybridState,
                       traj: HybridTrajectory) -> CheckReport:
    """Cells never damped by the control must follow the pure shift exactly.

    After S macro steps the free shift is one slice, free[S:, S:] =
    psi0[:G-S, :G-S] (zero once S >= G).  The patch [1:n_omega]^2 damped at a
    controlled step k and the block [0:n_omega]^2 zeroed by the clamp at step
    k have since moved S - k cells along (1,1); every other cell of the final
    grid must equal the free shift bitwise.
    """
    G, n = model.grid_n, model.n_omega
    S = len(traj.times) - 1
    free = np.zeros_like(y0.psi)
    if S < G:
        free[S:, S:] = y0.psi[:G - S, :G - S]
    touched = np.zeros((G, G), dtype=bool)
    for k in np.flatnonzero(traj.controls[1:, 0] != 0.0) + 1:
        m = S - k
        touched[1 + m:n + m, 1 + m:n + m] = True
    if traj.diagnostics.get("clamp_time") is not None:
        m = S - int(round(traj.diagnostics["clamp_time"] / model.dt_macro))
        touched[m:n + m, m:n + m] = True
    return CheckReport("split_free_flow",
                       bool(np.array_equal(free[~touched], traj.psi_final[~touched])),
                       {"comparison": "undamped cells vs exact shift"})


def build_frontend(spec: FrontendSpec):
    """Dispatch to the matching builder; hybrid returns a HybridModel."""
    if spec.kind == "Heat1D":
        return heat_model(spec)
    if spec.kind == "Wave1D":
        return wave_model(spec)
    if spec.kind == "Beam1D":
        return beam_model(spec)
    return transport_heat_model(spec)
