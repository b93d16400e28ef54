"""Closed-loop integration, settling detection, and trajectory verification.

The adaptive stepper lives in kernels.py; this module assembles its inputs,
interprets its outputs (settling time, dead-zone latch diagnostics), and
provides the three trajectory checks: the comparison-principle decay
envelope, the free/forced evolution of the unobservable component, and the
pre-settling Lyapunov stability bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import kernels
from .controllers import ControllerSpec, assemble_kernel_args
from .decomposition import (DecompositionResult, _effective_control_matrix,
                            _metric_normsq, _metric_orthonormalize)
from .model import CheckReport, ModalModel, ModelError


@dataclass(frozen=True)
class IntegrationOpts:
    t_max: float
    rtol: float = 1e-10
    atol: float = 1e-13
    dt_init: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float = 0.05
    eps_settle: float = 1e-8
    sample_dt: float | None = None  # defaults to t_max / 2000

    def __post_init__(self):
        if self.t_max <= 0:
            raise ModelError("t_max must be positive")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ModelError("need 0 < dt_min <= dt_init <= dt_max")
        if self.rtol <= 0 or self.atol <= 0:
            raise ModelError("tolerances must be positive")
        if self.sample_dt is None:
            object.__setattr__(self, "sample_dt", self.t_max / 2000.0)
        if self.sample_dt <= 0:
            raise ModelError("sample_dt must be positive")


@dataclass
class Trajectory:
    times: np.ndarray           # (ns,), strictly increasing
    states: np.ndarray          # (ns, n)
    controls: np.ndarray        # (ns, m); m = 1 for bilinear laws
    lyapunov: np.ndarray        # (ns,)
    norms: np.ndarray           # (ns,), metric norms of the states
    settling_time: float | None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.controls)
                == len(self.lyapunov) == len(self.norms)):
            raise ModelError("trajectory arrays must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ModelError("trajectory times must be strictly increasing")
        if np.any(self.lyapunov < -1e-12):
            raise ModelError("Lyapunov values must be nonnegative")


class IntegrationStalledError(RuntimeError):
    """Step size hit dt_min with a failing error estimate; carries the partial run."""

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def clamp_projector(model: ModalModel, dec: DecompositionResult) -> np.ndarray:
    """Metric-orthoprojector onto the component the dead zone asserts is zero.

    That is range(B P), with B = L L* for input-map models.  Clamping
    y -> y - Cy zeroes exactly B P y, nothing more, so a premature latch
    shows up as regrowth instead of being hidden.
    """
    cols = _effective_control_matrix(model) @ dec.projection
    u, sv, _ = np.linalg.svd(cols)
    rank = int(np.sum(sv > 1e-12 * max(sv[0] if sv.size else 1.0, 1.0)))
    basis = _metric_orthonormalize(u[:, :rank], model.metric)
    return basis @ (basis.T @ model.metric)


# largest 1-norms for which the [m/m] Pade approximant of exp is accurate to
# double precision (Higham 2005, SIAM J. Matrix Anal. Appl. 26, Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005, Algorithm 2.3).

    The lowest Pade degree m whose theta_m bounds ||A||_1 is used unscaled;
    beyond theta_13, A is halved s times to within it, and the [13/13]
    approximant is squared s times.
    """
    norm1 = np.linalg.norm(A, 1)
    s = 0
    for m, theta in _PADE_THETA:
        if norm1 <= theta:
            break
    else:
        s = max(0, math.ceil(math.log2(norm1 / theta)))
        A = A / 2.0 ** s
    # [m/m] coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!), split into
    # the odd part U = A sum b_{2i+1} A^{2i} and the even part V = sum b_{2i} A^{2i}
    b = [math.factorial(2 * m - j) * math.factorial(m)
         / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    power = np.eye(A.shape[0])
    A2 = A @ A
    odd = b[1] * power
    even = b[0] * power
    for i in range(1, m // 2 + 1):
        power = power @ A2
        odd += b[2 * i + 1] * power
        even += b[2 * i] * power
    U = A @ odd
    E = np.linalg.solve(even - U, even + U)
    for _ in range(s):
        E = E @ E
    return E


def _sample_grid(opts: IntegrationOpts) -> np.ndarray:
    ns = max(int(np.ceil(opts.t_max / opts.sample_dt - 1e-9)), 1) + 1
    return np.linspace(0.0, opts.t_max, ns)


def simulate(model: ModalModel, dec: DecompositionResult, spec: ControllerSpec,
             y0: np.ndarray, opts: IntegrationOpts) -> Trajectory:
    """Integrate the closed loop over [0, t_max], recording on the sample grid."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise ModelError("initial state dimension mismatch")
    ops = assemble_kernel_args(spec, model, dec)
    C = clamp_projector(model, dec)
    if spec.variant == "RankOne":
        gamma_eff = ops.zeta_normsq
        trig_exp = 2.0 * spec.mu
    else:
        gamma_eff = dec.gamma if dec.gamma is not None else 1.0
        trig_exp = spec.mu
    sample_ts = _sample_grid(opts)
    ys, us, Vs, status, reached, diagnostics = kernels.integrate_adaptive(
        y0, sample_ts, ops, C, gamma_eff, trig_exp, opts)
    end = reached + 1
    norms = np.sqrt(np.maximum(_metric_normsq(ys[:end], model.metric), 0.0))
    traj = Trajectory(
        times=sample_ts[:end], states=ys[:end], controls=us[:end],
        lyapunov=np.maximum(Vs[:end], 0.0), norms=norms,
        settling_time=_settling_time(sample_ts[:end], norms, opts.eps_settle),
        diagnostics=diagnostics,
    )
    if status == kernels.STATUS_STALLED:
        raise IntegrationStalledError(
            f"integration stalled at t = {sample_ts[reached]:.6g} (dt_min reached)", traj)
    return traj


def _settling_time(times: np.ndarray, norms: np.ndarray, eps_settle: float) -> float | None:
    above = np.nonzero(norms > eps_settle)[0]
    if above.size == 0:
        return float(times[0])
    idx = above[-1] + 1
    if idx >= len(times):
        return None
    return float(times[idx])


def _pre_settling_mask(traj: Trajectory) -> np.ndarray:
    if traj.settling_time is None:
        return np.ones(len(traj.times), dtype=bool)
    return traj.times <= traj.settling_time + 1e-15


def decay_envelope(v0: float, gamma: float, mu: float, times: np.ndarray) -> np.ndarray:
    """Comparison-principle bound on V(t)^mu: max(V(0)^mu - 2 gamma mu t, 0)."""
    return np.maximum(max(v0, 0.0) ** mu - 2.0 * gamma * mu * times, 0.0)


def verify_decay(traj: Trajectory, gamma: float, mu: float,
                 tol_decay: float = 1e-6) -> CheckReport:
    """Comparison-principle envelope: V(t)^mu <= max(V(0)^mu - 2 gamma mu t, 0) + tol."""
    mask = _pre_settling_mask(traj)
    V = traj.lyapunov[mask]
    t = traj.times[mask]
    envelope = decay_envelope(V[0], gamma, mu, t)
    deviation = V ** mu - envelope
    max_violation = float(np.max(deviation - tol_decay))
    worst_index = int(np.argmax(deviation))
    positive_t = t > 0
    strict_margin = float(np.min(-deviation[positive_t])) if np.any(positive_t) else 0.0
    return CheckReport(
        "decay_envelope",
        max_violation <= 0.0,
        {"max_violation": max_violation, "worst_sample": worst_index,
         "strict_margin_after_zero": strict_margin, "tol_decay": tol_decay},
    )


def verify_split(model: ModalModel, dec: DecompositionResult, traj: Trajectory,
                 forced: bool = False, tol_split: float = 1e-8,
                 split_constant: float = 100.0) -> CheckReport:
    """Evolution of the unobservable component along the recorded trajectory.

    Free laws: (I-P) y(t) must equal expm(tA) (I-P) y0.  Gradient-compensated
    runs (forced=True) satisfy a variation-of-constants identity instead,
    checked by trapezoidal quadrature with tolerance ~ sample_dt^2.
    """
    if dec.h1_holds is False:
        return CheckReport("split", True, {"applicable": False, "reason": "H1 not certified"})
    P = dec.projection
    M = model.metric
    IP = np.eye(model.dim) - P
    ns = len(traj.times)
    dt = float(traj.times[1] - traj.times[0]) if ns > 1 else 0.0
    E = expm(model.generator * dt)
    # the reference path: z_0 = (I-P) y0, then one exact step per sample
    zs = np.empty_like(traj.states)
    zs[0] = IP @ traj.states[0]
    if not forced:
        for i in range(1, ns):
            zs[i] = E @ zs[i - 1]
        scale = max(1.0, float(np.sqrt(max(traj.states[0] @ M @ traj.states[0], 0.0))))
        tol = tol_split * scale
    else:
        forcing = traj.states @ (IP @ model.generator @ P).T   # row i: (I-P) A P y_i
        peak = float(np.sqrt(max(np.max(_metric_normsq(forcing, M)), 0.0)))
        kicks = 0.5 * dt * (forcing[:-1] @ E.T + forcing[1:])
        for i in range(1, ns):
            zs[i] = E @ zs[i - 1] + kicks[i - 1]
        tol = split_constant * dt * dt * max(1.0, peak)
    zs -= traj.states @ IP.T   # in place: minus the deviation, one (ns, n) array fewer
    worst = float(np.sqrt(max(np.max(_metric_normsq(zs, M)), 0.0)))
    return CheckReport("split", worst <= tol,
                       {"max_deviation": worst, "tolerance": tol, "forced": forced})


def verify_lyapunov_stability(traj: Trajectory, omega: float) -> CheckReport:
    """Pre-settling bound ||y(t)|| <= ||y0|| e^{max(omega,0) t / 2} (1 + 1e-9)."""
    mask = _pre_settling_mask(traj)
    t = traj.times[mask]
    norms = traj.norms[mask]
    bound = norms[0] * np.exp(max(omega, 0.0) * t / 2.0) * (1.0 + 1e-9)
    excess = norms - bound
    max_excess = float(np.max(excess)) if len(excess) else 0.0
    return CheckReport("lyapunov_stability", max_excess <= 0.0,
                       {"max_excess": max_excess, "omega": omega})
