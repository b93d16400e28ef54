"""Closed-loop integration, settling detection, and trajectory verification.

The adaptive stepper lives in kernels.py; this module assembles its inputs,
interprets its outputs (settling time, dead-zone latch diagnostics), and
provides the three trajectory checks: the comparison-principle decay
envelope at the law's rate r (KernelOps.rate), the free evolution of
the unobservable component, and the pre-settling Lyapunov stability bound.
A run with no law (ZeroControl) is the linear flow y' = Ay, which free_flow
samples exactly instead of stepping.  Where H1 holds, W and W_perp are both
A-invariant, so that flow splits as the paper's decomposition does: each
nonzero part of y0 flows in its own metric-orthonormal coordinates, and an
exponential is formed only of the (dim W_perp)- and (dim W)-square blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import kernels
from .controllers import KernelOps
from .decomposition import DecompositionResult, _metric_normsq, _metric_orthonormalize
from .model import CheckReport, ModalModel, ModelError, _effective_control_matrix

DECAY_TOL = 1e-6    # allowed excess of V(t)^mu over its decay envelope
SPLIT_TOL = 1e-8    # allowed deviation of (I-P) y(t), relative to max(1, ||y0||)
MAX_SAMPLES = 10**6  # sample intervals t_max / sample_dt of one run
MAX_STEPS = 10**7    # least step count t_max / dt_max that a run may ask of the stepper


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
        if not 0 < self.t_max < math.inf:
            raise ModelError("t_max must be positive and finite")
        if not self.eps_settle >= 0:
            raise ModelError("eps_settle must be nonnegative")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ModelError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.rtol > 0 and self.atol > 0):
            raise ModelError("tolerances must be positive")
        if self.sample_dt is None:
            object.__setattr__(self, "sample_dt", self.t_max / 2000.0)
        if not self.sample_dt > 0:
            raise ModelError("sample_dt must be positive")
        intervals = self.t_max / self.sample_dt   # refused before a grid is allocated
        if not intervals <= MAX_SAMPLES:
            raise ModelError(f"t_max {self.t_max:g} at sample step {self.sample_dt:g} needs "
                             f"{intervals:.3g} samples, more than the limit of {MAX_SAMPLES}")
        steps = self.t_max / self.dt_max
        if not steps <= MAX_STEPS:
            raise ModelError(f"t_max {self.t_max:g} at dt_max {self.dt_max:g} needs at least "
                             f"{steps:.3g} steps, more than the limit of {MAX_STEPS}")


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


def free_flow(A: np.ndarray, dt: float, y0: np.ndarray, ns: int) -> np.ndarray:
    """Samples y_k = e^{k dt A} y0 for k < ns: one exponential E = e^{dt A}, then
    y_k = E y_{k-1}, exact up to the roundoff of E and of the products."""
    E = expm(A * dt)
    ys = np.empty((ns, y0.shape[0]))
    ys[0] = y0
    for i in range(1, ns):
        ys[i] = E @ ys[i - 1]
    return ys


def _split_free_flow(model: ModalModel, dec: DecompositionResult, dt: float, y0: np.ndarray,
                    ns: int) -> np.ndarray:
    """free_flow of y' = Ay from y0 on W_perp and on W apart, for A-invariant W and W_perp.

    A part with basis Q (metric-orthonormal columns) has the coordinates
    c0 = Q* M y0 and the generator A_r = Q* M A Q, so it samples as
    free_flow(A_r, dt, c0, ns) Q*.  An exactly zero part is skipped; the
    first sample is y0 itself.
    """
    A, M = model.generator, model.metric
    ys = np.zeros((ns, model.dim))
    for Q in (dec.wperp_basis, dec.w_basis):
        MQ = Q if model.identity_metric else M @ Q
        c0 = y0 @ MQ
        if c0.any():
            ys += free_flow(MQ.T @ (A @ Q), dt, c0, ns) @ Q.T
    ys[0] = y0
    return ys


# the stepper's counters for a run that takes no step
_NO_STEPS = {"steps": 0, "rejections": 0, "rhs_calls": 0, "dt_min_accepted": None,
             "dt_max_accepted": None, "saturation_events": 0, "v_increase_events": 0,
             "latch_time": None, "clamp_time": None, "dead_zone_regrow": False}


def _sample_grid(opts: IntegrationOpts) -> np.ndarray:
    ns = max(int(np.ceil(opts.t_max / opts.sample_dt - 1e-9)), 1) + 1
    return np.linspace(0.0, opts.t_max, ns)


def simulate(model: ModalModel, dec: DecompositionResult, ops: KernelOps,
             y0: np.ndarray, opts: IntegrationOpts, h1_holds: bool = False) -> Trajectory:
    """Integrate the closed loop of the law bundle ops over [0, t_max], on the sample grid.

    Samples between step ends come from the stepper's dense output
    (kernels.integrate_adaptive).  ZeroControl has no law, so its closed loop
    is y' = Ay: free_flow samples it exactly, split into its W_perp and W
    parts (_split_free_flow) when h1_holds, the verdict of the run's H1 report,
    says both are A-invariant and neither is the whole space.  Such a run
    takes no step, so it cannot stall, and its diagnostics count zero steps,
    rejections and RHS calls, with no dt range.  Either way every recorded
    sample takes its control and V from one kernels.fill_law call over the
    sampled states.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise ModelError("initial state dimension mismatch")
    sample_ts = _sample_grid(opts)
    if ops.spec.variant == "ZeroControl":
        ns = sample_ts.shape[0]
        dt = float(sample_ts[1] - sample_ts[0])
        if h1_holds and dec.dim_w and dec.dim_wperp:
            ys = _split_free_flow(model, dec, dt, y0, ns)
        else:
            ys = free_flow(model.generator, dt, y0, ns)
        latch_from, status, reached, diagnostics = ns, kernels.STATUS_OK, ns - 1, dict(_NO_STEPS)
    else:
        ys, latch_from, status, reached, diagnostics = kernels.integrate_adaptive(
            y0, sample_ts, ops, clamp_projector(model, dec), opts)
    times, ys = sample_ts[:reached + 1], ys[:reached + 1]
    us, Vs = kernels.fill_law(ys, ops, latch_from)
    norms = np.sqrt(np.maximum(_metric_normsq(ys, model), 0.0))
    traj = Trajectory(
        times=times, states=ys, controls=us, lyapunov=np.maximum(Vs, 0.0), norms=norms,
        settling_time=_settling_time(times, norms, opts.eps_settle),
        diagnostics=diagnostics,
    )
    if status == kernels.STATUS_STALLED:
        raise IntegrationStalledError(
            f"integration stalled at t = {sample_ts[reached]:.6g} (dt_min reached)", traj)
    return traj


def _settling_time(times: np.ndarray, norms: np.ndarray, eps_settle: float) -> float | None:
    above = np.nonzero(~(norms <= eps_settle))[0]   # a NaN norm has not settled
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


def decay_envelope(v0: float, rate: float, mu: float, times: np.ndarray) -> np.ndarray:
    """Comparison-principle bound on V(t)^mu: max(V(0)^mu - 2 r mu t, 0)."""
    return np.maximum(max(v0, 0.0) ** mu - 2.0 * rate * mu * times, 0.0)


def verify_decay(traj: Trajectory, rate: float, mu: float, v_dead_zone: float) -> CheckReport:
    """Comparison-principle envelope: V(t)^mu <= max(V(0)^mu - 2 r mu t, 0) + DECAY_TOL.

    From the latch on the law is off, so V may rest up to the dead zone's
    level: there the bound is max(envelope, v_dead_zone^mu).
    """
    mask = _pre_settling_mask(traj)
    V = traj.lyapunov[mask]
    t = traj.times[mask]
    envelope = decay_envelope(V[0], rate, mu, t)
    latch_time = traj.diagnostics.get("latch_time")
    if latch_time is not None:
        np.maximum(envelope, v_dead_zone ** mu, out=envelope, where=t >= latch_time)
    deviation = V ** mu - envelope
    max_violation = float(np.max(deviation - DECAY_TOL))
    worst_index = int(np.argmax(deviation))
    positive_t = t > 0
    strict_margin = float(np.min(-deviation[positive_t])) if np.any(positive_t) else 0.0
    return CheckReport(
        "decay_envelope",
        max_violation <= 0.0,
        {"max_violation": max_violation, "worst_sample": worst_index,
         "strict_margin_after_zero": strict_margin, "tol_decay": DECAY_TOL},
    )


def verify_split(model: ModalModel, dec: DecompositionResult, traj: Trajectory) -> CheckReport:
    """Free evolution of the unobservable component along the recorded trajectory.

    (I-P) y(t) must equal expm(tA) (I-P) y0, which free_flow samples on the
    trajectory's grid, as it samples a law-free run.  Under H1, (I-P) A P = 0
    and the control enters through range(B) or range(L) inside W_perp, so the
    control never forces the unobservable component; callers skip the check
    when H1 fails.  The reference path is the full-space free_flow, never the
    split one a law-free run samples, so it checks that split too.  A run
    started in W_perp, (I-P) y0 = 0 exactly, has the zero reference path: no
    exponential is formed, and ||(I-P) y|| is the Euclidean norm of y's W
    coordinates w_basis* M y.
    """
    M = model.metric
    IP = np.eye(model.dim) - dec.projection
    ns = len(traj.times)
    tol = SPLIT_TOL * max(1.0, float(np.sqrt(max(traj.states[0] @ M @ traj.states[0], 0.0))))
    z0 = IP @ traj.states[0]
    if z0.any():
        # the reference path: z_0 = (I-P) y0, then one exact step per sample
        dt = float(traj.times[1] - traj.times[0]) if ns > 1 else 0.0
        zs = free_flow(model.generator, dt, z0, ns)
        zs -= traj.states @ IP.T   # in place: minus the deviation, one (ns, n) array fewer
        normsq = _metric_normsq(zs, model)
    else:
        W = dec.w_basis
        cs = traj.states @ (W if model.identity_metric else M @ W)
        normsq = np.einsum("ij,ij->i", cs, cs)
    worst = float(np.sqrt(max(np.max(normsq), 0.0)))
    return CheckReport("split", worst <= tol,
                       {"max_deviation": worst, "tolerance": tol})


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
