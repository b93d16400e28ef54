"""Feedback laws and their settling-time bound formulas.

Four laws over a common dead-zone convention (the singular term switches off
when its trigger falls below eps_dz, standing in for the exact indicator of
the observable set):

- BilinearPhi:  u = -(V^-mu + phi(Py)),          V = <B Py, Py>,  0 < mu < 1/2
- BilinearGrad: u = -(V^-mu + <APy,BPy>/||BPy||^2), capped at u_max, 0 < mu < 1
- LinearPhi:    v = -(w/||w||^(2 mu) + phi(Py) w),  w = L* Py,    0 < mu < 1/2
- RankOne:      v = -(s|s|^(-2 mu) + <Py,A* zeta>/||zeta||^2) varpi, s = <Py,zeta>
- ZeroControl:  free flow reference
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import kernels
from .decomposition import NOT_NILPOTENT, DecompositionResult, _effective_control_matrix
from .model import ModalModel, ModelError

VARIANTS = ("ZeroControl", "BilinearPhi", "BilinearGrad", "LinearPhi", "RankOne")

MU_RANGES = {
    "BilinearPhi": (0.0, 0.5),
    "LinearPhi": (0.0, 0.5),
    "RankOne": (0.0, 0.5),
    "BilinearGrad": (0.0, 1.0),
}

DEFAULT_DEAD_ZONE = 1e-12
DEFAULT_U_MAX = 1e6
DEFAULT_WAVE_CAP = 1e3


class _Unbounded:
    """Sentinel: no finite settling bound (unobservable component cannot die)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Unbounded"


UNBOUNDED = _Unbounded()


@dataclass(frozen=True)
class PhiSpec:
    """Compensation term: Zero, Constant(value), or WaveK(cap, q, half).

    WaveK is the capped coordinate-ratio max over the first q oscillator
    blocks, |position_i| / max(|velocity_i|, eps); half is the index offset
    of the velocity block.
    """

    kind: str = "Zero"
    value: float = 0.0
    cap: float = DEFAULT_WAVE_CAP
    q: int = 0
    half: int = 0

    def __post_init__(self):
        if self.kind not in ("Zero", "Constant", "WaveK"):
            raise ModelError(f"unknown phi kind: {self.kind}")
        if self.kind == "WaveK" and (self.q <= 0 or self.half <= 0):
            raise ModelError("WaveK requires positive q and half")


@dataclass(frozen=True)
class ControllerSpec:
    variant: str
    mu: float = 0.25
    phi: PhiSpec = PhiSpec()
    dead_zone: float = DEFAULT_DEAD_ZONE
    zeta: np.ndarray | None = None
    varpi: np.ndarray | None = None
    u_max: float = DEFAULT_U_MAX

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown controller variant: {self.variant}")
        if self.variant in MU_RANGES:
            lo, hi = MU_RANGES[self.variant]
            if not (lo < self.mu < hi):
                raise ModelError(f"{self.variant} requires mu in ({lo}, {hi})")
        if self.dead_zone <= 0:
            raise ModelError("dead_zone must be positive")
        if self.zeta is not None:
            object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.varpi is not None:
            object.__setattr__(self, "varpi", np.asarray(self.varpi, dtype=float))
        if self.variant == "RankOne":
            if self.zeta is None or self.varpi is None:
                raise ModelError("RankOne requires zeta and varpi")
            if float(np.linalg.norm(self.zeta)) == 0.0:
                raise ModelError("RankOne requires a nonzero zeta")


def validate_rank_one_data(spec: ControllerSpec, model: ModalModel) -> None:
    # the constraint L varpi = zeta ties the two vectors to the input map
    if model.input_map is None:
        raise ModelError("RankOne requires a model with an input_map")
    residual = float(np.linalg.norm(model.input_map @ spec.varpi - spec.zeta))
    if residual >= 1e-9:
        raise ModelError(f"RankOne data violates L varpi = zeta (residual {residual:.3e})")


@dataclass(frozen=True)
class KernelOps:
    """Constant operators of one law, assembled once per run for kernels.closed_loop_rhs.

    stack holds the rows of A over the law's own rows, so one mat-vec gives
    A y and every linear quantity the law reads from P y:

    - BilinearPhi, BilinearGrad, ZeroControl: Q = P* M B P (V = <y, Q y>), then B
      (not for ZeroControl); BilinearGrad adds the Gram form P* B* M B P and
      the pairing P* A* M B P.
    - LinearPhi: L* M P.
    - RankOne: (P* M zeta)^T and (P* A* M zeta)^T.
    - a WaveK phi appends the rows of P.
    """

    spec: ControllerSpec
    stack: np.ndarray
    input_map: np.ndarray | None
    width: int                 # control components (1 for bilinear laws)
    zeta_normsq: float = 1.0


def assemble_kernel_args(spec: ControllerSpec, model: ModalModel,
                         dec: DecompositionResult) -> KernelOps:
    """Fold the law's constant operators into one stacked matrix."""
    M = model.metric
    A = model.generator
    P = dec.projection
    L = model.input_map
    width = 1 if L is None else L.shape[1]
    zeta_normsq = 1.0
    if spec.variant == "RankOne":
        validate_rank_one_data(spec, model)
        m_zeta = M @ spec.zeta
        rows = [A, (P.T @ m_zeta)[None, :], (P.T @ (A.T @ m_zeta))[None, :]]
        width = spec.varpi.shape[0]
        zeta_normsq = float(spec.zeta @ m_zeta)
    elif spec.variant == "LinearPhi":
        if L is None:
            raise ModelError("LinearPhi requires a model with an input_map")
        rows = [A, L.T @ M @ P]
    else:
        if spec.variant != "ZeroControl" and model.control_op is None:
            raise ModelError(f"{spec.variant} requires a control operator")
        B = _effective_control_matrix(model)
        BP = B @ P
        rows = [A, P.T @ M @ BP]
        if spec.variant != "ZeroControl":
            rows.append(B)
        if spec.variant == "BilinearGrad":
            MBP = M @ BP
            rows += [BP.T @ MBP, P.T @ A.T @ MBP]
    if spec.variant in ("BilinearPhi", "LinearPhi") and spec.phi.kind == "WaveK":
        rows.append(P)
    return KernelOps(spec=spec, stack=np.vstack(rows), input_map=L, width=width,
                     zeta_normsq=zeta_normsq)


def control_value(spec: ControllerSpec, model: ModalModel, dec: DecompositionResult,
                  y: np.ndarray) -> np.ndarray:
    """Control at one state (always an m-vector; m = 1 for bilinear laws)."""
    if spec.variant == "ZeroControl":
        return np.zeros(1)
    y = np.asarray(y, dtype=float)
    if y.shape != (model.dim,):
        raise ModelError("state dimension mismatch")
    return kernels.closed_loop_rhs(y, assemble_kernel_args(spec, model, dec), False)[1]


def settling_bound(spec: ControllerSpec, model: ModalModel, dec: DecompositionResult,
                   y0: np.ndarray) -> float | _Unbounded | None:
    """Variant-specific settling-time bound, or Unbounded/None when not applicable."""
    bound, _ = settling_bound_details(spec, model, dec, y0)
    return bound


def settling_bound_details(spec: ControllerSpec, model: ModalModel,
                           dec: DecompositionResult, y0: np.ndarray):
    """Bound plus reporting extras (the rank-one law has two published formulas)."""
    if spec.variant == "ZeroControl":
        return None, {}
    y0 = np.asarray(y0, dtype=float)
    M = model.metric
    P = dec.projection
    y01 = P @ y0
    resid = y0 - y01
    resid_norm = float(np.sqrt(max(resid @ M @ resid, 0.0)))
    y0_norm = float(np.sqrt(max(y0 @ M @ y0, 0.0)))
    in_wperp = resid_norm <= 1e-12 * max(1.0, y0_norm)
    delta = dec.delta
    if delta is NOT_NILPOTENT or delta is None:
        if not in_wperp:
            return UNBOUNDED, {"reason": "unobservable component present, flow not nilpotent"}
        delta_val = 0.0
    else:
        delta_val = float(delta)
    mu = spec.mu
    extras: dict[str, Any] = {}
    if spec.variant in ("BilinearPhi", "BilinearGrad"):
        gamma = dec.gamma if dec.gamma is not None else 1.0
        Beff = _effective_control_matrix(model)
        V0 = float((Beff @ y01) @ M @ y01)
        V0 = max(V0, 0.0)
        t1 = V0 ** mu / (2.0 * gamma * mu)
        extras["t1"] = t1
        if spec.variant == "BilinearPhi":
            return max(t1, delta_val), extras
        return t1 + delta_val, extras
    if spec.variant == "LinearPhi":
        gamma = dec.gamma if dec.gamma is not None else 1.0
        w0 = model.input_map.T @ M @ y01
        t1 = float(np.linalg.norm(w0)) ** (2.0 * mu) / (2.0 * gamma * mu)
        extras["t1"] = t1
        return max(delta_val, t1), extras
    # RankOne: the proof's horizon; the looser published variant is reported too
    zeta = spec.zeta
    zn2 = float(zeta @ M @ zeta)
    s0 = abs(float(y01 @ M @ zeta))
    t1 = s0 ** (2.0 * mu) / (2.0 * mu * zn2)
    extras["t1"] = t1
    extras["t1_statement_form"] = s0 ** mu / (mu * zn2)
    return max(t1, delta_val), extras


def controller_from_json(doc: dict[str, Any]) -> ControllerSpec:
    if "variant" not in doc:
        raise ModelError("controller JSON requires 'variant'")
    phi_doc = doc.get("phi", {"kind": "Zero"})
    if isinstance(phi_doc, str):
        phi_doc = {"kind": phi_doc}
    phi = PhiSpec(kind=phi_doc.get("kind", "Zero"), value=float(phi_doc.get("value", 0.0)),
                  cap=float(phi_doc.get("cap", DEFAULT_WAVE_CAP)),
                  q=int(phi_doc.get("q", 0)), half=int(phi_doc.get("half", 0)))
    zeta = doc.get("zeta")
    varpi = doc.get("varpi")
    return ControllerSpec(
        variant=doc["variant"],
        mu=float(doc.get("mu", 0.25)),
        phi=phi,
        dead_zone=float(doc.get("dead_zone", DEFAULT_DEAD_ZONE)),
        zeta=None if zeta is None else np.asarray(zeta, dtype=float),
        varpi=None if varpi is None else np.asarray(varpi, dtype=float),
        u_max=float(doc.get("u_max", DEFAULT_U_MAX)),
    )


def controller_to_json(spec: ControllerSpec) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "variant": spec.variant,
        "mu": spec.mu,
        "phi": {"kind": spec.phi.kind, "value": spec.phi.value, "cap": spec.phi.cap,
                "q": spec.phi.q, "half": spec.phi.half},
        "dead_zone": spec.dead_zone,
        "u_max": spec.u_max,
    }
    if spec.zeta is not None:
        doc["zeta"] = spec.zeta.tolist()
    if spec.varpi is not None:
        doc["varpi"] = spec.varpi.tolist()
    return doc
