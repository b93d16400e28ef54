"""Feedback laws, their decay rates and their settling-time bound.

Four laws over a common dead-zone convention (the singular term switches off
when its trigger falls below eps_dz, standing in for the exact indicator of
the observable set):

- BilinearPhi:  u = -(V^-mu + phi(Py)),          V = <B Py, Py>,  0 < mu < 1/2
- BilinearGrad: u = -(V^-mu + <APy,BPy>/||BPy||^2), capped at u_max, 0 < mu < 1
- LinearPhi:    v = -(w/||w||^(2 mu) + phi(Py) w),  w = L* Py,    0 < mu < 1/2
- RankOne:      v = -(s|s|^(-2 mu) + <Py,A* zeta>/||zeta||^2) varpi, s = <Py,zeta>
- ZeroControl:  free flow reference

assemble_kernel_args builds a run's one law bundle (KernelOps).  It also
decides the law's rate r, read by every settling quantity: the bound
kernels.settling_time(V0), the stepper's clamp, the decay check and the plot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import kernels
from .decomposition import DecompositionResult
from .model import (ModalModel, ModelError, _effective_control_matrix, _float, _float_array,
                    _is_diagonal, _is_int)

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
        if self.kind == "WaveK" and not self.cap > 0:
            raise ModelError(f"WaveK cap must be positive, got {self.cap!r}")
        if self.kind == "Constant" and not math.isfinite(self.value):
            raise ModelError(f"Constant phi value must be finite, got {self.value!r}")


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
        if not 0 < self.dead_zone < math.inf:
            raise ModelError(f"dead_zone must be positive and finite, got {self.dead_zone!r}")
        if not self.u_max > 0:
            raise ModelError(f"u_max must be positive, got {self.u_max!r}")
        if self.zeta is not None:
            object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.varpi is not None:
            object.__setattr__(self, "varpi", np.asarray(self.varpi, dtype=float))
        if self.variant == "RankOne":
            if self.zeta is None or self.varpi is None:
                raise ModelError("RankOne requires zeta and varpi")
            if float(np.linalg.norm(self.zeta)) == 0.0:
                raise ModelError("RankOne requires a nonzero zeta")


def validate_law_for_model(spec: ControllerSpec, model: ModalModel) -> None:
    """Raise ModelError unless the model carries what the law reads.

    The bilinear laws need a control operator, LinearPhi and RankOne an
    input map.  A WaveK phi reads positions 0..q-1 and velocities
    half..half+q-1 of the state, so q <= half <= dim - q.  RankOne's zeta
    has the state's length and varpi the input's, tied by L varpi = zeta.
    """
    variant = spec.variant
    if variant in ("BilinearPhi", "BilinearGrad") and model.control_op is None:
        raise ModelError(f"{variant} requires a bilinear model (a control operator)")
    if variant in ("LinearPhi", "RankOne") and model.input_map is None:
        raise ModelError(f"{variant} requires a model with an input_map")
    phi = spec.phi
    if variant in ("BilinearPhi", "LinearPhi") and phi.kind == "WaveK":
        if not phi.q <= phi.half <= model.dim - phi.q:
            raise ModelError(f"WaveK needs q <= half <= dim - q, got q = {phi.q}, "
                             f"half = {phi.half} at dim {model.dim}")
    if variant == "RankOne":
        m = model.input_map.shape[1]
        if spec.zeta.shape != (model.dim,) or spec.varpi.shape != (m,):
            raise ModelError(f"RankOne needs zeta of length {model.dim} and varpi of "
                             f"length {m}, got shapes {spec.zeta.shape} and {spec.varpi.shape}")
        residual = float(np.linalg.norm(model.input_map @ spec.varpi - spec.zeta))
        if not residual < 1e-9:   # a NaN residual fails too
            raise ModelError(f"RankOne data violates L varpi = zeta (residual {residual:.3e})")


@dataclass(frozen=True)
class KernelOps:
    """Constant operators of one law, assembled once per run for the kernels.

    stack holds the rows of A, then B for the bilinear laws, then the law's
    own rows from row law_from on, so one mat-vec gives A y and every linear
    quantity the law reads from P y:

    - BilinearPhi, BilinearGrad, ZeroControl: Q = P* M B P (V = <y, Q y>);
      BilinearGrad adds the Gram form P* B* M B P and the pairing P* A* M B P.
    - LinearPhi: L* M P.
    - RankOne: (P* M zeta)^T and (P* A* M zeta)^T.
    - a WaveK phi appends the rows of P.

    A bundle that is never stepped (ZeroControl: integrator.free_flow samples
    it) keeps only the law's rows (law_from = 0).  So does BilinearPhi when A
    and B are both diagonal: decay and slope hold their diagonals, and the
    stepper carries e^{tA} as an integrating factor.  In both, a diagonal Q
    is kept as the vector q_diag (V = <y, q_diag * y>) instead of as rows.

    V^mu falls at least at 2 r mu, so V settles by kernels.settling_time.  rate
    is r: gamma, or ||zeta||_M^(2 - 2 mu) for RankOne (V = s^2 / ||zeta||_M^2);
    None without a law or without gamma.  v_dead_zone is the law's V at the
    regrowth trigger 2 eps_dz: 2 eps_dz / gamma for BilinearGrad (||B P y||^2
    >= gamma V on W_perp), (2 eps_dz)^2 / ||zeta||_M^2 for RankOne (trigger
    |s|), else 2 eps_dz.
    """

    spec: ControllerSpec
    stack: np.ndarray
    input_map: np.ndarray | None
    width: int                 # control components (1 for bilinear laws)
    law_from: int              # first row of the law's own rows in stack
    zeta_normsq: float = 1.0
    decay: np.ndarray | None = None   # diag(A) when the stepper carries e^{tA}
    slope: np.ndarray | None = None   # diag(B) in that case
    q_diag: np.ndarray | None = None  # diag(Q) when Q is diagonal and law_from = 0
    rate: float | None = None
    v_dead_zone: float = 0.0

    def read_rate(self) -> float:
        """r, where a law reads it: a law whose decomposition has no gamma is refused."""
        if self.rate is None:
            raise ModelError(f"{self.spec.variant} needs gamma: the decomposition carries none")
        return self.rate


def _diagonal(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of a matrix that has no other nonzero entry, else None."""
    return np.diagonal(matrix).copy() if _is_diagonal(matrix) else None


def assemble_kernel_args(spec: ControllerSpec, model: ModalModel,
                         dec: DecompositionResult) -> KernelOps:
    """Fold the law's constant operators into one stacked matrix, next to its rate."""
    validate_law_for_model(spec, model)
    M = model.metric
    A = model.generator
    P = dec.projection
    L = model.input_map
    width = 1 if L is None else L.shape[1]
    zeta_normsq = 1.0
    level = 2.0 * spec.dead_zone
    rate = None if spec.variant == "ZeroControl" else dec.gamma   # RankOne's is set below
    v_dead_zone = level / rate if rate is not None and spec.variant == "BilinearGrad" else level
    field, law = [A], []   # the rows the stepped field reads, then the law's own
    if spec.variant == "RankOne":
        m_zeta = M @ spec.zeta
        law += [(P.T @ m_zeta)[None, :], (P.T @ (A.T @ m_zeta))[None, :]]
        width = spec.varpi.shape[0]
        zeta_normsq = float(spec.zeta @ m_zeta)
        rate, v_dead_zone = zeta_normsq ** (1.0 - spec.mu), level * level / zeta_normsq
    elif spec.variant == "LinearPhi":
        law.append(L.T @ M @ P)
    else:
        B = _effective_control_matrix(model)
        BP = B @ P
        field = [] if spec.variant == "ZeroControl" else [A, B]
        law.append((P.T if model.identity_metric else P.T @ M) @ BP)
        if spec.variant == "BilinearGrad":
            MBP = BP if model.identity_metric else M @ BP
            law += [BP.T @ MBP, P.T @ A.T @ MBP]
    if spec.variant in ("BilinearPhi", "LinearPhi") and spec.phi.kind == "WaveK":
        law.append(P)
    # BilinearGrad's pairing term cancels A along the state, so a factor would
    # turn its slow closed loop into a fast growth of the stepped variable
    decay = _diagonal(A) if spec.variant == "BilinearPhi" else None
    slope = None if decay is None else _diagonal(B)
    if slope is None:
        decay = None
    else:   # A and B act through their diagonals, so the stack keeps the law's rows
        field = []
    q_diag = None if field else _diagonal(law[0])   # law[0] is Q here
    if q_diag is not None:
        law = law[1:]
    rows = field + law
    stack = np.vstack(rows) if rows else np.empty((0, model.dim))
    return KernelOps(spec=spec, stack=stack, input_map=L, width=width,
                     law_from=len(field) * model.dim, zeta_normsq=zeta_normsq, decay=decay,
                     slope=slope, q_diag=q_diag, rate=rate, v_dead_zone=v_dead_zone)


def settling_bound_details(ops: KernelOps, model: ModalModel, dec: DecompositionResult,
                           y0: np.ndarray):
    """Settling-time bound T(V0) at the law's V at y0 and the bundle's r ("Unbounded",
    or None for no law) plus reporting extras (RankOne's looser published form)."""
    spec = ops.spec
    if spec.variant == "ZeroControl":
        return None, {}
    y0 = np.asarray(y0, dtype=float)
    M = model.metric
    y01 = dec.projection @ y0
    resid = y0 - y01
    resid_norm = float(np.sqrt(max(resid @ M @ resid, 0.0)))
    y0_norm = float(np.sqrt(max(y0 @ M @ y0, 0.0)))
    in_wperp = resid_norm <= 1e-12 * max(1.0, y0_norm)
    # the modal flow on W != {0} never reaches zero, so a W component cannot die
    if dec.dim_w and not in_wperp:
        return "Unbounded", {"reason": "unobservable component present, flow not nilpotent"}
    V0 = float(kernels.closed_loop_law(y0, ops, False)[1])
    t1 = kernels.settling_time(V0, ops.read_rate(), spec.mu)
    extras: dict[str, Any] = {"t1": t1}
    if spec.variant == "RankOne":
        s0 = abs(float(y01 @ M @ spec.zeta))
        extras["t1_statement_form"] = s0 ** spec.mu / (spec.mu * ops.zeta_normsq)
    return t1, extras


def controller_from_json(doc: dict[str, Any]) -> ControllerSpec:
    if "variant" not in doc:
        raise ModelError("controller JSON requires 'variant'")
    phi_doc = doc.get("phi", {"kind": "Zero"})
    if isinstance(phi_doc, str):
        phi_doc = {"kind": phi_doc}
    if not isinstance(phi_doc, dict):
        raise ModelError(f"phi must be a kind name or an object, got {phi_doc!r}")
    for key in ("q", "half"):
        if not _is_int(phi_doc.get(key, 0)):
            raise ModelError(f"phi.{key} must be an integer, got {phi_doc[key]!r}")
    phi = PhiSpec(kind=phi_doc.get("kind", "Zero"),
                  value=_float(phi_doc.get("value", 0.0), "phi.value"),
                  cap=_float(phi_doc.get("cap", DEFAULT_WAVE_CAP), "phi.cap"),
                  q=phi_doc.get("q", 0), half=phi_doc.get("half", 0))
    zeta = doc.get("zeta")
    varpi = doc.get("varpi")
    return ControllerSpec(
        variant=doc["variant"],
        mu=_float(doc.get("mu", 0.25), "mu"),
        phi=phi,
        dead_zone=_float(doc.get("dead_zone", DEFAULT_DEAD_ZONE), "dead_zone"),
        zeta=None if zeta is None else _float_array(zeta, "zeta"),
        varpi=None if varpi is None else _float_array(varpi, "varpi"),
        u_max=_float(doc.get("u_max", DEFAULT_U_MAX), "u_max"),
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
