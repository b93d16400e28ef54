"""Finite-dimensional truncations of the controlled evolution systems.

A model is a state space R^n carrying a weighted inner product (the metric),
a generator matrix A, and either a control operator B (bilinear systems,
dy/dt = Ay + u*By) or an input map L (linear systems, dy/dt = Ay + Lv).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

# States are plain coefficient vectors in the model basis.
StateVec = np.ndarray

SYM_TOL = 1e-12
STRUCT_TOL = 1e-10


class ModelError(ValueError):
    """Raised for malformed models or dimension mismatches."""


@dataclass
class CheckReport:
    """Outcome of a single verification step, serializable for summaries."""

    name: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "passed": bool(self.passed), **_jsonify(self.details)}


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class ModalModel:
    dim: int
    metric: np.ndarray
    generator: np.ndarray
    control_op: np.ndarray | None = None
    input_map: np.ndarray | None = None
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise ModelError("dim must be positive")
        metric = np.asarray(self.metric, dtype=float)
        generator = np.asarray(self.generator, dtype=float)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "generator", generator)
        if metric.shape != (n, n) or generator.shape != (n, n):
            raise ModelError("metric and generator must be n-by-n")
        if not (np.all(np.isfinite(metric)) and np.all(np.isfinite(generator))):
            raise ModelError("metric and generator must be finite")
        if np.max(np.abs(metric - metric.T)) > SYM_TOL * max(1.0, np.max(np.abs(metric))):
            raise ModelError("metric must be symmetric")
        if np.min(np.linalg.eigvalsh(metric)) <= 0:
            raise ModelError("metric must be positive definite")
        if (self.control_op is None) == (self.input_map is None):
            raise ModelError("exactly one of control_op / input_map must be present")
        if self.control_op is not None:
            B = np.asarray(self.control_op, dtype=float)
            if B.shape != (n, n):
                raise ModelError("control_op must be n-by-n")
            if not np.all(np.isfinite(B)):
                raise ModelError("control_op must be finite")
            object.__setattr__(self, "control_op", B)
        if self.input_map is not None:
            L = np.asarray(self.input_map, dtype=float)
            if L.ndim == 1:
                L = L.reshape(n, 1)
            if L.ndim != 2 or L.shape[0] != n:
                raise ModelError("input_map must be n-by-m")
            if not np.all(np.isfinite(L)):
                raise ModelError("input_map must be finite")
            object.__setattr__(self, "input_map", L)
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"y{i+1}" for i in range(n)))
        elif len(self.basis_labels) != n:
            raise ModelError("basis_labels length must equal dim")
        else:
            object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    @property
    def n_inputs(self) -> int:
        return 0 if self.input_map is None else self.input_map.shape[1]

    def is_bilinear(self) -> bool:
        return self.control_op is not None


def inner(model: ModalModel, x: StateVec, y: StateVec) -> float:
    """Weighted inner product x^T M y of two coefficient vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (model.dim,) or y.shape != (model.dim,):
        raise ModelError("state dimension mismatch")
    return float(x @ model.metric @ y)


def norm(model: ModalModel, x: StateVec) -> float:
    return float(np.sqrt(max(inner(model, x, x), 0.0)))


def pencil_eigvalsh(S: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric-definite pencil (S, M), ascending.

    With the Cholesky factor M = L L^T these are the eigenvalues of
    L^-1 S L^-T, the reduction LAPACK's sygvd makes.
    """
    L = np.linalg.cholesky(M)
    C = np.linalg.solve(L, np.linalg.solve(L, S).T)
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def quasi_contraction_type(model: ModalModel) -> float:
    """Smallest omega with <Ax,x> <= omega <x,x> for all x.

    Equals the largest eigenvalue of the metric-symmetrized generator,
    i.e. of the pencil (sym(M A), M).
    """
    M = model.metric
    S = 0.5 * (model.generator.T @ M + M @ model.generator)
    return float(np.max(pencil_eigvalsh(S, M)))


def validate_control_operator(model: ModalModel) -> CheckReport:
    """Check that B is self-adjoint and positive semidefinite w.r.t. the metric."""
    if model.control_op is None:
        return CheckReport("control_operator", True, {"applicable": False})
    M = model.metric
    B = model.control_op
    # <Be_i, e_j> - <e_i, Be_j> = (B^T M - M B)_{ij}
    residual = float(np.max(np.abs(B.T @ M - M @ B)))
    S = 0.5 * (B.T @ M + M @ B)
    min_quotient = float(np.min(pencil_eigvalsh(S, M)))
    passed = residual < STRUCT_TOL and min_quotient > -STRUCT_TOL
    return CheckReport(
        "control_operator",
        passed,
        {"applicable": True, "self_adjoint_residual": residual, "min_rayleigh_quotient": min_quotient},
    )


def _matrix_from_json(obj: Any, n: int, what: str) -> np.ndarray:
    if obj == "identity":
        return np.eye(n)
    if isinstance(obj, dict) and "diagonal" in obj:
        d = np.asarray(obj["diagonal"], dtype=float)
        if d.shape != (n,):
            raise ModelError(f"{what}: diagonal length must equal dim")
        return np.diag(d)
    mat = np.asarray(obj, dtype=float)
    if mat.ndim != 2:
        raise ModelError(f"{what}: expected a matrix")
    return mat


def model_from_json(doc: dict[str, Any]) -> ModalModel:
    """Build a model from {dim, metric, generator, control_op | input_map, basis_labels}."""
    try:
        n = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError("model JSON requires an integer 'dim'") from exc
    metric = _matrix_from_json(doc.get("metric", "identity"), n, "metric")
    if "generator" not in doc:
        raise ModelError("model JSON requires 'generator'")
    generator = _matrix_from_json(doc["generator"], n, "generator")
    control_op = None
    input_map = None
    if "control_op" in doc:
        control_op = _matrix_from_json(doc["control_op"], n, "control_op")
    if "input_map" in doc:
        input_map = np.asarray(doc["input_map"], dtype=float)
    labels = tuple(doc.get("basis_labels", ()))
    return ModalModel(dim=n, metric=metric, generator=generator, control_op=control_op,
                      input_map=input_map, basis_labels=labels)


def model_to_json(model: ModalModel) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "dim": model.dim,
        "metric": model.metric.tolist(),
        "generator": model.generator.tolist(),
        "basis_labels": list(model.basis_labels),
    }
    if model.control_op is not None:
        doc["control_op"] = model.control_op.tolist()
    if model.input_map is not None:
        doc["input_map"] = model.input_map.tolist()
    return doc
