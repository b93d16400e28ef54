"""Finite-dimensional truncations of the controlled evolution systems.

A model is a state space R^n carrying a weighted inner product (the metric),
a generator matrix A, and either a control operator B (bilinear systems,
dy/dt = Ay + u*By) or an input map L (linear systems, dy/dt = Ay + Lv).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

SYM_TOL = 1e-12
STRUCT_TOL = 1e-10
KERNEL_RTOL = 1e-10   # values at or below KERNEL_RTOL * ||matrix||_F count as zero
MAX_STATE_DIM = 1024  # the state dimension a document may imply: 8 MB per n x n matrix


class ModelError(ValueError):
    """Raised for malformed models or dimension mismatches."""


class SolverError(ModelError):
    """An SVD or eigensolver did not converge on finite input."""


def _solver_errors(fn):
    """Re-raise a LinAlgError from fn's solvers as a SolverError (a ModelError).

    A solver that does not converge on finite input is a property of the
    model, not a verdict on a hypothesis, so callers end with exit code 2.
    """
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"{fn.__name__}: {exc}") from exc
    return wrapped


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
    # the structure of the operators, decided once here and read by every layer
    identity_metric: bool = field(init=False)      # M == I exactly
    generator_symmetric: bool = field(init=False)  # max|A*M - MA| <= STRUCT_TOL max|A*M|
    generator_skew: bool = field(init=False)       # max|A*M + MA| <= STRUCT_TOL max|A*M|
    # (L, L^-T) with M = L L^T, or None for M == I: the basis on which the
    # metric is the identity, so x -> L^T x maps M-orthonormal to orthonormal
    metric_factor: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

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
        # relative with no floor: the factor below reads one triangle only
        if np.max(np.abs(metric - metric.T)) > SYM_TOL * np.max(np.abs(metric)):
            raise ModelError("metric must be symmetric")
        identity = _is_identity(metric)
        factor = None
        if not identity:
            try:
                L = np.linalg.cholesky(metric)
            except np.linalg.LinAlgError as exc:
                raise ModelError("metric must be positive definite") from exc
            factor = (L, np.linalg.inv(L).T)
        A = generator
        AtM, MA = (A.T, A) if identity else (A.T @ metric, metric @ A)
        # relative to A*M itself, with no floor: a floor of 1 would certify any A
        # whose entries lie below STRUCT_TOL, whatever its structure
        cutoff = STRUCT_TOL * float(np.max(np.abs(AtM)))
        object.__setattr__(self, "identity_metric", identity)
        object.__setattr__(self, "metric_factor", factor)
        object.__setattr__(self, "generator_symmetric", float(np.max(np.abs(AtM - MA))) <= cutoff)
        object.__setattr__(self, "generator_skew", float(np.max(np.abs(AtM + MA))) <= cutoff)
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

    def is_bilinear(self) -> bool:
        return self.control_op is not None


def _is_identity(M: np.ndarray) -> bool:
    """M == I exactly: a unit diagonal and no other nonzero entry.

    The front ends' energy-normalised coordinates give exactly this metric,
    for which every metric product and pencil reduction is the identity map.
    """
    return bool(np.all(np.diagonal(M) == 1.0)) and np.count_nonzero(M) == M.shape[0]


def _is_diagonal(S: np.ndarray) -> bool:
    """S has no nonzero entry off its diagonal (O(n^2), no n-by-n temporary)."""
    return np.count_nonzero(S) == np.count_nonzero(np.diagonal(S))


def pencil_eigvalsh(S: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of the symmetric-definite pencil (S, M), ascending; M = None is I.

    With the Cholesky factor M = L L^T these are the eigenvalues of
    L^-1 S L^-T, the reduction LAPACK's sygvd makes; for M = None, of S.  For a
    diagonal S that is its sorted diagonal, read without a solver: eigvalsh
    returns the same bits unless LAPACK rescales an S whose norm lies outside
    about [1e-146, 1e146], where the diagonal is exact and eigvalsh rounds.
    """
    if M is None:
        if _is_diagonal(S):
            d = np.diagonal(S)
            # sorted() on Python floats: numpy's SIMD sort would fault in about
            # 0.15 MB of code pages that no other step of a run touches
            return np.array(sorted((0.5 * (d + d)).tolist()))
        return np.linalg.eigvalsh(0.5 * (S.T + S))
    L = np.linalg.cholesky(M)
    C = np.linalg.solve(L, np.linalg.solve(L, S).T)
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def quasi_contraction_type(model: ModalModel) -> float:
    """Smallest omega with <Ax,x> <= omega <x,x> for all x.

    Equals the largest eigenvalue of the metric-symmetrized generator,
    i.e. of the pencil (sym(M A), M).
    """
    A, M = model.generator, None if model.identity_metric else model.metric
    S = 0.5 * (A.T + A) if M is None else 0.5 * (A.T @ M + M @ A)
    return float(np.max(pencil_eigvalsh(S, M)))


def _effective_control_matrix(model: ModalModel) -> np.ndarray:
    """B for bilinear models; the induced L L* (metric adjoint) for linear ones."""
    if model.control_op is not None:
        return model.control_op
    L = model.input_map
    return L @ (L.T @ model.metric)


@_solver_errors
def validate_control_operator(model: ModalModel) -> CheckReport:
    """Check that B is self-adjoint and PSD w.r.t. the metric, and report its spectrum.

    The one metric eigendecomposition of B (L L* for an input map, self-adjoint
    PSD by construction): dim_ker_b eigenvalues lie at or below the decomposition's
    ker B cutoff KERNEL_RTOL ||B||_F; the least above it, min_positive_eigenvalue,
    is gamma, as B is self-adjoint and vanishes on W.
    """
    M = None if model.identity_metric else model.metric
    B = _effective_control_matrix(model)
    BtM, MB = (B.T, B) if M is None else (B.T @ M, M @ B)
    evals = pencil_eigvalsh(0.5 * (BtM + MB), M)
    positive = evals[evals > KERNEL_RTOL * np.linalg.norm(B)]
    spectrum = {"dim_ker_b": evals.size - positive.size,
                "min_positive_eigenvalue": float(positive[0]) if positive.size else None}
    if model.control_op is None:
        return CheckReport("control_operator", True, {"applicable": False, **spectrum})
    # <Be_i, e_j> - <e_i, Be_j> = (B^T M - M B)_{ij}
    residual = float(np.max(np.abs(BtM - MB)))
    min_quotient = float(evals[0])
    passed = residual < STRUCT_TOL and min_quotient > -STRUCT_TOL
    return CheckReport(
        "control_operator",
        passed,
        {"applicable": True, "self_adjoint_residual": residual,
         "min_rayleigh_quotient": min_quotient, **spectrum},
    )


def _is_int(value: Any) -> bool:
    """An integer, but not a bool: a size or seed read as 2.5 must not become 2."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _float(value: Any, what: str) -> float:
    """float(value), but only from a number: a JSON true must not read as 1.0,
    nor "0.5" as 0.5."""
    if isinstance(value, (bool, str)):
        raise ModelError(f"{what} must be a number, got {value!r}")
    return float(value)


def _is_number_type(t: type) -> bool:
    return t is not bool and issubclass(t, (int, float, np.integer, np.floating))


def _float_array(obj: Any, what: str) -> np.ndarray:
    """np.asarray(obj, dtype=float), but only from numbers: numpy reads true as
    1.0 and "0.5" as 0.5.  The entries' types are gathered at C speed."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what}: expected a rectangular array of numbers") from exc
    if isinstance(obj, np.ndarray):
        numbers = obj.dtype.kind in "iuf"
    else:
        entries = [obj]
        for _ in range(arr.ndim):
            entries = chain.from_iterable(entries)
        numbers = all(map(_is_number_type, set(map(type, entries))))
    if not numbers:
        raise ModelError(f"{what}: expected a rectangular array of numbers")
    return arr


def check_state_dim(dim: int, what: str) -> None:
    """Refuse a state dimension past MAX_STATE_DIM before anything is allocated for it."""
    if dim > MAX_STATE_DIM:
        raise ModelError(f"the state dimension of {what} is {dim}, more than the limit of "
                         f"{MAX_STATE_DIM}")


def _matrix_from_json(obj: Any, n: int, what: str) -> np.ndarray:
    if obj == "identity":
        return np.eye(n)
    if isinstance(obj, dict) and "diagonal" in obj:
        d = _float_array(obj["diagonal"], what)
        if d.shape != (n,):
            raise ModelError(f"{what}: diagonal length must equal dim")
        return np.diag(d)
    mat = _float_array(obj, what)
    if mat.ndim != 2:
        raise ModelError(f"{what}: expected a matrix")
    return mat


def model_from_json(doc: dict[str, Any]) -> ModalModel:
    """Build a model from {dim, metric, generator, control_op | input_map, basis_labels}."""
    try:
        n = doc["dim"]
    except (KeyError, TypeError) as exc:
        raise ModelError("model JSON requires an integer 'dim'") from exc
    if not _is_int(n):
        raise ModelError(f"model JSON requires an integer 'dim', got {n!r}")
    check_state_dim(n, "the matrices")
    metric = _matrix_from_json(doc.get("metric", "identity"), n, "metric")
    if "generator" not in doc:
        raise ModelError("model JSON requires 'generator'")
    generator = _matrix_from_json(doc["generator"], n, "generator")
    control_op = None
    input_map = None
    if "control_op" in doc:
        control_op = _matrix_from_json(doc["control_op"], n, "control_op")
    if "input_map" in doc:
        input_map = _float_array(doc["input_map"], "input_map")
    labels = tuple(doc.get("basis_labels", ()))
    return ModalModel(dim=n, metric=metric, generator=generator, control_op=control_op,
                      input_map=input_map, basis_labels=labels)
