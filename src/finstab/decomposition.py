"""Unobservable-subspace decomposition and hypothesis certification.

W is the set of states invisible to the control pairing: B e^{tA} x = 0 for
all t, i.e. the largest A-invariant subspace of ker B.  It is found by the
invariant-subspace recursion W_0 = ker B, W_{k+1} = {x in W_k : Ax in W_k} on
orthonormal bases (Van Dooren 1981), never by powers of A.  The state space
splits as W + W_perp (metric-orthogonal); the projector P onto W_perp, the
positivity constant gamma, and the nilpotency horizon delta drive the
settling bounds.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import CheckReport, ModalModel, ModelError, validate_control_operator

KERNEL_RTOL = 1e-10
H1_TOL = 1e-9
H2_TOL = 1e-9


class _NotNilpotent:
    """Sentinel: the flow restricted to W is injective, so no horizon exists."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NotNilpotent"


NOT_NILPOTENT = _NotNilpotent()

# every SVD and eigensolver here is looked up through this one name, so this
# module's solvers can be replaced without touching the model checks' own
linalg = np.linalg


class SolverError(ModelError):
    """A decomposition (SVD or eigensolver) did not converge on finite input."""


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


@dataclass(frozen=True)
class DecompositionResult:
    w_basis: np.ndarray        # (n, dim W), metric-orthonormal columns
    wperp_basis: np.ndarray    # (n, dim W_perp), metric-orthonormal columns
    projection: np.ndarray     # (n, n) metric-orthogonal projector onto W_perp
    gamma: float | None = None
    delta: float | _NotNilpotent | None = None
    h1_holds: bool | None = None
    h3_holds: bool | None = None
    h4_holds: bool | None = None

    @property
    def dim_w(self) -> int:
        return self.w_basis.shape[1]

    @property
    def dim_wperp(self) -> int:
        return self.wperp_basis.shape[1]


def _metric_orthonormalize(vecs: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of vecs w.r.t. the metric (thin, stable)."""
    if vecs.shape[1] == 0:
        return vecs
    gram = vecs.T @ metric @ vecs
    evals, evecs = linalg.eigh(gram)
    keep = evals > 1e-14 * max(evals.max(), 1.0)
    return vecs @ (evecs[:, keep] / np.sqrt(evals[keep]))


def _metric_normsq(rows: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """<x, M x> for each row x.

    One BLAS product and a row-wise einsum: a three-operand einsum does the
    n^2 work of every row in its own loop (9.5 ms against 0.2 ms for 1001
    rows at n = 128 on a 2-vCPU x86 host).
    """
    return np.einsum("ij,ij->i", rows @ metric, rows)


def _projector_from_basis(wperp: np.ndarray, metric: np.ndarray) -> np.ndarray:
    return wperp @ (wperp.T @ metric)


def _effective_control_matrix(model: ModalModel) -> np.ndarray:
    """B for bilinear models; the induced L L* (metric adjoint) for linear ones."""
    if model.control_op is not None:
        return model.control_op
    L = model.input_map
    return L @ (L.T @ model.metric)


def _null_space(mat: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis of the right singular vectors with sigma <= cutoff."""
    _, sv, vt = linalg.svd(mat)
    return vt[int(np.sum(sv > cutoff)):].T


@_solver_errors
def unobservable_subspace(model: ModalModel) -> DecompositionResult:
    """Bases of W and W_perp plus the projector, by the invariant-subspace recursion.

    W_0 = ker B; W_{k+1} keeps the x in W_k whose image Ax stays in W_k, the
    kernel of the leak (I - V V^T) A V of an orthonormal basis V of W_k.  The
    dimension falls at every step until W_k is A-invariant.  Singular values
    below KERNEL_RTOL times the Frobenius norm of B (for ker B) or of A (for
    the leak) count as zero.
    """
    n = model.dim
    B = _effective_control_matrix(model)
    A = model.generator
    w_raw = _null_space(B, KERNEL_RTOL * np.linalg.norm(B))
    leak_cutoff = KERNEL_RTOL * np.linalg.norm(A)
    while w_raw.shape[1]:
        image = A @ w_raw
        leak = image - w_raw @ (w_raw.T @ image)
        kept = _null_space(leak, leak_cutoff)
        if kept.shape[1] == w_raw.shape[1]:
            break
        w_raw = w_raw @ kept  # (n, dim W), Euclidean-orthonormal
    w_basis = _metric_orthonormalize(w_raw, model.metric)
    if w_basis.shape[1] == 0:
        wperp_basis = _metric_orthonormalize(np.eye(n), model.metric)
    else:
        # W_perp = null space of (w_basis^T M): metric-orthogonality to W
        _, sv2, vt2 = linalg.svd(w_basis.T @ model.metric)
        rank2 = int(np.sum(sv2 > KERNEL_RTOL * max(sv2[0], 1.0)))
        wperp_basis = _metric_orthonormalize(vt2[rank2:].T, model.metric)
    projection = _projector_from_basis(wperp_basis, model.metric)
    return DecompositionResult(w_basis=w_basis, wperp_basis=wperp_basis, projection=projection)


def decomposition_from_axes(model: ModalModel, w_axes: tuple[int, ...]) -> DecompositionResult:
    """Exact decomposition when W is spanned by coordinate axes of an identity metric.

    The projector is then an exact 0/1 diagonal mask, so P(y + w) == Py holds
    bit-for-bit for states w supported on the W axes.
    """
    n = model.dim
    if np.max(np.abs(model.metric - np.eye(n))) != 0.0:
        raise ModelError("axis-aligned decomposition requires the identity metric")
    w_axes = tuple(sorted(w_axes))
    perp_axes = tuple(i for i in range(n) if i not in w_axes)
    eye = np.eye(n)
    w_basis = eye[:, list(w_axes)]
    wperp_basis = eye[:, list(perp_axes)]
    projection = np.diag(np.array([0.0 if i in w_axes else 1.0 for i in range(n)]))
    return DecompositionResult(w_basis=w_basis, wperp_basis=wperp_basis, projection=projection)


def check_H1(model: ModalModel, dec: DecompositionResult) -> CheckReport:
    """Invariance of W_perp under A (semigroup invariance for matrix generators)."""
    A = model.generator
    M = model.metric
    P = dec.projection
    # one row per W_perp basis vector v: metric norm of the part of Av outside W_perp
    images = (A @ dec.wperp_basis).T
    leaks = images - images @ P.T
    leak_norm = np.sqrt(np.maximum(np.sum((leaks @ M) * leaks, axis=1), 0.0))
    image_norm = np.sqrt(np.maximum(np.sum((images @ M) * images, axis=1), 0.0))
    residuals = leak_norm / np.maximum(image_norm, 1.0)
    worst_column = int(np.argmax(residuals)) if residuals.size else None
    worst = float(np.max(residuals, initial=0.0))
    scale = max(1.0, float(np.max(np.abs(A.T @ M))))
    sym_residual = float(np.max(np.abs(A.T @ M - M @ A))) / scale
    skew_residual = float(np.max(np.abs(A.T @ M + M @ A))) / scale
    return CheckReport(
        "H1",
        worst < H1_TOL,
        {
            "invariance_residual": worst,
            "worst_column": worst_column,
            "generator_symmetric": sym_residual < 1e-10,
            "generator_skew": skew_residual < 1e-10,
        },
    )


@_solver_errors
def compute_gamma(model: ModalModel, dec: DecompositionResult) -> float:
    """Largest gamma with gamma <Bx,x> <= ||Bx||^2 on W_perp.

    For a self-adjoint PSD B this is the smallest strictly positive eigenvalue
    of B restricted to W_perp.
    """
    report = validate_control_operator(_as_bilinear(model))
    if not report.passed:
        raise ModelError("compute_gamma requires a self-adjoint PSD control operator")
    if dec.dim_wperp == 0:
        return 1.0
    B = _effective_control_matrix(model)
    Q = dec.wperp_basis
    restricted = Q.T @ model.metric @ B @ Q
    restricted = 0.5 * (restricted + restricted.T)
    evals = linalg.eigvalsh(restricted)
    positive = evals[evals > 1e-12 * max(np.max(np.abs(evals)), 1.0)]
    if positive.size == 0:
        raise ModelError("control operator vanishes on W_perp")
    return float(positive[0])


def _as_bilinear(model: ModalModel) -> ModalModel:
    """View a linear model through its induced B = L L* for operator checks."""
    if model.control_op is not None:
        return model
    return ModalModel(
        dim=model.dim,
        metric=model.metric,
        generator=model.generator,
        control_op=_effective_control_matrix(model),
        basis_labels=model.basis_labels,
    )


@_solver_errors
def gamma_certificate(model: ModalModel, dec: DecompositionResult, gamma: float,
                      samples: int = 1000, seed: int = 0) -> CheckReport:
    """Two-sided sample certificate: the bound holds everywhere and is attained.

    worst_sample is the row of the seeded draw where the bound is tightest;
    row `samples` is the appended minimizing eigendirection.
    """
    if samples <= 0:
        raise ModelError("gamma_certificate requires a positive sample count")
    B = _effective_control_matrix(model)
    M = model.metric
    Q = dec.wperp_basis
    k = Q.shape[1]
    if k == 0:
        return CheckReport("gamma_certificate", True, {"dim_wperp": 0})
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((samples, k))
    # include the minimizing eigendirection so the bound is witnessed as tight
    restricted = Q.T @ M @ B @ Q
    restricted = 0.5 * (restricted + restricted.T)
    evals, evecs = linalg.eigh(restricted)
    positive = np.where(evals > 1e-12 * max(np.max(np.abs(evals)), 1.0))[0]
    if positive.size:
        coeffs = np.vstack([coeffs, evecs[:, positive[0]]])
    # one row per sample x = Q c: <Bx, x> = c'Rc and ||Bx||^2 = c'Gc.  einsum
    # keeps the per-sample products out of multithreaded BLAS: a threaded
    # product here made the integration run after it ~1.5x slower (Heat1D,
    # n_modes 64, 2 vCPUs).
    BQ = B @ Q
    gram = BQ.T @ M @ BQ
    quad = np.sum(np.einsum("si,ij->sj", coeffs, restricted) * coeffs, axis=1)
    normsq = np.sum(np.einsum("si,ij->sj", coeffs, gram) * coeffs, axis=1)
    worst_violation = max(0.0, float(np.max(gamma * quad - normsq)))
    ratios = np.full(quad.shape, np.inf)
    seen = quad > 1e-12
    ratios[seen] = normsq[seen] / quad[seen]
    worst_sample = int(np.argmin(ratios))  # the row where the bound is tightest
    min_ratio = float(ratios[worst_sample])
    holds = worst_violation <= 1e-9
    attained = min_ratio <= gamma * (1.0 + 1e-6)
    return CheckReport(
        "gamma_certificate",
        holds and attained,
        {"max_violation": worst_violation, "min_ratio": min_ratio, "gamma": gamma,
         "worst_sample": worst_sample if np.isfinite(min_ratio) else None},
    )


def compute_delta(model: ModalModel, dec: DecompositionResult,
                  analytic_delta: float | None = None) -> float | _NotNilpotent:
    """Nilpotency horizon of the flow on W; NotNilpotent for pure matrix models.

    A matrix exponential restricted to a nontrivial invariant subspace is
    injective for every t, so a finite horizon can only come from a front-end
    with a genuinely nilpotent flow, supplied as analytic_delta.
    """
    if dec.dim_w == 0:
        return 0.0
    if analytic_delta is None:
        return NOT_NILPOTENT
    if analytic_delta < 0:
        raise ModelError("analytic_delta must be nonnegative")
    return float(analytic_delta)


@_solver_errors
def check_H2(model: ModalModel, dec: DecompositionResult, phi, dead_zone: float,
             samples: int = 256, seed: int = 0) -> CheckReport:
    """Monte-Carlo margin certificate for <Ay,By> <= phi(y) ||By||^2 on W_perp.

    phi is the law's PhiSpec, evaluated by the kernel with the law's dead
    zone.  For a Zero or Constant phi the exact requirement is also solved as
    a generalized eigenvalue problem; a cross-coupling between ker(B) and
    range(B) inside W_perp makes any constant insufficient, which is
    reported as needed_phi = inf.  worst_sample is the draw with the smallest
    margin.
    """
    if samples <= 0:
        raise ModelError("check_H2 requires a positive sample count")
    A = model.generator
    B = _effective_control_matrix(model)
    M = model.metric
    Q = dec.wperp_basis
    k = Q.shape[1]
    if k == 0:
        return CheckReport("H2", True, {"dim_wperp": 0})
    rng = np.random.default_rng(seed)
    # one row per sample: y = Q c normalised in the metric
    ys = rng.standard_normal((samples, k)) @ Q.T
    ys /= np.maximum(np.sqrt(np.maximum(_metric_normsq(ys, M), 0.0)), 1e-300)[:, None]
    bys = ys @ B.T
    pairing = np.einsum("ij,ij->i", (ys @ A.T) @ M, bys)
    phi_y = kernels.phi_value(phi, ys, dead_zone)
    margins = phi_y * _metric_normsq(bys, M) - pairing
    worst_sample = int(np.argmin(margins))
    min_margin = margins[worst_sample]
    # Lipschitz quotients of y -> phi(y) B y between consecutive draws
    dist = np.sqrt(np.maximum(_metric_normsq(np.diff(ys, axis=0), M), 0.0))
    dfs = np.diff((phi_y * bys.T).T, axis=0)
    apart = dist > 1e-12
    lipschitz = float(np.max(np.sqrt(np.maximum(_metric_normsq(dfs[apart], M), 0.0))
                             / dist[apart], initial=0.0))
    details = {"min_margin": float(min_margin), "worst_sample": worst_sample,
               "lipschitz_estimate": lipschitz}
    if phi.kind in ("Zero", "Constant"):
        constant_value = float(kernels.phi_value(phi, Q[:, 0], dead_zone))
        needed = _exact_constant_phi(A, B, M, Q)
        details["needed_phi"] = needed
        details["phi_constant"] = constant_value
        exact_ok = needed != np.inf and constant_value >= needed - H2_TOL
        return CheckReport("H2", bool(min_margin >= -H2_TOL and exact_ok), details)
    return CheckReport("H2", bool(min_margin >= -H2_TOL), details)


def _exact_constant_phi(A: np.ndarray, B: np.ndarray, M: np.ndarray, Q: np.ndarray) -> float:
    """Smallest constant phi with <Ay,By> <= phi ||By||^2 on W_perp, or inf."""
    S = A.T @ M @ B
    S = 0.5 * (S + S.T)
    G = B.T @ M @ B
    S_r = Q.T @ S @ Q
    G_r = Q.T @ G @ Q
    G_r = 0.5 * (G_r + G_r.T)
    evals, evecs = linalg.eigh(G_r)
    tol = 1e-12 * max(np.max(np.abs(evals)), 1.0)
    pos = evals > tol
    if not np.any(pos):
        return 0.0
    U_pos = evecs[:, pos]
    U_ker = evecs[:, ~pos]
    if U_ker.shape[1]:
        cross = U_ker.T @ S_r @ U_pos
        ker_diag = U_ker.T @ S_r @ U_ker
        if np.max(np.abs(cross)) > 1e-9 or np.max(np.abs(ker_diag)) > 1e-9:
            return np.inf
    reduced = (U_pos / np.sqrt(evals[pos])).T @ S_r @ (U_pos / np.sqrt(evals[pos]))
    reduced = 0.5 * (reduced + reduced.T)
    lam = float(np.max(linalg.eigvalsh(reduced)))
    return max(lam, 0.0)
