"""Unobservable-subspace decomposition and hypothesis certification.

W is the set of states invisible to the control pairing: B e^{tA} x = 0 for
all t, i.e. the largest A-invariant subspace of ker B.  It is found by the
invariant-subspace recursion W_0 = ker B, W_{k+1} = {x in W_k : Ax in W_k} on
orthonormal bases (Van Dooren 1981), never by powers of A.  The state space
splits as W + W_perp (metric-orthogonal); the projector P onto W_perp and the
positivity constant gamma drive the settling bounds.

gamma is B's least eigenvalue above the ker B cutoff, read from the one
spectrum of B that model.validate_control_operator computes.  gamma_certificate
checks exactly that B vanishes on W; it draws no sample, nor does H2 for a
Zero or Constant phi.

A modal flow e^{tA} is injective, so on W != {0} it never reaches zero: a
finite exit horizon exists only for the transport part of the transport-heat
hybrid (frontends.HybridModel.delta).  The modal "delta" and H4 entries of a
run's artifacts are written from dim W alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import (KERNEL_RTOL, CheckReport, ModalModel, ModelError,
                    _effective_control_matrix, _is_identity, _solver_errors)

H1_TOL = 1e-9
H2_TOL = 1e-9
B_ON_W_TOL = 2.0 * KERNEL_RTOL   # a recursion W stays within KERNEL_RTOL; 2x for roundoff


# every SVD and eigensolver here is looked up through this one name, so this
# module's solvers can be replaced without touching the model checks' own
linalg = np.linalg


@dataclass(frozen=True)
class DecompositionResult:
    w_basis: np.ndarray        # (n, dim W), metric-orthonormal columns
    wperp_basis: np.ndarray    # (n, dim W_perp), metric-orthonormal columns
    projection: np.ndarray     # (n, n) metric-orthogonal projector onto W_perp
    gamma: float | None = None

    @property
    def dim_w(self) -> int:
        return self.w_basis.shape[1]

    @property
    def dim_wperp(self) -> int:
        return self.wperp_basis.shape[1]


def _metric_orthonormalize(vecs: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of vecs w.r.t. the metric (thin, stable),
    dropping Gram eigenvalues at or below 1e-14 of the largest."""
    if vecs.shape[1] == 0:
        return vecs
    gram = vecs.T @ metric @ vecs
    evals, evecs = linalg.eigh(gram)
    keep = evals > 1e-14 * max(evals.max(), 0.0)
    return vecs @ (evecs[:, keep] / np.sqrt(evals[keep]))


def _metric_normsq(rows: np.ndarray, model: ModalModel) -> np.ndarray:
    """<x, M x> for each row x, in the model's metric M.

    One BLAS product and a row-wise einsum: a three-operand einsum does the
    n^2 work of every row in its own loop (9.5 ms against 0.2 ms for 1001
    rows at n = 128 on a 2-vCPU x86 host).  M = I needs no product.
    """
    return np.einsum("ij,ij->i", rows if model.identity_metric else rows @ model.metric, rows)


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
    the leak) count as zero.  W_perp is the null space of w_basis* M.  A metric
    so ill-conditioned that the two bases do not span R^n is a ModelError.
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
    # w_basis^T M has full row rank dim W (w_basis^T M w_basis = I); for dim W = 0
    # the SVD of the 0-by-n matrix gives V = I
    dim_w = w_basis.shape[1]
    _, _, vt = linalg.svd(w_basis.T @ model.metric)
    wperp_basis = _metric_orthonormalize(vt[dim_w:].T, model.metric)
    if dim_w + wperp_basis.shape[1] != n:
        raise ModelError(
            f"unobservable_subspace: dim W {dim_w} + dim W_perp {wperp_basis.shape[1]} != {n}; "
            f"the metric (condition number {np.linalg.cond(model.metric):.3g}) is too "
            "ill-conditioned to split the space")
    projection = wperp_basis @ (wperp_basis.T @ model.metric)
    return DecompositionResult(w_basis=w_basis, wperp_basis=wperp_basis, projection=projection)


def decomposition_from_axes(model: ModalModel, w_axes: tuple[int, ...]) -> DecompositionResult:
    """Exact decomposition when W is spanned by coordinate axes of an identity metric.

    The projector is then an exact 0/1 diagonal mask, so P(y + w) == Py holds
    bit-for-bit for states w supported on the W axes.
    """
    n = model.dim
    if not _is_identity(model.metric):
        raise ModelError("axis-aligned decomposition requires the identity metric")
    w_axes = sorted(w_axes)
    mask = np.ones(n)   # 1 on the W_perp axes, 0 on the W axes
    mask[w_axes] = 0.0
    eye = np.eye(n)
    return DecompositionResult(w_basis=eye[:, w_axes], wperp_basis=eye[:, mask == 1.0],
                               projection=np.diag(mask))


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
    return CheckReport(
        "H1",
        worst < H1_TOL,
        {
            "invariance_residual": worst,
            "worst_column": worst_column,
            "generator_symmetric": model.generator_symmetric,
            "generator_skew": model.generator_skew,
        },
    )


def compute_gamma(model: ModalModel, dec: DecompositionResult, control: CheckReport) -> float:
    """Largest gamma with gamma <Bx,x> <= ||Bx||^2 on W_perp.

    For a self-adjoint PSD B that vanishes on W, B's least positive eigenvalue,
    read from control = validate_control_operator(model) with no solver.
    """
    if not control.passed:
        raise ModelError("compute_gamma requires a self-adjoint PSD control operator")
    if dec.dim_wperp == 0:
        return 1.0
    gamma = control.details["min_positive_eigenvalue"]
    if gamma is None:
        raise ModelError("control operator vanishes on W_perp")
    return gamma


def gamma_certificate(model: ModalModel, dec: DecompositionResult,
                      control: CheckReport) -> CheckReport:
    """Exact report on gamma: it exists, and B vanishes on W (else gamma is not B's
    least eigenvalue on W_perp).  A W from the recursion keeps b_on_w_residual =
    ||B w_basis||_F / (||B||_F ||w_basis||_F) within KERNEL_RTOL.  dim_ker_b_wperp,
    the dimension of ker B in W_perp, is reported, not judged.
    """
    try:
        gamma = compute_gamma(model, dec, control)
    except ModelError as exc:
        return CheckReport("gamma_certificate", False, {"gamma": None, "error": str(exc)})
    if dec.dim_wperp == 0:
        return CheckReport("gamma_certificate", True, {"dim_wperp": 0})
    B = _effective_control_matrix(model)
    norm_b = float(np.linalg.norm(B))
    norm_w = float(np.linalg.norm(dec.w_basis)) or 1.0   # W = {0} leaves a zero residual
    b_on_w = float(np.linalg.norm(B @ dec.w_basis)) / (norm_b * norm_w)
    return CheckReport(
        "gamma_certificate",
        b_on_w <= B_ON_W_TOL,
        {"gamma": gamma, "gamma_over_norm_b": gamma / norm_b, "b_on_w_residual": b_on_w,
         "dim_ker_b_wperp": control.details["dim_ker_b"] - dec.dim_w},
    )


@_solver_errors
def check_H2(model: ModalModel, dec: DecompositionResult, phi, dead_zone: float,
             samples: int = 256, seed: int = 0) -> CheckReport:
    """Certificate for <Ay,By> <= phi(y) ||By||^2 on W_perp.

    A Zero or Constant phi is decided exactly by a generalized eigenvalue
    problem (needed_phi = inf when ker(B) and range(B) couple inside W_perp).
    Any other phi, evaluated by the kernel with the law's dead zone, gets a
    seeded Monte-Carlo margin; worst_sample is the draw with the least margin.
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
    if phi.kind in ("Zero", "Constant"):
        constant_value = float(kernels.phi_value(phi, Q[:, 0], dead_zone))
        needed = _exact_constant_phi(A, B, M, Q)
        return CheckReport("H2", bool(needed != np.inf and constant_value >= needed - H2_TOL),
                           {"needed_phi": needed, "phi_constant": constant_value})
    rng = np.random.default_rng(seed)
    # one row per sample: y = Q c normalised in the metric
    ys = rng.standard_normal((samples, k)) @ Q.T
    ys /= np.maximum(np.sqrt(np.maximum(_metric_normsq(ys, model), 0.0)), 1e-300)[:, None]
    bys = ys @ B.T
    pairing = np.einsum("ij,ij->i", (ys @ A.T) @ M, bys)
    phi_y = kernels.phi_value(phi, ys, dead_zone)
    margins = phi_y * _metric_normsq(bys, model) - pairing
    worst_sample = int(np.argmin(margins))
    min_margin = margins[worst_sample]
    # Lipschitz quotients of y -> phi(y) B y between consecutive draws
    dist = np.sqrt(np.maximum(_metric_normsq(np.diff(ys, axis=0), model), 0.0))
    dfs = np.diff((phi_y * bys.T).T, axis=0)
    apart = dist > 1e-12
    lipschitz = float(np.max(np.sqrt(np.maximum(_metric_normsq(dfs[apart], model), 0.0))
                             / dist[apart], initial=0.0))
    return CheckReport("H2", bool(min_margin >= -H2_TOL),
                       {"min_margin": float(min_margin), "worst_sample": worst_sample,
                        "lipschitz_estimate": lipschitz})


def _exact_constant_phi(A: np.ndarray, B: np.ndarray, M: np.ndarray, Q: np.ndarray) -> float:
    """Smallest constant phi with <Ay,By> <= phi ||By||^2 on W_perp, or inf."""
    S = A.T @ M @ B
    S = 0.5 * (S + S.T)
    G = B.T @ M @ B
    S_r = Q.T @ S @ Q
    G_r = Q.T @ G @ Q
    G_r = 0.5 * (G_r + G_r.T)
    evals, evecs = linalg.eigh(G_r)
    tol = 1e-12 * max(evals.max(), 0.0)
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
