"""Unobservable-subspace decomposition and hypothesis certification.

W is the set of states invisible to the control pairing: B e^{tA} x = 0 for
all t, i.e. the largest A-invariant subspace of ker B.  It is found by one
routine, never by powers of A, on the Cholesky basis M = L L^T, where the
metric is the identity.  The space is cut into clusters, and W is the sum over
the clusters of the largest A-invariant subspace of ker B inside each (the
Hautus test; Hautus 1969); W_perp is the rest of each cluster.  The route
names how the clusters are cut:

- spectral, for A symmetric or skew in the metric: A's eigenvalue clusters,
  read from one eigendecomposition;
- recursion, for any other A: the whole space is one cluster.

Inside a cluster, ker B comes from one SVD and its largest A-invariant
subspace from the recursion W_0 = ker B, W_{k+1} = {x in W_k : Ax in W_k} on
orthonormal bases (Van Dooren 1981).  Its error grows with the number of
steps, which is up to n for a rank-one B on the recursion route.

The state space splits as W + W_perp (metric-orthogonal); the projector P
onto W_perp and the positivity constant gamma drive the settling bounds.

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
B_ON_W_TOL = 2.0 * KERNEL_RTOL   # a computed W stays within KERNEL_RTOL; 2x for roundoff
CLUSTER_RTOL = 1e-10   # eigenvalues within CLUSTER_RTOL max|lambda| of a neighbour: one cluster


# every SVD and eigensolver here is looked up through this one name, so this
# module's solvers can be replaced without touching the model checks' own
linalg = np.linalg


@dataclass(frozen=True)
class DecompositionResult:
    w_basis: np.ndarray        # (n, dim W), metric-orthonormal columns
    wperp_basis: np.ndarray    # (n, dim W_perp), metric-orthonormal columns
    projection: np.ndarray     # (n, n) metric-orthogonal projector onto W_perp
    route: str                 # how W was found: "axes", "spectral" or "recursion"
    gamma: float | None = None

    @property
    def dim_w(self) -> int:
        return self.w_basis.shape[1]

    @property
    def dim_wperp(self) -> int:
        return self.wperp_basis.shape[1]


def _metric_normsq(rows: np.ndarray, model: ModalModel) -> np.ndarray:
    """<x, M x> for each row x, in the model's metric M.

    One BLAS product and a row-wise einsum: a three-operand einsum does the
    n^2 work of every row in its own loop (9.5 ms against 0.2 ms for 1001
    rows at n = 128 on a 2-vCPU x86 host).  M = I needs no product.
    """
    return np.einsum("ij,ij->i", rows if model.identity_metric else rows @ model.metric, rows)


def _kernel_split(mat: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the right singular vectors with sigma <= cutoff (the
    kernel) and with sigma > cutoff (the rest).  The thin SVD holds every right
    singular vector unless mat has fewer rows than columns."""
    _, sv, vt = linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T, vt[:rank].T


def _largest_invariant(A: np.ndarray, w: np.ndarray,
                       leak_cutoff: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """The largest A-invariant subspace of span(w), w with orthonormal columns, by
    the invariant-subspace recursion, and the pieces of span(w) it dropped.

    Each step keeps the x in span(w) whose image Ax stays in it: the kernel of
    the leak (I - w w^T) A w at leak_cutoff.  The dimension falls at every step
    until span(w) is A-invariant.
    """
    dropped = []
    while w.shape[1]:
        image = A @ w
        leak = image - w @ (w.T @ image)
        kept, leaking = _kernel_split(leak, leak_cutoff)
        if not leaking.shape[1]:
            break
        dropped.append(w @ leaking)
        w = w @ kept
    return w, dropped


@_solver_errors
def unobservable_subspace(model: ModalModel) -> DecompositionResult:
    """Metric-orthonormal bases of W and W_perp plus the projector onto W_perp.

    With M = L L^T, A_hat = L^T A L^-T and B_hat = L^T B L^-T act on coordinates
    in which M is the identity (M = I needs no change of basis).  The spectral
    route's clusters are the eigenspaces of A_hat (symmetric) or of A_hat^T A_hat
    (skew: A's real invariant planes), grouped by CLUSTER_RTOL: one B never sees
    lies in W, a seen one of one eigenvector in W_perp.  Any other cluster, and
    on the recursion route the whole space, splits by the SVD of its block of
    B_hat and the recursion; what either drops lies in W_perp.  The bases map
    back by V = L^-T V_hat, so they are M-orthonormal and span R^n together.
    Singular values at or below KERNEL_RTOL times the Frobenius norm of B_hat
    (for ker B) or of A_hat (for the leak) count as zero.
    """
    n = model.dim
    A, B = model.generator, _effective_control_matrix(model)
    if model.metric_factor is None:
        A_hat, B_hat = A, B
    else:
        L, L_inv_t = model.metric_factor
        A_hat, B_hat = L.T @ A @ L_inv_t, L.T @ B @ L_inv_t
    b_cutoff = KERNEL_RTOL * np.linalg.norm(B_hat)
    if model.generator_symmetric or model.generator_skew:
        route, skew = "spectral", not model.generator_symmetric
        # the part of A_hat that the model's flag certifies
        A_hat = 0.5 * (A_hat - A_hat.T) if skew else 0.5 * (A_hat + A_hat.T)
        lam, V_hat = linalg.eigh(A_hat.T @ A_hat if skew else A_hat)
        BV = B_hat @ V_hat
        gap = CLUSTER_RTOL * max(abs(lam[0]), abs(lam[-1]))
        starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > gap)   # each cluster's first column
        sizes = np.diff(starts, append=n)
        # a cluster's block B_hat V_c at or below the ker B cutoff in Frobenius norm
        # is ker B on the SVD's rule too (sigma_max <= ||.||_F, equal for one column)
        seen = np.add.reduceat(np.linalg.norm(BV, axis=0) ** 2, starts) > b_cutoff ** 2
        single = sizes == 1
        w_parts = [V_hat[:, np.repeat(~seen, sizes)]]
        wperp_parts = [V_hat[:, np.repeat(seen & single, sizes)]]
        clusters = []
        for start, size in zip(starts[seen & ~single], sizes[seen & ~single]):
            Vc = V_hat[:, start:start + size]
            clusters.append((Vc, Vc.T @ A_hat @ Vc, BV[:, start:start + size]))
    else:
        # one cluster on the coordinates themselves: no basis to multiply by
        route, w_parts, wperp_parts, clusters = "recursion", [], [], [(None, A_hat, B_hat)]
    leak_cutoff = KERNEL_RTOL * np.linalg.norm(A_hat)
    for Vc, A_c, B_c in clusters:
        kernel, rest = _kernel_split(B_c, b_cutoff)
        w_c, dropped = _largest_invariant(A_c, kernel, leak_cutoff)
        wperp_c = np.hstack([rest, *dropped])
        w_parts.append(w_c if Vc is None else Vc @ w_c)
        wperp_parts.append(wperp_c if Vc is None else Vc @ wperp_c)
    w_basis, wperp_basis = np.hstack(w_parts), np.hstack(wperp_parts)
    if model.metric_factor is not None:
        w_basis, wperp_basis = L_inv_t @ w_basis, L_inv_t @ wperp_basis
    wperp_t = wperp_basis.T if model.identity_metric else wperp_basis.T @ model.metric
    return DecompositionResult(w_basis=w_basis, wperp_basis=wperp_basis,
                               projection=wperp_basis @ wperp_t, route=route)


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
                               projection=np.diag(mask), route="axes")


def check_H1(model: ModalModel, dec: DecompositionResult) -> CheckReport:
    """Invariance of W_perp under A (semigroup invariance for matrix generators).

    invariance_residual is the largest metric norm of the part of Av outside
    W_perp over the W_perp basis vectors v, relative to the largest ||Av||.
    """
    A = model.generator
    M = model.metric
    P = dec.projection
    # one row per W_perp basis vector v: metric norm of the part of Av outside W_perp
    images = (A @ dec.wperp_basis).T
    leaks = images - images @ P.T
    leak_norm = np.sqrt(np.maximum(np.sum((leaks @ M) * leaks, axis=1), 0.0))
    image_norm = np.sqrt(np.maximum(np.sum((images @ M) * images, axis=1), 0.0))
    # relative to the largest image, not per column: a column that A (nearly)
    # annihilates would read its roundoff as a leak.  A = 0 on W_perp leaks nothing.
    residuals = leak_norm / (float(np.max(image_norm, initial=0.0)) or 1.0)
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
    least eigenvalue on W_perp).  A W from either route keeps b_on_w_residual =
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
        coupling = 1e-9 * np.linalg.norm(S_r)
        if np.max(np.abs(cross)) > coupling or np.max(np.abs(ker_diag)) > coupling:
            return np.inf
    reduced = (U_pos / np.sqrt(evals[pos])).T @ S_r @ (U_pos / np.sqrt(evals[pos]))
    reduced = 0.5 * (reduced + reduced.T)
    lam = float(np.max(linalg.eigvalsh(reduced)))
    return max(lam, 0.0)
