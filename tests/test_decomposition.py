import json

import numpy as np
import pytest
import scipy.linalg

from finstab import (DEFAULT_DEAD_ZONE, FrontendSpec, ModalModel, ModelError, PhiSpec,
                     build_frontend, check_H1, check_H2, compute_gamma,
                     gamma_certificate, model_from_json,
                     unobservable_subspace, validate_control_operator)
from finstab import kernels
from finstab.decomposition import decomposition_from_axes
from finstab.integrator import clamp_projector


def gamma_of(model, dec):
    return compute_gamma(model, dec, validate_control_operator(model))


def bilinear(A, B, M=None):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return ModalModel(dim=n, metric=np.eye(n) if M is None else np.asarray(M, float),
                      generator=A, control_op=np.asarray(B, float))


def sampled_kernel(model, times=np.linspace(0.1, 2.3, 9)):
    # independent oracle: W is the kernel of t -> B exp(At), sampled on a grid
    B = model.control_op if model.control_op is not None else \
        model.input_map @ model.input_map.T @ model.metric
    rows = [B]
    for t in times:
        rows.append(B @ scipy.linalg.expm(model.generator * t))
    stacked = np.vstack(rows)
    _, sv, vt = np.linalg.svd(stacked)
    tol = 1e-10 * max(sv[0], 1.0)
    rank = int(np.sum(sv > tol))
    return vt[rank:].T


def angles(U, V):
    if U.shape[1] != V.shape[1]:
        return np.pi / 2.0
    if U.shape[1] == 0:
        return 0.0
    return float(np.max(scipy.linalg.subspace_angles(U, V)))


def test_diagonal_heat_like_subspace():
    model = bilinear(np.diag([-1.0, -4.0, -9.0]), np.diag([0.0, 1.0, 1.0]))
    dec = unobservable_subspace(model)
    assert dec.dim_w == 1 and dec.dim_wperp == 2
    assert angles(dec.w_basis, np.eye(3)[:, :1]) < 1e-12
    assert np.allclose(dec.projection, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    assert angles(dec.w_basis, sampled_kernel(model)) < 1e-8


def test_fully_observable_when_control_is_definite():
    model = bilinear(np.diag([-1.0, -4.0]), np.eye(2))
    dec = unobservable_subspace(model)
    assert dec.dim_w == 0
    assert np.array_equal(dec.projection, np.eye(2))


def test_kernel_of_b_alone_is_not_enough():
    # ker B = e2 is not A-invariant here, so W must be trivial
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    model = bilinear(A, np.diag([1.0, 0.0]))
    dec = unobservable_subspace(model)
    assert dec.dim_w == 0
    assert sampled_kernel(model).shape[1] == 0


def planted(n, nw, seed):
    rng = np.random.default_rng(seed)
    k = n - nw
    # upper-right block zero keeps the last nw axes invariant; B vanishes
    # there and is definite on the complement, so W is exactly that span
    A = rng.standard_normal((n, n))
    A[:k, k:] = 0.0
    C = rng.standard_normal((k, k))
    B = np.zeros((n, n))
    B[:k, :k] = C @ C.T + 0.1 * np.eye(k)
    rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return bilinear(rot @ A @ rot.T, rot @ B @ rot.T), rot[:, k:]


def test_planted_rotated_subspace_recovered():
    model, w_true = planted(6, 2, seed=5)
    dec = unobservable_subspace(model)
    assert dec.dim_w == 2
    assert angles(dec.w_basis, w_true) < 1e-8
    assert angles(dec.w_basis, sampled_kernel(model)) < 1e-8


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_planted_rotated_subspace_recovered_at_larger_sizes(n, seed):
    model, w_true = planted(n, n // 4, seed)
    dec = unobservable_subspace(model)
    assert dec.dim_w == n // 4
    assert angles(dec.w_basis, w_true) < 1e-8


def assert_exact_split(model, dec, dim_w):
    """dim W, W invariant under A and B vanishing on W, each relative to the operator."""
    A, M = model.generator, model.metric
    B = model.control_op
    W = dec.w_basis
    assert (dec.dim_w, dec.dim_wperp) == (dim_w, model.dim - dim_w)
    assert np.linalg.norm(A @ W - W @ (W.T @ M @ A @ W)) <= 1e-12 * np.linalg.norm(A)
    assert np.linalg.norm(B @ W) <= 1e-12 * np.linalg.norm(B)


def _point_actuator(x0, n):
    # b_j = sqrt(2) sin(j pi x0), with exact zeros where j x0 is an integer
    j = np.arange(1, n + 1)
    b = np.sqrt(2.0) * np.sin(j * np.pi * x0)
    b[np.isclose(j * x0, np.round(j * x0))] = 0.0
    return np.outer(b, b)


@pytest.mark.parametrize("x0, n, dim_w", [
    (0.5, 32, 16), (0.5, 64, 32), (0.5, 128, 64),
    (1.0 / 3.0, 32, 10), (1.0 / 3.0, 64, 21), (1.0 / 3.0, 128, 42),
])
def test_heat_point_actuator_keeps_every_unseen_mode(x0, n, dim_w):
    # B = b b^T sees mode j iff b_j != 0, so dim W counts the zeros of b
    model = bilinear(np.diag(-(np.arange(1, n + 1) * np.pi) ** 2), _point_actuator(x0, n))
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, dim_w)


@pytest.mark.parametrize("n", [32, 64])
def test_planted_symmetric_family_with_a_rank_one_b(n):
    # A = Q diag(lambda) Q^T, W = 5 columns of Q, and b sees every other column
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = -n * rng.random(n)
    b = Q[:, 5:] @ (1.0 + rng.random(n - 5))
    model = bilinear(Q @ np.diag(lam) @ Q.T, np.outer(b, b))
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, 5)
    assert angles(dec.w_basis, Q[:, :5]) < 1e-12


@pytest.mark.parametrize("m, dim_w", [(6, 15), (8, 30)])
@pytest.mark.parametrize("rotated", [False, True])
def test_heat2d_point_actuator_splits_each_repeated_eigenvalue(m, dim_w, rotated):
    # Dirichlet sines on the unit square: lambda_jk = -pi^2 (j^2 + k^2) repeats,
    # and b_jk = 2 sin(j pi 0.3) sin(k pi 0.3) sees one direction of each
    # eigenspace, so dim W = n - (number of distinct eigenvalues)
    j, k = np.divmod(np.arange(m * m), m) + np.ones((2, 1), dtype=int)
    A = np.diag(-np.pi ** 2 * (j ** 2 + k ** 2))
    b = 2.0 * np.sin(j * np.pi * 0.3) * np.sin(k * np.pi * 0.3)
    B = np.outer(b, b)
    if rotated:
        Q, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((m * m, m * m)))
        A, B = Q @ A @ Q.T, Q @ B @ Q.T
    model = bilinear(A, B)
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, dim_w)


def test_rotated_skew_generator_with_a_repeated_frequency_and_a_zero_pair():
    # canonical planes: omega = 1 twice (axes 0-3), omega = 2 (axes 4, 5) and
    # A = 0 on axes 6, 7.  B sees e0 - e2, e4 and e6: W is the plane
    # span(e0 + e2, e1 + e3) of the repeated frequency plus e7
    J = np.zeros((8, 8))
    for (p, q), omega in zip([(0, 1), (2, 3), (4, 5)], [1.0, 1.0, 2.0]):
        J[p, q], J[q, p] = omega, -omega
    eye = np.eye(8)
    C = np.column_stack([eye[0] - eye[2], eye[4], eye[6]])
    W = np.column_stack([eye[0] + eye[2], eye[1] + eye[3], eye[7]])
    Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
    model = bilinear(Q @ J @ Q.T, Q @ C @ C.T @ Q.T)
    assert model.generator_skew
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, 3)
    assert angles(dec.w_basis, Q @ W) < 1e-12


def _planted_in_metric(n, dim_w, skew, seed):
    """A symmetric (or skew) in a general metric M with a planted W, and a rank-one
    M-self-adjoint B that sees every eigenvector (or plane) outside W."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    M = R @ R.T + n * np.eye(n)
    # V M-orthonormal: V^T M V = I, so A = V D V^T M is M-symmetric (M-skew) with D
    V = np.linalg.solve(np.linalg.cholesky(M).T, np.linalg.qr(rng.standard_normal((n, n)))[0])
    freqs = np.sort(1.0 + (n - 1.0) * rng.random(n))
    if skew:
        D = np.zeros((n, n))
        D[np.arange(0, n, 2), np.arange(1, n, 2)] = freqs[::2]
        D = D - D.T
    else:
        D = np.diag(-freqs)
    c = V[:, dim_w:] @ (1.0 + rng.random(n - dim_w))
    model = ModalModel(dim=n, metric=M, generator=V @ D @ V.T @ M,
                       control_op=np.outer(c, c) @ M)
    return model, V[:, :dim_w]


@pytest.mark.parametrize("n", [6, 12, 20])
@pytest.mark.parametrize("skew", [False, True])
def test_planted_w_under_a_general_metric(n, skew):
    dim_w = 2 * (n // 6) if skew else n // 3
    model, w_true = _planted_in_metric(n, dim_w, skew, seed=n + skew)
    assert (model.generator_skew, model.generator_symmetric) == (skew, not skew)
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, dim_w)
    assert angles(dec.w_basis, w_true) < 1e-12
    assert np.linalg.norm(dec.w_basis.T @ model.metric @ dec.wperp_basis) < 1e-12
    P = dec.projection
    assert np.linalg.norm(P @ P - P) < 1e-12 * np.linalg.norm(P)


def test_a_merged_cluster_keeps_the_eigenvector_b_never_sees():
    # lambda = -3 and -3 - 1e-12 fall within the cluster gap 1e-10 * 10; B sees
    # the first of the pair but not the second, which stays in W with q(-7)
    lam = np.array([-10.0, -7.0, -5.0, -3.0, -3.0 - 1e-12, -1.0])
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))
    seen = Q[:, [0, 2, 3, 5]]
    model = bilinear(Q @ np.diag(lam) @ Q.T, seen @ seen.T)
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert_exact_split(model, dec, 2)
    assert angles(dec.w_basis, Q[:, [1, 4]]) < 1e-10


@pytest.mark.parametrize("scale", [1e-11, 1.0])
def test_a_nilpotent_generator_keeps_its_kernel_at_every_scale(scale):
    # A e1 = 0 and B e1 = 0, so W = span(e1); A is non-normal at every scale,
    # and its symmetric part's eigenvectors (e1 +- e2)/sqrt(2) are both seen by B
    model = bilinear(scale * np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0]))
    assert not (model.generator_symmetric or model.generator_skew)
    dec = unobservable_subspace(model)
    assert dec.route == "recursion"
    assert_exact_split(model, dec, 1)
    assert angles(dec.w_basis, np.eye(2)[:, :1]) < 1e-12


def test_a_cluster_is_ker_b_by_the_svd_of_its_block():
    # lambda = -1 twice; B = diag(0, 0, 1) + c (e1 + e2)(e1 + e2)^T with c = 0.6e-10:
    # each column of B on the cluster has norm 0.85e-10, below the cutoff
    # 1e-10 ||B||_F, but the block has sigma 1.2e-10 and 0, so ker B meets the
    # cluster in e1 - e2 alone, as B's own spectrum counts it
    c = 0.6e-10
    B = np.diag([0.0, 0.0, 1.0]) + c * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    model = bilinear(np.diag([-1.0, -1.0, -2.0]), B)
    control = validate_control_operator(model)
    dec = unobservable_subspace(model)
    assert dec.route == "spectral"
    assert (control.details["dim_ker_b"], dec.dim_w) == (1, 1)
    assert angles(dec.w_basis, np.array([[1.0], [-1.0], [0.0]]) / np.sqrt(2.0)) < 1e-12
    assert gamma_certificate(model, dec, control).details["dim_ker_b_wperp"] == 0


def test_each_decomposition_names_its_route():
    A = np.diag([-1.0, -2.0, -3.0])
    B = np.diag([0.0, 1.0, 1.0])
    assert unobservable_subspace(bilinear(A, B)).route == "spectral"
    assert decomposition_from_axes(bilinear(A, B), (0,)).route == "axes"
    A[0, 1] = 1.0
    assert unobservable_subspace(bilinear(A, B)).route == "recursion"


@pytest.mark.parametrize("kind, n_modes, extra", [
    ("Heat1D", 8, {}), ("Heat1D", 32, {}), ("Heat1D", 128, {}),
    ("Wave1D", 8, {"q": 3}), ("Wave1D", 32, {"q": 3}), ("Wave1D", 64, {"q": 3}),
    ("Beam1D", 8, {"h_coeffs": (1.0, 0.5)}), ("Beam1D", 32, {"h_coeffs": (1.0, 0.5)}),
    ("Beam1D", 64, {"h_coeffs": (1.0, 0.5)}),
])
def test_front_end_matrices_recover_the_axis_decomposition(kind, n_modes, extra):
    # the matrices config route: the front end's model serialised and parsed back
    bundle = build_frontend(FrontendSpec(kind=kind, n_modes=n_modes, **extra))
    m = bundle.model
    doc = {"dim": m.dim, "metric": m.metric.tolist(), "generator": m.generator.tolist()}
    if m.control_op is not None:
        doc["control_op"] = m.control_op.tolist()
    else:
        doc["input_map"] = m.input_map.tolist()
    model = model_from_json(json.loads(json.dumps(doc)))
    dec = unobservable_subspace(model)
    assert dec.dim_w == len(bundle.w_axes)
    assert angles(dec.w_basis, bundle.dec.w_basis) < 1e-8


def test_projector_is_metric_orthogonal():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + 4.0 * np.eye(4)
    A = np.diag([-1.0, -2.0, -3.0, -4.0])
    Bsym = np.zeros((4, 4))
    Bsym[2:, 2:] = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = scipy.linalg.solve(M, Bsym, assume_a="pos")  # M-self-adjoint PSD
    model = bilinear(A, B, M=M)
    dec = unobservable_subspace(model)
    P = dec.projection
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(P.T @ M, M @ P, atol=1e-10)  # self-adjoint in the metric
    assert np.allclose(P @ dec.w_basis, 0.0, atol=1e-10)
    assert np.allclose(P @ dec.wperp_basis, dec.wperp_basis, atol=1e-10)
    assert angles(dec.w_basis, sampled_kernel(model)) < 1e-8


def test_decomposition_from_axes_is_exact():
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 1.0, 1.0]))
    dec = decomposition_from_axes(model, (0,))
    assert np.array_equal(dec.projection, np.diag([0.0, 1.0, 1.0]))
    assert np.array_equal(dec.w_basis, np.eye(3)[:, :1])


def test_h1_holds_for_invariant_complement():
    model = bilinear(np.diag([-1.0, -4.0]), np.diag([0.0, 1.0]))
    report = check_H1(model, unobservable_subspace(model))
    assert report.passed
    assert report.details["generator_symmetric"]
    assert not report.details["generator_skew"]


def test_h1_fails_when_complement_leaks():
    # A maps W_perp = e1 partly into W = e2
    A = np.array([[-1.0, 0.0], [1.0, -2.0]])
    model = bilinear(A, np.diag([1.0, 0.0]))
    dec = decomposition_from_axes(model, (1,))
    report = check_H1(model, dec)
    assert not report.passed
    assert report.details["invariance_residual"] > 1e-3
    assert report.details["worst_column"] == 0
    # W_perp = span(e1, e2) where only A e2 leaks into W = e3
    A3 = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 1.0, -3.0]])
    model3 = bilinear(A3, np.diag([1.0, 1.0, 0.0]))
    report3 = check_H1(model3, decomposition_from_axes(model3, (2,)))
    assert not report3.passed
    assert report3.details["worst_column"] == 1


def test_gamma_is_smallest_positive_eigenvalue_on_complement():
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]))
    dec = unobservable_subspace(model)
    assert gamma_of(model, dec) == pytest.approx(2.0, rel=1e-12)


def test_gamma_with_nontrivial_metric():
    M = np.diag([1.0, 1.0, 4.0])
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]), M=M)
    dec = unobservable_subspace(model)
    assert gamma_of(model, dec) == pytest.approx(2.0, rel=1e-12)


def test_gamma_scales_with_the_square_of_the_input_map():
    # B = L L* for an input map, so scaling L by s scales gamma by s^2; at
    # s = 1e3 under a non-identity metric, B's roundoff alone exceeds an
    # absolute self-adjointness tolerance, which must not be applied here
    rng = np.random.default_rng(3)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + 4.0 * np.eye(4)
    L = rng.standard_normal((4, 2))

    def gamma(s):
        model = ModalModel(dim=4, metric=M, generator=-np.diag([1.0, 2.0, 3.0, 4.0]),
                           input_map=s * L)
        return gamma_of(model, unobservable_subspace(model))

    assert gamma(1e3) == pytest.approx(1e6 * gamma(1.0), rel=1e-10)


def test_gamma_certificate_verdict_does_not_depend_on_the_scale_of_the_input_map():
    # at L -> 1e3 L, ||B||_F reaches ~1e7 and at L -> 1e-3 L it falls to ~1e-5;
    # the report and gamma / ||B||_F are relative, so neither moves
    for seed in range(20):
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((4, 4))
        M = R @ R.T + 4.0 * np.eye(4)
        L = rng.standard_normal((4, 2))
        relative = []
        for s in (1.0, 1e3, 1e-3):
            model = ModalModel(dim=4, metric=M, generator=-np.diag([1.0, 2.0, 3.0, 4.0]),
                               input_map=s * L)
            dec = unobservable_subspace(model)
            report = gamma_certificate(model, dec, validate_control_operator(model))
            assert report.passed, (seed, s)
            assert report.details["dim_ker_b_wperp"] == 2
            relative.append(report.details["gamma_over_norm_b"])
        assert relative == pytest.approx([relative[0]] * 3, rel=1e-9)


def test_gamma_rejects_bad_control_operators():
    model = bilinear(np.diag([-1.0, -2.0]), np.diag([1.0, -1.0]))
    with pytest.raises(ModelError):
        gamma_of(model, decomposition_from_axes(model, ()))
    vanishing = bilinear(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
    with pytest.raises(ModelError):
        gamma_of(vanishing, decomposition_from_axes(vanishing, ()))


def test_gamma_certificate_fails_when_b_does_not_vanish_on_w():
    bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=8))
    model = bundle.model
    control = validate_control_operator(model)
    good = gamma_certificate(model, bundle.dec, control)
    assert good.passed
    assert good.details == {"gamma": 1.0, "gamma_over_norm_b": 1.0 / np.sqrt(7.0),
                            "b_on_w_residual": 0.0, "dim_ker_b_wperp": 0}
    # W given as the observable mode 2: B e2 = e2, so ||B W|| / (||B|| ||W||) = 1/sqrt(7)
    bad = gamma_certificate(model, decomposition_from_axes(model, (1,)), control)
    assert not bad.passed
    assert bad.details["b_on_w_residual"] == pytest.approx(1.0 / np.sqrt(7.0), rel=1e-15)
    # dim ker B - dim W counts ker B in W_perp only when W lies in ker B: here
    # ker B = mode 1 lies in W_perp, yet the count reads 0, so the report fails
    assert bad.details["dim_ker_b_wperp"] == 0


def test_c7_gamma_oracle_rejects_a_wrong_gamma():
    from finstab.suite import (_gamma_matches_oracle, _oracle_gamma, _random_system,
                               _time_sampled_kernel)

    for i in range(0, 50, 7):
        model, _ = _random_system(i)
        dec = unobservable_subspace(model)
        gamma = gamma_of(model, dec)
        oracle_gamma = _oracle_gamma(model, _time_sampled_kernel(model))
        assert _gamma_matches_oracle(gamma, oracle_gamma), i
        assert not _gamma_matches_oracle(1.5 * gamma, oracle_gamma)
        assert not _gamma_matches_oracle(0.5 * gamma, oracle_gamma)


@pytest.mark.parametrize("kind, extra, dim_ker_wperp", [
    ("Heat1D", {}, 0), ("Wave1D", {"q": 3}, 3),
    ("Beam1D", {"h_coeffs": (1.0, 0.5)}, 3), ("Beam1D", {"h_coeffs": (1.0,)}, 1),
])
def test_gamma_certificate_reports_where_b_vanishes_on_w_perp(kind, extra, dim_ker_wperp):
    for n_modes in (8, 32):
        bundle = build_frontend(FrontendSpec(kind=kind, n_modes=n_modes, **extra))
        report = gamma_certificate(bundle.model, bundle.dec,
                                   validate_control_operator(bundle.model))
        assert report.passed   # reported, not judged
        assert report.details["dim_ker_b_wperp"] == dim_ker_wperp


def _localized_heat(n, a=0.2, b=0.5):
    # B_jk = 2 int_a^b sin(j pi x) sin(k pi x) dx, the heat equation actuated on [a, b]
    j = np.arange(1, n + 1)[:, None] * np.pi
    k = np.arange(1, n + 1)[None, :] * np.pi

    def integral_of_cos(w):   # int_a^b cos(w x) dx, with w = 0 on the diagonal
        safe = np.where(w == 0.0, 1.0, w)
        return np.where(w == 0.0, b - a, (np.sin(safe * b) - np.sin(safe * a)) / safe)

    B = integral_of_cos(j - k) - integral_of_cos(j + k)
    return bilinear(np.diag(-(np.arange(1, n + 1) * np.pi) ** 2), 0.5 * (B + B.T))


@pytest.mark.parametrize("n, gamma, dim_ker", [(8, 3.52e-7, 1), (16, 2.91e-9, 4)])
def test_localized_heat_actuator_gamma_is_read_above_the_kernel_cutoff(n, gamma, dim_ker):
    # B is definite in exact arithmetic, but its smallest eigenvalues sink below
    # the ker B cutoff 1e-10 ||B||_F; gamma is
    # the least eigenvalue above it (a 1e-12 max|lambda| cutoff took 7.2e-11
    # at n = 8 and 3.3e-12 at n = 16, both roundoff)
    model = _localized_heat(n)
    control = validate_control_operator(model)
    assert control.passed
    assert control.details["dim_ker_b"] == dim_ker
    dec = unobservable_subspace(model)
    assert dec.dim_w == 0
    assert gamma_of(model, dec) == pytest.approx(gamma, rel=5e-3)
    report = gamma_certificate(model, dec, control)
    assert report.passed
    assert report.details["dim_ker_b_wperp"] == dim_ker


def test_certificates_match_a_per_sample_loop():
    # reference: the certificates computed one W_perp column / one sample at a time
    rng = np.random.default_rng(7)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + 4.0 * np.eye(4)
    Bsym = np.zeros((4, 4))
    Bsym[2:, 2:] = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = scipy.linalg.solve(M, Bsym, assume_a="pos")
    dec = unobservable_subspace(bilinear(np.diag([-1.0, -2.0, -3.0, -4.0]), B, M=M))
    model = bilinear(rng.standard_normal((4, 4)), B, M=M)  # W_perp no longer invariant
    Q, P = dec.wperp_basis, dec.projection
    h1 = [np.sqrt(max((a - P @ a) @ M @ (a - P @ a), 0.0)) / max(1.0, np.sqrt(a @ M @ a))
          for a in (model.generator @ v for v in Q.T)]
    report = check_H1(model, dec)
    assert report.details["invariance_residual"] == pytest.approx(max(h1), rel=1e-12)
    assert report.details["worst_column"] == int(np.argmax(h1))

    # the gamma report: B on each W column, and gamma on W_perp by scipy
    cert = gamma_certificate(model, dec, validate_control_operator(model))
    b_on_w = np.sqrt(sum((B @ w) @ (B @ w) for w in dec.w_basis.T))
    assert cert.details["b_on_w_residual"] == pytest.approx(
        b_on_w / (np.linalg.norm(B) * np.linalg.norm(dec.w_basis)), rel=1e-9, abs=1e-15)
    restricted = Q.T @ M @ B @ Q
    assert cert.details["gamma"] == pytest.approx(
        np.min(scipy.linalg.eigvalsh(0.5 * (restricted + restricted.T))), rel=1e-12)


def _h2_loop(model, dec, phi, dead_zone, samples, seed):
    """Per-sample reference for check_H2: (min_margin, worst_sample, lipschitz_estimate)."""
    A, M, Q = model.generator, model.metric, dec.wperp_basis
    B = model.control_op
    rng = np.random.default_rng(seed)
    margins, points = [], []
    for _ in range(samples):
        y = Q @ rng.standard_normal(Q.shape[1])
        y = y / max(np.sqrt(y @ M @ y), 1e-300)
        by = B @ y
        phi_y = kernels.phi_value(phi, y, dead_zone)
        margins.append(phi_y * (by @ M @ by) - (A @ y) @ M @ by)
        points.append((y, phi_y * by))
    lipschitz = 0.0
    for (y0, f0), (y1, f1) in zip(points, points[1:]):
        dist = np.sqrt(max((y1 - y0) @ M @ (y1 - y0), 0.0))
        if dist > 1e-12:
            lipschitz = max(lipschitz, np.sqrt(max((f1 - f0) @ M @ (f1 - f0), 0.0)) / dist)
    return min(margins), int(np.argmin(margins)), lipschitz


@pytest.mark.parametrize("phi", [PhiSpec("Zero"), PhiSpec("Constant", value=0.4),
                                 PhiSpec("WaveK", cap=3.0, q=2, half=3)])
def test_h2_matches_a_per_sample_loop(phi):
    rng = np.random.default_rng(11)
    R = rng.standard_normal((6, 6))
    M = R @ R.T + 6.0 * np.eye(6)
    Bsym = np.zeros((6, 6))
    Bsym[1:, 1:] = np.diag([2.0, 1.0, 0.5, 1.5, 3.0])
    B = scipy.linalg.solve(M, Bsym, assume_a="pos")
    model = bilinear(rng.standard_normal((6, 6)), B, M=M)
    dec = unobservable_subspace(bilinear(-np.eye(6), B, M=M))
    min_margin, worst, lipschitz = _h2_loop(model, dec, phi, DEFAULT_DEAD_ZONE, 300, 5)
    report = check_H2(model, dec, phi, DEFAULT_DEAD_ZONE, samples=300, seed=5)
    if phi.kind == "WaveK":
        assert report.details["min_margin"] == pytest.approx(min_margin, rel=1e-12)
        assert report.details["worst_sample"] == worst
        assert report.details["lipschitz_estimate"] == pytest.approx(lipschitz, rel=1e-12)
        return
    # a constant phi is decided exactly: the needed constant bounds every sample's
    # ratio <Ay,By> / ||By||^2, and the verdict compares it with phi
    needed = report.details["needed_phi"]
    ys = dec.wperp_basis @ np.random.default_rng(5).standard_normal((dec.dim_wperp, 300))
    ratios = [((model.generator @ y) @ M @ (B @ y)) / ((B @ y) @ M @ (B @ y)) for y in ys.T]
    assert max(ratios) <= needed + 1e-9
    assert report.passed == (report.details["phi_constant"] >= needed - 1e-9)
    assert sorted(report.details) == ["needed_phi", "phi_constant"]
    assert (min_margin < -1e-9) <= (not report.passed)


def test_h2_accepts_dissipative_pairing_with_zero_phi():
    model = bilinear(np.diag([-1.0, -4.0]), np.eye(2))
    dec = unobservable_subspace(model)
    report = check_H2(model, dec, PhiSpec("Zero"), DEFAULT_DEAD_ZONE, samples=128,
                      seed=0)
    assert report.passed
    # pairing is negative everywhere, so no compensation is needed at all
    assert report.details["needed_phi"] == 0.0


def test_h2_exact_constant_threshold():
    # sym(A) = [[-1, 3/2], [3/2, -1]] has top eigenvalue 1/2, the tight constant
    model = bilinear(np.array([[-1.0, 3.0], [0.0, -1.0]]), np.eye(2))
    dec = unobservable_subspace(model)
    tight = check_H2(model, dec, PhiSpec("Constant", value=0.5), DEFAULT_DEAD_ZONE,
                     samples=128, seed=0)
    assert tight.passed
    assert tight.details["needed_phi"] == pytest.approx(0.5, abs=1e-9)
    assert not check_H2(model, dec, PhiSpec("Constant", value=0.4),
                        DEFAULT_DEAD_ZONE, samples=128, seed=0).passed


@pytest.mark.parametrize("s_b", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize("s_m", [1e-20, 1.0, 1e20])
def test_rank_decisions_do_not_depend_on_the_scale_of_m_or_b(s_m, s_b):
    # every rank cutoff is relative to the operator it judges, so scaling the
    # metric or B moves no dimension and no projector
    M = s_m * np.diag([1.0, 2.0, 1.0, 1.0])
    B = s_b * np.diag([0.0, 1.0, 1.0, 1.0])
    model = bilinear(np.diag([-1.0, -4.0, -9.0, -16.0]), B, M=M)
    dec = unobservable_subspace(model)
    control = validate_control_operator(model)
    assert (dec.dim_w, dec.dim_wperp, control.details["dim_ker_b"]) == (1, 3, 1)
    C = clamp_projector(model)
    assert np.trace(C) == pytest.approx(3.0, rel=1e-12)
    assert np.linalg.norm(C @ C - C) <= 1e-12 * np.linalg.norm(C)
    assert np.linalg.norm(M @ C - C.T @ M) <= 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(C @ B - B) <= 1e-12 * np.linalg.norm(B)
    assert gamma_of(model, dec) == pytest.approx(s_b, rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1e-7, 1e-13])
def test_h2_exact_verdict_does_not_depend_on_the_scale_of_b(s):
    # <Ay, By> = s <Ay, y> peaks at 0.5 s |y|^2 on y = e1, where |By|^2 = s^2 |y|^2
    model = bilinear(np.diag([0.5, -1.0]), s * np.eye(2))
    report = check_H2(model, unobservable_subspace(model), PhiSpec("Zero"), DEFAULT_DEAD_ZONE)
    assert not report.passed
    assert report.details["needed_phi"] * s == pytest.approx(0.5, rel=1e-12)


def test_h2_oscillator_cross_coupling_defeats_any_constant():
    # undamped position/velocity pair with control on the velocity only:
    # <Ay, By> = -omega a b while ||By||^2 = b^2, so no constant works
    omega = np.pi
    A = np.array([[0.0, omega], [-omega, 0.0]])
    model = bilinear(A, np.diag([0.0, 1.0]))
    dec = decomposition_from_axes(model, ())
    report = check_H2(model, dec, PhiSpec("Constant", value=7.0), DEFAULT_DEAD_ZONE,
                      samples=128, seed=0)
    assert not report.passed
    assert report.details["needed_phi"] == np.inf


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("target, call", [
    ("numpy.linalg.svd", lambda m, d, c: unobservable_subspace(m)),
    ("numpy.linalg.eigvalsh", lambda m, d, c: validate_control_operator(m)),
    ("numpy.linalg.eigh", lambda m, d, c: unobservable_subspace(m)),   # the metric basis
    ("numpy.linalg.eigh", lambda m, d, c: check_H2(m, d, PhiSpec("Constant", value=0.5),
                                                   DEFAULT_DEAD_ZONE, samples=10)),
])
def test_solver_failure_is_a_model_error(monkeypatch, target, call):
    # B couples its two live axes, so its spectrum is not read off a diagonal;
    # A's entry off the diagonal makes A non-normal, so W is found by the recursion
    A = np.diag([-1.0, -2.0, -3.0])
    A[1, 2] = 1.0
    model = bilinear(A, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    assert unobservable_subspace(model).route == "recursion"
    dec = unobservable_subspace(model)
    control = validate_control_operator(model)   # before the patch: only the call's solver fails
    monkeypatch.setattr(target, _no_convergence)
    with pytest.raises(ModelError, match="did not converge") as info:
        call(model, dec, control)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    # a diagonal B's spectrum is its sorted diagonal: no solver runs
    diagonal = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 1.0, 1.0]))
    assert validate_control_operator(diagonal).details["min_positive_eigenvalue"] == 1.0


@pytest.mark.parametrize("p, q", [(1, 1), (3, 3), (2, 4), (4, 2)])
def test_suite_principal_angles_match_scipy(p, q):
    # c7's oracle angles: sines where cos^2 >= 1/2, cosines elsewhere, so both
    # branches and a near-coincident pair are compared
    from finstab.suite import _principal_angles

    rng = np.random.default_rng(p + 10 * q)
    for scale in (1.0, 1e-3, 1e-11):
        U = rng.standard_normal((7, p))
        V = U[:, :min(p, q)] + scale * rng.standard_normal((7, min(p, q)))
        V = np.hstack([V, rng.standard_normal((7, q - min(p, q)))])
        ref = np.sort(scipy.linalg.subspace_angles(U, V))
        ours = _principal_angles(U, V)
        assert ours.shape == ref.shape
        np.testing.assert_allclose(ours, ref, rtol=1e-8, atol=1e-15)
