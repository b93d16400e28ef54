import numpy as np
import pytest
import scipy.linalg

from finstab import (DEFAULT_DEAD_ZONE, NOT_NILPOTENT, ModalModel, ModelError, PhiSpec,
                     check_H1, check_H2, compute_delta, compute_gamma,
                     decomposition_from_axes, gamma_certificate, unobservable_subspace)


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


def test_planted_rotated_subspace_recovered():
    rng = np.random.default_rng(5)
    n, nw = 6, 2
    k = n - nw
    # upper-right block zero keeps the last nw axes invariant; B vanishes
    # there and is definite on the complement, so W is exactly that span
    A = rng.standard_normal((n, n))
    A[:k, k:] = 0.0
    C = rng.standard_normal((k, k))
    B = np.zeros((n, n))
    B[:k, :k] = C @ C.T + 0.1 * np.eye(k)
    rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
    model = bilinear(rot @ A @ rot.T, rot @ B @ rot.T)
    dec = unobservable_subspace(model)
    assert dec.dim_w == nw
    assert angles(dec.w_basis, rot[:, k:]) < 1e-8
    assert angles(dec.w_basis, sampled_kernel(model)) < 1e-8


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


def test_gamma_is_smallest_positive_eigenvalue_on_complement():
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]))
    dec = unobservable_subspace(model)
    assert compute_gamma(model, dec) == pytest.approx(2.0, rel=1e-12)


def test_gamma_with_nontrivial_metric():
    M = np.diag([1.0, 1.0, 4.0])
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]), M=M)
    dec = unobservable_subspace(model)
    assert compute_gamma(model, dec) == pytest.approx(2.0, rel=1e-12)


def test_gamma_rejects_bad_control_operators():
    model = bilinear(np.diag([-1.0, -2.0]), np.diag([1.0, -1.0]))
    with pytest.raises(ModelError):
        compute_gamma(model, decomposition_from_axes(model, ()))
    vanishing = bilinear(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
    with pytest.raises(ModelError):
        compute_gamma(vanishing, decomposition_from_axes(vanishing, ()))


def test_gamma_certificate_two_sided():
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]))
    dec = unobservable_subspace(model)
    gamma = compute_gamma(model, dec)
    good = gamma_certificate(model, dec, gamma, samples=200, seed=3)
    assert good.passed
    assert good.details["max_violation"] <= 1e-9
    assert good.details["min_ratio"] <= gamma * (1.0 + 1e-6)
    # too large: violated at the minimizing eigendirection
    assert not gamma_certificate(model, dec, 1.5 * gamma, samples=200, seed=3).passed
    # too small: holds everywhere but is no longer attained
    assert not gamma_certificate(model, dec, 0.5 * gamma, samples=200, seed=3).passed


def test_delta_semantics():
    observable = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec0 = unobservable_subspace(observable)
    assert compute_delta(observable, dec0) == 0.0
    mixed = bilinear(np.diag([-1.0, -2.0]), np.diag([0.0, 1.0]))
    dec1 = unobservable_subspace(mixed)
    # a matrix flow restricted to a nontrivial W is injective at every time
    assert compute_delta(mixed, dec1) is NOT_NILPOTENT
    assert compute_delta(mixed, dec1, analytic_delta=1.0) == 1.0
    with pytest.raises(ModelError):
        compute_delta(mixed, dec1, analytic_delta=-0.5)


def test_h2_accepts_dissipative_pairing_with_zero_phi():
    model = bilinear(np.diag([-1.0, -4.0]), np.eye(2))
    dec = unobservable_subspace(model)
    report = check_H2(model, dec, PhiSpec("Zero"), DEFAULT_DEAD_ZONE, samples=128,
                      seed=0)
    assert report.passed
    assert report.details["min_margin"] >= -1e-9
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
