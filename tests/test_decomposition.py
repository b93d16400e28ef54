import json

import numpy as np
import pytest
import scipy.linalg

from finstab import (DEFAULT_DEAD_ZONE, NOT_NILPOTENT, FrontendSpec, ModalModel, ModelError,
                     PhiSpec, build_frontend, check_H1, check_H2, compute_delta,
                     compute_gamma, decomposition_from_axes, gamma_certificate,
                     model_from_json, unobservable_subspace)
from finstab import kernels


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
    assert compute_gamma(model, dec) == pytest.approx(2.0, rel=1e-12)


def test_gamma_with_nontrivial_metric():
    M = np.diag([1.0, 1.0, 4.0])
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 2.0, 5.0]), M=M)
    dec = unobservable_subspace(model)
    assert compute_gamma(model, dec) == pytest.approx(2.0, rel=1e-12)


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
        return compute_gamma(model, unobservable_subspace(model))

    assert gamma(1e3) == pytest.approx(1e6 * gamma(1.0), rel=1e-10)


def test_gamma_certificate_verdict_does_not_depend_on_the_scale_of_the_input_map():
    # at L -> 1e3 L, ||Bx||^2 reaches ~1e14 and its roundoff alone is far
    # above an absolute violation bound of 1e-9; at L -> 1e-3 L a too large
    # gamma violates the bound by less than that
    for seed in range(20):
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((4, 4))
        M = R @ R.T + 4.0 * np.eye(4)
        L = rng.standard_normal((4, 2))
        for s in (1.0, 1e3, 1e-3):
            model = ModalModel(dim=4, metric=M, generator=-np.diag([1.0, 2.0, 3.0, 4.0]),
                               input_map=s * L)
            dec = unobservable_subspace(model)
            gamma = compute_gamma(model, dec)
            assert gamma_certificate(model, dec, gamma, samples=500).passed, (seed, s)
            # and it still fails for a gamma that is too large
            assert not gamma_certificate(model, dec, 1.5 * gamma, samples=500).passed


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
    # the tightest row is the appended minimizing eigendirection, after the 200 draws
    assert good.details["worst_sample"] == 200
    # too large: violated at the minimizing eigendirection
    bad = gamma_certificate(model, dec, 1.5 * gamma, samples=200, seed=3)
    assert not bad.passed
    assert bad.details["max_violation"] > 0.0
    assert bad.details["worst_sample"] == 200
    # too small: holds everywhere but is no longer attained
    assert not gamma_certificate(model, dec, 0.5 * gamma, samples=200, seed=3).passed


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

    gamma = compute_gamma(model, dec)
    coeffs = np.random.default_rng(4).standard_normal((300, Q.shape[1]))
    restricted = Q.T @ M @ B @ Q
    evals, evecs = scipy.linalg.eigh(0.5 * (restricted + restricted.T))
    coeffs = np.vstack([coeffs, evecs[:, np.argmax(evals > 1e-12 * np.max(np.abs(evals)))]])
    quad = np.array([(B @ Q @ c) @ M @ (Q @ c) for c in coeffs])
    normsq = np.array([(B @ Q @ c) @ M @ (B @ Q @ c) for c in coeffs])
    cert = gamma_certificate(model, dec, gamma, samples=300, seed=4)
    assert cert.details["min_ratio"] == pytest.approx(np.min(normsq / quad), rel=1e-12)
    assert cert.details["worst_sample"] == int(np.argmin(normsq / quad))
    assert cert.details["max_violation"] == pytest.approx(
        max(0.0, np.max(gamma * quad - normsq)), abs=1e-12)


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
    assert report.details["min_margin"] == pytest.approx(min_margin, rel=1e-12)
    assert report.details["worst_sample"] == worst
    assert report.details["lipschitz_estimate"] == pytest.approx(lipschitz, rel=1e-12)
    assert (lipschitz > 0.0) == (phi.kind != "Zero")


def test_delta_semantics():
    observable = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec0 = unobservable_subspace(observable)
    assert compute_delta(observable, dec0) == 0.0
    mixed = bilinear(np.diag([-1.0, -2.0]), np.diag([0.0, 1.0]))
    dec1 = unobservable_subspace(mixed)
    # a matrix flow restricted to a nontrivial W is injective at every time
    assert compute_delta(mixed, dec1) is NOT_NILPOTENT


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
    assert 0 <= report.details["worst_sample"] < 128


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("target, call", [
    ("numpy.linalg.svd", lambda m, d: unobservable_subspace(m)),
    ("numpy.linalg.eigvalsh", lambda m, d: compute_gamma(m, d)),
    ("numpy.linalg.eigh", lambda m, d: gamma_certificate(m, d, 1.0, samples=10)),
    ("numpy.linalg.eigh", lambda m, d: check_H2(m, d, PhiSpec("Constant", value=0.5),
                                                DEFAULT_DEAD_ZONE, samples=10)),
])
def test_solver_failure_is_a_model_error(monkeypatch, target, call):
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 1.0, 1.0]))
    dec = unobservable_subspace(model)
    monkeypatch.setattr(target, _no_convergence)
    with pytest.raises(ModelError, match="did not converge") as info:
        call(model, dec)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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
