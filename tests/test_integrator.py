import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from finstab import (ControllerSpec, IntegrationOpts, IntegrationStalledError,
                     ModalModel, ModelError, Trajectory, compute_delta, compute_gamma,
                     simulate, unobservable_subspace, verify_decay,
                     verify_lyapunov_stability, verify_split)
from finstab.integrator import clamp_projector


def finished_dec(model):
    dec = unobservable_subspace(model)
    return replace(dec, gamma=compute_gamma(model, dec),
                   delta=compute_delta(model, dec), h1_holds=True)


def bilinear(A, B):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return ModalModel(dim=n, metric=np.eye(n), generator=A,
                      control_op=np.asarray(B, float))


def test_opts_validation():
    with pytest.raises(ModelError):
        IntegrationOpts(t_max=0.0)
    with pytest.raises(ModelError):
        IntegrationOpts(t_max=1.0, dt_init=1e-14)  # below dt_min
    with pytest.raises(ModelError):
        IntegrationOpts(t_max=1.0, rtol=0.0)
    with pytest.raises(ModelError):
        IntegrationOpts(t_max=1.0, sample_dt=-0.1)
    opts = IntegrationOpts(t_max=2.0)
    assert opts.sample_dt == pytest.approx(0.001)


def test_free_flow_matches_the_matrix_exponential():
    model = bilinear(np.diag([-1.0, -3.0]), np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="ZeroControl")
    y0 = np.array([1.0, -2.0])
    opts = IntegrationOpts(t_max=1.0, sample_dt=0.01)
    traj = simulate(model, dec, spec, y0, opts)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert np.array_equal(traj.states[0], y0)
    assert np.all(traj.controls == 0.0)
    for i in (25, 50, 100):
        exact = scipy.linalg.expm(model.generator * traj.times[i]) @ y0
        assert np.allclose(traj.states[i], exact, rtol=1e-8, atol=1e-12)
    assert traj.settling_time is None


def test_skew_free_flow_conserves_the_norm():
    model = bilinear([[0.0, 2.0], [-2.0, 0.0]], np.eye(2))
    dec = finished_dec(model)
    traj = simulate(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0, 0.0]), IntegrationOpts(t_max=3.0))
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    assert drift < 1e-9
    assert verify_lyapunov_stability(traj, 0.0).passed


def test_singular_feedback_settles_within_the_bound():
    model = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=3.0, sample_dt=0.002)
    traj = simulate(model, dec, spec, np.array([1.0, 1.0]), opts)
    # V0 = 2, gamma = 1: settling no later than 2^{5/4}
    assert traj.settling_time is not None
    assert traj.settling_time <= 2.378414230005442 + opts.sample_dt + 1e-9
    assert verify_decay(traj, dec.gamma, spec.mu).passed
    assert verify_lyapunov_stability(traj, -1.0).passed
    assert verify_split(model, dec, traj).passed


def test_latch_then_clamp_pins_the_state_at_zero():
    model = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=3.0, sample_dt=0.002)
    traj = simulate(model, dec, spec, np.array([1.0, 1.0]), opts)
    diag = traj.diagnostics
    assert diag["latch_time"] is not None
    assert diag["clamp_time"] is not None
    assert diag["latch_time"] <= diag["clamp_time"]
    assert not diag["dead_zone_regrow"]
    tail = traj.times > diag["clamp_time"]
    # B is definite, so the clamp zeroes the whole state, bitwise
    assert np.all(traj.states[tail] == 0.0)
    assert np.all(traj.lyapunov[tail] == 0.0)


def test_unobservable_component_is_left_alone():
    model = bilinear(np.diag([-1.0, -2.0]), np.diag([0.0, 1.0]))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=1.0, rtol=1e-12, atol=1e-15, sample_dt=0.001)
    traj = simulate(model, dec, spec, np.array([1.0, 0.0]), opts)
    assert np.all(traj.controls == 0.0)
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8 * np.max(exact)
    assert traj.settling_time is None


def test_forced_split_identity_on_a_controlled_run():
    # control acts along W through the drift term A(Py), exercising the
    # variation-of-constants route of the split check
    A = np.array([[-1.0, 0.5, 0.0],
                  [0.0, -2.0, 0.0],
                  [0.0, 0.0, -3.0]])
    model = ModalModel(dim=3, metric=np.eye(3), generator=A,
                       control_op=np.diag([0.0, 1.0, 1.0]))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=1.0, sample_dt=0.001)
    traj = simulate(model, dec, spec, np.array([0.5, 1.0, 1.0]), opts)
    report = verify_split(model, dec, traj, forced=True)
    assert report.passed
    assert report.details["forced"]


def test_stall_carries_the_partial_trajectory():
    model = bilinear(np.diag([-200.0]), np.eye(1))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="ZeroControl")
    opts = IntegrationOpts(t_max=5.0, rtol=1e-12, atol=1e-15,
                           dt_min=0.5, dt_init=0.5, dt_max=0.5, sample_dt=0.5)
    with pytest.raises(IntegrationStalledError) as info:
        simulate(model, dec, spec, np.array([1.0]), opts)
    partial = info.value.trajectory
    assert partial.times[-1] < opts.t_max
    assert partial.states.shape[1] == 1


def test_verify_decay_rejects_slow_decay():
    # free flow decays far too slowly for the promised envelope
    model = bilinear(np.diag([-0.01]), np.eye(1))
    dec = finished_dec(model)
    traj = simulate(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0]), IntegrationOpts(t_max=2.0))
    report = verify_decay(traj, gamma=1.0, mu=0.25)
    assert not report.passed
    assert report.details["max_violation"] > 0.1


def test_verify_decay_envelope_is_clipped_at_zero():
    times = np.linspace(0.0, 3.0, 31)

    def trajectory(V):
        n = len(times)
        return Trajectory(times=times, states=np.zeros((n, 1)), controls=np.zeros((n, 1)),
                          lyapunov=V, norms=np.zeros(n), settling_time=None)

    # V = 0 throughout lies on the clipped envelope max(0 - 2 gamma mu t, 0)
    assert verify_decay(trajectory(np.zeros(len(times))), gamma=1.0, mu=0.25).passed
    # V(0) = 1 puts the envelope's zero at t = 2; V^mu stays at half the
    # envelope until then and positive after it
    env = np.maximum(1.0 - 0.5 * times, 0.0)
    V = np.where(times < 2.0, (0.5 * env) ** 4, 1e-4)
    V[0] = 1.0
    report = verify_decay(trajectory(V), gamma=1.0, mu=0.25)
    assert not report.passed
    assert times[report.details["worst_sample"]] >= 2.0


def test_verify_lyapunov_stability_detects_excess_growth():
    model = bilinear(np.diag([0.5]), np.eye(1))
    dec = replace(unobservable_subspace(model), gamma=1.0)
    traj = simulate(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0]), IntegrationOpts(t_max=1.0))
    assert not verify_lyapunov_stability(traj, 0.0).passed
    assert verify_lyapunov_stability(traj, 1.0).passed


def test_clamp_projector_targets_the_controlled_range():
    model = bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 1.0, 1.0]))
    dec = finished_dec(model)
    C = clamp_projector(model, dec)
    assert np.allclose(C, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    full = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    Cf = clamp_projector(full, finished_dec(full))
    assert np.allclose(Cf, np.eye(2), atol=1e-12)
