import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from finstab import (ControllerSpec, FrontendSpec, IntegrationOpts, IntegrationStalledError,
                     ModalModel, ModelError, Trajectory, build_frontend, build_scenario,
                     compute_delta, compute_gamma, kernels, scenario_from_json, simulate,
                     unobservable_subspace, verify_decay, verify_lyapunov_stability,
                     verify_split)
from finstab.integrator import clamp_projector, expm


def finished_dec(model):
    dec = unobservable_subspace(model)
    return replace(dec, gamma=compute_gamma(model, dec), delta=compute_delta(model, dec))


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


def test_stall_carries_the_partial_trajectory():
    model = bilinear(np.diag([-200.0]), np.eye(1))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
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


# ---------------------------------------------------------------------------
# Dense output: the sample grid is filled from the continuous extension


def heat_model():
    bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=8))
    return bundle.model, bundle.dec


def heat_closed_loop(sample_dt, t_max=0.5):
    model, dec = heat_model()
    y0 = np.zeros(8)
    y0[1], y0[2] = 1.0, 0.5
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    return simulate(model, dec, spec, y0, IntegrationOpts(t_max=t_max, sample_dt=sample_dt))


def test_steps_do_not_depend_on_the_sample_grid():
    fine = heat_closed_loop(1e-3)
    coarse = heat_closed_loop(0.05)
    assert fine.diagnostics["clamp_time"] is not None
    for key in ("steps", "rejections", "rhs_calls", "dt_min_accepted", "dt_max_accepted",
                "latch_time", "clamp_time"):
        assert fine.diagnostics[key] == coarse.diagnostics[key], key
    shared = np.arange(0, len(fine.times), 50)
    assert np.allclose(fine.times[shared], coarse.times, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(fine.states[shared] - coarse.states)) <= 1e-12


def test_dense_output_matches_the_free_flow_between_steps():
    # y0 lies in W = span(e1, e2), so V = 0 latches the law at t = 0: u = 0
    # throughout, and the stepper integrates y' = Ay
    model = bilinear(np.diag([-1.0, -3.0, -2.0]), np.diag([0.0, 0.0, 1.0]))
    y0 = np.array([1.0, -2.0, 0.0])
    traj = simulate(model, finished_dec(model), ControllerSpec(variant="BilinearPhi", mu=0.25),
                    y0, IntegrationOpts(t_max=1.0, sample_dt=1e-4))
    assert traj.diagnostics["latch_time"] == 0.0
    assert 0 < traj.diagnostics["steps"] * 20 < len(traj.times)  # most samples are interior
    exact = np.exp(np.outer(traj.times, np.diag(model.generator))) * y0
    assert np.allclose(traj.states, exact, rtol=1e-8, atol=0.0)
    assert np.all(traj.controls == 0.0)
    assert np.all(traj.lyapunov == 0.0)


def test_heat_settling_takes_few_steps_per_sample():
    from finstab.suite import SCENARIOS
    built = build_scenario(scenario_from_json(SCENARIOS["heat-settling"]))
    traj = simulate(built.model, built.dec, built.spec, built.y0, built.opts)
    assert traj.diagnostics["steps"] / (len(traj.times) - 1) < 0.2


@pytest.mark.parametrize("event", ["latch_time", "clamp_time"])
def test_sample_on_the_latch_or_clamp_step_end(event):
    first = heat_closed_loop(0.05).diagnostics
    assert first["latch_time"] < first["clamp_time"]   # two different steps
    at = first[event]
    # a grid on [0, 2 at] whose middle sample is that step's end
    traj = heat_closed_loop(at / 1000.0, t_max=2.0 * at)
    assert traj.diagnostics[event] == at
    mid = 1000
    assert abs(traj.times[mid] - at) <= 1e-14
    if event == "latch_time":
        assert traj.controls[mid - 1, 0] != 0.0    # interior sample, dead zone still open
    assert np.all(traj.controls[mid:] == 0.0)
    # V is that of the recorded state, after the clamp where there is one
    model, dec = heat_model()
    py = traj.states[mid] @ dec.projection.T
    V = py @ model.metric @ model.control_op @ py
    assert traj.lyapunov[mid] == pytest.approx(V, rel=1e-9, abs=1e-30)


def test_rhs_calls_counts_every_stepper_evaluation(monkeypatch):
    calls = []
    rhs = kernels.closed_loop_rhs

    def counting(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(kernels, "closed_loop_rhs", counting)
    # one sample interval: t_max is a step end, so no interior sample is evaluated
    traj = heat_closed_loop(0.5)
    diag = traj.diagnostics
    assert len(traj.times) == 2
    assert diag["rhs_calls"] == len(calls)
    assert diag["rhs_calls"] >= 6 * (diag["steps"] + diag["rejections"]) + 1
    assert 1e-12 <= diag["dt_min_accepted"] <= diag["dt_max_accepted"] <= 0.05
    # 500 sample intervals hold far more samples than step ends, and the fill
    # of the interior ones makes no per-state call
    calls.clear()
    fine = heat_closed_loop(1e-3).diagnostics
    assert fine["steps"] < 400
    assert fine["rhs_calls"] == len(calls) == diag["rhs_calls"]


def _split_deviation_loop(model, dec, traj):
    """Per-sample reference for verify_split's max_deviation and tolerance.

    It takes verify_split's own exponential, so only the summation order differs.
    """
    P, M = dec.projection, model.metric
    IP = np.eye(model.dim) - P
    dt = float(traj.times[1] - traj.times[0])
    E = expm(model.generator * dt)
    z = IP @ traj.states[0]
    worst = 0.0
    for i in range(len(traj.times)):
        diff = IP @ traj.states[i] - z
        worst = max(worst, float(np.sqrt(max(diff @ M @ diff, 0.0))))
        z = E @ z
    return worst, 1e-8 * max(1.0, float(np.sqrt(traj.states[0] @ M @ traj.states[0])))


def test_verify_split_matches_the_per_sample_loop():
    # a system whose W_perp leaks into W (H1 fails, so the unobservable part
    # departs from the free flow), in skewed coordinates with the matching
    # metric, so P is a full matrix rather than a 0/1 mask
    A = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]])
    T = np.array([[1.0, 0.3, -0.2], [0.1, 1.0, 0.4], [0.0, -0.5, 1.0]])
    Ti = np.linalg.inv(T)
    model = ModalModel(dim=3, metric=Ti.T @ Ti, generator=T @ A @ Ti,
                       control_op=T @ np.diag([0.0, 1.0, 1.0]) @ Ti)
    dec = finished_dec(model)
    assert np.max(np.abs(dec.projection - np.round(dec.projection))) > 1e-3
    traj = simulate(model, dec, ControllerSpec(variant="BilinearPhi", mu=0.25),
                    T @ np.array([0.5, 1.0, 1.0]), IntegrationOpts(t_max=1.0, sample_dt=0.01))
    report = verify_split(model, dec, traj)
    worst, tol = _split_deviation_loop(model, dec, traj)
    assert report.details["tolerance"] == pytest.approx(tol, rel=1e-12)
    assert report.details["max_deviation"] == pytest.approx(worst, rel=1e-9, abs=1e-15)
    assert worst > 1e-6   # the comparison is not between two zeros


@pytest.mark.parametrize("y0", [[0.0, 1.0, 1.0], [0.5, 1.0, 1.0]], ids=["wperp", "with-w"])
def test_verify_split_from_wperp_matches_the_per_sample_loop(y0):
    # P = diag(0, 1, 1) exactly, and W_perp leaks into W through A[0, 1]
    # (H1 fails), so the deviation is not zero; a run started in W_perp has
    # (I-P) y0 = 0 exactly and the zero reference path
    model = bilinear([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
                     np.diag([0.0, 1.0, 1.0]))
    dec = finished_dec(model)
    assert np.array_equal(dec.projection, np.diag([0.0, 1.0, 1.0]))
    traj = simulate(model, dec, ControllerSpec(variant="BilinearPhi", mu=0.25),
                    np.array(y0), IntegrationOpts(t_max=1.0, sample_dt=0.01))
    assert (not ((np.eye(3) - dec.projection) @ traj.states[0]).any()) == (y0[0] == 0.0)
    report = verify_split(model, dec, traj)
    worst, tol = _split_deviation_loop(model, dec, traj)
    assert report.details["tolerance"] == pytest.approx(tol, rel=1e-12)
    assert report.details["max_deviation"] == pytest.approx(worst, rel=1e-9, abs=1e-15)
    assert worst > 1e-3
    assert sorted(report.details) == ["forced", "max_deviation", "tolerance"]


@pytest.mark.parametrize("norm1", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
@pytest.mark.parametrize("kind", ["skew", "dissipative", "non-normal"])
def test_expm_matches_scipy(kind, norm1):
    rng = np.random.default_rng(7)
    for n in (2, 5, 12):
        G = rng.standard_normal((n, n))
        if kind == "skew":
            G = G - G.T
        elif kind == "dissipative":
            G = -G @ G.T
        A = G * (norm1 / np.max(np.sum(np.abs(G), axis=0)))
        ref = scipy.linalg.expm(A)
        assert np.max(np.abs(expm(A) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_expm_trivial_cases():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert expm(np.array([[0.0]]))[0, 0] == 1.0
    for x in (-700.0, -3.0, 1e-3, 2.5, 300.0):
        one = np.array([[x]])
        assert expm(one)[0, 0] == pytest.approx(scipy.linalg.expm(one)[0, 0], rel=1e-11)
