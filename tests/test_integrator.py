import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from finstab import (ControllerSpec, FrontendSpec, IntegrationOpts, IntegrationStalledError,
                     ModalModel, ModelError, Trajectory, build_frontend, build_scenario,
                     compute_gamma, integrator, kernels, run_scenario, scenario_from_json,
                     simulate, settling_bound_details, unobservable_subspace,
                     validate_control_operator, verify_decay, verify_lyapunov_stability,
                     verify_split)
from finstab.controllers import assemble_kernel_args
from finstab.integrator import _settling_time, clamp_projector, expm
from finstab.kernels import closed_loop_law
from finstab.scenario import simulate_scenario


def with_gamma(model, dec):
    return replace(dec, gamma=compute_gamma(model, dec, validate_control_operator(model)))


def finished_dec(model):
    return with_gamma(model, unobservable_subspace(model))


def simulate_law(model, dec, spec, y0, opts):
    """simulate under the law bundle assembled from spec."""
    return simulate(model, dec, assemble_kernel_args(spec, model, dec), y0, opts)


def bound_details(spec, model, dec, y0):
    return settling_bound_details(assemble_kernel_args(spec, model, dec), model, dec, y0)


def bilinear(A, B):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return ModalModel(dim=n, metric=np.eye(n), generator=A,
                      control_op=np.asarray(B, float))


def test_a_decomposition_without_gamma_is_refused_where_the_law_reads_it():
    model = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec = unobservable_subspace(model)
    assert dec.gamma is None
    y0 = np.array([1.0, 0.5])
    opts = IntegrationOpts(t_max=0.1)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    with pytest.raises(ModelError, match="BilinearPhi needs gamma"):
        simulate_law(model, dec, spec, y0, opts)
    with pytest.raises(ModelError, match="BilinearPhi needs gamma"):
        bound_details(spec, model, dec, y0)
    # a law-free run reads no gamma
    assert simulate_law(model, dec, ControllerSpec(variant="ZeroControl"), y0, opts).times[-1] == 0.1


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
    traj = simulate_law(model, dec, spec, y0, opts)
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
    traj = simulate_law(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0, 0.0]), IntegrationOpts(t_max=3.0))
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    assert drift < 1e-9
    assert verify_lyapunov_stability(traj, 0.0).passed


def test_singular_feedback_settles_within_the_bound():
    model = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=3.0, sample_dt=0.002)
    traj = simulate_law(model, dec, spec, np.array([1.0, 1.0]), opts)
    # V0 = 2, gamma = 1: settling no later than 2^{5/4}
    assert traj.settling_time is not None
    assert traj.settling_time <= 2.378414230005442 + opts.sample_dt + 1e-9
    ops = assemble_kernel_args(spec, model, dec)
    rate, v_dead_zone = ops.rate, ops.v_dead_zone
    assert verify_decay(traj, rate, spec.mu, v_dead_zone).passed
    assert verify_lyapunov_stability(traj, -1.0).passed
    assert verify_split(model, dec, traj).passed


def test_latch_then_clamp_pins_the_state_at_zero():
    model = bilinear(np.diag([-1.0, -2.0]), np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=3.0, sample_dt=0.002)
    traj = simulate_law(model, dec, spec, np.array([1.0, 1.0]), opts)
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
    traj = simulate_law(model, dec, spec, np.array([1.0, 0.0]), opts)
    assert np.all(traj.controls == 0.0)
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8 * np.max(exact)
    assert traj.settling_time is None


def test_stall_carries_the_partial_trajectory():
    model = bilinear(np.diag([-1.0]), np.eye(1))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    opts = IntegrationOpts(t_max=5.0, rtol=1e-12, atol=1e-15,
                           dt_min=0.5, dt_init=0.5, dt_max=0.5, sample_dt=0.5)
    with pytest.raises(IntegrationStalledError) as info:
        simulate_law(model, dec, spec, np.array([1.0]), opts)
    partial = info.value.trajectory
    assert partial.times[-1] < opts.t_max
    assert partial.states.shape[1] == 1


def test_a_nan_norm_has_not_settled():
    times = np.linspace(0.0, 1.0, 5)
    norms = np.array([1.0, 1e-9, np.nan, 0.0, 0.0])
    assert _settling_time(times, norms, 1e-8) == 0.75
    norms[2] = 0.0
    assert _settling_time(times, norms, 1e-8) == 0.25


def test_verify_decay_rejects_slow_decay():
    # free flow decays far too slowly for the promised envelope
    model = bilinear(np.diag([-0.01]), np.eye(1))
    dec = finished_dec(model)
    traj = simulate_law(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0]), IntegrationOpts(t_max=2.0))
    report = verify_decay(traj, rate=1.0, mu=0.25, v_dead_zone=0.0)
    assert not report.passed
    assert report.details["max_violation"] > 0.1


def decay_trajectory(times, V, latch_time=None):
    n = len(times)
    return Trajectory(times=times, states=np.zeros((n, 1)), controls=np.zeros((n, 1)),
                      lyapunov=V, norms=np.zeros(n), settling_time=None,
                      diagnostics={"latch_time": latch_time})


def test_verify_decay_envelope_is_clipped_at_zero():
    times = np.linspace(0.0, 3.0, 31)
    # V = 0 throughout lies on the clipped envelope max(0 - 2 r mu t, 0)
    assert verify_decay(decay_trajectory(times, np.zeros(len(times))), rate=1.0, mu=0.25,
                        v_dead_zone=0.0).passed
    # V(0) = 1 puts the envelope's zero at t = 2; V^mu stays at half the
    # envelope until then and positive after it
    env = np.maximum(1.0 - 0.5 * times, 0.0)
    V = np.where(times < 2.0, (0.5 * env) ** 4, 1e-4)
    V[0] = 1.0
    report = verify_decay(decay_trajectory(times, V), rate=1.0, mu=0.25, v_dead_zone=0.0)
    assert not report.passed
    assert times[report.details["worst_sample"]] >= 2.0


def test_verify_decay_allows_the_dead_zone_level_only_after_the_latch():
    times = np.linspace(0.0, 3.0, 31)
    env = np.maximum(1.0 - 0.5 * times, 0.0)   # V(0) = 1, r = 1, mu = 1/4
    level = 1e-4                                # V_dz, with V_dz^mu = 0.1
    after = times >= 2.0
    V = np.where(after, level, (0.5 * env) ** 4)
    V[0] = 1.0

    def check(V, latch_time, v_dead_zone=level):
        return verify_decay(decay_trajectory(times, V, latch_time), 1.0, 0.25, v_dead_zone)

    # resting at the level after a latch at t = 2 passes, and its margin is the level's
    report = check(V, 2.0)
    assert report.passed
    assert report.details["max_violation"] == pytest.approx(-1e-6, abs=1e-12)
    # without the latch, or with no level, the same run fails
    assert not check(V, None).passed and not check(V, 2.0, 0.0).passed
    # regrowth past the level after the latch fails
    assert not check(np.where(after, 2.0 * level, V), 2.0).passed
    # so does a V raised above the envelope before the latch, whatever the level
    raised = V.copy()
    raised[5] = 1.0   # V^mu = 1 at t = 0.5, where the envelope is 0.75
    report = check(raised, 2.0, 1.0)
    assert not report.passed and report.details["worst_sample"] == 5


def test_verify_lyapunov_stability_detects_excess_growth():
    model = bilinear(np.diag([0.5]), np.eye(1))
    dec = replace(unobservable_subspace(model), gamma=1.0)
    traj = simulate_law(model, dec, ControllerSpec(variant="ZeroControl"),
                    np.array([1.0]), IntegrationOpts(t_max=1.0))
    assert not verify_lyapunov_stability(traj, 0.0).passed
    assert verify_lyapunov_stability(traj, 1.0).passed


def range_bp_projector(model):
    """The metric-orthoprojector onto range(B P), built as SVD of B P, then a
    metric re-orthonormalization of its range."""
    M = model.metric
    B = model.control_op if model.control_op is not None else \
        model.input_map @ model.input_map.T @ M
    u, sv, _ = np.linalg.svd(B @ unobservable_subspace(model).projection)
    U = u[:, :int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))]
    return U @ np.linalg.solve(U.T @ M @ U, U.T @ M)


def test_clamp_projector_targets_the_controlled_range():
    C = clamp_projector(bilinear(np.diag([-1.0, -2.0, -3.0]), np.diag([0.0, 1.0, 1.0])))
    assert np.allclose(C, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    assert np.allclose(clamp_projector(bilinear(np.diag([-1.0, -2.0]), np.eye(2))), np.eye(2),
                       atol=1e-12)
    # a general metric, W = span(e1): B = M^-1 K with K PSD and K e1 = 0 is M-self-adjoint
    rng = np.random.default_rng(3)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + np.eye(4)
    K = np.zeros((4, 4))
    K[1:, 1:] = R[1:, 1:] @ R[1:, 1:].T + 0.5 * np.eye(3)
    general = ModalModel(dim=4, metric=M, generator=np.diag([-1.0, -2.0, -3.0, -4.0]),
                         control_op=np.linalg.solve(M, K))
    # an input map L of rank 2 with L* e1 = 0 under a metric that keeps e1 apart
    M2 = np.eye(4)
    M2[1:, 1:] = M[1:, 1:]
    A2 = np.diag([-1.0, -2.0, -3.0, -4.0])
    A2[1:, 1:] += 0.3 * np.triu(R[1:, 1:], 1)
    L = np.zeros((4, 2))
    L[1:] = rng.standard_normal((3, 2))
    linear = ModalModel(dim=4, metric=M2, generator=A2, input_map=L)
    for model, rank in ((general, 3), (linear, 2)):
        assert unobservable_subspace(model).dim_w >= 1
        C = clamp_projector(model)
        assert np.trace(C) == pytest.approx(rank, rel=1e-12)
        assert np.allclose(C, range_bp_projector(model), atol=1e-12)


# ---------------------------------------------------------------------------
# Dense output: the sample grid is filled from the continuous extension


def heat_model():
    bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=8))
    return bundle.model, with_gamma(bundle.model, bundle.dec)


def heat_closed_loop(sample_dt, t_max=0.5):
    model, dec = heat_model()
    y0 = np.zeros(8)
    y0[1], y0[2] = 1.0, 0.5
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    return simulate_law(model, dec, spec, y0, IntegrationOpts(t_max=t_max, sample_dt=sample_dt))


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
    traj = simulate_law(model, finished_dec(model), ControllerSpec(variant="BilinearPhi", mu=0.25),
                    y0, IntegrationOpts(t_max=1.0, sample_dt=1e-4))
    assert traj.diagnostics["latch_time"] == 0.0
    assert 0 < traj.diagnostics["steps"] * 20 < len(traj.times)  # most samples are interior
    exact = np.exp(np.outer(traj.times, np.diag(model.generator))) * y0
    assert np.allclose(traj.states, exact, rtol=1e-8, atol=0.0)
    assert np.all(traj.controls == 0.0)
    assert np.all(traj.lyapunov == 0.0)


def _exact_settling_time(model, y0, mu, t_max):
    """T with 2 mu int_0^T E^-mu dt = 1, E(t) = V(e^{tA} y0), for diagonal A and B
    and y0 in W_perp (BilinearPhi, Zero phi): the trapezoidal rule on a fine grid."""
    t = np.linspace(0.0, t_max, 40001)
    weights = np.diag(model.control_op) * y0 ** 2
    E = np.exp(2.0 * np.outer(t, np.diag(model.generator))) @ weights
    f = E ** -mu
    integral = 2.0 * mu * np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * t[1])))
    return float(np.interp(1.0, integral, t))


def test_heat_settling_does_not_depend_on_the_truncation():
    # data in every mode: the explicit step would follow the stiffest mode
    # -(n pi)^2, the integrating factor follows the law
    reference = {16: 0.0784, 64: 0.0669, 128: 0.0631}
    for n, T_ref in reference.items():
        built = build_scenario(scenario_from_json({
            "name": "heat", "frontend": {"kind": "Heat1D", "n_modes": n},
            "controller": {"variant": "BilinearPhi", "mu": 0.25},
            "initial_state": "wperp-random(7)", "integration": {"t_max": 0.2}}))
        spec = built.spec
        traj = simulate_law(built.model, built.dec, spec, built.y0, built.opts)
        assert traj.diagnostics["steps"] <= 150, n
        T = _exact_settling_time(built.model, built.y0, spec.mu, 0.2)
        assert T == pytest.approx(T_ref, abs=1e-4)
        # one sample plus the dead zone's own settling allowance, on either side
        allowance = built.opts.sample_dt + spec.dead_zone ** spec.mu / (
            2.0 * built.dec.gamma * spec.mu)
        assert abs(traj.settling_time - T) <= allowance, (n, traj.settling_time, T)


@pytest.mark.parametrize("name, counts", [
    ("wave-settling", (1664, 474, 12829)),
    ("beam-rankone", (180, 19, 1196)),
    ("heat-settling", (126, 19, 873)),
    ("heat-unobservable", (14, 0, 86)),
])
def test_stepper_counters_on_the_stepped_suite_scenarios(name, counts):
    # (steps, rejections, rhs_calls) are deterministic: a change to the step sequence
    # shows here, and names the counts it moved
    from finstab.suite import SCENARIOS
    diag = simulate_scenario(build_scenario(scenario_from_json(SCENARIOS[name]))).diagnostics
    assert (diag["steps"], diag["rejections"], diag["rhs_calls"]) == counts


def test_heat_settling_takes_few_steps_per_sample():
    from finstab.suite import SCENARIOS
    built = build_scenario(scenario_from_json(SCENARIOS["heat-settling"]))
    traj = simulate(built.model, built.dec, built.ops, built.y0, built.opts)
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


def planted_system(rng, n):
    """A bilinear system under a general metric M whose unobservable subspace is planted.

    With Q orthogonal, W = span Q2 = ker B.  The generator keeps W and its
    metric complement span M^-1 Q1 invariant, and B is M-self-adjoint and
    definite on that complement, so H1 holds and every matrix is dense.
    """
    dim_w = int(rng.integers(1, n // 2 + 1))
    npp = n - dim_w
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q1, Q2 = Q[:, :npp], Q[:, npp:]
    R = rng.standard_normal((n, n))
    M = R @ R.T + n * np.eye(n)
    T = np.hstack([np.linalg.solve(M, Q1), Q2])
    blocks = np.zeros((n, n))
    blocks[:npp, :npp] = rng.standard_normal((npp, npp))
    blocks[npp:, npp:] = rng.standard_normal((dim_w, dim_w))
    C = rng.standard_normal((npp, npp))
    B = np.linalg.solve(M, Q1 @ (C @ C.T + 0.1 * np.eye(npp)) @ Q1.T)
    return {"dim": n, "metric": M.tolist(), "generator": (T @ blocks @ np.linalg.inv(T)).tolist(),
            "control_op": B.tolist()}


@pytest.mark.parametrize("variant, seed", [("BilinearPhi", 7), ("BilinearGrad", 3)])
def test_every_sample_records_the_law_at_its_state(variant, seed):
    # dense operators under a general metric round differently in the RHS
    # and in the law's block form, so the step-end rows (t = 0, t_max) tell
    # whether the law wrote them too
    t_max = 2.5
    built = build_scenario(scenario_from_json({
        "name": "planted", "matrices": planted_system(np.random.default_rng([seed, 4, 1]), 4),
        "controller": {"variant": variant, "mu": 0.25}, "initial_state": "wperp-random(7)",
        "integration": {"t_max": t_max}}))
    traj = simulate(built.model, built.dec, built.ops, built.y0, built.opts)
    latch_time = traj.diagnostics["latch_time"]
    assert 0.0 < latch_time < t_max
    # the samples from the end of the step that latched on are recorded after the latch
    latch = np.searchsorted(traj.times, latch_time - 1e-14 * max(t_max, 1.0))
    ops = built.ops
    controls, V = closed_loop_law(traj.states, ops, np.arange(len(traj.times)) >= latch)
    moved = np.any(traj.controls != controls, axis=1) | (traj.lyapunov != np.maximum(V, 0.0))
    assert not moved.any(), np.flatnonzero(moved)
    assert np.any(controls[:latch] != 0.0) and np.all(controls[latch:] == 0.0)


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
    traj = simulate_law(model, dec, ControllerSpec(variant="BilinearPhi", mu=0.25),
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
    traj = simulate_law(model, dec, ControllerSpec(variant="BilinearPhi", mu=0.25),
                    np.array(y0), IntegrationOpts(t_max=1.0, sample_dt=0.01))
    assert (not ((np.eye(3) - dec.projection) @ traj.states[0]).any()) == (y0[0] == 0.0)
    report = verify_split(model, dec, traj)
    worst, tol = _split_deviation_loop(model, dec, traj)
    assert report.details["tolerance"] == pytest.approx(tol, rel=1e-12)
    assert report.details["max_deviation"] == pytest.approx(worst, rel=1e-9, abs=1e-15)
    assert worst > 1e-3
    assert sorted(report.details) == ["max_deviation", "tolerance"]


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


@pytest.mark.parametrize("frontend", [
    {"kind": "Wave1D", "n_modes": 8, "q": 3},
    {"kind": "Wave1D", "n_modes": 64, "q": 3},
    {"kind": "Beam1D", "n_modes": 8, "h_coeffs": [1.0, 0.5]},
], ids=["wave-n8", "wave-n64", "beam-n8"])
def test_split_free_flow_is_the_matrix_exponential(frontend):
    # a law-free run under H1 flows its W_perp and W parts apart; a state with
    # both parts against scipy's exponential of the whole generator
    n = 2 * frontend["n_modes"]
    y0 = np.random.default_rng(n).standard_normal(n)
    built = build_scenario(scenario_from_json({
        "name": "split", "frontend": frontend, "controller": {"variant": "ZeroControl"},
        "initial_state": y0.tolist(), "integration": {"t_max": 1.0, "sample_dt": 1.0 / 256}}))
    assert built.h1.passed and built.dec.dim_w and built.dec.dim_wperp
    traj = simulate_scenario(built)
    assert np.array_equal(traj.states[0], y0)
    A = built.model.generator
    for k in range(0, 257, 32):
        exact = scipy.linalg.expm(traj.times[k] * A) @ y0
        assert np.linalg.norm(traj.states[k] - exact) <= 1e-12 * np.linalg.norm(exact)


def test_law_free_wave_forms_no_exponential_beyond_w_perp(tmp_path, monkeypatch):
    shapes = []
    real_expm = integrator.expm

    def recording_expm(A):
        shapes.append(A.shape)
        return real_expm(A)

    monkeypatch.setattr(integrator, "expm", recording_expm)
    doc = {"name": "wave-n128", "frontend": {"kind": "Wave1D", "n_modes": 128, "q": 3},
           "controller": {"variant": "ZeroControl"}, "initial_state": "wperp-random",
           "integration": {"t_max": 0.3, "sample_dt": 0.0015}, "seed": 1}
    code, summary = run_scenario(scenario_from_json(doc), tmp_path / "wave")
    assert code == 0 and summary["decomposition"]["dim_wperp"] == 6
    assert shapes == [(6, 6)]   # the split's W_perp block; the split check forms none
