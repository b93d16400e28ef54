import dataclasses

import numpy as np
import pytest

from finstab import (ControllerSpec, FrontendSpec, HybridState,
                     ModelError, PhiSpec, build_frontend, check_H1, compute_gamma,
                     hybrid_decay_check, hybrid_split_check,
                     hybrid_v, quasi_contraction_type, simulate_hybrid, transport_heat_model,
                     Trajectory, validate_control_operator, validate_law_for_model)
from finstab.frontends import beam_model, heat_model, transport_step, wave_model

PI2 = 9.869604401089358  # pi^2


def gamma_of(bundle):
    # a front end supplies only W's axes; gamma comes from the model
    assert bundle.dec.gamma is None
    return compute_gamma(bundle.model, bundle.dec, validate_control_operator(bundle.model))


def test_heat_modes_and_decomposition():
    bundle = heat_model(FrontendSpec(kind="Heat1D", n_modes=4))
    A = bundle.model.generator
    assert np.diag(A) == pytest.approx([-PI2, -39.47841760435743,
                                        -88.82643960980423, -157.91367041742973],
                                       rel=1e-15)
    B = bundle.model.control_op
    assert B[0, 0] == 0.0
    assert np.array_equal(B[1:, 1:], np.eye(3))
    assert bundle.w_axes == (0,)
    assert gamma_of(bundle) == 1.0
    assert bundle.dec.dim_w == 1
    assert bundle.model.basis_labels[:2] == ("mode1", "mode2")
    assert check_H1(bundle.model, bundle.dec).passed


def test_heat_rejects_degenerate_sizes():
    with pytest.raises(ModelError):
        heat_model(FrontendSpec(kind="Heat1D", n_modes=1))
    with pytest.raises(ModelError):
        FrontendSpec(kind="Heat1D", n_modes=0)
    with pytest.raises(ModelError):
        FrontendSpec(kind="Lattice")


def test_wave_structure():
    bundle = wave_model(FrontendSpec(kind="Wave1D", n_modes=3, q=2))
    model = bundle.model
    assert model.dim == 6
    A = model.generator
    assert A[0, 3] == pytest.approx(np.pi, rel=1e-15)
    assert A[3, 0] == pytest.approx(-np.pi, rel=1e-15)
    assert A[2, 5] == pytest.approx(3.0 * np.pi, rel=1e-15)
    # damping on the first q velocities only
    assert np.array_equal(np.diag(model.control_op),
                          [0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    assert bundle.w_axes == (2, 5)
    assert bundle.dec.dim_w == 2
    assert gamma_of(bundle) == 1.0
    assert bundle.phi.kind == "WaveK" and bundle.phi.cap == 1e3
    assert bundle.phi.q == 2 and bundle.phi.half == 3
    assert abs(quasi_contraction_type(model)) < 1e-12  # skew generator
    assert model.basis_labels[2] == "pos3" and model.basis_labels[5] == "vel3"


def test_wave_fully_damped_is_nilpotent_free():
    bundle = wave_model(FrontendSpec(kind="Wave1D", n_modes=2, q=2))
    assert bundle.dec.dim_w == 0
    with pytest.raises(ModelError):
        wave_model(FrontendSpec(kind="Wave1D", n_modes=2, q=3))
    with pytest.raises(ModelError):
        wave_model(FrontendSpec(kind="Wave1D", n_modes=2, q=0))


def test_beam_structure_and_rank_one_data():
    bundle = beam_model(FrontendSpec(kind="Beam1D", n_modes=3, h_coeffs=(1.0,)))
    model = bundle.model
    assert model.dim == 6
    assert model.generator[0, 3] == pytest.approx(PI2, rel=1e-15)
    assert model.generator[1, 4] == pytest.approx(4.0 * PI2, rel=1e-15)
    assert np.array_equal(model.input_map[:, 0], [0, 0, 0, 1, 0, 0])
    # only the driven pair (pos1, vel1) is observable
    assert bundle.w_axes == (1, 2, 4, 5)
    assert gamma_of(bundle) == 1.0
    spec = ControllerSpec(variant="RankOne", mu=0.25, zeta=bundle.info["zeta"],
                          varpi=bundle.info["varpi"])
    validate_law_for_model(spec, model)
    assert np.array_equal(spec.zeta, model.input_map[:, 0])


def test_beam_profile_support_drives_gamma_and_w():
    bundle = beam_model(FrontendSpec(kind="Beam1D", n_modes=3, h_coeffs=(1.0, 2.0)))
    assert gamma_of(bundle) == pytest.approx(5.0, rel=1e-15)   # ||h||^2
    assert bundle.w_axes == (2, 5)
    full = beam_model(FrontendSpec(kind="Beam1D", n_modes=2, h_coeffs=(1.0, 1.0)))
    assert full.dec.dim_w == 0


@pytest.mark.parametrize("spec, analytic", [
    *[(FrontendSpec(kind="Heat1D", n_modes=n), 1.0) for n in (2, 3, 8, 64, 256)],
    *[(FrontendSpec(kind="Wave1D", n_modes=n, q=q), 1.0)
      for n, q in ((8, 3), (16, 3), (64, 3), (128, 3), (8, 8), (4, 1), (32, 32))],
    *[(FrontendSpec(kind="Beam1D", n_modes=4, h_coeffs=h), float(np.dot(h, h)))
      for h in ((1.0,), (1.0, 0.5), (0.3, 0.7, 0.1), (2.0,), (0.0, 1.0))],
])
def test_computed_gamma_is_the_analytic_value(spec, analytic):
    # heat and wave: B is a 0/1 mask, so gamma = 1; beam: B = h h^T on W_perp, gamma = ||h||^2
    assert gamma_of(build_frontend(spec)) == analytic


def test_beam_rejects_bad_profiles():
    with pytest.raises(ModelError):
        beam_model(FrontendSpec(kind="Beam1D", n_modes=2, h_coeffs=(0.0, 0.0)))
    with pytest.raises(ModelError):
        beam_model(FrontendSpec(kind="Beam1D", n_modes=2, h_coeffs=(1.0, 1.0, 1.0)))


def test_build_frontend_dispatch():
    bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=3))
    assert bundle.model.dim == 3
    hybrid = build_frontend(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                         grid_n=16, omega_h=0.25))
    assert hybrid.grid_n == 16


def test_transport_model_geometry():
    model = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                              grid_n=64, omega_h=0.25))
    assert model.n_omega == 16
    assert model.dt_macro == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert model.delta == 1.0
    assert model.eigenvalues[0, 0] == 0.0
    assert model.eigenvalues[1, 2] == pytest.approx(-5.0 * PI2, rel=1e-14)


def test_transport_model_rejects_misaligned_patch():
    with pytest.raises(ModelError):
        transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                          grid_n=64, omega_h=0.3))
    with pytest.raises(ModelError):
        transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                          grid_n=0, omega_h=0.25))
    with pytest.raises(ModelError):
        transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                          grid_n=16, omega_h=1.5))


def transport(grid_n, omega_h):
    return transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=2,
                                             grid_n=grid_n, omega_h=omega_h))


def test_transport_step_is_an_exact_shift():
    model = transport(8, 0.25)
    psi = np.zeros((8, 8))
    psi[3, 5] = 2.5
    out = transport_step(model, psi, 0.0)
    assert out[4, 6] == 2.5
    assert np.sum(out != 0.0) == 1
    # mass on the outflow edge leaves the domain
    edge = np.zeros((8, 8))
    edge[7, 7] = 1.0
    assert np.all(transport_step(model, edge, 0.0) == 0.0)


def test_transport_step_damps_only_inside_the_patch():
    model = transport(4, 0.5)   # patch is 2 cells wide, dt = 1/4
    out = transport_step(model, np.ones((4, 4)), -1.0)
    assert out[1, 1] == pytest.approx(0.7788007830714049, rel=1e-15)  # e^{-1/4}
    assert out[1, 2] == 1.0 and out[2, 1] == 1.0 and out[3, 3] == 1.0
    assert np.all(out[0, :] == 0.0) and np.all(out[:, 0] == 0.0)


def test_transport_free_flow_exits_in_exactly_n_steps():
    G = 6
    model = transport(G, 0.5)
    psi = np.ones((G, G))
    for step in range(G):
        assert np.any(psi != 0.0)
        psi = transport_step(model, psi, 0.0)
    assert np.all(psi == 0.0)


def test_hybrid_energy_and_norm():
    model = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=2,
                                              grid_n=4, omega_h=0.5))
    c = np.array([[1.0, 0.0], [0.0, 2.0]])
    psi = np.zeros((4, 4))
    psi[1, 1] = 3.0   # inside the 2-cell patch
    psi[3, 3] = 4.0   # outside
    state = HybridState(c=c, psi=psi)
    # V counts heat energy plus the in-patch transport mass only
    assert hybrid_v(model, state) == pytest.approx(5.0 + 9.0 / 16.0, rel=1e-15)
    # the norm counts heat energy plus all transport mass
    traj = simulate_hybrid(model, ControllerSpec(variant="ZeroControl"), state,
                           t_max=model.dt_macro)
    assert traj.norms[0] == pytest.approx(np.sqrt(5.0 + 25.0 / 16.0), rel=1e-15)


def hybrid_setup(grid_n=32):
    model = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=4,
                                              grid_n=grid_n, omega_h=0.25))
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    psi = np.zeros((grid_n, grid_n))
    psi[grid_n // 2, grid_n // 2] = 1.0  # outside the patch
    return model, HybridState(c=c, psi=psi)


def test_hybrid_settles_and_transport_exits():
    model, y0 = hybrid_setup()
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    traj = simulate_hybrid(model, spec, y0, t_max=3.0)
    # V0 = 2: bound max(V0^mu / (2 mu), delta) = 2^{5/4}
    assert traj.settling_time is not None
    assert traj.settling_time <= 2.378414230005442 + model.dt_macro + 1e-9
    after = traj.times >= model.delta - 1e-12
    assert np.all(traj.psi_norms[after] == 0.0)
    assert hybrid_decay_check(model, traj, spec.mu, spec.dead_zone).passed
    assert hybrid_split_check(model, y0, traj).passed


def test_hybrid_trajectory_is_a_validated_trajectory():
    model, y0 = hybrid_setup(grid_n=16)
    traj = simulate_hybrid(model, ControllerSpec(variant="BilinearPhi", mu=0.25), y0,
                           t_max=0.5)
    assert isinstance(traj, Trajectory)
    with pytest.raises(ModelError, match="equal length"):
        dataclasses.replace(traj, norms=traj.norms[:-1])


def test_simulate_hybrid_refuses_a_law_it_cannot_apply():
    # the splitter applies u = -V^-mu with no phi; a Constant phi would be dropped silently
    model, y0 = hybrid_setup(grid_n=16)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25, phi=PhiSpec("Constant", value=1.0))
    with pytest.raises(ModelError, match="not BilinearPhi with a Constant phi"):
        simulate_hybrid(model, spec, y0, t_max=0.5)


def test_hybrid_zero_control_keeps_heat_alive():
    model, y0 = hybrid_setup()
    traj = simulate_hybrid(model, ControllerSpec(variant="ZeroControl"), y0, t_max=2.0)
    assert np.all(traj.controls == 0.0)
    assert traj.settling_time is None
    # the constant heat mode is untouched without control
    assert traj.lyapunov[-1] == pytest.approx(1.0, rel=1e-12)
    after = traj.times >= model.delta - 1e-12
    assert np.all(traj.psi_norms[after] == 0.0)
    assert hybrid_split_check(model, y0, traj).passed


def replayed_split(model, y0, traj):
    """The free flow and the cells the control touched, one macro step at a time."""
    n = model.n_omega
    free, touched = y0.psi, np.zeros_like(y0.psi)
    for k in range(1, len(traj.times)):
        free = transport_step(model, free, 0.0)
        touched = transport_step(model, touched, 0.0)
        if traj.controls[k, 0] != 0.0:
            touched[1:n, 1:n] = 1.0
        if traj.times[k] == traj.diagnostics["clamp_time"]:
            touched[:n, :n] = 1.0
    return free, touched == 1.0


# step counts below grid_n, between grid_n and 2 grid_n, and past 2 grid_n
@pytest.mark.parametrize("steps", [10, 24, 40])
@pytest.mark.parametrize("clamped", [False, True])
def test_split_check_fails_exactly_on_untouched_cells(steps, clamped):
    G = 16
    model = transport_heat_model(FrontendSpec(kind="TransportHeat2D", n_modes=2,
                                              grid_n=G, omega_h=0.25))
    # V(0) sets the settling time, so whether the clamp falls within the run
    c = np.zeros((2, 2))
    c[0, 0] = {10: 0.02, 24: 0.3, 40: 1.0}[steps] if clamped else 4.0
    # nonzero inside the patch too, so damping changes the grid
    y0 = HybridState(c=c, psi=np.random.default_rng(7).uniform(0.05, 0.1, size=(G, G)))
    traj = simulate_hybrid(model, ControllerSpec(variant="BilinearPhi", mu=0.25), y0,
                           t_max=steps * model.dt_macro)
    assert len(traj.times) == steps + 1
    assert (traj.diagnostics["clamp_time"] is not None) == clamped
    free, touched = replayed_split(model, y0, traj)
    assert touched.any() and not touched.all()
    assert np.array_equal(free[~touched], traj.psi_final[~touched])
    assert hybrid_split_check(model, y0, traj).passed
    for i, j in np.ndindex(G, G):
        psi_final = traj.psi_final.copy()
        psi_final[i, j] += 1.0
        changed = dataclasses.replace(traj, psi_final=psi_final)
        assert hybrid_split_check(model, y0, changed).passed == touched[i, j], (i, j)
