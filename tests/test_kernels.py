"""closed_loop_rhs and closed_loop_law against the closed-loop field written out from
the model matrices, the row-wise law against the field, and the stepper's tableau."""
import numpy as np
import pytest

from finstab import (ControllerSpec, FrontendSpec, ModalModel, PhiSpec, build_frontend,
                     kernels, unobservable_subspace)
from finstab.controllers import assemble_kernel_args
from finstab.kernels import closed_loop_law, closed_loop_rhs, dead_zone_rule


def rhs(spec, model, dec, y, latched=False):
    """(dy, control, trigger, V, saturated): the field and flags of closed_loop_rhs and the
    control of closed_loop_law at one state."""
    ops = assemble_kernel_args(spec, model, dec)
    dy, trigger, V, saturated = closed_loop_rhs(y, ops, latched, y)
    return dy, closed_loop_law(y, ops, latched)[0], trigger, V, saturated


def coupled_bilinear():
    # W = e1; the drift couples W_perp into W through A[0, 1]
    A = np.array([[-1.0, 0.5, 0.0],
                  [0.0, -2.0, 0.3],
                  [0.0, -0.3, -3.0]])
    model = ModalModel(dim=3, metric=np.eye(3), generator=A,
                       control_op=np.diag([0.0, 1.0, 2.0]))
    return model, unobservable_subspace(model)


def inner(model, a, b):
    return float(a @ model.metric @ b)


@pytest.mark.parametrize("spec", [
    ControllerSpec(variant="ZeroControl"),
    ControllerSpec(variant="BilinearPhi", mu=0.25, phi=PhiSpec("Constant", value=0.5)),
    ControllerSpec(variant="BilinearGrad", mu=0.4),
])
def test_bilinear_family_field(spec):
    model, dec = coupled_bilinear()
    A, B = model.generator, model.control_op
    y = np.array([0.7, -1.1, 0.4])
    py = dec.projection @ y
    V = inner(model, B @ py, py)
    if spec.variant == "ZeroControl":
        u = 0.0
    elif spec.variant == "BilinearPhi":
        u = -(V ** -spec.mu + 0.5)
    else:
        u = -(V ** -spec.mu + inner(model, A @ py, B @ py) / inner(model, B @ py, B @ py))
    ops = assemble_kernel_args(spec, model, dec)
    control, V_k = closed_loop_law(y, ops, False)
    assert V_k == pytest.approx(V, rel=1e-14)
    assert control[0] == pytest.approx(u, rel=1e-14)
    if spec.variant != "ZeroControl":   # free_flow samples it; it is never stepped
        dy, _, _, saturated = closed_loop_rhs(y, ops, False, y)
        assert np.allclose(dy, A @ y + u * (B @ y), rtol=1e-14, atol=1e-14)
        assert not saturated


def test_bilinear_phi_with_the_wave_ratio_compensation():
    bundle = build_frontend(FrontendSpec(kind="Wave1D", n_modes=8, q=3))
    model, dec, phi = bundle.model, bundle.dec, bundle.phi
    assert phi.kind == "WaveK"
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25, phi=phi)
    A, B = model.generator, model.control_op
    y = np.random.default_rng(3).standard_normal(model.dim)
    py = dec.projection @ y
    ratios = [abs(py[i]) / max(abs(py[phi.half + i]), spec.dead_zone) for i in range(phi.q)]
    u = -(inner(model, B @ py, py) ** -spec.mu + min(max(ratios), phi.cap))
    dy, control, _, _, _ = rhs(spec, model, dec, y)
    assert control[0] == pytest.approx(u, rel=1e-14)
    assert np.allclose(dy, A @ y + u * (B @ y), rtol=1e-14, atol=1e-14)


def test_bilinear_grad_saturates_at_u_max():
    model = ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-2.0e6, -1.0]),
                       control_op=np.eye(2))
    spec = ControllerSpec(variant="BilinearGrad", mu=0.25)
    y = np.array([1.0, 0.5])
    dy, control, _, _, saturated = rhs(spec, model, unobservable_subspace(model), y)
    assert saturated
    assert control[0] == spec.u_max
    assert np.allclose(dy, model.generator @ y + spec.u_max * y, rtol=1e-14)


def test_diagonal_bilinear_phi_takes_the_integrating_factor():
    bundle = build_frontend(FrontendSpec(kind="Heat1D", n_modes=6))
    model, dec = bundle.model, bundle.dec
    A, B = model.generator, model.control_op
    ops = assemble_kernel_args(ControllerSpec(variant="BilinearPhi", mu=0.25), model, dec)
    assert np.array_equal(ops.decay, np.diag(A)) and np.array_equal(ops.slope, np.diag(B))
    y, v = np.random.default_rng(2).standard_normal((2, 6))
    u = closed_loop_law(y, ops, False)[0][0]
    assert u == pytest.approx(-(y[1:] @ y[1:]) ** -0.25, rel=1e-14)
    # the slope of the stepped variable v: the law read at y acts on v, without A
    assert np.array_equal(closed_loop_rhs(y, ops, False, v)[0], u * (np.diag(B) * v))
    # BilinearGrad and a non-diagonal A step the plain field
    grad = ControllerSpec(variant="BilinearGrad", mu=0.25)
    assert assemble_kernel_args(grad, model, dec).decay is None
    coupled, coupled_dec = coupled_bilinear()
    plain = assemble_kernel_args(ControllerSpec(variant="BilinearPhi", mu=0.25), coupled,
                                 coupled_dec)
    assert plain.decay is None and plain.law_from == 2 * coupled.dim


def test_linear_phi_field_with_a_weighted_metric():
    L = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    model = ModalModel(dim=3, metric=np.diag([1.0, 2.0, 3.0]),
                       generator=np.diag([-1.0, -2.0, -3.0]), input_map=L)
    dec = unobservable_subspace(model)
    assert dec.dim_w == 1
    spec = ControllerSpec(variant="LinearPhi", mu=0.3)
    y = np.array([2.0, -0.6, 0.9])
    w = L.T @ model.metric @ (dec.projection @ y)
    v = -(w @ w) ** -spec.mu * w
    dy, control, trigger, _, _ = rhs(spec, model, dec, y)
    assert trigger == pytest.approx(w @ w, rel=1e-14)
    assert np.allclose(control, v, rtol=1e-14)
    assert np.allclose(dy, model.generator @ y + L @ v, rtol=1e-14, atol=1e-14)


def rank_one_case():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = ModalModel(dim=2, metric=np.eye(2), generator=A,
                       input_map=np.array([[0.0], [1.0]]))
    spec = ControllerSpec(variant="RankOne", mu=0.25,
                          zeta=np.array([0.0, 1.0]), varpi=np.array([1.0]))
    return model, unobservable_subspace(model), spec


@pytest.mark.parametrize("latched", [False, True])
def test_rank_one_field_and_the_latch(latched):
    model, dec, spec = rank_one_case()
    A, L, zeta = model.generator, model.input_map, spec.zeta
    y = np.array([0.8, 1.5])
    py = dec.projection @ y
    s = inner(model, py, zeta)
    drift = -inner(model, A @ py, zeta) / inner(model, zeta, zeta)
    singular = 0.0 if latched else -s * abs(s) ** (-2.0 * spec.mu)
    v = (singular + drift) * spec.varpi
    dy, control, trigger, _, _ = rhs(spec, model, dec, y, latched=latched)
    assert trigger == pytest.approx(abs(s), rel=1e-14)
    assert np.allclose(control, v, rtol=1e-14)
    assert np.allclose(dy, A @ y + L @ v, rtol=1e-14, atol=1e-14)
    # the drift term is not singular and stays on after the latch
    assert control[0] != 0.0


def test_latch_switches_the_bilinear_law_off():
    model, dec = coupled_bilinear()
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    y = np.array([0.7, -1.1, 0.4])
    dy, control, _, _, _ = rhs(spec, model, dec, y, latched=True)
    assert control[0] == 0.0
    assert np.allclose(dy, model.generator @ y, rtol=1e-15, atol=0.0)


def test_dead_zone_rule_boundaries():
    eps, dt = 2.0 ** -40, 2.0 ** -9
    above = np.nextafter(eps, 1.0)
    # the clamp fires once the time left, T(V), fits in the next step
    assert dead_zone_rule(eps, dt, False, False, dt, eps) == (True, True, False)
    assert dead_zone_rule(above, dt, False, False, dt, eps) == (False, False, False)
    assert dead_zone_rule(eps, np.nextafter(dt, 1.0), False, False, dt,
                          eps) == (True, False, False)
    # latched and clamped once: nothing fires again
    assert dead_zone_rule(eps, dt, True, True, dt, eps) == (False, False, False)
    assert dead_zone_rule(eps, dt, True, False, dt, eps) == (False, True, False)
    # regrowth is a trigger above twice the dead zone after the latch
    assert dead_zone_rule(2.0 * eps, dt, True, True, dt, eps) == (False, False, False)
    assert dead_zone_rule(np.nextafter(2.0 * eps, 1.0), dt, True, True, dt,
                          eps) == (False, False, True)
    assert dead_zone_rule(1.0, 0.0, False, False, dt, eps) == (False, False, False)


def wave_k_input_map_case():
    # two oscillators, positions first; the input map drives both velocities
    omega = np.array([1.0, 2.5])
    A = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.diag(omega ** 2), -0.1 * np.eye(2)]])
    L = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])
    model = ModalModel(dim=4, metric=np.diag([1.0, 6.25, 1.0, 1.0]), generator=A, input_map=L)
    return model, unobservable_subspace(model)


def row_law_cases():
    heat, heat_dec = coupled_bilinear()
    wave = build_frontend(FrontendSpec(kind="Wave1D", n_modes=8, q=3))
    lin, lin_dec = wave_k_input_map_case()
    beam, beam_dec, rank_one = rank_one_case()
    return {
        "ZeroControl": (heat, heat_dec, ControllerSpec(variant="ZeroControl")),
        "BilinearPhi-Zero": (heat, heat_dec, ControllerSpec(variant="BilinearPhi", mu=0.25)),
        "BilinearPhi-Constant": (heat, heat_dec, ControllerSpec(
            variant="BilinearPhi", mu=0.3, phi=PhiSpec("Constant", value=0.5))),
        "BilinearPhi-WaveK": (wave.model, wave.dec, ControllerSpec(
            variant="BilinearPhi", mu=0.25, phi=wave.phi)),
        # u_max low enough that part of the rows saturate, on either side
        "BilinearGrad": (heat, heat_dec, ControllerSpec(variant="BilinearGrad", mu=0.4,
                                                        u_max=0.8)),
        "LinearPhi-WaveK": (lin, lin_dec, ControllerSpec(
            variant="LinearPhi", mu=0.3, phi=PhiSpec("WaveK", cap=50.0, q=2, half=2))),
        "RankOne": (beam, beam_dec, rank_one),
    }


@pytest.mark.parametrize("case", list(row_law_cases()))
def test_row_law_matches_the_per_state_law(case):
    model, dec, spec = row_law_cases()[case]
    ops = assemble_kernel_args(spec, model, dec)
    rng = np.random.default_rng(11)
    ys = rng.standard_normal((40, model.dim))
    ys[::4] *= 1e-13          # triggers below the dead zone
    latched = rng.random(40) < 0.3
    controls, V = closed_loop_law(ys, ops, latched)
    assert controls.shape == (40, ops.width) and V.shape == (40,)
    below = []
    for i in range(40):
        # one state gives the same as its row
        one_control, one_V = closed_loop_law(ys[i], ops, latched[i])
        np.testing.assert_allclose(one_control, controls[i], rtol=1e-14, atol=0.0)
        assert one_V == pytest.approx(V[i], rel=1e-14, abs=0.0)
        if spec.variant == "ZeroControl":   # free_flow samples it; it is never stepped
            below.append(one_V <= spec.dead_zone)
            continue
        dy, trigger, V_i, _ = closed_loop_rhs(ys[i], ops, bool(latched[i]), ys[i])
        # the field closed_loop_rhs steps is the one the row's control drives
        if model.input_map is None:
            drive = controls[i, 0] * (model.control_op @ ys[i])
        else:
            drive = model.input_map @ controls[i]
        np.testing.assert_allclose(dy, model.generator @ ys[i] + drive, rtol=1e-13,
                                   atol=1e-14)
        assert V[i] == pytest.approx(V_i, rel=1e-14, abs=0.0)
        below.append(trigger <= spec.dead_zone)
    assert any(below) and not all(below)
    if spec.variant != "ZeroControl":
        live = ~latched & ~np.array(below)
        assert np.all(controls[live] != 0.0)
    if spec.variant == "BilinearGrad":
        saturated = np.abs(controls[:, 0]) == spec.u_max
        assert np.any(controls[:, 0] == spec.u_max) and np.any(controls[:, 0] == -spec.u_max)
        assert np.any(~saturated & (controls[:, 0] != 0.0))


def test_tableau_rows():
    # row i of the stage block weighs k1..k_i at the node c_i; the last row is b
    c = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    stage = kernels._STAGE
    assert np.allclose(stage[1:].sum(axis=1), c, rtol=0.0, atol=1e-15)
    assert np.array_equal(kernels._NODES[1:], c)   # the integrating factor's nodes
    assert np.all(np.triu(stage) == 0.0)                  # explicit: a_ij = 0 for j >= i
    assert stage[6].sum() == pytest.approx(1.0, abs=1e-15)
    assert stage[6, 1] == 0.0 and stage[6, 6] == 0.0      # b2 = b7 = 0
    assert kernels._ERR.sum() == pytest.approx(0.0, abs=1e-16)
    assert kernels._DENSE.sum() == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(kernels._COEF, np.vstack([stage, kernels._ERR, kernels._DENSE]))
    assert np.array_equal(kernels._COEF[kernels._ROW_ERR], kernels._ERR)
    assert np.array_equal(kernels._COEF[kernels._ROW_DENSE], kernels._DENSE)
