import numpy as np
import pytest

from finstab import (DEFAULT_DEAD_ZONE, UNBOUNDED, ControllerSpec, ModalModel,
                     ModelError, PhiSpec, control_value, controller_from_json,
                     controller_to_json, compute_delta, compute_gamma,
                     decomposition_from_axes, settling_bound,
                     settling_bound_details, unobservable_subspace,
                     validate_rank_one_data)
from dataclasses import replace


def finished_dec(model, analytic_delta=None):
    dec = unobservable_subspace(model)
    return replace(dec, gamma=compute_gamma(model, dec),
                   delta=compute_delta(model, dec, analytic_delta))


def diag_bilinear():
    return ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-1.0, -4.0]),
                      control_op=np.eye(2))


def velocity_linear():
    # input on the second axis only; W = e1
    return ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-1.0, -1.0]),
                      input_map=np.array([[0.0], [1.0]]))


def oscillator_rank_one():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = ModalModel(dim=2, metric=np.eye(2), generator=A,
                       input_map=np.array([[0.0], [1.0]]))
    spec = ControllerSpec(variant="RankOne", mu=0.25,
                          zeta=np.array([0.0, 1.0]), varpi=np.array([1.0]))
    return model, spec


def test_mu_range_validation():
    with pytest.raises(ModelError):
        ControllerSpec(variant="BilinearPhi", mu=0.5)
    with pytest.raises(ModelError):
        ControllerSpec(variant="LinearPhi", mu=0.6)
    ControllerSpec(variant="BilinearGrad", mu=0.6)  # wider admissible range
    with pytest.raises(ModelError):
        ControllerSpec(variant="BilinearGrad", mu=1.0)
    with pytest.raises(ModelError):
        ControllerSpec(variant="NoSuchLaw")
    with pytest.raises(ModelError):
        ControllerSpec(variant="BilinearPhi", dead_zone=0.0)


def test_rank_one_spec_requires_direction_data():
    with pytest.raises(ModelError):
        ControllerSpec(variant="RankOne")
    with pytest.raises(ModelError):
        ControllerSpec(variant="RankOne", zeta=np.zeros(2), varpi=np.ones(1))


def test_validate_rank_one_data_ties_zeta_to_the_input_map():
    model, spec = oscillator_rank_one()
    validate_rank_one_data(spec, model)
    bad = ControllerSpec(variant="RankOne", zeta=np.array([1.0, 0.0]),
                         varpi=np.array([1.0]))
    with pytest.raises(ModelError):
        validate_rank_one_data(bad, model)


def test_bilinear_phi_value():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    # V = 4 at y = (2, 0): u = -V^{-mu} = -1/sqrt(2)
    u = control_value(spec, model, dec, np.array([2.0, 0.0]))[0]
    assert u == pytest.approx(-0.7071067811865475, rel=1e-14)


def test_bilinear_phi_constant_compensation():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25,
                          phi=PhiSpec(kind="Constant", value=0.5))
    u = control_value(spec, model, dec, np.array([2.0, 0.0]))[0]
    assert u == pytest.approx(-1.2071067811865475, rel=1e-14)


def test_bilinear_phi_dead_zone_silences_the_feedback():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25,
                          phi=PhiSpec(kind="Constant", value=0.5))
    tiny = np.array([1e-8, 0.0])  # V = 1e-16 <= default dead zone
    assert control_value(spec, model, dec, tiny)[0] == 0.0


def test_bilinear_grad_value():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearGrad", mu=0.25)
    # at y = (2, 0): <APy, BPy>/||BPy||^2 = -1, so u = 1 - 1/sqrt(2)
    u = control_value(spec, model, dec, np.array([2.0, 0.0]))[0]
    assert u == pytest.approx(0.29289321881345254, rel=1e-14)


def test_bilinear_grad_saturates_at_u_max():
    model = ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-2.0e6, -1.0]),
                       control_op=np.eye(2))
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearGrad", mu=0.25)
    u = control_value(spec, model, dec, np.array([1.0, 0.0]))[0]
    assert u == spec.u_max == 1.0e6


def test_linear_phi_value():
    model = velocity_linear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="LinearPhi", mu=0.25)
    # w = (3,): v = -||w||^{-2 mu} w = -sqrt(3)
    v = control_value(spec, model, dec, np.array([0.0, 3.0]))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(-1.7320508075688772, rel=1e-14)


def test_rank_one_value():
    model, spec = oscillator_rank_one()
    dec = finished_dec(model)
    # s = 2 and <Py, A* zeta> = 0 at y = (0, 2): v = -2 |2|^{-1/2} = -sqrt(2)
    v = control_value(spec, model, dec, np.array([0.0, 2.0]))
    assert v[0] == pytest.approx(-1.4142135623730951, rel=1e-14)


def test_rank_one_drift_term_survives_the_dead_zone():
    model, spec = oscillator_rank_one()
    dec = finished_dec(model)
    # s = 0 at y = (1, 0) but <Py, A* zeta> = -1, so the drift term still acts
    v = control_value(spec, model, dec, np.array([1.0, 0.0]))
    assert v[0] == 1.0


def test_control_value_dispatch():
    model = diag_bilinear()
    dec = finished_dec(model)
    zero = control_value(ControllerSpec(variant="ZeroControl"), model, dec,
                         np.array([2.0, 0.0]))
    assert np.array_equal(zero, np.zeros(1))
    u = control_value(ControllerSpec(variant="BilinearPhi", mu=0.25), model, dec,
                      np.array([2.0, 0.0]))
    assert u.shape == (1,)
    assert u[0] == pytest.approx(-0.7071067811865475, rel=1e-14)


def test_bilinear_scaling_law():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    y = np.array([0.7, -1.3])
    u = control_value(spec, model, dec, y)[0]
    for c in (0.5, 2.0, 10.0):
        scaled = control_value(spec, model, dec, c * y)[0]
        assert scaled == pytest.approx(c ** (-2.0 * spec.mu) * u, rel=1e-12)


def test_control_ignores_the_unobservable_component():
    model = ModalModel(dim=3, metric=np.eye(3), generator=np.diag([-1.0, -2.0, -3.0]),
                       control_op=np.diag([0.0, 1.0, 1.0]))
    # exact 0/1 projector so the invariance holds bitwise, not just approximately
    dec = decomposition_from_axes(model, (0,))
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    y = np.array([0.0, 0.4, -0.9])
    w = np.array([5.0, 0.0, 0.0])  # lives in W
    assert control_value(spec, model, dec, y + w)[0] == \
        control_value(spec, model, dec, y)[0]


def test_settling_bound_zero_control_is_none():
    model = diag_bilinear()
    dec = finished_dec(model)
    assert settling_bound(ControllerSpec(variant="ZeroControl"), model, dec,
                          np.array([1.0, 1.0])) is None


def test_settling_bound_bilinear_phi():
    model = diag_bilinear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    # V0 = 2, gamma = 1: bound = 2^{1/4} / (2 * 1 * 1/4) = 2^{5/4}
    bound = settling_bound(spec, model, dec, np.array([1.0, 1.0]))
    assert bound == pytest.approx(2.378414230005442, rel=1e-14)


def test_settling_bound_grad_adds_the_nilpotency_horizon():
    model = ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-1.0, -4.0]),
                       control_op=np.diag([0.0, 1.0]))
    dec = finished_dec(model, analytic_delta=0.75)
    spec = ControllerSpec(variant="BilinearGrad", mu=0.25)
    bound, extras = settling_bound_details(spec, model, dec, np.array([0.3, 1.0]))
    assert bound == pytest.approx(extras["t1"] + 0.75, rel=1e-14)


def test_settling_bound_unbounded_without_nilpotency():
    model = ModalModel(dim=2, metric=np.eye(2), generator=np.diag([-1.0, -4.0]),
                       control_op=np.diag([0.0, 1.0]))
    dec = finished_dec(model)  # delta stays NotNilpotent
    spec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    bound, extras = settling_bound_details(spec, model, dec, np.array([1.0, 1.0]))
    assert bound is UNBOUNDED
    assert "reason" in extras
    # the same data restricted to W_perp is still covered by the bound
    assert isinstance(settling_bound(spec, model, dec, np.array([0.0, 1.0])), float)


def test_settling_bound_linear_phi():
    model = velocity_linear()
    dec = finished_dec(model)
    spec = ControllerSpec(variant="LinearPhi", mu=0.25)
    # ||w0|| = 3: bound = 3^{1/2} / (2 * 1 * 1/4) = 2 sqrt(3)
    bound = settling_bound(spec, model, dec, np.array([0.0, 3.0]))
    assert bound == pytest.approx(3.4641016151377544, rel=1e-14)


def test_settling_bound_rank_one_reports_both_forms():
    model, spec = oscillator_rank_one()
    dec = finished_dec(model)
    bound, extras = settling_bound_details(spec, model, dec, np.array([0.0, 2.0]))
    # proof form |s0|^{2 mu}/(2 mu ||zeta||^2) = 2 sqrt(2)
    assert bound == pytest.approx(2.8284271247461903, rel=1e-14)
    assert extras["t1_statement_form"] == pytest.approx(4.756828460010884, rel=1e-14)


def test_controller_json_roundtrip():
    spec = ControllerSpec(variant="RankOne", mu=0.3, dead_zone=1e-10,
                          zeta=np.array([0.0, 1.0]), varpi=np.array([1.0]),
                          phi=PhiSpec(kind="Constant", value=0.25))
    back = controller_from_json(controller_to_json(spec))
    assert back.variant == spec.variant
    assert back.mu == spec.mu
    assert back.dead_zone == spec.dead_zone
    assert back.phi == spec.phi
    assert np.array_equal(back.zeta, spec.zeta)
    assert np.array_equal(back.varpi, spec.varpi)


def test_controller_json_shorthand_and_errors():
    spec = controller_from_json({"variant": "BilinearPhi", "phi": "Zero"})
    assert spec.phi.kind == "Zero"
    assert spec.dead_zone == DEFAULT_DEAD_ZONE
    with pytest.raises(ModelError):
        controller_from_json({"mu": 0.25})
    with pytest.raises(ModelError):
        PhiSpec(kind="WaveK")  # needs q and half
    with pytest.raises(ModelError):
        PhiSpec(kind="Sine")


def test_variant_model_mismatch_is_rejected():
    model = diag_bilinear()
    dec = finished_dec(model)
    lspec = ControllerSpec(variant="LinearPhi", mu=0.25)
    with pytest.raises(ModelError):
        control_value(lspec, model, dec, np.array([1.0, 0.0]))
    lin = velocity_linear()
    ldec = finished_dec(lin)
    bspec = ControllerSpec(variant="BilinearPhi", mu=0.25)
    with pytest.raises(ModelError):
        control_value(bspec, lin, ldec, np.array([0.0, 1.0]))
