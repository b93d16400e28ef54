"""closed_loop_rhs against the closed-loop field written out from the model matrices."""
import numpy as np
import pytest

from finstab import (ControllerSpec, FrontendSpec, ModalModel, PhiSpec, build_frontend,
                     unobservable_subspace)
from finstab.controllers import assemble_kernel_args
from finstab.kernels import closed_loop_rhs


def rhs(spec, model, dec, y, latched=False):
    return closed_loop_rhs(y, assemble_kernel_args(spec, model, dec), latched)


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
    dy, control, _, V_k, saturated = rhs(spec, model, dec, y)
    assert V_k == pytest.approx(V, rel=1e-14)
    assert control[0] == pytest.approx(u, rel=1e-14)
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
