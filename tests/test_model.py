import numpy as np
import pytest
import scipy.linalg

from finstab import (CheckReport, ModalModel, ModelError, inner, model_from_json,
                     model_to_json, norm, quasi_contraction_type,
                     validate_control_operator)
from finstab.model import pencil_eigvalsh


def bilinear(A, B, M=None, labels=()):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return ModalModel(dim=n, metric=np.eye(n) if M is None else np.asarray(M, float),
                      generator=A, control_op=np.asarray(B, float), basis_labels=labels)


def test_requires_exactly_one_control_slot():
    eye = np.eye(2)
    with pytest.raises(ModelError):
        ModalModel(dim=2, metric=eye, generator=-eye)
    with pytest.raises(ModelError):
        ModalModel(dim=2, metric=eye, generator=-eye, control_op=eye,
                   input_map=np.ones((2, 1)))


def test_rejects_bad_metric():
    A = -np.eye(2)
    with pytest.raises(ModelError):
        bilinear(A, np.eye(2), M=[[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ModelError):
        bilinear(A, np.eye(2), M=np.diag([1.0, -1.0]))  # indefinite
    with pytest.raises(ModelError):
        ModalModel(dim=3, metric=np.eye(2), generator=-np.eye(3), control_op=np.eye(3))


def test_rejects_bad_shapes_and_labels():
    with pytest.raises(ModelError):
        ModalModel(dim=0, metric=np.eye(1), generator=np.eye(1), control_op=np.eye(1))
    with pytest.raises(ModelError):
        bilinear(-np.eye(2), np.eye(3))
    with pytest.raises(ModelError):
        bilinear(-np.eye(2), np.eye(2), labels=("only_one",))


def test_rejects_non_finite_entries():
    eye = np.eye(2)
    bad = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ModelError, match="finite"):
        bilinear(-eye, eye, M=np.diag([1.0, np.inf]))
    with pytest.raises(ModelError, match="finite"):
        bilinear(bad, eye)
    with pytest.raises(ModelError, match="finite"):
        bilinear(-eye, bad)
    with pytest.raises(ModelError, match="finite"):
        ModalModel(dim=2, metric=eye, generator=-eye, input_map=np.array([1.0, np.inf]))


def test_default_labels_and_input_map_reshape():
    model = ModalModel(dim=3, metric=np.eye(3), generator=-np.eye(3),
                       input_map=np.array([0.0, 1.0, 0.0]))
    assert model.basis_labels == ("y1", "y2", "y3")
    assert model.input_map.shape == (3, 1)
    assert model.n_inputs == 1
    assert not model.is_bilinear()


def test_inner_and_norm_use_the_metric():
    model = bilinear(-np.eye(2), np.eye(2), M=np.diag([1.0, 4.0]))
    assert inner(model, [1.0, 1.0], [1.0, 0.0]) == 1.0
    assert inner(model, [0.0, 1.0], [0.0, 1.0]) == 4.0
    # sqrt(1 + 4) for the metric diag(1, 4)
    assert norm(model, [1.0, 1.0]) == pytest.approx(2.23606797749979, rel=1e-15)
    with pytest.raises(ModelError):
        inner(model, [1.0], [1.0, 0.0])


def test_quasi_contraction_type_diagonal():
    model = bilinear(np.diag([-1.0, -4.0]), np.eye(2))
    assert quasi_contraction_type(model) == pytest.approx(-1.0, abs=1e-12)


def test_quasi_contraction_type_with_metric():
    # sym(MA) = [[0, 1/2], [1/2, 0]] against M = diag(1, 4):
    # det(sym(MA) - lam M) = 4 lam^2 - 1/4, so omega = 1/4
    model = ModalModel(dim=2, metric=np.diag([1.0, 4.0]),
                       generator=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       control_op=np.eye(2))
    assert quasi_contraction_type(model) == pytest.approx(0.25, rel=1e-12)


def test_quasi_contraction_type_skew_is_zero():
    model = bilinear(np.array([[0.0, 2.0], [-2.0, 0.0]]), np.eye(2))
    assert abs(quasi_contraction_type(model)) < 1e-12


def test_validate_control_operator_accepts_psd():
    report = validate_control_operator(bilinear(-np.eye(2), np.diag([0.0, 3.0])))
    assert report.passed
    assert report.details["applicable"]
    assert report.details["self_adjoint_residual"] == 0.0
    assert report.details["min_rayleigh_quotient"] >= -1e-12


def test_validate_control_operator_rejects_non_self_adjoint():
    report = validate_control_operator(bilinear(-np.eye(2), [[0.0, 1.0], [0.0, 0.0]]))
    assert not report.passed


def test_validate_control_operator_rejects_indefinite():
    report = validate_control_operator(bilinear(-np.eye(2), np.diag([1.0, -1.0])))
    assert not report.passed
    assert report.details["min_rayleigh_quotient"] < 0.0


def test_validate_control_operator_skips_input_map_models():
    model = ModalModel(dim=2, metric=np.eye(2), generator=-np.eye(2),
                       input_map=np.ones((2, 1)))
    report = validate_control_operator(model)
    assert report.passed
    assert report.details == {"applicable": False}


def test_model_json_roundtrip():
    model = bilinear(np.diag([-1.0, -4.0]), np.diag([0.0, 1.0]),
                     M=np.diag([1.0, 2.0]), labels=("a", "b"))
    back = model_from_json(model_to_json(model))
    assert back.dim == model.dim
    assert np.array_equal(back.metric, model.metric)
    assert np.array_equal(back.generator, model.generator)
    assert np.array_equal(back.control_op, model.control_op)
    assert back.basis_labels == model.basis_labels


def test_model_from_json_shorthands():
    model = model_from_json({"dim": 2, "generator": {"diagonal": [-1.0, -2.0]},
                             "control_op": "identity"})
    assert np.array_equal(model.metric, np.eye(2))
    assert np.array_equal(model.generator, np.diag([-1.0, -2.0]))
    assert np.array_equal(model.control_op, np.eye(2))


def test_model_from_json_rejects_malformed():
    with pytest.raises(ModelError):
        model_from_json({"generator": "identity"})
    with pytest.raises(ModelError):
        model_from_json({"dim": 2, "control_op": "identity"})
    with pytest.raises(ModelError):
        model_from_json({"dim": 2, "generator": {"diagonal": [-1.0]},
                         "control_op": "identity"})


def test_check_report_as_dict_converts_numpy_values():
    report = CheckReport("demo", True, {"x": np.float64(1.5), "v": np.arange(2),
                                        "nested": {"k": np.int64(3)}})
    doc = report.as_dict()
    assert doc == {"name": "demo", "passed": True, "x": 1.5, "v": [0, 1],
                   "nested": {"k": 3}}
    assert isinstance(doc["x"], float)


@pytest.mark.parametrize("seed", range(5))
def test_pencil_eigvalsh_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 3 + 4 * seed
    R = rng.standard_normal((n, n))
    M = R @ R.T + 0.1 * np.eye(n)
    S = rng.standard_normal((n, n))
    S = S + S.T
    ref = scipy.linalg.eigvalsh(S, M)
    assert np.allclose(pencil_eigvalsh(S, M), ref, rtol=1e-9, atol=1e-11 * np.max(np.abs(ref)))
