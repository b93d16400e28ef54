import json
import sys

import numpy as np
import pytest
import scipy.linalg

from finstab import (CheckReport, FrontendSpec, ModalModel, ModelError, build_frontend,
                     check_H1, model_from_json, quasi_contraction_type, run_scenario,
                     scenario_from_json, unobservable_subspace, validate_control_operator)
from finstab import model as model_module
from finstab.decomposition import _metric_normsq
from finstab.model import SolverError, _is_diagonal, _is_identity, pencil_eigvalsh
from finstab.suite import SCENARIOS


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
    with pytest.raises(ModelError, match="symmetric"):
        # at any scale: the Cholesky factor would read one triangle only
        bilinear(A, np.eye(2), M=1e-20 * np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ModelError):
        bilinear(A, np.eye(2), M=np.diag([1.0, -1.0]))  # indefinite
    for near_identity in (np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 0.0])):
        with pytest.raises(ModelError, match="positive definite"):
            bilinear(-np.eye(3), np.eye(3), M=near_identity)
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
    assert not model.is_bilinear()


def _structure_cases():
    """(name, model, expected (identity_metric, generator_symmetric, generator_skew))."""
    yield "Heat1D", build_frontend(FrontendSpec("Heat1D", n_modes=16)).model, (True, True, False)
    yield ("Wave1D", build_frontend(FrontendSpec("Wave1D", n_modes=8, q=3)).model,
           (True, False, True))
    yield ("Beam1D", build_frontend(FrontendSpec("Beam1D", n_modes=8, h_coeffs=(1.0, 0.5))).model,
           (True, False, True))
    rng = np.random.default_rng(7)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + np.eye(4)
    C = rng.standard_normal((4, 4))
    for name, A, expected in (
            ("matrices-non-normal", np.triu(C, 1) * 3.0 - np.eye(4), (False, False, False)),
            ("matrices-self-adjoint", np.linalg.solve(M, C + C.T), (False, True, False)),
            ("matrices-skew-adjoint", np.linalg.solve(M, C - C.T), (False, False, True))):
        yield name, model_from_json({"dim": 4, "metric": M.tolist(), "generator": A.tolist(),
                                     "control_op": "identity"}), expected


@pytest.mark.parametrize("model, expected", [pytest.param(model, expected, id=name)
                                             for name, model, expected in _structure_cases()])
def test_structure_flags_are_the_operators_structure(model, expected):
    # the form <x, A y> = x^T (M A) y is symmetric for a self-adjoint A and
    # antisymmetric for a skew-adjoint one
    M, A = model.metric, model.generator
    form = M @ A
    tol = 1e-9 * max(1.0, float(np.max(np.abs(form))))
    independent = (np.array_equal(M, np.eye(model.dim)),
                   np.allclose(form, form.T, rtol=0.0, atol=tol),
                   np.allclose(form, -form.T, rtol=0.0, atol=tol))
    flags = (model.identity_metric, model.generator_symmetric, model.generator_skew)
    assert flags == independent == expected
    details = check_H1(model, unobservable_subspace(model)).details
    assert (details["generator_symmetric"], details["generator_skew"]) == flags[1:]


@pytest.mark.parametrize("flag", ["identity_metric", "generator_symmetric", "generator_skew"])
def test_structure_flags_are_not_constructor_parameters(flag):
    with pytest.raises(TypeError):
        ModalModel(dim=2, metric=np.eye(2), generator=-np.eye(2), control_op=np.eye(2),
                   **{flag: True})


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
    assert report.passed   # L L* is self-adjoint and PSD by construction
    # its spectrum, on the same path as B's: 0 and 2
    assert report.details["applicable"] is False
    assert report.details["dim_ker_b"] == 1
    assert report.details["min_positive_eigenvalue"] == pytest.approx(2.0, rel=1e-15)


def test_validate_control_operator_solver_failure_is_a_model_error(monkeypatch):
    # a non-diagonal B reaches the solver; a diagonal one is read without it
    model = bilinear(-np.eye(2), [[1.0, 1.0], [1.0, 1.0]])
    diagonal = bilinear(-np.eye(2), np.diag([0.0, 3.0]))
    expected = validate_control_operator(diagonal).as_dict()

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(SolverError, match="validate_control_operator: did not converge"):
        validate_control_operator(model)
    assert validate_control_operator(diagonal).as_dict() == expected


def test_model_json_roundtrip():
    model = bilinear(np.diag([-1.0, -4.0]), np.diag([0.0, 1.0]),
                     M=np.diag([1.0, 2.0]), labels=("a", "b"))
    back = model_from_json({"dim": 2, "metric": [[1.0, 0.0], [0.0, 2.0]],
                            "generator": [[-1.0, 0.0], [0.0, -4.0]],
                            "control_op": [[0.0, 0.0], [0.0, 1.0]], "basis_labels": ["a", "b"]})
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
    S = rng.standard_normal((n, n))
    S = S + S.T
    # None is the identity's own form; an identity matrix takes the Cholesky path
    for M in (R @ R.T + 0.1 * np.eye(n), np.eye(n), None):
        for SS in (S, np.diag(np.diagonal(S))):
            ref = scipy.linalg.eigvalsh(SS, np.eye(n) if M is None else M)
            assert np.allclose(pencil_eigvalsh(SS, M), ref, rtol=1e-9,
                               atol=1e-11 * np.max(np.abs(ref)))


def _identity_cases():
    for spec in (FrontendSpec("Heat1D", n_modes=16), FrontendSpec("Wave1D", n_modes=8, q=3),
                 FrontendSpec("Beam1D", n_modes=8, h_coeffs=(1.0, 0.5))):
        bundle = build_frontend(spec)
        yield spec.kind, bundle.model, bundle.dec
    A = np.diag([-1.0, -2.0, -3.0]) + np.triu(np.full((3, 3), 0.25), 1)
    model = model_from_json({"dim": 3, "metric": "identity", "generator": A.tolist(),
                             "control_op": {"diagonal": [0.0, 1.0, 2.0]}})
    yield "matrices", model, unobservable_subspace(model)


def _identity_path_outputs(tmp_path):
    def bits(report):
        return json.dumps(report.as_dict())

    outputs = {}
    for name, model, dec in _identity_cases():
        rows = np.random.default_rng(3).standard_normal((5, model.dim))
        outputs[name] = (quasi_contraction_type(model).hex(),
                         bits(validate_control_operator(model)), bits(check_H1(model, dec)),
                         _metric_normsq(rows, model).tobytes())
    doc = {**SCENARIOS["heat-settling"], "integration": {"t_max": 0.3, "sample_dt": 0.001}}
    out = tmp_path / "heat-settling"
    run_scenario(scenario_from_json(doc), out)
    outputs["run"] = tuple((out / f).read_bytes() for f in ("summary.json", "trajectory.csv"))
    return outputs


def test_identity_shortcut_is_the_general_arithmetic(tmp_path, monkeypatch):
    def general(M):
        # the axis-aligned decomposition's precondition is a check, not a choice of path
        return sys._getframe(1).f_code.co_name == "decomposition_from_axes" and _is_identity(M)

    assert all(model.identity_metric for _, model, _ in _identity_cases())
    direct = _identity_path_outputs(tmp_path / "direct")
    for name, module in list(sys.modules.items()):
        if name.startswith("finstab") and hasattr(module, "_is_identity"):
            monkeypatch.setattr(module, "_is_identity", general)
    # the models built now take the general metric path everywhere
    assert not any(model.identity_metric for _, model, _ in _identity_cases())
    assert _identity_path_outputs(tmp_path / "general") == direct


def _diagonal_path_outputs():
    outputs = []
    for _, model, _ in _identity_cases():
        outputs += [quasi_contraction_type(model).hex(),
                    json.dumps(validate_control_operator(model).as_dict())]
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 64, 257):
        for d in (rng.standard_normal(n), -(np.pi * np.arange(1, n + 1)) ** 2, np.zeros(n),
                  (rng.random(n) < 0.5) * 1.0):
            outputs.append(pencil_eigvalsh(np.diag(d)).tobytes())
    return outputs


def test_diagonal_spectrum_is_the_solver_arithmetic(monkeypatch):
    # the heat operators, the wave's B and the zero symmetric part of its skew A
    # are exactly diagonal, and their spectra are read without eigvalsh
    assert _is_diagonal(np.diag([3.0, -1.0])) and not _is_diagonal(np.ones((2, 2)))
    verdicts = []

    def spied(S):
        verdicts.append(_is_diagonal(S))
        return verdicts[-1]

    monkeypatch.setattr(model_module, "_is_diagonal", spied)
    direct = _diagonal_path_outputs()
    # every pencil_eigvalsh call of the explicit spectra reached the shortcut
    assert verdicts.count(True) >= 20
    for name, module in list(sys.modules.items()):
        if name.startswith("finstab") and hasattr(module, "_is_diagonal"):
            monkeypatch.setattr(module, "_is_diagonal", lambda S: False)
    assert _diagonal_path_outputs() == direct
