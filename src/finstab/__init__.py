"""Numerical laboratory for decomposition-based finite-time stabilization.

Models are modal truncations of bilinear (dy/dt = Ay + u By) or linear
(dy/dt = Ay + Lv) evolution systems.  The package splits the state space into
an unobservable part W and its metric-orthogonal complement, builds singular
feedback laws on the observable part, integrates the closed loop, and checks
the decay envelopes and settling-time bounds those laws promise.
"""
from .controllers import (DEFAULT_DEAD_ZONE, DEFAULT_U_MAX, DEFAULT_WAVE_CAP, UNBOUNDED,
                          ControllerSpec, PhiSpec, control_value, controller_from_json,
                          controller_to_json, settling_bound, settling_bound_details,
                          validate_rank_one_data)
from .decomposition import (NOT_NILPOTENT, DecompositionResult, check_H1, check_H2,
                            compute_delta, compute_gamma, decomposition_from_axes,
                            gamma_certificate, unobservable_subspace)
from .frontends import (FrontendBundle, FrontendSpec, HybridModel, HybridState,
                        HybridTrajectory, beam_model, build_frontend, heat_field_on_grid,
                        heat_model, hybrid_decay_check, hybrid_norm, hybrid_split_check,
                        hybrid_v, rank_one_controller, simulate_hybrid, transport_heat_model,
                        transport_step, wave_model)
from .integrator import (IntegrationOpts, IntegrationStalledError, Trajectory,
                         simulate, verify_decay,
                         verify_lyapunov_stability, verify_split)
from .model import (CheckReport, ModalModel, ModelError, inner, model_from_json,
                    model_to_json, norm, quasi_contraction_type,
                    validate_control_operator)
from .scenario import (EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, EXIT_STALLED,
                       ConfigError, ScenarioConfig, build_scenario, check_scenario,
                       load_scenario, run_scenario, scenario_from_json)

__version__ = "0.1.0"

# the integration kernels are plain numpy; benchmark records still read this
# flag (ROADMAP item 1)
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "ControllerSpec", "PhiSpec", "UNBOUNDED",
    "DEFAULT_DEAD_ZONE", "DEFAULT_U_MAX", "DEFAULT_WAVE_CAP",
    "control_value", "controller_from_json", "controller_to_json",
    "settling_bound", "settling_bound_details", "validate_rank_one_data",
    "NOT_NILPOTENT", "DecompositionResult", "check_H1", "check_H2", "compute_delta",
    "compute_gamma", "decomposition_from_axes", "gamma_certificate",
    "unobservable_subspace",
    "FrontendBundle", "FrontendSpec", "HybridModel", "HybridState", "HybridTrajectory",
    "beam_model", "build_frontend", "heat_field_on_grid", "heat_model",
    "hybrid_decay_check", "hybrid_norm", "hybrid_split_check", "hybrid_v",
    "rank_one_controller", "simulate_hybrid", "transport_heat_model", "transport_step",
    "wave_model",
    "IntegrationOpts", "IntegrationStalledError", "Trajectory",
    "simulate", "verify_decay", "verify_lyapunov_stability", "verify_split",
    "CheckReport", "ModalModel", "ModelError", "inner", "model_from_json",
    "model_to_json", "norm", "quasi_contraction_type", "validate_control_operator",
    "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_CONFIG_ERROR", "EXIT_STALLED",
    "ConfigError", "ScenarioConfig", "build_scenario", "check_scenario",
    "load_scenario", "run_scenario", "scenario_from_json",
]

# Benchmark records read the version of the oracle's linear-algebra package
# from sys.modules; the run path no longer imports it, the suite's c7 oracle
# does (ROADMAP item 1).
from . import suite  # noqa: E402,F401
