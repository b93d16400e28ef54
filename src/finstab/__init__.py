"""Numerical laboratory for decomposition-based finite-time stabilization.

Models are modal truncations of bilinear (dy/dt = Ay + u By) or linear
(dy/dt = Ay + Lv) evolution systems.  The package splits the state space into
an unobservable part W and its metric-orthogonal complement, builds singular
feedback laws on the observable part, integrates the closed loop, and checks
the decay envelopes and settling-time bounds those laws promise.
"""
# This line exists only so that benchmark records can read
# sys.modules["scipy"].__version__.  No finstab module uses scipy, and the bare
# package loads none of its submodules (no scipy.linalg).  ROADMAP item 1
# deletes it.
import scipy  # noqa: F401

from .controllers import (DEFAULT_DEAD_ZONE, DEFAULT_U_MAX, DEFAULT_WAVE_CAP, ControllerSpec,
                          PhiSpec, controller_from_json, controller_to_json,
                          settling_bound_details, validate_law_for_model)
from .decomposition import (DecompositionResult, check_H1, check_H2, compute_gamma,
                            gamma_certificate, unobservable_subspace)
from .frontends import (FrontendBundle, FrontendSpec, HybridModel, HybridState,
                        HybridTrajectory, build_frontend, hybrid_decay_check,
                        hybrid_split_check, hybrid_v, simulate_hybrid, transport_heat_model)
from .integrator import (IntegrationOpts, IntegrationStalledError, Trajectory,
                         simulate, verify_decay,
                         verify_lyapunov_stability, verify_split)
from .model import (CheckReport, ModalModel, ModelError, model_from_json,
                    quasi_contraction_type, validate_control_operator)
from .scenario import (EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, EXIT_STALLED,
                       ConfigError, ScenarioConfig, build_scenario, check_scenario,
                       load_scenario, run_scenario, scenario_from_json)

__version__ = "0.1.0"

# the integration kernels are plain numpy; benchmark records still read this
# flag (ROADMAP item 1)
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "ControllerSpec", "PhiSpec",
    "DEFAULT_DEAD_ZONE", "DEFAULT_U_MAX", "DEFAULT_WAVE_CAP",
    "controller_from_json", "controller_to_json",
    "settling_bound_details", "validate_law_for_model",
    "DecompositionResult", "check_H1", "check_H2", "compute_gamma",
    "gamma_certificate", "unobservable_subspace",
    "FrontendBundle", "FrontendSpec", "HybridModel", "HybridState", "HybridTrajectory",
    "build_frontend", "hybrid_decay_check", "hybrid_split_check", "hybrid_v",
    "simulate_hybrid", "transport_heat_model",
    "IntegrationOpts", "IntegrationStalledError", "Trajectory",
    "simulate", "verify_decay", "verify_lyapunov_stability", "verify_split",
    "CheckReport", "ModalModel", "ModelError", "model_from_json",
    "quasi_contraction_type", "validate_control_operator",
    "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_CONFIG_ERROR", "EXIT_STALLED",
    "ConfigError", "ScenarioConfig", "build_scenario", "check_scenario",
    "load_scenario", "run_scenario", "scenario_from_json",
]
