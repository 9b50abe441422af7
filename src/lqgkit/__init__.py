"""Discrete-time linear control and estimation toolkit.

Finite-horizon and steady-state LQR synthesis, Kalman prediction, filtering
and RTS smoothing, Gaussian conditioning/sampling utilities, and a
scenario-driven simulation harness with a CSV-emitting CLI (`lqgkit`).
"""

from ._linalg import ConvergenceError
from .estimation import (
    Belief,
    EstimatorRun,
    SteadyStateEstimator,
    filter_predict,
    filter_run,
    filter_update,
    luenberger_step,
    predictor_run,
    predictor_step,
    smoother_run,
    solve_dare_estimator,
)
from .harness import (MonteCarloResult, RunResult, Scenario, SweepPoint, monte_carlo, run,
                      simulate_closed_loop, sweep)
from .lqr import (
    RiccatiSolution,
    SettlingReport,
    SteadyStateLqr,
    dre_step,
    evaluate_cost,
    mayne_murdoch_gain,
    settling_report,
    solve_dare_lqr,
    solve_lqr,
)
from .model import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    Trajectory,
    ValidationError,
    validate,
)
from .scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)
from .stochastic import (
    GaussianStream,
    GaussianVector,
    JointGaussian,
    condition,
    gaussian_pdf,
    multivariate_gaussian_pdf,
    sample_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "ConvergenceError",
    "EstimatorRun",
    "GaussianStream",
    "GaussianVector",
    "JointGaussian",
    "LqrWeights",
    "LtvSystem",
    "MatrixSchedule",
    "MonteCarloResult",
    "NoiseModel",
    "RiccatiSolution",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SettlingReport",
    "SteadyStateEstimator",
    "SteadyStateLqr",
    "SweepPoint",
    "Trajectory",
    "ValidationError",
    "condition",
    "dre_step",
    "evaluate_cost",
    "filter_predict",
    "filter_run",
    "filter_update",
    "gaussian_pdf",
    "load_scenario",
    "luenberger_step",
    "mayne_murdoch_gain",
    "monte_carlo",
    "multivariate_gaussian_pdf",
    "parse_scenario",
    "predictor_run",
    "predictor_step",
    "run",
    "sample_gaussian",
    "scenario_to_dict",
    "serialize_scenario",
    "settling_report",
    "simulate_closed_loop",
    "smoother_run",
    "solve_dare_estimator",
    "solve_dare_lqr",
    "solve_lqr",
    "sweep",
    "validate",
]
