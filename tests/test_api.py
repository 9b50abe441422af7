"""The public API: the names `lqgkit` exports, listed here so that adding or
removing one is a visible change to this file."""
import ast
from pathlib import Path

import lqgkit

PUBLIC = {
    # model
    "LqrWeights", "LtvSystem", "MatrixSchedule", "NoiseModel", "Trajectory",
    "ValidationError", "validate",
    # lqr
    "RiccatiSolution", "SettlingReport", "SteadyStateLqr", "dre_step", "evaluate_cost",
    "mayne_murdoch_gain", "settling_report", "solve_dare_lqr", "solve_lqr",
    # estimation
    "Belief", "EstimatorRun", "SteadyStateEstimator", "filter_predict", "filter_run",
    "filter_update", "luenberger_step", "predictor_run", "predictor_step", "smoother_run",
    "solve_dare_estimator",
    # harness
    "MonteCarloResult", "RunResult", "Scenario", "SweepPoint", "monte_carlo", "run",
    "simulate_closed_loop", "sweep",
    # scenario files
    "ScenarioError", "load_scenario", "parse_scenario", "scenario_to_dict",
    "serialize_scenario",
    # stochastic
    "GaussianStream", "GaussianVector", "JointGaussian", "condition", "gaussian_pdf",
    "multivariate_gaussian_pdf", "sample_gaussian",
    # linear algebra
    "ConvergenceError",
}


def test_public_names():
    assert sorted(lqgkit.__all__) == sorted(PUBLIC)     # and no name listed twice
    for name in lqgkit.__all__:
        assert getattr(lqgkit, name).__module__.startswith("lqgkit.")


def test_runtime_imports_no_private_numpy_module():
    # a private numpy module may change or go in any numpy release, the
    # oldest that pyproject.toml allows included: neither the package nor
    # its tests import one
    private = []
    for path in sorted([*Path(lqgkit.__file__).parent.glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] == "numpy"
                        and any(part.startswith("_") for part in name.split("."))]
    assert private == []
