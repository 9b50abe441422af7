"""The public API: the names `lqgkit` exports, listed here so that adding or
removing one is a visible change to this file."""
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
