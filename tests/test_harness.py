import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    A_BENCH,
    C_BENCH,
    X0_BENCH,
    bench_noise,
    bench_system,
    bench_weights,
    same,
)
from lqgkit import (
    LqrWeights,
    LtvSystem,
    NoiseModel,
    Scenario,
    SweepPoint,
    ValidationError,
    evaluate_cost,
    filter_run,
    monte_carlo,
    run,
    smoother_run,
    sweep,
)
from lqgkit.cli import _bundled_scenario
from lqgkit._linalg import psd_factor
from lqgkit.harness import (CONTROLLERS, ESTIMATORS, FEEDBACK, _config_violations,
                             _violations)
from lqgkit.model import MatrixSchedule


def fig1_scenario(N):
    return Scenario(system=bench_system(N), weights=bench_weights(N),
                    controller="lqr", x0=X0_BENCH)


def fig4_scenario(N=50, estimator="filter", seed=123):
    return Scenario(
        system=bench_system(N, with_output=True),
        weights=bench_weights(N),
        noise=bench_noise(N),
        controller="steady",
        estimator=estimator,
        feedback="true_state",
        x0=None,
        x0_std=2.5,
        sim_Qd=MatrixSchedule.constant(0.0625 * np.eye(2), N),
        sim_Rv=MatrixSchedule.constant(np.array([[0.0625]]), N),
        seed=seed,
    )


class TestRun:
    def test_fig1_cost_table(self):
        expected = {(5, "lqr"): 422.13, (5, "steady"): 432.17,
                    (50, "lqr"): 433.25, (50, "steady"): 433.25}
        for (N, controller), value in expected.items():
            result = run(replace(fig1_scenario(N), controller=controller))
            assert result.cost == pytest.approx(value, abs=0.01)

    def test_open_loop_matches_stepper(self):
        N = 7
        scenario = Scenario(system=bench_system(N), controller="none", x0=X0_BENCH)
        result = run(scenario)
        x = X0_BENCH.copy()
        for k in range(N):
            np.testing.assert_allclose(result.trajectory.states[k], x)
            x = scenario.system.A[k] @ x + scenario.system.B[k] @ np.zeros(1)
        np.testing.assert_allclose(result.trajectory.states[N], x)
        assert result.cost is None

    def test_open_loop_with_zero_process_covariance(self):
        # a noise model with zero disturbance covariance steps exactly like
        # the deterministic recursion
        N = 6
        noise = bench_noise(N, Qd=np.zeros((2, 2)), P0=np.zeros((2, 2)))
        scenario = Scenario(system=bench_system(N), noise=noise,
                            controller="none", x0=X0_BENCH, seed=5)
        result = run(scenario)
        x = X0_BENCH.copy()
        for k in range(N):
            x = scenario.system.A[k] @ x + scenario.system.B[k] @ np.zeros(1)
            np.testing.assert_array_equal(result.trajectory.states[k + 1], x)

    def test_deterministic_per_seed(self):
        a = run(fig4_scenario(seed=9))
        b = run(fig4_scenario(seed=9))
        np.testing.assert_array_equal(a.trajectory.states, b.trajectory.states)
        np.testing.assert_array_equal(a.trajectory.outputs, b.trajectory.outputs)
        np.testing.assert_array_equal(a.trajectory.estimates, b.trajectory.estimates)
        c = run(fig4_scenario(seed=10))
        assert not np.array_equal(a.trajectory.states, c.trajectory.states)

    def test_cost_is_own_trajectory_cost(self):
        result = run(fig4_scenario(seed=4))
        recomputed = evaluate_cost(result.trajectory, bench_weights(50))
        assert result.cost == pytest.approx(recomputed, rel=1e-12)

    def test_truth_shared_across_estimator_modes(self):
        runs = {est: run(fig4_scenario(estimator=est, seed=21))
                for est in ("predictor", "filter", "smoother")}
        base = runs["predictor"].trajectory.states
        for est in ("filter", "smoother"):
            np.testing.assert_array_equal(runs[est].trajectory.states, base)

    def test_estimate_feedback_equals_true_feedback_without_noise(self):
        # zero disturbance and exact initial belief: the filter reproduces
        # the true state (P stays 0, so the gain is 0 and the tiny
        # measurement noise never enters), and both feedback modes coincide
        N = 12
        noise = bench_noise(N, Qd=np.zeros((2, 2)), Rv=np.array([[1e-6]]),
                            P0=np.zeros((2, 2)))
        common = dict(system=bench_system(N, with_output=True), weights=bench_weights(N),
                      noise=noise, controller="lqr", estimator="filter", x0=X0_BENCH)
        truth = run(Scenario(feedback="true_state", **common))
        estimated = run(Scenario(feedback="estimate", **common))
        np.testing.assert_allclose(estimated.trajectory.states, truth.trajectory.states,
                                   atol=1e-9)
        np.testing.assert_allclose(estimated.trajectory.estimates[-1],
                                   truth.trajectory.states[-1], atol=1e-9)

    def test_covariance_ordering_fig4(self):
        filt = run(fig4_scenario(estimator="filter", seed=2))
        smooth = run(fig4_scenario(estimator="smoother", seed=2))
        pred_diag = np.array([np.diag(b.cov) for b in filt.estimator_run.predicted])
        filt_diag = np.diagonal(filt.trajectory.covariances, axis1=1, axis2=2)
        smooth_diag = np.diagonal(smooth.trajectory.covariances, axis1=1, axis2=2)
        for k in range(1, 51):
            assert np.all(smooth_diag[k] <= filt_diag[k] + 1e-10)
            assert np.all(filt_diag[k] <= pred_diag[k - 1] + 1e-10)

    def test_luenberger_mode(self):
        import scipy.signal
        N = 25
        L = scipy.signal.place_poles(A_BENCH.T, C_BENCH.T, [0.3, 0.4]).gain_matrix.T
        scenario = replace(fig4_scenario(N=N), estimator="luenberger", luenberger_gain=L)
        rho = max(abs(np.linalg.eigvals(A_BENCH - L @ C_BENCH)))
        assert rho < 1.0
        result = run(scenario)
        err0 = np.linalg.norm(result.trajectory.states[0] - result.trajectory.estimates[0])
        err_end = np.linalg.norm(result.trajectory.states[-1] - result.trajectory.estimates[-1])
        assert err_end < max(err0, 1.0)
        assert result.trajectory.covariances is None

    def test_luenberger_has_no_covariance(self):
        # a fixed-gain observer computes no covariance, so none is reported
        # (an all-zero one would make NEES or NIS divide by zero)
        N = 10
        scenario = replace(fig4_scenario(N=N), estimator="luenberger",
                           luenberger_gain=[[0.0], [2.5]])
        result = run(scenario)
        assert result.trajectory.covariances is None
        est = result.estimator_run
        assert est.predicted.covs is None and est.predicted[-1].cov is None
        assert same(est.predicted.means, result.trajectory.estimates)
        assert est.gains.shape == (N, 2, 1) and est.innovations.shape == (N, 1)
        assert monte_carlo(scenario, [0, 1]).covariances is None

    def test_smoother_run_equals_the_runs_smoother(self):
        # the library passes over a run's recorded inputs and outputs equal
        # the run's own smoother bit for bit
        scenario = fig4_scenario(estimator="smoother", seed=8)
        result = run(scenario)
        traj = result.trajectory
        filtered = filter_run(scenario.system, scenario.noise, traj.inputs, traj.outputs)
        smoothed = smoother_run(scenario.system, scenario.noise, filtered)
        est = result.estimator_run
        for which in ("predicted", "updated", "smoothed"):
            got, want = getattr(smoothed, which), getattr(est, which)
            assert same(got.means, want.means) and same(got.covs, want.covs)
            assert [b.tag for b in got] == [b.tag for b in want]
        assert same(smoothed.gains, est.gains) and same(smoothed.innovations, est.innovations)
        assert est.smoothed.covs is traj.covariances
        assert same(est.smoothed.means, traj.estimates)

    def test_settling_only_for_lqr_schedule(self):
        assert run(fig1_scenario(50)).settling is not None
        assert run(replace(fig1_scenario(50), controller="steady")).settling is None

    def test_lqg_mode_estimate_feedback(self):
        # steady gain on the filter estimate regulates the unstable plant
        # down to noise-floor fluctuations (a time-varying LQR schedule
        # would let noise grow again through its myopic tail gains)
        N = 60
        scenario = Scenario(
            system=bench_system(N, with_output=True), weights=bench_weights(N),
            noise=bench_noise(N, Qd=0.01 * np.eye(2), Rv=np.array([[0.01]]),
                              P0=0.01 * np.eye(2)),
            controller="steady", estimator="filter", feedback="estimate",
            x0=None, seed=3,
        )
        result = run(scenario)
        # noise-floor fluctuation ~1.7 here; the unregulated plant would be
        # at 1.5^60 ~ 1e10 by the end of the horizon
        tail = np.linalg.norm(result.trajectory.states[-20:], axis=1)
        assert tail.mean() < 3.0
        assert result.estimator_run is not None


class TestRunValidation:
    def test_model_violations_raise(self):
        bad = replace(fig1_scenario(5), weights=bench_weights(6))
        with pytest.raises(ValidationError):
            run(bad)

    def test_estimator_requires_measurements(self):
        scenario = Scenario(system=bench_system(5), noise=bench_noise(5),
                            estimator="filter", x0=X0_BENCH)
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert any("measurement matrix" in v for v in excinfo.value.violations)

    def test_smoother_cannot_feed_back(self):
        scenario = replace(fig4_scenario(estimator="smoother"), feedback="estimate")
        with pytest.raises(ValidationError):
            run(scenario)

    def test_fixed_controller_needs_gain(self):
        with pytest.raises(ValidationError):
            run(replace(fig1_scenario(5), controller="fixed"))

    def test_unknown_selector(self):
        with pytest.raises(ValidationError):
            run(replace(fig1_scenario(5), controller="pid"))

    @pytest.mark.parametrize("field", ["x0", "fixed_gain", "luenberger_gain",
                                       "sim_Qd", "sim_Rv"])
    def test_non_finite_scenario_fields_named(self, field):
        base = fig4_scenario()
        value = {"x0": [np.nan, 1.0], "fixed_gain": [[np.inf, 0.0]],
                 "luenberger_gain": [[0.0], [np.nan]],
                 "sim_Qd": MatrixSchedule.constant(np.full((2, 2), np.inf), 50),
                 "sim_Rv": MatrixSchedule.constant(np.array([[np.nan]]), 50)}[field]
        with pytest.raises(ValidationError) as excinfo:
            run(replace(base, **{field: value}))
        assert f"{field} has non-finite entries (nan or inf)" in excinfo.value.violations

    @pytest.mark.parametrize("field, value, line", [
        ("fixed_gain", [[2.0], [-2.0]], "fixed_gain has shape (2, 1), expected (1, 2)"),
        ("luenberger_gain", [[0.0, 2.5]], "luenberger_gain has shape (1, 2), expected (2, 1)"),
    ])
    def test_gain_shape_checked(self, field, value, line):
        selector = ({"controller": "fixed"} if field == "fixed_gain"
                    else {"estimator": "luenberger"})
        with pytest.raises(ValidationError) as excinfo:
            run(replace(fig4_scenario(), **selector, **{field: value}))
        assert line in excinfo.value.violations

    @pytest.mark.parametrize("x0_std", ["2.5", True, np.bool_(False), [2.5], 2.5j])
    def test_non_numeric_x0_std_reported(self, x0_std):
        scenario = replace(fig4_scenario(), x0_std=x0_std)
        line = f"x0_std must be a number, got {x0_std!r}"
        assert _violations(scenario) == [line]
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert excinfo.value.violations == [line]

    def test_truth_covariance_shape_checked(self):
        scenario = replace(fig4_scenario(), sim_Qd=MatrixSchedule.constant(np.eye(3), 50))
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert "sim_Qd entries have shape (3, 3), expected (2, 2)" in excinfo.value.violations

    @pytest.mark.parametrize("A, B", [
        (np.diag([1.5, 0.5]), [[0.0], [1.0]]),                     # unstable, unreachable
        (np.diag([1.0, 0.5]), [[0.0], [1.0]]),                     # on the unit circle
        (1.2 * np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
         [[0.0], [0.0]]),                                          # complex pair, no input
        (np.array([[1.5, 1.0], [0.0, 1.5]]), [[1.0], [0.0]]),      # Jordan block, tail end
    ])
    def test_steady_requires_stabilizable_pair(self, A, B):
        scenario = Scenario(system=LtvSystem.lti(A, B, horizon=5), weights=bench_weights(5),
                            controller="steady", x0=X0_BENCH)
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert excinfo.value.violations[0].startswith("(A, B) is not stabilizable")
        # the finite-horizon schedule needs no stabilizability
        assert run(replace(scenario, controller="lqr")).cost is not None

    @pytest.mark.parametrize("A, B", [
        (np.diag([0.5, 1.5]), [[0.0], [1.0]]),                     # only a stable mode unreachable
        (A_BENCH, [[0.5], [0.1]]),
        (np.array([[1.5, 1.0], [0.0, 1.5]]), [[0.0], [1.0]]),      # Jordan block, head end
    ])
    def test_stabilizable_pair_accepted(self, A, B):
        scenario = Scenario(system=LtvSystem.lti(A, B, horizon=5), weights=bench_weights(5),
                            controller="steady", x0=X0_BENCH)
        assert _config_violations(scenario) == []
        assert run(scenario).cost is not None

    def test_steady_requires_lti(self):
        N = 4
        system = bench_system(N)
        ltv = replace(system, A=MatrixSchedule.of([A_BENCH] * N))
        with pytest.raises(ValidationError):
            run(replace(fig1_scenario(N), system=ltv, controller="steady"))


def every_field_scenario(N=4):
    """A valid scenario with every array field set; m = p = 2, so each
    covariance, R and Rv included, can be made asymmetric."""
    eye = np.eye(2)
    return Scenario(
        system=LtvSystem.lti(A_BENCH, eye, eye, horizon=N),
        weights=LqrWeights.constant(eye, eye, horizon=N),
        noise=NoiseModel.constant(eye, eye, X0_BENCH, eye, horizon=N),
        controller="fixed", fixed_gain=0.5 * eye, estimator="luenberger",
        luenberger_gain=0.5 * eye, x0=X0_BENCH,
        sim_Qd=MatrixSchedule.constant(0.0625 * eye, N),
        sim_Rv=MatrixSchedule.constant(0.0625 * eye, N),
    )


# (section of the scenario, or None for the scenario itself; field name)
ARRAY_FIELDS = [(section, field.name)
                for section, cls in (("system", LtvSystem), ("weights", LqrWeights),
                                     ("noise", NoiseModel), (None, Scenario))
                for field in fields(cls)
                if "MatrixSchedule" in field.type or "ndarray" in field.type]
COVARIANCES = ["Q", "R", "Qd", "Rv", "P0", "sim_Qd", "sim_Rv"]


def with_entry(s, section, name, entry):
    """s with field `name` set to `entry`, broadcast if the field is a schedule."""
    owner = s if section is None else getattr(s, section)
    old = getattr(owner, name)
    if isinstance(old, MatrixSchedule):
        entry = MatrixSchedule.constant(entry, len(old))
    changed = replace(owner, **{name: entry})
    return changed if section is None else replace(s, **{section: changed})


class TestFieldRule:
    def test_every_array_field_listed(self):
        names = [name for _, name in ARRAY_FIELDS]
        assert len(names) == 14 and set(COVARIANCES) <= set(names)
        assert _violations(every_field_scenario()) == []

    @pytest.mark.parametrize("section, name", ARRAY_FIELDS)
    def test_non_finite_entry_named(self, section, name):
        s = every_field_scenario()
        owner = s if section is None else getattr(s, section)
        value = getattr(owner, name)
        entry = np.array(value[0] if isinstance(value, MatrixSchedule) else value)
        entry.flat[-1] = np.nan
        report = _violations(with_entry(s, section, name, entry))
        assert f"{name} has non-finite entries (nan or inf)" in report
        assert all(line.startswith(name + " ") for line in report)

    @pytest.mark.parametrize("section, name", [f for f in ARRAY_FIELDS if f[1] in COVARIANCES])
    def test_covariance_symmetry_and_definiteness(self, section, name):
        s = every_field_scenario()
        asymmetric = _violations(with_entry(s, section, name, [[1.0, 0.5], [0.0, 1.0]]))
        assert asymmetric == [f"{name} is not symmetric"]
        indefinite = _violations(with_entry(s, section, name, np.diag([1.0, -1.0])))
        assert len(indefinite) == 1
        assert re.fullmatch(rf"{name} is not positive (semi)?definite \(tol 1e-09\)",
                            indefinite[0])


class TestSweep:
    def test_horizon_axis_settling_condition(self):
        points = sweep(fig1_scenario(5), "N", [5, 50])
        by_value = {pt.value: pt for pt in points}
        assert not by_value[5].k_x < by_value[5].k_K
        assert by_value[50].k_x < by_value[50].k_K
        assert by_value[5].cost == pytest.approx(422.13, abs=0.01)

    def test_identical_seeds_identical_results(self):
        points = sweep(fig4_scenario(), "seed", [41, 41, 42])
        assert points[0].cost == points[1].cost
        assert points[0].terminal_covariance_trace == points[1].terminal_covariance_trace
        assert points[0].cost != points[2].cost

    def test_r_scale_monotone_state_cost(self):
        # heavier input penalty cannot reduce achieved regulation cost
        points = sweep(fig1_scenario(20), "R-scale", [1.0, 10.0])
        assert points[1].cost > points[0].cost

    def test_q_scale(self):
        points = sweep(fig1_scenario(20), "Q-scale", [1.0, 2.0])
        assert points[1].cost > points[0].cost

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            sweep(fig1_scenario(5), "noise", [1.0])

    def test_order_stable(self):
        points = sweep(fig1_scenario(5), "N", [50, 5])
        assert [pt.value for pt in points] == [50.0, 5.0]

    def test_integer_axes_keep_exact_values(self):
        seed = 2**53 + 1                       # float(seed) == 2**53
        [point] = sweep(fig4_scenario(), "seed", [str(seed)])
        assert type(point.value) is int and point.value == seed
        [point] = sweep(fig1_scenario(5), "N", [7.0])
        assert type(point.value) is int and point.value == 7
        [point] = sweep(fig1_scenario(5), "R-scale", ["2"])
        assert type(point.value) is float and point.value == 2.0

    @pytest.mark.parametrize("axis, value, message", [
        ("N", 0, "horizon N must be positive, got 0"),
        ("N", "-2", "horizon N must be positive, got -2"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ])
    def test_out_of_range_value_rejected(self, axis, value, message):
        with pytest.raises(ValidationError) as excinfo:
            sweep(fig4_scenario(), axis, [value])
        assert excinfo.value.violations == [message]

    @pytest.mark.parametrize("seed, message", [
        (-5, "seed must be non-negative, got -5"),
        (np.int64(-2), "seed must be non-negative, got -2"),
        (1.5, "seed must be a non-negative integer, got 1.5"),
        (3.0, "seed must be a non-negative integer, got 3.0"),
        ("3", "seed must be a non-negative integer, got '3'"),
        (None, "seed must be a non-negative integer, got None"),
        (True, "seed must be a non-negative integer, got True"),
        (np.bool_(True), f"seed must be a non-negative integer, got {np.bool_(True)!r}"),
    ], ids=["negative", "numpy-negative", "float", "integral-float", "text", "none", "bool",
            "numpy-bool"])
    def test_negative_seed_rejected_by_run(self, seed, message):
        with pytest.raises(ValidationError) as excinfo:
            run(replace(fig4_scenario(), seed=seed))
        assert excinfo.value.violations == [message]
        assert _violations(replace(fig4_scenario(), seed=seed)) == [message]

    def test_numpy_integer_seed_runs_as_int(self):
        # numpy integers are integers: the run equals the one with the int seed
        a, b = run(replace(fig4_scenario(), seed=np.uint8(7))), run(fig4_scenario(seed=7))
        assert same(a.trajectory.states, b.trajectory.states)

    @pytest.mark.parametrize("axis, value", [("seed", 1.5), ("N", 5.7), ("seed", "1.5"),
                                             ("seed", 3.0), ("seed", True), ("N", True)],
                             ids=["seed-float", "N-float", "seed-text", "seed-integral-float",
                                  "seed-bool", "N-bool"])
    def test_non_integral_value_rejected(self, axis, value):
        with pytest.raises(ValidationError, match=f"{axis} sweep value {value!r} is not an integer"):
            sweep(fig4_scenario(), axis, [value])


def accepted_configurations():
    """Every controller x estimator x feedback the harness accepts.

    On the bundled fig1/fig4 scenarios, with a fixed and an observer gain
    supplied so the 'fixed' and 'luenberger' modes are accepted too.
    """
    cases = []
    for figure in ("fig1", "fig4"):
        base = replace(_bundled_scenario(figure), fixed_gain=[[2.7, -2.7]],
                       luenberger_gain=[[0.0], [2.5]])
        for config in itertools.product(CONTROLLERS, ESTIMATORS, FEEDBACK):
            scenario = replace(base, controller=config[0], estimator=config[1],
                               feedback=config[2])
            if not _config_violations(scenario):
                cases.append(pytest.param(scenario, id=f"{figure}-" + "-".join(config)))
    return cases


def point(value, result) -> SweepPoint:
    trace = None
    if result.trajectory.covariances is not None:
        trace = float(np.diagonal(result.trajectory.covariances[-1]).sum())
    settling = result.settling
    return SweepPoint(value=value, cost=result.cost,
                      k_x=settling.k_x if settling else None,
                      k_K=settling.k_K if settling else None,
                      terminal_covariance_trace=trace)


@pytest.mark.parametrize("scenario", accepted_configurations())
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=4))
@example(seeds=[7, 3, 7, 0])
def test_seed_sweep_equals_independent_runs(scenario, seeds):
    # one shared plan across seeds must give exactly what per-seed runs give
    assert sweep(scenario, "seed", seeds) == \
        [point(v, run(replace(scenario, seed=v))) for v in seeds]


@pytest.mark.parametrize("case", ["definite", "semidefinite", "order-0", "constant"])
def test_factors_equal_psd_factor_of_each_entry(case):
    rng = np.random.default_rng(5)
    n = 0 if case == "order-0" else 3
    W = rng.standard_normal((6, n, n))
    entries = W @ W.swapaxes(1, 2) + 0.1 * np.eye(n)
    if case == "semidefinite":
        entries[4] = np.diag([1.0, 0.0, 2.0])
    sched = MatrixSchedule(entries[:1], 6) if case == "constant" else MatrixSchedule(entries)
    factors = psd_factor(sched.distinct())
    assert factors.shape == sched.distinct().shape
    assert same(factors, np.array([psd_factor(M) for M in sched.distinct()]))


def test_factor_stack_rejects_an_indefinite_entry():
    entries = np.array([np.eye(3), np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0])])
    with pytest.raises(np.linalg.LinAlgError, match="covariance is indefinite"):
        psd_factor(entries)


NOISE_FREE_RUN = """
import json, sys
from lqgkit.cli import main

out = sys.argv[1]
codes = [main(["reproduce", "fig1", "--output", out])]
after_fig1 = "numpy.random" in sys.modules
codes.append(main(["reproduce", "fig4", "--output", out]))
print(json.dumps({"codes": codes, "after_fig1": after_fig1,
                  "after_fig4": "numpy.random" in sys.modules}))
"""


def test_noise_free_runs_draw_nothing(tmp_path):
    # fig1 gives x0 and has no noise model, so no seeded stream is built and
    # numpy.random is never imported; fig4 draws its noise, so it is
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", NOISE_FREE_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "after_fig1": False, "after_fig4": True}
