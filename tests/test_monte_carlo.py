"""The stacked seed pass: `monte_carlo`, seed sweeps, and `run` share one kernel.

Row s of a stacked pass must equal the independent run with seed s bit for
bit, sign of zero included, on time-varying systems of several sizes and in
every configuration the harness accepts.  The consistency test checks the
filter's error statistics over 10k seeds against the covariance it reports
(the NEES test of Bar-Shalom, Li & Kirubarajan, Estimation with Applications
to Tracking and Navigation, 2001, sec. 5.4).
"""
import itertools
import time
import tracemalloc
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A_BENCH, B_BENCH, K_STEADY, bench_noise, bench_system, bench_weights
from lqgkit import (
    GaussianStream,
    GaussianVector,
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    MonteCarloResult,
    NoiseModel,
    Scenario,
    SweepPoint,
    ValidationError,
    filter_run,
    monte_carlo,
    parse_scenario,
    predictor_run,
    run,
    sample_gaussian,
    simulate_closed_loop,
    solve_dare_estimator,
    solve_lqr,
    sweep,
)
from lqgkit.cli import _bundled_scenario
from lqgkit.harness import CONTROLLERS, ESTIMATORS, FEEDBACK, _config_violations


def ltv_scenario(seed, n, m, p, N):
    """Per-step A, B, C, Q, R, Qd, Rv; SPD P0; a fixed and an observer gain."""
    rng = np.random.default_rng(seed)

    def spd(dim, floor):
        W = rng.standard_normal((dim, dim))
        return floor * np.eye(dim) + 0.5 * (W @ W.T + (W @ W.T).T) / dim

    system = LtvSystem.from_schedules(
        [1.2 * rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(N)],
        [rng.standard_normal((n, m)) for _ in range(N)],
        [rng.standard_normal((p, n)) for _ in range(N)], horizon=N)
    weights = LqrWeights(Q=MatrixSchedule.of([spd(n, 0.0) for _ in range(N + 1)]),
                         R=MatrixSchedule.of([spd(m, 0.5) for _ in range(N)]))
    noise = NoiseModel(Qd=MatrixSchedule.of([spd(n, 0.1) for _ in range(N)]),
                       Rv=MatrixSchedule.of([spd(p, 0.1) for _ in range(N)]),
                       x0_mean=rng.standard_normal(n), P0=spd(n, 0.1))
    return Scenario(system=system, weights=weights, noise=noise,
                    fixed_gain=0.3 * rng.standard_normal((m, n)),
                    luenberger_gain=0.3 * rng.standard_normal((n, p)),
                    x0=rng.standard_normal(n))


def ltv_configurations():
    """Every controller x estimator x feedback accepted on an LTV system, each
    with x0 given and with x0 sampled from N(x0_mean, P0)."""
    base = ltv_scenario(0, 2, 1, 1, 3)
    cases = []
    for config in itertools.product(CONTROLLERS, ESTIMATORS, FEEDBACK):
        settings_ = dict(zip(("controller", "estimator", "feedback"), config))
        if _config_violations(replace(base, **settings_)):
            continue
        for x0 in ("given", "P0"):
            cases.append(pytest.param(settings_, x0, id="-".join(config + (x0,))))
    return cases


def same(a, b):
    """Equal shapes and bytes: equal values, sign of zero included."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def point(value, result) -> SweepPoint:
    trace = None
    if result.trajectory.covariances is not None:
        trace = float(np.diagonal(result.trajectory.covariances[-1]).sum())
    settling = result.settling
    return SweepPoint(value=value, cost=result.cost,
                      k_x=settling.k_x if settling else None,
                      k_K=settling.k_K if settling else None,
                      terminal_covariance_trace=trace)


def test_configurations_cover_the_kernel():
    ids = [case.id for case in ltv_configurations()]
    assert len(ids) == 48
    assert not any(i.startswith("steady") for i in ids)      # steady needs constant A, B
    assert "lqr-smoother-true_state-P0" in ids and "lqr-filter-estimate-given" in ids


@pytest.mark.parametrize("config, x0", ltv_configurations())
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(system_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 3),
       p=st.integers(1, 3), N=st.integers(1, 8),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=17, max_size=17))
def test_stacked_pass_equals_independent_runs(config, x0, system_seed, n, m, p, N, seeds):
    scenario = replace(ltv_scenario(system_seed, n, m, p, N), **config)
    if x0 == "P0":
        scenario = replace(scenario, x0=None)
    runs = [run(replace(scenario, seed=seed)) for seed in seeds]
    for S in (1, 2, 17):
        assert sweep(scenario, "seed", seeds[:S]) == \
            [point(seed, result) for seed, result in zip(seeds[:S], runs)]
    stacked = monte_carlo(scenario, seeds)
    for s, result in enumerate(runs):
        traj = result.trajectory
        assert same(stacked.states[s], traj.states)
        assert same(stacked.inputs[s], traj.inputs)
        assert same(stacked.outputs[s], traj.outputs)
        assert same(stacked.estimates[s] if stacked.estimates is not None else None,
                    traj.estimates)
        assert stacked.costs[s] == result.cost
        assert (stacked.settling[s] if stacked.settling else None) == result.settling
        if config["estimator"] in ("predictor", "filter", "smoother"):
            assert same(stacked.innovations[s], result.estimator_run.innovations)
    assert same(stacked.covariances, runs[0].trajectory.covariances)


def held_bytes(result) -> int:
    """The bytes of every distinct numpy buffer a run's result holds."""
    buffers = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif hasattr(obj, "__dict__"):
            for item in vars(obj).values():
                visit(item)
    visit(result)
    return sum(buffers.values())


def test_run_peaks_near_what_its_result_holds():
    # numpy reports its buffers to tracemalloc.  With every stack above
    # order 8, a run made nothing horizon-sized that it did not return but
    # its noise factors (held until the run returned) and the smoother's
    # stacked gain solve (twice its answer), and peaked at 1.46 times its result
    scenario = replace(ltv_scenario(0, 24, 4, 6, 40), controller="lqr", estimator="smoother",
                       x0=None)
    run(scenario)       # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        result = run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * held_bytes(result)


def one_vector_run(s, seed):
    """The run as one-vector products, each noise vector drawn by its own
    sample_gaussian call: the per-seed loop the stacked pass replaced, kept
    as the oracle.  Kalman gains come from the covariance pass (they read no
    data); states, inputs, outputs, means and the cost are formed here."""
    system, noise, N = s.system, s.noise, s.system.N
    n, m, p = system.n, system.m, system.p
    A, B, C = list(system.A), list(system.B), list(system.C)
    stream = GaussianStream(seed)
    x = s.x0 if s.x0 is not None else sample_gaussian(noise.initial_belief(), stream)[0]
    K = {"none": None, "fixed": [s.fixed_gain] * N,
         "lqr": list(solve_lqr(system, s.weights).K)}[s.controller]
    L = None
    if s.estimator != "none":
        estimator = predictor_run if s.estimator == "predictor" else filter_run
        L = estimator(system, noise, np.zeros((N, m)), np.zeros((N, p))).gains
    mean = noise.x0_mean
    states, inputs, outputs, means = [x], [], [], [mean]
    for k in range(N):
        d = sample_gaussian(GaussianVector(np.zeros(n), noise.Qd[k]), stream)[0]
        v = sample_gaussian(GaussianVector(np.zeros(p), noise.Rv[k]), stream)[0]
        u = np.zeros(m) if K is None else -(K[k] @ (mean if s.feedback == "estimate" else x))
        if s.estimator != "filter":                  # measurement at time k
            outputs.append(C[k] @ x + v)
            if L is not None:
                mean = A[k] @ mean + B[k] @ u + L[k] @ (outputs[k] - C[k] @ mean)
        x = A[k] @ x + B[k] @ u + d
        if s.estimator == "filter":                  # measurement at time k+1
            outputs.append(C[k] @ x + v)
            predicted = A[k] @ mean + B[k] @ u
            mean = predicted + L[k] @ (outputs[k] - C[k] @ predicted)
        states.append(x)
        inputs.append(u)
        means.append(mean)
    Q, R = s.weights.Q, s.weights.R
    J = float(x @ Q[N] @ x)
    for k in range(N):
        J += float(states[k] @ Q[k] @ states[k]) + float(inputs[k] @ R[k] @ inputs[k])
    return np.array(states), np.array(inputs), np.array(outputs), np.array(means), J


@pytest.mark.parametrize("config", [
    c for c in itertools.product(("none", "fixed", "lqr"), ("none", "predictor", "filter"),
                                 FEEDBACK, ("given", "P0"))
    if c[2] == "true_state" or c[1] != "none"], ids="-".join)
def test_stacked_pass_equals_one_vector_products(config):
    controller, estimator, feedback, x0 = config
    seeds = [0, 3, 2**40]
    for dims in ((1, 1, 1, 3), (3, 2, 2, 6), (6, 3, 3, 8)):
        scenario = replace(ltv_scenario(sum(dims), *dims), controller=controller,
                           estimator=estimator, feedback=feedback)
        if x0 == "P0":
            scenario = replace(scenario, x0=None)
        stacked = monte_carlo(scenario, seeds)
        for s, seed in enumerate(seeds):
            states, inputs, outputs, means, cost = one_vector_run(scenario, seed)
            assert same(stacked.states[s], states) and same(stacked.inputs[s], inputs)
            assert same(stacked.outputs[s], outputs)
            if estimator != "none":
                assert same(stacked.estimates[s], means)
            assert stacked.costs[s] == cost


def fortran_ordered(s: Scenario) -> Scenario:
    """s with every matrix handed over in Fortran order and every vector strided."""
    def matrices(sched):
        return MatrixSchedule(np.asfortranarray(sched.distinct()), len(sched))

    def strided(v):
        return None if v is None else np.repeat(v, 2)[::2]
    system, weights, noise = s.system, s.weights, s.noise
    return replace(
        s, system=replace(system, A=matrices(system.A), B=matrices(system.B),
                          C=matrices(system.C)),
        weights=LqrWeights(Q=matrices(weights.Q), R=matrices(weights.R)),
        noise=NoiseModel(Qd=matrices(noise.Qd), Rv=matrices(noise.Rv),
                         x0_mean=strided(noise.x0_mean), P0=np.asfortranarray(noise.P0)),
        fixed_gain=np.asfortranarray(s.fixed_gain),
        luenberger_gain=np.asfortranarray(s.luenberger_gain), x0=strided(s.x0))


def layout_cases():
    """Every accepted configuration on an LTV model, and a steady controller
    with the steady observer gain on an LTI one."""
    cases = []
    for dims in ((3, 2, 2, 6), (6, 3, 3, 8)):
        base = ltv_scenario(sum(dims), *dims)
        for config in itertools.product(CONTROLLERS, ESTIMATORS, FEEDBACK, (True, False)):
            scenario = replace(base, **dict(zip(("controller", "estimator", "feedback"),
                                                config)))
            scenario = scenario if config[3] else replace(scenario, x0=None)
            if not _config_violations(scenario):
                cases.append(pytest.param(scenario, id="-".join(map(str, dims + config))))
    lti = ltv_scenario(1, 3, 2, 2, 1)
    A, B, C = (np.array([[0.5, 0.2, 0.0], [-1.0, 1.2, 0.3], [0.0, 0.4, 0.9]]),
               lti.system.B[0], lti.system.C[0])
    steady = replace(lti, system=LtvSystem.lti(A, B, C, horizon=20),
                     weights=LqrWeights.constant(np.eye(3), np.eye(2), horizon=20),
                     noise=NoiseModel.constant(np.eye(3), np.eye(2), lti.noise.x0_mean,
                                               lti.noise.P0, horizon=20),
                     controller="steady", estimator="luenberger", feedback="estimate",
                     luenberger_gain=solve_dare_estimator(A, C, np.eye(3), np.eye(2)).L)
    return cases + [pytest.param(steady, id="steady-luenberger-estimate")]


@pytest.mark.parametrize("scenario", layout_cases())
def test_results_depend_on_values_not_layout(scenario):
    # a run reads every matrix in C order, whatever order it was given in
    fortran = fortran_ordered(scenario)
    for given in (fortran.x0, fortran.fixed_gain, fortran.luenberger_gain):
        assert given is None or (given.flags.c_contiguous and not given.flags.writeable)
    seeds = [0, 5, 2**40]
    ours, theirs = monte_carlo(scenario, seeds), monte_carlo(fortran, seeds)
    for field in fields(MonteCarloResult):
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        assert a == b if field.name in ("seeds", "settling") else same(a, b), field.name
    ours, theirs = run(scenario).estimator_run, run(fortran).estimator_run
    if ours is not None:
        for beliefs in ("predicted", "updated", "smoothed"):
            a, b = getattr(ours, beliefs), getattr(theirs, beliefs)
            if a is not None:
                assert same(a.means, b.means) and same(a.covs, b.covs), beliefs
        assert same(ours.gains, theirs.gains) and same(ours.innovations, theirs.innovations)


class TestMonteCarlo:
    def test_rows_equal_runs_on_fig4(self):
        scenario = _bundled_scenario("fig4")
        seeds = [5, 0, 5, 2**63 + 1]
        stacked = monte_carlo(scenario, seeds)
        assert stacked.seeds == seeds
        assert stacked.states.shape == (4, 51, 2) and stacked.inputs.shape == (4, 50, 1)
        assert stacked.outputs.shape == (4, 50, 1) and stacked.innovations.shape == (4, 50, 1)
        assert stacked.covariances.shape == (51, 2, 2)
        assert not stacked.covariances.flags.writeable
        for s, seed in enumerate(seeds):
            result = run(replace(scenario, seed=seed))
            assert same(stacked.states[s], result.trajectory.states)
            assert same(stacked.estimates[s], result.trajectory.estimates)
            assert stacked.costs[s] == result.cost
        assert stacked.settling is None             # settling needs an `lqr` controller

    def test_without_estimator_or_noise(self):
        stacked = monte_carlo(_bundled_scenario("fig1"), [0, 1])
        assert stacked.outputs is stacked.estimates is stacked.innovations is None
        assert stacked.covariances is None
        assert same(stacked.states[0], stacked.states[1])   # x0 given, no noise
        assert stacked.settling == [run(_bundled_scenario("fig1")).settling] * 2

    def test_no_seeds(self):
        stacked = monte_carlo(_bundled_scenario("fig4"), [])
        assert stacked.states.shape == (0, 51, 2) and stacked.costs.shape == (0,)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative"), (1.5, "is not an integer"),
        # the rule of Scenario.seed: an integral float or a bool is no seed
        (3.0, "seed sweep value 3.0 is not an integer"),
        (True, "seed sweep value True is not an integer")])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ValidationError, match=message):
            monte_carlo(_bundled_scenario("fig4"), [0, seed])

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValidationError):
            monte_carlo(replace(_bundled_scenario("fig4"), controller="pid"), [0])


class TestForwardRecursion:
    """One step x_{k+1} = A_k x_k + B_k u_k + d_k of the stacked pass, read
    from `run` and `monte_carlo`."""

    def test_benchmark_step(self):
        states = run(Scenario(bench_system(1), x0=[10.0, 5.0])).trajectory.states
        np.testing.assert_allclose(states[1], [5.0, -2.5])

    @pytest.mark.parametrize("controller", ["none", "lqr"])
    def test_zero_fixed_point(self, controller):
        traj = run(Scenario(bench_system(5), bench_weights(5), controller=controller,
                            x0=[0.0, 0.0])).trajectory
        np.testing.assert_array_equal(traj.states, np.zeros((6, 2)))
        np.testing.assert_array_equal(traj.inputs, np.zeros((5, 1)))

    def test_scalar(self):
        # x_1 = 0.5 x_0 + u_0 with x_0 = 2 and u_0 = -K x_0 = 1
        system = LtvSystem.lti([[0.5]], [[1.0]], horizon=3)
        traj = run(Scenario(system, controller="fixed", fixed_gain=[[-0.5]], x0=[2.0])).trajectory
        np.testing.assert_allclose(traj.inputs[0], [1.0])
        np.testing.assert_allclose(traj.states[1], [2.0])

    def test_linearity(self, rng):
        # noise-free under a fixed gain, states and inputs are linear in x0
        base = replace(ltv_scenario(5, 3, 2, 2, 6), controller="fixed", noise=None)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            x1, x2 = rng.standard_normal((2, 3))
            lhs, one, two = (run(replace(base, x0=x0)).trajectory
                             for x0 in (a * x1 + b * x2, x1, x2))
            np.testing.assert_allclose(lhs.states, a * one.states + b * two.states, atol=1e-12)
            np.testing.assert_allclose(lhs.inputs, a * one.inputs + b * two.inputs, atol=1e-12)

    def test_constant_equals_explicit_schedule(self):
        N = 8
        ltv = LtvSystem.from_schedules([A_BENCH] * N, [B_BENCH] * N, horizon=N)
        lti = Scenario(bench_system(N), bench_weights(N), bench_noise(N), controller="lqr",
                       x0=[1.0, -2.0])
        a, b = monte_carlo(lti, [0, 1, 2]), monte_carlo(replace(lti, system=ltv), [0, 1, 2])
        assert same(a.states, b.states) and same(a.inputs, b.inputs)

    def test_zero_noise_degeneracy(self):
        # a truth with zero covariances steps and measures like the noise-free pass
        N = 5
        system, x0 = bench_system(N, with_output=True), np.array([3.0, -1.0])
        scenario = Scenario(system, noise=bench_noise(N), controller="fixed", fixed_gain=K_STEADY,
                            x0=x0, sim_Qd=MatrixSchedule.constant(np.zeros((2, 2)), N),
                            sim_Rv=MatrixSchedule.constant(np.zeros((1, 1)), N))
        stacked = monte_carlo(scenario, [0, 1])
        noise_free = simulate_closed_loop(system, K_STEADY, x0)
        for s in range(2):
            np.testing.assert_array_equal(stacked.states[s], noise_free.states)
            np.testing.assert_array_equal(stacked.outputs[s],
                                          [system.C[k] @ x for k, x in
                                           enumerate(noise_free.states[:-1])])

    def test_disturbance_moments(self):
        # x0 = 0 and u = 0, so the state after one step is exactly the disturbance
        scenario = Scenario(bench_system(1, with_output=True), noise=bench_noise(1),
                            x0=[0.0, 0.0])
        draws = monte_carlo(scenario, range(10_000)).states[:, 1]
        np.testing.assert_allclose(np.cov(draws.T), np.eye(2), atol=0.1)

    def test_no_output_system(self):
        scenario = Scenario(bench_system(3), noise=bench_noise(3), x0=[1.0, 0.0])
        stacked = monte_carlo(scenario, [0, 1])
        assert stacked.outputs is None and stacked.states.shape == (2, 4, 2)
        assert run(scenario).trajectory.outputs is None


@pytest.mark.parametrize("case", ["fig1", "ltv"])
def test_simulate_closed_loop_is_the_lqr_run(case):
    # the library's noise-free simulation and an `lqr` run are one path
    base = _bundled_scenario("fig1") if case == "fig1" else ltv_scenario(11, 4, 2, 2, 9)
    system, weights, x0 = base.system, base.weights, base.x0
    traj = simulate_closed_loop(system, solve_lqr(system, weights), x0)
    result = run(Scenario(system, weights, controller="lqr", x0=x0))
    assert same(traj.states, result.trajectory.states)
    assert same(traj.inputs, result.trajectory.inputs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(system_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), p=st.integers(1, 3),
       N=st.integers(1, 24), singular_Qd=st.booleans())
def test_smoother_filter_predictor_loewner_order(system_seed, n, p, N, singular_Qd):
    # P_{k|N} <= P_{k|k} <= P_{k|k-1} in the Loewner order, within rounding
    scenario = replace(ltv_scenario(system_seed, n, 1, p, N), estimator="smoother")
    if singular_Qd:                 # rank one: the disturbance moves one direction
        G = np.random.default_rng(system_seed).standard_normal((N, n, 1))
        Qd = MatrixSchedule(G @ G.transpose(0, 2, 1))
        scenario = replace(scenario, noise=replace(scenario.noise, Qd=Qd))
    est = run(scenario).estimator_run

    def below(lower, upper):
        size = max(np.abs(lower).max(), np.abs(upper).max())
        assert np.linalg.eigvalsh(upper - lower).min() >= -1e-9 * size

    for k in range(N + 1):
        below(est.smoothed[k].cov, est.updated[k].cov)
        if k:
            assert est.predicted[k - 1].tag == (k, k - 1)
            below(est.updated[k].cov, est.predicted[k - 1].cov)


def fig4_without_truth() -> Scenario:
    text = (resources.files("lqgkit") / "scenarios" / "fig4.scn").read_text(encoding="utf-8")
    head, tail = text.split("truth:\n")
    return parse_scenario(head + tail[tail.index("run:"):])


def test_filter_consistency_over_10k_seeds():
    # With the truth section deleted, the simulated noise is the noise the
    # filter assumes, so the final error x_N - x_{N|N} is N(0, P(N|N)).  Over
    # S = 10k seeds a sample variance has relative standard error
    # sqrt(2 / (S - 1)) = 1.4%, the error mean sqrt(P_ii / S), and the
    # average NEES e^T P^-1 e (n = 2 degrees of freedom) sqrt(2 n / S) = 0.02;
    # each is held to five standard errors.
    scenario = fig4_without_truth()
    assert scenario.sim_Qd is scenario.sim_Rv is scenario.x0_std is None
    S, n = 10_000, scenario.system.n
    start = time.perf_counter()
    stacked = monte_carlo(scenario, range(S))
    elapsed = time.perf_counter() - start
    errors = stacked.states[:, -1] - stacked.estimates[:, -1]
    P = stacked.covariances[-1]
    variances = np.diag(P)
    rel = np.abs(errors.var(axis=0, ddof=1) - variances) / variances
    assert np.all(rel < 5 * np.sqrt(2 / (S - 1))), f"relative deviation {rel}"
    assert np.all(np.abs(errors.mean(axis=0)) < 5 * np.sqrt(variances / S))
    anees = np.mean(np.sum(errors * np.linalg.solve(P, errors.T).T, axis=1))
    assert abs(anees - n) < 5 * np.sqrt(2 * n / S), f"ANEES {anees}"
    # 0.6-1.1 s on a 2-vCPU host; one run per seed took ~12 s
    assert elapsed < 5.0
