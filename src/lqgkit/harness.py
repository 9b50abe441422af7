"""Scenario assembly and execution: open-loop, LQR, and LQG simulation.

A run is a pure function of (scenario, seed).  The noise draw order is
pinned so results are reproducible and so the true trajectory is identical
across estimator modes under true-state feedback: the initial state (when
sampled) is drawn first, then per step k a disturbance d_k followed by a
measurement noise v_k, as if by one GaussianStream call per vector (each
seed's whole stream is drawn at once, which replays those calls exactly).
v_k is drawn whenever the system has outputs and a noise model, regardless
of estimator mode; measurement j is taken at time j for predictor-convention
estimators (predictor, Luenberger) and at time j+1 for the filter/smoother,
using the j-th stored C/Rv entry either way.  All seeds of a sweep or Monte
Carlo move together in one stacked pass, whose rows equal one-seed runs bit
for bit; `run` is its one-seed case, and `simulate_closed_loop` its
noise-free one.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import _freeze, matvec, psd_factor
from .estimation import EstimatorRun, _EstimatorPlan, _StackedPass
from .lqr import (
    RiccatiSolution,
    SettlingReport,
    _costs,
    _gain_drift,
    _settling_reports,
    _solve_lqr,
    _stabilizability_report,
    _steady_riccati,
)
from .model import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    Trajectory,
    ValidationError,
    _field_violations,
    _intake,
    _planned,
    _system_rows,
    validate,
)
from .stochastic import GaussianStream, _predraw

CONTROLLERS = ("none", "fixed", "lqr", "steady")
ESTIMATORS = ("none", "luenberger", "predictor", "filter", "smoother")
# the estimators whose estimate at time k uses no later measurement
CAUSAL_ESTIMATORS = ("luenberger", "predictor", "filter")
FEEDBACK = ("true_state", "estimate")


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: system, design weights, noise, and policy.

    x0 = None means the initial state is sampled: x0_mean + x0_std * g with
    the scenario's x0_std, or from N(x0_mean, P0) when x0_std is None.
    sim_Qd / sim_Rv, when set, are the covariances the simulated truth
    actually uses while the estimator keeps believing noise.Qd / noise.Rv
    (the scaled-standard-normal convention of the estimation experiment).
    x0, fixed_gain and luenberger_gain are stored as read-only C-ordered
    copies (see `_linalg._freeze`), so a run depends on their values alone.
    """

    system: LtvSystem
    weights: LqrWeights | None = None
    noise: NoiseModel | None = None
    controller: str = "none"
    fixed_gain: np.ndarray | None = None
    estimator: str = "none"
    luenberger_gain: np.ndarray | None = None
    feedback: str = "true_state"
    x0: np.ndarray | None = None
    x0_std: float | None = None
    sim_Qd: MatrixSchedule | None = None
    sim_Rv: MatrixSchedule | None = None
    seed: int = 0

    def __post_init__(self):
        for name, ndmin in (("x0", 1), ("fixed_gain", 2), ("luenberger_gain", 2)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name), ndmin))


@dataclass
class RunResult:
    trajectory: Trajectory
    estimator_run: EstimatorRun | None
    controller_gains: MatrixSchedule | None
    riccati: RiccatiSolution | None
    cost: float | None
    settling: SettlingReport | None


@dataclass
class MonteCarloResult:
    """Runs of one scenario over S seeds, stacked along axis 0 in seed order.

    Row s of each array is the run with seed seeds[s]: states (S, N+1, n),
    inputs (S, N, m), outputs (S, N, p) when the system is measured, the
    estimates aligned with the states (S, N+1, n) and the innovations
    (S, N, p) when an estimator runs, costs (S,) when the scenario has
    weights, and settling reports under an `lqr` controller.  covariances
    (N+1, n, n), aligned with the states, is the estimator's and is the
    same for every seed; a fixed-gain observer computes none (None).
    """

    seeds: list[int]
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray | None
    estimates: np.ndarray | None
    innovations: np.ndarray | None
    costs: np.ndarray | None
    settling: list[SettlingReport] | None
    covariances: np.ndarray | None


@dataclass(frozen=True)
class SweepPoint:
    value: int | float          # an exact int on the N and seed axes
    cost: float | None
    k_x: int | None
    k_K: int | None
    terminal_covariance_trace: float | None


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool: the seed rule."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _config_violations(s: Scenario) -> list[str]:
    problems = []
    if s.controller not in CONTROLLERS:
        problems.append(f"unknown controller '{s.controller}' (choose from {CONTROLLERS})")
    if s.estimator not in ESTIMATORS:
        problems.append(f"unknown estimator '{s.estimator}' (choose from {ESTIMATORS})")
    if s.feedback not in FEEDBACK:
        problems.append(f"unknown feedback '{s.feedback}' (choose from {FEEDBACK})")
    if s.controller in ("lqr", "steady") and s.weights is None:
        problems.append(f"controller '{s.controller}' requires weights")
    if s.controller == "fixed" and s.fixed_gain is None:
        problems.append("controller 'fixed' requires fixed_gain")
    if s.estimator != "none":
        if s.noise is None:
            problems.append(f"estimator '{s.estimator}' requires a noise model")
        if s.system.C is None or s.system.p == 0:
            problems.append(f"estimator '{s.estimator}' requires a measurement matrix C")
    if s.estimator == "luenberger" and s.luenberger_gain is None:
        problems.append("estimator 'luenberger' requires luenberger_gain")
    if (s.feedback == "estimate" and s.estimator in ESTIMATORS
            and s.estimator not in CAUSAL_ESTIMATORS):
        problems.append("feedback on the estimate requires a causal estimator "
                        "(luenberger, predictor, or filter)")
    if s.x0 is None and s.noise is None:
        problems.append("sampled x0 requires a noise model (x0_mean, P0)")
    n, m, p, N = s.system.n, s.system.m, s.system.p, s.system.N
    # an observer gain and a truth sensor covariance are shaped only where there
    # are measurements; a noise-free truth sensor (sim_Rv = 0) is legitimate
    for row in ((s.x0, "x0", (n,)), (s.fixed_gain, "fixed_gain", (m, n)),
                (s.luenberger_gain, "luenberger_gain", (n, p) if p else None),
                (s.sim_Qd, "sim_Qd", (n, n), N, False),
                (s.sim_Rv, "sim_Rv", (p, p) if p else None, N if p else None, False)):
        problems += _field_violations(*row)
    if s.x0_std is not None and (isinstance(s.x0_std, bool)
                                 or not isinstance(s.x0_std, numbers.Real)):
        problems.append(f"x0_std must be a number, got {s.x0_std!r}")
    elif s.x0_std is not None and not np.isfinite(s.x0_std):
        problems.append(f"x0_std is not finite, got {s.x0_std}")
    elif s.x0_std is not None and s.x0_std < 0:
        problems.append(f"x0_std must be non-negative, got {s.x0_std}")
    if not _is_integer(s.seed):
        problems.append(f"seed must be a non-negative integer, got {s.seed!r}")
    elif s.seed < 0:
        problems.append(f"seed must be non-negative, got {s.seed}")
    if s.controller == "steady":
        problems += _steady_violations(s.system, s.weights)
    return problems


def _steady_violations(system: LtvSystem, weights: LqrWeights | None) -> list[str]:
    """What steady-state LQR synthesis needs beyond `validate`: constant
    A, B, Q, R and, when A and B are well formed, a stabilizable (A, B)."""
    schedules = [system.A, system.B] + ([weights.Q, weights.R] if weights is not None else [])
    if not all(sched.is_constant for sched in schedules):
        return ["controller 'steady' requires constant A, B, Q, R"]
    if any(_field_violations(*row[:3]) for row in _system_rows(system)[:2]):
        return []
    return _stabilizability_report(system.A[0], system.B[0])


def _controller_gains(s: Scenario, tol: float, max_iter: int
                      ) -> tuple[MatrixSchedule | None, RiccatiSolution | None]:
    if s.controller == "none":
        return None, None
    if s.controller == "fixed":
        return MatrixSchedule.constant(s.fixed_gain, s.system.N), None
    # the schedules are validated: the private kernels take them as they are
    if s.controller == "lqr":
        solution = _solve_lqr(s.system, s.weights)
        return solution.K, solution
    Q = s.weights.Q[0]
    K = _steady_riccati(s.system.A[0], s.system.B[0], Q, s.weights.R[0], Q, tol, max_iter,
                        "LQR")[1]
    return MatrixSchedule.constant(K, s.system.N), None


@dataclass(frozen=True)
class _Plan:
    """The seed-independent half of a run, built once per Scenario object.

    Validation, controller synthesis and the estimator's gain and covariance
    schedules depend on the scenario but not on its seed; `_simulate` makes
    the seeds' pass.  Under an `lqr` controller `drift` holds each step's
    max|K_k - K_0| (N,), read once here for every seed's settling report
    (see `lqr._gain_drift`).  The factors of the truth's noise covariances
    are not kept here: `_simulate` makes them one step at a time where it
    draws the noise, so each lives no longer than its step's draw.  The
    plan does not hold its scenario, so the memo's weak reference to the
    scenario is the only link between them (see `model._planned`).
    """

    gains: MatrixSchedule | None
    riccati: RiccatiSolution | None
    estimator: _EstimatorPlan | None
    drift: np.ndarray | None


def _violations(s: Scenario) -> list[str]:
    """Everything `run` rejects: model invariants, then scenario configuration."""
    return validate(s.system, s.weights, s.noise) + _config_violations(s)


def _build_plan(s: Scenario, tol: float, max_iter: int) -> _Plan:
    report = _violations(s)
    if report:
        raise ValidationError(report)
    gains, riccati = _controller_gains(s, tol, max_iter)
    estimator = None
    if s.estimator != "none":
        estimator = _EstimatorPlan(s.estimator, s.system, s.noise, s.luenberger_gain)
    return _Plan(gains, riccati, estimator,
                 _gain_drift(riccati.K) if riccati is not None else None)


def _plan(s: Scenario, tol: float, max_iter: int) -> _Plan:
    """The plan of scenario s, built once per Scenario object and (tol,
    max_iter) pair by `model._planned`."""
    return _planned((s,), (tol, max_iter), lambda: _build_plan(s, tol, max_iter))


def _scaled(cov: MatrixSchedule, z: np.ndarray) -> np.ndarray:
    """F_k z[s, k] for every seed s and step k of the normals z (S, N, r),
    where F_k F_k^T = cov_k: the truth's noise, d or v.

    `psd_factor` factors each distinct entry of cov on its own, so a
    constant cov is one call and no factor outlives its step's draw.
    """
    entries = cov.distinct()
    if len(entries) == 1:
        return matvec(psd_factor(entries[0]), z)
    scaled = np.empty(z.shape)
    for k, entry in enumerate(entries):
        scaled[:, k] = matvec(psd_factor(entry), z[:, k])
    return scaled


def _simulate(s: Scenario, plan: _Plan, seeds: list[int], observed: bool = True
              ) -> tuple[MonteCarloResult, _StackedPass]:
    """Draw each seed's noise, then move every seed's true state and
    estimate means together, one stacked product per matrix and step.

    The noise is the seeds' normals times factors of P0 (for a sampled x0
    without x0_std) and of the truth's Qd and Rv (sim_Qd, sim_Rv if set).
    P0 is one `psd_factor` call; Qd and Rv are factored one distinct entry
    at a time (see `_scaled`), so the pass holds no factor.
    Returns the stacked runs with the pass that made them.  A run with a
    given x0 and no noise model draws nothing.

    observed=False (a true-state sweep, see `_points`) moves the true
    states alone and measures and estimates nothing; v's normals are still
    drawn, as the stream interleaves them with d's, but not scaled.
    """
    est = plan.estimator if observed else None
    system, noise = s.system, s.noise
    n, m, p, N, S = system.n, system.m, system.p, system.N, len(seeds)
    sensed = p > 0 and noise is not None       # v is drawn whenever the truth has a sensor
    measuring = sensed and observed

    head = n if s.x0 is None else 0
    counts = (n, p) if sensed else (n,) if noise is not None else ()
    if head or counts:
        heads, z = _predraw([GaussianStream(seed) for seed in seeds], head, counts, N)
    if s.x0 is not None:
        x = np.tile(s.x0, (S, 1))
    elif s.x0_std is not None:
        x = noise.x0_mean + s.x0_std * heads
    else:
        x = noise.x0_mean + matvec(psd_factor(noise.P0), heads)
    d = (_scaled(s.sim_Qd if s.sim_Qd is not None else noise.Qd, z[0])
         if noise is not None else np.zeros((S, N, n)))
    v = _scaled(s.sim_Rv if s.sim_Rv is not None else noise.Rv, z[1]) if measuring else None

    stacked = _StackedPass(system.A.stack, system.C.stack if measuring else None, est, S,
                           (x, d, v))
    B = system.B.stack
    gains = plan.gains.stack if plan.gains is not None else None
    fed = -1 if s.feedback == "estimate" else 0     # the rows the controller reads
    inputs = np.empty((S, N, m))
    u = np.zeros((S, m))
    for k in range(N):
        if gains is not None:
            u = -matvec(gains[k], stacked.rows[k, fed])
        inputs[:, k] = u
        stacked.step(k, matvec(B[k], u))
    estimates = stacked.finish()

    result = MonteCarloResult(
        seeds=list(seeds), states=stacked.states, inputs=inputs, outputs=stacked.outputs,
        estimates=estimates, innovations=stacked.innovations,
        costs=_costs(stacked.states, inputs, s.weights) if s.weights is not None else None,
        settling=(_settling_reports(plan.drift, stacked.states)
                  if plan.drift is not None else None),
        covariances=est.reported if est is not None else None,
    )
    return result, stacked


def run(scenario: Scenario, tol: float = 1e-10, max_iter: int = 100_000) -> RunResult:
    """Execute one scenario; deterministic per (scenario, seed).

    Synthesizes the configured controller, simulates the (possibly noisy)
    system, feeds measurements to the configured estimator, and applies
    u_k = -K_k times the true state or the causal estimate.  The one-seed
    case of `monte_carlo`, and like it reuses the plan of an earlier call
    on the same Scenario object (see `sweep` and `model._planned`).
    """
    plan = _plan(scenario, tol, max_iter)
    runs, stacked = _simulate(scenario, plan, [scenario.seed])
    trajectory = Trajectory(
        states=runs.states[0], inputs=runs.inputs[0],
        outputs=runs.outputs[0] if runs.outputs is not None else None,
        estimates=runs.estimates[0] if runs.estimates is not None else None,
        covariances=runs.covariances,
    )
    return RunResult(
        trajectory=trajectory,
        estimator_run=stacked.run(0) if plan.estimator is not None else None,
        controller_gains=plan.gains,
        riccati=plan.riccati,
        cost=float(runs.costs[0]) if runs.costs is not None else None,
        settling=runs.settling[0] if runs.settling is not None else None,
    )


def simulate_closed_loop(system: LtvSystem, gains, x0: np.ndarray) -> Trajectory:
    """Noise-free forward simulation under u_k = -K_k x_k: the stacked pass
    of one seed with no noise model.

    `gains` is a gain schedule, a single fixed gain matrix, or a
    RiccatiSolution (whose K schedule is used).  ValueError names the first
    argument or schedule that does not fit the system or holds a nan or inf.
    """
    if isinstance(gains, RiccatiSolution):
        gains = gains.K
    if not isinstance(gains, MatrixSchedule):
        gains = MatrixSchedule.constant(gains, system.N)
    *_, x0 = _intake(*_system_rows(system), (gains, "gains", (system.m, system.n), system.N),
                     (x0, "x0", (system.n,)))
    scenario = Scenario(system, x0=x0)
    runs = _simulate(scenario, _Plan(gains, None, None, None), [0])[0]
    return Trajectory(states=runs.states[0], inputs=runs.inputs[0])


def monte_carlo(scenario: Scenario, seeds, tol: float = 1e-10,
                max_iter: int = 100_000) -> MonteCarloResult:
    """Run one scenario once per seed, all seeds in one stacked pass.

    The scenario's own seed is not used.  Seeds must be non-negative
    integers (ValidationError otherwise).  The seed-independent half
    (validation, controller synthesis, estimator gain and covariance
    schedules) is built once per Scenario object, as in `sweep` (see
    `model._planned`); the noise factors are made per call.  Row s of every
    stacked array equals the matching array of `run(replace(scenario,
    seed=seeds[s]))` bit for bit.
    """
    seeds = [_sweep_value("seed", seed) for seed in seeds]
    return _simulate(scenario, _plan(scenario, tol, max_iter), seeds)[0]


def _rescaled(sched: MatrixSchedule, factor: float) -> MatrixSchedule:
    return MatrixSchedule(factor * sched.distinct(), len(sched))


def _rehorizoned(sched: MatrixSchedule | None, name: str, length: int) -> MatrixSchedule | None:
    if sched is None:
        return None
    if not sched.is_constant:
        raise ValidationError([f"N sweep requires constant schedules, but {name} is time-varying"])
    return sched.with_length(length)


def _with_horizon(s: Scenario, N: int) -> Scenario:
    system = LtvSystem(
        n=s.system.n, m=s.system.m, p=s.system.p, N=N,
        A=_rehorizoned(s.system.A, "A", N), B=_rehorizoned(s.system.B, "B", N),
        C=_rehorizoned(s.system.C, "C", N),
    )
    weights = None
    if s.weights is not None:
        weights = LqrWeights(Q=_rehorizoned(s.weights.Q, "Q", N + 1),
                             R=_rehorizoned(s.weights.R, "R", N))
    noise = None
    if s.noise is not None:
        noise = NoiseModel(Qd=_rehorizoned(s.noise.Qd, "Qd", N),
                           Rv=_rehorizoned(s.noise.Rv, "Rv", N),
                           x0_mean=s.noise.x0_mean, P0=s.noise.P0)
    return replace(s, system=system, weights=weights, noise=noise,
                   sim_Qd=_rehorizoned(s.sim_Qd, "sim_Qd", N),
                   sim_Rv=_rehorizoned(s.sim_Rv, "sim_Rv", N))


def _sweep_value(axis: str, value) -> int | float:
    """A sweep value as the run takes it: an exact int on the N and seed axes.

    N and seed values are read without a float round trip, so large seeds
    stay exact: strings must be integer literals.  A seed must otherwise be
    an integer by `Scenario.seed`'s rule (not a bool, not a float); N may
    also be an integral number, but not a bool.  N must be positive and
    seeds non-negative.
    """
    if axis not in ("N", "seed"):
        return float(value)
    exact = None
    if isinstance(value, str) or _is_integer(value):
        try:
            exact = int(value)
        except ValueError:
            pass
    elif (axis == "N" and isinstance(value, numbers.Real) and not isinstance(value, bool)
          and float(value).is_integer()):
        exact = int(value)
    if exact is None:
        raise ValidationError([f"{axis} sweep value {value!r} is not an integer"])
    if axis == "N" and exact < 1:
        raise ValidationError([f"horizon N must be positive, got {exact}"])
    if axis == "seed" and exact < 0:
        raise ValidationError([f"seed must be non-negative, got {exact}"])
    return exact


def _varied(s: Scenario, axis: str, value) -> Scenario:
    if axis == "N":
        return _with_horizon(s, value)
    if axis in ("R-scale", "Q-scale"):
        if s.weights is None:
            raise ValidationError([f"{axis} sweep requires weights"])
        Q, R = s.weights.Q, s.weights.R
        if axis == "R-scale":
            R = _rescaled(R, value)
        else:
            Q = _rescaled(Q, value)
        return replace(s, weights=LqrWeights(Q=Q, R=R))
    raise ValidationError([f"unknown sweep axis '{axis}' "
                           "(choose from N, seed, R-scale, Q-scale)"])


def sweep(scenario: Scenario, axis: str, values, tol: float = 1e-10,
          max_iter: int = 100_000) -> list[SweepPoint]:
    """Independent runs along one parameter axis: N, seed, R-scale, Q-scale.

    Results are ordered by input value.  Values may be numbers or numeric
    strings; N and seed values must be integers, N positive and seeds
    non-negative (ValidationError otherwise), and their points keep the
    exact int as `value`; scale axes report floats.  The N axis requires
    constant (LTI) schedules; scale axes rescale the LQR weights.  A seed
    sweep builds the seed-independent half of a run (validation, controller
    synthesis, estimator gain and covariance schedules) once and moves all
    its seeds in one stacked pass; its points equal independent runs bit
    for bit.  A point reads the estimator only through the plan's terminal
    covariance, so under true-state feedback the pass moves the true states
    alone and measures and estimates nothing.  The plan is kept for the
    Scenario object, not its values: later `sweep`, `monte_carlo` and `run`
    calls on the same object with the same tol and max_iter reuse it,
    `replace(scenario, seed=...)` is a new object with a plan of its own,
    and the plan is freed with its scenario (see `model._planned`).
    """
    values = [_sweep_value(axis, v) for v in values]
    if axis == "seed":
        return _points(scenario, values, values, tol, max_iter)
    return [point for value in values for point in
            _points(_varied(scenario, axis, value), [scenario.seed], [value], tol, max_iter)]


def _points(s: Scenario, seeds: list[int], values: list, tol: float, max_iter: int
            ) -> list[SweepPoint]:
    """The sweep points of one stacked pass of s's plan over seeds.

    A point reads the estimator only through the plan's terminal
    covariance, so under true-state feedback the pass moves the truth alone.
    """
    plan = _plan(s, tol, max_iter)
    runs = _simulate(s, plan, seeds, observed=s.feedback == "estimate")[0]
    reported = plan.estimator.reported if plan.estimator is not None else None
    terminal_trace = float(np.trace(reported[-1])) if reported is not None else None
    settling = runs.settling or [None] * len(seeds)
    costs = runs.costs if runs.costs is not None else [None] * len(seeds)
    return [SweepPoint(value=value, cost=float(cost) if cost is not None else None,
                       k_x=report.k_x if report else None,
                       k_K=report.k_K if report else None,
                       terminal_covariance_trace=terminal_trace)
            for value, cost, report in zip(values, costs, settling)]
