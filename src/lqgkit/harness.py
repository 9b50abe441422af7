"""Scenario assembly and execution: open-loop, LQR, and LQG simulation.

A run is a pure function of (scenario, seed).  The noise draw order is
pinned so results are reproducible and so the true trajectory is identical
across estimator modes under true-state feedback: the initial state (when
sampled) is drawn first, then per step k a disturbance d_k followed by a
measurement noise v_k, as if by one GaussianStream call per vector (a run
draws its whole stream at once, which replays those calls exactly).  v_k
is drawn whenever the system has outputs and a noise model, regardless of
estimator mode; measurement j is taken at time j for predictor-convention
estimators (predictor, Luenberger) and at time j+1 for the filter/smoother,
using the j-th stored C/Rv entry either way.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import psd_factor
from .estimation import EstimatorRun, _EstimatorPlan
from .lqr import (
    RiccatiSolution,
    SettlingReport,
    settling_report,
    solve_dare_lqr,
    solve_lqr,
)
from .lqr import evaluate_cost as _evaluate_cost
from .model import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    Trajectory,
    ValidationError,
    _check_dims,
    _check_finite,
    validate,
)
from .stochastic import GaussianStream, _predraw

CONTROLLERS = ("none", "fixed", "lqr", "steady")
ESTIMATORS = ("none", "luenberger", "predictor", "filter", "smoother")
FEEDBACK = ("true_state", "estimate")


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: system, design weights, noise, and policy.

    x0 = None means the initial state is sampled: x0_mean + x0_std * g with
    the scenario's x0_std, or from N(x0_mean, P0) when x0_std is None.
    sim_Qd / sim_Rv, when set, are the covariances the simulated truth
    actually uses while the estimator keeps believing noise.Qd / noise.Rv
    (the scaled-standard-normal convention of the estimation experiment).
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
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.fixed_gain is not None:
            object.__setattr__(self, "fixed_gain",
                               np.atleast_2d(np.asarray(self.fixed_gain, dtype=float)))
        if self.luenberger_gain is not None:
            object.__setattr__(self, "luenberger_gain",
                               np.atleast_2d(np.asarray(self.luenberger_gain, dtype=float)))


@dataclass
class RunResult:
    trajectory: Trajectory
    estimator_run: EstimatorRun | None
    controller_gains: MatrixSchedule | None
    riccati: RiccatiSolution | None
    cost: float | None
    settling: SettlingReport | None
    covariance_diagonals: np.ndarray | None


@dataclass(frozen=True)
class SweepPoint:
    value: int | float          # an exact int on the N and seed axes
    cost: float | None
    k_x: int | None
    k_K: int | None
    terminal_covariance_trace: float | None


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
    if s.feedback == "estimate" and s.estimator in ("none", "smoother"):
        problems.append("feedback on the estimate requires a causal estimator "
                        "(luenberger, predictor, or filter)")
    if s.x0 is None and s.noise is None:
        problems.append("sampled x0 requires a noise model (x0_mean, P0)")
    if s.x0 is not None and s.x0.shape != (s.system.n,):
        problems.append(f"x0 has shape {s.x0.shape}, expected ({s.system.n},)")
    for value, name in ((s.x0, "x0"), (s.fixed_gain, "fixed_gain"),
                        (s.luenberger_gain, "luenberger_gain"), (s.sim_Qd, "sim_Qd"),
                        (s.sim_Rv, "sim_Rv")):
        _check_finite(problems, value, name)
    if s.x0_std is not None and not np.isfinite(s.x0_std):
        problems.append(f"x0_std is not finite, got {s.x0_std}")
    if s.seed < 0:
        problems.append(f"seed must be non-negative, got {s.seed}")
    n, p, N = s.system.n, s.system.p, s.system.N
    _check_dims(problems, s.sim_Qd, "sim_Qd", (n, n), N)
    if p:
        _check_dims(problems, s.sim_Rv, "sim_Rv", (p, p), N)
    if s.controller == "steady":
        consts = [s.system.A.is_constant, s.system.B.is_constant]
        if s.weights is not None:
            consts += [s.weights.Q.is_constant, s.weights.R.is_constant]
        if not all(consts):
            problems.append("controller 'steady' requires constant A, B, Q, R")
    return problems


def _controller_gains(s: Scenario, tol: float, max_iter: int
                      ) -> tuple[MatrixSchedule | None, RiccatiSolution | None]:
    if s.controller == "none":
        return None, None
    if s.controller == "fixed":
        return MatrixSchedule.constant(s.fixed_gain, s.system.N), None
    if s.controller == "lqr":
        solution = solve_lqr(s.system, s.weights)
        return solution.K, solution
    steady = solve_dare_lqr(s.system.A[0], s.system.B[0], s.weights.Q[0], s.weights.R[0],
                            tol=tol, max_iter=max_iter)
    return MatrixSchedule.constant(steady.K, s.system.N), None


def _factors(sched: MatrixSchedule) -> list[np.ndarray]:
    """psd_factor of each distinct entry, indexed by step."""
    factors = [psd_factor(M) for M in sched.distinct()]
    return factors * len(sched) if sched.is_constant else factors


@dataclass(frozen=True)
class _Plan:
    """The seed-independent half of a run, built once per scenario.

    Validation, controller synthesis, the estimator's gain and covariance
    schedules, and the factors of the truth's noise covariances depend on
    the scenario but not on its seed; `_simulate` makes the per-seed pass.
    """

    scenario: Scenario
    gains: MatrixSchedule | None
    riccati: RiccatiSolution | None
    estimator: _EstimatorPlan | None
    x0_factor: np.ndarray | None
    d_factors: list[np.ndarray] | None
    v_factors: list[np.ndarray] | None
    covariance_diagonals: np.ndarray | None


def _violations(s: Scenario) -> list[str]:
    """Everything `run` rejects: model invariants, then scenario configuration."""
    return validate(s.system, s.weights, s.noise) + _config_violations(s)


def _plan(s: Scenario, tol: float, max_iter: int) -> _Plan:
    report = _violations(s)
    if report:
        raise ValidationError(report)
    gains, riccati = _controller_gains(s, tol, max_iter)
    noise = s.noise
    x0_factor = d_factors = v_factors = None
    if noise is not None:
        if s.x0 is None and s.x0_std is None:
            x0_factor = psd_factor(noise.P0)
        d_factors = _factors(s.sim_Qd if s.sim_Qd is not None else noise.Qd)
        if s.system.p > 0:
            v_factors = _factors(s.sim_Rv if s.sim_Rv is not None else noise.Rv)
    estimator = cov_diag = None
    if s.estimator != "none":
        estimator = _EstimatorPlan(s.estimator, s.system, noise, s.luenberger_gain)
        if s.estimator != "luenberger":
            cov_diag = np.array([np.diag(P) for P in estimator.reported])
    return _Plan(s, gains, riccati, estimator, x0_factor, d_factors, v_factors, cov_diag)


def _noise(z: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Rows 0 + z_k S_k^T, as sample_gaussian forms each vector.

    One product per row: a single batched product rounds differently.
    """
    out = np.zeros(z.shape)
    for row, z_k, S in zip(out, z, factors):
        row += z_k @ S.T
    return out


@dataclass
class _Pass:
    """The per-seed half of a run.

    The trajectory with its cost, the settling report, and the estimator's
    means (x_0 first), predicted means and innovations.
    """

    trajectory: Trajectory
    settling: SettlingReport | None
    means: list[np.ndarray] | None
    predicted_means: list[np.ndarray | None]
    innovations: list[np.ndarray]


def _simulate(plan: _Plan, seed: int) -> _Pass:
    """Draw the seed's noise, then propagate the true state and estimate means."""
    s, est = plan.scenario, plan.estimator
    system, noise = s.system, s.noise
    n, p, N = system.n, system.p, system.N
    A, B = list(system.A), list(system.B)
    measuring = p > 0 and noise is not None
    filter_convention = s.estimator in ("filter", "smoother")

    counts = (n, p) if measuring else (n,) if noise is not None else ()
    head, blocks = _predraw(GaussianStream(seed), n if s.x0 is None else 0, counts, N)
    if s.x0 is not None:
        x0 = s.x0
    elif s.x0_std is not None:
        x0 = noise.x0_mean + s.x0_std * head
    else:
        x0 = noise.x0_mean + head @ plan.x0_factor.T
    d = _noise(blocks[0], plan.d_factors) if noise is not None else np.zeros((N, n))
    v = _noise(blocks[1], plan.v_factors) if measuring else None

    states = np.empty((N + 1, n))
    inputs = np.empty((N, system.m))
    outputs = np.empty((N, p)) if measuring else None
    states[0] = x = x0
    means = [est.x0_mean] if est is not None else None
    predicted_means, innovations = [], []
    zero_u = np.zeros(system.m)

    def measure(k, x, u):
        y = system.C[k] @ x + v[k]
        outputs[k] = y
        if est is not None:
            mean, innovation, predicted = est.step(k, means[k], u, y)
            means.append(mean)
            predicted_means.append(predicted)
            innovations.append(innovation)

    for k in range(N):
        if plan.gains is None:
            u = zero_u
        else:
            u = -(plan.gains[k] @ (means[k] if s.feedback == "estimate" else x))
        inputs[k] = u
        if measuring and not filter_convention:
            measure(k, x, u)                   # measurement at time k
        x = A[k] @ x + B[k] @ u + d[k]
        states[k + 1] = x
        if measuring and filter_convention:
            measure(k, x, u)                   # measurement at time k+1

    trajectory = Trajectory(states=states, inputs=inputs, outputs=outputs,
                            covariances=est.reported if est is not None else None)
    if s.weights is not None:
        trajectory.cost = _evaluate_cost(trajectory, s.weights)
    settling = settling_report(plan.riccati, trajectory) if plan.riccati is not None else None
    return _Pass(trajectory, settling, means, predicted_means, innovations)


def run(scenario: Scenario, tol: float = 1e-10, max_iter: int = 100_000) -> RunResult:
    """Execute one scenario; deterministic per (scenario, seed).

    Synthesizes the configured controller, simulates the (possibly noisy)
    system, feeds measurements to the configured estimator, and applies
    u_k = -K_k times the true state or the causal estimate.
    """
    plan = _plan(scenario, tol, max_iter)
    seed_pass = _simulate(plan, scenario.seed)
    trajectory, est, est_run = seed_pass.trajectory, plan.estimator, None
    if est is not None:
        est_run = est.estimator_run(seed_pass.means, seed_pass.predicted_means,
                                    seed_pass.innovations)
        trajectory.estimates = np.array([b.mean for b in getattr(est_run, est.along_states)])
    return RunResult(
        trajectory=trajectory,
        estimator_run=est_run,
        controller_gains=plan.gains,
        riccati=plan.riccati,
        cost=trajectory.cost,
        settling=seed_pass.settling,
        covariance_diagonals=plan.covariance_diagonals,
    )


def _rescaled(sched: MatrixSchedule, factor: float) -> MatrixSchedule:
    if sched.is_constant:
        return MatrixSchedule.constant(factor * sched[0], len(sched))
    return MatrixSchedule.of([factor * M for M in sched])


def _with_horizon(s: Scenario, N: int) -> Scenario:
    system = LtvSystem(
        n=s.system.n, m=s.system.m, p=s.system.p, N=N,
        A=s.system.A.with_length(N), B=s.system.B.with_length(N),
        C=s.system.C.with_length(N) if s.system.C is not None else None,
    )
    weights = None
    if s.weights is not None:
        weights = LqrWeights(Q=s.weights.Q.with_length(N + 1), R=s.weights.R.with_length(N))
    noise = None
    if s.noise is not None:
        noise = NoiseModel(Qd=s.noise.Qd.with_length(N), Rv=s.noise.Rv.with_length(N),
                           x0_mean=s.noise.x0_mean, P0=s.noise.P0)
    return replace(
        s, system=system, weights=weights, noise=noise,
        sim_Qd=s.sim_Qd.with_length(N) if s.sim_Qd is not None else None,
        sim_Rv=s.sim_Rv.with_length(N) if s.sim_Rv is not None else None,
    )


def _sweep_value(axis: str, value) -> int | float:
    """A sweep value as the run takes it: an exact int on the N and seed axes.

    N and seed values are read without a float round trip, so large seeds
    stay exact: strings must be integer literals, numbers integral.  N must
    be positive and seeds non-negative.
    """
    if axis not in ("N", "seed"):
        return float(value)
    exact = None
    if isinstance(value, (str, numbers.Integral)):
        try:
            exact = int(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Real) and float(value).is_integer():
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
    synthesis, estimator gain and covariance schedules, noise factors) once
    and shares it across seeds; its points equal independent runs bit for
    bit.
    """
    points = []
    plan = None
    for value in [_sweep_value(axis, v) for v in values]:
        if axis == "seed":
            if plan is None:
                plan = _plan(scenario, tol, max_iter)
            seed_pass = _simulate(plan, value)
        else:
            plan = _plan(_varied(scenario, axis, value), tol, max_iter)
            seed_pass = _simulate(plan, scenario.seed)
        settling = seed_pass.settling
        terminal_trace = None
        if plan.covariance_diagonals is not None:
            terminal_trace = float(plan.covariance_diagonals[-1].sum())
        points.append(SweepPoint(
            value=value,
            cost=seed_pass.trajectory.cost,
            k_x=settling.k_x if settling else None,
            k_K=settling.k_K if settling else None,
            terminal_covariance_trace=terminal_trace,
        ))
    return points
