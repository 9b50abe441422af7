"""Luenberger observer, Kalman predictor/filter, RTS smoother, steady gains.

Belief tags follow the (k | l) convention: the estimate of x_k given
measurements through time l.  Predictor beliefs carry l = k-1, filter
beliefs l = k, smoother beliefs l = N.  Covariance updates use the
Joseph-style quadratic forms as the primary path; the compact forms exist
only as test oracles.  The innovation is always y - C x_hat with x_hat the
current predicted mean.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._linalg import _freeze, matvec, solve_spd, spectral_radius, symmetrize
from .lqr import _steady_riccati
from .model import (LtvSystem, NoiseModel, ValidationError, _field_violations, _intake,
                    _noise_rows, _planned, _system_rows)


@dataclass(frozen=True)
class Belief:
    """State estimate with its error covariance at tag = (k, l).

    cov is None for a fixed-gain (Luenberger) observer, which computes none.
    Both are stored as read-only C-ordered copies (see `_linalg._freeze`).
    """

    mean: np.ndarray
    cov: np.ndarray | None
    tag: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean, 1))
        if self.cov is not None:
            object.__setattr__(self, "cov", _freeze(self.cov, 2))


class BeliefSequence(Sequence):
    """Read-only beliefs of one estimator pass, stored as stacked arrays.

    Entry i pairs row i of `means` (K, n) with entry i of `covs`, the plan's
    (K, n, n) covariance schedule (None for a fixed-gain observer).  It is
    the belief at k = first + i given measurements through l = k + lag, or
    through the last k when lag is None (the smoother's l = N).  A Belief
    is built only when an entry is read; a slice reads as a list of them.
    """

    def __init__(self, means: np.ndarray, covs: np.ndarray | None, first: int,
                 lag: int | None):
        self.means, self.covs = means, covs
        self.first, self._lag = first, lag

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]     # negative indices; IndexError past either end
        k = self.first + i
        given = self.first + len(self) - 1 if self._lag is None else k + self._lag
        return Belief(self.means[i], None if self.covs is None else self.covs[i], (k, given))


@dataclass
class EstimatorRun:
    """Beliefs, gains, and innovations produced by one estimator pass.

    predicted holds (k | k-1) beliefs, updated (k | k), smoothed (k | N),
    each a BeliefSequence over the pass's means and the covariances computed
    for them; a predictor-convention run fills `predicted` (including the
    initial belief) and leaves `updated` empty.  `gains` (N, n, p) are the
    Kalman or observer gains, or the (N, n, n) smoother gains on a smoother
    run; `innovations` is (N, p).  Measurement j, its Kalman or observer
    gain and its innovation belong to time `predicted.first + j`.
    """

    predicted: BeliefSequence
    updated: BeliefSequence
    smoothed: BeliefSequence | None
    gains: np.ndarray
    innovations: np.ndarray


@dataclass(frozen=True)
class SteadyStateEstimator:
    P: np.ndarray
    L: np.ndarray
    iterations: int
    residual: float
    observer_spectral_radius: float


# The mean recurrence, on one vector or every row of a stack: the step
# functions and `_StackedPass` move every mean with these two.  The predictor
# convention's innovation is y_k - C x_{k|k-1}, the filter's y - C x_{k+1|k}.

def _advance(A, x, Bu, out=None):
    """A x + B u for every row of x: the time update of states and means."""
    return np.add(matvec(A, x), Bu, out=out)


def _correct(prior, L, innovation, out=None):
    """prior + L (y - C x) for every row of prior, given the innovation y - C x."""
    return np.add(prior, matvec(L, innovation), out=out)


def luenberger_step(A: np.ndarray, B: np.ndarray, C: np.ndarray, L: np.ndarray,
                    x_hat: np.ndarray, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fixed-gain observer update: A x_hat + B u + L (y - C x_hat), as a run does it.

    ValueError names an argument that holds a nan or inf.
    """
    return _observer_update(*_intake((A, "A"), (B, "B"), (C, "C"), (L, "L"), (x_hat, "x_hat"),
                                     (u, "u"), (y, "y"), vectors=("x_hat", "u", "y")))


def _observer_update(A, B, C, L, x_hat, u, y):
    """luenberger_step on 2-D and 1-D float arrays, taken as they are."""
    return _correct(_advance(A, x_hat, matvec(B, u)), L, y - matvec(C, x_hat))


# Covariance kernels.  L_k and P never depend on the data, so the step
# functions below and the whole-horizon schedules of `_EstimatorPlan` share
# these; the means are propagated separately.  A gain comes back C-ordered,
# as the plan stores it: L (y - C x) rounds differently on a transposed gain.

def _predictor_gain(A, C, Qd, Rv, P):
    """L_k (C-ordered) and the Joseph-form P_{k+1|k} from P_{k|k-1}."""
    PCt = P @ C.T
    S = C @ PCt + Rv
    # L = A PCt S^{-1}  <=>  S L^T = (A PCt)^T, S symmetric PD.
    L = np.ascontiguousarray(solve_spd(S, (A @ PCt).T, "predictor innovation covariance").T)
    ALC = A - L @ C
    return L, symmetrize(ALC @ P @ ALC.T + Qd + L @ Rv @ L.T)


def _time_update(A, Qd, P):
    """P_{k+1|k} from P_{k|k}."""
    return symmetrize(A @ P @ A.T + Qd)


def _filter_gain(C, Rv, P):
    """L_k (C-ordered) and the Joseph-form P_{k|k} from P_{k|k-1}."""
    PCt = P @ C.T
    S = C @ PCt + Rv
    L = np.ascontiguousarray(solve_spd(S, PCt.T, "filter innovation covariance").T)
    ILC = np.eye(P.shape[0]) - L @ C
    return L, symmetrize(ILC @ P @ ILC.T + L @ Rv @ L.T)


def _smoother_covariances(A, updated, predicted) -> tuple[np.ndarray, np.ndarray]:
    """RTS gains Ls_k (k = 0..N-1) and P_{k|N} (k = 0..N) from P_{k|k}, P_{k+1|k}.

    A, updated and predicted are stacks, (N, n, n), (N+1, n, n) and
    (N, n, n).  The gains do not depend on each other; they are solved
    forward, one entry at a time into one output, so a singular
    P_{k+1|k} is named at the first k it occurs.  Only P_{k|N} runs backward.
    """
    N = len(predicted)
    gains = np.empty(predicted.shape)
    for k in range(N):
        gains[k] = solve_spd(predicted[k], A[k] @ updated[k],
                             f"smoother predicted covariance at k={k + 1}").T
    covs = np.empty(updated.shape)
    covs[N] = updated[N]
    for k in range(N - 1, -1, -1):
        Ls = gains[k]
        covs[k] = symmetrize(updated[k] + Ls @ (covs[k + 1] - predicted[k]) @ Ls.T)
    return gains, covs


def _smoother_means(gains, updated: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """x_{k|N} = x_{k|k} + Ls_k (x_{k+1|N} - x_{k+1|k}), backward from x_{N|N}.

    updated is (..., N+1, n) and predicted (..., N, n): one pass moves
    every stacked run.
    """
    N = predicted.shape[-2]
    means = np.empty(updated.shape)
    means[..., N, :] = updated[..., N, :]
    for k in range(N - 1, -1, -1):
        means[..., k, :] = updated[..., k, :] + matvec(
            gains[k], means[..., k + 1, :] - predicted[..., k, :])
    return means


def predictor_step(A_k, B_k, C_k, Qd_k, Rv_k, belief: Belief, u_k, y_k
                   ) -> tuple[Belief, np.ndarray]:
    """One Kalman predictor step from (k | k-1) to (k+1 | k), as `predictor_run` does it.

    L_k = A P C^T (C P C^T + Rv)^{-1}
    mean' = A x_hat + B u + L (y - C x_hat)
    cov'  = (A - L C) P (A - L C)^T + Qd + L Rv L^T   (symmetrized)

    ValueError names an argument that holds a nan or inf.
    """
    A_k, B_k, C_k, Qd_k, Rv_k, mean, P, u_k, y_k = _intake(
        (A_k, "A_k"), (B_k, "B_k"), (C_k, "C_k"), (Qd_k, "Qd_k"), (Rv_k, "Rv_k"),
        (belief.mean, "belief.mean"), (belief.cov, "belief.cov"), (u_k, "u_k"), (y_k, "y_k"),
        vectors=("belief.mean", "u_k", "y_k"))
    L, cov = _predictor_gain(A_k, C_k, Qd_k, Rv_k, P)
    k = belief.tag[0]
    mean = _observer_update(A_k, B_k, C_k, L, mean, u_k, y_k)
    return Belief(mean, cov, (k + 1, k)), L


def filter_predict(A_prev, B_prev, Qd_prev, belief: Belief, u_prev) -> Belief:
    """Time update from (k-1 | k-1) to (k | k-1), as `filter_run` does it.

    ValueError names an argument that holds a nan or inf.
    """
    A_prev, B_prev, Qd_prev, mean, P, u_prev = _intake(
        (A_prev, "A_prev"), (B_prev, "B_prev"), (Qd_prev, "Qd_prev"), (belief.mean, "belief.mean"),
        (belief.cov, "belief.cov"), (u_prev, "u_prev"), vectors=("belief.mean", "u_prev"))
    k = belief.tag[0]
    return Belief(mean=_advance(A_prev, mean, matvec(B_prev, u_prev)),
                  cov=_time_update(A_prev, Qd_prev, P), tag=(k + 1, k))


def filter_update(C_k, Rv_k, belief: Belief, y_k) -> tuple[Belief, np.ndarray]:
    """Measurement update from (k | k-1) to (k | k), Joseph-form covariance,
    as `filter_run` does it.

    L_k = P C^T (C P C^T + Rv)^{-1}
    cov' = (I - L C) P (I - L C)^T + L Rv L^T

    ValueError names an argument that holds a nan or inf.
    """
    C_k, Rv_k, mean, P, y_k = _intake(
        (C_k, "C_k"), (Rv_k, "Rv_k"), (belief.mean, "belief.mean"), (belief.cov, "belief.cov"),
        (y_k, "y_k"), vectors=("belief.mean", "y_k"))
    L, cov = _filter_gain(C_k, Rv_k, P)
    mean = _correct(mean, L, y_k - matvec(C_k, mean))
    k = belief.tag[0]
    return Belief(mean=mean, cov=cov, tag=(k, k)), L


class _EstimatorPlan:
    """Seed-independent half of an estimator: its gain and covariance schedules.

    kind is "predictor", "luenberger" (the predictor's mean update with a
    fixed gain and no covariance), "filter", or "smoother" (the filter plus
    RTS gains and P_{k|N}).  The covariance pass runs once here; a
    `_StackedPass` then moves only the means, of one run or of a stack of
    runs at once, so a seed sweep shares one plan.
    Predictor-convention kinds take measurement k at state x_k; the filter
    and smoother take it at x_{k+1}.  Either way it uses stored entry k.

    Schedules are read-only stacked arrays: `gains` L_k and `predicted`
    P_{k|k-1} (predictor k = 0..N; filter P_{k+1|k} at index k; None for
    the observer), `updated` P_{k|k}, `smoother_gains` Ls_k and `smoothed`
    P_{k|N}.  `reported` is the covariance schedule aligned with states
    0..N, None for the observer.
    """

    def __init__(self, kind: str, system: LtvSystem, noise: NoiseModel,
                 luenberger_gain: np.ndarray | None = None):
        self.kind = kind
        self.predictor_convention = kind in ("predictor", "luenberger")
        self.x0_mean = noise.x0_mean
        n, p, N = system.n, system.p, system.N
        self.A, self.B, self.C = system.A.stack, system.B.stack, system.C.stack
        Qd, Rv = noise.Qd.stack, noise.Rv.stack
        self.predicted = self.updated = self.smoother_gains = self.smoothed = None
        if kind == "luenberger":
            self.gains = np.broadcast_to(luenberger_gain, (N, *luenberger_gain.shape))
        elif kind == "predictor":
            self.gains, self.predicted = np.empty((N, n, p)), np.empty((N + 1, n, n))
            self.predicted[0] = noise.P0
            for k in range(N):
                self.gains[k], self.predicted[k + 1] = _predictor_gain(
                    self.A[k], self.C[k], Qd[k], Rv[k], self.predicted[k])
        else:
            self.gains, self.predicted = np.empty((N, n, p)), np.empty((N, n, n))
            self.updated = np.empty((N + 1, n, n))
            self.updated[0] = noise.P0
            for k in range(N):
                self.predicted[k] = _time_update(self.A[k], Qd[k], self.updated[k])
                self.gains[k], self.updated[k + 1] = _filter_gain(
                    self.C[k], Rv[k], self.predicted[k])
            if kind == "smoother":
                self.smoother_gains, self.smoothed = _smoother_covariances(
                    self.A, self.updated, self.predicted)
        for schedule in (self.gains, self.predicted, self.updated, self.smoother_gains,
                         self.smoothed):
            if schedule is not None:
                schedule.flags.writeable = False
        self.reported = (self.predicted if self.predictor_convention else
                         self.smoothed if kind == "smoother" else self.updated)


class _StackedPass:
    """The true states and estimate means of S runs, moved together.

    Block k, `rows[k]` (G, S, n), holds up to two groups of S rows: the
    true states x_k when the pass simulates them, then the estimate means
    of a plan (predictor convention x_{k|k-1}, filter x_{k|k}).  A
    recorded-data pass holds the means alone, a run without an estimator
    the true states alone.  Each `step` advances the whole block with
    `_advance`, applies C_k to it when measuring, and corrects the means
    with `_correct`, one stacked product per matrix, so each row is its own
    run's step functions bit for bit.  Measurement k is taken at time k+1
    on the filter convention, else at time k, and fills slot k of
    `innovations` (S, N, p) and, on the filter convention, of `predicted`
    (S, N, n) x_{k+1|k}.

    `truth` is None for a recorded-data pass, or the runs' initial states
    (S, n), disturbances d (S, N, n) and measurement noise v (S, N, p), v
    None when C is None (nothing is measured); the simulated measurement
    C x + v fills slot k of `outputs` (S, N, p).
    """

    def __init__(self, A, C, plan: _EstimatorPlan | None, S: int, truth=None):
        N, n = A.shape[:2]
        self.A, self.C, self.plan = A, C, plan
        self.filter_convention = plan is not None and not plan.predictor_convention
        groups = []
        if truth is not None:
            x0, self.d, self.v = truth
            groups.append(x0)
        if plan is not None:
            groups.append(np.broadcast_to(plan.x0_mean, (S, n)))
        self.simulated = truth is not None
        self.rows = np.empty((N + 1, len(groups), S, n))
        self.rows[0] = groups
        p = C.shape[1] if C is not None else 0
        self.outputs = np.empty((S, N, p)) if self.simulated and C is not None else None
        self.innovations = np.empty((S, N, p)) if plan is not None else None
        self.predicted = np.empty((S, N, n)) if self.filter_convention else None
        self.states = self.means = self.smoothed = None

    def step(self, k: int, Bu, y=None) -> None:
        """Block k to block k+1, given the runs' B_k u_k (S, n) and, on a
        recorded-data pass, their measurements y (S, p)."""
        block, moved = self.rows[k], self.rows[k + 1]
        _advance(self.A[k], block, Bu, out=moved)
        if self.simulated:
            np.add(moved[0], self.d[:, k], out=moved[0])
        if self.C is None:
            return
        measured = matvec(self.C[k], moved if self.filter_convention else block)
        if self.simulated:
            self.outputs[:, k] = y = measured[0] + self.v[:, k]
        if self.plan is not None:
            self.innovations[:, k] = innovation = y - measured[-1]
            estimate = moved[-1]
            if self.filter_convention:
                self.predicted[:, k] = estimate
            _correct(estimate, self.plan.gains[k], innovation, out=estimate)

    def finish(self) -> np.ndarray | None:
        """After the last step: sets `states` and `means` (S, N+1, n), and
        `smoothed` on a smoother plan; returns the means aligned with the
        states, which on a smoother plan are the smoothed means x_{k|N}."""
        if self.simulated:
            self.states = np.ascontiguousarray(self.rows[:, 0].swapaxes(0, 1))
        if self.plan is None:
            return None
        self.means = np.ascontiguousarray(self.rows[:, -1].swapaxes(0, 1))
        if self.plan.kind != "smoother":
            return self.means
        self.smoothed = _smoother_means(self.plan.smoother_gains, self.means, self.predicted)
        return self.smoothed

    def run(self, s: int) -> EstimatorRun:
        """Run s's beliefs: its rows of the means with the plan's schedules."""
        plan, means = self.plan, self.means[s]
        if plan.predictor_convention:
            predicted = BeliefSequence(means, plan.predicted, 0, -1)
            updated = BeliefSequence(means[:0], None, 0, 0)
        else:
            predicted = BeliefSequence(self.predicted[s], plan.predicted, 1, -1)
            updated = BeliefSequence(means, plan.updated, 0, 0)
        if plan.kind != "smoother":
            return EstimatorRun(predicted, updated, None, plan.gains, self.innovations[s])
        return EstimatorRun(predicted, updated,
                            BeliefSequence(self.smoothed[s], plan.smoothed, 0, None),
                            plan.smoother_gains, self.innovations[s])


def _estimate(kind: str, system: LtvSystem, noise: NoiseModel, inputs, measurements
              ) -> EstimatorRun:
    """One stacked pass of a `kind` plan over recorded inputs (N, m) and
    measurements (N, p); ValueError naming the argument on a nan or inf or
    any other shape, or naming C on a system without one.  The plan is built
    once per kind and (system, noise) pair of live objects and kept while
    both live (see `model._planned`), once A, B and C fit and are finite
    (else ValueError naming the first that is not) and the noise model's
    shapes, lengths, finiteness and definiteness pass (else ValidationError
    naming each field): Qd, Rv and P0 must be symmetric PSD."""
    if system.C is None:
        raise ValueError("system must have a measurement matrix C, got None")
    inputs, measurements = _intake((inputs, "inputs", (system.N, system.m)),
                                   (measurements, "measurements", (system.N, system.p)))

    def build() -> _EstimatorPlan:
        _intake(*_system_rows(system))
        # Rv only semidefinite: the solve decides a near-singular S itself
        report = [line for value, name, shape, length, definite in _noise_rows(system, noise)
                  for line in _field_violations(value, name, shape, length,
                                                None if definite is None else False)]
        if report:
            raise ValidationError(report)
        return _EstimatorPlan(kind, system, noise)
    plan = _planned((system, noise), kind, build)
    stacked = _StackedPass(plan.A, plan.C, plan, 1)
    Bu = matvec(plan.B, inputs)     # every B_k u_k in one stacked product
    for k in range(system.N):
        stacked.step(k, Bu[k], measurements[k])
    stacked.finish()
    return stacked.run(0)


def filter_run(system: LtvSystem, noise: NoiseModel, inputs, measurements) -> EstimatorRun:
    """Kalman filter over the horizon: predict/update for k = 1..N.

    inputs are u_0..u_{N-1} (N, m); measurements are y_1..y_N (N, p) (the
    filter's convention: measurement k is taken at state x_k and uses the
    (k-1)-th stored C/Rv entry).  Starts from the noise model's (x0_mean,
    P0) at tag (0 | 0).
    """
    return _estimate("filter", system, noise, inputs, measurements)


def predictor_run(system: LtvSystem, noise: NoiseModel, inputs, measurements) -> EstimatorRun:
    """Kalman predictor over the horizon: one step per k = 0..N-1.

    inputs are u_0..u_{N-1} (N, m); measurements are y_0..y_{N-1} (N, p)
    (the predictor's convention: measurement k is taken at state x_k and
    uses the k-th stored C/Rv entry).  Starts from (x0_mean, P0) at tag
    (0 | -1); `predicted` holds beliefs (k | k-1) for k = 0..N.
    """
    return _estimate("predictor", system, noise, inputs, measurements)


def smoother_run(system: LtvSystem, noise: NoiseModel, filtered: EstimatorRun) -> EstimatorRun:
    """RTS smoother backward pass over a stored filter run.

    For k = N-1..0:
        Ls_k  = P_{k|k} A_k^T P_{k+1|k}^{-1}
        mean' = x_{k|k} + Ls_k (x_{k+1|N} - x_{k+1|k})
        cov'  = P_{k|k} + Ls_k (P_{k+1|N} - P_{k+1|k}) Ls_k^T

    The gain solves the symmetric system P_{k+1|k} X = A_k P_{k|k} (X = Ls^T);
    a singular predicted covariance (possible only with a degenerate Qd) is
    an error, and ValueError names the first schedule or filter run array
    that does not fit the system or holds a nan or inf: the run must store
    beliefs (k|k) for k = 0..N and (k|k-1) for k = 1..N of n states.
    `noise` is not read: the filter run holds every covariance the pass
    needs, and the parameter stays for compatibility.
    """
    n, N, predicted, updated = system.n, system.N, filtered.predicted, filtered.updated
    *_, x_upd, P_upd, x_pred, P_pred = _intake(
        *_system_rows(system), (updated.means, "updated.means", (N + 1, n)),
        (updated.covs, "updated.covs", (N + 1, n, n)),
        (predicted.means, "predicted.means", (N, n)), (predicted.covs, "predicted.covs", (N, n, n)))
    gains, covs = _smoother_covariances(system.A.stack, P_upd, P_pred)
    means = _smoother_means(gains, x_upd, x_pred)
    return EstimatorRun(predicted, updated, BeliefSequence(means, covs, 0, None), gains,
                        filtered.innovations)


def solve_dare_estimator(A: np.ndarray, C: np.ndarray, Qd: np.ndarray, Rv: np.ndarray,
                         tol: float = 1e-10, max_iter: int = 100_000) -> SteadyStateEstimator:
    """Steady-state predictor gain by fixed-point iteration from P = I.

    Solved as the dual steady LQR problem (A^T, C^T, Qd, Rv): its Riccati
    step is the predictor's covariance step and its gain is L^T.  Returns
    the converged P, L = A P C^T (C P C^T + Rv)^{-1}, the final max-abs
    residual, and the spectral radius of A - L C.  A non-finite residual
    (P overflowed: (A, C) is not detectable) stops the iteration at once
    with ConvergenceError, and so does a residual stalled above tol (see
    `lqr.solve_dare_lqr`).  An innovation covariance that is not positive
    definite raises LinAlgError naming it, with the solve's diagnostic, and
    ValueError names an argument that holds a nan or inf.
    """
    A, C, Qd, Rv = _intake((A, "A"), (C, "C"), (Qd, "Qd"), (Rv, "Rv"))
    P, K, iterations, residual = _steady_riccati(
        A.T, C.T, Qd, Rv, np.eye(A.shape[0]), tol, max_iter, "estimator",
        "estimator innovation covariance")
    L = np.ascontiguousarray(K.T)
    return SteadyStateEstimator(P=P, L=L, iterations=iterations, residual=residual,
                                observer_spectral_radius=spectral_radius(A - L @ C))
