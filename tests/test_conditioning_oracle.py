"""Whole-horizon oracle: every estimator belief is one batch Gaussian conditioning.

Stack z = [x_0; w_0 .. w_{N-1}; v_0 .. v_{N-1}] ~ N([x0_mean; 0; 0],
blockdiag(P0, Qd_k, Rv_k)).  Every state x_k and measurement y_j is an
affine map of z, with the known B_k u_k in the offset, so x_k given any set
of measurements is one conditioning of a joint Gaussian.  The recursive
estimates equal these batch ones (Rauch, Tung & Striebel, AIAA J. 3(8),
1965; Kailath, Sayed & Hassibi, Linear Estimation, 2000, ch. 9-10):

  predictor run, measurement j taken at x_j:     predicted[k] = x_k | y_0 .. y_{k-1}
  filter run, measurement j taken at x_{j+1}:    predicted[i] = x_{i+1} | y_0 .. y_{i-1}
                                                 updated[k]   = x_k | y_0 .. y_{k-1}
  smoother over it:                              smoothed[k]  = x_k | y_0 .. y_{N-1}

So the oracle checks, over a whole horizon, the means and covariances of
each recursion and which measurement a run attaches to which state.  It
conditions with `np.linalg.solve` on the stacked covariances and shares no
code with lqgkit's recursions.
"""
import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgkit import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    Scenario,
    filter_run,
    predictor_run,
    run,
    smoother_run,
)

# Max-abs error allowed, relative to max(1, max-abs of the oracle's array).
# The models below keep every covariance at least 0.1 I and each A_k's
# spectral radius at most 1.3, so their conditioning stays far below
# 1 / TOL; on 100 such models the worst error, of any belief, was 2.3e-14.
TOL = 1e-9


def model(seed, n, m, p, N):
    """A random time-varying model: system, weights and noise."""
    rng = np.random.default_rng(seed)

    def spd(dim):
        W = rng.standard_normal((dim, dim))
        return W @ W.T / dim + 0.1 * np.eye(dim)

    def stable(radius):
        A = rng.standard_normal((n, n))
        return radius * A / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-3)

    system = LtvSystem.from_schedules([stable(rng.uniform(0.3, 1.3)) for _ in range(N)],
                                      [rng.standard_normal((n, m)) for _ in range(N)],
                                      [rng.standard_normal((p, n)) for _ in range(N)],
                                      horizon=N)
    weights = LqrWeights(Q=MatrixSchedule.of([spd(n) for _ in range(N + 1)]),
                         R=MatrixSchedule.of([spd(m) for _ in range(N)]))
    noise = NoiseModel(Qd=MatrixSchedule.of([spd(n) for _ in range(N)]),
                       Rv=MatrixSchedule.of([spd(p) for _ in range(N)]),
                       x0_mean=rng.standard_normal(n), P0=spd(n))
    return system, weights, noise, rng


class BatchOracle:
    """Affine maps of z for every x_k and y_j, and conditioning on them."""

    def __init__(self, system, noise, inputs, measurements, lag):
        """lag 0: measurement j is taken at x_j (predictor); 1: at x_{j+1} (filter)."""
        n, p, N = system.n, system.p, system.N
        self.cov = sla.block_diag(noise.P0, *noise.Qd, *noise.Rv)
        mean = np.concatenate([noise.x0_mean, np.zeros(N * (n + p))])
        maps, offsets = [np.eye(n, len(mean))], [np.zeros(n)]
        for k in range(N):
            w = np.zeros((n, len(mean)))
            w[:, n + k * n:n + (k + 1) * n] = np.eye(n)
            maps.append(system.A[k] @ maps[k] + w)
            offsets.append(system.A[k] @ offsets[k] + system.B[k] @ inputs[k])
        self.x = [(M, M @ mean + c) for M, c in zip(maps, offsets)]
        self.y = []
        for j in range(N):
            v = np.zeros((p, len(mean)))
            v[:, n + N * n + j * p:n + N * n + (j + 1) * p] = np.eye(p)
            M, c = maps[j + lag], offsets[j + lag]
            self.y.append((system.C[j] @ M + v, system.C[j] @ (M @ mean + c)))
        self.measurements = measurements

    def belief(self, k, count):
        """Mean and covariance of x_k given measurements 0 .. count-1."""
        X, x_mean = self.x[k]
        x_cov = X @ self.cov @ X.T
        if count == 0:
            return x_mean, x_cov
        Y = np.vstack([M for M, _ in self.y[:count]])
        y_mean = np.concatenate([c for _, c in self.y[:count]])
        cross = X @ self.cov @ Y.T
        gain = np.linalg.solve(Y @ self.cov @ Y.T, cross.T).T
        observed = np.concatenate(self.measurements[:count])
        return x_mean + gain @ (observed - y_mean), x_cov - gain @ cross.T


def assert_close(got, want, what):
    err = np.max(np.abs(np.asarray(got) - want))
    assert err <= TOL * max(1.0, np.max(np.abs(want))), f"{what}: max error {err:.3e}"


def check(beliefs, oracle, cases, what):
    """beliefs[i] against the oracle's x_k given `count` measurements, for
    each (i, k, count) in cases."""
    for i, k, count in cases:
        mean, cov = oracle.belief(k, count)
        assert_close(beliefs.means[i], mean, f"{what}[{i}] mean")
        assert_close(beliefs.covs[i], cov, f"{what}[{i}] cov")


def check_predictor(estimated, system, noise, inputs, measurements):
    oracle = BatchOracle(system, noise, inputs, measurements, lag=0)
    N = system.N
    check(estimated.predicted, oracle, [(k, k, k) for k in range(N + 1)], "predicted")


def check_filter(estimated, system, noise, inputs, measurements):
    oracle = BatchOracle(system, noise, inputs, measurements, lag=1)
    N = system.N
    check(estimated.predicted, oracle, [(i, i + 1, i) for i in range(N)], "predicted")
    check(estimated.updated, oracle, [(k, k, k) for k in range(N + 1)], "updated")
    if estimated.smoothed is not None:
        check(estimated.smoothed, oracle, [(k, k, N) for k in range(N + 1)], "smoothed")


DIMENSIONS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 2),
                  p=st.integers(1, 3), N=st.integers(1, 10))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**DIMENSIONS)
def test_recorded_runs_are_batch_conditioning(seed, n, m, p, N):
    system, _, noise, rng = model(seed, n, m, p, N)
    inputs, measurements = rng.standard_normal((N, m)), rng.standard_normal((N, p))
    check_predictor(predictor_run(system, noise, inputs, measurements),
                    system, noise, inputs, measurements)
    filtered = filter_run(system, noise, inputs, measurements)
    check_filter(filtered, system, noise, inputs, measurements)
    check_filter(smoother_run(system, noise, filtered), system, noise, inputs, measurements)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(estimator=st.sampled_from(["predictor", "filter", "smoother"]),
       feedback=st.sampled_from(["true_state", "estimate"]), **DIMENSIONS)
def test_seed_pass_is_batch_conditioning(estimator, feedback, seed, n, m, p, N):
    # the run's own inputs and measurements; under estimate feedback each
    # input depends on earlier measurements, which conditioning on the
    # recorded inputs allows for
    system, weights, noise, _ = model(seed, n, m, p, N)
    feedback = "true_state" if estimator == "smoother" else feedback
    result = run(Scenario(system, weights, noise, controller="lqr", estimator=estimator,
                          feedback=feedback, seed=seed))
    traj = result.trajectory
    checker = check_predictor if estimator == "predictor" else check_filter
    checker(result.estimator_run, system, noise, traj.inputs, traj.outputs)

