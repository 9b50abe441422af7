"""Shared fixtures: the 2-state benchmark system used across the suite."""
import numpy as np
import pytest

from lqgkit import LqrWeights, LtvSystem, NoiseModel

A_BENCH = np.array([[0.5, 0.0], [-1.0, 1.5]])
B_BENCH = np.array([[0.5], [0.1]])
C_BENCH = np.array([[1.0, 0.5]])
X0_BENCH = np.array([10.0, 5.0])

# Unique steady-state LQR solution for (A_BENCH, B_BENCH, Q=I, R=1), pinned
# from a 50-digit fixed-point iteration and cross-checked against
# scipy.linalg.solve_discrete_are (agreement ~1e-13).
K_STEADY = np.array([[2.7354355175606428, -2.7470871035121286]])


def bench_system(N, with_output=False):
    C = C_BENCH if with_output else None
    return LtvSystem.lti(A_BENCH, B_BENCH, C, horizon=N)


def bench_weights(N):
    return LqrWeights.constant(np.eye(2), 1.0, horizon=N)


def same(a, b) -> bool:
    """Equal shapes and bytes: equal values, sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bench_noise(N, Qd=None, Rv=None, P0=None):
    return NoiseModel.constant(
        np.eye(2) if Qd is None else Qd,
        np.array([[1.0]]) if Rv is None else Rv,
        X0_BENCH,
        np.eye(2) if P0 is None else P0,
        horizon=N,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
