"""Definiteness checks of `validate`: the Cholesky certificate and its fallback.

The expected reports below were produced by the eigenvalue-per-entry checks
that the certificate replaced; the certificate must reproduce them line for
line, in order.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgkit import LqrWeights, LtvSystem, MatrixSchedule, NoiseModel, validate
from lqgkit._linalg import DEFINITENESS_TOL, definiteness, symmetrize

TOL = DEFINITENESS_TOL
N = 20


def planted(n, lam_min, scale=1.0, seed=0):
    """Symmetric n x n matrix with least eigenvalue lam_min, the rest in [scale/2, scale]."""
    rng = np.random.default_rng([seed, n])
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate([[lam_min], rng.uniform(scale / 2, scale, n - 1)])
    M = (V * w) @ V.T
    return 0.5 * (M + M.T)


def system(m=2, N=N):
    return LtvSystem.lti(0.5 * np.eye(3), np.ones((3, m)), np.ones((2, 3)), horizon=N)


def noise(Qd=None, Rv=None, P0=None, N=N):
    return NoiseModel(
        Qd=Qd if isinstance(Qd, MatrixSchedule) else MatrixSchedule.constant(
            np.eye(3) if Qd is None else Qd, N),
        Rv=Rv if isinstance(Rv, MatrixSchedule) else MatrixSchedule.constant(
            np.eye(2) if Rv is None else Rv, N),
        x0_mean=np.zeros(3), P0=np.eye(3) if P0 is None else P0)


def weights(Q=None, R=None, N=N):
    return LqrWeights(
        Q=Q if isinstance(Q, MatrixSchedule) else MatrixSchedule.constant(
            np.eye(3) if Q is None else Q, N + 1),
        R=R if isinstance(R, MatrixSchedule) else MatrixSchedule.constant(
            np.eye(2) if R is None else R, N))


def one_bad_among_many():
    Q = [planted(3, 0.5 + 0.01 * k, seed=k) for k in range(N + 1)]
    Q[7] = planted(3, -0.25, seed=7)
    Q[13] = Q[13] + np.triu(np.full((3, 3), 1e-3), 1)
    R = [planted(2, 1.0 + 0.1 * k, seed=100 + k) for k in range(N)]
    R[3] = planted(2, 0.0, seed=103)
    Qd = [planted(3, 0.1, seed=200 + k) for k in range(N)]
    Qd[0] = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    Rv = [planted(2, 0.2, seed=300 + k) for k in range(N)]
    return (weights(MatrixSchedule.of(Q), MatrixSchedule.of(R)),
            noise(MatrixSchedule.of(Qd), MatrixSchedule.of(Rv)))


CASES = {
    "asymmetric": lambda: (
        weights(Q=[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], R=[[2.0, 1.0], [0.0, 2.0]]),
        noise(Rv=[[1.0, 0.0], [1e-3, 1.0]],
              P0=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]])),
    "indefinite": lambda: (
        weights(Q=np.diag([1.0, -1.0, 1.0]), R=[[1.0, 2.0], [2.0, 1.0]]),
        noise(Qd=np.diag([1.0, 1.0, -1e-8]), Rv=np.diag([1.0, -1.0]), P0=-np.eye(3))),
    "asymmetric_and_indefinite": lambda: (
        weights(Q=[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                R=[[-1.0, 1.0], [0.0, 1.0]]),
        noise(Qd=[[1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
              P0=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])),
    "singular_psd": lambda: (
        weights(Q=np.diag([1.0, 0.0, 0.0]), R=np.diag([1.0, 1e-9])),
        noise(Qd=1e6 * np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]), Rv=np.diag([1.0, 2e-9]),
              P0=np.zeros((3, 3)))),
    "tolerance_edges": lambda: (
        weights(Q=planted(3, -0.5 * TOL, seed=1), R=planted(2, 2 * TOL, seed=2)),
        noise(Qd=planted(3, -2 * TOL, seed=3), Rv=planted(2, 0.5 * TOL, seed=4),
              P0=planted(3, -1.5 * TOL, seed=5))),
    "large_norms": lambda: (
        weights(Q=planted(3, 1e-6, scale=1e8, seed=6), R=planted(2, 1e3, scale=1e12, seed=7)),
        noise(Qd=planted(3, -1e-6, scale=1e8, seed=8), Rv=planted(2, 0.0, scale=1e6, seed=9))),
    "one_bad_among_many": one_bad_among_many,
}

PD = f"is not positive definite (tol {TOL})"
PSD = f"is not positive semidefinite (tol {TOL})"
EXPECTED = {
    "asymmetric": ["Q is not symmetric", "R is not symmetric", "Rv is not symmetric",
                   "P0 is not symmetric"],
    "asymmetric_and_indefinite": ["Q is not symmetric", "R is not symmetric", f"R {PD}",
                                  "Qd is not symmetric", f"Qd {PSD}", "P0 is not symmetric",
                                  f"P0 {PSD}"],
    "indefinite": [f"Q {PSD}", f"R {PD}", f"Qd {PSD}", f"Rv {PD}", f"P0 {PSD}"],
    "large_norms": [f"Qd {PSD}", f"Rv {PD}"],
    "one_bad_among_many": [f"Q[7] {PSD}", "Q[13] is not symmetric", f"R[3] {PD}",
                           "Qd[0] is not symmetric", f"Qd[0] {PSD}"],
    "singular_psd": [f"R {PD}"],
    "tolerance_edges": [f"Qd {PSD}", f"Rv {PD}", f"P0 {PSD}"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_unchanged(case):
    w, nz = CASES[case]()
    assert validate(system(), w, nz) == EXPECTED[case]


def test_empty_weight_is_not_positive_definite():
    w = LqrWeights(Q=MatrixSchedule.constant(np.eye(3), N + 1),
                   R=MatrixSchedule.constant(np.zeros((0, 0)), N))
    assert validate(system(m=0), w) == [f"R is not positive definite (tol {TOL})"]


# ------------------------------------------- symmetric parts near the overflow

def test_overflowing_sum_is_decided_not_raised():
    # M + M^T overflows to inf for these finite entries, which made eigvalsh
    # raise "Eigenvalues did not converge"; 0.5 M + 0.5 M^T stays finite and
    # the eigenvalue test decides as for any other weight
    Q = np.full((3, 3), 1.5e308)
    psd = np.linalg.eigvalsh(0.5 * Q + 0.5 * Q.T).min() >= -TOL
    assert validate(system(), weights(Q=Q)) == ([] if psd else [f"Q {PSD}"])


def test_overflowing_rank_one_weight_is_psd():
    # eigenvalues 0 and 3e308: positive semidefinite, though M + M^T is inf
    sys2 = LtvSystem.lti(0.5 * np.eye(2), np.ones((2, 1)), horizon=N)
    Q = np.full((2, 2), 1.5e308)
    assert validate(sys2, LqrWeights.constant(Q, 1.0, horizon=N)) == []
    assert validate(sys2, LqrWeights.constant(-Q, 1.0, horizon=N)) == [f"Q {PSD}"]


# --------------------------------------------------------- property: the oracle

def least_eigenvalue(M):
    return np.linalg.eigvalsh(0.5 * (M + M.T)).min()


@st.composite
def near_bound_matrices(draw):
    """Symmetric or nearly symmetric matrices whose least eigenvalue sits at a
    decision boundary, at zero, or well inside, at norms from 1e-3 to 1e12."""
    n = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.integers(-3, 12))
    sign, k = draw(st.sampled_from([-1.0, 1.0])), draw(st.integers(1, 15))
    lam = draw(st.sampled_from([
        sign * TOL * (1 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -k),
        sign * TOL,
        0.0,
        sign * scale * 10.0 ** -draw(st.integers(0, 16)),
    ]))
    M = planted(n, lam, scale=scale, seed=draw(st.integers(0, 2**32 - 1)))
    skew = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
    if skew:
        rng = np.random.default_rng(n)
        M = M + skew * scale * np.triu(rng.standard_normal((n, n)), 1)
    return M


@settings(max_examples=300, deadline=None)
@given(st.lists(near_bound_matrices(), min_size=1, max_size=3).filter(
    lambda ms: len({M.shape for M in ms}) == 1))
def test_decisions_equal_eigenvalue_test(matrices):
    stack = np.stack(matrices)
    least = np.array([least_eigenvalue(M) for M in matrices])
    size = np.abs(stack).max(axis=(1, 2))
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    symmetric, pd = definiteness(stack, positive=True)
    np.testing.assert_array_equal(symmetric, asym <= TOL * (1 + size))
    np.testing.assert_array_equal(pd, least > TOL)
    np.testing.assert_array_equal(definiteness(stack, positive=False)[1], least >= -TOL)


# --------------------------------------------------------- perf regression guard

def spd(rng, n):
    W = rng.standard_normal((n, n)) / np.sqrt(n)
    return 0.5 * np.eye(n) + 0.5 * (W @ W.T + (W @ W.T).T)


def ltv_problem(n=16, N=20, bad_q=None):
    rng = np.random.default_rng(11)
    system = LtvSystem.from_schedules(
        [0.9 * np.eye(n) + 0.01 * rng.standard_normal((n, n)) for _ in range(N)],
        [rng.standard_normal((n, n // 2)) for _ in range(N)],
        [rng.standard_normal((n // 2, n)) for _ in range(N)], horizon=N)
    Q = [spd(rng, n) for _ in range(N + 1)]
    if bad_q is not None:
        Q[bad_q] = -Q[bad_q]
    w = LqrWeights(Q=MatrixSchedule.of(Q),
                   R=MatrixSchedule.of([spd(rng, n // 2) for _ in range(N)]))
    nz = NoiseModel(Qd=MatrixSchedule.of([spd(rng, n) for _ in range(N)]),
                    Rv=MatrixSchedule.of([spd(rng, n // 2) for _ in range(N)]),
                    x0_mean=np.zeros(n), P0=np.eye(n))
    return system, w, nz


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_definite_schedules_need_no_eigenvalues(eigvalsh_calls):
    assert validate(*ltv_problem()) == []
    assert eigvalsh_calls == []


def test_indefinite_entry_is_decided_by_eigenvalues(eigvalsh_calls):
    assert validate(*ltv_problem(bad_q=5)) == [f"Q[5] {PSD}"]
    assert len(eigvalsh_calls) >= 1


@pytest.mark.parametrize("diagonal", [(1.0, 2.0), (TOL, 1.0), (TOL * (1 + 1e-6), 1.0),
                                      (0.0, 1.0), (-TOL, 1.0), (-2 * TOL, 1.0)])
def test_exactly_symmetric_stack_with_subnormal_entry(diagonal, eigvalsh_calls):
    # the certificate factors such a stack as it is, not its symmetric part,
    # which halves the subnormal off-diagonal entry to zero; every flag is
    # still the eigenvalue test's, and an entry well inside needs no eigvalsh
    tiny = np.nextafter(0.0, 1.0)
    stack = np.array([[[diagonal[0], tiny], [tiny, diagonal[1]]],
                      [[diagonal[1], -tiny], [-tiny, diagonal[0]]]])
    assert (stack == stack.transpose(0, 2, 1)).all() and (symmetrize(stack) != stack).any()
    least = np.array([least_eigenvalue(M) for M in stack])
    calls = len(eigvalsh_calls)
    symmetric, pd = definiteness(stack, positive=True)
    assert symmetric.all()
    np.testing.assert_array_equal(pd, least > TOL)
    np.testing.assert_array_equal(definiteness(stack, positive=False)[1], least >= -TOL)
    if diagonal[0] == 1.0:
        assert len(eigvalsh_calls) == calls
