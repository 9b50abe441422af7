"""`solve_spd` with both of its solve formulas, one matrix or a stack, and
no scipy at run time.

Every order is certified by numpy's Cholesky; orders up to
`_TRIANGULAR_MAX_ORDER` are solved with the factor's two triangles, larger
ones with one LU solve of S.  scipy's `cho_factor`/`cho_solve` is the oracle
for both.  The solve calls numpy's linalg gufuncs directly, under the error
policy `np.linalg` calls them with, and makes no `np.linalg` call on any
path, a failing one included; the `np.linalg` calls it stands for are its
oracle, bit for bit and failure for failure.
"""
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.linalg import _umath_linalg

from lqgkit import ConvergenceError, solve_dare_lqr
from lqgkit._linalg import _TRIANGULAR_MAX_ORDER, solve_spd, symmetrize

ROOT = Path(__file__).resolve().parents[1]
ORDERS = range(1, 17)
LARGE_ORDERS = (32, 64)
LU_ORDERS = (9, 16, *LARGE_ORDERS)


def test_orders_cover_both_paths():
    assert ORDERS[0] <= _TRIANGULAR_MAX_ORDER < ORDERS[-1]


def spd(n, seed):
    rng = np.random.default_rng([seed, n])
    W = rng.standard_normal((n, n))
    return W @ W.T + n * np.eye(n)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("rhs", ["1", "n", "4n"])
def test_matches_cho_solve(n, rhs):
    S = spd(n, 0)
    shape = {"1": (n,), "n": (n, n), "4n": (n, 4 * n)}[rhs]
    B = np.random.default_rng([1, n]).standard_normal(shape)
    X = solve_spd(S, B, "test")
    assert X.shape == B.shape
    np.testing.assert_allclose(X, sla.cho_solve(sla.cho_factor(S), B), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", LARGE_ORDERS)
@pytest.mark.parametrize("rhs", ["1", "n", "4n"])
def test_large_orders_match_cho_solve(n, rhs):
    # the LU solve and cho_solve's two triangular solves round apart by
    # about cond(S) eps max|X|, which an entry near zero feels relative to
    # itself, so these orders are compared relative to max|X|
    S = spd(n, 0)
    shape = {"1": (n,), "n": (n, n), "4n": (n, 4 * n)}[rhs]
    B = np.random.default_rng([1, n]).standard_normal(shape)
    X, expected = solve_spd(S, B, "test"), sla.cho_solve(sla.cho_factor(S), B)
    assert X.shape == B.shape
    assert np.abs(X - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n", [2, 16, 64])
def test_indefinite_raises_naming_context(n):
    S = spd(n, 2)
    S[-1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match=r"^gain solve: matrix is not positive "
                       r"definite \(Matrix is not positive definite\)$"):
        solve_spd(S, np.ones((n, 1)), "gain solve")


@pytest.mark.parametrize("n, batch", [
    *(pytest.param(n, (2, 3), id=str(n)) for n in (*ORDERS, *LARGE_ORDERS)),
    *(pytest.param(n, (), id=f"unbatched B-{n}") for n in LU_ORDERS)])
def test_stack_equals_entry_by_entry(n, batch):
    # a (2, 3, n, n) stack: every entry bit for bit as its own call, with a
    # right-hand side per entry or one broadcast against every entry
    S = np.array([spd(n, seed) for seed in range(6)]).reshape(2, 3, n, n)
    B = np.random.default_rng([2, n]).standard_normal(batch + (n, 2))
    X = solve_spd(S, B, "test")
    assert X.shape == (2, 3, n, 2)
    for i in np.ndindex(2, 3):
        assert X[i].tobytes() == solve_spd(S[i], B[i] if batch else B, "test").tobytes()


def test_large_stack_allocates_little_beyond_its_answer():
    # numpy reports its buffers to tracemalloc.  Solved as one stacked call,
    # the smoother's (100, 64, 64) gain solve held the stack's symmetric
    # part and factors beside the answer, peaking at twice its size
    W = np.random.default_rng(7).standard_normal((2, 100, 64, 64))
    S, B = W[0] @ W[0].swapaxes(-1, -2) + 64 * np.eye(64), W[1]
    tracemalloc.start()
    try:
        X = solve_spd(S, B, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * X.nbytes


@pytest.mark.parametrize("n", [2, 9, 16, 32, 64])
def test_stack_names_its_first_failing_entry(n):
    S = np.array([spd(n, seed) for seed in range(4)])
    S[2, -1, -1] = S[3, -1, -1] = -1.0
    B = np.ones((4, n, 1))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve at k=2: matrix is not positive definite \("):
        solve_spd(S, B, lambda i: f"gain solve at k={i}")
    # broadcast against a right-hand side, the entry keeps S's own index: in
    # the (2, 3) batch of a (2, 1) stack, S's entry 1 is first met at 3
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve at k=1: matrix is not positive definite \("):
        solve_spd(S[1:3, None], np.ones((1, 3, n, 1)), lambda i: f"gain solve at k={i}")
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve: matrix is not positive definite \("):
        solve_spd(S, B, "gain solve")


def np_linalg_solve(S, B):
    """The `np.linalg` calls `solve_spd` stands for."""
    S = symmetrize(S)
    L = np.linalg.cholesky(S)
    if S.shape[-1] > _TRIANGULAR_MAX_ORDER:
        return np.linalg.solve(S, B)
    return np.linalg.solve(L.swapaxes(-1, -2), np.linalg.solve(L, B))


def outcome(solve, S, B):
    """The bytes and shape of solve(S, B), or the type and message of what it
    raised, with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X = solve(S, B)
        except Exception as exc:        # noqa: BLE001 - the outcome is compared
            return type(exc), str(exc)
    return X.shape, X.tobytes()


@pytest.mark.parametrize("n", (*range(1, _TRIANGULAR_MAX_ORDER + 1), *LU_ORDERS))
@pytest.mark.parametrize("stack", [(), (2, 3)], ids=["single", "stack"])
@pytest.mark.parametrize("rhs", ["vector", "n x 1", "n x 3", "unbatched n x 3"])
def test_numpy_path_equals_np_linalg(n, stack, rhs):
    # S is slightly asymmetric, so its symmetrization counts; a 1-D right-hand
    # side keeps np.linalg.solve's semantics, under which a stack of S and a
    # vector fail with np.linalg's own ValueError on the triangular solves,
    # and the LU solve broadcasts the vector, as every order broadcasts a
    # right-hand side with no batch axes
    W, E = np.random.default_rng([3, n]).standard_normal((2,) + stack + (n, n))
    S = W @ W.swapaxes(-1, -2) + 0.1 * np.eye(n) + 1e-3 * E
    shape = {"vector": (n,), "n x 1": stack + (n, 1), "n x 3": stack + (n, 3),
             "unbatched n x 3": (n, 3)}[rhs]
    B = np.random.default_rng([4, n]).standard_normal(shape)
    got = outcome(lambda S, B: solve_spd(S, B, "test"), S, B)
    assert got == outcome(np_linalg_solve, S, B)
    if not (stack and rhs == "vector"):
        assert got[0] == stack + shape[-2:]
    elif n <= _TRIANGULAR_MAX_ORDER:
        assert got[0] is ValueError
    else:
        assert got[0] == stack + shape


def test_numpy_path_makes_no_np_linalg_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for n in (*ORDERS, *LARGE_ORDERS):
        for stack in ((), (3,)):
            S = np.broadcast_to(spd(n, 5), stack + (n, n))
            solve_spd(S, np.ones((n, 2)), "test")
            # a failure raises its own diagnostic, with no np.linalg call to rerun
            with pytest.raises(np.linalg.LinAlgError, match=r"^test: matrix is not positive "
                               r"definite \(Matrix is not positive definite\)$"):
                solve_spd(-S, np.ones((n, 2)), "test")


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("rhs", [(), (2,)], ids=["vector", "n x 2"])
def test_failed_solve_raises_as_np_linalg(monkeypatch, n, rhs):
    # a solve gufunc whose LAPACK call fails (a zero pivot) returns nan and
    # flags "invalid"; under np.linalg's error policy that is "Singular matrix"
    def failed(a, b, **kwargs):
        return np.sqrt(-np.ones(b.shape))

    for name in ("solve", "solve1"):
        monkeypatch.setattr(_umath_linalg, name, failed)
    S, B = spd(n, 7), np.ones((n, *rhs))
    got = outcome(lambda S, B: solve_spd(S, B, "test"), S, B)
    assert got == outcome(np_linalg_solve, S, B) == (np.linalg.LinAlgError, "Singular matrix")


NOT_PD = "ctx: matrix is not positive definite (Matrix is not positive definite)"


@pytest.mark.parametrize("S, B, raised", [
    ([[1.0, 2.0], [2.0, 1.0]], [[1.0], [1.0]], NOT_PD),
    ([[np.nan, 0.0], [0.0, 1.0]], [[1.0], [1.0]], None),
    ([[2.0, 1.0], [1.0, 2.0]], [[np.inf], [1.0]], None),
    ([[0.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]], NOT_PD),
    ([[1.0, 1.0], [1.0, 1.0]], [[1.0], [1.0]], NOT_PD),
], ids=["indefinite S", "NaN in S", "inf in B", "zero S", "singular S"])
def test_failures_as_np_linalg_without_warnings(S, B, raised):
    # np.linalg returns NaN for a NaN in S and for an inf in B; the numpy
    # path returns the same bits, and raises where it raises, warning of nothing
    S, B = np.array(S), np.array(B)
    got = outcome(lambda S, B: solve_spd(S, B, "ctx"), S, B)
    if raised is None:
        assert got == outcome(np_linalg_solve, S, B) and got[0] == B.shape
        assert np.isnan(np.frombuffer(got[1])).all()
    else:
        assert got == (np.linalg.LinAlgError, raised)


@pytest.mark.parametrize("n", LU_ORDERS)
@pytest.mark.parametrize("case", ["indefinite S", "NaN in S", "inf in S", "inf in B",
                                  "opposite infs in S"])
def test_lu_failures_as_np_linalg_without_warnings(n, case):
    # above _TRIANGULAR_MAX_ORDER the oracle is np.linalg's Cholesky and LU
    # solve: an indefinite S raises numpy's own diagnostic, and a non-finite
    # input gives np.linalg's result (NaN entries, or for an inf pivot a
    # finite one), warning of nothing.  Opposite infs make the
    # symmetrization warn, as it does before np.linalg's calls; with that
    # warning off the solve runs on its NaN entries
    S, B = spd(n, 6), np.ones((n, 2))
    i = n // 2
    if case == "indefinite S":
        S[i, i] = -1.0
    elif case == "NaN in S":
        S[i, i] = np.nan
    elif case == "inf in S":
        S[i, i] = np.inf
    elif case == "opposite infs in S":
        S[i, 0], S[0, i] = np.inf, -np.inf
    else:
        B[i, 0] = np.inf
    got = outcome(lambda S, B: solve_spd(S, B, "ctx"), S, B)
    expected = outcome(np_linalg_solve, S, B)
    if case == "indefinite S":
        assert expected == (np.linalg.LinAlgError, "Matrix is not positive definite")
        assert got == (np.linalg.LinAlgError, NOT_PD)
    elif case == "opposite infs in S":
        assert got == expected and got[0] is RuntimeWarning
        with np.errstate(invalid="ignore"):
            got = outcome(lambda S, B: solve_spd(S, B, "ctx"), S, B)
            assert got == outcome(np_linalg_solve, S, B) and got[0] == B.shape
    else:
        assert got == expected and got[0] == B.shape


def test_steady_overflow_diverges_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"^steady-state LQR iteration diverged "
                           r"\(residual inf after 512 iterations\)$"):
            solve_dare_lqr(np.diag([2.0, 0.5]), [[0.0], [1.0]], np.eye(2), 1.0)


COLD_RUN = """
import json, sys
import numpy as np
from lqgkit.cli import main

out, scn = sys.argv[1], sys.argv[2]
seeds = ",".join(str(s) for s in range(20))
codes = [main(["reproduce", "fig1", "--output", out]),
         main(["reproduce", "fig4", "--output", out]),
         main(["sweep", scn, "--axis", "seed", "--values", seeds, "--output", out])]
from lqgkit._linalg import solve_spd
solve_spd(16.0 * np.eye(16), np.ones(16), "order 16")
solve_spd(np.broadcast_to(64.0 * np.eye(64), (3, 64, 64)), np.ones((3, 64, 2)), "order 64")
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_small_problems_never_import_scipy(tmp_path):
    # every SPD solve is numpy's, so no process imports scipy: not the CLI
    # on the bundled problems, nor an order-16 or a stacked order-64 solve
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scn = ROOT / "src" / "lqgkit" / "scenarios" / "fig4.scn"
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(tmp_path), str(scn)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "scipy": []}
