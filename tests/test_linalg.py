"""`solve_spd` on both of its paths, one matrix or a stack, and the scipy
import it defers.

Orders up to `_NUMPY_MAX_ORDER` are solved in numpy, larger ones by LAPACK
through scipy; scipy's `cho_factor`/`cho_solve` is the oracle for both.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from lqgkit._linalg import _NUMPY_MAX_ORDER, solve_spd

ROOT = Path(__file__).resolve().parents[1]
ORDERS = range(1, 17)


def test_orders_cover_both_paths():
    assert ORDERS[0] <= _NUMPY_MAX_ORDER < ORDERS[-1]


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


@pytest.mark.parametrize("n", [2, 16])
def test_indefinite_raises_naming_context(n):
    S = spd(n, 2)
    S[-1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve: matrix is not positive definite \("):
        solve_spd(S, np.ones((n, 1)), "gain solve")


@pytest.mark.parametrize("n", ORDERS)
def test_stack_equals_entry_by_entry(n):
    # a (2, 3, n, n) stack: every entry bit for bit as its own call
    S = np.array([spd(n, seed) for seed in range(6)]).reshape(2, 3, n, n)
    B = np.random.default_rng([2, n]).standard_normal((2, 3, n, 2))
    X = solve_spd(S, B, "test")
    assert X.shape == B.shape
    for i in np.ndindex(2, 3):
        assert X[i].tobytes() == solve_spd(S[i], B[i], "test").tobytes()


@pytest.mark.parametrize("n", [2, 16])
def test_stack_names_its_first_failing_entry(n):
    S = np.array([spd(n, seed) for seed in range(4)])
    S[2, -1, -1] = S[3, -1, -1] = -1.0
    B = np.ones((4, n, 1))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve at k=2: matrix is not positive definite \("):
        solve_spd(S, B, lambda i: f"gain solve at k={i}")
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^gain solve: matrix is not positive definite \("):
        solve_spd(S, B, "gain solve")


COLD_RUN = """
import json, sys
import numpy as np
from lqgkit.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out, scn = sys.argv[1], sys.argv[2]
seeds = ",".join(str(s) for s in range(20))
codes = [main(["reproduce", "fig1", "--output", out]),
         main(["reproduce", "fig4", "--output", out]),
         main(["sweep", scn, "--axis", "seed", "--values", seeds, "--output", out])]
after_cli = scipy_modules()
from lqgkit._linalg import solve_spd
solve_spd(16.0 * np.eye(16), np.ones(16), "order 16")
print(json.dumps({"codes": codes, "after_cli": after_cli, "after_solve": scipy_modules()}))
"""


def test_small_problems_never_import_scipy(tmp_path):
    # every bundled problem is solved in numpy, so a CLI process pays for
    # importing scipy only once an SPD solve above _NUMPY_MAX_ORDER needs it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scn = ROOT / "src" / "lqgkit" / "scenarios" / "fig4.scn"
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(tmp_path), str(scn)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["after_cli"] == []
    assert "scipy.linalg" in report["after_solve"]
