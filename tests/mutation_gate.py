"""Mutation gate: the tests must catch each hand-made mutant of src/.

Each mutant is an exact text substitution in one module of `src/lqgkit`
that must occur there exactly once.  It is applied to a temporary copy of
the repository's `src/`, `tests/` and `pyproject.toml`, never in place, and
only the test files named for it run against that copy.  The bit snapshot
`tests/test_golden.py` is never among them, so an independent oracle must
catch each mutant.  A mutant marked `must_survive` is an equivalent program:
its tests must pass, which checks that they are not fitted to the code's
incidental choices.

    python3 tests/mutation_gate.py            # every mutant
    python3 tests/mutation_gate.py NAME ...   # the named mutants only

Exits 1 on a surviving mutant, a killed must-survive mutant, or a
substitution that does not occur exactly once.  Needs only the standard
library and the interpreter's pytest.  Pytest collects only `test_*.py`, so
tier-1 does not run this file.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str                 # file name under src/lqgkit
    old: str
    new: str
    tests: tuple[str, ...]      # paths relative to the repository root
    must_survive: bool = False


MUTANTS = (
    Mutant("lu-from-order-8", "_linalg.py",
           "if S.shape[-1] > _TRIANGULAR_MAX_ORDER:", "if S.shape[-1] >= _TRIANGULAR_MAX_ORDER:",
           ("tests/test_linalg.py",)),
    Mutant("definiteness-tol-1e-6", "_linalg.py",
           "DEFINITENESS_TOL = 1e-9", "DEFINITENESS_TOL = 1e-6",
           ("tests/test_definiteness.py",)),
    Mutant("spectral-radius-min", "_linalg.py",
           "float(np.max(np.abs(np.linalg.eigvals(M))))",
           "float(np.min(np.abs(np.linalg.eigvals(M))))",
           ("tests/test_lqr.py",)),
    Mutant("psd-factor-tol-1e-3", "_linalg.py",
           "w.min() < -DEFINITENESS_TOL", "w.min() < -1e-3",
           ("tests/test_stochastic.py",)),
    Mutant("memo-key-without-settings", "model.py",
           "key = (*map(id, owners), settings)", "key = (*map(id, owners),)",
           ("tests/test_harness.py",)),
    Mutant("memo-refs-without-callback", "model.py",
           "weakref.ref(owner, forget)", "weakref.ref(owner)",
           ("tests/test_harness.py", "tests/test_estimation.py")),
    Mutant("recorded-noise-definiteness-unchecked", "estimation.py",
           "None if definite is None else False", "None",
           ("tests/test_estimation.py",)),
    Mutant("truth-draws-believed-Qd", "harness.py",
           "_scaled(s.sim_Qd if s.sim_Qd is not None else noise.Qd, z[0])",
           "_scaled(noise.Qd, z[0])",
           ("tests/test_harness.py",)),
    Mutant("noise-steps-reuse-first-factor", "harness.py",
           "psd_factor(entry), z[:, k]", "psd_factor(entries[0]), z[:, k]",
           ("tests/test_harness.py",)),
    Mutant("sweep-truth-only-under-estimate-feedback", "harness.py",
           'observed=s.feedback == "estimate"', "observed=False",
           ("tests/test_harness.py",)),
    Mutant("sweep-trace-from-predicted", "harness.py",
           "plan.estimator.reported if", "plan.estimator.predicted if",
           ("tests/test_harness.py",)),
    Mutant("feedback-always-truth", "harness.py",
           'fed = -1 if s.feedback == "estimate" else 0', "fed = 0",
           ("tests/test_expected_cost.py", "tests/test_monte_carlo.py")),
    Mutant("k_K-off-by-one", "lqr.py",
           "np.maximum(leading - 1, 0)", "np.maximum(leading, 0)",
           ("tests/test_lqr.py",)),
    Mutant("dre-without-KtRK", "lqr.py",
           "P = Q_k + K.T @ R_k @ K + A_cl.T @ P_next @ A_cl", "P = Q_k + A_cl.T @ P_next @ A_cl",
           ("tests/test_lqr.py",)),
    Mutant("cost-without-inputs", "lqr.py",
           "state[:, :N] + _quadratic_forms(us, weights.R.stack)", "state[:, :N]",
           ("tests/test_lqr.py",)),
    Mutant("steady-K-from-previous-P", "lqr.py",
           "K, _ = _dre_step(A, B, Q, R, P, context)\n                return P, K",
           "return P, K",
           ("tests/test_lqr.py",)),
    Mutant("steady-stop-at-100-tol", "lqr.py",
           "if residual <= tol:", "if residual <= tol * 1e2:",
           ("tests/test_lqr.py",)),
    Mutant("hautus-margin-1e-3", "lqr.py",
           "abs(lam) < 1.0 - np.sqrt(np.finfo(float).eps)", "abs(lam) < 1.0 - 1e-3",
           ("tests/test_harness.py",)),
    Mutant("smoother-names-k-not-k+1", "estimation.py",
           "k={k + 1}", "k={k}",
           ("tests/test_estimation.py",)),
    Mutant("smoother-mean-without-predicted", "estimation.py",
           "means[..., k + 1, :] - predicted[..., k, :]", "means[..., k + 1, :]",
           ("tests/test_estimation.py",)),
    Mutant("smoother-cov-without-predicted", "estimation.py",
           "(covs[k + 1] - predicted[k])", "covs[k + 1]",
           ("tests/test_estimation.py",)),
    Mutant("time-update-without-Qd", "estimation.py",
           "symmetrize(A @ P @ A.T + Qd)", "symmetrize(A @ P @ A.T)",
           ("tests/test_estimation.py",)),
    Mutant("filter-update-without-joseph-term", "estimation.py",
           "ILC @ P @ ILC.T + L @ Rv @ L.T", "ILC @ P @ ILC.T",
           ("tests/test_estimation.py",)),
    Mutant("predictor-cov-identity-A", "estimation.py",
           "ALC = A - L @ C", "ALC = np.eye(len(A)) - L @ C",
           ("tests/test_estimation.py",)),
    Mutant("measurement-convention-swapped", "estimation.py",
           "moved if self.filter_convention else block",
           "block if self.filter_convention else moved",
           ("tests/test_estimation.py",)),
    Mutant("smoother-rows-take-the-run-state-order", "estimation.py",
           "n, N, predicted, updated = system.n,",
           "n, N, predicted, updated = filtered.updated.means.shape[-1],",
           ("tests/test_estimation.py",)),
    Mutant("system-rows-without-length", "model.py",
           '(system.A, "A", (n, n), steps)', '(system.A, "A", (n, n), None)',
           ("tests/test_model.py", "tests/test_estimation.py", "tests/test_lqr.py")),
    Mutant("steady-estimator-from-zero", "estimation.py",
           'np.eye(A.shape[0]), tol, max_iter, "estimator"',
           'np.zeros_like(A), tol, max_iter, "estimator"',
           ("tests/test_estimation.py", "tests/test_acceptance.py"), must_survive=True),
)


def _check(mutant: Mutant) -> tuple[bool, str]:
    """(passed, verdict) of one mutant against its test files."""
    source = (ROOT / "src" / "lqgkit" / mutant.module).read_text(encoding="utf-8")
    count = source.count(mutant.old)
    if count != 1:
        return False, f"substitution occurs {count} times in {mutant.module}, expected once"
    if "tests/test_golden.py" in mutant.tests:
        return False, "tests/test_golden.py may not catch a mutant"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        # its pythonpath = ["src"] puts the mutated copy first on pytest's sys.path
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "src" / "lqgkit" / mutant.module).write_text(
            source.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=copy, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}: {lines[-1]}"
    killed = proc.returncode == 1
    said = next((line for line in lines if line.startswith("FAILED ")), lines[-1])
    if mutant.must_survive:
        return not killed, ("killed, but must survive: " if killed else "survived as it must: "
                            ) + said
    return killed, ("killed by " if killed else "SURVIVED: ") + said.removeprefix("FAILED ")


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    failures = killed = survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        passed, verdict = _check(mutant)
        seconds = time.perf_counter() - start
        print(f"{'ok  ' if passed else 'FAIL'} {mutant.name} [{mutant.module}; "
              f"{', '.join(mutant.tests)}; {seconds:.1f} s]: {verdict}", flush=True)
        failures += not passed
        killed += passed and not mutant.must_survive
        survived += passed and mutant.must_survive
    print(f"of {len(chosen)} mutants: {killed} killed, {survived} equivalent survived as "
          f"they must, {failures} failed the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
