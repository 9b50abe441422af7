"""Print a SHA-256 line for every array of a fixed set of runs, to compare
two trees of lqgkit bit for bit, and check that none of them loads scipy.

`reproduce` reaches only constant noise, so this covers what it does not:
time-varying LQR + smoother runs on an n = 16, m = p = 9 model, whose
Qd/Rv draw goes entry by entry or a block at a time and whose settling
report reads the gain drift; the recorded-data predictor, filter and
smoother on that model; and fig4's estimators over N = 200 steps, where a
constant model's covariance recursion sits on its exact fixed point for
most steps.  The SPD solves run at orders 9 (gains) and 16 (smoother).
Seed sweeps of the same cases print every `SweepPoint` field: a sweep
under true-state feedback moves the true states alone, and one under
estimate feedback (the n = 16 model with a filter) moves the means too.

    PYTHONPATH=src python tests/run_hashes.py > hashes.txt

Pytest collects only `test_*.py`, so tier-1 does not run this file.
"""
import hashlib
import sys
from dataclasses import fields, is_dataclass, replace
from importlib import resources
import numpy as np
from lqgkit import (LqrWeights, LtvSystem, MatrixSchedule, NoiseModel, Scenario,
                    filter_run, monte_carlo, parse_scenario, predictor_run, run,
                    smoother_run, sweep)
from lqgkit.estimation import BeliefSequence
from lqgkit.harness import _with_horizon
n, m, p, N = 16, 9, 9, 30
rng = np.random.default_rng(16)
def spd(dim, count):
    W = rng.standard_normal((count, dim, dim)) / np.sqrt(dim)
    return MatrixSchedule(np.eye(dim) + W @ W.swapaxes(1, 2))
def scaled(rows, cols):
    return MatrixSchedule(rng.standard_normal((N, rows, cols)) / np.sqrt(cols))
system = LtvSystem(n=n, m=m, p=p, N=N, A=scaled(n, n), B=scaled(n, m), C=scaled(p, n))
noise = NoiseModel(Qd=spd(n, N), Rv=spd(p, N), x0_mean=rng.standard_normal(n),
                   P0=np.eye(n))
scenario = Scenario(system=system, weights=LqrWeights(Q=spd(n, N + 1), R=spd(m, N)),
                    noise=noise, controller="lqr", estimator="smoother",
                    feedback="true_state", x0=None, seed=3)
def show(name, value):
    if isinstance(value, MatrixSchedule):
        value = value.distinct()
    if isinstance(value, BeliefSequence):
        show(name + ".means", value.means)
        show(name + ".covs", value.covs)
    elif is_dataclass(value):
        for field in fields(value):
            show(f"{name}.{field.name}", getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        print(name, value.dtype, value.shape, digest)
    else:
        print(name, repr(value))
for seed in (3, 11):
    show(f"run(seed={seed})", run(replace(scenario, seed=seed)))
show("monte_carlo", monte_carlo(scenario, [3, 11, 12]))
def show_sweep(name, points):
    for point in points:
        show(f"{name} sweep(seed={point.value})", point)
show_sweep("true-state smoother", sweep(scenario, "seed", [3, 11, 12]))
show_sweep("estimate-fed filter", sweep(replace(scenario, estimator="filter",
                                                feedback="estimate"), "seed", [3, 11, 12]))
inputs, measurements = rng.standard_normal((N, m)), rng.standard_normal((N, p))
filtered = filter_run(system, noise, inputs, measurements)
show("filter_run", filtered)
show("predictor_run", predictor_run(system, noise, inputs, measurements))
show("smoother_run", smoother_run(system, noise, filtered))
fig4 = _with_horizon(parse_scenario(
    (resources.files("lqgkit") / "scenarios" / "fig4.scn").read_text()), 200)
for estimator in ("predictor", "filter", "smoother"):
    show(f"fig4 N=200 {estimator}",
         monte_carlo(replace(fig4, estimator=estimator), [3, 11, 12]))
    show_sweep(f"fig4 N=200 {estimator}",
               sweep(replace(fig4, estimator=estimator), "seed", [3, 11, 12]))
# any scipy module loads the scipy package first
assert "scipy" not in sys.modules, "these runs imported scipy"
