"""Predictor, filter, and smoother on one noisy run.

Uses the bundled estimation benchmark scenario: the truth is driven by
0.25-scaled standard-normal noise while the estimator believes unit
covariances, mirroring the usual situation where the model is only an
approximation.  The three estimators see the same measurements; their error
covariances order as smoother <= filter <= predictor.
"""
from dataclasses import replace
from importlib import resources

import numpy as np

from lqgkit import parse_scenario, run

text = (resources.files("lqgkit") / "scenarios" / "fig4.scn").read_text(encoding="utf-8")
base = parse_scenario(text)
print(f"horizon N = {base.system.N}, seed = {base.seed}")

results = {est: run(replace(base, estimator=est))
           for est in ("predictor", "filter", "smoother")}

truth = results["filter"].trajectory.states
print("\nestimation error norms (same realization for all three):")
print(f"{'k':>4} {'predictor':>12} {'filter':>12} {'smoother':>12}")
for k in (0, 1, 2, 5, 10, 25, 50):
    errs = [np.linalg.norm(truth[k] - results[est].trajectory.estimates[k])
            for est in ("predictor", "filter", "smoother")]
    print(f"{k:>4} {errs[0]:>12.4f} {errs[1]:>12.4f} {errs[2]:>12.4f}")

print("\ncovariance trace by estimator (believed uncertainty):")
print(f"{'k':>4} {'predictor':>12} {'filter':>12} {'smoother':>12}")
for k in (0, 1, 2, 5, 10, 25, 50):
    traces = [np.trace(results[est].trajectory.covariances[k])
              for est in ("predictor", "filter", "smoother")]
    print(f"{k:>4} {traces[0]:>12.4f} {traces[1]:>12.4f} {traces[2]:>12.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 3.5), sharey=True)
    for ax, est in zip(axes, ("predictor", "filter", "smoother")):
        est_traj = results[est].trajectory
        ax.plot(truth[:, 1], "k-", lw=1, label="true x2")
        ax.plot(est_traj.estimates[:, 1], "--", label="estimate")
        sd = np.sqrt(est_traj.covariances[:, 1, 1])
        ax.fill_between(range(len(sd)), est_traj.estimates[:, 1] - 2 * sd,
                        est_traj.estimates[:, 1] + 2 * sd, alpha=0.2)
        ax.set_title(est)
        ax.legend()
    fig.tight_layout()
    fig.savefig("demo_estimators.png", dpi=120)
    print("\nsaved demo_estimators.png")
except ImportError:
    pass
