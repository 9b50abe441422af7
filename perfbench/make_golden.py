"""Write golden.npz, the reference outputs the benchmark checks ops against.

    python3 perfbench/make_golden.py        (from the root of the checkout)

The stored values were computed at the commit that introduced the benchmark,
for workloads.DEFAULT_SEED.  Regenerating them on a later commit would hide
any change in lqgkit's results, so later commits only read the file.
"""
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# The same single BLAS thread as the benchmark's processes, set before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from workloads import (DEFAULT_SEED, GOLDEN, REPRODUCE_FILES, ROOT, SEED_STRIDE, SRC,
                       LtvSmooth, SeedSweep, bench_env, ltv_scenario, read_csv)

FIG4_SEEDS = 10_000   # golden costs cover seed_sweep and cli_cold ops of the default seed
LTV_OPS = 400


def main() -> None:
    sys.path.insert(0, str(SRC))
    import lqgkit

    golden = {}
    sweep = SeedSweep(DEFAULT_SEED)
    base = lqgkit.load_scenario(SRC / "lqgkit" / "scenarios" / "fig4.scn")
    golden["fig4_traces"] = np.array([
        lqgkit.sweep(replace(base, estimator=est), "seed", [0])[0].terminal_covariance_trace
        for est in sweep.cycle])
    points = lqgkit.sweep(replace(base, estimator="filter"), "seed", range(FIG4_SEEDS))
    golden["fig4_costs"] = np.array([p.cost for p in points])

    scenario = ltv_scenario(DEFAULT_SEED)
    first = DEFAULT_SEED * SEED_STRIDE
    costs = []
    for i in range(LTV_OPS):
        result = lqgkit.run(replace(scenario, seed=first + i))
        costs.append(result.cost)
        if i == 0:
            for key, value in LtvSmooth.figures(result).items():
                if key != "cost":
                    golden[f"ltv_{key}"] = np.array(value)
    golden["ltv_costs"] = np.array(costs)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for figure, files in REPRODUCE_FILES.items():
            subprocess.run([sys.executable, "-m", "lqgkit.cli", "reproduce", figure,
                            "--output", tmp], env=bench_env(), cwd=ROOT, check=True,
                           capture_output=True)
            for fname in files:
                header, body = read_csv(Path(tmp) / fname)
                golden[f"csv_{fname[:-4]}"] = body
                golden[f"csv_{fname[:-4]}_header"] = np.array(header)
    np.savez_compressed(GOLDEN, **golden)
    print(f"wrote {GOLDEN} ({len(golden)} arrays)")


if __name__ == "__main__":
    main()
