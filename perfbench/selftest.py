"""Self-test of the benchmark itself; run from the root of the checkout:

    python3 perfbench/selftest.py

1. Every workload passes its correctness check at a tiny size, on the default
   seed and on another one, traced and untraced.
2. Traced call counts equal their closed forms, which shows the tracer wraps
   the call sites the workloads actually go through.
3. BENCHMARK.json keeps to the format limits, and run.py prints every metric
   it lists with the listed unit, for every workload and both trace modes.
4. Without src/lqgkit, run.py fails without printing a result.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import Tracer
from workloads import DEFAULT_SEED, OUT, ROOT, SRC, CliCold, LtvSmooth, SeedSweep

sys.path.insert(0, str(SRC))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def traced_counts(w, i: int) -> dict[str, int]:
    tracer = Tracer()
    tracer.op = i
    tracer.install()
    try:
        out = w.op(i)
    finally:
        tracer.uninstall()
    problems = w.check(i, out)
    expect(problems == [], f"{w.name} op {i} traced: {problems}")
    cols = tracer.columns()
    counts = {name: int((cols["name"] == k).sum()) for k, name in enumerate(tracer.names)}
    normals = cols["value"][cols["name"] == tracer.names.index("stochastic.standard_normal")]
    counts["normals"] = int(normals.sum())
    dare = cols["value"][cols["name"] == tracer.names.index("lqr.solve_dare_lqr")]
    counts["dare_iterations"] = int(dare.sum())
    return counts


def check_seed_sweep() -> None:
    for seed in (DEFAULT_SEED, 7):
        w = SeedSweep(seed, seeds_per_op=3)
        w.setup()
        for i in range(6):
            expect(w.check(i, w.op(i)) == [], f"seed_sweep seed {seed} op {i}")
    B, N, n, p = 3, 50, 2, 1
    for i, est in enumerate(w.cycle):
        c = traced_counts(w, i)
        per_step = B * N
        expect(c["harness.run"] == B and c["model.validate"] == B
               and c["lqr.solve_dare_lqr"] == B and c["lqr.evaluate_cost"] == B,
               f"seed_sweep {est}: one run/validate/DARE/cost per seed: {c}")
        expect(c["lqr.dre_step"] == c["dare_iterations"] + B,
               f"seed_sweep {est}: dre_step = DARE iterations + one final step per seed")
        expect(c["lqr.solve_lqr"] == 0 and c["lqr.settling_report"] == 0,
               f"seed_sweep {est}: steady controller runs no finite-horizon LQR")
        expect(c["estimation.filter_update"] == (per_step if est != "predictor" else 0)
               and c["estimation.filter_predict"] == c["estimation.filter_update"],
               f"seed_sweep {est}: filter steps = 25 x 50 per filter op at full size: {c}")
        expect(c["estimation.predictor_step"] == (per_step if est == "predictor" else 0),
               f"seed_sweep {est}: predictor steps")
        expect(c["estimation.smoother_run"] == (B if est == "smoother" else 0),
               f"seed_sweep {est}: smoother passes")
        expect(c["stochastic.sample_gaussian"] == 2 * per_step
               and c["_linalg.psd_factor"] == 2 * per_step,
               f"seed_sweep {est}: two noise vectors per step")
        expect(c["normals"] == B * (n + N * (n + p)), f"seed_sweep {est}: normals drawn")
        spd = c["lqr.dre_step"] + per_step * (2 if est == "smoother" else 1)
        expect(c["_linalg.solve_spd"] == spd, f"seed_sweep {est}: SPD solves {c}")


def check_ltv_smooth() -> None:
    n, m, p, N = 8, 2, 2, 10
    for seed in (DEFAULT_SEED, 7):
        w = LtvSmooth(seed, n=n, m=m, p=p, N=N)
        w.setup()
        for i in range(2):
            expect(w.check(i, w.op(i)) == [], f"ltv_smooth seed {seed} op {i}")
    c = traced_counts(w, 0)
    expect(c["lqr.dre_step"] == N and c["lqr.solve_lqr"] == 1, f"ltv_smooth: dre_step = N {c}")
    expect(c["model.validate"] == c["harness.run"] == 1, "ltv_smooth: validate per run")
    expect(c["lqr.solve_dare_lqr"] == 0 and c["lqr.settling_report"] == 1, "ltv_smooth: lqr")
    expect(c["estimation.filter_update"] == N == c["estimation.filter_predict"]
           and c["estimation.smoother_run"] == 1, "ltv_smooth: N filter steps, one pass")
    expect(c["stochastic.sample_gaussian"] == 2 * N + 1 == c["_linalg.psd_factor"],
           "ltv_smooth: sampled x0 plus two noise vectors per step")
    expect(c["normals"] == n + N * (n + p), "ltv_smooth: normals drawn")
    expect(c["_linalg.solve_spd"] == 3 * N, "ltv_smooth: gain, filter and smoother solves")


def check_cli_cold() -> None:
    import numpy as np

    from tracer import FIELDS

    for seed in (DEFAULT_SEED, 7, 2**31 - 1):
        w = CliCold(seed, seeds_per_sweep=3)
        w.setup()
        for i in range(3):
            expect(w.check(i, w.op(i)) == [], f"cli_cold seed {seed} op {i}")
    runs = {"reproduce fig1": 4, "reproduce fig4": 3, "sweep": 3}
    names = Tracer().names
    for i in range(3, 6):
        out = w.op(i, traced=True)
        expect(w.check(i, out) == [], f"cli_cold traced op {i}")
        with np.load(w.spans[-1][1]) as z:
            cols = {f: z[f] for f, _ in FIELDS}
            expect(float(z["import_s"]) > 0, "cli_cold: import time recorded")
        c = {name: int((cols["name"] == k).sum()) for k, name in enumerate(names)}
        kind = w.cycle[i % 3]
        expect(c["cli.main"] == 1 and c["scenario.parse_scenario"] == 1,
               f"cli_cold {kind}: one main, one scenario parse: {c}")
        expect(c["harness.run"] == runs[kind] == c["model.validate"],
               f"cli_cold {kind}: runs and validations: {c}")


def check_contract() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), "workloads match workloads.py")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]),
           "workload entries")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end_to_end entry {m}")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]), "setup_s is an end_to_end metric")
    expect(max(m["bound"] for m in spec["end_to_end"])
           == next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"),
           "setup_s has the largest bound")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer entry {m}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    expect(all(name_re.match(n) for n in all_names) and len(set(all_names)) == len(all_names),
           "names are valid and used once")
    expect(all(unit_re.match(m["unit"]) for m in metrics), "units are valid")
    expect(1 <= spec["run_seconds"] <= 60 and len(json.dumps(spec)) <= 65536, "run_seconds")
    return spec


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run_py(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"run.py {workload} trace {trace}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"run.py {workload} trace {trace}: result {result}")
            listed = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == listed, f"{workload} trace {trace}: metrics/units {got} != {listed}")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{workload} trace {trace}: finite values")
            text = "\n".join(lines[:-1])
            for name, unit in listed.items():
                expect(re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}\b", text, re.M),
                       f"{workload} trace {trace}: {name} printed with its unit")
            expect(trace or "  error_frac = 0 frac" in text, f"{workload}: error_frac printed")
            print(f"  run.py {workload} trace {trace}: ok")


def check_bare() -> None:
    bare = OUT / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "seed_sweep", 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "run.py without src/lqgkit must fail without a result")


def main() -> None:
    for check in (check_seed_sweep, check_ltv_smooth, check_cli_cold):
        check()
        print(f"{check.__name__}: ok")
    spec = check_contract()
    print("check_contract: ok")
    check_bare()
    print("check_bare: ok")
    check_run_py(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
