"""lqgkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  lqgkit is imported from ./src; nothing is
installed.  Workloads (see workloads.py and BENCHMARK.json for why each one):

  seed_sweep  lqgkit.sweep over 25 consecutive seeds of the bundled fig4
              scenario per op, estimators cycling predictor/filter/smoother
  ltv_smooth  lqgkit.run on a seeded time-varying system, n=64 m=16 p=16
              N=100, LQR control and RTS smoothing
  cli_cold    one fresh `python -m lqgkit.cli` process per op: reproduce
              fig1, reproduce fig4, sweep fig4 over 20 seeds

Each workload is a closed loop with one client.  This script starts SETUPS
fresh interpreters one after another (child.py), BLAS pinned to one thread;
each sets up and runs one untimed warm-up op, and the middle one then runs
timed ops in whole cycles of op kinds for --seconds, so set-up is sampled
before and after the timed window.  Every op's output is checked.

--trace 0 reports the end-to-end metrics:
  ops_per_s    ops completed per second of the timed window
  op_p50_ms    median op latency
  op_tail_ms   latency with exactly ten ops above it (its percentile and
               the op count are printed beside it)
  setup_s      median over the SETUPS processes of the time from starting
               the process to its first timed op (imports, inputs, warm-up)
  peak_rss_mb  max RSS of the measuring process; for cli_cold, of its
               largest CLI child
  error_frac   failed / attempted ops; printed here and carried by the
               result's `failed` and `attempted` (it is 0 when all is well,
               so it takes no relative bound)

--trace 1 alternates untraced and traced cycles of ops and reports the
per-layer metrics from tracer.py's spans: calls per op and µs per call of
each public function, self time per layer as a share of op wall time,
distinct-argument fractions, DARE iterations, normals drawn, the cold
import time of lqgkit.cli, and trace.overhead_frac (traced over untraced
op_p50_ms, minus one).  The layers are the lqgkit modules; `_linalg` is
reported as `linalg`.  Per-call times of functions that some workload never
calls (solve_lqr, solve_dare_lqr, settling_report, predictor_step,
parse_scenario) are printed but not in the result line, where every metric
must be measured on every workload.  Time spent waiting is omitted: the
layers are single-threaded and have no queues.

The last stdout line is the JSON result; a full report (environment, inputs,
every metric) goes to .bench_out/<workload>-seed<N>-trace<T>.json and the
spans of a traced run to .bench_out/<workload>.spans.npz.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from workloads import HERE, OUT, ROOT, WORKLOADS, bench_env

SETUPS = 7
MEASURE = SETUPS // 2
DEADLINE_S = 170   # a run ends within 180 s even when a process hangs
TAIL_BEYOND = 10

LAYERS = {
    "harness": ("run",),
    "model": ("validate",),
    "lqr": ("solve_lqr", "solve_dare_lqr", "dre_step", "settling_report", "evaluate_cost"),
    "estimation": ("predictor_step", "filter_predict", "filter_update", "smoother_run"),
    "stochastic": ("sample_gaussian",),
    "_linalg": ("solve_spd", "psd_factor"),
    "scenario": ("parse_scenario",),
}


def run_child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run child.py in its own process group; returns (report, spawn time)."""
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                            env=bench_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workload process timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), spawned


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_layer(fig: dict, import_ms: float, overhead: float) -> dict:
    m = {}
    for layer, fns in LAYERS.items():
        pub = layer.lstrip("_")
        for fn in fns:
            m[f"{pub}.{fn}.calls"] = (fig[f"{layer}.{fn}.calls"], "calls/op")
            m[f"{pub}.{fn}.us_per_call"] = (fig[f"{layer}.{fn}.us_per_call"], "us")
        m[f"{pub}.self_share"] = (fig[f"{layer}.self_share"], "frac")
    for name in ("model.validate", "lqr.solve_dare_lqr", "_linalg.psd_factor"):
        m[f"{name.lstrip('_')}.distinct_frac"] = (fig[f"{name}.distinct_frac"], "frac")
    m["lqr.solve_dare_lqr.iterations"] = (fig["lqr.solve_dare_lqr.value_per_call"], "iter/call")
    m["stochastic.normals_drawn"] = (fig["stochastic.standard_normal.value_per_op"], "normals/op")
    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.self_share"] = (fig["cli.self_share"], "frac")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "lqgkit" / "__init__.py").is_file():
        print("error: run from the root of an lqgkit checkout (src/lqgkit not found)",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    child_args = [args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for k in range(SETUPS):
        role = "measure" if k == MEASURE else "setup"
        rep, spawned = run_child(child_args + [role], deadline - time.perf_counter())
        setups.append(rep)
        setups[-1]["setup_s"] = rep["ready"] - spawned
    rep = setups[MEASURE]
    warmup_problems = [p for s in setups for p in s["warmup_problems"]]

    lat = rep["latencies"]
    untraced = [t for t, tr in zip(lat, rep["traced"]) if not tr]
    traced = [t for t, tr in zip(lat, rep["traced"]) if tr]
    tail_s, tail_pct = tail(untraced)
    rss_kb = rep["rss_children_kb"] if args.workload == "cli_cold" else rep["rss_self_kb"]
    e2e = {
        "ops_per_s": (rep["attempted"] / rep["window_s"], "1/s"),
        "op_p50_ms": (median(untraced) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "error_frac": (rep["failed"] / rep["attempted"], "frac"),
    }
    metrics = e2e
    if args.trace:
        import_ms = rep["import_ms"] if args.workload == "cli_cold" else \
            median(s["import_ms"] for s in setups)
        overhead = median(traced) / median(untraced) - 1.0
        metrics = per_layer(rep["trace"], import_ms, overhead)

    env = rep["env"]
    print(f"lqgkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: {env['nproc']} cpus ({env['cpus_usable']} usable), {env['cpu_model']}; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']}, blas threads pinned {env['blas_thread_pin']}")
    print(f"inputs: {json.dumps(rep['params'])}")
    print(f"ops: {rep['attempted']} attempted, {rep['failed']} failed "
          f"({len(traced)} traced); setup processes: {SETUPS}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail_pct:.1f} of {len(untraced)} ops, {TAIL_BEYOND} beyond)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    for problem in (warmup_problems + rep["problems"])[:20]:
        print(f"  problem: {problem}")

    listed = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": rep["failed"] == 0 and not warmup_problems,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in listed},
    }
    report = {"args": vars(args), "env": env, "inputs": rep["params"],
              "omitted": {"wait_time": "single-threaded layers without queues"},
              "tail_percentile": tail_pct, "tail_samples": len(untraced),
              "setup_s_each": [s["setup_s"] for s in setups],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "problems": warmup_problems + rep["problems"], "result": result}
    report_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1))
    print(f"report: {report_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
