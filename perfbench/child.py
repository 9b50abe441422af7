"""One workload process: set up, warm up, then time ops for a number of seconds.

run.py starts this file in a fresh interpreter:

    python child.py WORKLOAD SEED SECONDS TRACE ROLE

ROLE "setup" stops after the warm-up op; "measure" goes on to the timed ops.
With TRACE 1 the ops alternate, one cycle of op kinds untraced and the next
traced.  The last stdout line is one JSON object with the raw measurements.
"""
import json
import os
import resource
import sys
import time
from statistics import median


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_pin": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    name, seed, seconds, trace, role = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    report = {}
    if name != "cli_cold":
        t0 = time.perf_counter()
        import lqgkit.cli  # cold import of the whole package
        report["import_ms"] = (time.perf_counter() - t0) * 1e3
        if not lqgkit.cli.__file__.startswith(os.path.join(os.getcwd(), "src", "")):
            raise SystemExit(f"imported lqgkit from {lqgkit.cli.__file__}, not ./src")

    import numpy as np

    import workloads
    from tracer import FIELDS, Tracer, merge, summarize

    w = workloads.WORKLOADS[name](seed)
    w.setup()
    try:
        report["warmup_problems"] = w.check(0, w.op(0))
    except Exception as exc:  # a broken program still gets a result, marked incorrect
        report["warmup_problems"] = [f"warm-up op: {type(exc).__name__}: {exc}"]
    report["ready"] = time.perf_counter()
    if role == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer()
    cycle = len(w.cycle)
    period = cycle * (2 if trace else 1)
    latencies, traced_flags, problems, failed = [], [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and (i // cycle) % 2 == 1
        if traced and w.in_process:
            tracer.op = i
            tracer.install()
        out = error = None
        t0 = time.perf_counter()
        try:
            out = w.op(i, traced)
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"op {i}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced and w.in_process:
            tracer.uninstall()
        latencies.append(t1 - t0)
        traced_flags.append(traced)
        if error is None:
            try:
                errors = w.check(i, out)
            except Exception as exc:  # a malformed output is a failed op
                errors = [f"op {i}: check raised {type(exc).__name__}: {exc}"]
        else:
            errors = [error]
        del out
        if errors:
            failed += 1
            problems.extend(errors[: max(0, 20 - len(problems))])
        i += 1
        if i % period == 0 and time.perf_counter() - start >= seconds:
            break
    report.update(
        window_s=t1 - start, latencies=latencies, traced=traced_flags, attempted=i,
        failed=failed, problems=problems, params=w.params(),
        rss_self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        rss_children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    if trace:
        op_wall = {j: latencies[j] for j in range(i) if traced_flags[j]}
        if w.in_process:
            cols = tracer.columns()
        else:
            parts, import_ms = [], []
            for j, path in w.spans:
                if path.exists():
                    with np.load(path) as z:
                        parts.append((j, {f: z[f] for f, _ in FIELDS}))
                        import_ms.append(float(z["import_s"]) * 1e3)
                    path.unlink()
            cols = merge(parts)
            report["import_ms"] = median(import_ms)
        report["trace"] = summarize(cols, tracer.names, op_wall)
        spans_file = workloads.OUT / f"{name}.spans.npz"
        np.savez(spans_file, names=np.array(tracer.names), **cols)
        report["spans_file"] = str(spans_file.relative_to(workloads.ROOT))

    report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
