"""The benchmark's three workloads: inputs made from the seed, one op, its check.

Every workload has the same shape: `setup()` builds the inputs, `op(i, traced)`
runs the i-th op and returns its output, and `check(i, output)` returns the
list of problems found in that output (empty when it is correct).  Ops cycle
through `cycle` kinds; op i uses kind `i % len(cycle)` and inputs that depend
only on the seed and i, so the same seed gives the same ops.

Golden values (golden.npz, written by make_golden.py) were computed at the
commit that introduced this benchmark, for DEFAULT_SEED.  Quantities that do
not depend on the seed (covariance traces, the reproduce CSVs) are compared on
every seed; seed-dependent ones fall back to invariant checks off the golden
range.  "rtol" comparisons are max-abs errors relative to the max-abs golden
value of the array (or CSV column), so reassociated sums do not fail them.
"""
from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.npz"
DEFAULT_SEED = 0
# Op inputs of different --seed values never overlap: seed s owns the
# scenario seeds [s * SEED_STRIDE, (s + 1) * SEED_STRIDE).
SEED_STRIDE = 100_000


def close(actual, golden, rtol: float) -> bool:
    """Max-abs error within rtol of the golden array's max-abs value."""
    a = np.asarray(actual, dtype=float)
    g = np.asarray(golden, dtype=float)
    if a.shape != g.shape or not np.array_equal(np.isnan(a), np.isnan(g)):
        return False
    a, g = a[~np.isnan(g)], g[~np.isnan(g)]
    if g.size == 0:
        return True
    return bool(np.max(np.abs(a - g)) <= rtol * np.max(np.abs(g)))


def load_golden() -> dict:
    with np.load(GOLDEN) as z:
        return {k: z[k] for k in z.files}


def bench_env() -> dict:
    """Environment for child interpreters: the checkout's lqgkit, one BLAS thread."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


# --------------------------------------------------------------- seed_sweep

class SeedSweep:
    """lqgkit.sweep over blocks of consecutive seeds on the bundled fig4 scenario."""

    name = "seed_sweep"
    in_process = True
    cycle = ("predictor", "filter", "smoother")

    def __init__(self, seed: int, seeds_per_op: int = 25):
        self.seed = seed
        self.seeds_per_op = seeds_per_op
        self.first = seed * SEED_STRIDE
        self.last_trace: dict[str, float] = {}

    def params(self) -> dict:
        return {"scenario": "src/lqgkit/scenarios/fig4.scn", "seeds_per_op": self.seeds_per_op,
                "first_scenario_seed": self.first, "estimators": list(self.cycle)}

    def setup(self) -> None:
        import lqgkit

        base = lqgkit.load_scenario(SRC / "lqgkit" / "scenarios" / "fig4.scn")
        self.scenarios = {est: replace(base, estimator=est) for est in self.cycle}
        golden = load_golden()
        self.golden_costs = golden["fig4_costs"]
        self.golden_traces = dict(zip(self.cycle, golden["fig4_traces"]))

    def seeds(self, i: int) -> list[int]:
        start = self.first + self.seeds_per_op * i
        return list(range(start, start + self.seeds_per_op))

    def op(self, i: int, traced: bool = False):
        import lqgkit

        est = self.cycle[i % len(self.cycle)]
        return lqgkit.sweep(self.scenarios[est], "seed", self.seeds(i))

    def check(self, i: int, points) -> list[str]:
        est = self.cycle[i % len(self.cycle)]
        seeds = self.seeds(i)
        if [p.value for p in points] != [float(s) for s in seeds]:
            return [f"op {i}: sweep returned values {[p.value for p in points]}"]
        problems = []
        for seed, p in zip(seeds, points):
            if not close(p.terminal_covariance_trace, self.golden_traces[est], 1e-12):
                problems.append(f"seed {seed} {est}: trace {p.terminal_covariance_trace!r} "
                                f"!= golden {self.golden_traces[est]!r}")
            if seed < len(self.golden_costs):
                if not close(p.cost, self.golden_costs[seed], 1e-12):
                    problems.append(f"seed {seed}: cost {p.cost!r} != golden "
                                    f"{self.golden_costs[seed]!r}")
            elif not (np.isfinite(p.cost) and p.cost > 0):
                problems.append(f"seed {seed}: cost {p.cost!r} is not finite and positive")
        self.last_trace[est] = points[-1].terminal_covariance_trace
        seen = [self.last_trace[e] for e in ("smoother", "filter", "predictor")
                if e in self.last_trace]
        if any(a > b for a, b in zip(seen, seen[1:])):
            problems.append(f"traces out of order (smoother <= filter <= predictor): {seen}")
        return problems


# --------------------------------------------------------------- ltv_smooth

def ltv_scenario(seed: int, n: int = 64, m: int = 16, p: int = 16, N: int = 100,
                 rho: float = 1.05):
    """Seeded time-varying system with per-step A, B, C, Q, R, Qd, Rv schedules.

    A_k drifts around a fixed matrix scaled to spectral radius rho (unstable
    open loop); weights and noise covariances are SPD.
    """
    from lqgkit import LqrWeights, LtvSystem, MatrixSchedule, NoiseModel, Scenario

    rng = np.random.default_rng([seed, n, m, p, N])
    G = rng.standard_normal((n, n))
    A0 = rho * G / np.max(np.abs(np.linalg.eigvals(G)))

    def spd(dim: int, count: int, floor: float, scale: float) -> list[np.ndarray]:
        mats = []
        for _ in range(count):
            W = rng.standard_normal((dim, dim)) / np.sqrt(dim)
            mats.append(floor * np.eye(dim) + scale * 0.5 * (W @ W.T + (W @ W.T).T))
        return mats

    A = [A0 + 0.02 * rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(N)]
    B = [rng.standard_normal((n, m)) / np.sqrt(n) for _ in range(N)]
    C = [rng.standard_normal((p, n)) / np.sqrt(n) for _ in range(N)]
    system = LtvSystem(n=n, m=m, p=p, N=N, A=MatrixSchedule.of(A), B=MatrixSchedule.of(B),
                       C=MatrixSchedule.of(C))
    weights = LqrWeights(Q=MatrixSchedule.of(spd(n, N + 1, 0.5, 0.5)),
                         R=MatrixSchedule.of(spd(m, N, 1.0, 0.2)))
    noise = NoiseModel(Qd=MatrixSchedule.of(spd(n, N, 0.01, 0.02)),
                       Rv=MatrixSchedule.of(spd(p, N, 0.05, 0.05)),
                       x0_mean=rng.standard_normal(n), P0=np.eye(n))
    return Scenario(system=system, weights=weights, noise=noise, controller="lqr",
                    estimator="smoother", feedback="true_state", x0=None, seed=0)


class LtvSmooth:
    """lqgkit.run with LQR control and RTS smoothing on a large LTV system."""

    name = "ltv_smooth"
    in_process = True
    cycle = ("run",)

    def __init__(self, seed: int, n: int = 64, m: int = 16, p: int = 16, N: int = 100):
        self.seed = seed
        self.dims = {"n": n, "m": m, "p": p, "N": N}
        self.first = seed * SEED_STRIDE

    def params(self) -> dict:
        return {"system_seed": self.seed, **self.dims, "rho": 1.05, "controller": "lqr",
                "estimator": "smoother", "feedback": "true_state",
                "first_scenario_seed": self.first}

    def setup(self) -> None:
        self.scenario = ltv_scenario(self.seed, **self.dims)
        self.golden = None
        if self.seed == DEFAULT_SEED and self.dims == {"n": 64, "m": 16, "p": 16, "N": 100}:
            golden = load_golden()
            self.golden = {k[4:]: v for k, v in golden.items() if k.startswith("ltv_")}

    def op(self, i: int, traced: bool = False):
        import lqgkit

        return lqgkit.run(replace(self.scenario, seed=self.first + i))

    @staticmethod
    def figures(result) -> dict:
        est = result.estimator_run
        return {"K0": result.riccati.K[0], "P0": result.riccati.P[0],
                "Psmooth0": est.smoothed[0].cov, "PfiltN": est.updated[-1].cov,
                "cost": result.cost}

    def textbook(self, result) -> dict:
        """K0, P0, Psmooth0 and PfiltN recomputed from their neighbours by the
        standard (non-Joseph) formulas, an oracle that needs no golden value."""
        s = self.scenario
        est = result.estimator_run
        A, B, Q, R = s.system.A[0], s.system.B[0], s.weights.Q[0], s.weights.R[0]
        P1 = result.riccati.P[1]
        K0 = np.linalg.solve(R + B.T @ P1 @ B, B.T @ P1 @ A)
        N = s.system.N
        C, Rv = s.system.C[N - 1], s.noise.Rv[N - 1]
        info = np.linalg.inv(est.predicted[-1].cov) + C.T @ np.linalg.solve(Rv, C)
        upd0, pred1 = est.updated[0].cov, est.predicted[0].cov
        Ls = np.linalg.solve(pred1, A @ upd0).T
        return {"K0": K0, "P0": Q + A.T @ P1 @ A - A.T @ P1 @ B @ K0,
                "PfiltN": np.linalg.inv(info),
                "Psmooth0": upd0 + Ls @ (est.smoothed[1].cov - pred1) @ Ls.T}

    def check(self, i: int, result) -> list[str]:
        fig = self.figures(result)
        est = result.estimator_run
        problems = [f"op {i}: {k} is not finite" for k, v in fig.items()
                    if not np.all(np.isfinite(v))]
        if not fig["cost"] > 0:
            problems.append(f"op {i}: cost {fig['cost']!r} is not positive")
        if not np.array_equal(est.smoothed[-1].cov, fig["PfiltN"]):
            problems.append(f"op {i}: terminal smoothed covariance differs from the filtered one")
        for k in (0, len(est.updated) // 2):
            if np.trace(est.smoothed[k].cov) > np.trace(est.updated[k].cov):
                problems.append(f"op {i}: smoothed trace above filtered trace at k={k}")
        if np.trace(est.updated[-1].cov) > np.trace(est.predicted[-1].cov):
            problems.append(f"op {i}: filtered trace above predicted trace at k=N")
        for key, value in self.textbook(result).items():
            if not close(fig[key], value, 1e-10):
                problems.append(f"op {i}: {key} differs from its textbook form at rtol 1e-10")
        if self.golden is not None:
            for key in ("K0", "P0", "Psmooth0", "PfiltN"):
                if not close(fig[key], self.golden[key], 1e-10):
                    problems.append(f"op {i}: {key} differs from golden at rtol 1e-10")
            costs = self.golden["costs"]
            if i < len(costs) and not close(fig["cost"], costs[i], 1e-10):
                problems.append(f"op {i}: cost {fig['cost']!r} != golden {costs[i]!r}")
        return problems


# ----------------------------------------------------------------- cli_cold

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CLI CSV; empty cells become NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = [[float(c) if c != "" else np.nan for c in row] for row in rows[1:]]
    return rows[0], np.array(body, dtype=float)


REPRODUCE_FILES = {
    "fig1": ["fig1_n5_optimal.csv", "fig1_n5_steady.csv",
             "fig1_n50_optimal.csv", "fig1_n50_steady.csv"],
    "fig4": ["fig4_predictor.csv", "fig4_filter.csv", "fig4_smoother.csv"],
}


class CliCold:
    """One fresh `python -m lqgkit.cli` process per op."""

    name = "cli_cold"
    in_process = False
    cycle = ("reproduce fig1", "reproduce fig4", "sweep")

    def __init__(self, seed: int, seeds_per_sweep: int = 20):
        self.seed = seed
        self.seeds_per_sweep = seeds_per_sweep
        self.first = seed * SEED_STRIDE
        self.spans: list[tuple[int, Path]] = []

    def params(self) -> dict:
        return {"commands": list(self.cycle), "seeds_per_sweep": self.seeds_per_sweep,
                "first_scenario_seed": self.first, "python": sys.executable}

    def setup(self) -> None:
        self.work = OUT / "cli_cold"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.scn = self.work / "fig4.scn"
        shutil.copyfile(SRC / "lqgkit" / "scenarios" / "fig4.scn", self.scn)
        self.env = bench_env()
        golden = load_golden()
        self.golden_csv = {k[4:]: v for k, v in golden.items() if k.startswith("csv_")}
        self.golden_costs = golden["fig4_costs"]
        self.golden_filter_trace = float(golden["fig4_traces"][1])

    def seeds(self, i: int) -> list[int]:
        start = self.first + self.seeds_per_sweep * (i // len(self.cycle))
        return list(range(start, start + self.seeds_per_sweep))

    def argv(self, i: int, outdir: Path) -> list[str]:
        kind = self.cycle[i % len(self.cycle)]
        if kind == "sweep":
            values = ",".join(str(s) for s in self.seeds(i))
            args = ["sweep", str(self.scn), "--axis", "seed", "--values", values]
        else:
            args = kind.split()
        return args + ["--output", str(outdir)]

    def op(self, i: int, traced: bool = False):
        outdir = self.work / f"op{i}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        if traced:
            spans = self.work / f"spans{i}.npz"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans)]
            self.spans.append((i, spans))
        else:
            cmd = [sys.executable, "-m", "lqgkit.cli"]
        proc = subprocess.run(cmd + self.argv(i, outdir), env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        return proc, outdir

    def check(self, i: int, output) -> list[str]:
        proc, outdir = output
        try:
            return self._check(i, proc, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, i: int, proc, outdir: Path) -> list[str]:
        kind = self.cycle[i % len(self.cycle)]
        if proc.returncode != 0:
            return [f"op {i} ({kind}): exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        problems = []
        if kind == "sweep":
            header, body = read_csv(outdir / "fig4_sweep_seed.csv")
            seeds = self.seeds(i)
            if header != ["value", "cost", "k_x", "k_K", "terminal_covariance_trace"] \
                    or body.shape != (len(seeds), 5):
                return [f"op {i}: sweep CSV has header {header} and shape {body.shape}"]
            # The CLI writes floats with 12 significant digits, so seeds of
            # 13 digits or more (large --seed values) read back rounded.
            if not np.array_equal(body[:, 0], [float(f"{float(s):.12g}") for s in seeds]):
                problems.append(f"op {i}: sweep values {body[:, 0].tolist()}")
            trace = float(f"{self.golden_filter_trace:.12g}")
            for seed, cost, tr in zip(seeds, body[:, 1], body[:, 4]):
                if not close(tr, trace, 1e-12):
                    problems.append(f"seed {seed}: trace {tr!r} != golden {trace!r}")
                if seed < len(self.golden_costs):
                    if not close(cost, float(f"{self.golden_costs[seed]:.12g}"), 1e-12):
                        problems.append(f"seed {seed}: cost {cost!r} != golden")
                elif not (np.isfinite(cost) and cost > 0):
                    problems.append(f"seed {seed}: cost {cost!r} is not finite and positive")
            return problems
        figure = kind.split()[1]
        produced = sorted(p.name for p in outdir.iterdir())
        if produced != sorted(REPRODUCE_FILES[figure]):
            return [f"op {i}: reproduce {figure} wrote {produced}"]
        for fname in REPRODUCE_FILES[figure]:
            header, body = read_csv(outdir / fname)
            stem = fname[:-4]
            if header != self.golden_csv[f"{stem}_header"].tolist():
                problems.append(f"op {i}: {fname} header {header}")
                continue
            golden = self.golden_csv[stem]
            if body.shape != golden.shape or not all(
                    close(body[:, j], golden[:, j], 1e-12) for j in range(golden.shape[1])):
                problems.append(f"op {i}: {fname} differs from golden at rtol 1e-12")
        return problems


WORKLOADS = {w.name: w for w in (SeedSweep, LtvSmooth, CliCold)}
