"""Command-line front end: scenario files in, CSV series and summaries out.

Subcommands: lqr, estimate, simulate, sweep, reproduce, validate.
Exit codes: 0 success, 2 scenario/validation problems, 1 runtime failures.
CSV output is RFC-4180 style (quoted where needed, CRLF, header row) with
locale-independent 12-significant-digit numbers; column schemas are listed
in README.md and asserted by the test suite.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from ._linalg import ConvergenceError
from .harness import (RunResult, Scenario, _steady_violations, _violations, _with_horizon, run,
                      sweep)
from .lqr import solve_dare_lqr, solve_lqr
from .model import ValidationError, validate
from .scenario import ScenarioError, load_scenario, parse_scenario

_MODE_TO_ESTIMATOR = {"predict": "predictor", "filter": "filter", "smooth": "smoother"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _block(prefix: str, values, first: int = 0):
    """A column block of rows first.. from values (L,), (L, c) or (L, r, c),
    headed prefix, prefix_i or prefix_i_j (1-based)."""
    values = np.asarray(values)
    headers = [prefix + "".join(f"_{i + 1}" for i in index)
               for index in np.ndindex(values.shape[1:])]
    return headers, values.reshape(len(values), -1), first


def _diagonals(covs) -> np.ndarray:
    return np.diagonal(np.asarray(covs), axis1=1, axis2=2)


def _write_table(path: Path, blocks) -> None:
    """Write column blocks (headers, (L, c) values, first row) side by side.

    Each block fills rows first..first+L-1 and leaves its other cells empty.
    """
    height = max(first + len(values) for _, values, first in blocks)
    header, columns = [], []
    for headers, values, first in blocks:
        column = [[None] * len(headers)] * height
        column[first:first + len(values)] = values.tolist()
        header += headers
        columns.append(column)
    _write_csv(path, header, ([cell for part in row for cell in part] for row in zip(*columns)))


def _seeded(scenario: Scenario, args) -> Scenario:
    """The scenario with the command line's --seed, when one is given."""
    return scenario if args.seed is None else replace(scenario, seed=args.seed)


def _load(args) -> Scenario:
    return _seeded(load_scenario(args.scenario), args)


def _stem(args) -> str:
    return Path(args.scenario).stem


# ---------------------------------------------------------------- subcommands

def _cmd_lqr(args) -> int:
    scenario = _load(args)
    if scenario.weights is None:
        raise ValidationError(["lqr subcommand requires a weights section"])
    system, weights = scenario.system, scenario.weights
    report = validate(system, weights, scenario.noise)
    if args.steady:
        report += _steady_violations(system, weights)
    if report:
        raise ValidationError(report)
    outdir = Path(args.output)

    if args.steady:
        ss = solve_dare_lqr(system.A[0], system.B[0], weights.Q[0], weights.R[0],
                            tol=args.tol, max_iter=args.max_iter)
        path = outdir / f"{_stem(args)}_lqr_steady.csv"
        _write_table(path, [_block("K", ss.K[None]), _block("Pdiag", np.diag(ss.P)[None]),
                            _block("iterations", [ss.iterations]),
                            _block("residual", [ss.residual]),
                            _block("spectral_radius", [ss.closed_loop_spectral_radius])])
        k_str = ", ".join(_fmt(v) for v in ss.K.reshape(-1))
        print(f"steady-state gain K = [{k_str}] "
              f"(iterations {ss.iterations}, residual {ss.residual:.3g})")
        print(f"closed-loop spectral radius = {ss.closed_loop_spectral_radius:.6f}")
        print(f"wrote {path}")
        return 0

    solution = solve_lqr(system, weights)
    path = outdir / f"{_stem(args)}_lqr.csv"
    _write_table(path, [_block("k", np.arange(system.N + 1)), _block("K", solution.K.stack),
                        _block("Pdiag", _diagonals(solution.P.stack))])
    x0 = scenario.x0 if scenario.x0 is not None else (
        scenario.noise.x0_mean if scenario.noise is not None else None)
    if x0 is not None:
        print(f"J* = {solution.optimal_cost(x0):.2f} over N={system.N} steps")
    print(f"wrote {path}")
    return 0


def _estimator_csv(result: RunResult, mode: str, path: Path) -> None:
    est = result.estimator_run
    beliefs = {"predict": est.predicted, "filter": est.updated, "smooth": est.smoothed}[mode]
    measured = est.predicted.first      # the time of the first measurement
    blocks = [_block("k", np.arange(len(beliefs))), _block("x", result.trajectory.states),
              _block("xhat", beliefs.means), _block("Pdiag", _diagonals(beliefs.covs))]
    if mode == "smooth":
        blocks += [_block("Pfiltdiag", _diagonals(est.updated.covs)), _block("Ls", est.gains)]
    else:
        blocks.append(_block("L", est.gains, measured))
    _write_table(path, blocks + [_block("innov", est.innovations, measured)])


def _cmd_estimate(args) -> int:
    scenario = _load(args)
    scenario = replace(scenario, estimator=_MODE_TO_ESTIMATOR[args.mode])
    result = run(scenario, tol=args.tol, max_iter=args.max_iter)
    path = Path(args.output) / f"{_stem(args)}_{args.mode}.csv"
    _estimator_csv(result, args.mode, path)
    trace = np.trace(result.trajectory.covariances[-1])
    print(f"{scenario.estimator} over N={scenario.system.N} steps, seed {scenario.seed}: "
          f"terminal covariance trace {trace:.6g}")
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    result = run(_load(args), tol=args.tol, max_iter=args.max_iter)
    traj, est = result.trajectory, result.estimator_run
    blocks = [_block("k", np.arange(len(traj.states))), _block("x", traj.states),
              _block("u", traj.inputs)]
    if traj.outputs is not None:
        # measurement j belongs to time j + first: 1 on the filter convention, else 0
        blocks.append(_block("y", traj.outputs, est.predicted.first if est is not None else 0))
    if traj.estimates is not None:
        blocks.append(_block("xhat", traj.estimates))
    if traj.covariances is not None:
        blocks.append(_block("Pdiag", _diagonals(traj.covariances)))
    path = Path(args.output) / f"{_stem(args)}_run.csv"
    _write_table(path, blocks)
    if result.cost is not None:
        print(f"cost = {result.cost:.2f}")
    if result.settling is not None:
        sr = result.settling
        print(f"settling: k_x = {sr.k_x}, k_K = {sr.k_K}, epsilon = {sr.epsilon:.6g}, "
              f"gain constant over state transient: {sr.gain_constant_over_transient}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    values = [v for v in args.values.split(",") if v.strip() != ""]  # sweep parses them
    points = sweep(scenario, args.axis, values, tol=args.tol, max_iter=args.max_iter)
    header = ["value", "cost", "k_x", "k_K", "terminal_covariance_trace"]
    rows = [[float(pt.value), pt.cost, pt.k_x, pt.k_K, pt.terminal_covariance_trace]
            for pt in points]
    path = Path(args.output) / f"{_stem(args)}_sweep_{args.axis}.csv"
    _write_csv(path, header, rows)
    for pt in points:
        print(f"{args.axis}={_fmt(pt.value)}: cost={_fmt(pt.cost)} k_x={pt.k_x} k_K={pt.k_K} "
              f"terminal_cov_trace={_fmt(pt.terminal_covariance_trace)}")
    print(f"wrote {path}")
    return 0


def _bundled_scenario(name: str) -> Scenario:
    text = (resources.files("lqgkit") / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")
    return parse_scenario(text)


def _reproduce_fig1(args) -> int:
    base = _seeded(_bundled_scenario("fig1"), args)
    outdir = Path(args.output)
    costs = {}
    for N in (5, 50):
        scn = _with_horizon(base, N)
        for label, controller in (("optimal", "lqr"), ("steady", "steady")):
            result = run(replace(scn, controller=controller),
                         tol=args.tol, max_iter=args.max_iter)
            costs[(N, label)] = result.cost
            traj = result.trajectory
            blocks = [_block("k", np.arange(N + 1)), _block("x", traj.states),
                      _block("u", traj.inputs), _block("K", result.controller_gains.stack)]
            if result.riccati is not None:
                blocks.append(_block("Pdiag", _diagonals(result.riccati.P.stack)))
            path = outdir / f"fig1_n{N}_{label}.csv"
            _write_table(path, blocks)
            print(f"wrote {path}")
    print("cost comparison (optimal schedule vs converged steady gain):")
    for N in (5, 50):
        print(f"  N={N:<3d} J(K_k) = {costs[(N, 'optimal')]:.2f}   "
              f"J(K) = {costs[(N, 'steady')]:.2f}")
    return 0


def _reproduce_fig4(args) -> int:
    base = _seeded(_bundled_scenario("fig4"), args)
    outdir = Path(args.output)
    for mode, estimator in _MODE_TO_ESTIMATOR.items():
        result = run(replace(base, estimator=estimator), tol=args.tol, max_iter=args.max_iter)
        path = outdir / f"fig4_{estimator}.csv"
        _estimator_csv(result, mode, path)
        trace = np.trace(result.trajectory.covariances[-1])
        print(f"{estimator}: terminal covariance trace {trace:.6g} -> {path}")
    print(f"seed {base.seed}; covariance ordering: smoother <= filter <= predictor")
    return 0


def _cmd_reproduce(args) -> int:
    if args.figure == "fig1":
        return _reproduce_fig1(args)
    return _reproduce_fig4(args)


def _cmd_validate(args) -> int:
    report = _violations(_load(args))
    if report:
        for line in report:
            print(f"violation: {line}", file=sys.stderr)
        return 2
    print("scenario is valid")
    return 0


# -------------------------------------------------------------------- parser

def _at_least(convert, least):
    """An argparse type: a finite `convert` (float or int) of text, at least `least`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = np.nan
        if not least <= value < np.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite {convert.__name__} >= {least}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqgkit",
        description="Discrete-time LQR synthesis, Kalman estimation, and LQG simulation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario file's seed")
    common.add_argument("--output", default=".", help="directory for CSV output")
    common.add_argument("--tol", type=_at_least(float, 0), default=1e-10,
                        help="steady-state solver tolerance")
    common.add_argument("--max-iter", type=_at_least(int, 1), default=100_000,
                        help="steady-state solver iteration cap")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lqr", parents=[common], help="finite-horizon or steady LQR synthesis")
    p.add_argument("scenario")
    p.add_argument("--steady", action="store_true", help="solve the steady-state problem")
    p.set_defaults(func=_cmd_lqr)

    p = sub.add_parser("estimate", parents=[common], help="run a Kalman estimator")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=("predict", "filter", "smooth"), required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", parents=[common], help="run the scenario as configured")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="rerun along one parameter axis")
    p.add_argument("scenario")
    p.add_argument("--axis", choices=("N", "seed", "R-scale", "Q-scale"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common], help="rerun a bundled experiment")
    p.add_argument("figure", choices=("fig1", "fig4"))
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("validate", parents=[common], help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
