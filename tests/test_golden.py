"""Golden-output regression: results pinned before the refactors they guard.

`golden.json` holds the parsed numeric content of `lqgkit reproduce fig1`,
`lqgkit reproduce fig4`, seed sweeps of the bundled fig4 scenario (every
estimator, plus estimate feedback, a Luenberger observer, a finite-horizon
controller and an x0 drawn from N(x0_mean, P0)), and the CSVs of `lqgkit
estimate` (each mode), `lqgkit simulate` (fig4 with a filter, a Luenberger
observer or a predictor fed back, or no estimator) and `lqgkit lqr` (with
and without --steady on fig1).  Values are compared at rtol 1e-12, not byte
for byte, so reassociating a float sum is no false alarm.

Each entry was written by this module's `__main__` block against the code
as it was before the refactor it guards.  The block adds only the entries
`golden.json` lacks and prints their keys; it never rewrites a pinned
value, since regenerating one to make this test pass would defeat it.  Run
it against the commit before a change to pin a new case:

    PYTHONPATH=<checkout>/src python tests/test_golden.py   # add missing entries
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RTOL = 1e-12

FIGURES = {
    "fig1": ["fig1_n5_optimal.csv", "fig1_n5_steady.csv",
             "fig1_n50_optimal.csv", "fig1_n50_steady.csv"],
    "fig4": ["fig4_predictor.csv", "fig4_filter.csv", "fig4_smoother.csv"],
}
SWEEP_SEEDS = [0, 1, 2, 3, 20260811]
# name -> Scenario field overrides applied to the bundled fig4 scenario.
SWEEP_CASES = {
    "predictor": {"estimator": "predictor"},
    "filter": {"estimator": "filter"},
    "smoother": {"estimator": "smoother"},
    "predictor_feedback": {"estimator": "predictor", "feedback": "estimate"},
    "filter_feedback_lqr": {"estimator": "filter", "feedback": "estimate",
                            "controller": "lqr"},
    "luenberger_feedback": {"estimator": "luenberger", "feedback": "estimate",
                            "luenberger_gain": [[0.0], [2.5]]},
    "filter_x0_from_P0": {"estimator": "filter", "x0_std": None},
}
# name -> (bundled scenario, {line: replacement} edits of its text, CLI command).
CLI_CASES = {
    "estimate_predict": ("fig4", {}, ["estimate", "--mode", "predict"]),
    "estimate_filter": ("fig4", {}, ["estimate", "--mode", "filter"]),
    "estimate_smooth": ("fig4", {}, ["estimate", "--mode", "smooth"]),
    "simulate_filter": ("fig4", {}, ["simulate"]),
    "simulate_luenberger_feedback": (
        "fig4", {"estimator: filter": "estimator: luenberger\n  luenberger_gain: [[0.0], [2.5]]",
                 "feedback: true_state": "feedback: estimate"}, ["simulate"]),
    "simulate_predictor_feedback": (
        "fig4", {"estimator: filter": "estimator: predictor",
                 "feedback: true_state": "feedback: estimate"}, ["simulate"]),
    "simulate_no_estimator": ("fig4", {"estimator: filter": "estimator: none"}, ["simulate"]),
    "lqr": ("fig1", {}, ["lqr"]),
    "lqr_steady": ("fig1", {}, ["lqr", "--steady"]),
}


def _parse_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = [[float(c) if c != "" else None for c in row] for row in rows[1:]]
    return {"header": rows[0], "body": body}


def _reproduce(figure: str, outdir: Path) -> dict:
    from lqgkit.cli import main

    assert main(["reproduce", figure, "--output", str(outdir)]) == 0
    return {name: _parse_csv(outdir / name) for name in FIGURES[figure]}


def _cli(case: str, outdir: Path) -> dict:
    from lqgkit.cli import main

    name, edits, command = CLI_CASES[case]
    text = (resources.files("lqgkit") / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")
    for line, replacement in edits.items():
        assert text.count(line) == 1, line
        text = text.replace(line, replacement)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    assert main([*command, str(path), "--output", str(outdir)]) == 0
    return {csv_path.name: _parse_csv(csv_path) for csv_path in sorted(outdir.glob("*.csv"))}


def _sweep(case: str) -> list[list]:
    from lqgkit import sweep
    from lqgkit.cli import _bundled_scenario

    scenario = replace(_bundled_scenario("fig4"), **SWEEP_CASES[case])
    return [[float(p.value), p.cost, p.k_x, p.k_K, p.terminal_covariance_trace]
            for p in sweep(scenario, "seed", SWEEP_SEEDS)]


def _add_missing(golden: dict, workdir: Path) -> list[str]:
    """Pin every case `golden` lacks, leaving pinned ones as they are;
    returns the keys added."""
    golden.setdefault("sweep_seeds", SWEEP_SEEDS)
    producers = {
        "reproduce": (FIGURES, lambda fig: _reproduce(fig, workdir / fig)),
        "sweep": (SWEEP_CASES, _sweep),
        "cli": (CLI_CASES, lambda case: _cli(case, workdir / case)),
    }
    added = []
    for section, (cases, produce) in producers.items():
        pinned = golden.setdefault(section, {})
        for case in cases:
            if case not in pinned:
                pinned[case] = produce(case)
                added.append(f"{section}/{case}")
    return added


def _assert_close(actual, golden, where: str):
    if isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), where
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_close(a, g, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(actual, float), f"{where}: {actual!r} != {golden!r}"
        assert math.isclose(actual, golden, rel_tol=RTOL), \
            f"{where}: {actual!r} != {golden!r} at rtol {RTOL}"
    else:
        assert actual == golden, f"{where}: {actual!r} != {golden!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_reproduce_matches_golden(figure, golden, tmp_path, capsys):
    produced = _reproduce(figure, tmp_path)
    for name, pinned in golden["reproduce"][figure].items():
        assert produced[name]["header"] == pinned["header"], name
        _assert_close(produced[name]["body"], pinned["body"], name)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_seed_sweep_matches_golden(case, golden):
    assert golden["sweep_seeds"] == SWEEP_SEEDS
    _assert_close(_sweep(case), golden["sweep"][case], f"sweep {case}")


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_csv_matches_golden(case, golden, tmp_path, capsys):
    produced, pinned = _cli(case, tmp_path), golden["cli"][case]
    assert sorted(produced) == sorted(pinned)
    for name in pinned:
        assert produced[name]["header"] == pinned[name]["header"], name
        _assert_close(produced[name]["body"], pinned[name]["body"], f"{case} {name}")


if __name__ == "__main__":
    import tempfile

    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        added = _add_missing(golden, Path(tmp))
    if added:
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"added to {GOLDEN}: {', '.join(added)}" if added else f"{GOLDEN} has every case")
