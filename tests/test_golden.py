"""Golden-output regression: results pinned before the estimator-engine refactor.

`golden.json` holds the parsed numeric content of `lqgkit reproduce fig1`,
`lqgkit reproduce fig4`, and seed sweeps of the bundled fig4 scenario (every
estimator, plus estimate feedback, a Luenberger observer, a finite-horizon
controller and an x0 drawn from N(x0_mean, P0)).  Values are compared at
rtol 1e-12, not byte for byte, so reassociating a float sum is no false
alarm.  The file was written by this module's `__main__` block against the
code as it was before the refactor; regenerating it to make this test pass
would defeat it.

    PYTHONPATH=<checkout>/src python tests/test_golden.py   # rewrite golden.json
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
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


def _parse_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = [[float(c) if c != "" else None for c in row] for row in rows[1:]]
    return {"header": rows[0], "body": body}


def _reproduce(figure: str, outdir: Path) -> dict:
    from lqgkit.cli import main

    assert main(["reproduce", figure, "--output", str(outdir)]) == 0
    return {name: _parse_csv(outdir / name) for name in FIGURES[figure]}


def _sweep(case: str) -> list[list]:
    from lqgkit import sweep
    from lqgkit.cli import _bundled_scenario

    scenario = replace(_bundled_scenario("fig4"), **SWEEP_CASES[case])
    return [[float(p.value), p.cost, p.k_x, p.k_K, p.terminal_covariance_trace]
            for p in sweep(scenario, "seed", SWEEP_SEEDS)]


def _generate(workdir: Path) -> dict:
    return {
        "reproduce": {fig: _reproduce(fig, workdir / fig) for fig in FIGURES},
        "sweep_seeds": SWEEP_SEEDS,
        "sweep": {case: _sweep(case) for case in SWEEP_CASES},
    }


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_generate(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
