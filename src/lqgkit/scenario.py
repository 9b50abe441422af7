"""Scenario file parsing and serialization.

Scenario files are YAML documents with four sections (see the grammar in
README.md): system{A, B, C}, weights{Q, R}, noise{Qd, Rv, P0, x0_mean},
truth{Qd, Rv, x0_std}, and run{N, seed, controller, fixed_gain, estimator,
luenberger_gain, feedback, x0}.  A matrix written as a 2-level nested list
is a constant (LTI) entry broadcast over the horizon; a 3-level list is an
explicit per-step schedule.  Parse and schema problems raise ScenarioError
with a diagnostic naming the offending field.
"""
from __future__ import annotations

import numpy as np
import yaml

from .harness import CAUSAL_ESTIMATORS, CONTROLLERS, ESTIMATORS, FEEDBACK, Scenario
from .model import LqrWeights, LtvSystem, MatrixSchedule, NoiseModel


class ScenarioError(ValueError):
    """Scenario file could not be parsed into a valid Scenario."""


def _fail(field: str, message: str):
    raise ScenarioError(f"{field}: {message}")


def _section(value, field: str, allowed: tuple[str, ...]) -> dict:
    """A section of the file: a mapping whose keys are all in `allowed`."""
    if not isinstance(value, dict):
        _fail(field, f"expected a mapping of keys, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            _fail(f"{field}.{key}", f"unknown key (allowed: {', '.join(allowed)})")
    return value


def _depth(value) -> int:
    d = 0
    while isinstance(value, list):
        if not value:
            return d + 1
        d += 1
        value = value[0]
    return d


def _matrix(value, field: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        _fail(field, "rows are not numeric or not rectangular")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        _fail(field, f"expected a matrix, got a {arr.ndim}-dimensional array")
    return arr


def _schedule(value, field: str, length: int) -> MatrixSchedule:
    if _depth(value) >= 3:
        mats = [_matrix(v, f"{field}[{i}]") for i, v in enumerate(value)]
        if len(mats) != length:
            _fail(field, f"schedule has {len(mats)} entries, horizon needs {length}")
        return MatrixSchedule.of(mats)
    return MatrixSchedule.constant(_matrix(value, field), length)


def _vector(value, field: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        _fail(field, "entries are not numeric")
    if arr.ndim != 1:
        _fail(field, f"expected a flat vector, got shape {arr.shape}")
    return arr


def _positive_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail(field, f"must be a positive integer, got {value!r}")
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; raises ScenarioError with diagnostics."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"scenario is not valid YAML{where}: {exc}") from exc
    doc = _section(doc, "scenario", ("system", "weights", "noise", "truth", "run"))

    for required in ("run", "system"):
        if required not in doc:
            _fail(required, "section is required")
    run_sec = _section(doc["run"], "run", ("N", "seed", "controller", "fixed_gain", "estimator",
                                          "luenberger_gain", "feedback", "x0"))
    N = _positive_int(run_sec.get("N"), "run.N")

    sys_sec = _section(doc["system"], "system", ("A", "B", "C"))
    if "A" not in sys_sec:
        _fail("system.A", "matrix is required")
    if "B" not in sys_sec:
        _fail("system.B", "matrix is required")
    A = _schedule(sys_sec["A"], "system.A", N)
    B = _schedule(sys_sec["B"], "system.B", N)
    C = _schedule(sys_sec["C"], "system.C", N) if "C" in sys_sec else None
    system = LtvSystem(n=A.shape[0], m=B.shape[1], p=(C.shape[0] if C is not None else 0),
                       N=N, A=A, B=B, C=C)

    weights = None
    if "weights" in doc:
        w = _section(doc["weights"], "weights", ("Q", "R"))
        if "Q" not in w or "R" not in w:
            _fail("weights", "both Q and R are required")
        weights = LqrWeights(Q=_schedule(w["Q"], "weights.Q", N + 1),
                             R=_schedule(w["R"], "weights.R", N))

    noise = None
    if "noise" in doc:
        nz = _section(doc["noise"], "noise", ("Qd", "Rv", "P0", "x0_mean"))
        for key in ("Qd", "P0", "x0_mean"):
            if key not in nz:
                _fail(f"noise.{key}", "field is required")
        p = system.p
        if p and "Rv" not in nz:
            _fail("noise.Rv", "field is required when the system has outputs")
        Rv = _schedule(nz["Rv"], "noise.Rv", N) if "Rv" in nz \
            else MatrixSchedule.constant(np.zeros((0, 0)), N)
        noise = NoiseModel(Qd=_schedule(nz["Qd"], "noise.Qd", N), Rv=Rv,
                           x0_mean=_vector(nz["x0_mean"], "noise.x0_mean"),
                           P0=_matrix(nz["P0"], "noise.P0"))

    sim_Qd = sim_Rv = None
    x0_std = None
    if "truth" in doc:
        tr = _section(doc["truth"], "truth", ("Qd", "Rv", "x0_std"))
        if "Qd" in tr:
            sim_Qd = _schedule(tr["Qd"], "truth.Qd", N)
        if "Rv" in tr:
            sim_Rv = _schedule(tr["Rv"], "truth.Rv", N)
        if "x0_std" in tr:
            x0_std = tr["x0_std"]
            if not isinstance(x0_std, (int, float)) or isinstance(x0_std, bool):
                _fail("truth.x0_std", f"must be a number, got {x0_std!r}")
            x0_std = float(x0_std)

    controller = run_sec.get("controller", "none")
    if controller not in CONTROLLERS:
        _fail("run.controller", f"must be one of {', '.join(CONTROLLERS)}, got {controller!r}")
    estimator = run_sec.get("estimator", "none")
    if estimator not in ESTIMATORS:
        _fail("run.estimator", f"must be one of {', '.join(ESTIMATORS)}, got {estimator!r}")

    feedback = run_sec.get("feedback")
    if feedback is None:
        # LQG default: feed back the causal estimate when one is configured.
        causal = estimator in CAUSAL_ESTIMATORS
        feedback = "estimate" if (controller != "none" and causal) else "true_state"
    if feedback not in FEEDBACK:
        _fail("run.feedback", f"must be one of {', '.join(FEEDBACK)}, got {feedback!r}")

    x0_value = run_sec.get("x0")
    if x0_value is None:
        _fail("run.x0", "field is required (a vector, or the string 'sampled')")
    if isinstance(x0_value, str):
        if x0_value != "sampled":
            _fail("run.x0", f"expected a vector or 'sampled', got {x0_value!r}")
        x0 = None
    else:
        x0 = _vector(x0_value, "run.x0")

    seed = run_sec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        _fail("run.seed", f"must be an integer, got {seed!r}")

    fixed_gain = _matrix(run_sec["fixed_gain"], "run.fixed_gain") \
        if "fixed_gain" in run_sec else None
    luenberger_gain = _matrix(run_sec["luenberger_gain"], "run.luenberger_gain") \
        if "luenberger_gain" in run_sec else None

    return Scenario(
        system=system, weights=weights, noise=noise,
        controller=controller, fixed_gain=fixed_gain,
        estimator=estimator, luenberger_gain=luenberger_gain,
        feedback=feedback, x0=x0, x0_std=x0_std,
        sim_Qd=sim_Qd, sim_Rv=sim_Rv, seed=seed,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-structure form of a Scenario; parse(dump(d)) round-trips."""
    doc: dict = {"system": {"A": s.system.A.to_lists(), "B": s.system.B.to_lists()}}
    if s.system.C is not None:
        doc["system"]["C"] = s.system.C.to_lists()
    if s.weights is not None:
        doc["weights"] = {"Q": s.weights.Q.to_lists(), "R": s.weights.R.to_lists()}
    if s.noise is not None:
        doc["noise"] = {"Qd": s.noise.Qd.to_lists(), "x0_mean": s.noise.x0_mean.tolist(),
                        "P0": s.noise.P0.tolist()}
        if s.system.p:
            doc["noise"]["Rv"] = s.noise.Rv.to_lists()
    truth = {}
    if s.sim_Qd is not None:
        truth["Qd"] = s.sim_Qd.to_lists()
    if s.sim_Rv is not None:
        truth["Rv"] = s.sim_Rv.to_lists()
    if s.x0_std is not None:
        truth["x0_std"] = s.x0_std
    if truth:
        doc["truth"] = truth
    run_sec = {"N": s.system.N, "seed": s.seed, "controller": s.controller,
               "estimator": s.estimator, "feedback": s.feedback,
               "x0": "sampled" if s.x0 is None else s.x0.tolist()}
    if s.fixed_gain is not None:
        run_sec["fixed_gain"] = s.fixed_gain.tolist()
    if s.luenberger_gain is not None:
        run_sec["luenberger_gain"] = s.luenberger_gain.tolist()
    doc["run"] = run_sec
    return doc


def serialize_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)
