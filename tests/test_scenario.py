import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from importlib import resources

from lqgkit import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)
from lqgkit.harness import CAUSAL_ESTIMATORS, CONTROLLERS, ESTIMATORS, FEEDBACK

MINIMAL = """
system:
  A: [[0.5, 0.0], [-1.0, 1.5]]
  B: [[0.5], [0.1]]
run:
  N: 5
  controller: none
  x0: [10.0, 5.0]
"""

FULL = """
system:
  A: [[0.5, 0.0], [-1.0, 1.5]]
  B: [[0.5], [0.1]]
  C: [[1.0, 0.5]]
weights:
  Q: [[1.0, 0.0], [0.0, 1.0]]
  R: [[1.0]]
noise:
  Qd: [[1.0, 0.0], [0.0, 1.0]]
  Rv: [[1.0]]
  P0: [[1.0, 0.0], [0.0, 1.0]]
  x0_mean: [10.0, 5.0]
truth:
  Qd: [[0.0625, 0.0], [0.0, 0.0625]]
  Rv: [[0.0625]]
  x0_std: 2.5
run:
  N: 50
  seed: 7
  controller: fixed
  fixed_gain: [[2.73, -2.75]]
  estimator: filter
  feedback: true_state
  x0: sampled
"""

# every section of a scenario file and its keys, in the order parsing reads them
SECTION_KEYS = {
    "scenario": ("system", "weights", "noise", "truth", "run"),
    "run": ("N", "seed", "controller", "fixed_gain", "estimator", "luenberger_gain",
            "feedback", "x0"),
    "system": ("A", "B", "C"),
    "weights": ("Q", "R"),
    "noise": ("Qd", "Rv", "P0", "x0_mean"),
    "truth": ("Qd", "Rv", "x0_std"),
}


def bundled(name):
    return (resources.files("lqgkit") / "scenarios" / name).read_text(encoding="utf-8")


class TestParse:
    def test_minimal(self):
        s = parse_scenario(MINIMAL)
        assert s.system.N == 5 and s.system.n == 2 and s.system.m == 1 and s.system.p == 0
        assert s.controller == "none" and s.estimator == "none"
        np.testing.assert_array_equal(s.x0, [10.0, 5.0])
        assert s.seed == 0

    def test_full(self):
        s = parse_scenario(FULL)
        assert s.system.p == 1
        assert s.weights is not None and s.noise is not None
        assert s.x0 is None and s.x0_std == 2.5
        np.testing.assert_allclose(s.sim_Qd[0], 0.0625 * np.eye(2))
        np.testing.assert_allclose(s.fixed_gain, [[2.73, -2.75]])
        assert s.seed == 7

    def test_bundled_scenarios_parse(self):
        fig1 = parse_scenario(bundled("fig1.scn"))
        assert fig1.controller == "lqr" and fig1.system.N == 5
        fig4 = parse_scenario(bundled("fig4.scn"))
        assert fig4.estimator == "filter" and fig4.system.N == 50
        assert fig4.x0 is None and fig4.x0_std == 2.5
        assert fig4.feedback == "true_state"

    def test_ltv_schedule(self):
        text = MINIMAL.replace(
            "A: [[0.5, 0.0], [-1.0, 1.5]]",
            "A: [[[0.5, 0.0], [-1.0, 1.5]], [[0.5, 0.0], [-1.0, 1.5]],"
            " [[0.5, 0.0], [-1.0, 1.5]], [[0.5, 0.0], [-1.0, 1.5]], [[0.5, 0.0], [-1.0, 1.5]]]")
        s = parse_scenario(text)
        assert not s.system.A.is_constant
        np.testing.assert_allclose(s.system.A[3], [[0.5, 0.0], [-1.0, 1.5]])

    def test_schedule_length_mismatch(self):
        text = MINIMAL.replace(
            "A: [[0.5, 0.0], [-1.0, 1.5]]",
            "A: [[[0.5, 0.0], [-1.0, 1.5]], [[0.5, 0.0], [-1.0, 1.5]]]")
        with pytest.raises(ScenarioError, match="system.A"):
            parse_scenario(text)

    def test_lqg_feedback_default(self):
        text = FULL.replace("  feedback: true_state\n", "")
        assert parse_scenario(text).feedback == "estimate"
        text2 = text.replace("estimator: filter", "estimator: none")
        assert parse_scenario(text2).feedback == "true_state"

    def test_feedback_default_follows_causal_estimators(self):
        text = FULL.replace("  feedback: true_state\n", "")
        for estimator in ESTIMATORS:
            scenario = parse_scenario(text.replace("estimator: filter", f"estimator: {estimator}"))
            expected = "estimate" if estimator in CAUSAL_ESTIMATORS else "true_state"
            assert scenario.feedback == expected, estimator


class TestDiagnostics:
    def test_malformed_matrix_names_field(self):
        text = MINIMAL.replace("B: [[0.5], [0.1]]", "B: [[0.5], [0.1, 0.2]]")
        with pytest.raises(ScenarioError, match="system.B"):
            parse_scenario(text)

    def test_non_numeric_matrix(self):
        text = MINIMAL.replace("[[0.5], [0.1]]", "[[0.5], [oops]]")
        with pytest.raises(ScenarioError, match="system.B"):
            parse_scenario(text)

    def test_missing_run_section(self):
        with pytest.raises(ScenarioError, match="run"):
            parse_scenario("system:\n  A: [[1.0]]\n  B: [[1.0]]\n")

    def test_bad_horizon(self):
        with pytest.raises(ScenarioError, match="run.N"):
            parse_scenario(MINIMAL.replace("N: 5", "N: 0"))

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match="run.controler"):
            parse_scenario(MINIMAL.replace("controller:", "controler:"))

    def test_unknown_controller_value(self):
        with pytest.raises(ScenarioError, match="run.controller"):
            parse_scenario(MINIMAL.replace("controller: none", "controller: pid"))

    def test_missing_x0(self):
        with pytest.raises(ScenarioError, match="run.x0"):
            parse_scenario(MINIMAL.replace("  x0: [10.0, 5.0]\n", ""))

    def test_yaml_error_carries_line(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("system:\n  A: [[1.0]\n")

    def test_rv_required_with_outputs(self):
        text = FULL.replace("  Rv: [[1.0]]\n", "", 1)
        with pytest.raises(ScenarioError, match="noise.Rv"):
            parse_scenario(text)

    @pytest.mark.parametrize("section, key, value, message", [
        ("system", "A", None, "system.A: matrix is required"),
        ("system", "B", None, "system.B: matrix is required"),
        ("weights", "R", None, "weights: both Q and R are required"),
        ("noise", "Qd", None, "noise.Qd: field is required"),
        ("run", "estimator", "kalman",
         f"run.estimator: must be one of {', '.join(ESTIMATORS)}, got 'kalman'"),
        ("run", "feedback", "both",
         f"run.feedback: must be one of {', '.join(FEEDBACK)}, got 'both'"),
        ("run", "x0", "origin", "run.x0: expected a vector or 'sampled', got 'origin'"),
        ("run", "seed", 1.5, "run.seed: must be an integer, got 1.5"),
        ("noise", "P0", [[[1.0, 0.0], [0.0, 1.0]]],
         "noise.P0: expected a matrix, got a 3-dimensional array"),
        ("noise", "x0_mean", ["ten", 5.0], "noise.x0_mean: entries are not numeric"),
        ("run", "x0", [[10.0, 5.0]], "run.x0: expected a flat vector, got shape (1, 2)"),
    ], ids=["no-A", "no-B", "no-R", "no-Qd", "estimator", "feedback", "x0-text", "seed-float",
            "3-D-matrix", "non-numeric-vector", "non-flat-vector"])
    def test_field_rejected_and_named(self, section, key, value, message):
        # a None value removes the key; any other replaces its value
        doc = yaml.safe_load(FULL)
        if value is None:
            del doc[section][key]
        else:
            doc[section][key] = value
        with pytest.raises(ScenarioError) as info:
            parse_scenario(yaml.safe_dump(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("section", SECTION_KEYS)
    def test_section_must_be_a_mapping(self, section):
        doc = yaml.safe_load(FULL)
        if section == "scenario":
            doc = [doc]
        else:
            doc[section] = [1.0]
        with pytest.raises(ScenarioError) as info:
            parse_scenario(yaml.safe_dump(doc))
        assert str(info.value) == f"{section}: expected a mapping of keys, got list"

    @pytest.mark.parametrize("section", SECTION_KEYS)
    def test_unknown_key_in_each_section(self, section):
        doc = yaml.safe_load(FULL)
        (doc if section == "scenario" else doc[section])["extra"] = 1
        with pytest.raises(ScenarioError) as info:
            parse_scenario(yaml.safe_dump(doc))
        assert str(info.value) == \
            f"{section}.extra: unknown key (allowed: {', '.join(SECTION_KEYS[section])})"

    def test_sections_are_checked_in_reading_order(self):
        # with an unknown key in every section, each fix reveals the next section's
        doc = yaml.safe_load(FULL)
        for section in SECTION_KEYS:
            (doc if section == "scenario" else doc[section])["extra"] = 1
        for section in SECTION_KEYS:
            with pytest.raises(ScenarioError, match=rf"^{section}\.extra: unknown key"):
                parse_scenario(yaml.safe_dump(doc))
            del (doc if section == "scenario" else doc[section])["extra"]
        parse_scenario(yaml.safe_dump(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL], ids=["minimal", "full"])
    def test_serialize_parse_identity(self, text):
        first = parse_scenario(text)
        second = parse_scenario(serialize_scenario(first))
        assert scenario_to_dict(first) == scenario_to_dict(second)

    def test_bundled_round_trip(self):
        for name in ("fig1.scn", "fig4.scn"):
            first = parse_scenario(bundled(name))
            second = parse_scenario(serialize_scenario(first))
            assert scenario_to_dict(first) == scenario_to_dict(second)

    def test_ltv_schedule_round_trip(self):
        text = MINIMAL.replace(
            "B: [[0.5], [0.1]]",
            "B: [[[0.5], [0.1]], [[0.6], [0.1]], [[0.7], [0.1]], [[0.8], [0.1]], [[0.9], [0.1]]]")
        first = parse_scenario(text)
        second = parse_scenario(serialize_scenario(first))
        assert scenario_to_dict(first) == scenario_to_dict(second)
        assert not second.system.B.is_constant


@st.composite
def scenarios(draw):
    """Any scenario the file format can hold: constant or per-step schedules,
    optional weights, noise and truth, a given or sampled x0, finite entries
    and seeds up to 2**63.  Entries and selectors need not make a valid run."""
    N, n, m, p = (draw(st.integers(1, hi)) for hi in (4, 3, 2, 2))
    p = draw(st.sampled_from([0, p]))

    def matrix(rows, cols):
        entries = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=rows * cols, max_size=rows * cols))
        return np.array(entries).reshape(rows, cols)

    def schedule(rows, cols, length):
        if draw(st.booleans()):
            return MatrixSchedule.constant(matrix(rows, cols), length)
        return MatrixSchedule.of([matrix(rows, cols) for _ in range(length)])

    def maybe(make):
        return make() if draw(st.booleans()) else None

    system = LtvSystem(n=n, m=m, p=p, N=N, A=schedule(n, n, N), B=schedule(n, m, N),
                       C=schedule(p, n, N) if p else None)
    weights = maybe(lambda: LqrWeights(Q=schedule(n, n, N + 1), R=schedule(m, m, N)))
    noise = maybe(lambda: NoiseModel(
        Qd=schedule(n, n, N),
        Rv=schedule(p, p, N) if p else MatrixSchedule.constant(np.zeros((0, 0)), N),
        x0_mean=matrix(1, n)[0], P0=matrix(n, n)))
    return Scenario(
        system=system, weights=weights, noise=noise,
        controller=draw(st.sampled_from(CONTROLLERS)), fixed_gain=maybe(lambda: matrix(m, n)),
        estimator=draw(st.sampled_from(ESTIMATORS)),
        luenberger_gain=maybe(lambda: matrix(n, p)) if p else None,
        feedback=draw(st.sampled_from(FEEDBACK)), x0=maybe(lambda: matrix(1, n)[0]),
        x0_std=maybe(lambda: draw(st.floats(allow_nan=False, allow_infinity=False))),
        sim_Qd=maybe(lambda: schedule(n, n, N)),
        sim_Rv=maybe(lambda: schedule(p, p, N)) if p else None,
        seed=draw(st.integers(0, 2**63)))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_serialized_scenario_parses_back(scenario):
    assert scenario_to_dict(parse_scenario(serialize_scenario(scenario))) == \
        scenario_to_dict(scenario)
