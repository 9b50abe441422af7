import csv
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from lqgkit import load_scenario, run
from lqgkit.cli import _block, _write_table, main

FIG1 = """
system:
  A: [[0.5, 0.0], [-1.0, 1.5]]
  B: [[0.5], [0.1]]
weights:
  Q: [[1.0, 0.0], [0.0, 1.0]]
  R: [[1.0]]
run:
  N: 5
  controller: lqr
  x0: [10.0, 5.0]
"""

FIG4 = """
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
  seed: 11
  controller: steady
  estimator: filter
  feedback: true_state
  x0: sampled
"""


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.scn"
    path.write_text(FIG1)
    return path


@pytest.fixture
def fig4_file(tmp_path):
    path = tmp_path / "fig4.scn"
    path.write_text(FIG4)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


class TestLqrCommand:
    def test_summary_contains_cost(self, fig1_file, tmp_path, capsys):
        assert main(["lqr", str(fig1_file), "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "422.13" in out
        header, rows = read_csv(tmp_path / "fig1_lqr.csv")
        assert header == ["k", "K_1_1", "K_1_2", "Pdiag_1", "Pdiag_2"]
        assert len(rows) == 6
        assert rows[5][1] == ""  # no gain at the terminal index

    def test_steady_flag(self, fig1_file, tmp_path, capsys):
        assert main(["lqr", str(fig1_file), "--steady", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2.73543551756" in out and "-2.74708710351" in out
        header, rows = read_csv(tmp_path / "fig1_lqr_steady.csv")
        assert header == ["K_1_1", "K_1_2", "Pdiag_1", "Pdiag_2",
                          "iterations", "residual", "spectral_radius"]
        assert float(rows[0][6]) < 1.0

    def test_malformed_matrix_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(FIG1.replace("B: [[0.5], [0.1]]", "B: [[0.5], [0.1, 0.9]]"))
        assert main(["lqr", str(bad), "--output", str(tmp_path)]) == 2
        assert "system.B" in capsys.readouterr().err

    def test_missing_weights_exit_2(self, tmp_path, capsys):
        text = FIG1.replace("""weights:
  Q: [[1.0, 0.0], [0.0, 1.0]]
  R: [[1.0]]
""", "").replace("controller: lqr", "controller: none")
        path = tmp_path / "noweights.scn"
        path.write_text(text)
        assert main(["lqr", str(path), "--output", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["lqr", str(tmp_path / "nope.scn")]) == 2

    def test_solver_flags(self, fig1_file, tmp_path, capsys):
        # a loose tolerance converges in fewer iterations; a tiny iteration
        # cap turns non-convergence into a runtime (exit 1) failure
        assert main(["lqr", str(fig1_file), "--steady", "--tol", "1e-4",
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig1_lqr_steady.csv")
        assert int(rows[0][header.index("iterations")]) < 15
        assert main(["lqr", str(fig1_file), "--steady", "--max-iter", "2",
                     "--output", str(tmp_path)]) == 1
        assert "did not converge" in capsys.readouterr().err
        # tol 0 is below fig1's rounding floor: a stall, not 100000 iterations
        assert main(["lqr", str(fig1_file), "--steady", "--tol", "0",
                     "--output", str(tmp_path)]) == 1
        assert "iteration stalled at residual" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "must be a finite float >= 0, got 'nan'"),
        ("--tol", "-1e-10", "must be a finite float >= 0, got '-1e-10'"),
        ("--tol", "abc", "must be a finite float >= 0, got 'abc'"),
        ("--max-iter", "0", "must be a finite int >= 1, got '0'"),
        ("--max-iter", "2.5", "must be a finite int >= 1, got '2.5'"),
    ])
    def test_bad_solver_flag_exit_2(self, fig1_file, tmp_path, capsys, flag, value, message):
        # a nan --tol would otherwise run all --max-iter iterations and exit 1
        with pytest.raises(SystemExit) as excinfo:
            main(["lqr", str(fig1_file), "--steady", f"{flag}={value}", "--output",
                  str(tmp_path)])
        assert excinfo.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestEstimateCommand:
    def test_filter_csv_covariance_settles(self, fig4_file, tmp_path, capsys):
        assert main(["estimate", str(fig4_file), "--mode", "filter",
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig4_filter.csv")
        assert header == ["k", "x_1", "x_2", "xhat_1", "xhat_2", "Pdiag_1", "Pdiag_2",
                          "L_1_1", "L_2_1", "innov_1"]
        # updated covariance stops changing on the converged tail (it climbs
        # toward the steady value from the smaller P0 = I during the transient)
        p2 = np.array([float(v) for v in column(header, rows, "Pdiag_2")])
        assert np.all(np.diff(p2[25:]) <= 1e-9)
        assert rows[0][7] == "" and rows[1][7] != ""  # gains start at k=1

    def test_smooth_csv_ordering(self, fig4_file, tmp_path):
        assert main(["estimate", str(fig4_file), "--mode", "smooth",
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig4_smooth.csv")
        assert header[:7] == ["k", "x_1", "x_2", "xhat_1", "xhat_2", "Pdiag_1", "Pdiag_2"]
        assert "Pfiltdiag_1" in header and "Ls_2_2" in header
        smooth1 = np.array([float(v) for v in column(header, rows, "Pdiag_1")])
        filt1 = np.array([float(v) for v in column(header, rows, "Pfiltdiag_1")])
        assert np.all(smooth1 <= filt1 + 1e-10)

    def test_predict_csv(self, fig4_file, tmp_path):
        assert main(["estimate", str(fig4_file), "--mode", "predict",
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig4_predict.csv")
        assert len(rows) == 51
        assert rows[0][header.index("Pdiag_1")] == "1"  # prior at (0|-1)
        assert rows[50][header.index("L_1_1")] == ""  # no gain at k=N

    def test_seed_repeatability(self, fig4_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["estimate", str(fig4_file), "--mode", "filter",
                         "--seed", "99", "--output", str(out)]) == 0
        assert (out_a / "fig4_filter.csv").read_bytes() == \
            (out_b / "fig4_filter.csv").read_bytes()

    def test_mode_incompatible_exit_2(self, fig1_file, tmp_path, capsys):
        assert main(["estimate", str(fig1_file), "--mode", "filter",
                     "--output", str(tmp_path)]) == 2
        assert "measurement" in capsys.readouterr().err


class TestSimulateCommand:
    def test_run_csv(self, fig4_file, tmp_path, capsys):
        assert main(["simulate", str(fig4_file), "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig4_run.csv")
        assert header == ["k", "x_1", "x_2", "u_1", "y_1", "xhat_1", "xhat_2",
                          "Pdiag_1", "Pdiag_2"]
        assert len(rows) == 51
        assert rows[0][4] == ""  # filter convention: first measurement at k=1
        assert "cost" in capsys.readouterr().out

    def test_settling_summary(self, fig1_file, tmp_path, capsys):
        assert main(["simulate", str(fig1_file), "--output", str(tmp_path)]) == 0
        assert "settling" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["simulate"], ["estimate", "--mode", "filter"],
                                         ["validate"]])
    def test_negative_seed_exit_2(self, fig4_file, tmp_path, capsys, command):
        argv = [command[0], str(fig4_file), *command[1:], "--seed", "-5", "--output",
                str(tmp_path)]
        assert main(argv) == 2
        assert "seed must be non-negative, got -5" in capsys.readouterr().err


class TestSweepCommand:
    def test_horizon_sweep(self, fig1_file, tmp_path, capsys):
        assert main(["sweep", str(fig1_file), "--axis", "N", "--values", "5,50",
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig1_sweep_N.csv")
        assert header == ["value", "cost", "k_x", "k_K", "terminal_covariance_trace"]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(422.13, abs=0.01)
        assert float(rows[1][1]) == pytest.approx(433.25, abs=0.01)

    @pytest.mark.parametrize("axis, value", [("seed", "1.5"), ("N", "5.7")])
    def test_non_integral_value_exit_2(self, fig4_file, tmp_path, capsys, axis, value):
        assert main(["sweep", str(fig4_file), "--axis", axis, "--values", value,
                     "--output", str(tmp_path)]) == 2
        assert f"{axis} sweep value '{value}' is not an integer" in capsys.readouterr().err

    def test_seed_parsed_exactly(self, fig4_file, tmp_path, capsys):
        # 2**53 + 1 read as a float would run seed 2**53
        seed = 2**53 + 1
        assert main(["sweep", str(fig4_file), "--axis", "seed", "--values", str(seed),
                     "--output", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fig4_sweep_seed.csv")
        expected = run(replace(load_scenario(fig4_file), seed=seed)).cost
        assert rows[0][1] == f"{expected:.12g}"
        # the value column keeps the 12-digit float rendering; stdout names the seed
        assert rows[0][0] == "9.00719925474e+15"
        assert "seed=9007199254740993: cost=" in capsys.readouterr().out

    @pytest.mark.parametrize("axis, values, names", [
        ("seed", "20260811,20260812,20260813",
         ["seed=20260811", "seed=20260812", "seed=20260813"]),
        ("R-scale", "1.23456789", ["R-scale=1.23456789"]),
    ])
    def test_stdout_names_each_value(self, fig4_file, tmp_path, capsys, axis, values, names):
        assert main(["sweep", str(fig4_file), "--axis", axis, "--values", values,
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(": cost=")[0] for line in out[:-1]] == names

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_horizon_exit_2(self, fig1_file, tmp_path, capsys, value):
        assert main(["sweep", str(fig1_file), "--axis", "N", f"--values={value}",
                     "--output", str(tmp_path)]) == 2
        assert f"horizon N must be positive, got {value}" in capsys.readouterr().err

    def test_horizon_sweep_over_time_varying_schedule_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ltv.scn"
        R = "[[[1.0]], [[2.0]], [[1.0]], [[2.0]], [[1.0]]]"      # N = 5 entries
        path.write_text(FIG1.replace("R: [[1.0]]", f"R: {R}"))
        assert main(["sweep", str(path), "--axis", "N", "--values", "5",
                     "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "N sweep requires constant schedules, but R is time-varying" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_seed_value_exit_2(self, fig4_file, tmp_path, capsys):
        assert main(["sweep", str(fig4_file), "--axis", "seed", "--values=3,-1",
                     "--output", str(tmp_path)]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err


class TestReproduceCommand:
    def test_fig1_table(self, tmp_path, capsys):
        assert main(["reproduce", "fig1", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "422.13" in out and "432.17" in out
        for name in ("fig1_n5_optimal.csv", "fig1_n5_steady.csv",
                     "fig1_n50_optimal.csv", "fig1_n50_steady.csv"):
            assert (tmp_path / name).exists()
        header, _ = read_csv(tmp_path / "fig1_n50_optimal.csv")
        assert header == ["k", "x_1", "x_2", "u_1", "K_1_1", "K_1_2",
                          "Pdiag_1", "Pdiag_2"]

    def test_fig4_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "fig4", "--output", str(out_a)]) == 0
        assert main(["reproduce", "fig4", "--output", str(out_b)]) == 0
        for name in ("fig4_predictor.csv", "fig4_filter.csv", "fig4_smoother.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_fig4_seed_flag(self, tmp_path, capsys):
        # the flag reaches the runs and the summary line, as --seed does for `estimate`
        scn = resources.files("lqgkit") / "scenarios" / "fig4.scn"
        assert main(["reproduce", "fig4", "--seed", "3", "--output", str(tmp_path / "a")]) == 0
        assert "\nseed 3; covariance ordering" in capsys.readouterr().out
        assert main(["estimate", str(scn), "--mode", "filter", "--seed", "3",
                     "--output", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "fig4_filter.csv").read_bytes() == \
            (tmp_path / "b" / "fig4_filter.csv").read_bytes()

    @pytest.mark.parametrize("figure", ["fig1", "fig4"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, figure):
        assert main(["reproduce", figure, "--seed", "-5", "--output", str(tmp_path)]) == 2
        assert "seed must be non-negative, got -5" in capsys.readouterr().err

    def test_unknown_figure_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "fig9"])
        assert excinfo.value.code == 2
        assert "fig1" in capsys.readouterr().err


class TestValidateCommand:
    def test_clean(self, fig1_file, capsys):
        assert main(["validate", str(fig1_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_violations_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(FIG1.replace("R: [[1.0]]", "R: [[0.0]]"))
        assert main(["validate", str(path)]) == 2
        assert "positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("field, old, new", [
        ("A", "A: [[0.5, 0.0], [-1.0, 1.5]]", "A: [[0.5, 0.0], [-1.0, .nan]]"),
        ("sim_Qd", "Qd: [[0.0625, 0.0], [0.0, 0.0625]]", "Qd: [[0.0625, 0.0], [0.0, .inf]]"),
    ])
    def test_non_finite_field_exit_2(self, command, field, old, new, tmp_path, capsys):
        path = tmp_path / "nan.scn"
        assert old in FIG4
        path.write_text(FIG4.replace(old, new))
        assert main([command, str(path), "--output", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert f"{field} has non-finite entries" in captured.err
        assert "valid" not in captured.out and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", [["validate"], ["simulate"], ["lqr", "--steady"]])
    def test_unstabilizable_pair_exit_2(self, command, tmp_path, capsys):
        # the unstable mode 1.5 is unreachable: the steady iteration would diverge
        path = tmp_path / "unstab.scn"
        path.write_text(FIG1.replace("A: [[0.5, 0.0], [-1.0, 1.5]]", "A: [[0.5, 0.0], [0.0, 1.5]]")
                        .replace("B: [[0.5], [0.1]]", "B: [[0.5], [0.0]]")
                        .replace("controller: lqr", "controller: steady"))
        assert main(command + [str(path), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "(A, B) is not stabilizable" in err and "1.5" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("old, new, line", [
        ("controller: steady", "controller: fixed\n  fixed_gain: [[2.0], [-2.0]]",
         "fixed_gain has shape (2, 1), expected (1, 2)"),
        ("estimator: filter", "estimator: luenberger\n  luenberger_gain: [[0.0, 2.5]]",
         "luenberger_gain has shape (1, 2), expected (2, 1)"),
    ])
    def test_wrongly_shaped_gain_exit_2(self, command, old, new, line, tmp_path, capsys):
        path = tmp_path / "gain.scn"
        assert old in FIG4
        path.write_text(FIG4.replace(old, new))
        assert main([command, str(path), "--output", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert line in captured.err
        assert "valid" not in captured.out and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", [["validate"], ["simulate"],
                                         ["sweep", "--axis", "seed", "--values", "1,2"]])
    @pytest.mark.parametrize("old, new, lines", [
        # cholesky reads only the lower triangle, so this draw ignored the 5.0
        ("Qd: [[0.0625, 0.0], [0.0, 0.0625]]", "Qd: [[0.0625, 5.0], [0.0, 0.0625]]",
         ["sim_Qd is not symmetric"]),
        ("Qd: [[0.0625, 0.0], [0.0, 0.0625]]", "Qd: [[-0.0625, 0.0], [0.0, 0.0625]]",
         ["sim_Qd is not positive semidefinite (tol 1e-09)"]),
        ("Rv: [[0.0625]]", "Rv: [[-0.0625]]",
         ["sim_Rv is not positive semidefinite (tol 1e-09)"]),
        ("x0_std: 2.5", "x0_std: [1, 2]", ["truth.x0_std: must be a number, got [1, 2]"]),
        ("x0_std: 2.5", "x0_std: abc", ["truth.x0_std: must be a number, got 'abc'"]),
        ("x0_std: 2.5", "x0_std: true", ["truth.x0_std: must be a number, got True"]),
        ("x0_std: 2.5", "x0_std: -2.5", ["x0_std must be non-negative, got -2.5"]),
    ])
    def test_bad_truth_exit_2(self, command, old, new, lines, tmp_path, capsys):
        path = tmp_path / "truth.scn"
        assert old in FIG4
        path.write_text(FIG4.replace(old, new))
        argv = [command[0], str(path), *command[1:], "--output", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert all(line in captured.err for line in lines)
        assert "valid" not in captured.out and not list(tmp_path.glob("*.csv"))

    def test_schedule_entries_indexed(self, tmp_path, capsys):
        path = tmp_path / "ltv.scn"
        bad = "[[1.0, 3.0], [0.0, 1.0]]"
        path.write_text(FIG4.replace("N: 50", "N: 3").replace(
            "Qd: [[1.0, 0.0], [0.0, 1.0]]", f"Qd: [{bad}, {bad}, [[1.0, 0.0], [0.0, 1.0]]]"))
        assert main(["validate", str(path)]) == 2
        psd = "is not positive semidefinite (tol 1e-09)"
        assert capsys.readouterr().err.splitlines() == [
            "violation: Qd[0] is not symmetric", f"violation: Qd[0] {psd}",
            "violation: Qd[1] is not symmetric", f"violation: Qd[1] {psd}"]

    def test_noise_free_truth_sensor_valid(self, tmp_path, capsys):
        path = tmp_path / "exact.scn"
        path.write_text(FIG4.replace("Rv: [[0.0625]]", "Rv: [[0.0]]"))
        assert main(["validate", str(path)]) == 0
        assert "scenario is valid" in capsys.readouterr().out

    def test_overflowing_rank_one_weight_valid(self, tmp_path, capsys):
        # Q + Q^T overflows; the weight is still positive semidefinite
        path = tmp_path / "huge.scn"
        path.write_text(FIG1.replace("Q: [[1.0, 0.0], [0.0, 1.0]]",
                                     "Q: [[1.5e308, 1.5e308], [1.5e308, 1.5e308]]"))
        assert main(["validate", str(path)]) == 0
        assert "scenario is valid" in capsys.readouterr().out

    def test_configuration_violations_reported(self, tmp_path, capsys):
        path = tmp_path / "nonoise.scn"
        path.write_text(FIG1.replace("controller: lqr", "controller: lqr\n  estimator: filter"))
        assert main(["validate", str(path)]) == 2
        assert "requires a noise model" in capsys.readouterr().err


class TestCsvFormat:
    def test_column_blocks_fill_their_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, [_block("k", np.arange(3)), _block("y", [[1.5], [2.5]], first=1),
                            _block("K", np.arange(4.0).reshape(1, 2, 2))])
        header, rows = read_csv(path)
        assert header == ["k", "y_1", "K_1_1", "K_1_2", "K_2_1", "K_2_2"]
        assert rows == [["0", "", "0", "1", "2", "3"],
                        ["1", "1.5", "", "", "", ""],
                        ["2", "2.5", "", "", "", ""]]

    def test_twelve_significant_digits(self, fig1_file, tmp_path):
        assert main(["lqr", str(fig1_file), "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig1_lqr.csv")
        cell = rows[0][header.index("K_1_1")]
        assert cell == f"{float(cell):.12g}"
        assert "," not in cell and cell.count(".") <= 1

    def test_crlf_line_endings(self, fig1_file, tmp_path):
        assert main(["lqr", str(fig1_file), "--output", str(tmp_path)]) == 0
        raw = (tmp_path / "fig1_lqr.csv").read_bytes()
        assert b"\r\n" in raw
