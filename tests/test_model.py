import numpy as np
import pytest

from conftest import A_BENCH, B_BENCH, bench_noise, bench_system, bench_weights
from lqgkit import (
    LqrWeights,
    LtvSystem,
    MatrixSchedule,
    NoiseModel,
    validate,
)


class TestMatrixSchedule:
    def test_constant_broadcast(self):
        sched = MatrixSchedule.constant(np.eye(2), 10)
        assert len(sched) == 10
        for k in range(10):
            np.testing.assert_array_equal(sched[k], np.eye(2))

    def test_bounds(self):
        sched = MatrixSchedule.constant(np.eye(2), 3)
        with pytest.raises(IndexError):
            sched[3]
        with pytest.raises(IndexError):
            sched[-1]

    def test_explicit_entries(self):
        mats = [np.eye(2) * k for k in range(4)]
        sched = MatrixSchedule.of(mats)
        assert len(sched) == 4 and not sched.is_constant
        np.testing.assert_array_equal(sched[2], 2 * np.eye(2))

    def test_entries_immutable(self):
        sched = MatrixSchedule.constant(np.eye(2), 2)
        with pytest.raises(ValueError):
            sched[0][0, 0] = 5.0

    def test_rehorizon_constant_only(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        longer = MatrixSchedule.constant(M, 3).with_length(7)
        assert len(longer) == 7 and longer.is_constant
        np.testing.assert_array_equal(longer.distinct(), [M])
        with pytest.raises(ValueError):
            MatrixSchedule.of([np.eye(2), np.eye(2)]).with_length(7)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="all schedule entries must share one shape"):
            MatrixSchedule.of([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixSchedule.of([])

    def test_stack_and_distinct(self):
        mats = [np.arange(6.0).reshape(2, 3) + k for k in range(4)]
        explicit = MatrixSchedule.of(mats)
        assert explicit.distinct().shape == explicit.stack.shape == (4, 2, 3)
        np.testing.assert_array_equal(explicit.stack, mats)
        constant = MatrixSchedule.constant(mats[1], 5)
        assert constant.distinct().shape == (1, 2, 3) and constant.stack.shape == (5, 2, 3)
        np.testing.assert_array_equal(constant.stack, [mats[1]] * 5)
        np.testing.assert_array_equal(list(constant), [mats[1]] * 5)

    def test_constant_stack_is_a_view_of_its_entry(self):
        sched = MatrixSchedule.constant(np.eye(2), 1000)
        assert sched.stack.strides[0] == 0
        assert np.shares_memory(sched.stack, sched.distinct())

    def test_arrays_read_only_and_owned(self):
        source = np.eye(2)
        for sched in (MatrixSchedule.constant(source, 3), MatrixSchedule.of([source] * 3)):
            for view in (sched.stack, sched.distinct()):
                with pytest.raises(ValueError):
                    view[0, 0, 0] = 5.0
            source[0, 0] = 5.0
            np.testing.assert_array_equal(sched[2], np.eye(2))
            source[0, 0] = 1.0

    def test_empty_matrix_constant(self):
        # Rv when the system has no outputs (p = 0)
        sched = MatrixSchedule.constant(np.zeros((0, 0)), 4)
        assert len(sched) == 4 and sched.shape == (0, 0) and sched.is_constant
        assert sched.distinct().shape == (1, 0, 0) and sched.stack.shape == (4, 0, 0)
        assert sched[3].shape == (0, 0) and sched.to_lists() == []


class TestValidate:
    def test_benchmark_system_clean(self):
        report = validate(bench_system(50), bench_weights(50))
        assert report == []

    def test_zero_r_flagged(self):
        weights = LqrWeights.constant(np.eye(2), 0.0, horizon=5)
        report = validate(bench_system(5), weights)
        assert any("R is not positive definite" in line for line in report)

    def test_dimension_violation_flagged(self):
        bad = LtvSystem(n=2, m=1, p=0, N=5,
                        A=MatrixSchedule.constant(A_BENCH, 5),
                        B=MatrixSchedule.constant(np.ones((2, 2)), 5))
        report = validate(bad)
        assert any("B entries have shape" in line for line in report)

    def test_indefinite_q_flagged(self):
        weights = LqrWeights.constant(np.diag([1.0, -1.0]), 1.0, horizon=5)
        report = validate(bench_system(5), weights)
        assert any("Q is not positive semidefinite" in line for line in report)

    def test_noise_checks(self):
        noise = NoiseModel.constant(np.eye(2), 0.0, [1.0, 2.0], np.eye(2), horizon=4)
        report = validate(bench_system(4, with_output=True), noise=noise)
        assert any("Rv is not positive definite" in line for line in report)

    def test_asymmetric_p0_flagged(self):
        noise = bench_noise(4, P0=np.array([[1.0, 0.5], [0.0, 1.0]]))
        report = validate(bench_system(4, with_output=True), noise=noise)
        assert any("P0 is not symmetric" in line for line in report)

    def test_wrong_weight_lengths_flagged(self):
        weights = LqrWeights(Q=MatrixSchedule.constant(np.eye(2), 5),
                             R=MatrixSchedule.constant(np.eye(1), 5))
        report = validate(bench_system(5), weights)
        assert any("Q has length 5, expected 6" in line for line in report)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_named(self, bad):
        A = A_BENCH.copy()
        A[1, 1] = bad
        system = LtvSystem.lti(A, B_BENCH, [[1.0, 0.5]], horizon=4)
        Q = np.eye(2)
        Q[0, 0] = bad
        noise = bench_noise(4, P0=np.diag([1.0, bad]))
        report = validate(system, LqrWeights.constant(Q, 1.0, horizon=4), noise)
        assert report == ["A has non-finite entries (nan or inf)",
                          "Q has non-finite entries (nan or inf)",
                          "P0 has non-finite entries (nan or inf)"]

    def test_non_finite_schedule_entry_indexed(self):
        Qd = [np.eye(2)] * 4
        Qd[2] = np.full((2, 2), np.nan)
        noise = NoiseModel(Qd=MatrixSchedule.of(Qd), Rv=MatrixSchedule.constant(np.eye(1), 4),
                           x0_mean=[np.inf, 0.0], P0=np.eye(2))
        report = validate(bench_system(4, with_output=True), noise=noise)
        assert report == ["Qd[2] has non-finite entries (nan or inf)",
                          "x0_mean has non-finite entries (nan or inf)"]
