import math

import numpy as np
import pytest

from lqgkit import (
    GaussianStream,
    GaussianVector,
    JointGaussian,
    condition,
    gaussian_pdf,
    multivariate_gaussian_pdf,
    sample_gaussian,
)


def random_joint(rng, n=2, p=2):
    """Random full-rank joint Gaussian over (x, y)."""
    M = rng.standard_normal((n + p, n + p))
    cov = M @ M.T + 0.5 * np.eye(n + p)
    mean = rng.standard_normal(n + p)
    return JointGaussian(
        mean_x=mean[:n], mean_y=mean[n:],
        cov_xx=cov[:n, :n], cov_xy=cov[:n, n:], cov_yy=cov[n:, n:],
    )


@pytest.mark.parametrize("call, message", [
    (lambda: GaussianStream(0).standard_normal(-1), "count must be nonnegative"),
    (lambda: multivariate_gaussian_pdf(np.zeros(3), GaussianVector(np.zeros(2), np.eye(2))),
     "x has shape (3,), expected (2,)"),
    (lambda: condition(JointGaussian([0.0], [0.0], [[1.0]], [[0.5]], [[1.0]]), [1.0, 2.0]),
     "y_obs has shape (2,), expected (1,)"),
], ids=["count", "pdf-x", "condition-y_obs"])
def test_malformed_argument_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestGaussianPdf:
    def test_peak_value(self):
        for var in (0.3, 1.0, 7.5):
            assert gaussian_pdf(2.0, 2.0, var) == pytest.approx(1.0 / math.sqrt(2 * math.pi * var))

    def test_one_standard_deviation(self):
        for var in (0.5, 1.0, 4.0):
            expected = 1.0 / math.sqrt(2 * math.pi * math.e * var)
            assert gaussian_pdf(1.0 + math.sqrt(var), 1.0, var) == pytest.approx(expected)
            assert gaussian_pdf(1.0 - math.sqrt(var), 1.0, var) == pytest.approx(expected)

    def test_standard_normal_peak(self):
        assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, -1.0)

    def test_integrates_to_one(self):
        # trapezoidal quadrature over +-8 standard deviations
        for mean, var in ((0.0, 1.0), (3.0, 0.2), (-1.5, 9.0)):
            sd = math.sqrt(var)
            xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 20001)
            ys = np.array([gaussian_pdf(x, mean, var) for x in xs])
            # np.trapezoid's sum, written out: numpy 1.24 names it np.trapz
            area = (np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum()
            assert area == pytest.approx(1.0, abs=1e-6)


class TestMultivariatePdf:
    def test_reduces_to_scalar(self, rng):
        for _ in range(20):
            mean, var, x = rng.standard_normal(), rng.uniform(0.1, 4.0), rng.standard_normal()
            g = GaussianVector(mean=[mean], cov=[[var]])
            assert multivariate_gaussian_pdf([x], g) == pytest.approx(gaussian_pdf(x, mean, var))

    def test_identity_covariance_peak(self):
        for n in (1, 2, 5):
            g = GaussianVector(mean=np.zeros(n), cov=np.eye(n))
            assert multivariate_gaussian_pdf(np.zeros(n), g) == pytest.approx(
                (2 * math.pi) ** (-n / 2))

    def test_diagonal_factorizes(self, rng):
        # independence: diagonal covariance density is the product of marginals
        for _ in range(20):
            n = rng.integers(2, 5)
            variances = rng.uniform(0.2, 3.0, n)
            mean = rng.standard_normal(n)
            x = rng.standard_normal(n)
            g = GaussianVector(mean=mean, cov=np.diag(variances))
            product = np.prod([gaussian_pdf(x[i], mean[i], variances[i]) for i in range(n)])
            assert multivariate_gaussian_pdf(x, g) == pytest.approx(product, rel=1e-12)

    def test_singular_covariance_rejected(self):
        g = GaussianVector(mean=np.zeros(2), cov=np.zeros((2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            multivariate_gaussian_pdf(np.zeros(2), g)


class TestCondition:
    def test_independent_blocks_leave_prior(self, rng):
        joint = random_joint(rng)
        joint = JointGaussian(joint.mean_x, joint.mean_y, joint.cov_xx,
                              np.zeros_like(joint.cov_xy), joint.cov_yy)
        posterior = condition(joint, rng.standard_normal(2))
        np.testing.assert_allclose(posterior.mean, joint.mean_x)
        np.testing.assert_allclose(posterior.cov, joint.cov_xx)

    def test_perfect_observation(self):
        # x and y are the same variable: conditioning pins x at y_obs
        cov = np.array([[2.0]])
        joint = JointGaussian([1.0], [1.0], cov, cov, cov)
        posterior = condition(joint, [3.25])
        np.testing.assert_allclose(posterior.mean, [3.25])
        np.testing.assert_allclose(posterior.cov, [[0.0]], atol=1e-12)

    def test_monte_carlo_2d(self):
        # correlation 0.5 joint; empirical conditional moments from 1e5 samples
        rho = 0.5
        joint = JointGaussian([0.0], [0.0], [[1.0]], [[rho]], [[1.0]])
        y_obs = 0.8
        gen = np.random.default_rng(42)
        samples = gen.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=100_000)
        mask = np.abs(samples[:, 1] - y_obs) < 0.05
        xs = samples[mask, 0]
        posterior = condition(joint, [y_obs])
        se_mean = xs.std(ddof=1) / math.sqrt(xs.size)
        assert abs(xs.mean() - posterior.mean[0]) < 3 * se_mean
        se_var = xs.var(ddof=1) * math.sqrt(2.0 / (xs.size - 1))
        assert abs(xs.var(ddof=1) - posterior.cov[0, 0]) < 3 * se_var + 1e-3

    def test_decorrelation_identity(self, rng):
        # z = x - L y with L = V(x,y) V(y)^-1 has V(z, y) = 0
        for _ in range(30):
            joint = random_joint(rng, n=rng.integers(1, 4), p=rng.integers(1, 4))
            L = joint.cov_xy @ np.linalg.inv(joint.cov_yy)
            V_zy = joint.cov_xy - L @ joint.cov_yy
            assert np.max(np.abs(V_zy)) < 1e-12

    def test_singular_cov_yy_rejected(self):
        joint = JointGaussian([0.0], [0.0], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            condition(joint, [1.0])


class TestSampleGaussian:
    def test_degenerate_covariance(self):
        g = GaussianVector(mean=[1.0, -2.0], cov=np.zeros((2, 2)))
        out = sample_gaussian(g, GaussianStream(3), count=5)
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (5, 1)))

    def test_seed_reproducibility(self):
        g = GaussianVector(mean=np.zeros(3), cov=np.diag([1.0, 2.0, 3.0]))
        a = sample_gaussian(g, GaussianStream(99), count=4)
        b = sample_gaussian(g, GaussianStream(99), count=4)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        g = GaussianVector(mean=np.zeros(2), cov=np.diag([4.0, 1.0]))
        out = sample_gaussian(g, GaussianStream(7), count=100_000)
        cov = np.cov(out.T)
        np.testing.assert_allclose(np.diag(cov), [4.0, 1.0], rtol=0.05)
        assert abs(cov[0, 1]) < 0.05

    def test_semidefinite_covariance_allowed(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        g = GaussianVector(mean=np.zeros(2), cov=cov)
        out = sample_gaussian(g, GaussianStream(5), count=1000)
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)

    def test_indefinite_covariance_rejected(self):
        g = GaussianVector(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            sample_gaussian(g, GaussianStream(1))

    @pytest.mark.parametrize("least, indefinite", [(-1e-6, True), (-1e-12, False)])
    def test_indefiniteness_threshold(self, least, indefinite):
        # psd_factor takes a least eigenvalue down to -1e-9 relative to the
        # largest as rounding, and rejects one below it
        V = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))[0]
        cov = (V * [4.0, 1.0, 4.0 * least]) @ V.T
        g = GaussianVector(mean=np.zeros(3), cov=0.5 * (cov + cov.T))
        if indefinite:
            with pytest.raises(np.linalg.LinAlgError, match="^covariance is indefinite"):
                sample_gaussian(g, GaussianStream(1))
        else:
            assert np.isfinite(sample_gaussian(g, GaussianStream(1), count=3)).all()


class TestGaussianStream:
    def test_deterministic(self):
        assert np.array_equal(GaussianStream(11).standard_normal(9),
                              GaussianStream(11).standard_normal(9))

    def test_box_muller_transform_pinned(self):
        # the documented transform, written out against raw PCG64 uniforms
        u = np.random.Generator(np.random.PCG64(123)).random((3, 2))
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
        expected = np.column_stack(
            [r * np.cos(2 * np.pi * u[:, 1]), r * np.sin(2 * np.pi * u[:, 1])]).reshape(-1)[:5]
        np.testing.assert_allclose(GaussianStream(123).standard_normal(5), expected, rtol=1e-15)

    def test_moments(self):
        z = GaussianStream(2).standard_normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_zero_count(self):
        assert GaussianStream(0).standard_normal(0).size == 0

    @pytest.mark.parametrize("head, counts", [(2, (2, 1)), (3, (5, 0, 1)), (0, (4,)), (1, ())])
    def test_predraw_replays_per_call_stream(self, head, counts):
        # one draw of every pair equals the sequence of per-vector calls,
        # including the spare of each odd count that a call discards, for
        # each of several streams drawn together and transformed at once,
        # byte for byte
        from lqgkit.stochastic import _predraw

        rounds, seeds = 7, (11, 0, 2**63 + 5, *range(100, 125))
        predrawn = [GaussianStream(seed) for seed in seeds]
        first, blocks = _predraw(predrawn, head, counts, rounds)
        assert first.shape == (len(seeds), head)
        assert len(blocks) == len(counts)
        for s, seed in enumerate(seeds):
            stream = GaussianStream(seed)
            assert first[s].tobytes() == stream.standard_normal(head).tobytes()
            for k in range(rounds):
                for block, c in zip(blocks, counts):
                    assert block[s, k].tobytes() == stream.standard_normal(c).tobytes()
            # both streams consumed the same uniforms
            np.testing.assert_array_equal(predrawn[s].standard_normal(3),
                                          stream.standard_normal(3))
