"""Gaussian densities, conditioning, and seeded sampling.

These are both runtime utilities (noise generation for simulations) and the
independent statistical oracles used by the estimation tests: conditioning a
joint Gaussian on a linear measurement is the same computation a Kalman
measurement update performs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _freeze, psd_factor, solve_spd, symmetrize
from .model import _intake

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GaussianVector:
    """Mean vector and covariance matrix of a Gaussian random vector, stored
    as read-only C-ordered copies (see `_linalg._freeze`)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean, 1))
        object.__setattr__(self, "cov", _freeze(self.cov, 2))
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise ValueError(f"cov must be ({n}, {n}), got {self.cov.shape}")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class JointGaussian:
    """Jointly Gaussian (x, y) described by block means and covariances,
    stored as read-only C-ordered copies (see `_linalg._freeze`)."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    cov_xx: np.ndarray
    cov_xy: np.ndarray
    cov_yy: np.ndarray

    def __post_init__(self):
        for name in ("mean_x", "mean_y", "cov_xx", "cov_xy", "cov_yy"):
            ndmin = 1 if name.startswith("mean") else 2
            object.__setattr__(self, name, _freeze(getattr(self, name), ndmin))
        n, p = self.mean_x.shape[0], self.mean_y.shape[0]
        if self.cov_xx.shape != (n, n) or self.cov_yy.shape != (p, p) or self.cov_xy.shape != (n, p):
            raise ValueError("joint covariance blocks do not conform to the block means")


class GaussianStream:
    """Seeded, reproducible standard-normal stream.

    Uniforms come from numpy's PCG64 bit generator (whose raw stream is
    version-stable); normals are produced by the basic Box-Muller transform,
    which is pinned here so that CSV fixtures stay bit-stable:

      each pair draws (u1, u2) consecutively from Generator.random(),
      z0 = sqrt(-2 ln(1 - u1)) cos(2 pi u2),
      z1 = sqrt(-2 ln(1 - u1)) sin(2 pi u2),

    normals are emitted in order z0, z1 per pair, and a call for an odd
    number of normals discards the spare z1.  The stream is an owned value:
    never share one across concurrent simulations.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._uniform = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        return _box_muller(self._uniform.random(((count + 1) // 2, 2)))[:count]


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The normals z0, z1 of each uniform pair (u1, u2) along the last axis of
    u (..., pairs, 2), pair by pair: (..., 2 pairs).  Element by element, so
    a stack of streams' pairs transforms as each stream's pairs would."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    z = np.empty(u.shape)
    z[..., 0] = r * np.cos(_TWO_PI * u[..., 1])
    z[..., 1] = r * np.sin(_TWO_PI * u[..., 1])
    return z.reshape(*u.shape[:-2], 2 * u.shape[-2])


def _predraw(streams: list[GaussianStream], head: int, counts: tuple[int, ...], rounds: int
             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """What, for each stream, `standard_normal(head)` and then `rounds` rounds
    of one `standard_normal(c)` call per c in `counts` would return, drawn at once.

    PCG64 uniforms are sequential, so one call for all of a stream's pairs
    replays its per-call normals exactly, odd spares included; the pairs of
    all streams then go through one Box-Muller transform.  Returns the
    (S, head) head vectors and, per count c, an (S, rounds, c) array whose
    [s, k] row is stream s's round-k vector.
    """
    padded = [2 * ((c + 1) // 2) for c in counts]
    head_padded = 2 * ((head + 1) // 2)
    u = np.empty((len(streams), (head_padded + rounds * sum(padded)) // 2, 2))
    for stream, pairs in zip(streams, u):
        stream._uniform.random(pairs.shape, out=pairs)
    z = _box_muller(u)
    body = z[:, head_padded:].reshape(len(streams), rounds, sum(padded))
    starts = np.cumsum([0] + padded[:-1])
    return z[:, :head], [body[:, :, s:s + c] for s, c in zip(starts, counts)]


def gaussian_pdf(x: float, mean: float, var: float) -> float:
    """Scalar Gaussian density at x; ValueError names an argument that holds
    a nan or inf."""
    _intake((x, "x"), (mean, "mean"), (var, "var"))
    if var <= 0.0:
        raise ValueError(f"variance must be positive, got {var}")
    d = x - mean
    return math.exp(-0.5 * d * d / var) / math.sqrt(_TWO_PI * var)


def multivariate_gaussian_pdf(x: np.ndarray, g: GaussianVector) -> float:
    """Multivariate Gaussian density at x.

    Determinant and quadratic form both come from one Cholesky factorization;
    singular covariances raise LinAlgError.  ValueError names an x of
    another shape than g.mean's, or an argument that holds a nan or inf.
    """
    x, mean, cov = _intake((x, "x", g.mean.shape), (g.mean, "g.mean"), (g.cov, "g.cov"),
                           vectors=("g.mean",))
    try:
        chol = np.linalg.cholesky(symmetrize(cov))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"covariance is singular or indefinite: {exc}") from exc
    z = np.linalg.solve(chol, x - mean)
    quad = float(z @ z)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    n = g.dim
    return math.exp(-0.5 * (quad + log_det + n * math.log(_TWO_PI)))


def condition(joint: JointGaussian, y_obs: np.ndarray) -> GaussianVector:
    """Condition x on an observed y.

    mean = E(x) + V(x,y) V(y)^-1 (y_obs - E(y))
    cov  = V(x) - V(x,y) V(y)^-1 V(y,x)

    The gain V(x,y) V(y)^-1 is obtained by a symmetric solve, never by
    forming the inverse.  ValueError names a y_obs of another shape than
    joint.mean_y's, or a block of `joint`, or y_obs, that holds a nan or inf.
    """
    mean_x, mean_y, cov_xx, cov_xy, cov_yy, y_obs = _intake(
        (joint.mean_x, "joint.mean_x"), (joint.mean_y, "joint.mean_y"),
        (joint.cov_xx, "joint.cov_xx"), (joint.cov_xy, "joint.cov_xy"),
        (joint.cov_yy, "joint.cov_yy"), (y_obs, "y_obs", joint.mean_y.shape),
        vectors=("joint.mean_x", "joint.mean_y"))
    # G^T = V(y)^-1 V(y,x); V(y) symmetric.
    gain = solve_spd(cov_yy, cov_xy.T, "conditioning on y").T
    mean = mean_x + gain @ (y_obs - mean_y)
    cov = symmetrize(cov_xx - gain @ cov_xy.T)
    return GaussianVector(mean=mean, cov=cov)


def sample_gaussian(g: GaussianVector, stream: GaussianStream, count: int = 1) -> np.ndarray:
    """Draw `count` samples, returned as a (count, n) array.

    Each sample is mean + S z with S S^T = cov (Cholesky, eigendecomposition
    fallback for semidefinite cov) and z from the stream; one stream call of
    count * n normals is consumed, in sample-major order.  ValueError names
    a field of g that holds a nan or inf.
    """
    mean, cov = _intake((g.mean, "g.mean"), (g.cov, "g.cov"), vectors=("g.mean",))
    S = psd_factor(cov)
    n = g.dim
    z = stream.standard_normal(count * n).reshape(count, n)
    return mean + z @ S.T

