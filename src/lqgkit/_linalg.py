"""Small dense-matrix helpers shared across the toolkit."""
from __future__ import annotations

import numpy as np

# Definiteness decisions bound the least eigenvalue of the symmetric part at
# this tolerance: > DEFINITENESS_TOL for positive definite, >= -DEFINITENESS_TOL
# for positive semidefinite.  `definiteness` first tries to certify the bound
# with one Cholesky factorization per schedule; only when that fails does
# `eigvalsh` compute the eigenvalue that decides.
DEFINITENESS_TOL = 1e-9

# Up to this order `solve_spd` solves with the two triangles of numpy's
# Cholesky factor, keeping the bits fig1 and fig4 are pinned with; above it,
# with one LU solve of the S the factor certified, cheaper there than two
# triangular solves.
_TRIANGULAR_MAX_ORDER = 8


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance within max_iter."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def symmetrize(M: np.ndarray) -> np.ndarray:
    """0.5 M + 0.5 M^T of a matrix, or of each matrix in a stack.

    Equal to 0.5 (M + M^T) entry for entry wherever M + M^T neither
    overflows nor falls subnormal (halving commutes with rounding); unlike
    it, finite for every finite M.
    """
    half = 0.5 * M
    return half + half.swapaxes(-1, -2)


def _freeze(M, ndmin: int = 0) -> np.ndarray:
    """A read-only C-ordered float copy of M with at least `ndmin` axes, the
    one layout every run reads: a matrix-vector product rounds differently on
    a Fortran-ordered matrix."""
    M = np.array(M, dtype=float, order="C", ndmin=ndmin)
    M.flags.writeable = False
    return M


def matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M x for every vector x along the last axis of X, in one stacked matmul.

    M is one matrix or a stack that broadcasts against the leading axes of
    X.  numpy runs one BLAS matrix-vector product per vector, so each row
    equals `M @ x` bit for bit; a single `X @ M.T` product rounds differently.
    """
    return (M @ X[..., None])[..., 0]


def definiteness(stack: np.ndarray, positive: bool) -> tuple[np.ndarray, np.ndarray]:
    """Symmetry and definiteness flags of each matrix in a finite (k, n, n) stack.

    With tol = DEFINITENESS_TOL, M is symmetric when max|M - M^T| <=
    tol (1 + max|M|).  It is positive definite when the least eigenvalue of
    its symmetric part 0.5 M + 0.5 M^T (finite for any finite M) exceeds
    tol, and positive semidefinite when that eigenvalue is >= -tol.  One
    Cholesky factorization of the whole stack, shifted past the bound,
    certifies every entry at once; if any entry defeats it, `eigvalsh`
    decides entry by entry, so every flag is the one the eigenvalue test
    gives.
    """
    n, tol = stack.shape[-1], DEFINITENESS_TOL
    # M - M^T is exactly antisymmetric, so its largest entry is its largest magnitude.
    asym = (stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    size = np.maximum(stack.max(axis=(1, 2), initial=0.0), -stack.min(axis=(1, 2), initial=0.0))
    symmetric = asym <= tol * (1.0 + size)
    bound = tol if positive else -tol
    # an exactly symmetric stack is its own symmetric part to a subnormal unit
    if n and _certified(symmetrize(stack) if asym.any() else stack.copy(), size, bound):
        return symmetric, np.ones(len(stack), dtype=bool)
    least = np.array([np.linalg.eigvalsh(symmetrize(M)).min() if n else 0.0
                      for M in stack])
    return symmetric, least > tol if positive else least >= -tol


def _certified(S: np.ndarray, size: np.ndarray, bound: float) -> bool:
    """True only if eigvalsh(S_i).min() > bound for every S_i; overwrites S.

    S_i is symmetric with max|S_i| <= size_i.  A verified-definiteness test in
    the manner of Rump (BIT 46, 2006): if Cholesky runs to completion on X,
    then R^T R = X + dX with |dX| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, Thm 10.3), so
    lambda_min(X) > -(n+1) n u max X_ii to first order, u = eps / 2.
    eigvalsh's eigenvalues are those of S + F with ||F||_2 <= p(n) u ||S||_2
    <= p(n) n u max|S|.  X = S - (bound + margin) I with
    margin = 4 n (n+2) eps (size + |bound|) covers both errors and the
    rounding of the shift for p(n) up to about 7 n.
    """
    n = S.shape[-1]
    shift = bound + 4 * n * (n + 2) * np.finfo(float).eps * (size + abs(bound))
    diagonal = np.arange(n)
    S[:, diagonal, diagonal] -= shift[:, None]
    try:
        factor = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    # An overflow, in S or inside the factorization, leaves a non-finite factor.
    return bool(np.all(np.isfinite(factor)))


def solve_spd(S: np.ndarray, B: np.ndarray, context: str) -> np.ndarray:
    """Solve S X = B for symmetric positive definite S, certified by Cholesky.

    S is a float matrix, B a matrix or a vector.  `np.linalg.cholesky`
    factors the symmetric part of S as L L^T, certifying S, and
    `np.linalg.solve` solves with L and L^T up to _TRIANGULAR_MAX_ORDER,
    above it with one LU solve of S; every result, error and warning is
    theirs, for a stack of S or B too.  Raises LinAlgError naming `context`
    when S is not numerically PD, a violated definiteness precondition
    upstream.
    """
    sym = symmetrize(S)
    try:
        L = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{context}: matrix is not positive definite ({exc})") from None
    if S.shape[-1] > _TRIANGULAR_MAX_ORDER:
        return np.linalg.solve(sym, B)      # L only certified S
    return np.linalg.solve(L.swapaxes(-1, -2), np.linalg.solve(L, B))


def spectral_radius(M: np.ndarray) -> float:
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor S with S S^T = cov for a symmetric PSD matrix cov.

    Cholesky when cov is numerically PD; falls back to an eigendecomposition
    square root for semidefinite inputs (singular disturbance covariances are
    legitimate).  Raises LinAlgError on indefinite input.
    """
    if cov.shape[-1] == 0:
        return np.zeros(cov.shape)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(symmetrize(cov))
    if w.min() < -DEFINITENESS_TOL * max(1.0, abs(w.max())):
        raise np.linalg.LinAlgError(
            f"covariance is indefinite (min eigenvalue {w.min():.3e}); cannot factor"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))
