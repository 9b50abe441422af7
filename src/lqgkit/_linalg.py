"""Small dense-matrix helpers shared across the toolkit."""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

# Definiteness decisions bound the least eigenvalue of the symmetric part at
# this tolerance: > DEFINITENESS_TOL for positive definite, >= -DEFINITENESS_TOL
# for positive semidefinite.  `definiteness` first tries to certify the bound
# with one Cholesky factorization per schedule; only when that fails does
# `eigvalsh` compute the eigenvalue that decides.
DEFINITENESS_TOL = 1e-9

# Up to this order `solve_spd` solves with the two triangles of numpy's
# Cholesky factor, keeping the bits fig1 and fig4 are pinned with; above it,
# with one LU solve of the S the factor certified, cheaper there than two
# triangular solves.  Calling the gufuncs behind `np.linalg` directly keeps a
# solve near LAPACK's cost (best per call, numpy 2.4, one BLAS thread, a 2-vCPU
# Xeon VM): 6 µs at order 1 against 23 µs through `np.linalg`; 22 µs at order
# 16 with 64 right-hand sides against 20 µs for dpotrf/dpotrs; at order 64,
# 116 µs alone and 142 µs per stacked entry against 84 µs.  Above this order
# a stack of S also goes entry by entry into one preallocated output: one
# stacked call holds every entry's symmetric part and factor at once, and
# traced by tracemalloc the smoother's (100, 64, 64) gain solve peaked at
# 6.31 MiB of numpy data for its 3.12 MiB answer (3.25 MiB entry by entry).  At
# and below it one stacked call stays, as fig4's (50, 2, 2) smoother solve
# needs: there a Python loop's per-entry cost outweighs the scratch it saves.
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


def intake(arguments: dict, vectors=()) -> list[np.ndarray]:
    """Each value of the name -> value dict `arguments`, in order, `_freeze`d
    with at least one axis if its name is in `vectors`, else two; ValueError
    names the first that holds a nan or inf (None, as a float array, is nan).

    Every public function takes its array arguments with this: `solve_spd`
    takes an inf on the diagonal of S as positive definite and solves around
    it, and a nan would only come back as nan results.  Runs check their
    schedules once, in `validate`, and call the private kernels.
    """
    frozen = [_freeze(value, 1 if name in vectors else 2) for name, value in arguments.items()]
    for name, value in zip(arguments, frozen):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has non-finite entries (nan or inf)")
    return frozen


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


class _Invalid(Exception):
    """The "invalid" flag of a gufunc behind `np.linalg`: its LAPACK call failed."""


def _invalid(err: str, flag: int):
    raise _Invalid


def solve_spd(S: np.ndarray, B: np.ndarray, context, out: np.ndarray | None = None
              ) -> np.ndarray:
    """Solve S X = B for symmetric positive definite S, certified by Cholesky.

    S is one float matrix or an (..., n, n) stack, B an (..., n, r) stack
    or one vector, broadcast against S as `np.linalg.solve` broadcasts
    them.  Every entry of a stack is solved as it would be on its own, bit
    for bit.  numpy factors S = L L^T, certifying S, and solves with L and
    L^T up to _TRIANGULAR_MAX_ORDER, in one stacked call; above it with one
    LU solve of S, a stack entry by entry into one preallocated output, so
    the only scratch is one entry's (see _TRIANGULAR_MAX_ORDER).  Raises
    LinAlgError naming `context` when S is not numerically PD, a violated
    definiteness precondition upstream.  `context` is a string, or for a
    stack a function of the flat index in S of the first entry that is not
    PD which returns one.  `out`, for one S, receives the solution.

    The solve calls the gufuncs behind `np.linalg.cholesky` and
    `np.linalg.solve` (`solve1` for a 1-D right-hand side, as `solve` picks)
    under the error policy `np.linalg` calls them with: a gufunc flags
    "invalid" exactly when its LAPACK call fails, and that flag raises
    `np.linalg`'s error, while the symmetrization runs under the caller's
    errstate, as it does before `np.linalg`'s calls.  So every result,
    error and warning is the one those `np.linalg` calls give.
    """
    name = (lambda i: context) if isinstance(context, str) else context
    triangular = S.shape[-1] <= _TRIANGULAR_MAX_ORDER
    if not triangular and S.ndim > 2:
        return _lu_entry_by_entry(S, B, name)
    sym = symmetrize(S)
    solve = _umath_linalg.solve1 if B.ndim == 1 else _umath_linalg.solve
    with np.errstate(all="ignore", invalid="call", call=_invalid):
        try:
            L = _umath_linalg.cholesky_lo(sym)
        except _Invalid:
            raise np.linalg.LinAlgError(f"{name(_first_not_pd(sym))}: matrix is not positive "
                                        "definite (Matrix is not positive definite)") from None
        try:
            if not triangular:
                return solve(sym, B, out=out)       # L only certified S
            Y = solve(L, B)
            return (_umath_linalg.solve1 if Y.ndim == 1 else _umath_linalg.solve)(
                L.swapaxes(-1, -2), Y, out=out)
        except _Invalid:
            raise np.linalg.LinAlgError("Singular matrix") from None


def _lu_entry_by_entry(S: np.ndarray, B: np.ndarray, name) -> np.ndarray:
    """`solve_spd` of each entry of a stack S, written into one output of
    `np.linalg.solve(S, B)`'s shape.  A failing entry is named by its flat
    index in S, not in the broadcast batch; the loop meets S's entries in
    flat order, so the first to fail is S's first that is not PD."""
    core = B.shape[-1:] if B.ndim == 1 else B.shape[-2:]
    batch = np.broadcast_shapes(S.shape[:-2], B.shape[:B.ndim - len(core)])
    own = np.broadcast_to(np.arange(S[..., 0, 0].size).reshape(S.shape[:-2]), batch)
    S, B = np.broadcast_to(S, batch + S.shape[-2:]), np.broadcast_to(B, batch + core)
    X = np.empty(batch + core)
    for i in np.ndindex(batch):
        solve_spd(S[i], B[i], lambda _: name(int(own[i])), X[i])
    return X


def _first_not_pd(S: np.ndarray) -> int:
    """Flat index of the first entry of S that numpy's Cholesky rejects;
    called under `solve_spd`'s error policy."""
    for i, entry in enumerate(S.reshape(-1, *S.shape[-2:])):
        try:
            _umath_linalg.cholesky_lo(entry)
        except _Invalid:
            return i
    raise AssertionError("a stacked Cholesky failed on no single entry")


def spectral_radius(M: np.ndarray) -> float:
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor S with S S^T = cov for symmetric PSD cov, or for each entry of
    an (E, n, n) stack.

    Cholesky when cov is numerically PD; falls back to an eigendecomposition
    square root for semidefinite inputs (singular disturbance covariances are
    legitimate).  Raises LinAlgError on indefinite input.  One stacked
    Cholesky factors a stack of definite entries, each as it would be on its
    own; only a semidefinite entry makes a stack go entry by entry.
    """
    if cov.shape[-1] == 0:
        return np.zeros(cov.shape)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        if cov.ndim == 3:
            return np.array([psd_factor(M) for M in cov])
    w, V = np.linalg.eigh(symmetrize(cov))
    if w.min() < -DEFINITENESS_TOL * max(1.0, abs(w.max())):
        raise np.linalg.LinAlgError(
            f"covariance is indefinite (min eigenvalue {w.min():.3e}); cannot factor"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))
