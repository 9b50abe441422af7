"""System, weight, and noise representations and their validation.

Time indexing convention used throughout the toolkit: states live at
0..N, inputs and controller gains at 0..N-1.  Measurement-side schedules
(C, Rv) hold N entries that the predictor consumes at times 0..N-1 and the
filter at times 1..N; entry i is addressed by position i in both cases
(the filter's measurement k uses position k-1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFINITENESS_TOL, _freeze, definiteness
from .stochastic import GaussianVector


class ValidationError(ValueError):
    """Raised by callers that require a clean validation report."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(violations))
        self.violations = violations


class MatrixSchedule:
    """Index-addressed sequence of equally shaped matrices.

    Stored as one read-only copy of the (E, r, c) `entries` and the length L
    (default E): E = 1 for a constant schedule, which reports its matrix at
    every index, so LTI and LTV systems look alike to callers; else E = L.
    """

    def __init__(self, entries, length: int | None = None):
        entries = _freeze(entries)
        if entries.ndim != 3 or not len(entries):
            raise ValueError(f"schedule needs an (E, r, c) array, E >= 1, got {entries.shape}")
        length = len(entries) if length is None else length
        if len(entries) not in (1, length):
            raise ValueError(f"schedule has {len(entries)} entries but length {length} requested")
        self._entries = entries
        self._length = length

    @classmethod
    def constant(cls, M: np.ndarray, length: int) -> "MatrixSchedule":
        return cls(np.atleast_2d(M)[None], length)

    @classmethod
    def of(cls, matrices) -> "MatrixSchedule":
        entries = [np.atleast_2d(M) for M in matrices]
        if any(e.shape != entries[0].shape for e in entries):
            raise ValueError("all schedule entries must share one shape")
        return cls(entries)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> np.ndarray:
        if not 0 <= k < self._length:
            raise IndexError(f"schedule index {k} outside horizon [0, {self._length})")
        return self._entries[0 if self.is_constant else k]

    def __iter__(self):
        return iter(self.stack)

    @property
    def shape(self) -> tuple[int, int]:
        return self._entries.shape[1:]

    @property
    def is_constant(self) -> bool:
        return len(self._entries) == 1

    @property
    def stack(self) -> np.ndarray:
        """The (L, r, c) read-only view, entry k at index k (no copy when constant)."""
        return np.broadcast_to(self._entries, (self._length, *self.shape))

    def distinct(self) -> np.ndarray:
        """The stored (E, r, c) entries: one matrix if constant, else all L."""
        return self._entries

    def with_length(self, length: int) -> "MatrixSchedule":
        if not self.is_constant:
            raise ValueError("cannot re-horizon an explicit (time-varying) schedule")
        return MatrixSchedule(self._entries, length)

    def to_lists(self):
        """Plain-list form for serialization: one matrix if constant, else all."""
        return (self._entries[0] if self.is_constant else self._entries).tolist()


def _as_schedule(value, length: int) -> MatrixSchedule:
    if isinstance(value, MatrixSchedule):
        return value
    arr = np.asarray(value, dtype=float)
    if arr.ndim <= 2:
        return MatrixSchedule.constant(arr, length)
    return MatrixSchedule(arr)


@dataclass(frozen=True)
class LtvSystem:
    """Discrete-time linear system x_{k+1} = A_k x_k + B_k u_k (+ C_k output).

    Dimensions are declared, not derived, so a malformed build is
    representable and reported by `validate` rather than rejected here.
    """

    n: int
    m: int
    p: int
    N: int
    A: MatrixSchedule
    B: MatrixSchedule
    C: MatrixSchedule | None = None

    @classmethod
    def lti(cls, A, B, C=None, *, horizon: int) -> "LtvSystem":
        return cls.from_schedules(*(None if M is None else MatrixSchedule.constant(M, horizon)
                                    for M in (A, B, C)), horizon=horizon)

    @classmethod
    def from_schedules(cls, A, B, C=None, *, horizon: int) -> "LtvSystem":
        A = _as_schedule(A, horizon)
        B = _as_schedule(B, horizon)
        C_sched = _as_schedule(C, horizon) if C is not None else None
        return cls(
            n=A.shape[0], m=B.shape[1], p=(C_sched.shape[0] if C_sched is not None else 0),
            N=horizon, A=A, B=B, C=C_sched,
        )


@dataclass(frozen=True)
class LqrWeights:
    """Quadratic cost weights: Q_0..Q_N (terminal included), R_0..R_{N-1}."""

    Q: MatrixSchedule
    R: MatrixSchedule

    @classmethod
    def constant(cls, Q, R, *, horizon: int) -> "LqrWeights":
        return cls(
            Q=MatrixSchedule.constant(Q, horizon + 1),
            R=MatrixSchedule.constant(R, horizon),
        )


@dataclass(frozen=True)
class NoiseModel:
    """Disturbance/measurement covariances and the initial belief.

    Named Qd/Rv to keep them apart from the LQR weights Q/R, which play a
    different role despite the shared letters.
    """

    Qd: MatrixSchedule
    Rv: MatrixSchedule
    x0_mean: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0_mean", _freeze(self.x0_mean, 1))
        object.__setattr__(self, "P0", _freeze(self.P0, 2))

    @classmethod
    def constant(cls, Qd, Rv, x0_mean, P0, *, horizon: int) -> "NoiseModel":
        return cls(
            Qd=MatrixSchedule.constant(Qd, horizon),
            Rv=MatrixSchedule.constant(Rv, horizon),
            x0_mean=x0_mean,
            P0=P0,
        )

    def initial_belief(self) -> GaussianVector:
        return GaussianVector(mean=self.x0_mean, cov=self.P0)


@dataclass
class Trajectory:
    """Time-indexed simulation record; the unit of CSV export.

    states has N+1 rows, inputs N; outputs holds the measurement sequence
    (N rows) when the run produced one.  estimates/covariances align with
    states when an estimator ran.
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray | None = None
    estimates: np.ndarray | None = None
    covariances: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def _field_violations(value, name: str, shape: tuple[int, ...] | None = None,
                      length: int | None = None, definite: bool | None = None) -> list[str]:
    """The report lines of one input field: a schedule, a matrix, a vector or None.

    In order: the entry shape, if `shape` is given; the schedule length, if
    `length` is; the first distinct entry holding nan or inf (indexed, as
    `Qd[2]`, in a schedule of several); and, for a covariance (`definite`
    True for positive definite, False for semidefinite) whose entries are
    all finite and of `shape`, each entry's symmetry and definiteness, so indexed.
    """
    if value is None:
        return []
    schedule = isinstance(value, MatrixSchedule)
    stack = value.distinct() if schedule else np.asarray(value)[None]

    def entry(i) -> str:
        return f"{name}[{i}]" if len(stack) > 1 else name
    report = []
    if shape is not None and stack.shape[1:] != shape:
        has = "entries have" if schedule else "has"
        report.append(f"{name} {has} shape {stack.shape[1:]}, expected {shape}")
    if length is not None and len(value) != length:
        report.append(f"{name} has length {len(value)}, expected {length}")
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    if not finite.all():
        report.append(f"{entry(np.argmin(finite))} has non-finite entries (nan or inf)")
    elif definite is not None and stack.shape[1:] == shape:
        kind = "positive definite" if definite else "positive semidefinite"
        for i, (symmetric, holds) in enumerate(zip(*definiteness(stack, definite))):
            if not symmetric:
                report.append(f"{entry(i)} is not symmetric")
            if not holds:
                report.append(f"{entry(i)} is not {kind} (tol {DEFINITENESS_TOL})")
    return report


def _require_finite(schedules: dict) -> None:
    """ValueError with the finiteness line of `_field_violations` (as `Q[2]
    has non-finite entries (nan or inf)`) for the first schedule, of the
    name -> schedule dict, that holds a nan or inf."""
    for name, schedule in schedules.items():
        for line in _field_violations(schedule, name):
            raise ValueError(line)


def validate(system: LtvSystem, weights: LqrWeights | None = None,
             noise: NoiseModel | None = None) -> list[str]:
    """Check every dimension, finiteness and definiteness invariant; returns the report.

    An empty report means all invariants hold.  Callers decide whether a
    non-empty report is fatal (see ValidationError).  Q, Qd, P0 must be
    positive semidefinite and R, Rv positive definite: one shifted Cholesky
    factorization certifies a whole schedule, and `eigvalsh` decides entry by
    entry only a schedule the certificate cannot, so every verdict is the
    eigenvalue test's.
    """
    n, m, p, N = system.n, system.m, system.p, system.N
    report = [f"horizon N must be positive, got {N}"] if N < 1 else []
    if system.C is None and p != 0:
        report.append(f"p = {p} but no C schedule present")
    steps = N if N >= 1 else None
    rows = [(system.A, "A", (n, n), steps), (system.B, "B", (n, m), steps),
            (system.C, "C", (p, n), steps)]
    if weights is not None:
        rows += [(weights.Q, "Q", (n, n), N + 1, False), (weights.R, "R", (m, m), N, True)]
    if noise is not None:
        rows += _noise_rows(system, noise)
    for row in rows:
        report += _field_violations(*row)
    return report


def _noise_rows(system: LtvSystem, noise: NoiseModel) -> list[tuple]:
    """The (value, name, shape, length, definite) rows `validate` checks the noise with."""
    n, p, N = system.n, system.p, system.N
    rows = [(noise.Qd, "Qd", (n, n), N, False)]
    if p:
        rows.append((noise.Rv, "Rv", (p, p), N, True))
    return rows + [(noise.x0_mean, "x0_mean", (n,), None, None),
                   (noise.P0, "P0", (n, n), None, False)]

