"""System, weight, and noise representations and their validation.

Time indexing convention used throughout the toolkit: states live at
0..N, inputs and controller gains at 0..N-1.  Measurement-side schedules
(C, Rv) hold N entries that the predictor consumes at times 0..N-1 and the
filter at times 1..N; entry i is addressed by position i in both cases
(the filter's measurement k uses position k-1).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import DEFINITENESS_TOL, _freeze, definiteness


# (*map(id, owners), settings) -> (weak references to the owners, their plan).
# Sound because LtvSystem, LqrWeights, NoiseModel and Scenario are frozen and
# every array they hold is a read-only copy, so one tuple of owner objects
# always plans the same.  The key is the objects, not their values:
# replace(s, seed=...) is a new object with a plan of its own.  A plan holds
# none of its owners, so once the caller drops any of them its reference's
# callback removes the entry and the plan's arrays are freed at once.
_plans: dict[tuple, tuple[tuple[weakref.ref, ...], object]] = {}


def _planned(owners: tuple, settings, build):
    """build(), built once for each tuple of live owner objects and each
    hashable `settings` value and reused after; a build that raises stores
    nothing, so an invalid model raises on every call."""
    key = (*map(id, owners), settings)
    entry = _plans.get(key)
    if entry is not None and all(ref() is owner for ref, owner in zip(entry[0], owners)):
        return entry[1]
    plan = build()
    forget = lambda _, key=key, plans=_plans: plans.pop(key, None)
    _plans[key] = (tuple(weakref.ref(owner, forget) for owner in owners), plan)
    return plan


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
        from .stochastic import GaussianVector     # here: stochastic imports `_intake` from us
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


def _intake(*rows, vectors=()) -> list:
    """The values of the (value, name[, shape[, length[, definite]]]) rows, in
    order: a schedule as it is, any other value `_freeze`d, with at least one
    axis if its name is in `vectors`, else two, unless the row gives a shape,
    which the value must have as passed.  ValueError with the first shape,
    length or finiteness line of a row's `_field_violations`, as `A has
    length 4, expected 5` or `x has shape (3,), expected (2,)`; definiteness
    is not checked, and None, as a float array, is nan.

    Every public function takes its arguments with this: `solve_spd` takes an
    inf on the diagonal of S as positive definite and solves around it, and a
    nan would only come back as nan results.  Runs check their schedules
    once, in `validate`, and call the private kernels.
    """
    taken = []
    for value, name, *fit in rows:
        if not isinstance(value, MatrixSchedule):
            value = _freeze(value, 0 if fit and fit[0] is not None else
                            1 if name in vectors else 2)
        for line in _field_violations(value, name, *fit[:2]):
            raise ValueError(line)
        taken.append(value)
    return taken


def _system_rows(system: LtvSystem, weights: LqrWeights | None = None) -> list[tuple]:
    """The (value, name, shape, length[, definite]) rows `validate` checks
    A, B, C (if present) and, if given, the weights with."""
    n, m, p, N = system.n, system.m, system.p, system.N
    steps = N if N >= 1 else None
    rows = [(system.A, "A", (n, n), steps), (system.B, "B", (n, m), steps)]
    if system.C is not None:
        rows.append((system.C, "C", (p, n), steps))
    if weights is not None:
        rows += [(weights.Q, "Q", (n, n), N + 1, False), (weights.R, "R", (m, m), N, True)]
    return rows


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
    p, N = system.p, system.N
    report = [f"horizon N must be positive, got {N}"] if N < 1 else []
    if system.C is None and p != 0:
        report.append(f"p = {p} but no C schedule present")
    rows = _system_rows(system, weights)
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

