"""The two-phase release mechanism: age, then add noise.

Phase 1 slides each sequence back by its age-of-information lag, reading
one possibly-stale state per sequence.  Phase 2 evaluates the query on the
aged snapshot and adds Laplace noise with scale s_1(f)/eps_c.  Correlation
amplification is accounted for in the certified budget (via d(k) in the
bounds), not by inflating the noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernel import validate_ages
from .model import ModelError, StateSpace, check_positive, integer_value
from .queries import QuerySpec
from .rng import first_laplace, laplace, rekeyed


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class SequenceDatabase:
    """T x s array of states; row t-1 holds the snapshot at (1-based) time t."""

    space: StateSpace
    snapshots: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.snapshots)
        if arr.dtype.kind not in "iu":  # the dtype alone decides: O(1) at any size
            raise ModelError(f"state values must be integers, got an array of {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != self.space.num_sequences:
            raise ModelError(
                f"database shape {arr.shape} does not match s={self.space.num_sequences}"
            )
        if arr.shape[0] < 1:
            raise ModelError("database needs at least one time step")
        if arr.min() < 0 or arr.max() >= self.space.num_states:
            raise ModelError(
                f"state values must lie in [0, {self.space.num_states - 1}]"
            )
        object.__setattr__(self, "snapshots", arr.astype(np.int64, copy=False))

    @property
    def horizon(self) -> int:
        return self.snapshots.shape[0]

    @classmethod
    def from_csv(cls, path, space: StateSpace) -> "SequenceDatabase":
        """A header and a row of s integer states per time step; every
        refusal names the file, and that of a bad row its line.  A first
        row of integers is refused: without a header the first time step
        would be read as one and lost."""
        s = space.num_sequences
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ModelError(f"database file '{path}' is empty")
            if len(header) != s:
                raise ModelError(f"database file '{path}' has {len(header)} columns, expected {s}")
            if all(_is_int(cell) for cell in header):
                raise ModelError(f"database file '{path}' has no header: its first row "
                                 f"{','.join(header)} reads as states")
            rows = []
            try:
                for row in filter(None, reader):
                    if len(row) != s:
                        raise ValueError(f"{len(row)} cells, expected {s}")
                    rows.append([int(v) for v in row])
            except ValueError as exc:
                raise ModelError(f"database file '{path}', line {reader.line_num}: {exc}") from None
        try:
            return cls(space, np.array(rows, dtype=np.int64).reshape(-1, s))
        except ModelError as exc:
            raise ModelError(f"database file '{path}': {exc}") from None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"seq{i}" for i in range(self.space.num_sequences)])
            writer.writerows(self.snapshots.tolist())


@dataclass(frozen=True)
class MechanismOutput:
    value: float
    aged_snapshot: tuple
    noise_scale: float
    seed: int


def age_data(db: SequenceDatabase, t: int, age) -> tuple:
    """Phase 1: the aged snapshot (x^(i) at time t - age[i], 1-based times)."""
    ages = validate_ages(age, db.space)
    if type(t) is not int:  # the release path passes Python ints
        t = integer_value(t, "time index")
    if not 1 <= t <= db.horizon:
        raise ModelError(f"time index {t} outside the recorded horizon [1, {db.horizon}]")
    snapshot = []
    for i, a in enumerate(ages):
        idx = t - a
        if idx < 1:
            raise ModelError(
                f"sequence {i}: age {a} reaches before the start of the record at t={t}"
            )
        snapshot.append(db.snapshots.item(idx - 1, i))
    return tuple(snapshot)


def laplace_sample(scale: float, dim: int | None, seed: int) -> np.ndarray | float:
    """dim i.i.d. Laplace(0, scale) draws, deterministic given seed; dim >= 0.

    With dim=None the one draw is returned as a scalar, equal to the
    element of the dim=1 array.  The draws are those of
    `laplace(generator(seed), scale, dim)`, but from the calling thread's
    Philox re-keyed to seed (`rng.rekeyed`): the Generator serves this one
    call, so building a new one, most of a release's time, is skipped.
    `generator(seed)` still builds a new one, which its callers hold
    across draws.
    """
    check_positive("noise scale", scale)
    return laplace(rekeyed(seed), scale, dim if dim is None else integer_value(dim, "dim", 0))


def noise_scale(query: QuerySpec, eps_c: float) -> float:
    """The Laplace scale s_1(f)/eps_c that releases, MSE and oracle read; eps_c is checked."""
    check_positive("eps_c", eps_c)
    return query.sensitivity(1) / eps_c


def release(
    db: SequenceDatabase, t: int, age, query: QuerySpec, eps_c: float, seed: int
) -> MechanismOutput:
    """Phase 1 + Phase 2: noisy query answer on the aged snapshot."""
    scale, snapshot = noise_scale(query, eps_c), age_data(db, t, age)  # eps_c checked first
    noise = laplace_sample(scale, None, seed)
    return MechanismOutput(
        value=query.evaluate(snapshot) + noise,
        aged_snapshot=snapshot,
        noise_scale=scale,
        seed=seed,
    )


def release_values(
    db: SequenceDatabase, t: int, age, query: QuerySpec, eps_c: float, seeds
) -> np.ndarray:
    """`release(db, t, age, query, eps_c, seed).value` for every seed of the
    1-D sequence seeds, bit for bit, drawn in one array pass (rng.first_laplace)."""
    scale, snapshot = noise_scale(query, eps_c), age_data(db, t, age)
    check_positive("noise scale", scale)
    return query.evaluate(snapshot) + first_laplace(seeds, scale)
