"""Coupling Markov chain models.

A model consists of s categorical sequences over a common alphabet
{0, ..., m-1}, an s x s array of column-stochastic pairwise transition
matrices P[j][k] (entry [b, a] = probability that sequence j moves to
state b given sequence k is in state a), and a row-stochastic coupling
matrix lam with lam[j, k] the weight sequence k's state carries in
sequence j's evolution.  Marginals evolve as

    pi_j'  =  sum_k  lam[j, k] * P[j][k] @ pi_k

All distribution vectors are column vectors acted on from the left.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

STOCHASTIC_TOL = 1e-9
# Joint states above which the dense product-space kernel is refused.  An
# n x n float64 kernel takes 8 n^2 bytes (512 MiB at the cap), and a run
# holds many such arrays at once: every consumer of an age grid builds one
# aged law per age of it in one call.  Peaks measured by tracemalloc at
# n = 256, in n x n arrays: 5 for a utility sweep over one age, 27 over 22
# ages; 9 for a loose P1 over 6 ages, 24 for a loose frontier over 21; 17
# for a tight P1 over 6 ages, 47 for a tight frontier over 21 and 17 for a
# leakage sweep over 7 (s = 8), past one law per age mostly the rows of
# Delta_bar's transport blocks left open for its LPs (README, `--cap`).
DEFAULT_ENUMERATION_CAP = 2**13


class ModelError(ValueError):
    """Raised for structurally invalid models or inputs."""


def check_positive(name: str, value) -> None:
    """Reject a `name`, such as eps_c, that is not a finite positive number."""
    if value <= 0:
        raise ModelError(f"{name} must be positive, got {value}")
    if not value < math.inf:  # also catches NaN, which fails every comparison
        raise ModelError(f"{name} must be finite, got {value}")


def integer_values(value, what: str) -> tuple:
    """(shape, values) of an int or an array-like of ints, the values as a list.

    Tuples and lists of ints are read in plain Python; any other input is
    read through ``np.atleast_1d(np.asarray(value))``, so its shape is
    numpy's, and refused by `what` unless it holds integers: 1.5, 2.0,
    True, "2" and ragged nestings such as [1, [2]] are not.
    """
    if isinstance(value, (tuple, list)) and all(type(v) is int for v in value):
        return (len(value),), list(value)
    try:
        arr = np.atleast_1d(np.asarray(value))
    except ValueError:  # a ragged nesting
        arr = None
    bools = isinstance(value, (tuple, list)) and any(
        isinstance(v, (bool, np.bool_)) for v in value)
    if arr is None or arr.dtype.kind not in "iu" or bools:
        raise ModelError(f"{what} must be integers, got {value!r}")
    return arr.shape, arr.tolist()


def integer_value(value, what: str, least: int | None = None) -> int:
    """One int by the rule of `integer_values`: NumPy ints count; 2.0, True, "2"
    do not.  With `least` given, a smaller value is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ModelError(f"{what}: expected an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ModelError(f"{what} must be >= {least}, got {value}")
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateSpace:
    """The m^s joint snapshots of s sequences over m states, and their encoding.

    Joint index i is the snapshot whose sequence j is in state digits[i, j];
    the encoding is big-endian, i = digits[i] @ place, with the last
    sequence varying fastest.  Every table is computed at most once per
    (s, m), since equal spaces share a cache, and is read-only.
    """

    num_sequences: int
    num_states: int

    def __post_init__(self):
        if type(self.num_sequences) is not int or type(self.num_states) is not int:
            for name in ("num_sequences", "num_states"):  # a NumPy int is kept as a Python int
                object.__setattr__(self, name, integer_value(getattr(self, name), name))
        if self.num_sequences < 1:
            raise ModelError(f"need at least one sequence, got {self.num_sequences}")
        if self.num_states < 2:
            raise ModelError(f"need at least two states, got {self.num_states}")

    @property
    def product_size(self) -> int:
        # Python ints are exact, so this cannot overflow.
        return self.num_states**self.num_sequences

    def check_degree(self, k) -> int:
        """k as an int if it is a correlation degree here, an integer with 1 <= k <= s."""
        if type(k) is not int:  # the fast path: every release reads s_1
            k = integer_value(k, "correlation degree")
        if not 1 <= k <= self.num_sequences:
            raise ModelError(f"correlation degree {k} out of range [1, {self.num_sequences}]")
        return k

    def check_cap(self, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
        n = self.product_size
        if n > cap:
            raise ModelError(
                f"product state space has {n} elements, above the enumeration cap "
                f"{cap}: its dense {n} x {n} kernel needs n^2 * 8 = {n * n * 8} bytes; "
                "raise the cap (the `cap` config key or the `--cap` flag of `csdp run`) "
                "if that fits in memory"
            )

    @property
    @functools.cache
    def place(self) -> np.ndarray:
        """place[j] = m^(s-1-j), the joint-index step of sequence j."""
        return _read_only(self.num_states ** np.arange(self.num_sequences - 1, -1, -1))

    @property
    @functools.cache
    def digits(self) -> np.ndarray:
        """(m^s, s) array whose row i holds the per-sequence states of joint index i."""
        return _read_only(np.arange(self.product_size)[:, None] // self.place % self.num_states)

    @property
    @functools.cache
    def states(self) -> tuple:
        """states[i] is the tuple of per-sequence states of joint index i."""
        return tuple(map(tuple, self.digits.tolist()))

    def index(self, state) -> int:
        """The joint index of a tuple of per-sequence states, which must be
        integers (see `integer_values`)."""
        s, m = self.num_sequences, self.num_states
        shape, values = integer_values(state, "states")
        if shape != (s,) or any(not 0 <= v < m for v in values):
            raise ModelError(f"{state} is not a valid joint state for s={s}, m={m}")
        return sum(v * p for v, p in zip(values, self.place.tolist()))

    def subset_code(self, coords) -> np.ndarray:
        """For every joint index, the big-endian code of its states at the
        sequences `coords`, taken in the order given."""
        return self.digits[:, list(coords)] @ StateSpace(len(coords), self.num_states).place

    @property
    @functools.cache
    def neighbour_pairs(self) -> np.ndarray:
        """All (ai, bi), ai < bi, of joint indices that differ in exactly one
        coordinate, as an int array of shape (P, 2) sorted by ai and then bi.

        bi = ai + d * place[j] raises coordinate j by d.  All offsets of
        coordinate j lie below place[j-1], the smallest offset of coordinate
        j-1, so taking the coordinates from last to first and d upwards
        sorts bi.
        """
        n, s, m = self.product_size, self.num_sequences, self.num_states
        strides = self.place[::-1][None, :, None]  # coordinates from last to first
        steps = np.arange(1, m)[None, None, :]
        room = (m - 1 - self.digits[:, ::-1])[:, :, None]
        ai = np.broadcast_to(np.arange(n)[:, None, None], (n, s, m - 1))
        keep = steps <= room
        return _read_only(np.stack([ai[keep], (ai + steps * strides)[keep]], axis=1))


@dataclass(frozen=True)
class CmcModel:
    """Transition matrices, coupling weights and the state space they act on.

    A model is valid by construction: it keeps read-only float copies of
    `transitions` and `weights`, and refuses, with a ModelError naming
    every violation, wrong shapes, transition entries outside [0, 1],
    columns that do not sum to 1, negative coupling weights and coupling
    rows that do not sum to 1.  A NaN entry fails these checks.
    """

    space: StateSpace
    transitions: np.ndarray  # shape (s, s, m, m), column-stochastic per (j, k)
    weights: np.ndarray  # shape (s, s), rows sum to 1

    def __post_init__(self):
        for name in ("transitions", "weights"):
            try:
                arr = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ModelError(f"{name}: not a numeric array: {exc}") from None
            object.__setattr__(self, name, _read_only(arr))
        s, m = self.space.num_sequences, self.space.num_states
        P, W = self.transitions, self.weights
        problems = []
        if P.shape != (s, s, m, m):
            problems.append(f"transitions have shape {P.shape}, expected {(s, s, m, m)}")
        if W.shape != (s, s):
            problems.append(f"weights have shape {W.shape}, expected {(s, s)}")
        if not problems:
            # each test is written so that a NaN fails it
            if not np.all((P >= -STOCHASTIC_TOL) & (P <= 1 + STOCHASTIC_TOL)):
                problems.append("transition entries outside [0, 1]")
            cols = P.sum(axis=2)  # cols[j, k, a]: the sum of column a of P[j][k]
            problems += [f"column {a} of P[{j}][{k}] sums to {cols[j, k, a]:.10g}"
                         for j, k, a in zip(*np.nonzero(~(abs(cols - 1.0) <= STOCHASTIC_TOL)))]
            if not np.all(W >= -STOCHASTIC_TOL):
                problems.append("negative coupling weight")
            rows = W.sum(axis=1)
            problems += [f"coupling row {j} sums to {rows[j]:.10g}"
                         for j in np.flatnonzero(~(abs(rows - 1.0) <= STOCHASTIC_TOL))]
        if problems:
            raise ModelError("invalid model: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# YAML files


def read_yaml_fields(path, kind: str, required, optional=()) -> dict:
    """The top-level mapping of YAML file `path` (empty if the file is), else a
    ModelError naming `kind` ("config", ...) and the file: for invalid YAML, a
    non-mapping, a required key absent or left empty, or any key not listed."""
    try:
        with open(path, "rb") as fh:  # PyYAML decodes, so bad bytes are a YAMLError
            doc = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ModelError(f"{kind}: '{path}' is not valid YAML: {exc}") from None
    fields = doc if isinstance(doc, dict) else {}
    problems = [] if doc is fields else [f"has a top-level {type(doc).__name__}, not a mapping"]
    problems += [f"missing field '{key}'" for key in required if fields.get(key) is None]
    unknown = [key for key in fields if key not in (*required, *optional)]
    if unknown:
        problems.append(f"unknown key(s) {unknown}; expected {(*required, *optional)}")
    if problems:
        raise ModelError(f"{kind}: '{path}' " + "; ".join(problems))
    return fields


def load_model(path) -> CmcModel:
    """Read a model from YAML; the reader, StateSpace and CmcModel refuse bad
    contents by name, and every such error names the file.

    Expected layout::

        num_sequences: 2
        num_states: 2
        orientation: column-stochastic
        transitions:        # s x s nested list of m x m matrices, row-major
          - [[[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.3, 0.7]]]
          - ...
        coupling:           # s x s, rows sum to 1
          - [0.75, 0.25]
          - [0.25, 0.75]
    """
    doc = read_yaml_fields(path, "model file",
                           ("num_sequences", "num_states", "transitions", "coupling"),
                           ("orientation",))
    try:
        if doc.get("orientation", "column-stochastic") != "column-stochastic":
            raise ModelError(f"orientation: unsupported value '{doc['orientation']}'")
        space = StateSpace(doc["num_sequences"], doc["num_states"])
        # matrices are written row-major with rows = next state, i.e. exactly
        # the column-stochastic layout used internally
        return CmcModel(space, doc["transitions"], doc["coupling"])
    except ModelError as exc:
        raise ModelError(f"model file: '{path}' {exc}") from None


def save_model(model: CmcModel, path) -> None:
    doc = {
        "num_sequences": model.space.num_sequences,
        "num_states": model.space.num_states,
        "orientation": "column-stochastic",
        "transitions": model.transitions.tolist(),
        "coupling": model.weights.tolist(),
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def two_user_model(lam: float, p: float = 0.3) -> CmcModel:
    """The symmetric two-sequence binary benchmark model.

    Every pairwise transition matrix is [[1-p, p], [p, 1-p]]; `lam` is the
    self-coupling weight (cross-coupling 1-lam).
    """
    if not 0.0 <= lam <= 1.0:
        raise ModelError(f"self-coupling weight must be in [0, 1], got {lam}")
    P = np.array([[1 - p, p], [p, 1 - p]])
    weights = [[lam, 1 - lam], [1 - lam, lam]]
    return CmcModel(StateSpace(2, 2), np.broadcast_to(P, (2, 2, 2, 2)), weights)
