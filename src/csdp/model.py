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

from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy.sparse import csgraph, csr_matrix

STOCHASTIC_TOL = 1e-9
# Joint states above which the dense product-space kernel is refused.  An
# n x n float64 kernel takes 8 n^2 bytes (512 MiB at the cap), and building
# it and its aged joint law holds about three such arrays at once.
DEFAULT_ENUMERATION_CAP = 2**13


class ModelError(ValueError):
    """Raised for structurally invalid models or inputs."""


@dataclass(frozen=True)
class StateSpace:
    num_sequences: int
    num_states: int

    def __post_init__(self):
        if self.num_sequences < 1:
            raise ModelError(f"need at least one sequence, got {self.num_sequences}")
        if self.num_states < 2:
            raise ModelError(f"need at least two states, got {self.num_states}")

    @property
    def product_size(self) -> int:
        # Python ints are exact, so this cannot overflow.
        return self.num_states**self.num_sequences

    def check_cap(self, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
        n = self.product_size
        if n > cap:
            raise ModelError(
                f"product state space has {n} elements, above the enumeration cap "
                f"{cap}: its dense {n} x {n} kernel needs n^2 * 8 = {n * n * 8} bytes; "
                "use the sampling path instead"
            )


@dataclass(frozen=True)
class CmcModel:
    """Transition matrices, coupling weights and the state space they act on."""

    space: StateSpace
    transitions: np.ndarray  # shape (s, s, m, m), column-stochastic per (j, k)
    weights: np.ndarray  # shape (s, s), rows sum to 1

    def __post_init__(self):
        object.__setattr__(self, "transitions", np.asarray(self.transitions, float))
        object.__setattr__(self, "weights", np.asarray(self.weights, float))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.ok


def validate_model(model: CmcModel) -> ValidationReport:
    """Check shapes, column stochasticity and coupling-row normalization."""
    s, m = model.space.num_sequences, model.space.num_states
    problems = []
    if model.transitions.shape != (s, s, m, m):
        problems.append(
            f"transitions have shape {model.transitions.shape}, expected {(s, s, m, m)}"
        )
    if model.weights.shape != (s, s):
        problems.append(f"weights have shape {model.weights.shape}, expected {(s, s)}")
    if problems:
        return ValidationReport(False, tuple(problems))

    if np.any(model.transitions < -STOCHASTIC_TOL) or np.any(
        model.transitions > 1 + STOCHASTIC_TOL
    ):
        problems.append("transition entries outside [0, 1]")
    for j in range(s):
        for k in range(s):
            cols = model.transitions[j, k].sum(axis=0)
            for a in np.nonzero(np.abs(cols - 1.0) > STOCHASTIC_TOL)[0]:
                problems.append(f"column {a} of P[{j}][{k}] sums to {cols[a]:.10g}")
    if np.any(model.weights < -STOCHASTIC_TOL):
        problems.append("negative coupling weight")
    rows = model.weights.sum(axis=1)
    for j in np.nonzero(np.abs(rows - 1.0) > STOCHASTIC_TOL)[0]:
        problems.append(f"coupling row {j} sums to {rows[j]:.10g}")
    return ValidationReport(not problems, tuple(problems))


def _require_valid(model: CmcModel) -> None:
    report = validate_model(model)
    if not report.ok:
        raise ModelError("invalid model: " + "; ".join(report.violations))


def build_block_matrix(model: CmcModel) -> np.ndarray:
    """The (s*m) x (s*m) block matrix Q with block (j, k) = lam[j, k] * P[j][k]."""
    _require_valid(model)
    s = model.space.num_sequences
    blocks = [
        [model.weights[j, k] * model.transitions[j, k] for k in range(s)]
        for j in range(s)
    ]
    return np.block(blocks)


def as_blocks(pi, space: StateSpace) -> np.ndarray:
    """Coerce a distribution (stacked or per-sequence) to shape (s, m) and check it."""
    s, m = space.num_sequences, space.num_states
    arr = np.asarray(pi, float)
    if arr.shape == (s * m,):
        arr = arr.reshape(s, m)
    if arr.shape != (s, m):
        raise ModelError(f"distribution has shape {np.shape(pi)}, expected {(s, m)} or {(s * m,)}")
    if np.any(arr < -STOCHASTIC_TOL):
        raise ModelError("negative probability in distribution vector")
    sums = arr.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)[0]
    if bad.size:
        raise ModelError(f"block {bad[0]} of distribution sums to {sums[bad[0]]:.10g}")
    return arr


def evolve_distribution(model: CmcModel, pi) -> np.ndarray:
    """One step of the marginal evolution; returns per-sequence blocks (s, m)."""
    _require_valid(model)
    blocks = as_blocks(pi, model.space)
    s = model.space.num_sequences
    out = np.zeros_like(blocks)
    for j in range(s):
        for k in range(s):
            out[j] += model.weights[j, k] * (model.transitions[j, k] @ blocks[k])
    return out


def _strongly_connected(P: np.ndarray) -> bool:
    pattern = csr_matrix((P.T > 0).astype(np.int8))
    n_comp, _ = csgraph.connected_components(pattern, directed=True, connection="strong")
    return n_comp == 1


def stationary_distribution(
    model: CmcModel, tol: float = 1e-10, max_iter: int = 10**5
) -> np.ndarray:
    """Stationary stacked distribution of Q by power iteration from uniform.

    Fails loudly on reducible transition matrices and on non-convergence
    (periodic chains oscillate instead of converging and are reported as
    such rather than Cesaro-averaged).
    """
    _require_valid(model)
    s, m = model.space.num_sequences, model.space.num_states
    for j in range(s):
        for k in range(s):
            if model.weights[j, k] > 0 and not _strongly_connected(model.transitions[j, k]):
                raise ModelError(f"P[{j}][{k}] is reducible; stationary law is not unique")
    Q = build_block_matrix(model)
    pi = _power_iteration(Q, np.full(s * m, 1.0 / m), tol, max_iter)
    if pi is None:
        raise ModelError(f"power iteration did not converge within {max_iter} iterations")
    return pi.reshape(s, m)


def _power_iteration(A: np.ndarray, pi: np.ndarray, tol: float, max_iter: int):
    """Iterate pi <- A @ pi until the l1 step is at most tol; None if it never is.

    A periodic chain oscillates instead of converging.  It is reported at
    once: its step stops shrinking (successive steps agree to 1e-12
    relative, with no absolute slack, so a slowly converging aperiodic
    chain is not taken for one) while every second iterate returns to where
    it was.
    """
    prev_gap = None
    for _ in range(int(max_iter)):
        nxt = A @ pi
        gap = np.abs(nxt - pi).sum()
        if gap <= tol:
            return nxt
        if prev_gap is not None and gap > 100 * tol and abs(gap - prev_gap) <= 1e-12 * prev_gap:
            if np.abs(A @ nxt - pi).sum() < tol:
                raise ModelError("power iteration oscillates: the chain appears periodic")
        prev_gap = gap
        pi = nxt
    return None


@dataclass(frozen=True)
class SpectralReport:
    dominant_modulus: float
    second_modulus: float
    stable: bool  # all moduli <= 1 (+tolerance)
    has_gap: bool  # second modulus strictly below 1


def spectral_check(model: CmcModel, tol: float = 1e-6) -> SpectralReport:
    """Eigenvalue moduli of the block matrix Q."""
    _require_valid(model)
    try:
        eig = np.linalg.eigvals(build_block_matrix(model))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise ModelError(f"eigenvalue computation failed: {exc}") from exc
    mods = np.sort(np.abs(eig))[::-1]
    second = float(mods[1]) if mods.size > 1 else 0.0
    return SpectralReport(
        dominant_modulus=float(mods[0]),
        second_modulus=second,
        stable=bool(mods[0] <= 1 + tol),
        has_gap=bool(second < 1 - tol),
    )


# ---------------------------------------------------------------------------
# model files


def load_model(path) -> CmcModel:
    """Read a model from YAML, validating on load.

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
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    for key in ("num_sequences", "num_states", "transitions", "coupling"):
        if key not in doc:
            raise ModelError(f"model file missing field '{key}'")
    orientation = doc.get("orientation", "column-stochastic")
    if orientation != "column-stochastic":
        raise ModelError(f"orientation: unsupported value '{orientation}'")
    space = StateSpace(int(doc["num_sequences"]), int(doc["num_states"]))
    s, m = space.num_sequences, space.num_states
    trans = np.asarray(doc["transitions"], float)
    if trans.shape != (s, s, m, m):
        raise ModelError(f"transitions: shape {trans.shape} does not match ({s}, {s}, {m}, {m})")
    # matrices are written row-major with rows = next state, i.e. exactly the
    # column-stochastic layout used internally
    model = CmcModel(space, trans, np.asarray(doc["coupling"], float))
    report = validate_model(model)
    if not report.ok:
        raise ModelError(f"model file invalid: {report.violations[0]}")
    return model


def save_model(model: CmcModel, path) -> None:
    _require_valid(model)
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
    transitions = np.broadcast_to(P, (2, 2, 2, 2)).copy()
    weights = np.array([[lam, 1 - lam], [1 - lam, lam]])
    return CmcModel(StateSpace(2, 2), transitions, weights)
