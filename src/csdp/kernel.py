"""Exact joint dynamics on the product state space.

The marginal evolution alone does not determine a joint law over
snapshots.  We use the minimal joint chain consistent with it: given the
current snapshot a = (a_1, ..., a_s), next-step states are conditionally
independent, with sequence j drawn from the mixture

    sum_k  lam[j, k] * P[j][k][. , a_k]

Backward (aged) conditionals are always evaluated at stationarity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_CAP,
    CmcModel,
    ModelError,
    StateSpace,
    _power_iteration,
    _require_valid,
)
from .rng import generator

STATIONARY = "stationary"


@dataclass(frozen=True)
class JointKernel:
    """Column-stochastic kernel over joint snapshots plus its stationary law.

    ``states[i]`` is the tuple of per-sequence states encoded by index i
    (big-endian: the last sequence varies fastest).
    """

    space: StateSpace
    matrix: np.ndarray  # (m^s, m^s), column-stochastic
    states: tuple
    stationary: np.ndarray  # (m^s,)

    def index(self, state) -> int:
        m, s = self.space.num_states, self.space.num_sequences
        state = tuple(int(v) for v in state)
        if len(state) != s or any(not 0 <= v < m for v in state):
            raise ModelError(f"{state} is not a valid joint state for s={s}, m={m}")
        idx = 0
        for v in state:
            idx = idx * m + v
        return idx


def _digits(s: int, m: int) -> np.ndarray:
    """(m^s, s) array whose row i holds the per-sequence states of joint index i."""
    return np.arange(m**s)[:, None] // m ** np.arange(s - 1, -1, -1) % m


def _joint_stationary(K: np.ndarray, tol: float = 1e-13, max_iter: int = 10**6) -> np.ndarray:
    n = K.shape[0]
    pi = _power_iteration(K, np.full(n, 1.0 / n), tol, max_iter)
    if pi is None:
        raise ModelError("joint stationary distribution did not converge")
    return pi


def joint_kernel(model: CmcModel, cap: int = DEFAULT_ENUMERATION_CAP) -> JointKernel:
    """Build the exact product-space kernel of a model.

    Refuses spaces larger than `cap` joint states; callers with big models
    should fall back to trajectory sampling.

    K[b, a] is the product over sequences j of the conditional law
    L_j[b_j, a] = sum_k lam[j, k] P[j][k][b_j, a_k], built one sequence at
    a time: after sequence j the rows enumerate (b_0, ..., b_j).
    """
    _require_valid(model)
    model.space.check_cap(cap)
    s, m = model.space.num_sequences, model.space.num_states
    digits = _digits(s, m)
    n = len(digits)
    K = np.ones((1, n))
    for j in range(s):
        law = np.zeros((m, n))
        for k in range(s):
            if model.weights[j, k]:
                law += model.weights[j, k] * model.transitions[j, k][:, digits[:, k]]
        K = (K[:, None, :] * law[None, :, :]).reshape(-1, n)
    states = tuple(itertools.product(range(m), repeat=s))
    return JointKernel(model.space, K, states, _joint_stationary(K))


def validate_ages(age, space: StateSpace) -> tuple:
    """The age vector as a tuple of one nonnegative int per sequence.

    A scalar (or length-1) age applies to every sequence.  Tuples and lists
    of ints are checked in plain Python; any other input is read through
    ``np.asarray(age)``, so its shape is numpy's, and refused unless it
    holds integers: 1.5, 2.0, True and "2" are not ages.
    """
    if isinstance(age, (tuple, list)) and all(type(a) is int for a in age):
        shape, ages = (len(age),), list(age)
    else:
        arr = np.atleast_1d(np.asarray(age))
        bools = isinstance(age, (tuple, list)) and any(
            isinstance(a, (bool, np.bool_)) for a in age)
        if arr.dtype.kind not in "iu" or bools:
            raise ModelError(f"ages must be integers, got {age!r}")
        shape, ages = arr.shape, arr.tolist()
    s = space.num_sequences
    if shape == (1,) and s > 1:
        shape, ages = (s,), ages * s
    if shape != (s,):
        raise ModelError(f"age vector has shape {shape}, expected ({s},)")
    if min(ages) < 0:
        raise ModelError(f"ages must be nonnegative, got {ages}")
    return tuple(ages)


def state_values(kernel: JointKernel, query) -> np.ndarray:
    """f[i] = query.evaluate(kernel.states[i]): the query on every joint state."""
    return np.array([query.evaluate(x) for x in kernel.states])


def aged_joint(kernel: JointKernel, age) -> np.ndarray:
    """Joint law J[z, x] of (aged snapshot z, current snapshot x) at stationarity.

    z_i is the state of sequence i at `age[i]` steps before x.  With a
    uniform age the law is pi[z] * K^t[x, z]; heterogeneous ages are
    handled by forward dynamic programming over the trajectory, recording
    each coordinate when its lag is reached.
    """
    ages = np.array(validate_ages(age, kernel.space))
    n = kernel.matrix.shape[0]
    T = int(ages.max())
    if np.all(ages == ages[0]):
        Kt = np.linalg.matrix_power(kernel.matrix, T)
        return (Kt * kernel.stationary[None, :]).T

    s, m = kernel.space.num_sequences, kernel.space.num_states
    digits = _digits(s, m)
    # dist[w, r] = Pr[current joint state w, recorded coordinates r], where r
    # is the big-endian code of the coordinates recorded so far, in the
    # order they were recorded
    dist = kernel.stationary[:, None]  # (n, 1): nothing recorded yet
    recorded = []
    for step in range(T + 1):
        seqs = [i for i in range(s) if T - ages[i] == step]
        if seqs:
            # append the codes of w's coordinates `seqs` as the lowest digits of r
            reps = m ** len(seqs)
            code = digits[:, seqs] @ m ** np.arange(len(seqs) - 1, -1, -1)
            out = np.zeros((n, dist.shape[1], reps))
            out[np.arange(n), :, code] = dist
            dist = out.reshape(n, -1)
            recorded.extend(seqs)
        if step < T:
            dist = kernel.matrix @ dist
    # J[z, x] with the recorded coordinates back in sequence order.  J is
    # returned in C order, which fixes how sums over it round
    # (tests/test_vectorised.py pins it against the loop form)
    J = dist.T.reshape((m,) * s + (n,)).transpose(list(np.argsort(recorded)) + [s])
    return np.ascontiguousarray(J).reshape(n, n)


def backward_conditional(kernel: JointKernel, age) -> np.ndarray:
    """Conditional table B[z, x] = Pr[aged snapshot z | current snapshot x].

    Columns are probability vectors.  Conditioning states with zero mass
    under the stationary law are rejected by name.
    """
    J = aged_joint(kernel, age)
    px = J.sum(axis=0)
    dead = np.nonzero(px <= 0)[0]
    if dead.size:
        raise ModelError(
            f"cannot condition on state {kernel.states[dead[0]]}: "
            "zero probability under the stationary law"
        )
    return J / px[None, :]


def sample_trajectory(kernel: JointKernel, initial, horizon: int, seed: int) -> np.ndarray:
    """Sample `horizon` joint snapshots; returns an array of shape (T, s).

    `initial` is a joint state tuple/index, or the string "stationary" to
    draw the start from the stationary law.  Deterministic given seed.
    """
    if horizon < 1:
        raise ModelError(f"horizon must be >= 1, got {horizon}")
    rng = generator(seed)
    n = kernel.matrix.shape[0]
    if isinstance(initial, str):
        if initial != STATIONARY:
            raise ModelError(f"unknown initial distribution '{initial}'")
        # a draw above a cumsum that rounds below 1 would index past the end
        cur = min(int(np.searchsorted(np.cumsum(kernel.stationary), rng.random(),
                                      side="right")), n - 1)
    elif np.isscalar(initial):
        cur = int(initial)
        if not 0 <= cur < n:
            raise ModelError(f"initial state index {cur} out of range")
    else:
        cur = kernel.index(initial)
    cum = np.cumsum(kernel.matrix, axis=0)
    out = np.empty((horizon, kernel.space.num_sequences), dtype=np.int64)
    out[0] = kernel.states[cur]
    for t in range(1, horizon):
        cur = int(np.searchsorted(cum[:, cur], rng.random(), side="right"))
        cur = min(cur, n - 1)
        out[t] = kernel.states[cur]
    return out
