"""Exact joint dynamics on the product state space.

The marginal evolution alone does not determine a joint law over
snapshots.  We use the minimal joint chain consistent with it: given the
current snapshot a = (a_1, ..., a_s), next-step states are conditionally
independent, with sequence j drawn from the mixture

    sum_k  lam[j, k] * P[j][k][. , a_k]

The kernels of a grid of models of one space (a sweep's lambdas) are built
as one (L, n, n) stack by `joint_kernels`, whose stationary laws come from
one power iteration over the stack, and `aged_joint_grid` reads every
uniform age of every kernel off one stack of powers.  `joint_kernel` is
the one-model call and `aged_joints` the one-kernel call; each slice has
the bits it has alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_CAP,
    PERIOD_CHECK_AFTER,
    CmcModel,
    ModelError,
    StateSpace,
    _power_iteration,
    integer_value,
    integer_values,
)
from .rng import generator, threshold_draws, threshold_table

STATIONARY = "stationary"
# The joint stationary law's power iteration stops at an l1 step of at most
# STATIONARY_TOL and gives up after STATIONARY_MAX_ITER steps.
STATIONARY_TOL = 1e-13
STATIONARY_MAX_ITER = 10**6


@dataclass(frozen=True)
class JointKernel:
    """Column-stochastic kernel over joint snapshots plus its stationary law,
    indexed by the joint encoding of `space`."""

    space: StateSpace
    matrix: np.ndarray  # (m^s, m^s), column-stochastic
    stationary: np.ndarray  # (m^s,)


def _stacked(arrays: list) -> np.ndarray:
    """The arrays stacked on a new first axis; one array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _joint_stationary(K: np.ndarray) -> np.ndarray:
    n = K.shape[0]
    pi = _power_iteration(K, np.full(n, 1.0 / n), STATIONARY_TOL, STATIONARY_MAX_ITER)
    if pi is None:
        raise ModelError("joint stationary distribution did not converge")
    return pi


def _joint_stationaries(K: np.ndarray) -> np.ndarray:
    """The (L, n) stationary laws of the (L, n, n) stack K, each with the
    bits `_joint_stationary` gives it alone.

    The whole stack steps at once, and each slice stops at its own step
    within STATIONARY_TOL.  `_power_iteration` looks for a period only from
    step PERIOD_CHECK_AFTER on, so a slice still running then is re-run
    alone by `_joint_stationary`, which looks, and a periodic slice is
    refused as it is alone.  The stepped sub-stack is taken anew only when
    a slice stops.  A stack of one is solved by `_joint_stationary`
    itself, which steps K with no copy and less work per step.
    """
    if len(K) == 1:
        return _joint_stationary(K[0])[None]
    L, n = K.shape[:2]
    out = np.empty((L, n))
    live, A, pi = np.arange(L), K, np.full((L, n), 1.0 / n)
    for _ in range(PERIOD_CHECK_AFTER):
        nxt = np.matmul(A, pi[:, :, None])[:, :, 0]
        done = np.abs(nxt - pi).sum(axis=1) <= STATIONARY_TOL
        if done.any():
            out[live[done]] = nxt[done]
            live, A, nxt = live[~done], K[live[~done]], nxt[~done]
            if not live.size:
                return out
        pi = nxt
    for l in live:
        out[l] = _joint_stationary(K[l])
    return out


def joint_kernel(model: CmcModel, cap: int = DEFAULT_ENUMERATION_CAP) -> JointKernel:
    """The exact product-space kernel of a model; see `joint_kernels`."""
    return joint_kernels([model], cap)[0]


def joint_kernels(models, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """The exact product-space kernels of `models`, all of one space, built
    as one (L, n, n) stack, whose slices their `matrix` fields are.

    Refuses spaces larger than `cap` joint states (a sweep's `cap` key or
    `--cap` flag).

    K[b, a] is the product over sequences j of the conditional law
    L_j[b_j, a] = sum_k lam[j, k] P[j][k][b_j, a_k], built one sequence at
    a time for every model at once: after sequence j the rows enumerate
    (b_0, ..., b_j).  A zero weight adds a zero term, which changes no
    bit.  The stationary laws come from one power iteration over the stack
    (`_joint_stationaries`).
    """
    space = models[0].space
    if any(model.space != space for model in models):
        raise ModelError("joint_kernels: the models must share one state space")
    space.check_cap(cap)
    s, digits = space.num_sequences, space.digits
    L, n = len(models), len(digits)
    P = _stacked([model.transitions for model in models])
    W = _stacked([model.weights for model in models])[:, :, :, None, None]
    K = np.ones((L, 1, n))
    for j in range(s):
        law = np.zeros((L, space.num_states, n))
        for k in range(s):
            law += W[:, j, k] * np.take(P[:, j, k], digits[:, k], axis=-1)
        K = (K[:, :, None, :] * law[:, None, :, :]).reshape(L, -1, n)
    return [JointKernel(space, matrix, pi) for matrix, pi in zip(K, _joint_stationaries(K))]


def validate_ages(age, space: StateSpace) -> tuple:
    """The age vector as a tuple of one nonnegative int per sequence.

    A scalar (or length-1) age applies to every sequence.  Ages must be
    integers by the rule of `integer_values`: 1.5, 2.0, True and "2" are
    not ages.
    """
    shape, ages = integer_values(age, "ages")
    s = space.num_sequences
    if shape == (1,) and s > 1:
        shape, ages = (s,), ages * s
    if shape != (s,):
        raise ModelError(f"age vector has shape {shape}, expected ({s},)")
    if min(ages) < 0:
        raise ModelError(f"ages must be nonnegative, got {ages}")
    return tuple(ages)


def state_values(space: StateSpace, query) -> np.ndarray:
    """f[i] = query.evaluate(space.states[i]): the query on every joint state."""
    return np.array([query.evaluate(x) for x in space.states])


@dataclass(frozen=True)
class AgedLaw:
    """The joint law J[z, x] of (aged snapshot z, current snapshot x) for one
    (kernel, age), held in C order, with its column totals, the law of x.

    Its prior is the stationary law: the aged snapshot's trajectory starts
    from the kernel's stationary distribution, as the paper's bounds assume.
    Every consumer reads the same J and totals, so their sums round alike.
    """

    space: StateSpace
    joint: np.ndarray  # (m^s, m^s)
    totals: np.ndarray = field(init=False)

    def __post_init__(self):
        # C order fixes how every sum over J rounds (tests/test_vectorised.py
        # pins it against the loop form)
        object.__setattr__(self, "joint", np.ascontiguousarray(self.joint))
        object.__setattr__(self, "totals", self.joint.sum(axis=0))

    def check_conditional(self) -> None:
        """Refuse, by name, a current state of zero mass."""
        dead = np.flatnonzero(self.totals <= 0)
        if dead.size:
            raise ModelError(
                f"cannot condition on state {self.space.states[dead[0]]}: "
                "zero probability under the stationary law"
            )

    def conditional(self) -> np.ndarray:
        """B[z, x] = Pr[aged snapshot z | current snapshot x], formed anew on
        each call; see `check_conditional`."""
        self.check_conditional()
        return self.joint / self.totals


def aged_joint(kernel: JointKernel, age) -> AgedLaw:
    """The aged law of `kernel` at `age`; see `aged_joint_grid`."""
    return aged_joints(kernel, [age])[0]


def aged_joints(kernel: JointKernel, ages) -> list:
    """The aged law of `kernel` at each age of `ages`; see `aged_joint_grid`."""
    return aged_joint_grid([kernel], ages)[0]


def _powers(K: np.ndarray, ts) -> np.ndarray:
    """The stack of K^t for each t of `ts`, for one n x n K or for an
    (L, n, n) stack of them: out[i] holds K^ts[i], of K's shape.  Each
    power has `np.linalg.matrix_power`'s product order, so its bits: eye at
    t = 0, K at 1, K@K at 2, (K@K)@K at 3 and otherwise the squares
    K^(2^i) of t's binary digits multiplied left to right, ascending.

    The squares are formed once for the whole list, in ascending order, and
    each is multiplied into every power that takes it before the next is
    formed, so beyond the stack at most two arrays of K's shape are alive,
    as in `matrix_power` itself.
    """
    out = np.empty((len(ts),) + K.shape)
    for power, t in zip(out, ts):
        if t == 0:
            power[...] = np.eye(K.shape[-1])
    square = K  # K^(2^i)
    for i in range(max(ts, default=0).bit_length()):
        if i:
            square = square @ square
        for power, t in zip(out, ts):
            if not t >> i & 1:
                continue
            if not t & ((1 << i) - 1):  # t's lowest digit
                power[...] = square
            elif t == 3:  # matrix_power's shortcut: (K@K)@K
                np.matmul(square, power, out=power)
            else:
                np.matmul(power, square, out=power)
    return out


def aged_joint_grid(kernels, ages) -> list:
    """The aged laws of every kernel of `kernels` (all of one space) at every
    age of `ages`: one list per kernel, in order, of one law per age.

    z_i is the state of sequence i at `age[i]` steps before x.  With a
    uniform age t the law is pi[z] * K^t[x, z], and every uniform age of
    every kernel reads its K^t off one stack of powers (`_powers`) of the
    kernels' stack, which then holds the laws in place; heterogeneous ages
    are handled by forward dynamic programming over the trajectory,
    recording each coordinate when its lag is reached, one law at a time.
    """
    space = kernels[0].space
    ages = [validate_ages(age, space) for age in ages]
    uniform = [i for i, age in enumerate(ages) if len(set(age)) == 1]
    # powers[u, l] is kernel l's power at the u-th uniform age
    powers = _powers(_stacked([kern.matrix for kern in kernels]), [ages[i][0] for i in uniform])
    powers *= _stacked([kern.stationary for kern in kernels])[:, None, :]
    grid = []
    for l, kern in enumerate(kernels):
        laws = [None] * len(ages)
        for i, J in zip(uniform, powers[:, l]):
            J[...] = J.T.copy()  # J[z, x] in C order, one n x n at a time
            laws[i] = AgedLaw(space, J)
        for i, age in enumerate(ages):
            if laws[i] is None:
                laws[i] = AgedLaw(space, _mixed_aged_joint(kern, np.array(age)))
        grid.append(laws)
    return grid


def _mixed_aged_joint(kernel: JointKernel, ages: np.ndarray) -> np.ndarray:
    """J[z, x] at heterogeneous ages by forward dynamic programming."""
    n = kernel.matrix.shape[0]
    T = int(ages.max())
    s, m = kernel.space.num_sequences, kernel.space.num_states
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
            code = kernel.space.subset_code(seqs)
            out = np.zeros((n, dist.shape[1], reps))
            out[np.arange(n), :, code] = dist
            dist = out.reshape(n, -1)
            recorded.extend(seqs)
        if step < T:
            dist = kernel.matrix @ dist
    # J[z, x] with the recorded coordinates back in sequence order
    J = dist.T.reshape((m,) * s + (n,)).transpose(list(np.argsort(recorded)) + [s])
    return J.reshape(n, n)


def sample_trajectory(kernel: JointKernel, initial, horizon: int, seed: int) -> np.ndarray:
    """Sample `horizon` joint snapshots; returns an array of shape (T, s).

    `initial` is a joint state tuple, an int joint index, or the string
    "stationary" to draw the start from the stationary law.  Deterministic
    given seed: each state is drawn from one uniform by `rng.threshold_draws`' rule.
    """
    horizon = integer_value(horizon, "horizon", 1)
    rng = generator(seed)
    if isinstance(initial, str):
        if initial != STATIONARY:
            raise ModelError(f"unknown initial distribution '{initial}'")
        cur = int(threshold_draws(threshold_table(kernel.stationary), 0, rng.random()))
    elif np.isscalar(initial):
        (cur,) = integer_values(initial, "initial state index")[1]
        if not 0 <= cur < kernel.space.product_size:
            raise ModelError(f"initial state index {cur} out of range")
    else:
        cur = kernel.space.index(initial)
    table = threshold_table(kernel.matrix)
    path = [cur]
    for u in rng.random(horizon - 1).tolist():
        path.append(cur := bisect_right(table[cur], u))
    return kernel.space.digits[path].astype(np.int64, copy=False)
