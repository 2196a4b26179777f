"""Exact joint dynamics on the product state space.

The marginal evolution alone does not determine a joint law over
snapshots.  We use the minimal joint chain consistent with it: given the
current snapshot a = (a_1, ..., a_s), next-step states are conditionally
independent, with sequence j drawn from the mixture

    sum_k  lam[j, k] * P[j][k][. , a_k]

The kernels of a grid of models of one space (a sweep's lambdas) are built
as one (L, n, n) stack by `joint_kernels`, whose stationary laws come from
one routine over the stack (`_joint_stationaries`): a power iteration of at
most STATIONARY_STEPS steps on the positive kernels, and an exact solve on
the closed class of every other one, O(n^3) (about 1 s at n = 1024).
`aged_joint_grid` joins each age's lag groups by powers off one stack.
`joint_kernel` is the one-model call and `aged_joints` the one-kernel call;
each slice, and each law, has the bits it has alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .model import (
    DEFAULT_ENUMERATION_CAP,
    CmcModel,
    ModelError,
    StateSpace,
    integer_value,
    integer_values,
)
from .rng import generator, threshold_draws, threshold_table

STATIONARY = "stationary"
# The joint stationary law's power iteration stops at an l1 step of at most
# STATIONARY_TOL; a kernel still moving after STATIONARY_STEPS steps is
# solved exactly.  Every kernel the presets build stops within 100.
STATIONARY_TOL = 1e-13
STATIONARY_STEPS = 256


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


def _closed_class_law(K: np.ndarray) -> np.ndarray:
    """The stationary law of the n x n column-stochastic K, exactly 0 on its
    transient states, by Grassmann-Taksar-Heyman state reduction on its one
    closed class; a chain with more than one closed class is refused.

    GTH folds out the states one at a time, last first, and never
    subtracts, so every entry keeps a small relative error however slowly
    the chain mixes; it costs O(n^3), about 1 s at n = 1024.
    """
    count, comp = csgraph.connected_components(csr_matrix(K), connection="strong")
    to, frm = K.nonzero()
    leaving = comp[frm][comp[frm] != comp[to]]  # the classes a move leaves
    closed = np.setdiff1d(np.arange(count), leaving)
    if len(closed) > 1:
        raise ModelError(f"the joint chain has {len(closed)} closed classes of states, "
                         "so its stationary law is not unique")
    states = np.flatnonzero(comp == closed[0])
    A = K[np.ix_(states, states)]  # A[b, a]: the move a -> b within the class
    for k in range(len(states) - 1, 0, -1):
        A[k, :k] /= A[:k, k].sum()  # the moves into k, per move out of k
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    law = np.ones(len(states))
    for k in range(1, len(states)):
        law[k] = A[k, :k] @ law[:k]
    pi = np.zeros(len(K))
    pi[states] = law / law.sum()
    return pi


def _joint_stationaries(K: np.ndarray) -> np.ndarray:
    """The (L, n) stationary laws of the (L, n, n) stack K.

    A positive slice is irreducible and aperiodic.  The positive slices step
    from the uniform law at once, and each stops at its own l1 step within
    STATIONARY_TOL.  The stepped sub-stack is taken anew only when a slice
    stops, so a stack of positive slices is stepped with no copy.  Every
    other slice, one with a zero entry or one still moving after
    STATIONARY_STEPS steps, is solved by `_closed_class_law`.
    """
    L, n = K.shape[:2]
    out = np.empty((L, n))
    exact = K.reshape(L, -1).min(axis=1) <= 0
    live = np.flatnonzero(~exact)
    A, pi = (K[live] if exact.any() else K), np.full((len(live), n, 1), 1.0 / n)
    for _ in range(STATIONARY_STEPS if live.size else 0):
        nxt = A @ pi
        gaps = np.abs(nxt - pi).sum(axis=1)
        if gaps.min() <= STATIONARY_TOL:
            done = gaps[:, 0] <= STATIONARY_TOL
            out[live[done]] = nxt[done, :, 0]
            live, A, nxt = live[~done], K[live[~done]], nxt[~done]
            if not live.size:
                break
        pi = nxt
    for l in [*np.flatnonzero(exact), *live]:
        out[l] = _closed_class_law(K[l])
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
    bit.  The stationary laws come from one `_joint_stationaries` call over
    the stack: a positive kernel that settles within STATIONARY_STEPS steps
    of the power iteration keeps its bits, and every other one is solved on
    its closed class by GTH state reduction, O(n^3), about 1 s at n = 1024.
    A kernel with more than one closed class is refused.
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

    z_i is the state of sequence i at `age[i]` steps before x.  An age's
    distinct lags split the sequences into groups, recorded oldest first
    from pi and joined by one product with K^gap each, the youngest straight
    into K^min(age), which then holds the law (`_join`).  One `_powers` call
    gives one slot per age and one per other gap, so any age costs
    O(log max(age)) products; a uniform age's K^t is scaled by pi in place.
    """
    space = kernels[0].space
    digits = (space.num_states,) * space.num_sequences
    groups = [[(a, [i for i, b in enumerate(age) if b == a]) for a in sorted(set(age))[::-1]]
              for age in (validate_ages(age, space) for age in ages)]  # (lag, sequences)
    ts = [lags[-1][0] for lags in groups]  # each age's min(age), then the other gaps
    ts += sorted({a - b for lags in groups for (a, _), (b, _) in zip(lags, lags[1:])} - set(ts))
    powers = _powers(_stacked([kern.matrix for kern in kernels]), ts)
    pi = _stacked([kern.stationary for kern in kernels])[:, :, None]
    L, n = pi.shape[:2]
    # every older group is joined before any law overwrites a power it reads
    dists = []
    for lags in groups:
        dist = pi
        for (a, seqs), (b, _) in zip(lags, lags[1:]):
            dist = _join(powers[ts.index(a - b)], dist, seqs, space).reshape(L, n, -1)
        dists.append(dist)
    for J, lags, dist in zip(powers, groups, dists):
        if len(lags) == 1:  # J[l, z, x] = pi[z] * K^t[x, z], scaled in place
            J *= dist.transpose(0, 2, 1)
            J[...] = J.transpose(0, 2, 1)  # numpy copies J first, as the two overlap
            continue
        # the join's z digits are in recorded order, J's in sequence order
        recorded = [i for _, seqs in lags for i in seqs]
        J.reshape((L,) + digits + (n,))[...] = _join(J, dist, lags[-1][1], space).reshape(
            (L, n) + digits).transpose(0, *[2 + recorded.index(i) for i in range(len(digits))], 1)
    return [[AgedLaw(space, J) for J in powers[: len(groups), l]] for l in range(L)]


def _join(P: np.ndarray, dist: np.ndarray, seqs: list, space: StateSpace) -> np.ndarray:
    """Record sequences `seqs` and step by the (L, n, n) powers P.

    dist[l, w, r] is the mass of current state w and recorded code r; the
    result, an (L, n, R, m^g) view, is out[l, x, r, c], the sum of
    P[l, x, w] * dist[l, w, r] over the w whose code at `seqs` is c, one
    product per c, for `seqs` short of every sequence."""
    L, n, R = dist.shape
    g = space.num_states ** len(seqs)
    rest = [i for i in range(space.num_sequences) if i not in seqs]
    order = np.argsort(space.subset_code(seqs + rest))  # w by (code at seqs, code at rest)
    # `take` copies in C order: each product has one layout, so its bits, for any L
    cols = P.take(order, axis=2).reshape(L, n, g, n // g).transpose(0, 2, 1, 3)
    return (cols @ dist.take(order, axis=1).reshape(L, g, n // g, R)).transpose(0, 2, 3, 1)


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
