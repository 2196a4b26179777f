"""Leakage bounds for correlated-sequence releases, plus a validating oracle.

Three analytic quantities drive everything:

* Delta_k -- the aged total-variation distance: worst-case TV between the
  conditional laws of the aged snapshot given two neighbouring current
  snapshots, maximized over the changed user together with its correlated
  partners (subsets of size k, 1 <= k <= s).
* Delta_bar -- the bounded aged correlation driving the tight budget: a
  Hamming-cost optimal-transport distance between the same backward
  conditionals.  Moving one aged coordinate costs one unit of one-record
  sensitivity in the release, so the transport value bounds the per-unit
  likelihood-ratio exposure; it reduces to the plain TV distance for a
  single sequence and to 1 at age zero.  Each neighbour pair whose
  conditionals differ, at each age, is one block.  Closed-form bounds
  lo <= W1 <= hi settle most blocks: lo from two Kantorovich-Rubinstein
  potentials (the TV and the summed coordinate-marginal TVs), hi from an
  explicit flow that collapses one coordinate at a time onto the target
  state that is cheapest for the block.  With tau the age's largest lo, a
  block with hi <= tau * (1 + 1e-12) is settled; only the others get an
  LP.  Those go to the Kantorovich-Rubinstein dual on the Hamming graph
  (potentials that change by at most 1 across each of the
  E = n*s*(m-1)/2 neighbour edges): one block of n potentials and 2*E rows
  each, its first potential fixed at 0 so that rounding cannot make the LP
  unbounded, packed in order into block-diagonal LPs of at most about a
  thousand potentials.  Packing saves the solver's per-call overhead,
  which dominates tiny LPs; the bound on size keeps the solver's time,
  which grows faster than the LP, from dominating large ones.  Each age's
  Delta_bar is an LP value or tau, and tau is within the 1e-12 relative
  slack of the exact maximum whenever it is returned.  On the two-user
  presets every block settles, so they solve no LP.
* d(k) -- the query's k-sensitivity.

The certified loose budget is ln(1 + Delta_k*(e^{d(k) eps_c} - 1)); its
tangent line at eps_c = 0, d(k)*Delta_k*eps_c, lies below it and is not a
bound.  Nor is the paper's tight budget Delta_bar*eps_c: it is the small-eps
slope of the leakage and falls below the pure-DP leakage at some (age, eps_c).

An oracle cross-checks the bounds with the true pure-DP leakage.
`exact_oracles` gives, for a list of laws at a whole eps grid in one call,
the largest log-ratio of the release's output densities over neighbouring
snapshots.  That supremum is attained at one of the query's distinct
values, so the oracle reads the densities there, in closed form.  The
acceptance gate checks the half-line probabilities of the same law against
sampled releases (criterion 8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .kernel import (JointKernel, _joint_stationary, aged_joint, aged_joints, joint_kernel,
                     state_values)
from .mechanism import noise_scale
from .model import CmcModel, ModelError, StateSpace, check_positive, integer_value, two_user_model
from .queries import QuerySpec, builtin_queries, k_sensitivity


@dataclass(frozen=True)
class LeakageParams:
    age: tuple
    eps_c: float
    degree: int
    query: QuerySpec

    def __post_init__(self):
        check_positive("eps_c", self.eps_c)
        object.__setattr__(self, "degree", self.query.space.check_degree(self.degree))


# Entries of backward conditionals, and of pair differences, that
# `_max_pair_tvs` holds at once, or one law's n x n if that is more.
_TV_ENTRIES = 1 << 16


def _max_pair_tvs(Ms: list, totals: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """For each matrix M of `Ms`, with column totals in the matching row of
    `totals`, the largest TV distance over the given column pairs between
    the columns of M divided by their totals.

    Matrices are taken in groups whose conditionals fill at most the entry
    budget, and each group's (matrix, pair) rows in chunks whose two
    temporaries together fill at most the same budget; at one matrix of
    n^2 >= `_TV_ENTRIES` entries that is one n x n for each.
    """
    ms = totals.shape[1]
    budget = max(ms * ms, _TV_ENTRIES)
    group = budget // (ms * ms)
    return 0.5 * np.concatenate([
        _group_max_pair_tvs(Ms[lo : lo + group], totals[lo : lo + group], pairs, budget)
        for lo in range(0, len(Ms), group)])


def _group_max_pair_tvs(Ms: list, totals: np.ndarray, pairs: np.ndarray,
                        budget: int) -> np.ndarray:
    """The largest l1 distance of each matrix of one group: twice its TV."""
    ms = totals.shape[1]
    M = Ms[0][None] if len(Ms) == 1 else np.stack(Ms)
    Bt = np.empty(M.shape)  # Bt[l, x] = conditional law of z given x under M_l
    np.divide(M.transpose(0, 2, 1), totals[:, :, None], out=Bt)
    Bt = Bt.reshape(-1, ms)
    # row r of the group's (matrix, pair) rows is pair r % P of matrix r // P
    base = ms * np.arange(len(Ms))[:, None]
    a, b = (base + pairs[:, 0]).ravel(), (base + pairs[:, 1]).ravel()
    l1 = np.empty(len(a))
    chunk = max(1, budget // (2 * ms))
    for lo in range(0, len(a), chunk):
        diff = Bt[a[lo : lo + chunk]]
        diff -= Bt[b[lo : lo + chunk]]
        np.abs(diff, out=diff)
        diff.sum(axis=1, out=l1[lo : lo + chunk])
    return l1.reshape(len(Ms), -1).max(axis=1)


def aged_tv_distance(kernel: JointKernel, age, degree: int) -> float:
    """Delta_k at one age; see `aged_tvs`."""
    return aged_tvs([aged_joint(kernel, age)], degree)[0]


def aged_tvs(laws, degree: int) -> list:
    """Delta_k of each aged law (all of one space): worst-case TV between
    aged-state conditionals.

    The maximization ranges over user subsets of size k, 1 <= k <= s, and,
    within each subset, over pairs of current sub-snapshots differing in
    exactly one coordinate (one changed user; the other members are the
    correlated partners whose values are held equal).  TV is half the l1
    distance.  Every law's pairs of one subset are compared in one pass.
    """
    if not laws:
        return []
    space = laws[0].space
    s, m = space.num_sequences, space.num_states
    size = space.check_degree(degree)
    sub = StateSpace(size, m)
    best = np.zeros(len(laws))
    for subset in itertools.combinations(range(s), size):
        # joint law of (z restricted to subset, x restricted to subset);
        # np.add.at sums in the order of the (z, x) loop it replaces, and
        # M.sum(axis=0) sums rows in order, as the law's totals are summed
        if size == s:
            Ms, totals = [law.joint for law in laws], np.stack([law.totals for law in laws])
        else:
            code = space.subset_code(subset)
            Ms = [np.zeros((m**size, m**size)) for _ in laws]
            for M, law in zip(Ms, laws):
                np.add.at(M, (code[:, None], code[None, :]), law.joint)
            totals = np.stack([M.sum(axis=0) for M in Ms])
        dead = np.flatnonzero((totals <= 0).any(axis=1))
        if dead.size:
            state = sub.states[int(np.argmin(totals[dead[0]]))]
            raise ModelError(
                f"cannot condition on sub-snapshot {state} of users {subset}: zero mass"
            )
        np.maximum(best, _max_pair_tvs(Ms, totals, sub.neighbour_pairs), out=best)
    return best.tolist()


def loose_bound(delta_k: float, dk: float, eps_c: float) -> tuple:
    """(linear, log) forms of the loose budget; only log is certified (linear is its tangent)."""
    if not 0.0 <= delta_k <= 1.0 + 1e-12:
        raise ModelError(f"delta_k must lie in [0, 1], got {delta_k}")
    if dk < 1.0 - 1e-12:
        raise ModelError(f"k-sensitivity must be >= 1, got {dk}")
    check_positive("eps_c", eps_c)
    linear = dk * delta_k * eps_c
    log_form = math.log1p(delta_k * math.expm1(dk * eps_c))
    return linear, log_form


# Largest number of potentials in one transport LP (at least one block is
# always packed).  On a shared 2-vCPU x86-64 host the 192 blocks of a
# random 64-state kernel took ~430-520 ms as one LP, ~290-370 ms as 16-block
# LPs and ~690-810 ms as one LP per block.
_LP_VARIABLES = 1024
# A block whose flow bound is within this relative slack of its age's
# largest dual bound cannot raise the age's maximum by more than the slack,
# so it is settled without an LP.
_SETTLE_SLACK = 1e-12
# Entries of D bounded at once by `_transport_bounds`, which keeps its
# temporaries to a few such chunks.
_BOUND_ENTRIES = 1 << 18


def _transport_bounds(D: np.ndarray, space: StateSpace) -> tuple:
    """(lo, hi) with lo <= W1(d) <= hi up to n ulps of 1 for every row
    d = p - q of D, where W1 is the Hamming-cost transport distance over the
    m^s joint states.  d's entries are rounded differences of probabilities,
    so at old ages, where W1 is tiny, lo can exceed hi in its last bits.

    lo is max(TV, sum over coordinates j of the TV of the coordinate-j
    marginals).  The potentials 1[z in A] and sum_j 1[z_j in A_j] change by
    at most 1 along each Hamming edge, so both are Kantorovich-Rubinstein
    dual values.

    hi is the cost of one explicit flow.  It collapses the coordinates one
    at a time, largest marginal TV first, each onto the target state that
    is cheapest for that row.  Collapsing a coordinate onto state a moves
    each line of states that differ only there onto its entry a at unit
    cost per moved mass: for a line x with sum sigma that costs
    0.5 * (|sigma - x_a| + sum_{b != a} |x_b|), the discrete-metric distance
    from x to sigma at state a.  Summed over the lines, that is
    0.5 * (sum |sigma - x_a| + sum |x| - sum |x_a|), minimised over a.  The
    lines' sums are the next coordinate's input whatever a is, so this
    cost is never above the collapse onto state 0; after the last
    coordinate the measure is zero.  Rows are bounded in chunks of about
    `_BOUND_ENTRIES` entries, and each target's temporaries have one entry
    per row and line, so temporaries stay within a few times D.
    """
    N, n = D.shape
    s, m = space.num_sequences, space.num_states
    lo, hi = np.empty(N), np.empty(N)
    # int32 joint indices halve the gather's index array; strides[j] is the
    # joint-index step of coordinate j
    digits = space.digits.astype(np.int32)
    strides = space.place.astype(np.int32)
    rows = max(1, _BOUND_ENTRIES // n)
    for start in range(0, N, rows):
        X = D[start : start + rows]
        c = len(X)
        cube = X.reshape((c,) + (m,) * s)
        marginal_tv = np.stack(
            [np.abs(cube.sum(axis=tuple(k + 1 for k in range(s) if k != j))).sum(axis=1)
             for j in range(s)], axis=1) * 0.5
        tv = np.abs(X).sum(axis=1) * 0.5
        lo[start : start + c] = np.maximum(tv, marginal_tv.sum(axis=1))
        # row r's states relaid with its coordinates in collapse order: joint
        # index i of the relaid row reads digits[i, k] of coordinate order[r, k]
        order = np.argsort(-marginal_tv, axis=1, kind="stable")
        idx = np.zeros((c, n), dtype=np.int32)
        for k in range(s):
            idx += strides[order[:, k]][:, None] * digits[:, k]
        Y = np.take_along_axis(X, idx, axis=1)
        del idx
        cost = np.zeros(c)
        for _ in range(s):
            Y = Y.reshape(c, m, -1)  # lines along the next coordinate
            sigma = Y.sum(axis=1)
            # per target a: sum over lines of |x_a| and of |sigma - x_a|
            on = np.stack([np.abs(Y[:, a]).sum(axis=1) for a in range(m)])
            off = np.stack([np.abs(sigma - Y[:, a]).sum(axis=1) for a in range(m)])
            cost += (off + on.sum(axis=0) - on).min(axis=0) * 0.5
            Y = sigma
        hi[start : start + c] = cost
    return lo, hi


def _transport_lps(D: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The transport distance of every row of D, by Kantorovich-Rubinstein
    LPs on the Hamming graph with the given edges.

    Each row gets one block of n potentials, with d scaled to unit moved
    mass so that nearly equal conditionals stay well conditioned, and its
    first potential fixed at 0: a shift of all potentials moves the value
    by the shift times sum(d), which is 0 for exact d, but a block with
    l1 ~ 1e-11 keeps, scaled, a rounding imbalance of up to ~1e-4 of its
    mass, and with every potential free the LP is unbounded.  Consecutive
    blocks are packed into LPs of at most `_LP_VARIABLES` potentials.
    """
    mass = np.maximum(D, 0.0).sum(axis=1)
    D = D / mass[:, None]
    n = D.shape[1]
    # block p is [G; -G] f_p <= 1 on potentials p*n .. p*n + n-1, where row
    # e of G is +1 at edges[e, 0] and -1 at edges[e, 1]; the rows of
    # [G; -G] are the edges taken both ways (arcs)
    arcs = np.concatenate([edges, edges[:, ::-1]])
    per_lp = max(1, _LP_VARIABLES // n)
    values = np.empty(len(D))
    for lo in range(0, len(D), per_lp):
        d = D[lo : lo + per_lp]
        rows = len(arcs) * len(d)
        cols = arcs[None] + n * np.arange(len(d))[:, None, None]
        A = sparse.csr_matrix(
            (np.tile([1.0, -1.0], rows), (np.arange(rows).repeat(2), cols.ravel())),
            shape=(rows, n * len(d)),
        )
        bounds = np.full((d.size, 2), [-np.inf, np.inf])
        bounds[::n] = 0.0  # each block's first potential
        res = linprog(-d.ravel(), A_ub=A, b_ub=np.ones(rows), bounds=bounds, method="highs")
        if not res.success:
            raise ModelError(f"transport LP failed: {res.message}")
        values[lo : lo + len(d)] = (res.x.reshape(d.shape) * d).sum(axis=1)
    return values * mass


def bounded_aged_correlation(kernel: JointKernel, age) -> float:
    """Delta_bar at one age; see `bounded_aged_correlations`."""
    return bounded_aged_correlations([aged_joint(kernel, age)])[0]


def bounded_aged_correlations(laws) -> list:
    """Delta_bar of each aged law (all of one space): max over neighbouring
    snapshots of the Hamming-cost transport distance between their conditionals.

    Each unit of transport moves one aged coordinate, which shifts the
    query by at most one one-record sensitivity.  The resulting budget
    Delta_bar * eps_c stays below the loose budget, but it is not an upper
    bound on the leakage: it is the leakage's slope as eps_c goes to 0.

    Hamming cost is the shortest-path metric of the Hamming graph, whose
    E = n*s*(m-1)/2 edges are the neighbour pairs themselves.  Every pair
    with p != q, of every law, is a block.  `_transport_bounds` gives each
    block closed-form bounds lo <= W1 <= hi (up to n ulps).  With tau the
    largest lo of a law, a block with hi <= tau * (1 + 1e-12) is settled:
    it cannot raise the law's maximum by more than that relative slack.  The
    open blocks of all laws, in order, go to exact Kantorovich-Rubinstein
    LPs (`_transport_lps`), several per LP for a small space.

    A law's value is max(tau, the LP values of its open blocks), so it is
    an LP value or tau.  tau never exceeds Delta_bar by more than n ulps,
    and when it is returned Delta_bar <= tau * (1 + 1e-12).  A law with no
    differing pair gives 0.0.  The solver does not promise a block the same
    bits in every packing of the shared LPs (none moved in 1,000 measured
    cases), so the tests compare `tight` values across grids to 1e-12.
    """
    if not laws:
        return []
    space = laws[0].space
    edges = space.neighbour_pairs
    B = np.stack([law.conditional() for law in laws])
    D = (B[:, :, edges[:, 0]] - B[:, :, edges[:, 1]]).transpose(0, 2, 1)  # (law, pair, z)
    blocks = np.abs(D).sum(axis=2) >= 1e-15
    D = D[blocks]
    lo, hi = _transport_bounds(D, space)
    # a law's value is the largest of its blocks', which are all >= 0, and
    # 0.0 with no block
    per_pair = np.zeros(blocks.shape)
    per_pair[blocks] = lo
    taus = per_pair.max(axis=1)
    open_ = np.flatnonzero(hi > taus[np.nonzero(blocks)[0]] * (1 + _SETTLE_SLACK))
    if len(open_):
        lo[open_] = np.maximum(lo[open_], _transport_lps(D[open_], edges))
        per_pair[blocks] = lo
    return per_pair.max(axis=1).tolist()


def tight_bound(delta_bar: float, eps_c: float) -> float:
    if delta_bar < 0:
        raise ModelError(f"delta_bar must be nonnegative, got {delta_bar}")
    check_positive("eps_c", eps_c)
    return delta_bar * eps_c


def adp_leakage(delta_t: float, eps_c: float) -> float:
    """Single-sequence age-dependent budget ln(1 + Delta(t)(e^eps - 1)): the
    log-form loose budget at unit sensitivity."""
    return loose_bound(delta_t, 1.0, eps_c)[1]


def single_chain_tvs(model: CmcModel, ts) -> list:
    """At each age in `ts`, the worst per-sequence aged TV when each sequence
    is viewed as an isolated chain with its own self-transition matrix (the
    baseline that ignores coupling).  Each distinct self-transition matrix
    gets one kernel and one stationary law, shared by every age."""
    space = StateSpace(1, model.space.num_states)
    # the one-sequence joint kernel is the self-transition matrix itself
    selves = model.transitions[np.diag_indices(model.space.num_sequences)]
    solos = [JointKernel(space, P, _joint_stationary(P))
             for P in {P.tobytes(): P for P in selves}.values()]
    tvs = [aged_tvs(aged_joints(solo, [[t] for t in ts]), 1) for solo in solos]
    return [max(at_t) for at_t in zip(*tvs)]


def baseline_bounds(eps_c: float, degree: int, query: QuerySpec) -> tuple:
    """(dp, ddp): the correlation-blind budget and the sensitivity-scaled
    spatial-only budget, both at age zero."""
    check_positive("eps_c", eps_c)
    return eps_c, k_sensitivity(query, degree) * eps_c


# ---------------------------------------------------------------------------
# pure-DP leakage oracle


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float


def oracle_leakage(kernel: JointKernel, params: LeakageParams) -> OracleEstimate:
    """The oracle at `params`; see `exact_oracles`."""
    law = aged_joint(kernel, params.age)
    return OracleEstimate(exact_oracles([law], params.query, [params.eps_c])[0][0])


def _value_laws(laws, query: QuerySpec) -> tuple:
    """(ys, G): the query's distinct values ys, ascending, and the
    (law, k, n) stack of G[l, j, x] = Pr[f(z) = ys[j] | x] under law l.
    Each law's G is one k x n product with its backward conditional, which
    is formed and dropped in turn."""
    ys, which = np.unique(state_values(laws[0].space, query), return_inverse=True)
    H = (which == np.arange(len(ys))[:, None]).astype(float)
    return ys, np.stack([H @ law.conditional() for law in laws])


def exact_oracles(laws, query: QuerySpec, eps_grid) -> list:
    """For each law of `laws` (all of one space), the list over the eps_c of
    `eps_grid` of the pure-DP leakage: the supremum over outputs y and
    neighbouring snapshots x, x' of |ln p(y | x) - ln p(y | x')|, with p the
    density of M, the query on the aged snapshot plus Laplace noise of scale
    b = `noise_scale(query, eps_c)`.

    With ys the query's distinct values and G from `_value_laws`,
    2b p(y | x) = sum_j G[j, x] e^{-|y - ys[j]| / b}.  Between two
    consecutive ys each density is A e^{-y/b} + C e^{y/b}, so the ratio of
    two of them is monotone there, and beyond the first and the last it is
    constant: the supremum is attained at one of the ys.  The log densities
    there are summed in the log domain, which cannot underflow, by one
    forward pass over the ys (the terms at or below each) and one backward
    pass (the terms above it), for every law and eps_c at once.
    """
    if not laws:
        return []
    scales = np.array([noise_scale(query, eps) for eps in eps_grid])
    ys, G = _value_laws(laws, query)
    with np.errstate(divide="ignore"):
        logG = np.log(G)[:, None]  # (law, 1, k, n), -inf at an unreachable value
    # decay[:, e, j] = (ys[j + 1] - ys[j]) / b at the e-th eps_c
    decay = (np.diff(ys) / scales[:, None])[None, :, :, None]
    shape = (len(laws), len(scales), len(ys), G.shape[2])
    below, above = np.empty(shape), np.empty(shape)
    below[:, :, 0] = logG[:, :, 0]
    above[:, :, -1] = -np.inf
    for j in range(1, len(ys)):
        below[:, :, j] = np.logaddexp(below[:, :, j - 1] - decay[:, :, j - 1], logG[:, :, j])
        i = len(ys) - 1 - j
        above[:, :, i] = np.logaddexp(above[:, :, i + 1], logG[:, :, i + 1]) - decay[:, :, i]
    log_p = np.logaddexp(below, above)
    a, c = laws[0].space.neighbour_pairs.T
    return np.abs(log_p[..., a] - log_p[..., c]).max(axis=(2, 3)).tolist()


# ---------------------------------------------------------------------------
# reduction checks


@dataclass(frozen=True)
class ReductionCase:
    name: str
    applicable: bool
    passed: bool
    detail: str


def verify_reductions(eps_c: float = 1.0, max_age: int = 8, tol: float = 1e-9) -> list:
    """Certify the degenerate-correlation reductions of the bounds.

    (a) i.i.d.-over-time model (all transition columns identical), k = 1,
        age 0: loose (both forms) and tight budgets all equal eps_c.
    (b) temporally-correlated but spatially-independent model: the
        log-form loose budget with k = 1 equals the single-sequence
        age-dependent budget at every age.
    (c) the coupled benchmark model: reductions intentionally do not
        apply; reported as not applicable.
    """
    integer_value(max_age, "max_age", 0)
    cases = []

    iid_col = np.array([0.6, 0.4])
    P_iid = np.stack([iid_col, iid_col], axis=1)  # both columns identical
    iid = CmcModel(
        StateSpace(2, 2),
        np.broadcast_to(P_iid, (2, 2, 2, 2)),
        np.array([[0.75, 0.25], [0.25, 0.75]]),
    )
    kern = joint_kernel(iid)
    query = builtin_queries(iid.space)["mean"]
    delta1 = aged_tv_distance(kern, [0, 0], 1)
    lin, logf = loose_bound(delta1, k_sensitivity(query, 1), eps_c)
    tgt = tight_bound(bounded_aged_correlation(kern, [0, 0]), eps_c)
    errs = [abs(lin - eps_c), abs(logf - eps_c), abs(tgt - eps_c)]
    cases.append(
        ReductionCase(
            "iid-age0-k1",
            True,
            max(errs) <= tol,
            f"linear={lin:.12g} log={logf:.12g} tight={tgt:.12g} target={eps_c:.12g}",
        )
    )

    indep = two_user_model(1.0)  # no cross-coupling
    kern = joint_kernel(indep)
    worst = 0.0
    details = []
    ts = range(max_age + 1)
    coupled = aged_tvs(aged_joints(kern, [(t, t) for t in ts]), 1)
    for t, delta1, delta_t in zip(ts, coupled, single_chain_tvs(indep, ts)):
        _, logf = loose_bound(delta1, 1.0, eps_c)
        target = adp_leakage(delta_t, eps_c)
        worst = max(worst, abs(logf - target))
        details.append(f"t={t}: log={logf:.12g} adp={target:.12g}")
    cases.append(
        ReductionCase(
            "spatially-independent-vs-age-dependent",
            True,
            worst <= tol,
            "; ".join(details),
        )
    )

    cases.append(
        ReductionCase(
            "coupled-benchmark",
            False,
            True,
            "cross-coupling active: reduction hypotheses not satisfied; not applicable",
        )
    )
    return cases
