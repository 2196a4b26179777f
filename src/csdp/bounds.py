"""Leakage bounds for correlated-sequence releases, plus a validating oracle.

Three analytic quantities drive everything:

* Delta_k -- the aged total-variation distance at the full degree k = s:
  worst-case TV between the conditional laws of the whole aged snapshot
  given two neighbouring current snapshots.
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
* d(s) -- the query's s-sensitivity.

The certified loose budget is ln(1 + Delta_k*(e^{d(s) eps_c} - 1)); its
tangent line at eps_c = 0, d(s)*Delta_k*eps_c, lies below it and is not a
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

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .kernel import (JointKernel, _joint_stationaries, aged_joint, aged_joints, joint_kernel,
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


# Entries of backward conditionals, and of neighbour-pair differences, that
# `_pair_differences` holds at once.
_PAIR_ENTRIES = 1 << 16
EXPM1_MAX = math.log(np.finfo(float).max)  # math.expm1 overflows above it (`loose_bound`)


def _pair_differences(laws, pairs: np.ndarray):
    """Yield (r, D): rows r, r + 1, ... of the differences B_l[:, a] - B_l[:, b]
    of the backward conditionals B_l of `laws` over the pairs (a, b) of
    `pairs`, law-major: row r is pair r % P of law r // P.  Laws are taken
    in groups whose conditionals fill at most `_PAIR_ENTRIES` entries, and
    rows in chunks whose two temporaries fill at most as many, with at
    least one law and one row.  Each law's joint is divided straight into
    its slice of the group's conditionals, so the group holds no copy of
    the joints.  D is the caller's.
    """
    ms = laws[0].space.product_size
    group = max(1, _PAIR_ENTRIES // (ms * ms))
    chunk = max(1, _PAIR_ENTRIES // (2 * ms))
    for start in range(0, len(laws), group):
        some = laws[start : start + group]
        Bt = np.empty((len(some), ms, ms))  # Bt[l, x] = conditional law of z given x under law l
        for law, B in zip(some, Bt):
            np.divide(law.joint.T, law.totals[:, None], out=B)
        Bt = Bt.reshape(-1, ms)
        base = ms * np.arange(len(some))[:, None]
        a, b = (base + pairs[:, 0]).ravel(), (base + pairs[:, 1]).ravel()
        for lo in range(0, len(a), chunk):
            D = Bt[a[lo : lo + chunk]]
            D -= Bt[b[lo : lo + chunk]]
            yield start * len(pairs) + lo, D


def _check_conditionals(laws) -> None:
    """Refuse, by name, the first law's zero-mass current state, from one
    stack of the laws' totals."""
    dead = np.flatnonzero((np.stack([law.totals for law in laws]) <= 0).any(axis=1))
    if dead.size:
        laws[dead[0]].check_conditional()


def aged_tv_distance(kernel: JointKernel, age, degree: int) -> float:
    """Delta_k at one age; see `aged_tvs`.  `degree` must be s, the one
    degree Delta_k is computed at; any other is refused by name."""
    s = kernel.space.num_sequences
    k = kernel.space.check_degree(degree)
    if k != s:
        raise ModelError(f"correlation degree {k}: Delta_k is computed at the full degree "
                         f"s = {s} only")
    return aged_tvs([aged_joint(kernel, age)])[0]


def aged_tvs(laws) -> list:
    """Delta_k of each aged law (all of one space) at the full degree s:
    the largest TV, half the l1 distance, between the conditional laws of
    the aged snapshot given two current snapshots that differ in exactly
    one coordinate.  This is the distance the loose budget's proof reads.
    Every law's neighbour pairs are compared in one pass over
    `_pair_differences`.
    """
    if not laws:
        return []
    _check_conditionals(laws)
    pairs = laws[0].space.neighbour_pairs
    l1 = np.empty(len(laws) * len(pairs))
    for r, D in _pair_differences(laws, pairs):
        np.abs(D, out=D)
        D.sum(axis=1, out=l1[r : r + len(D)])
    return (0.5 * l1.reshape(len(laws), -1).max(axis=1)).tolist()


def loose_bound(delta_k: float, dk: float, eps_c: float) -> tuple:
    """(linear, log) forms of the loose budget; only log is certified (linear is its tangent)."""
    if not 0.0 <= delta_k <= 1.0 + 1e-12:
        raise ModelError(f"delta_k must lie in [0, 1], got {delta_k}")
    if dk < 1.0 - 1e-12:
        raise ModelError(f"k-sensitivity must be >= 1, got {dk}")
    check_positive("eps_c", eps_c)
    linear = dk * delta_k * eps_c
    x = dk * eps_c  # past EXPM1_MAX, the equal form without e^x, 0 at delta_k = 0
    log_form = (math.log1p(delta_k * math.expm1(x)) if x <= EXPM1_MAX
                else (x + math.log(delta_k + (1.0 - delta_k) * math.exp(-x)) if delta_k else 0.0))
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
    coordinate the measure is zero.  Each target's temporaries have one
    entry per row and line, so temporaries stay within a few times D, which
    its callers keep to one chunk of `_pair_differences`.
    """
    c, n = D.shape
    s, m = space.num_sequences, space.num_states
    # int32 joint indices halve the gather's index array; strides[j] is the
    # joint-index step of coordinate j
    digits = space.digits.astype(np.int32)
    strides = space.place.astype(np.int32)
    cube = D.reshape((c,) + (m,) * s)
    marginal_tv = np.stack(
        [np.abs(cube.sum(axis=tuple(k + 1 for k in range(s) if k != j))).sum(axis=1)
         for j in range(s)], axis=1) * 0.5
    tv = np.abs(D).sum(axis=1) * 0.5
    lo = np.maximum(tv, marginal_tv.sum(axis=1))
    # row r's states relaid with its coordinates in collapse order: joint
    # index i of the relaid row reads digits[i, k] of coordinate order[r, k]
    order = np.argsort(-marginal_tv, axis=1, kind="stable")
    idx = np.zeros((c, n), dtype=np.int32)
    for k in range(s):
        idx += strides[order[:, k]][:, None] * digits[:, k]
    Y = np.take_along_axis(D, idx, axis=1)
    del idx
    hi = np.zeros(c)
    for _ in range(s):
        Y = Y.reshape(c, m, Y.shape[1] // m)  # lines along the next coordinate
        sigma = Y.sum(axis=1)
        # per target a: sum over lines of |x_a| and of |sigma - x_a|
        on = np.stack([np.abs(Y[:, a]).sum(axis=1) for a in range(m)])
        off = np.stack([np.abs(sigma - Y[:, a]).sum(axis=1) for a in range(m)])
        hi += (off + on.sum(axis=0) - on).min(axis=0) * 0.5
        Y = sigma
    return lo, hi


def _row_batches(chunks, size: int):
    """The rows of the row arrays `chunks`, in order, regrouped into arrays
    of `size` rows (the last may be shorter).  Rows left over from a chunk
    are copied out of it, so no chunk is held past its turn."""
    held, need = [], size
    for chunk in chunks:
        lo = 0
        while len(chunk) - lo >= need:
            rows = chunk[lo : lo + need]
            yield np.concatenate(held + [rows]) if held else rows
            lo += need
            held, need = [], size
        if lo < len(chunk):
            held.append(chunk[lo:].copy())
            need -= len(chunk) - lo
    if held:
        yield np.concatenate(held)


def _transport_lps(chunks, n: int, edges: np.ndarray) -> np.ndarray:
    """The transport distance of every row of the row arrays `chunks` (of n
    entries each), in order, by Kantorovich-Rubinstein LPs on the Hamming
    graph with the given edges.

    Each row gets one block of n potentials, with d scaled to unit moved
    mass so that nearly equal conditionals stay well conditioned, and its
    first potential fixed at 0: a shift of all potentials moves the value
    by the shift times sum(d), which is 0 for exact d, but a block with
    l1 ~ 1e-11 keeps, scaled, a rounding imbalance of up to ~1e-4 of its
    mass, and with every potential free the LP is unbounded.  Consecutive
    blocks are packed into LPs of at most `_LP_VARIABLES` potentials, each
    solved as soon as its rows have arrived, so one LP's rows are held.
    """
    # block p is [G; -G] f_p <= 1 on potentials p*n .. p*n + n-1, where row
    # e of G is +1 at edges[e, 0] and -1 at edges[e, 1]; the rows of
    # [G; -G] are the edges taken both ways (arcs)
    arcs = np.concatenate([edges, edges[:, ::-1]])
    values = []
    for d in _row_batches(chunks, max(1, _LP_VARIABLES // n)):
        mass = np.maximum(d, 0.0).sum(axis=1)
        d = d / mass[:, None]
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
        values.append((res.x.reshape(d.shape) * d).sum(axis=1) * mass)
    return np.concatenate(values)


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
    with p != q, of every law, is a block.  One pass over the chunks of
    `_pair_differences` keeps each block's closed-form bounds lo <= W1 <= hi
    (up to n ulps) from `_transport_bounds`.  With tau the largest lo of a
    law, a block with hi <= tau * (1 + 1e-12) is settled: it cannot raise
    the law's maximum by more than that relative slack.  The open blocks'
    rows are rebuilt, all laws in order, and go to exact
    Kantorovich-Rubinstein LPs (`_transport_lps`), several per LP for a
    small space; each LP is solved as soon as its rows are rebuilt, so the
    open rows held at once are one LP's, whatever the number of laws.

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
    _check_conditionals(laws)
    blocks, lohi = [], []
    for r, D in _pair_differences(laws, edges):
        live = np.flatnonzero(np.abs(D).sum(axis=1) >= 1e-15)
        blocks.append(r + live)
        lohi.append(_transport_bounds(D[live], space))
    # block i is row law * E + pair of `_pair_differences`; a law's value is
    # the largest of its blocks', which are all >= 0, and 0.0 with no block
    blocks = np.concatenate(blocks)
    lo, hi = np.concatenate(lohi, axis=1)
    law_of = blocks // len(edges)
    values = np.zeros(len(laws))
    np.maximum.at(values, law_of, lo)
    opened = blocks[hi > values[law_of] * (1 + _SETTLE_SLACK)]
    if len(opened):
        law_of, pair_of = np.divmod(opened, len(edges))
        # the open blocks' rows, rebuilt law by law in block order
        rows = (chunk for law in np.unique(law_of)
                for _, chunk in _pair_differences([laws[law]], edges[pair_of[law_of == law]]))
        np.maximum.at(values, law_of, _transport_lps(rows, space.product_size, edges))
    return values.tolist()


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
    gets one kernel, shared by every age, and their stationary laws come
    from one `_joint_stationaries` call."""
    space = StateSpace(1, model.space.num_states)
    # the one-sequence joint kernel is the self-transition matrix itself
    selves = model.transitions[np.diag_indices(model.space.num_sequences)]
    distinct = np.stack(list({P.tobytes(): P for P in selves}.values()))
    solos = [JointKernel(space, P, pi) for P, pi in zip(distinct, _joint_stationaries(distinct))]
    tvs = [aged_tvs(aged_joints(solo, [[t] for t in ts])) for solo in solos]
    return [max(at_t) for at_t in zip(*tvs)]


def baseline_bounds(eps_c: float, query: QuerySpec) -> tuple:
    """(dp, ddp): the correlation-blind budget and the spatial-only budget
    scaled by the query's d(s), s read from its space, both at age zero."""
    check_positive("eps_c", eps_c)
    return eps_c, k_sensitivity(query, query.space.num_sequences) * eps_c


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


def _iid_cases(model: CmcModel, eps_c: float, tol: float) -> list:
    """`verify_reductions`' cases (a) on the two-user `model`: its budgets at
    d(1) against eps_c at age 0 and against 0 at age 1, both ages read
    from one `aged_joints` call."""
    d1 = k_sensitivity(builtin_queries(model.space)["mean"], 1)
    laws = aged_joints(joint_kernel(model), [(0, 0), (1, 1)])
    cases = []
    for name, delta_k, delta_bar, target in zip(
            ("iid-age0-k1", "iid-age1-k1"), aged_tvs(laws), bounded_aged_correlations(laws),
            (eps_c, 0.0)):
        lin, logf = loose_bound(delta_k, d1, eps_c)
        tgt = tight_bound(delta_bar, eps_c)
        errs = [abs(lin - target), abs(logf - target), abs(tgt - target)]
        cases.append(ReductionCase(
            name, True, max(errs) <= tol,
            f"linear={lin:.12g} log={logf:.12g} tight={tgt:.12g} target={target:.12g}"))
    return cases


def verify_reductions(eps_c: float = 1.0, max_age: int = 8, tol: float = 1e-9) -> list:
    """Certify the degenerate-correlation reductions of the bounds.

    (a) i.i.d.-over-time model (all transition columns identical), at
        d(1): at age 0 the loose (both forms) and tight budgets all equal
        eps_c; at age 1 the aged snapshot is independent of the current one,
        so Delta_k and Delta_bar are 0 and so are all three budgets.
    (b) temporally-correlated but spatially-independent model: the
        log-form loose budget at unit sensitivity equals the
        single-sequence age-dependent budget at every age.
    (c) the coupled benchmark model: reductions intentionally do not
        apply; reported as not applicable.

    Delta_k is read at the full degree s, as everywhere, and is there the
    degree-1 value the reductions name.  In (a) the aged snapshot at age 0
    is the current one, so neighbouring conditionals are disjoint point
    masses at every degree.  In (b) the identity coupling makes the
    conditional law of the aged snapshot the product of the users' own,
    and two product laws that differ in one factor are as far apart in TV
    as that factor's laws.
    """
    integer_value(max_age, "max_age", 0)
    iid_col = np.array([0.6, 0.4])
    P_iid = np.stack([iid_col, iid_col], axis=1)  # both columns identical
    iid = CmcModel(
        StateSpace(2, 2),
        np.broadcast_to(P_iid, (2, 2, 2, 2)),
        np.array([[0.75, 0.25], [0.25, 0.75]]),
    )
    cases = _iid_cases(iid, eps_c, tol)

    indep = two_user_model(1.0)  # no cross-coupling
    kern = joint_kernel(indep)
    worst = 0.0
    details = []
    ts = range(max_age + 1)
    deltas_k = aged_tvs(aged_joints(kern, [(t, t) for t in ts]))
    for t, delta_k, delta_t in zip(ts, deltas_k, single_chain_tvs(indep, ts)):
        _, logf = loose_bound(delta_k, 1.0, eps_c)
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
