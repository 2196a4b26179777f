"""Leakage bounds for correlated-sequence releases, plus a validating oracle.

Three analytic quantities drive everything:

* Delta_k -- the aged total-variation distance: worst-case TV between the
  conditional laws of the aged snapshot given two neighbouring current
  snapshots, maximized over the changed user together with its correlated
  partners (subsets of size min(k, s)).
* Delta_bar -- the bounded aged correlation driving the tight budget: a
  Hamming-cost optimal-transport distance between the same backward
  conditionals.  Moving one aged coordinate costs one unit of one-record
  sensitivity in the release, so the transport value bounds the per-unit
  likelihood-ratio exposure; it reduces to the plain TV distance for a
  single sequence and to 1 at age zero.  Each neighbour pair whose
  conditionals differ, at each age, is one block.  Closed-form bounds
  lo <= W1 <= hi settle most blocks: lo from two Kantorovich-Rubinstein
  potentials (the TV and the summed coordinate-marginal TVs), hi from an
  explicit flow that collapses one coordinate at a time.  With tau the
  age's largest lo, a block with hi <= tau * (1 + 1e-12) is settled; only
  the others get an LP.  Those go to the Kantorovich-Rubinstein dual on the
  Hamming graph (potentials that change by at most 1 across each of the
  E = n*s*(m-1)/2 neighbour edges): one block of n potentials and 2*E rows
  each, packed in order into block-diagonal LPs of at most about a
  thousand potentials.  Packing saves the solver's per-call overhead,
  which dominates tiny LPs; the bound on size keeps the solver's time,
  which grows faster than the LP, from dominating large ones.  Each age's
  Delta_bar is an LP value or tau, and tau is within the 1e-12 relative
  slack of the exact maximum whenever it is returned.
* d(k) -- the query's k-sensitivity.

The certified loose budget is min(d(k)*Delta_k*eps_c,
ln(1 + Delta_k*(e^{d(k) eps_c} - 1))).  The paper's tight budget is
Delta_bar*eps_c; it is not certified: it is the small-eps slope of the
leakage and falls below the pure-DP leakage at some (age, eps_c).

A likelihood-ratio oracle cross-checks the bounds.  It takes the supremum
over the Laplace half-line events {M <= theta} and {M > theta} on a
101-point theta grid only, so it is a lower estimate of the pure-DP
leakage (the supremum over all events) and can under-report it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp

from .kernel import (
    JointKernel,
    _digits,
    _joint_stationary,
    aged_joint,
    backward_conditional,
    joint_kernel,
    state_values,
)
from .model import CmcModel, ModelError, StateSpace, _require_valid, check_eps
from .queries import QuerySpec, builtin_queries, k_sensitivity
from .rng import derive_seed, generator, laplace

CONFIDENCE_Z = 1.959963984540054  # two-sided 95%
MIN_CELL_COUNT = 25
THETA_POINTS = 101
THETA_SPAN = 6.0  # noise scales beyond the query range


@dataclass(frozen=True)
class LeakageParams:
    age: tuple
    eps_c: float
    degree: int
    query: QuerySpec

    def __post_init__(self):
        check_eps(self.eps_c)
        if not 1 <= self.degree <= self.query.space.num_sequences:
            raise ModelError(f"correlation degree {self.degree} out of range")


def _neighbour_pairs(s: int, m: int) -> np.ndarray:
    """All (ai, bi), ai < bi, of joint indices over s sequences and m states
    that differ in exactly one coordinate, as an int array of shape (P, 2)
    sorted by ai and then bi.

    bi = ai + d * m^(s-1-j) raises coordinate j by d.  All offsets of
    coordinate j lie below m^(s-j), the smallest offset of coordinate j-1,
    so taking the coordinates from last to first and d upwards sorts bi.
    """
    n = m**s
    strides = m ** np.arange(s)[None, :, None]  # coordinates from last to first
    steps = np.arange(1, m)[None, None, :]
    room = (m - 1 - _digits(s, m)[:, ::-1])[:, :, None]
    ai = np.broadcast_to(np.arange(n)[:, None, None], (n, s, m - 1))
    keep = steps <= room
    return np.stack([ai[keep], (ai + steps * strides)[keep]], axis=1)


def _max_pair_tv(M: np.ndarray, totals: np.ndarray, pairs: np.ndarray) -> float:
    """Largest TV distance over the given column pairs between the columns
    of M divided by their totals."""
    ms = len(totals)
    Bt = np.empty((ms, ms))  # Bt[x] = conditional law of z given x
    np.divide(M.T, totals[:, None], out=Bt)
    # two (chunk, ms) temporaries at a time: together at most one M
    chunk = max(1, ms // 2)
    best = 0.0
    for lo in range(0, len(pairs), chunk):
        a, b = pairs[lo : lo + chunk].T
        diff = Bt[a]
        diff -= Bt[b]
        np.abs(diff, out=diff)
        best = max(best, 0.5 * float(diff.sum(axis=1).max()))
    return best


def aged_tv_distance(kernel: JointKernel, age, degree: int) -> float:
    """Delta_k: worst-case TV between aged-state conditionals.

    The maximization ranges over user subsets of size min(k, s) and, within
    each subset, over pairs of current sub-snapshots differing in exactly
    one coordinate (one changed user; the other members are the correlated
    partners whose values are held equal).  TV is half the l1 distance.
    """
    s, m = kernel.space.num_sequences, kernel.space.num_states
    if not 1 <= degree <= s:
        raise ModelError(f"correlation degree {degree} out of range [1, {s}]")
    # C order, so that column totals are summed row by row, as for the
    # subset marginals built below
    J = np.ascontiguousarray(aged_joint(kernel, age))
    size = min(degree, s)
    digits = _digits(s, m)
    pairs = _neighbour_pairs(size, m)
    best = 0.0
    for subset in itertools.combinations(range(s), size):
        # joint law of (z restricted to subset, x restricted to subset);
        # np.add.at sums in the order of the (z, x) loop it replaces
        if size == s:
            M = J
        else:
            code = digits[:, list(subset)] @ m ** np.arange(size - 1, -1, -1)
            M = np.zeros((m**size, m**size))
            np.add.at(M, (code[:, None], code[None, :]), J)
        totals = M.sum(axis=0)
        if np.any(totals <= 0):
            dead = tuple(int(v) for v in _digits(size, m)[int(np.argmin(totals))])
            raise ModelError(
                f"cannot condition on sub-snapshot {dead} of users {subset}: zero mass"
            )
        best = max(best, _max_pair_tv(M, totals, pairs))
    return best


def loose_bound(delta_k: float, dk: float, eps_c: float) -> tuple:
    """(linear, log) forms of the loose budget."""
    if not 0.0 <= delta_k <= 1.0 + 1e-12:
        raise ModelError(f"delta_k must lie in [0, 1], got {delta_k}")
    if dk < 1.0 - 1e-12:
        raise ModelError(f"k-sensitivity must be >= 1, got {dk}")
    check_eps(eps_c)
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


def _transport_bounds(D: np.ndarray, s: int, m: int) -> tuple:
    """(lo, hi) with lo <= W1(d) <= hi for every row d = p - q of D, where W1
    is the Hamming-cost transport distance over the m^s joint states.

    lo is max(TV, sum over coordinates j of the TV of the coordinate-j
    marginals).  The potentials 1[z in A] and sum_j 1[z_j in A_j] change by
    at most 1 along each Hamming edge, so both are Kantorovich-Rubinstein
    dual values.

    hi is the cost of one explicit flow.  It collapses the coordinates onto
    state 0 one at a time, largest marginal TV first.  Collapsing a
    coordinate moves each line of states that differ only there onto its
    state-0 entry at unit cost per moved mass: for a line x with sum sigma
    that costs 0.5 * (|sigma - x_0| + sum_{a != 0} |x_a|), the
    discrete-metric distance from x to sigma at state 0 (for m = 2, the
    mass |x_1| off state 0).  The lines' sums are the next coordinate's
    input, and after the last coordinate the measure is zero.
    Rows are bounded in chunks of about `_BOUND_ENTRIES` entries, so
    temporaries stay within a few times D.
    """
    N, n = D.shape
    lo, hi = np.empty(N), np.empty(N)
    # int32 joint indices halve the gather's index array; strides[j] is the
    # joint-index step of coordinate j
    digits = _digits(s, m).astype(np.int32)
    strides = m ** np.arange(s - 1, -1, -1, dtype=np.int32)
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
            rest = Y[:, 1:]  # sigma - x_0 is their sum
            cost += (np.abs(rest.sum(axis=1)).sum(axis=1) + np.abs(rest).sum(axis=(1, 2))) * 0.5
            Y = Y.sum(axis=1)
        hi[start : start + c] = cost
    return lo, hi


def _transport_lps(D: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The transport distance of every row of D, by Kantorovich-Rubinstein
    LPs on the Hamming graph with the given edges.

    Each row gets one block of n free potentials, with d scaled to unit
    moved mass so that nearly equal conditionals stay well conditioned.
    Consecutive blocks are packed into block-diagonal LPs of at most
    `_LP_VARIABLES` potentials.
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
        res = linprog(-d.ravel(), A_ub=A, b_ub=np.ones(rows), bounds=(None, None),
                      method="highs")
        if not res.success:
            raise ModelError(f"transport LP failed: {res.message}")
        values[lo : lo + len(d)] = (res.x.reshape(d.shape) * d).sum(axis=1)
    return values * mass


def _transport_blocks(kernel: JointKernel, ages) -> list:
    """Per age, the rows d = p - q, p != q, of the backward conditionals of
    every neighbour pair, as one (rows, n) array."""
    s, m = kernel.space.num_sequences, kernel.space.num_states
    edges = _neighbour_pairs(s, m)
    blocks = []
    for age in ages:
        B = backward_conditional(kernel, age)
        D = (B[:, edges[:, 0]] - B[:, edges[:, 1]]).T
        blocks.append(D[np.abs(D).sum(axis=1) >= 1e-15])
    return blocks


def bounded_aged_correlation(kernel: JointKernel, age) -> float:
    """Delta_bar at one age; see `bounded_aged_correlations`."""
    return bounded_aged_correlations(kernel, [age])[0]


def bounded_aged_correlations(kernel: JointKernel, ages) -> list:
    """Delta_bar at each age: max over neighbouring snapshots of the
    Hamming-cost transport distance between their backward conditionals.

    Each unit of transport moves one aged coordinate, which shifts the
    query by at most one one-record sensitivity.  The resulting budget
    Delta_bar * eps_c stays below the loose budget, but it is not an upper
    bound on the leakage: it is the leakage's slope as eps_c goes to 0.

    Hamming cost is the shortest-path metric of the Hamming graph, whose
    E = n*s*(m-1)/2 edges are the neighbour pairs themselves.  Every pair
    with p != q, at every age, is a block.  `_transport_bounds` gives each
    block closed-form bounds lo <= W1 <= hi.  With tau the largest lo of an
    age, a block with hi <= tau * (1 + 1e-12) is settled: it cannot raise
    the age's maximum by more than that relative slack.  The open blocks of
    all ages, in order, go to exact Kantorovich-Rubinstein LPs
    (`_transport_lps`), several per LP for a small kernel.

    An age's value is max(tau, the LP values of its open blocks), so it is
    an LP value or tau.  tau never exceeds Delta_bar, and when it is
    returned Delta_bar <= tau * (1 + 1e-12).  An age with no differing
    pair gives 0.0.
    """
    blocks = _transport_blocks(kernel, ages)
    if not blocks:
        return []
    s, m = kernel.space.num_sequences, kernel.space.num_states
    counts = [len(b) for b in blocks]
    D = np.concatenate(blocks)
    lo, hi = _transport_bounds(D, s, m)
    ends = np.cumsum(counts)[:-1]
    taus = [v.max() if len(v) else 0.0 for v in np.split(lo, ends)]
    open_ = np.flatnonzero(hi > np.repeat(taus, counts) * (1 + _SETTLE_SLACK))
    values = lo
    if len(open_):
        lp = _transport_lps(D[open_], _neighbour_pairs(s, m))
        values[open_] = np.maximum(values[open_], lp)
    return [float(v.max()) if len(v) else 0.0 for v in np.split(values, ends)]


def tight_bound(delta_bar: float, eps_c: float) -> float:
    if delta_bar < 0:
        raise ModelError(f"delta_bar must be nonnegative, got {delta_bar}")
    check_eps(eps_c)
    return delta_bar * eps_c


def adp_leakage(delta_t: float, eps_c: float) -> float:
    """Single-sequence age-dependent budget ln(1 + Delta(t)(e^eps - 1))."""
    if not 0.0 <= delta_t <= 1.0 + 1e-12:
        raise ModelError(f"delta_t must lie in [0, 1], got {delta_t}")
    check_eps(eps_c)
    return math.log1p(delta_t * math.expm1(eps_c))


def single_chain_tv(model: CmcModel, t: int) -> float:
    """Worst per-sequence aged TV when each sequence is viewed as an
    isolated chain with its own self-transition matrix (the baseline that
    ignores coupling)."""
    _require_valid(model)
    m = model.space.num_states
    space, states = StateSpace(1, m), tuple((v,) for v in range(m))
    best = 0.0
    for i in range(model.space.num_sequences):
        # the one-sequence joint kernel is the self-transition matrix itself
        P = model.transitions[i, i]
        solo = JointKernel(space, P, states, _joint_stationary(P))
        best = max(best, aged_tv_distance(solo, [t], 1))
    return best


def baseline_bounds(eps_c: float, degree: int, query: QuerySpec) -> tuple:
    """(dp, ddp): the correlation-blind budget and the sensitivity-scaled
    spatial-only budget, both at age zero."""
    check_eps(eps_c)
    return eps_c, k_sensitivity(query, degree) * eps_c


# ---------------------------------------------------------------------------
# likelihood-ratio oracle


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    half_width: float
    diagnostics: tuple = field(default_factory=tuple)


def _laplace_logcdf(u: np.ndarray, b: float) -> np.ndarray:
    u = np.asarray(u, float)
    lo = np.log(0.5) + np.minimum(u, 0.0) / b
    hi = np.log1p(-0.5 * np.exp(-np.maximum(u, 0.0) / b))
    return np.where(u < 0, lo, hi)


def _laplace_logsf(u: np.ndarray, b: float) -> np.ndarray:
    return _laplace_logcdf(-np.asarray(u, float), b)


def _theta_grid(f_values: np.ndarray, b: float) -> np.ndarray:
    lo = f_values.min() - THETA_SPAN * b
    hi = f_values.max() + THETA_SPAN * b
    return np.linspace(lo, hi, THETA_POINTS)


# A scaled mixture entry below this may have lost digits to underflow.
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


def _log_mixtures(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column x is log sum_z exp(L[:, z]) * B[z, x].

    Each row of L is shifted by its maximum, so one matrix product forms
    every sum.  Where a column's mass sits on states whose shifted terms
    underflow (eps * range / sensitivity near 745), some entry of the
    product falls below _UNDERFLOW; each such column is summed again in the
    log domain.
    """
    top = L.max(axis=1, keepdims=True)
    P = np.exp(L - top) @ B
    low = np.flatnonzero((P < _UNDERFLOW).any(axis=0))
    P[:, low] = 1.0  # placeholders, replaced below
    out = np.log(P)
    out += top
    for x in low:
        logb = np.where(B[:, x] > 0, np.log(np.maximum(B[:, x], 1e-300)), -np.inf)
        out[:, x] = logsumexp(L + logb, axis=1)
    return out


def oracle_leakage(
    kernel: JointKernel,
    params: LeakageParams,
    samples: int = 0,
    seed: int = 0,
    method: str = "exact",
) -> OracleEstimate:
    """Supremum of |ln Pr[M in S | x] - ln Pr[M in S | x']| over half-line
    events S, computed in closed form ("exact") or estimated by sampling.

    The supremum ranges over neighbouring snapshot pairs and half-line
    events {M <= theta} and {M > theta} on a 101-point theta grid spanning
    the query range plus six noise scales.  Other events can separate the
    two output laws further, so this is a lower estimate of the pure-DP
    leakage.  The exact path mixes the Laplace output law over the backward
    conditional in closed form, all states x at once; the
    sampling path estimates event probabilities by Monte Carlo and reports
    a 95% normal-approximation half-width, skipping cells with fewer than
    25 hits in either arm (skips are reported as diagnostics, and the
    interval is widened to infinity if nothing stable remains).
    """
    query = params.query
    B = backward_conditional(kernel, params.age)
    f_values = state_values(kernel, query)
    b = query.sensitivity(1) / params.eps_c
    thetas = _theta_grid(f_values, b)
    pairs = _neighbour_pairs(kernel.space.num_sequences, kernel.space.num_states)

    if method == "exact":
        u = thetas[:, None] - f_values[None, :]
        # log Pr[M <= theta | x] and log Pr[M > theta | x], columns over x
        F = _log_mixtures(_laplace_logcdf(u, b), B)
        S = _log_mixtures(_laplace_logsf(u, b), B)
        a, c = pairs.T
        best = max(0.0, float(np.abs(F[:, a] - F[:, c]).max()),
                   float(np.abs(S[:, a] - S[:, c]).max()))
        return OracleEstimate(best, 0.0)

    if method != "sampling":
        raise ModelError(f"unknown oracle method '{method}'")
    if samples < MIN_CELL_COUNT * 4:
        raise ModelError(f"need at least {MIN_CELL_COUNT * 4} samples, got {samples}")

    n = int(samples)
    pairs = pairs.tolist()
    cum = {}
    for idx in {i for pair in pairs for i in pair}:
        rng = generator(derive_seed(seed, "oracle", idx))
        z = np.searchsorted(np.cumsum(B[:, idx]), rng.random(n), side="right")
        np.clip(z, 0, len(f_values) - 1, out=z)
        y = np.sort(f_values[z] + laplace(rng, b, n))
        cum[idx] = y
    best = 0.0
    best_hw = 0.0
    skipped = 0
    for ai, bi in pairs:
        c1 = np.searchsorted(cum[ai], thetas, side="right")
        c2 = np.searchsorted(cum[bi], thetas, side="right")
        for counts in ((c1, c2), (n - c1, n - c2)):
            k1, k2 = counts
            ok = (k1 >= MIN_CELL_COUNT) & (k2 >= MIN_CELL_COUNT)
            skipped += int((~ok).sum())
            if not ok.any():
                continue
            p1 = k1[ok] / n
            p2 = k2[ok] / n
            est = np.abs(np.log(p1) - np.log(p2))
            hw = CONFIDENCE_Z * np.sqrt((1 - p1) / (n * p1) + (1 - p2) / (n * p2))
            top = int(np.argmax(est))
            if est[top] > best:
                best = float(est[top])
                best_hw = float(hw[top])
    diags = []
    if skipped:
        diags.append(f"{skipped} event cells below the {MIN_CELL_COUNT}-count floor")
    if best_hw == 0.0 and best == 0.0 and skipped:
        return OracleEstimate(0.0, math.inf, tuple(diags + ["no stable event cells"]))
    return OracleEstimate(best, best_hw, tuple(diags))


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
    if max_age < 0:
        raise ModelError(f"max_age must be >= 0, got {max_age}")
    cases = []

    iid_col = np.array([0.6, 0.4])
    P_iid = np.stack([iid_col, iid_col], axis=1)  # both columns identical
    iid = CmcModel(
        StateSpace(2, 2),
        np.broadcast_to(P_iid, (2, 2, 2, 2)).copy(),
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

    flip = np.array([[0.7, 0.3], [0.3, 0.7]])
    indep = CmcModel(
        StateSpace(2, 2),
        np.broadcast_to(flip, (2, 2, 2, 2)).copy(),
        np.eye(2),
    )
    kern = joint_kernel(indep)
    worst = 0.0
    details = []
    for t in range(max_age + 1):
        delta1 = aged_tv_distance(kern, [t, t], 1)
        _, logf = loose_bound(delta1, 1.0, eps_c)
        target = adp_leakage(single_chain_tv(indep, t), eps_c)
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
