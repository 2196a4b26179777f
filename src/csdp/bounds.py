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
  single sequence and to 1 at age zero.
* d(k) -- the query's k-sensitivity.

The certified loose budget is min(d(k)*Delta_k*eps_c,
ln(1 + Delta_k*(e^{d(k) eps_c} - 1))); the tight budget is
Delta_bar*eps_c.  An exact likelihood-ratio oracle over Laplace half-line
events cross-checks every bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

from .kernel import JointKernel, _digits, aged_joint, backward_conditional, validate_ages
from .model import CmcModel, ModelError, StateSpace
from .queries import QuerySpec, k_sensitivity
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
        if self.eps_c <= 0:
            raise ModelError(f"eps_c must be positive, got {self.eps_c}")
        if not 1 <= self.degree <= self.query.space.num_sequences:
            raise ModelError(f"correlation degree {self.degree} out of range")


@dataclass(frozen=True)
class LeakageReport:
    loose_linear: float
    loose_log: float
    tight: float
    adp: Optional[float] = None
    dp: Optional[float] = None
    ddp: Optional[float] = None
    oracle: Optional[float] = None
    oracle_hw: Optional[float] = None
    params: Optional[LeakageParams] = None

    @property
    def certified(self) -> float:
        return min(self.loose_linear, self.loose_log)


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
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    linear = dk * delta_k * eps_c
    log_form = math.log1p(delta_k * math.expm1(dk * eps_c))
    return linear, log_form


def _hamming_costs(s: int, m: int) -> np.ndarray:
    digits = _digits(s, m)
    costs = np.zeros((len(digits), len(digits)))
    for col in digits.T:
        costs += col[:, None] != col[None, :]
    return costs


def _transport_distance(p: np.ndarray, q: np.ndarray, costs: np.ndarray) -> float:
    """Minimal expected Hamming cost of a coupling of p and q."""
    n = len(p)
    diff = p - q
    if np.abs(diff).sum() < 1e-15:
        return 0.0
    # mass common to p and q can stay in place at zero cost; transport only
    # the difference (standard reduction, keeps the LP small and well scaled)
    surplus = np.maximum(diff, 0.0)
    deficit = np.maximum(-diff, 0.0)
    # normalize the moved mass to 1 so the LP stays well conditioned even
    # when the two distributions are nearly identical
    mass = surplus.sum()
    rows = np.nonzero(surplus > 0)[0]
    cols = np.nonzero(deficit > 0)[0]
    nr, nc = len(rows), len(cols)
    A_eq = np.zeros((nr + nc, nr * nc))
    for r in range(nr):
        A_eq[r, r * nc : (r + 1) * nc] = 1.0
    for c in range(nc):
        A_eq[nr + c, c::nc] = 1.0
    b_eq = np.concatenate([surplus[rows], deficit[cols] * (mass / deficit.sum())]) / mass
    cost_vec = costs[np.ix_(rows, cols)].ravel()
    res = linprog(cost_vec, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ModelError(f"transport LP failed: {res.message}")
    return float(res.fun) * mass


def bounded_aged_correlation(kernel: JointKernel, age) -> float:
    """Delta_bar: max over neighbouring snapshots of the Hamming-cost
    transport distance between their backward conditionals.

    Each unit of transport moves one aged coordinate, which shifts the
    query by at most one one-record sensitivity; the resulting budget
    Delta_bar * eps_c therefore dominates the exact likelihood-ratio
    leakage on the evaluated configurations while staying below the loose
    budget (see tests and the bound-ordering invariant).
    """
    s, m = kernel.space.num_sequences, kernel.space.num_states
    B = backward_conditional(kernel, age)
    costs = _hamming_costs(s, m)
    best = 0.0
    for ai, bi in _neighbour_pairs(s, m).tolist():
        best = max(best, _transport_distance(B[:, ai], B[:, bi], costs))
    return best


def ratio_extremes(kernel: JointKernel, age) -> tuple:
    """Diagnostic (g_max, g_min): extremes of the conditional-probability
    ratio products Pr[x_i | x_-i, z_-i]/Pr[x_i | x_-i] *
    Pr[x_-i | x_i, z_i]/Pr[x_-i | x_i] over users, snapshots and aged
    values.  Zero-probability conditioning events are skipped.

    Collapses to (1, 1) when sequences are independent or the age is zero
    everywhere with a single sequence.
    """
    s, m = kernel.space.num_sequences, kernel.space.num_states
    J = aged_joint(kernel, age)
    px = J.sum(axis=0)
    states = kernel.states
    g_max, g_min = 0.0, math.inf
    seen = False
    for i in range(s):
        rest = [j for j in range(s) if j != i]
        for xi, x in enumerate(states):
            if px[xi] <= 0:
                continue
            # denominators: stationary conditionals of x_i given x_-i and
            # x_-i given x_i
            same_rest = [k for k, w in enumerate(states)
                         if all(w[j] == x[j] for j in rest)]
            same_i = [k for k, w in enumerate(states) if w[i] == x[i]]
            p_xi_given_rest = px[xi] / px[same_rest].sum()
            p_rest_given_xi = px[xi] / px[same_i].sum()
            # ratio over z_-i: Pr[x_i | x_-i, z_-i] / Pr[x_i | x_-i]
            for z_rest in itertools.product(range(m), repeat=len(rest)):
                num = 0.0
                den = 0.0
                for zi, z in enumerate(states):
                    if tuple(z[j] for j in rest) != z_rest:
                        continue
                    den += J[zi, same_rest].sum()
                    num += J[zi, xi]
                if den <= 0:
                    continue
                r1 = (num / den) / p_xi_given_rest
                # ratio over z_i: Pr[x_-i | x_i, z_i] / Pr[x_-i | x_i]
                for z_i in range(m):
                    num2 = 0.0
                    den2 = 0.0
                    for zi, z in enumerate(states):
                        if z[i] != z_i:
                            continue
                        den2 += J[zi, same_i].sum()
                        num2 += J[zi, xi]
                    if den2 <= 0:
                        continue
                    r2 = (num2 / den2) / p_rest_given_xi
                    seen = True
                    g_max = max(g_max, r1 * r2)
                    g_min = min(g_min, r1 * r2)
    if not seen:
        raise ModelError("all conditioning events are degenerate")
    return g_max, g_min


def tight_bound(delta_bar: float, eps_c: float) -> float:
    if delta_bar < 0:
        raise ModelError(f"delta_bar must be nonnegative, got {delta_bar}")
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    return delta_bar * eps_c


def cmc_leakage(
    model: CmcModel, age, eps_c: float, query: QuerySpec, degree: int
) -> float:
    """d(k) * Delta_k(lambda, age) * eps_c on the model's joint kernel."""
    from .kernel import joint_kernel

    kernel = joint_kernel(model)
    dk = k_sensitivity(query, degree)
    delta = aged_tv_distance(kernel, age, degree)
    return dk * delta * eps_c


def adp_leakage(delta_t: float, eps_c: float) -> float:
    """Single-sequence age-dependent budget ln(1 + Delta(t)(e^eps - 1))."""
    if not 0.0 <= delta_t <= 1.0 + 1e-12:
        raise ModelError(f"delta_t must lie in [0, 1], got {delta_t}")
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    return math.log1p(delta_t * math.expm1(eps_c))


def single_chain_tv(model: CmcModel, t: int) -> float:
    """Worst per-sequence aged TV when each sequence is viewed as an
    isolated chain with its own self-transition matrix (the baseline that
    ignores coupling)."""
    from .kernel import joint_kernel
    from .model import CmcModel as _M

    best = 0.0
    for i in range(model.space.num_sequences):
        solo = _M(
            StateSpace(1, model.space.num_states),
            model.transitions[i : i + 1, i : i + 1],
            np.ones((1, 1)),
        )
        best = max(best, aged_tv_distance(joint_kernel(solo), [t], 1))
    return best


def baseline_bounds(eps_c: float, degree: int, query: QuerySpec) -> tuple:
    """(dp, ddp): the correlation-blind budget and the sensitivity-scaled
    spatial-only budget, both at age zero."""
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
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


def oracle_leakage(
    kernel: JointKernel,
    params: LeakageParams,
    samples: int = 0,
    seed: int = 0,
    method: str = "exact",
) -> OracleEstimate:
    """Empirical/exact supremum of |ln Pr[M in S | x] - ln Pr[M in S | x']|.

    The supremum ranges over neighbouring snapshot pairs and half-line
    events {M <= theta} and {M > theta} on a 101-point theta grid spanning
    the query range plus six noise scales.  The exact path mixes the
    Laplace output law over the backward conditional in closed form; the
    sampling path estimates event probabilities by Monte Carlo and reports
    a 95% normal-approximation half-width, skipping cells with fewer than
    25 hits in either arm (skips are reported as diagnostics, and the
    interval is widened to infinity if nothing stable remains).
    """
    query = params.query
    B = backward_conditional(kernel, params.age)
    f_values = np.array([query.evaluate(z) for z in kernel.states])
    b = query.sensitivity(1) / params.eps_c
    thetas = _theta_grid(f_values, b)
    pairs = _neighbour_pairs(kernel.space.num_sequences, kernel.space.num_states)

    if method == "exact":
        with np.errstate(divide="ignore"):
            logB = np.where(B > 0, np.log(np.maximum(B, 1e-300)), -np.inf)
        lc = _laplace_logcdf(thetas[:, None] - f_values[None, :], b)
        ls = _laplace_logsf(thetas[:, None] - f_values[None, :], b)
        # log Pr[M <= theta | x] and log Pr[M > theta | x], once per state x
        F = np.empty((len(thetas), len(f_values)))
        S = np.empty_like(F)
        for x in range(len(f_values)):
            F[:, x] = logsumexp(lc + logB[None, :, x], axis=1)
            S[:, x] = logsumexp(ls + logB[None, :, x], axis=1)
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
    from .kernel import joint_kernel
    from .queries import builtin_queries

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
