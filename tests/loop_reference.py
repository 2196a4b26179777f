"""Loop versions of the product-space and sampling routines, kept as references.

The package builds the joint kernel, the heterogeneous-age aged joint law,
the Hamming-1 neighbour pairs, Delta_k and the exact oracle's pair maximum
with NumPy index arithmetic on the encoding that `StateSpace` owns (its
digit table, place values, subset codes and neighbour pairs).  These are
the nested-loop forms they replaced, one state at a time.  The package
reads Delta_k at the full degree s only; the loop `aged_tv_distance` here
still takes any degree, so that the reductions can check that on a
spatially independent model the degree-s value is the degree-1 one.  The
aged joint law here steps K once per lag, where the package joins an age's
lag groups by powers of K taken from shared squares; the two agree to
rounding.  The package's `AgedLaw` divides J by its column totals; the
backward conditional here divides each column of the loop law by its own
sum, so the Delta_bar and oracle references that read it are independent
of the package's law and agree with it to rounding.  The exact oracle
here takes each state's log density at each of the query's distinct values
as its own `logsumexp` over the aged states; the package sums the values'
probabilities G in one forward and one backward log-domain pass over the
values, which rounds differently, so the two agree to rounding, not bit for
bit.  The
simulated MSE steps its chains by binary lifting over a padded threshold
table, tracks the aged snapshots' joint indices by digit arithmetic and
gathers their query values from the per-state vector; here each step
compares every chain's uniform with each cumulative threshold, sums and
clips, and each aged snapshot is recorded per sequence and evaluated on
its own.  Its start states and criterion 8's snapshots are drawn by the
same threshold rule at one column: on a table at most 32 wide (n <= 32)
the package counts, in one comparison pass per cut, the cuts each uniform
passes, and on a wider one it lifts; here by `searchsorted` on the
column's cumsum, clipped.
`sample_trajectory` draws its start and steps through the same threshold
table, a step by `bisect` on a row; here one `searchsorted` per step on
the kernel's cumsums, clipped, as the package did before.
Array Laplace draws invert their uniforms in place; here they are the
out-of-place expression.  `release` checks ages and draws its one variate without
arrays, and the built-in queries evaluate in plain Python; below are the
per-sample and NumPy forms those replaced.  `test_vectorised.py` asserts that both give bit-identical
results.

Delta_bar is one Kantorovich-Rubinstein LP per kernel in the package; the
dense coupling LP per neighbour pair it replaced is kept here as its
reference, which agrees to rounding, not bit for bit.  The package's flow
bound collapses each coordinate onto the row's cheapest target state; the
collapse onto state 0 it replaced is kept here, and the package's bound
must never exceed it.  `single_chain_tvs` builds one kernel per distinct
self-transition matrix directly; the form through a one-sequence
`CmcModel` and `joint_kernel` per sequence and age is kept here and must
give the same bits.  `verify_reductions` builds its spatially
independent model as `two_user_model(1.0)` and reads every age's
single-chain TV from one `single_chain_tvs` call;
`spatially_independent_case` keeps the hand-built model and the call per
age it replaced.

The package's stationary law keeps the bits of the power iteration
`joint_stationary` wherever that stops within STATIONARY_STEPS steps, and
solves every other kernel by GTH state reduction in float64;
`stationary_gth` is the same reduction in long double, on the transposed,
row-stochastic matrix, against which that solve must agree to 1e-12
relative in every entry.

Two references have no package form to mirror: `evolve_distribution`
steps the per-sequence marginals pi_j' = sum_k lam[j, k] P[j][k] pi_k,
which the joint kernel's one-step marginals must match, and
`brute_force_profile` finds each s_i(f) by exhausting snapshot pairs, which
certifies the built-in queries' declared sensitivities.

The P1 / frontier optimiser works out each distinct age's leakage
coefficient and aging error once and shares them across mechanisms and
eps; `tradeoff_scan` recomputes every grid point's budget and MSE from
the bound functions, one mechanism at a time, and scans the rows with
the same tie rule.  The optimiser finds the infeasible fallback once per
mechanism and scans only each cap's feasible rows; `select_per_cap`
scans every row for both, once per cap, as it did before, and must give
the same solutions.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

import csdp
from csdp import (
    CmcModel,
    MechanismOutput,
    ModelError,
    StateSpace,
    laplace_sample,
)
from csdp.acceptance import _half_line_cdf
from csdp.bounds import ReductionCase
from csdp.rng import derive_seed, generator
from csdp.utility import TradeoffSolution, _better


def joint_kernel_matrix(model) -> np.ndarray:
    s, m = model.space.num_sequences, model.space.num_states
    states = tuple(itertools.product(range(m), repeat=s))
    n = len(states)
    K = np.empty((n, n))
    for ai, a in enumerate(states):
        laws = []
        for j in range(s):
            v = np.zeros(m)
            for k in range(s):
                if model.weights[j, k]:
                    v += model.weights[j, k] * model.transitions[j, k][:, a[k]]
            laws.append(v)
        for bi, b in enumerate(states):
            p = 1.0
            for j in range(s):
                p *= laws[j][b[j]]
            K[bi, ai] = p
    return K


def joint_stationary(K: np.ndarray, tol: float = 1e-13, max_iter: int = 10**6) -> np.ndarray:
    n = K.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = K @ pi
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    raise AssertionError("joint stationary distribution did not converge")


def stationary_gth(K: np.ndarray) -> np.ndarray:
    """The stationary law of the irreducible column-stochastic K by GTH state
    reduction in long double, on the row-stochastic P = K^T as Grassmann,
    Taksar & Heyman (1985) write it: state k is folded out by
    P[i, j] += P[i, k] P[k, j] / sum_{l<k} P[k, l], and the law is read back
    from pi[k] = sum_{i<k} pi[i] P[i, k]."""
    P = K.T.astype(np.longdouble)
    n = len(P)
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    pi = np.ones(n, np.longdouble)
    for k in range(1, n):
        pi[k] = pi[:k] @ P[:k, k]
    return pi / pi.sum()


def aged_joint(kernel, age) -> np.ndarray:
    """Forward dynamic programming over the trajectory, recording each
    coordinate when its lag is reached (the heterogeneous-age path)."""
    ages = np.asarray(age, int)
    s, m = kernel.space.num_sequences, kernel.space.num_states
    n = kernel.matrix.shape[0]
    T = int(ages.max())
    record_at = {}
    for i in range(s):
        record_at.setdefault(T - int(ages[i]), []).append(i)
    dist = kernel.stationary[:, None].copy()
    recorded = []

    def record(dist, seqs):
        reps = m ** len(seqs)
        out = np.zeros((n, dist.shape[1] * reps))
        for w, state in enumerate(kernel.space.states):
            offset = 0
            for v in (state[i] for i in seqs):
                offset = offset * m + v
            out[w, offset::reps] = dist[w]
        return out

    for step in range(T + 1):
        if step in record_at:
            dist = record(dist, record_at[step])
            recorded.extend(record_at[step])
        if step < T:
            dist = kernel.matrix @ dist
    J = np.zeros((n, n))
    for r, rec_vals in enumerate(itertools.product(range(m), repeat=s)):
        z = [0] * s
        for pos, i in enumerate(recorded):
            z[i] = rec_vals[pos]
        zi = 0
        for v in z:
            zi = zi * m + v
        J[zi, :] += dist[:, r]
    return J


def backward_conditional(kernel, age) -> np.ndarray:
    """B[z, x] = J[z, x] / Pr[x] from the loop aged joint law, one column at
    a time."""
    J = aged_joint(kernel, age)
    B = np.empty_like(J)
    for x in range(J.shape[1]):
        B[:, x] = J[:, x] / J[:, x].sum()
    return B


def neighbour_pairs(states) -> list:
    pairs = []
    for ai, a in enumerate(states):
        for bi, b in enumerate(states):
            if ai < bi and sum(x != y for x, y in zip(a, b)) == 1:
                pairs.append((ai, bi))
    return pairs


def subset_code(states, coords, m: int) -> list:
    """Each state's big-endian code of its values at `coords`, in that order."""
    codes = []
    for state in states:
        code = 0
        for c in coords:
            code = code * m + state[c]
        codes.append(code)
    return codes


def hamming_costs(states) -> np.ndarray:
    return np.array(
        [[sum(a != b for a, b in zip(z, w)) for w in states] for z in states],
        dtype=float,
    )


def hamming_costs_from_digits(s: int, m: int) -> np.ndarray:
    """The Hamming cost matrix by digit comparison, one coordinate at a time."""
    digits = StateSpace(s, m).digits
    costs = np.zeros((len(digits), len(digits)))
    for col in digits.T:
        costs += col[:, None] != col[None, :]
    return costs


def transport_distance(p: np.ndarray, q: np.ndarray, costs: np.ndarray) -> float:
    """Minimal expected Hamming cost of a coupling of p and q, as a dense
    coupling LP over the states where p and q differ."""
    diff = p - q
    if np.abs(diff).sum() < 1e-15:
        return 0.0
    # mass common to p and q can stay in place at zero cost; transport only
    # the difference, normalized to unit moved mass
    surplus = np.maximum(diff, 0.0)
    deficit = np.maximum(-diff, 0.0)
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


def state_zero_flow_cost(D: np.ndarray, space) -> np.ndarray:
    """For every row d of D, the cost of the flow that collapses the
    coordinates onto state 0 one at a time, largest marginal TV first: the
    package's upper bound on W1 before it took each row's cheapest target
    state.  A line x with sum sigma costs 0.5 * (|sigma - x_0| +
    sum_{a != 0} |x_a|), and the coordinates are ordered as the package
    orders them."""
    N, n = D.shape
    s, m = space.num_sequences, space.num_states
    cube = D.reshape((N,) + (m,) * s)
    marginal_tv = np.stack(
        [np.abs(cube.sum(axis=tuple(k + 1 for k in range(s) if k != j))).sum(axis=1)
         for j in range(s)], axis=1) * 0.5
    order = np.argsort(-marginal_tv, axis=1, kind="stable")
    cost = np.zeros(N)
    for r in range(N):
        Y = cube[r].transpose(order[r])
        for _ in range(s):
            Y = Y.reshape(m, -1)
            rest = Y[1:]  # sigma - x_0 is their sum
            cost[r] += (np.abs(rest.sum(axis=0)).sum() + np.abs(rest).sum()) * 0.5
            Y = Y.sum(axis=0)
    return cost


def bounded_aged_correlation(kernel, age) -> float:
    """Delta_bar as one dense coupling LP per neighbour pair."""
    B = backward_conditional(kernel, age)
    costs = hamming_costs_from_digits(kernel.space.num_sequences, kernel.space.num_states)
    best = 0.0
    for ai, bi in neighbour_pairs(kernel.space.states):
        best = max(best, transport_distance(B[:, ai], B[:, bi], costs))
    return best


def evolve_distribution(model, blocks) -> np.ndarray:
    """One step of the marginal evolution from per-sequence laws `blocks`, as (s, m)."""
    s = model.space.num_sequences
    out = np.zeros((s, model.space.num_states))
    for j in range(s):
        for k in range(s):
            out[j] += model.weights[j, k] * (model.transitions[j, k] @ blocks[k])
    return out


def brute_force_profile(query, upto: int) -> list:
    """[s_1(f), ..., s_upto(f)] over all snapshot pairs at Hamming distance 1..upto."""
    states = query.space.states
    worst = [0.0] * (upto + 1)
    for a in states:
        fa = query.evaluate(a)
        for b in states:
            d = sum(x != y for x, y in zip(a, b))
            if 1 <= d <= upto:
                worst[d] = max(worst[d], abs(fa - query.evaluate(b)))
    return worst[1:]


def single_chain_tv(model, t: int) -> float:
    """The single-chain TV through a one-sequence CmcModel and its joint kernel."""
    best = 0.0
    for i in range(model.space.num_sequences):
        solo = CmcModel(
            StateSpace(1, model.space.num_states),
            model.transitions[i : i + 1, i : i + 1],
            np.ones((1, 1)),
        )
        best = max(best, csdp.aged_tv_distance(csdp.joint_kernel(solo), [t], 1))
    return best


def spatially_independent_case(eps_c: float, max_age: int, tol: float):
    """`verify_reductions`' spatially independent case from a hand-built
    model with identity coupling, its degree-1 loop Delta_k and one
    `single_chain_tv` call per age."""
    flip = np.array([[0.7, 0.3], [0.3, 0.7]])
    indep = CmcModel(StateSpace(2, 2), np.broadcast_to(flip, (2, 2, 2, 2)), np.eye(2))
    kern = csdp.joint_kernel(indep)
    worst = 0.0
    details = []
    for t in range(max_age + 1):
        _, logf = csdp.loose_bound(aged_tv_distance(kern, [t, t], 1), 1.0, eps_c)
        target = csdp.adp_leakage(single_chain_tv(indep, t), eps_c)
        worst = max(worst, abs(logf - target))
        details.append(f"t={t}: log={logf:.12g} adp={target:.12g}")
    return ReductionCase("spatially-independent-vs-age-dependent", True, worst <= tol,
                         "; ".join(details))


def aged_tv_distance(kernel, age, degree: int) -> float:
    s, m = kernel.space.num_sequences, kernel.space.num_states
    J = csdp.aged_joint(kernel, age).joint
    size = min(degree, s)
    best = 0.0
    substates = list(itertools.product(range(m), repeat=size))
    sub_index = {st: i for i, st in enumerate(substates)}
    for subset in itertools.combinations(range(s), size):
        M = np.zeros((len(substates), len(substates)))
        for zi, z in enumerate(kernel.space.states):
            zk = sub_index[tuple(z[i] for i in subset)]
            for xi, x in enumerate(kernel.space.states):
                xk = sub_index[tuple(x[i] for i in subset)]
                M[zk, xk] += J[zi, xi]
        totals = M.sum(axis=0)
        B = M / totals[None, :]
        for ai, bi in neighbour_pairs(substates):
            best = max(best, 0.5 * float(np.abs(B[:, ai] - B[:, bi]).sum()))
    return best


def exact_oracle(kernel, params) -> float:
    """The largest log-ratio of the output densities over neighbouring
    snapshots, read at the query's distinct values, where it is attained."""
    query = params.query
    B = backward_conditional(kernel, params.age)
    f_values = np.array([query.evaluate(z) for z in kernel.space.states])
    b = query.sensitivity(1) / params.eps_c
    ys = np.array(sorted(set(f_values.tolist())))
    with np.errstate(divide="ignore"):
        logB = np.log(B)
    # log of 2b times the output density at each ys[j], given x
    kernel_terms = -np.abs(ys[:, None] - f_values[None, :]) / b
    log_p = [logsumexp(kernel_terms + logB[None, :, x], axis=1) for x in range(len(f_values))]
    best = 0.0
    for ai, bi in neighbour_pairs(kernel.space.states):
        best = max(best, float(np.abs(log_p[ai] - log_p[bi]).max()))
    return best


NUMPY_EVALUATE = {
    "mean": lambda x: float(np.mean(x)),
    "sum": lambda x: float(np.sum(x)),
    "max": lambda x: float(np.max(x)),
    "min": lambda x: float(np.min(x)),
}


def validate_ages(age, space) -> np.ndarray:
    ages = np.atleast_1d(np.asarray(age, int))
    if ages.shape == (1,) and space.num_sequences > 1:
        ages = np.full(space.num_sequences, ages[0])
    if ages.shape != (space.num_sequences,):
        raise ModelError(
            f"age vector has shape {ages.shape}, expected ({space.num_sequences},)"
        )
    if np.any(ages < 0):
        raise ModelError(f"ages must be nonnegative, got {ages.tolist()}")
    return ages


def age_data(db, t, age) -> tuple:
    ages = validate_ages(age, db.space)
    if not 1 <= t <= db.horizon:
        raise ModelError(f"time index {t} outside the recorded horizon [1, {db.horizon}]")
    snapshot = []
    for i, a in enumerate(ages):
        idx = t - int(a)
        if idx < 1:
            raise ModelError(
                f"sequence {i}: age {a} reaches before the start of the record at t={t}"
            )
        snapshot.append(int(db.snapshots[idx - 1, i]))
    return tuple(snapshot)


def release(db, t, age, query, eps_c, seed):
    """`release` with a built-in query's NumPy evaluate and the noise taken
    as the element of a size-1 draw."""
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    snapshot = age_data(db, t, age)
    scale = query.sensitivity(1) / eps_c
    noise = laplace_sample(scale, 1, seed)[0]
    return MechanismOutput(
        value=NUMPY_EVALUATE[query.name](snapshot) + noise,
        aged_snapshot=snapshot,
        noise_scale=scale,
        seed=seed,
    )


def laplace_draws(rng, scale, size):
    """`rng.laplace`'s array draws as the out-of-place inverse cdf it replaced."""
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def half_line_gap(law, query, eps_c, samples, seed) -> float:
    """`acceptance.half_line_gap` with each snapshot drawn by `searchsorted`
    on its column's cumsum, clipped to the last state."""
    thetas, F = _half_line_cdf(law, query, eps_c)
    B = law.conditional()
    f_values = np.array([query.evaluate(z) for z in law.space.states])
    b = query.sensitivity(1) / eps_c
    worst = 0.0
    for x in range(B.shape[1]):
        rng = generator(derive_seed(seed, "oracle", x))
        z = np.searchsorted(np.cumsum(B[:, x]), rng.random(samples), side="right")
        z = np.clip(z, 0, len(f_values) - 1)
        y = np.sort(f_values[z] + laplace_draws(rng, b, samples))
        below = np.searchsorted(y, thetas, side="right") / samples
        worst = max(worst, float(np.abs(below - F[:, x]).max()))
    return worst


def next_states(cum, cur, u):
    """The chains' next states: the number of column `cur`'s cumulative
    thresholds at or below u, one comparison per threshold, clipped to the
    last state."""
    nxt = (u[:, None] >= cum[:, cur].T).sum(axis=1)
    return np.clip(nxt, 0, cum.shape[0] - 1)


def mse_simulated(kernel, age, query, eps_c, samples, seed, evaluate) -> tuple:
    """The simulated MSE with `evaluate` called on every aged sample."""
    ages = validate_ages(age, kernel.space)
    T = int(ages.max())
    n = int(samples)
    rng = generator(seed)
    nstates = len(kernel.space.states)
    f = np.array([evaluate(x) for x in kernel.space.states])
    cur = np.searchsorted(np.cumsum(kernel.stationary), rng.random(n), side="right")
    np.clip(cur, 0, nstates - 1, out=cur)
    state_arr = np.array(kernel.space.states)
    recorded = np.empty((n, kernel.space.num_sequences), dtype=np.int64)
    cum = np.cumsum(kernel.matrix, axis=0)
    for step in range(T + 1):
        mask = (T - ages) == step
        if mask.any():
            recorded[:, mask] = state_arr[cur][:, mask]
        if step < T:
            cur = next_states(cum, cur, rng.random(n))
    f_cur = f[cur]
    f_aged = np.array([evaluate(z) for z in recorded])
    noise = laplace_draws(rng, query.sensitivity(1) / eps_c, n)
    sq = (f_aged + noise - f_cur) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n))


def sample_trajectory(kernel, initial, horizon, seed) -> np.ndarray:
    """`kernel.sample_trajectory` as the scalar loop it replaced: one
    `searchsorted` on a cumsum per state, clipped to the last state."""
    rng = generator(seed)
    n = kernel.matrix.shape[0]
    if isinstance(initial, str):
        cur = min(int(np.searchsorted(np.cumsum(kernel.stationary), rng.random(),
                                      side="right")), n - 1)
    elif np.isscalar(initial):
        cur = int(initial)
    else:
        cur = kernel.space.index(initial)
    cum = np.cumsum(kernel.matrix, axis=0)
    path = np.empty(horizon, dtype=np.intp)
    path[0] = cur
    for t in range(1, horizon):
        cur = int(np.searchsorted(cum[:, cur], rng.random(), side="right"))
        path[t] = cur = min(cur, n - 1)
    return kernel.space.digits[path].astype(np.int64, copy=False)


def budget(model, kernel, spec, mechanism, age, eps) -> float:
    """One grid point's leakage budget, from the bound functions."""
    s = model.space.num_sequences
    if mechanism == "csdp":
        if spec.leakage_kind == "tight":
            return csdp.tight_bound(csdp.bounded_aged_correlation(kernel, age), eps)
        dk = csdp.k_sensitivity(spec.query, s)
        linear, log_form = csdp.loose_bound(csdp.aged_tv_distance(kernel, age, s), dk, eps)
        return linear if spec.leakage_kind == "loose_linear" else log_form
    if mechanism == "adp":
        return csdp.adp_leakage(single_chain_tv(model, max(age)), eps)
    # DP at age zero pays DDP's d(s)-scaled budget
    return csdp.baseline_bounds(eps, spec.query)[1]


def p1_scan(rows, cap) -> TradeoffSolution:
    """The least leakage with MSE <= cap over rows in order (ties: larger
    eps, then smaller age), else the least-MSE row, infeasible."""
    best = least = None
    for age, eps, leak, mse in rows:
        if least is None or (mse, -eps, age) < least[:3]:
            least = (mse, -eps, age, leak)
        if mse <= cap and _better((leak, -eps, age), best and best[:3]):
            best = (leak, -eps, age, mse)
    if best is not None:
        return TradeoffSolution(best[2], -best[1], best[0], best[3], True)
    return TradeoffSolution(least[2], -least[1], least[3], least[0], False)


def select_per_cap(rows, cap) -> TradeoffSolution:
    """The P1 answer at one cap, as the optimiser took it before it took
    every cap from one pass: every row scanned in order for both the
    fallback and the best feasible row, anew for each cap."""
    best = None  # (leakage, -eps, age) ordering
    fallback = None  # (mse, -eps, age)
    for ages, eps, leak, mse in rows:
        fb_key = (mse, -eps, ages)
        if fallback is None or fb_key < fallback[0]:
            fallback = (fb_key, leak)
        if mse > cap:
            continue
        key = (leak, -eps, ages)
        if _better(key, best[0] if best else None):
            best = (key, mse)
    if best is not None:
        (leak, neg_eps, ages), mse = best
        return TradeoffSolution(ages, -neg_eps, leak, mse, True)
    (mse, neg_eps, ages), leak = fallback
    return TradeoffSolution(ages, -neg_eps, leak, mse, False)


def tradeoff_scan(model, spec, caps) -> dict:
    """{mechanism: [(cap, solution), ...]} with every row recomputed."""
    kernel = csdp.joint_kernel(model)
    s = model.space.num_sequences
    grid = [tuple(validate_ages(age, model.space).tolist()) for age in spec.age_grid]
    out = {}
    for mech in ("csdp", "adp", "ddp", "dp"):
        ages = [(0,) * s] if mech in ("ddp", "dp") else grid
        rows = [(age, eps, budget(model, kernel, spec, mech, age, eps),
                 csdp.mse_exact(kernel, age, spec.query, eps))
                for age in ages for eps in spec.eps_grid]
        out[mech] = [(float(cap), p1_scan(rows, cap)) for cap in caps]
    return out
