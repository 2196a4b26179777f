"""Loop versions of the product-space and sampling routines, kept as references.

The package builds the joint kernel, the heterogeneous-age aged joint law,
the Hamming-1 neighbour pairs, the subset marginals of Delta_k and the
exact oracle's pair maximum with NumPy index arithmetic.  These are the
nested-loop forms they replaced, one state at a time.  The exact oracle
here also sums each state's Laplace mixture with its own `logsumexp`; the
package forms all states' sums as one row-scaled matrix product, which
rounds differently, so the two agree to rounding, not bit for bit.  The
simulated MSE steps its chains by binary lifting over a padded threshold
table, tracks the aged snapshots' joint indices by digit arithmetic and
gathers their query values from the per-state vector; here each step
compares every chain's uniform with each cumulative threshold, sums and
clips, and each aged snapshot is recorded per sequence and evaluated on
its own.  `release` checks ages and draws its one variate without
arrays, and the built-in queries evaluate in plain Python; below are the
per-sample and NumPy forms those replaced.  `test_vectorised.py` asserts that both give bit-identical
results.

Delta_bar is one Kantorovich-Rubinstein LP per kernel in the package; the
dense coupling LP per neighbour pair it replaced is kept here as its
reference, which agrees to rounding, not bit for bit.  `single_chain_tv`
builds each one-sequence kernel directly; the form through a one-sequence
`CmcModel` and `joint_kernel` is kept here and must give the same bits.

The P1 / frontier optimiser works out each distinct age's leakage
coefficient and aging error once and shares them across mechanisms and
eps; `tradeoff_scan` recomputes every grid point's budget and MSE from
the bound functions, one mechanism at a time, and scans the rows with
the same tie rule.
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
    backward_conditional,
    laplace_sample,
)
from csdp.bounds import _laplace_logcdf, _laplace_logsf, _theta_grid
from csdp.kernel import _digits
from csdp.rng import generator, laplace
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
        for w, state in enumerate(kernel.states):
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


def neighbour_pairs(states) -> list:
    pairs = []
    for ai, a in enumerate(states):
        for bi, b in enumerate(states):
            if ai < bi and sum(x != y for x, y in zip(a, b)) == 1:
                pairs.append((ai, bi))
    return pairs


def hamming_costs(states) -> np.ndarray:
    return np.array(
        [[sum(a != b for a, b in zip(z, w)) for w in states] for z in states],
        dtype=float,
    )


def hamming_costs_from_digits(s: int, m: int) -> np.ndarray:
    """The Hamming cost matrix by digit comparison, one coordinate at a time."""
    digits = _digits(s, m)
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


def bounded_aged_correlation(kernel, age) -> float:
    """Delta_bar as one dense coupling LP per neighbour pair."""
    B = backward_conditional(kernel, age)
    costs = hamming_costs_from_digits(kernel.space.num_sequences, kernel.space.num_states)
    best = 0.0
    for ai, bi in neighbour_pairs(kernel.states):
        best = max(best, transport_distance(B[:, ai], B[:, bi], costs))
    return best


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


def aged_tv_distance(kernel, age, degree: int) -> float:
    s, m = kernel.space.num_sequences, kernel.space.num_states
    J = csdp.aged_joint(kernel, age)
    size = min(degree, s)
    best = 0.0
    substates = list(itertools.product(range(m), repeat=size))
    sub_index = {st: i for i, st in enumerate(substates)}
    for subset in itertools.combinations(range(s), size):
        M = np.zeros((len(substates), len(substates)))
        for zi, z in enumerate(kernel.states):
            zk = sub_index[tuple(z[i] for i in subset)]
            for xi, x in enumerate(kernel.states):
                xk = sub_index[tuple(x[i] for i in subset)]
                M[zk, xk] += J[zi, xi]
        totals = M.sum(axis=0)
        B = M / totals[None, :]
        for ai, bi in neighbour_pairs(substates):
            best = max(best, 0.5 * float(np.abs(B[:, ai] - B[:, bi]).sum()))
    return best


def exact_oracle(kernel, params) -> float:
    query = params.query
    B = backward_conditional(kernel, params.age)
    f_values = np.array([query.evaluate(z) for z in kernel.states])
    b = query.sensitivity(1) / params.eps_c
    thetas = _theta_grid(f_values, b)
    with np.errstate(divide="ignore"):
        logB = np.where(B > 0, np.log(np.maximum(B, 1e-300)), -np.inf)
    best = 0.0
    lc = _laplace_logcdf(thetas[:, None] - f_values[None, :], b)
    ls = _laplace_logsf(thetas[:, None] - f_values[None, :], b)
    # log Pr[M <= theta | x] and log Pr[M > theta | x], one logsumexp each
    F = [logsumexp(lc + logB[None, :, x], axis=1) for x in range(len(f_values))]
    S = [logsumexp(ls + logB[None, :, x], axis=1) for x in range(len(f_values))]
    for ai, bi in neighbour_pairs(kernel.states):
        best = max(best, float(np.abs(F[ai] - F[bi]).max()),
                   float(np.abs(S[ai] - S[bi]).max()))
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
    nstates = len(kernel.states)
    f = np.array([evaluate(x) for x in kernel.states])
    cur = np.searchsorted(np.cumsum(kernel.stationary), rng.random(n), side="right")
    np.clip(cur, 0, nstates - 1, out=cur)
    state_arr = np.array(kernel.states)
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
    noise = laplace(rng, query.sensitivity(1) / eps_c, n)
    sq = (f_aged + noise - f_cur) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n))


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
        return csdp.adp_leakage(csdp.single_chain_tv(model, max(age)), eps)
    # DP at age zero pays DDP's d(k)-scaled budget
    return csdp.baseline_bounds(eps, s, spec.query)[1]


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
