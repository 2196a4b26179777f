"""Utility accounting and the leakage-vs-accuracy optimizer.

The release error decomposes into an aging term (query drift between the
aged and the current snapshot) and the Laplace noise variance; the two are
independent, so the mean squared error is their sum.  Problem P1 --
minimize a chosen leakage budget subject to an MSE cap -- is solved by
exhaustive search over (age, eps_c) grids.  The correlation degree is
always s, every user coupled (the worst case).  The frontier's DP rows
are its DDP rows: both are pinned to age zero with the same budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    adp_leakage,
    aged_tv_distance,
    baseline_bounds,
    bounded_aged_correlations,
    loose_bound,
    single_chain_tv,
    tight_bound,
)
from .kernel import JointKernel, aged_joint, joint_kernel, state_values, validate_ages
from .model import DEFAULT_ENUMERATION_CAP, CmcModel, ModelError, check_eps
from .queries import QuerySpec, k_sensitivity
from .rng import generator, laplace

LEAKAGE_KINDS = ("loose_linear", "loose_log", "tight")
MECHANISMS = ("csdp", "adp", "ddp", "dp")
TIE_RTOL = 1e-12
TIE_ATOL = 1e-15


def _better(candidate, incumbent) -> bool:
    """Strictly-better comparison for (leakage, -eps, age) keys, treating
    leakage values within floating-point noise of each other as tied."""
    if incumbent is None:
        return True
    leak_c, leak_i = candidate[0], incumbent[0]
    if math.isclose(leak_c, leak_i, rel_tol=TIE_RTOL, abs_tol=TIE_ATOL):
        return candidate[1:] < incumbent[1:]
    return leak_c < leak_i


@dataclass(frozen=True)
class UtilitySpec:
    """A P1 problem: the leakage budget of `leakage_kind` at degree s, the
    number of sequences, minimized over the grids subject to `mse_cap`."""

    query: QuerySpec
    mse_cap: float
    age_grid: tuple  # iterable of age vectors
    eps_grid: tuple  # iterable of finite positive reals
    leakage_kind: str = "loose_linear"

    def __post_init__(self):
        if self.mse_cap <= 0:
            raise ModelError(f"mse_cap must be positive, got {self.mse_cap}")
        if not len(self.age_grid) or not len(self.eps_grid):
            raise ModelError("age and eps grids must be non-empty")
        for eps in self.eps_grid:
            check_eps(eps)
        if self.leakage_kind not in LEAKAGE_KINDS:
            raise ModelError(
                f"leakage_kind '{self.leakage_kind}' not one of {LEAKAGE_KINDS}"
            )


@dataclass(frozen=True)
class TradeoffSolution:
    age: tuple
    eps_c: float
    leakage: float
    mse: float
    feasible: bool


def aging_error(kernel: JointKernel, age, query: QuerySpec) -> float:
    """E[(f(aged snapshot) - f(current snapshot))^2] at stationarity."""
    J = aged_joint(kernel, age)
    f = state_values(kernel, query)
    return float((J * (f[:, None] - f[None, :]) ** 2).sum())


def noise_variance(query: QuerySpec, eps_c: float) -> float:
    return 2.0 * (query.sensitivity(1) / eps_c) ** 2


def mse_exact(kernel: JointKernel, age, query: QuerySpec, eps_c: float) -> float:
    check_eps(eps_c)
    return aging_error(kernel, age, query) + noise_variance(query, eps_c)


def _threshold_table(matrix: np.ndarray) -> np.ndarray:
    """Row c holds the first n-1 cumulative sums of column c of an (n, n)
    column-stochastic matrix, padded with +inf to a power-of-two width."""
    n = matrix.shape[0]
    table = np.full((n, 1 << (n - 1).bit_length()), np.inf)
    table[:, : n - 1] = np.cumsum(matrix, axis=0)[:-1].T
    return table


def _next_states(table: np.ndarray, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(#{j : cum[j, c] <= u}, n-1) for each chain at state c = cur,
    by branch-free binary lifting over `_threshold_table`'s rows.

    The thresholds of a row never decrease (cumsums of nonnegative entries
    do not in floating point), so the count up to u is a prefix length and
    the +inf padding caps it at n-1 with no clip.
    """
    width = table.shape[1]
    flat = table.ravel()
    base = cur * width - 1
    pos = np.zeros(len(cur), dtype=np.intp)
    k = width // 2
    while k:
        pos += k * (flat[base + pos + k] <= u)
        k //= 2
    return pos


def mse_simulated(
    kernel: JointKernel,
    age,
    query: QuerySpec,
    eps_c: float,
    samples: int,
    seed: int,
) -> tuple:
    """(estimate, standard error) of the release MSE over seeded trajectories.

    The generator of `seed` is read in one fixed order: `samples` uniforms
    for the stationary start states, then `samples` uniforms per step of
    the longest lag, then `samples` Laplace draws of the noise.  Every draw
    maps its uniform u to min(#{j : cum[j] <= u}, n-1), cum the cumsums of
    its law: the stationary law for a start, column c of the kernel for a
    step from state c.  A zero-probability state is never drawn.  The
    stream and the rule together fix every estimate to the last bit.
    """
    if samples < 100:
        raise ModelError(f"need at least 100 samples, got {samples}")
    check_eps(eps_c)
    s, m = kernel.space.num_sequences, kernel.space.num_states
    ages = np.array(validate_ages(age, kernel.space))
    T = int(ages.max())
    n = int(samples)
    rng = generator(seed)
    nstates = len(kernel.states)
    f = state_values(kernel, query)

    cur = np.searchsorted(np.cumsum(kernel.stationary), rng.random(n), side="right")
    np.clip(cur, 0, nstates - 1, out=cur)
    table = _threshold_table(kernel.matrix)
    # the aged snapshots' joint indices (big-endian, as kernel.states),
    # each sequence's digit taken from `cur` when its lag is reached
    place = m ** np.arange(s - 1, -1, -1)
    aged = np.zeros(n, dtype=np.intp)
    for step in range(T + 1):
        lagged = (T - ages) == step
        if lagged.all():
            aged = cur
        else:
            for p in place[lagged]:
                aged += cur // p % m * p
        if step < T:
            cur = _next_states(table, cur, rng.random(n))
    f_cur = f[cur]
    f_aged = f[aged]
    noise = laplace(rng, query.sensitivity(1) / eps_c, n)
    sq = (f_aged + noise - f_cur) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n))


def _leakage(kind: str, coeff: float, eps_c: float, dk: float) -> float:
    """The budget of `kind` from its coefficient: Delta_bar for "tight",
    Delta_k for the loose forms."""
    if kind == "tight":
        return tight_bound(coeff, eps_c)
    linear, log_form = loose_bound(coeff, dk, eps_c)
    return linear if kind == "loose_linear" else log_form


def solve_p1(model: CmcModel, spec: UtilitySpec) -> TradeoffSolution:
    """Exhaustive grid search for P1: min leakage s.t. MSE <= cap.

    Ties in leakage are broken toward larger eps_c (less noise) and then
    lexicographically smaller age (fresher data).  When no grid point is
    feasible the best-MSE point is returned with feasible=False.
    """
    kernel = joint_kernel(model)
    return _select(_grid_rows(kernel, model, spec, baselines=False)["csdp"], spec.mse_cap)


def _grid_rows(kernel: JointKernel, model: CmcModel, spec: UtilitySpec, baselines: bool) -> dict:
    """{mechanism: [(age, eps, leakage, mse), ...]} for CSDP and, with
    `baselines`, ADP and DDP, each at every grid point, age-major.

    CSDP and ADP range over the full (age, eps) grid in `age_grid` order,
    duplicates included; DDP is pinned to age zero.  DP is pinned there
    too, where the correlation-blind mechanism still pays the d(k)-scaled
    cost once correlated records are accounted for, which is exactly the
    DDP certified budget -- the two frontiers coincide, so DP reads DDP's
    rows and is not evaluated.  The degree is s.  Each distinct age's
    leakage coefficients and aging error are computed once and shared by
    every mechanism; none of this depends on the MSE cap.
    """
    s = kernel.space.num_sequences
    query, kind = spec.query, spec.leakage_kind
    dk = k_sensitivity(query, s)
    grid = [validate_ages(age, kernel.space) for age in spec.age_grid]
    ages = list(dict.fromkeys(grid))
    if kind == "tight":  # one call packs every age's transport LPs
        delta = dict(zip(ages, bounded_aged_correlations(kernel, ages)))
    else:
        delta = {a: aged_tv_distance(kernel, a, s) for a in ages}
    budgets = {"csdp": (grid, lambda a, eps: _leakage(kind, delta[a], eps, dk))}
    if baselines:
        chain_tv = {a: single_chain_tv(model, max(a)) for a in ages}
        budgets["adp"] = (grid, lambda a, eps: adp_leakage(chain_tv[a], eps))
        budgets["ddp"] = ([(0,) * s], lambda a, eps: baseline_bounds(eps, s, query)[1])
    aging = {a: aging_error(kernel, a, query)
             for a in dict.fromkeys(a for mech_ages, _ in budgets.values() for a in mech_ages)}
    return {mech: [(a, eps, budget(a, eps), aging[a] + noise_variance(query, eps))
                   for a in mech_ages for eps in spec.eps_grid]
            for mech, (mech_ages, budget) in budgets.items()}


def _select(rows: list, cap: float) -> TradeoffSolution:
    """The P1 answer over grid rows, scanned in order (ties are order-sensitive)."""
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


def tradeoff_frontier(model: CmcModel, spec: UtilitySpec, caps,
                      enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """Frontier solutions per mechanism: {mechanism: [(cap, solution), ...]}.

    CSDP searches the full (age, eps) grid with the spec's leakage kind;
    ADP uses single-sequence temporal discounting over the same grid; DP
    and DDP are pinned to age zero, and DP's solutions are DDP's.  The
    grid is evaluated once and every cap selects from it.
    `enumeration_cap` bounds the joint state space, as `cap` does in
    `joint_kernel`.
    """
    for cap in caps:
        if cap <= 0:
            raise ModelError(f"mse_cap must be positive, got {cap}")
    kernel = joint_kernel(model, enumeration_cap)
    out = {mech: [(float(cap), _select(rows, cap)) for cap in caps]
           for mech, rows in _grid_rows(kernel, model, spec, baselines=True).items()}
    out["dp"] = out["ddp"]
    return out
