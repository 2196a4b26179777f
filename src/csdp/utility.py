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
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    adp_leakage,
    aged_tvs,
    baseline_bounds,
    bounded_aged_correlations,
    loose_bound,
    single_chain_tvs,
    tight_bound,
)
from .kernel import (AgedLaw, JointKernel, aged_joint, aged_joints, joint_kernel, state_values,
                     validate_ages)
from .mechanism import noise_scale
from .model import DEFAULT_ENUMERATION_CAP, CmcModel, ModelError, check_positive, integer_value
from .queries import QuerySpec, k_sensitivity
from .rng import generator, laplace, threshold_draws, threshold_table

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
    number of sequences, minimized over the grids subject to `mse_cap`.
    `mse_cap` is a positive number; +inf means no cap.  The default kind,
    `loose_log`, is the certified loose budget; `loose_linear` is its tangent
    line at eps_c = 0, which lies below it, so it is not a bound."""

    query: QuerySpec
    mse_cap: float
    age_grid: tuple  # iterable of age vectors
    eps_grid: tuple  # iterable of finite positive reals
    leakage_kind: str = "loose_log"

    def __post_init__(self):
        if not self.mse_cap > 0:  # also NaN, under which `_select` finds every row feasible
            raise ModelError(f"mse_cap must be positive, got {self.mse_cap}")
        if not len(self.age_grid) or not len(self.eps_grid):
            raise ModelError("age and eps grids must be non-empty")
        for eps in self.eps_grid:
            check_positive("eps_c", eps)
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


def aging_error(law: AgedLaw, query: QuerySpec) -> float:
    """E[(f(aged snapshot) - f(current snapshot))^2] under an aged law."""
    return _aging_term(law, state_values(law.space, query))


def _aging_term(law: AgedLaw, f: np.ndarray) -> float:
    """`aging_error` with the query's values f on the joint states given."""
    return float((law.joint * (f[:, None] - f[None, :]) ** 2).sum())


def noise_variance(query: QuerySpec, eps_c: float) -> float:
    return 2.0 * noise_scale(query, eps_c) ** 2


def mse_exact(kernel: JointKernel, age, query: QuerySpec, eps_c: float) -> float:
    noise = noise_variance(query, eps_c)  # eps_c is checked before the law is built
    return aging_error(aged_joint(kernel, age), query) + noise


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
    the longest lag, then `samples` Laplace draws of the noise.  Every state
    is drawn by the one sampling rule, `rng.threshold_draws`: its uniform u
    maps to min(#{j : cum[j] <= u}, n-1), cum the cumsums of its law, the
    stationary law for a start and column c of the kernel for a step from
    state c.  A zero-probability state is never drawn.  The stream and the
    rule together fix every estimate to the last bit.  Sequence i's aged
    state is read T - age[i] steps in, T the longest lag, as `age_data` does.
    """
    return _mse_simulated(kernel, age, query, state_values(kernel.space, query),
                          _sampling_tables(kernel), eps_c, samples, seed)


def _sampling_tables(kernel: JointKernel) -> tuple:
    """The `threshold_table`s of the kernel's steps and of its stationary law."""
    return threshold_table(kernel.matrix), threshold_table(kernel.stationary)


def _mse_simulated(kernel: JointKernel, age, query: QuerySpec, f: np.ndarray,
                   tables: tuple, eps_c: float, samples: int, seed: int) -> tuple:
    """`mse_simulated` with the query's values f on the joint states and the
    kernel's `_sampling_tables` given."""
    n = integer_value(samples, "samples")
    if n < 100:
        raise ModelError(f"need at least 100 samples, got {samples}")
    scale = noise_scale(query, eps_c)
    ages = np.array(validate_ages(age, kernel.space))
    T = int(ages.max())
    rng = generator(seed)

    # age a's sequences add their digits @ place at step T - a; only the current step is held
    digits, place = kernel.space.digits, kernel.space.place
    reads = {T - a: digits[:, ages == a] @ place[ages == a] for a in set(ages.tolist())}
    table, start = tables
    cur = threshold_draws(start, 0, rng.random(n))  # cur[sample], a joint index
    aged = reads[0][cur]  # the oldest sequences read the start
    for step in range(1, T + 1):
        cur = threshold_draws(table, cur, rng.random(n))
        if step in reads:
            aged = aged + reads[step][cur]
    noise = laplace(rng, scale, n)
    sq = (f[aged] + noise - f[cur]) ** 2
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
    return _select(_grid_rows(kernel, model, spec, baselines=False)["csdp"], [spec.mse_cap])[0]


def _grid_rows(kernel: JointKernel, model: CmcModel, spec: UtilitySpec, baselines: bool) -> dict:
    """{mechanism: [(age, eps, leakage, mse), ...]} for CSDP and, with
    `baselines`, ADP and DDP, each at every grid point, age-major.

    CSDP and ADP range over the full (age, eps) grid in `age_grid` order,
    duplicates included; DDP is pinned to age zero.  DP is pinned there
    too, where the correlation-blind mechanism still pays the d(k)-scaled
    cost once correlated records are accounted for, which is exactly the
    DDP certified budget -- the two frontiers coincide, so DP reads DDP's
    rows and is not evaluated.  The degree is s.  One `aged_joints` call
    builds the laws of every distinct age, all held at once, and one call
    reads the grid's leakage coefficients off them (Delta_bar for the tight
    kind, Delta_k for the loose ones); each law's aging error is computed
    once, and each eps_c's noise variance once.  Both are shared by every
    mechanism, and the query is evaluated on the joint states once for all
    of them.  None of this depends on the MSE cap.
    """
    s = kernel.space.num_sequences
    query, kind = spec.query, spec.leakage_kind
    dk = k_sensitivity(query, s)
    grid = [validate_ages(age, kernel.space) for age in spec.age_grid]
    ages = list(dict.fromkeys(grid))
    # one law per age a row reads, DDP's age zero last
    needed = list(dict.fromkeys(ages + ([(0,) * s] if baselines else [])))
    f = state_values(kernel.space, query)
    laws = aged_joints(kernel, needed)
    aging = {a: _aging_term(law, f) for a, law in zip(needed, laws)}
    head = laws[: len(ages)]  # the grid's distinct ages
    delta = dict(zip(ages, bounded_aged_correlations(head) if kind == "tight"
                     else aged_tvs(head)))
    budgets = {"csdp": (grid, lambda a, eps: _leakage(kind, delta[a], eps, dk))}
    if baselines:
        chain_tv = dict(zip(ages, single_chain_tvs(model, [max(a) for a in ages])))
        budgets["adp"] = (grid, lambda a, eps: adp_leakage(chain_tv[a], eps))
        budgets["ddp"] = ([(0,) * s], lambda a, eps: baseline_bounds(eps, query)[1])
    noise = [noise_variance(query, eps) for eps in spec.eps_grid]
    return {mech: [(a, eps, budget(a, eps), aging[a] + var)
                   for a in mech_ages for eps, var in zip(spec.eps_grid, noise)]
            for mech, (mech_ages, budget) in budgets.items()}


def _select(rows: list, caps) -> list:
    """The P1 answer over grid rows at each MSE cap of `caps`.

    A cap's answer is the best of its feasible rows (MSE not above the
    cap), scanned in row order with `_better`, so ties are order-sensitive;
    with none feasible it is the least (mse, -eps, age) row, which does not
    depend on the cap and is found once.
    """
    keys = [(leak, -eps, ages) for ages, eps, leak, _ in rows]
    mse = np.array([row[3] for row in rows])
    fallback = min(range(len(rows)), key=lambda i: (rows[i][3], -rows[i][1], rows[i][0]))
    out = []
    for cap in caps:
        best = None  # the row index of the best (leakage, -eps, age) so far
        for i in np.flatnonzero(~(mse > cap)).tolist():
            if _better(keys[i], keys[best] if best is not None else None):
                best = i
        ages, eps, leak, row_mse = rows[fallback if best is None else best]
        out.append(TradeoffSolution(ages, eps, leak, row_mse, best is not None))
    return out


def tradeoff_frontier(model: CmcModel, spec: UtilitySpec, caps,
                      enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """Frontier solutions per mechanism: {mechanism: [(cap, solution), ...]}.

    CSDP searches the full (age, eps) grid with the spec's leakage kind;
    ADP uses single-sequence temporal discounting over the same grid; DP
    and DDP are pinned to age zero, and DP's solutions are DDP's.  The
    grid is evaluated once, and every cap of a mechanism is read off its
    rows by one `_select` call.
    `enumeration_cap` bounds the joint state space, as `cap` does in
    `joint_kernel`.
    """
    for cap in caps:
        replace(spec, mse_cap=cap)  # checks the cap as the spec checks its own
    kernel = joint_kernel(model, enumeration_cap)
    out = {mech: list(zip(map(float, caps), _select(rows, caps)))
           for mech, rows in _grid_rows(kernel, model, spec, baselines=True).items()}
    out["dp"] = out["ddp"]
    return out
