"""Utility accounting and the leakage-vs-accuracy optimizer.

The release error decomposes into an aging term (query drift between the
aged and the current snapshot) and the Laplace noise variance; the two are
independent, so the mean squared error is their sum.  Problem P1 --
minimize a chosen leakage budget subject to an MSE cap -- is solved by
exhaustive search over (age, eps_c) grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import (
    adp_leakage,
    aged_tv_distance,
    bounded_aged_correlation,
    loose_bound,
    single_chain_tv,
)
from .kernel import JointKernel, aged_joint, joint_kernel, validate_ages
from .model import CmcModel, ModelError
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
    query: QuerySpec
    mse_cap: float
    age_grid: tuple  # iterable of age vectors
    eps_grid: tuple  # iterable of positive reals
    leakage_kind: str = "loose_linear"
    degree: Optional[int] = None  # defaults to s (fully coupled worst case)

    def __post_init__(self):
        if self.mse_cap <= 0:
            raise ModelError(f"mse_cap must be positive, got {self.mse_cap}")
        if not len(self.age_grid) or not len(self.eps_grid):
            raise ModelError("age and eps grids must be non-empty")
        if any(e <= 0 for e in self.eps_grid):
            raise ModelError("eps grid entries must be positive")
        if self.leakage_kind not in LEAKAGE_KINDS:
            raise ModelError(
                f"leakage_kind '{self.leakage_kind}' not one of {LEAKAGE_KINDS}"
            )

    def resolved_degree(self) -> int:
        return self.query.space.num_sequences if self.degree is None else self.degree


@dataclass(frozen=True)
class TradeoffSolution:
    age: tuple
    eps_c: float
    leakage: float
    mse: float
    feasible: bool
    frontier: tuple = field(default_factory=tuple)


def aging_error(kernel: JointKernel, age, query: QuerySpec) -> float:
    """E[(f(aged snapshot) - f(current snapshot))^2] at stationarity."""
    J = aged_joint(kernel, age)
    f = np.array([query.evaluate(x) for x in kernel.states])
    return float((J * (f[:, None] - f[None, :]) ** 2).sum())


def noise_variance(query: QuerySpec, eps_c: float) -> float:
    return 2.0 * (query.sensitivity(1) / eps_c) ** 2


def mse_exact(kernel: JointKernel, age, query: QuerySpec, eps_c: float) -> float:
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    return aging_error(kernel, age, query) + noise_variance(query, eps_c)


def mse_simulated(
    kernel: JointKernel,
    age,
    query: QuerySpec,
    eps_c: float,
    samples: int,
    seed: int,
) -> tuple:
    """(estimate, standard error) of the release MSE over seeded trajectories."""
    if samples < 100:
        raise ModelError(f"need at least 100 samples, got {samples}")
    if eps_c <= 0:
        raise ModelError(f"eps_c must be positive, got {eps_c}")
    ages = validate_ages(age, kernel.space)
    T = int(ages.max())
    n = int(samples)
    rng = generator(seed)
    nstates = len(kernel.states)
    f = np.array([query.evaluate(x) for x in kernel.states])

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
            u = rng.random(n)
            cur = (u[:, None] > cum[:, cur].T).sum(axis=1)
            np.clip(cur, 0, nstates - 1, out=cur)
    f_cur = f[cur]
    f_aged = np.array([query.evaluate(z) for z in recorded])
    noise = laplace(rng, query.sensitivity(1) / eps_c, n)
    sq = (f_aged + noise - f_cur) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n))


def _leakage(
    kind: str,
    kernel: JointKernel,
    age,
    eps_c: float,
    dk: float,
    degree: int,
    cache: dict,
) -> float:
    key = (kind, tuple(int(a) for a in np.atleast_1d(age)))
    if key not in cache:
        if kind == "tight":
            cache[key] = bounded_aged_correlation(kernel, age)
        else:
            cache[key] = aged_tv_distance(kernel, age, degree)
    coeff = cache[key]
    if kind == "tight":
        return coeff * eps_c
    linear, log_form = loose_bound(coeff, dk, eps_c)
    return linear if kind == "loose_linear" else log_form


def solve_p1(model: CmcModel, spec: UtilitySpec) -> TradeoffSolution:
    """Exhaustive grid search for P1: min leakage s.t. MSE <= cap.

    Ties in leakage are broken toward larger eps_c (less noise) and then
    lexicographically smaller age (fresher data).  When no grid point is
    feasible the best-MSE point is returned with feasible=False.
    """
    kernel = joint_kernel(model)
    return _select(_grid_rows(kernel, model, spec, "csdp", {}), spec.mse_cap)


def _grid_rows(kernel: JointKernel, model: CmcModel, spec: UtilitySpec, mechanism: str,
               cache: dict) -> list:
    """(age, eps, leakage, mse) at every grid point of a mechanism, age-major.

    CSDP and ADP range over the full (age, eps) grid; DP and DDP are pinned
    to age zero, where the correlation-blind mechanism still pays the
    d(k)-scaled cost once correlated records are accounted for, which is
    exactly the DDP certified budget -- the two frontiers coincide.  None
    of this depends on the MSE cap; `cache` keeps the aging errors and
    leakage coefficients for reuse across mechanisms and calls.
    """
    s = kernel.space.num_sequences
    degree = spec.resolved_degree()
    dk = k_sensitivity(spec.query, degree)

    def memo(key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    if mechanism in ("dp", "ddp"):
        grid = [((0,) * s, eps) for eps in spec.eps_grid]
    else:
        grid = []
        for age in spec.age_grid:
            ages = tuple(int(a) for a in np.atleast_1d(age))
            if len(ages) == 1 and s > 1:
                ages = ages * s
            grid += [(ages, eps) for eps in spec.eps_grid]
    rows = []
    for ages, eps in grid:
        if mechanism == "csdp":
            leak = _leakage(spec.leakage_kind, kernel, ages, eps, dk, degree, cache)
        elif mechanism == "adp":
            t = max(ages)
            leak = adp_leakage(memo(("adp", t), lambda: single_chain_tv(model, t)), eps)
        else:
            leak = dk * eps
        aging = memo(("aging", ages), lambda: aging_error(kernel, ages, spec.query))
        rows.append((ages, eps, leak, aging + noise_variance(spec.query, eps)))
    return rows


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


def tradeoff_frontier(model: CmcModel, spec: UtilitySpec, caps) -> dict:
    """Frontier solutions per mechanism: {mechanism: [(cap, solution), ...]}.

    CSDP searches the full (age, eps) grid with the spec's leakage kind;
    ADP uses single-sequence temporal discounting over the same grid; DP
    and DDP are pinned to age zero.  Each mechanism's grid is evaluated
    once and every cap selects from it.
    """
    for cap in caps:
        if cap <= 0:
            raise ModelError(f"mse_cap must be positive, got {cap}")
    kernel = joint_kernel(model)
    cache: dict = {}
    out = {}
    for mech in MECHANISMS:
        rows = _grid_rows(kernel, model, spec, mech, cache)
        out[mech] = [(float(cap), _select(rows, cap)) for cap in caps]
    return out
