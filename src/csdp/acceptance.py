"""The release-gate checks, runnable from the CLI and from the test suite.

Each criterion is a pure function `fn(tol, seed)` of a tolerance table
and the root seed (criteria 1-4 draw nothing); the CLI's `acceptance`
command and tests/test_acceptance.py both call these, so there is a
single source of truth for what "passing" means.
All tolerances live in DEFAULT_TOLERANCES and can be overridden (used by
the fault-injection test to show criteria fail independently).

Criteria 3, 5, 7 and 9 read the tables of the `oracle-validate` and `fig5`
presets, the utility sweep MSE_SWEEP and the `fig4a` preset, so the gate
checks the tables that users run, not a copy of the code behind them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .bounds import _value_laws, aged_tvs, loose_bound, verify_reductions
from .kernel import aged_joint, aged_joints, joint_kernel, state_values
from .mechanism import SequenceDatabase, laplace_sample, noise_scale, release_values
from .model import CmcModel, StateSpace, two_user_model
from .queries import builtin_queries, k_sensitivity
from .rng import derive_seed, derive_seeds, generator, laplace, threshold_draws, threshold_table
from .sweeps import PRESETS, ExperimentConfig, _check_leakage_row, render_table, run_sweep
from .utility import MECHANISMS, noise_variance

DEFAULT_TOLERANCES = {
    "symmetry": 1e-9,
    "decay_threshold": 0.05,
    "decay_drop": 0.55,
    "ordering_slack": 1e-9,
    "reduction": 1e-9,
    "ratio_csdp_adp": 0.6,
    "separation_factor": 100.0,
    "variance_rel": 0.05,
    "ks_pvalue": 0.01,
    "mse_sigmas": 3.0,
    "decomposition": 1e-12,
    "oracle_alpha": 1e-6,
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    expected: str
    # wall time of the criterion, filled in by acceptance(); it is kept out
    # of line(), which must read the same on every run
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number} ({self.name}): "
                f"measured {self.measured}; expected {self.expected}")

    def timing_line(self) -> str:
        return f"timing criterion {self.number} ({self.name}): {self.seconds:.3f} s"


def _linear_loose_curve(lam: float, ts) -> list:
    """Criteria 1 and 2's curve: the two-user model's linear loose budget at
    self-coupling `lam`, degree 2, the mean query and eps_c = 1, per age (t, t)."""
    kernel = joint_kernel(two_user_model(lam))
    dk = k_sensitivity(builtin_queries(kernel.space)["mean"], 2)
    laws = aged_joints(kernel, [(t, t) for t in ts])
    return [loose_bound(delta_k, dk, 1.0)[0] for delta_k in aged_tvs(laws, 2)]


def criterion_u_shape(tol, seed=0) -> CriterionResult:
    lams = [round(0.1 * i, 10) for i in range(11)]
    ts = (1, 2, 3, 4)
    curves = {lam: _linear_loose_curve(lam, ts) for lam in lams}
    ok = True
    worst_sym = 0.0
    bad_min = []
    for i, t in enumerate(ts):
        leak = {lam: curves[lam][i] for lam in lams}
        argmin = min(lams, key=lambda l: leak[l])
        if argmin != 0.5:
            ok = False
            bad_min.append(f"t={t}: min at lambda={argmin}")
        for lam in lams:
            worst_sym = max(worst_sym, abs(leak[lam] - leak[round(1 - lam, 10)]))
    if worst_sym > tol["symmetry"]:
        ok = False
    measured = f"min at lambda=0.5 for t=1..4 ({'yes' if not bad_min else '; '.join(bad_min)}), " \
               f"max |leak(l)-leak(1-l)| = {worst_sym:.3e}"
    return CriterionResult(1, "u-shape and symmetry", ok, measured,
                           f"minimum at 0.5, asymmetry <= {tol['symmetry']:.0e}")


def criterion_decay(tol, seed=0) -> CriterionResult:
    ok = True
    notes = []
    for lam in (0.5, 0.75, 1.0):
        leak = _linear_loose_curve(lam, range(7))
        drop = 1.0 - leak[4] / leak[0]
        mono = all(b <= a + 1e-12 for a, b in zip(leak, leak[1:]))
        if leak[6] >= tol["decay_threshold"] or drop < tol["decay_drop"] or not mono:
            ok = False
        notes.append(f"lambda={lam}: eps(6)={leak[6]:.4f}, drop(0->4)={100 * drop:.1f}%"
                     + ("" if mono else ", not monotone"))
    return CriterionResult(2, "temporal decay", ok, "; ".join(notes),
                           f"eps(6) < {tol['decay_threshold']}, drop >= "
                           f"{100 * tol['decay_drop']:.0f}%, non-increasing")


def criterion_bound_ordering(tol, seed=0) -> CriterionResult:
    _, rows, _ = run_sweep(PRESETS["oracle-validate"])
    violations = sum(1 for row in rows if _check_leakage_row(row, tol["ordering_slack"]))
    return CriterionResult(3, "bound ordering", violations == 0,
                           f"{violations} violations over {len(rows)} grid points",
                           "oracle <= tight <= min(loose) everywhere")


def criterion_reductions(tol, seed=0) -> CriterionResult:
    cases = verify_reductions(1.0, 8, tol["reduction"])
    failing = [c.name for c in cases if c.applicable and not c.passed]
    measured = ", ".join(f"{c.name}={'pass' if c.passed else 'FAIL'}"
                         + ("" if c.applicable else " (n/a)") for c in cases)
    return CriterionResult(4, "reductions", not failing, measured,
                           f"all applicable cases within {tol['reduction']:.0e}")


def criterion_baseline_separation(tol, seed=0) -> CriterionResult:
    _, rows, _ = run_sweep(replace(PRESETS["fig5"], seed=seed))
    at = {(r["mechanism"], r["l_cap"]): r["leakage"] for r in rows}
    c08, a08, dd08, d08 = (at[m, 0.8] for m in MECHANISMS)
    ratio = c08 / a08
    sep = min(d08, dd08) / c08
    caps = PRESETS["fig5"].grid("caps")
    ordering_ok = all(at[a, cap] <= at[b, cap] + 1e-12
                      for a, b in zip(MECHANISMS, MECHANISMS[1:]) for cap in caps)
    ok = (ratio <= tol["ratio_csdp_adp"] and sep >= tol["separation_factor"]
          and ordering_ok)
    measured = (f"at cap 0.8: csdp={c08:.3e}, adp={a08:.3e} (ratio {ratio:.3f}), "
                f"dp={d08:.3e}, ddp={dd08:.3e} (separation {sep:.1e}); "
                f"pointwise ordering {'holds' if ordering_ok else 'VIOLATED'}")
    return CriterionResult(5, "baseline separation", ok, measured,
                           f"ratio <= {tol['ratio_csdp_adp']}, separation >= "
                           f"{tol['separation_factor']:.0f}x, csdp<=adp<=ddp<=dp")


def criterion_mechanism_stats(tol, seed=0) -> CriterionResult:
    draws = laplace_sample(1.0, 10**6, derive_seed(seed, "variance"))
    var = float(np.var(draws))
    var_ok = abs(var - 2.0) <= tol["variance_rel"] * 2.0

    space = StateSpace(2, 2)
    query = builtin_queries(space)["mean"]
    db = SequenceDatabase(space, np.array([[1, 0]]))
    n = 10**5
    fran = release_values(db, 1, (0, 0), query, 1.0, derive_seeds(seed, "ks-fran", count=n))
    plain = query.evaluate((1, 0)) + laplace_sample(
        noise_scale(query, 1.0), n, derive_seed(seed, "ks-plain"))
    pvalue = float(stats.ks_2samp(fran, plain).pvalue)
    ks_ok = pvalue > tol["ks_pvalue"]
    return CriterionResult(
        6, "mechanism statistics", var_ok and ks_ok,
        f"variance {var:.4f} (target 2), KS p-value {pvalue:.4f}",
        f"variance within {100 * tol['variance_rel']:.0f}%, p > {tol['ks_pvalue']}",
    )


# Criterion 7's utility sweep, run at the gate seed: simulated against exact
# MSE on three couplings, fresh, uniform and mixed ages and five budgets.
MSE_SWEEP = ExperimentConfig(
    "utility-sweep",
    {"lambda": [0.25, 0.5, 0.75], "age": [[0, 0], [1, 1], [3, 3], [5, 2], [10, 10]],
     "eps_c": [0.5, 1.0, 2.0, 5.0, 10.0], "samples": 4000},
)


def criterion_mse(tol, seed=0) -> CriterionResult:
    _, rows, _ = run_sweep(replace(MSE_SWEEP, seed=seed))
    query = builtin_queries(StateSpace(2, 2))["mean"]
    worst_sigma = max(abs(r["mse_simulated"] - r["mse_exact"]) / r["mse_stderr"] for r in rows)
    agree_ok = worst_sigma <= tol["mse_sigmas"]
    # exact MSE less its first-eps value must be the noise variance's change
    first = {}  # (lambda, age) -> the row of its first eps_c
    decomposition_worst = 0.0
    for r in rows:
        r0 = first.setdefault((r["lambda"], r["age"]), r)
        gap = abs((r["mse_exact"] - r0["mse_exact"])
                  - (noise_variance(query, r["eps_c"]) - noise_variance(query, r0["eps_c"])))
        decomposition_worst = max(decomposition_worst, gap)
    decomp_ok = decomposition_worst <= tol["decomposition"]
    return CriterionResult(
        7, "mse model", agree_ok and decomp_ok,
        f"worst |sim-exact| = {worst_sigma:.2f} standard errors; "
        f"decomposition residual {decomposition_worst:.2e}",
        f"<= {tol['mse_sigmas']} standard errors; residual <= {tol['decomposition']:.0e}",
    )


def _half_line_cdf(law, query, eps_c: float) -> tuple:
    """(thetas, F) with F[i, x] = Pr[M <= thetas[i] | x] for every current
    snapshot x, where M is the query on the aged snapshot plus Laplace noise
    of scale b = `noise_scale(query, eps_c)`; Pr[M > theta | x] is 1 - F.

    thetas is 101 points spanning the query's range plus six noise scales on
    each side: checking only at the query's values would let a noise scale
    5% off pass.  Each column mixes the Laplace cdf over the oracle's G
    (`bounds._value_laws`).
    """
    b = noise_scale(query, eps_c)
    ys, (G,) = _value_laws([law], query)
    thetas = np.linspace(ys[0] - 6.0 * b, ys[-1] + 6.0 * b, 101)
    u = (thetas[:, None] - ys) / b
    cdf = np.where(u < 0, 0.5 * np.exp(np.minimum(u, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(u, 0.0)))
    return thetas, cdf @ G


def half_line_gap(law, query, eps_c, samples: int, seed: int) -> float:
    """Largest gap between the exact half-line probabilities of
    `_half_line_cdf` and their empirical values over `samples` seeded
    releases per current snapshot x, over every theta of its grid and every
    x; a gap in Pr[M <= theta] is the same gap in Pr[M > theta].

    Each release draws the aged snapshot from column x of the backward
    conditional by the one sampling rule, `rng.threshold_draws`, and adds
    Laplace noise of scale `noise_scale(query, eps_c)`; x's draws come from
    `derive_seed(seed, "oracle", x)`, `samples` uniforms for the snapshots
    and then `samples` Laplace draws.
    """
    thetas, F = _half_line_cdf(law, query, eps_c)
    table = threshold_table(law.conditional())
    f_values = state_values(law.space, query)
    b = noise_scale(query, eps_c)
    worst = 0.0
    for x in range(len(table)):
        rng = generator(derive_seed(seed, "oracle", x))
        z = threshold_draws(table, x, rng.random(samples))
        y = np.sort(f_values[z] + laplace(rng, b, samples))
        below = np.searchsorted(y, thetas, side="right") / samples
        worst = max(worst, float(np.abs(below - F[:, x]).max()))
    return worst


def dkw_bound(samples: int, laws: int, alpha: float) -> float:
    """The gap that `laws` empirical cdfs of `samples` draws each all stay
    within with probability at least 1 - alpha: the Dvoretzky-Kiefer-Wolfowitz
    inequality with Massart's constant, Pr[sup |F_n - F| > e] <= 2 exp(-2 n e^2),
    and a union bound over the cdfs."""
    return math.sqrt(math.log(2 * laws / alpha) / (2 * samples))


def oracle_cases() -> list:
    """Criterion 8's cases, (model, age, eps_c, label) each."""
    cases = [(two_user_model(lam), (t, t), eps, f"two-user lam={lam} t={t}")
             for lam, t, eps in ((0.5, 1, 1.0), (0.5, 2, 1.0), (0.75, 1, 1.0), (0.75, 3, 2.0))]
    three = CmcModel(
        StateSpace(3, 2),
        np.broadcast_to(np.array([[0.7, 0.3], [0.3, 0.7]]), (3, 3, 2, 2)),
        np.full((3, 3), 1.0 / 3),
    )
    return cases + [(three, (1, 1, 1), 1.0, "three-user uniform coupling t=1")]


def criterion_oracle_consistency(tol, seed=0) -> CriterionResult:
    cases = oracle_cases()
    n = 10**5  # releases per current snapshot
    laws = sum(model.space.product_size for model, *_ in cases)
    bound = dkw_bound(n, laws, tol["oracle_alpha"])
    worst, notes = 0.0, []
    for model, age, eps, label in cases:
        law = aged_joint(joint_kernel(model), age)
        query = builtin_queries(model.space)["mean"]
        gap = half_line_gap(law, query, eps, n, derive_seed(seed, "oracle", label))
        worst = max(worst, gap)
        notes.append(f"{label}: gap {gap:.4f}")
    return CriterionResult(
        8, "oracle cross-validation", worst <= bound, "; ".join(notes),
        f"every half-line probability within the DKW bound {bound:.4f} "
        f"({laws} laws x {n:.0e} releases, alpha {tol['oracle_alpha']:.0e})",
    )


def criterion_determinism(tol, seed=0) -> CriterionResult:
    config = replace(PRESETS["fig4a"], seed=seed)
    outputs = {render_table(*run_sweep(config)[:2], "csv") for _ in range(3)}
    same = len(outputs) == 1
    return CriterionResult(9, "determinism", same,
                           "three serial reruns " + ("byte-identical" if same else "DIFFER"),
                           "byte-identical tables for a fixed root seed")


CRITERIA = (
    ("u-shape", criterion_u_shape),
    ("decay", criterion_decay),
    ("bound-ordering", criterion_bound_ordering),
    ("reductions", criterion_reductions),
    ("baseline-separation", criterion_baseline_separation),
    ("mechanism-stats", criterion_mechanism_stats),
    ("mse", criterion_mse),
    ("oracle-consistency", criterion_oracle_consistency),
    ("determinism", criterion_determinism),
)


def acceptance(seed: int = 0, tolerances: dict = None) -> list:
    """Run every criterion; returns a list of CriterionResult, each with
    its wall time in `seconds`."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    results = []
    for _, fn in CRITERIA:
        start = time.perf_counter()
        result = fn(tol, seed)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
