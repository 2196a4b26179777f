"""The release-gate checks, runnable from the CLI and from the test suite.

Each criterion is a pure function of the root seed and a tolerance table;
the CLI's `acceptance` command and tests/test_acceptance.py both call
these, so there is a single source of truth for what "passing" means.
All tolerances live in DEFAULT_TOLERANCES and can be overridden (used by
the fault-injection test to show criteria fail independently).

Criteria 3, 5, 7 and 9 read the tables of the `oracle-validate` and `fig5`
presets, the utility sweep MSE_SWEEP and the `fig4a` preset, so the gate
checks the tables that users run, not a copy of the code behind them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .bounds import (
    LeakageParams,
    aged_tv_distance,
    loose_bound,
    oracle_leakage,
    verify_reductions,
)
from .kernel import joint_kernel
from .mechanism import SequenceDatabase, laplace_sample, release_values
from .model import CmcModel, StateSpace, two_user_model
from .queries import builtin_queries, k_sensitivity
from .rng import derive_seed, derive_seeds, generator, laplace
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
    "oracle_sigmas": 3.0,
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


def criterion_u_shape(tol) -> CriterionResult:
    lams = [round(0.1 * i, 10) for i in range(11)]
    kernels = {lam: joint_kernel(two_user_model(lam)) for lam in lams}
    query = builtin_queries(StateSpace(2, 2))["mean"]
    dk = k_sensitivity(query, 2)
    ok = True
    worst_sym = 0.0
    bad_min = []
    for t in (1, 2, 3, 4):
        leak = {lam: loose_bound(aged_tv_distance(kernels[lam], (t, t), 2), dk, 1.0)[0]
                for lam in lams}
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


def criterion_decay(tol) -> CriterionResult:
    query = builtin_queries(StateSpace(2, 2))["mean"]
    dk = k_sensitivity(query, 2)
    ok = True
    notes = []
    for lam in (0.5, 0.75, 1.0):
        kern = joint_kernel(two_user_model(lam))
        leak = [loose_bound(aged_tv_distance(kern, (t, t), 2), dk, 1.0)[0] for t in range(7)]
        drop = 1.0 - leak[4] / leak[0]
        mono = all(b <= a + 1e-12 for a, b in zip(leak, leak[1:]))
        if leak[6] >= tol["decay_threshold"] or drop < tol["decay_drop"] or not mono:
            ok = False
        notes.append(f"lambda={lam}: eps(6)={leak[6]:.4f}, drop(0->4)={100 * drop:.1f}%"
                     + ("" if mono else ", not monotone"))
    return CriterionResult(2, "temporal decay", ok, "; ".join(notes),
                           f"eps(6) < {tol['decay_threshold']}, drop >= "
                           f"{100 * tol['decay_drop']:.0f}%, non-increasing")


def criterion_bound_ordering(tol) -> CriterionResult:
    _, rows, _ = run_sweep(PRESETS["oracle-validate"])
    violations = sum(1 for row in rows if _check_leakage_row(row, tol["ordering_slack"]))
    return CriterionResult(3, "bound ordering", violations == 0,
                           f"{violations} violations over {len(rows)} grid points",
                           "oracle <= tight <= min(loose) everywhere")


def criterion_reductions(tol) -> CriterionResult:
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
    plain = query.evaluate((1, 0)) + laplace(
        generator(derive_seed(seed, "ks-plain")), query.sensitivity(1) / 1.0, n
    )
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


def criterion_oracle_consistency(tol, seed=0) -> CriterionResult:
    configs = []
    for lam, t, eps in ((0.5, 1, 1.0), (0.5, 2, 1.0), (0.75, 1, 1.0), (0.75, 3, 2.0)):
        configs.append((two_user_model(lam), (t, t), eps, f"two-user lam={lam} t={t}"))
    three = CmcModel(
        StateSpace(3, 2),
        np.broadcast_to(np.array([[0.7, 0.3], [0.3, 0.7]]), (3, 3, 2, 2)).copy(),
        np.full((3, 3), 1.0 / 3),
    )
    configs.append((three, (1, 1, 1), 1.0, "three-user uniform coupling t=1"))
    ok = True
    notes = []
    for model, age, eps, label in configs:
        kern = joint_kernel(model)
        query = builtin_queries(model.space)["mean"]
        params = LeakageParams(age, eps, model.space.num_sequences, query)
        exact = oracle_leakage(kern, params).estimate
        sampled = oracle_leakage(kern, params, samples=10**5,
                                 seed=derive_seed(seed, "oracle", label),
                                 method="sampling")
        gap = abs(exact - sampled.estimate)
        limit = tol["oracle_sigmas"] * sampled.half_width
        if gap > limit:
            ok = False
        notes.append(f"{label}: |exact-sampled|={gap:.4f} vs {limit:.4f}")
    return CriterionResult(8, "oracle cross-validation", ok, "; ".join(notes),
                           f"within {tol['oracle_sigmas']} half-widths at 1e5 samples")


def criterion_determinism(tol, seed=0) -> CriterionResult:
    config = replace(PRESETS["fig4a"], seed=seed)
    outputs = []
    for threads in (1, 2, 1):
        fields, rows, _ = run_sweep(replace(config, threads=threads))
        outputs.append(render_table(fields, rows, "csv").encode())
    same = outputs[0] == outputs[1] == outputs[2]
    return CriterionResult(9, "determinism", same,
                           "serial and 2-thread reruns "
                           + ("byte-identical" if same else "DIFFER"),
                           "byte-identical tables for a fixed root seed")


CRITERIA = (
    ("u-shape", lambda tol, seed: criterion_u_shape(tol)),
    ("decay", lambda tol, seed: criterion_decay(tol)),
    ("bound-ordering", lambda tol, seed: criterion_bound_ordering(tol)),
    ("reductions", lambda tol, seed: criterion_reductions(tol)),
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
