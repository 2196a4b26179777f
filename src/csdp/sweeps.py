"""Parameter sweeps behind the CLI: benchmark reproductions and validators.

Each sweep turns a config into one table (list of dict rows with a fixed
column order), a run manifest, and a list of invariant violations.  Rows
always carry every parameter needed to regenerate them, including the
seed.  Cells are independent; with threads > 1 they are evaluated in a
pool and merged in grid order, so output bytes never depend on scheduling.
A leakage sweep's cell is one lambda: one model and kernel, and one
Delta_bar call for all its ages; its rows are (t, eps_c) in grid order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy
import yaml

from . import __version__
from .bounds import (
    LeakageParams,
    adp_leakage,
    aged_tv_distance,
    baseline_bounds,
    bounded_aged_correlations,
    loose_bound,
    oracle_leakage,
    single_chain_tv,
    tight_bound,
    verify_reductions,
)
from .kernel import joint_kernel
from .model import DEFAULT_ENUMERATION_CAP, CmcModel, ModelError, load_model, two_user_model
from .queries import builtin_queries, k_sensitivity
from .rng import derive_seed
from .utility import UtilitySpec, mse_exact, mse_simulated, tradeoff_frontier

SWEEP_KINDS = (
    "leakage-vs-lambda",
    "leakage-vs-age",
    "leakage-vs-noise",
    "utility-sweep",
    "frontier",
    "oracle-validate",
    "reduce-check",
)

LEAKAGE_FIELDS = (
    "lambda", "t", "eps_c", "k", "d_k", "delta_k", "delta_bar",
    "loose_linear", "loose_log", "tight", "adp", "dp", "ddp",
    "oracle", "oracle_hw", "seed",
)

FRONTIER_FIELDS = ("mechanism", "l_cap", "age", "eps_c", "leakage", "mse", "feasible", "seed")

EPS_GRID_DEFAULT = tuple(np.logspace(np.log10(0.05), np.log10(10.0), 25).tolist())
AGE_GRID_DEFAULT = tuple(range(21))


@dataclass(frozen=True)
class ExperimentConfig:
    sweep: str
    grids: dict = field(default_factory=dict)
    model_path: str = ""  # empty: built-in two-user benchmark model
    seed: int = 0
    out_dir: str = "."
    cap: int = DEFAULT_ENUMERATION_CAP
    fmt: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if self.sweep not in SWEEP_KINDS:
            raise ModelError(
                f"sweep: unknown kind '{self.sweep}'; expected one of {SWEEP_KINDS}"
            )
        if self.fmt not in ("csv", "json"):
            raise ModelError(f"format: unknown value '{self.fmt}'")
        if self.threads < 1:
            raise ModelError(f"threads: must be >= 1, got {self.threads}")


PRESETS = {
    "fig3a": ExperimentConfig(
        "leakage-vs-lambda",
        {"lambda": [round(0.05 * i, 10) for i in range(21)],
         "t": list(range(7)), "eps_c": [1.0]},
    ),
    "fig3b": ExperimentConfig(
        "leakage-vs-age",
        {"lambda": [0.5, 0.75, 1.0], "t": list(range(7)), "eps_c": [1.0]},
    ),
    "fig3c": ExperimentConfig(
        "leakage-vs-noise",
        {"lambda": [0.75], "t": [1, 2, 3, 4, 5],
         "eps_c": [float(v) for v in range(1, 11)]},
    ),
    "fig4a": ExperimentConfig(
        "utility-sweep",
        {"lambda": [0.5], "age": [[0, 0], [5, 5], [10, 10], [20, 20]],
         "eps_c": [0.5, 1.0, 2.0, 5.0, 10.0], "samples": 4000},
    ),
    "fig4b": ExperimentConfig(
        "utility-sweep",
        {"lambda": [0.5],
         "age": [[t, t] for t in range(0, 21, 2)] + [[t, t // 2] for t in range(0, 21, 2)],
         "eps_c": [1.0], "samples": 4000},
    ),
    "fig4c": ExperimentConfig(
        "frontier",
        {"lambda": [0.5], "caps": [0.4, 0.6, 0.8],
         "leakage_kind": "tight"},
    ),
    "fig5": ExperimentConfig(
        "frontier",
        {"lambda": [0.5], "caps": [round(0.2 + 0.1 * i, 10) for i in range(9)],
         "leakage_kind": "tight"},
    ),
    "oracle-validate": ExperimentConfig(
        "oracle-validate",
        {"lambda": [0.0, 0.25, 0.5, 0.75, 1.0], "t": list(range(7)),
         "eps_c": [2.0, 5.0, 10.0]},
    ),
    "reduce-check": ExperimentConfig("reduce-check", {"eps_c": [1.0], "max_age": 8}),
}


def load_config(source) -> ExperimentConfig:
    """Resolve a preset name or read a YAML config file."""
    if source in PRESETS:
        return PRESETS[source]
    if not os.path.exists(source):
        raise ModelError(
            f"config: '{source}' is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor a readable file"
        )
    with open(source) as fh:
        doc = yaml.safe_load(fh) or {}
    if "sweep" not in doc:
        raise ModelError("config: missing field 'sweep'")
    return ExperimentConfig(
        sweep=doc["sweep"],
        grids=doc.get("grids", {}),
        model_path=doc.get("model", ""),
        seed=int(doc.get("seed", 0)),
        out_dir=doc.get("out", "."),
        cap=int(doc.get("cap", DEFAULT_ENUMERATION_CAP)),
        fmt=doc.get("format", "csv"),
        threads=int(doc.get("threads", 1)),
    )


def _model_for(config: ExperimentConfig, lam: float) -> CmcModel:
    if config.model_path:
        return load_model(config.model_path)
    return two_user_model(lam)


def _map_cells(fn, cells, threads: int) -> list:
    if threads <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _leakage_rows(config, lam, ts, eps_grid, with_oracle):
    """Rows of one lambda cell, one per (t, eps_c) in `ts` x `eps_grid`.

    The kernel and the Delta_bar of every t are computed once per cell, and
    Delta_k and the single-chain TV once per t; only the budgets and the
    oracle are evaluated per eps_c.
    """
    model = _model_for(config, lam)
    kernel = joint_kernel(model, config.cap)
    query = builtin_queries(model.space)["mean"]
    k = model.space.num_sequences
    dk = k_sensitivity(query, k)
    ages = [(t,) * k for t in ts]
    rows = []
    for t, age, delta_bar in zip(ts, ages, bounded_aged_correlations(kernel, ages)):
        delta_k = aged_tv_distance(kernel, age, k)
        delta_t = single_chain_tv(model, t)
        for eps in eps_grid:
            lin, logf = loose_bound(delta_k, dk, eps)
            dp, ddp = baseline_bounds(eps, k, query)
            row = {
                "lambda": lam, "t": t, "eps_c": eps, "k": k, "d_k": dk,
                "delta_k": delta_k, "delta_bar": delta_bar,
                "loose_linear": lin, "loose_log": logf,
                "tight": tight_bound(delta_bar, eps),
                "adp": adp_leakage(delta_t, eps),
                "dp": dp, "ddp": ddp,
                "oracle": "", "oracle_hw": "", "seed": config.seed,
            }
            if with_oracle:
                est = oracle_leakage(kernel, LeakageParams(age, eps, k, query))
                row["oracle"] = est.estimate
                row["oracle_hw"] = est.half_width
            rows.append(row)
    return rows


def _check_leakage_row(row, slack: float = 1e-9) -> list:
    """Breaches of loose_log >= loose_linear >= tight and, with an oracle,
    oracle <= tight + its half-width, each with its size."""
    bad = []
    loc = f"lambda={row['lambda']} t={row['t']} eps_c={row['eps_c']}"
    if row["loose_log"] < row["loose_linear"] - slack:
        bad.append(f"{loc}: loose_log fell below loose_linear by "
                   f"{row['loose_linear'] - row['loose_log']:.1e}")
    if row["tight"] > row["loose_linear"] + slack:
        bad.append(f"{loc}: tight exceeds loose_linear by "
                   f"{row['tight'] - row['loose_linear']:.1e}")
    hw = row["oracle_hw"] or 0.0
    if row["oracle"] != "" and row["oracle"] > row["tight"] + hw + slack:
        bad.append(f"{loc}: oracle estimate exceeds tight bound by "
                   f"{row['oracle'] - row['tight']:.1e}"
                   + (f" (half-width {hw:.1e})" if hw else ""))
    return bad


def _z_score(diff: float, stderr: float) -> float:
    if stderr > 0:
        return diff / stderr
    return math.copysign(math.inf, diff)


def run_sweep(config: ExperimentConfig):
    """Execute a sweep; returns (fields, rows, violations)."""
    grids = config.grids
    if config.sweep in ("leakage-vs-lambda", "leakage-vs-age", "leakage-vs-noise",
                        "oracle-validate"):
        validate = config.sweep == "oracle-validate"
        lams = grids.get("lambda", [0.0, 0.25, 0.5, 0.75, 1.0] if validate else [0.5])
        eps_grid = grids.get("eps_c", [2.0, 5.0, 10.0] if validate else [1.0])
        ts = grids.get("t", list(range(7)))
        per_cell = _map_cells(
            lambda lam: _leakage_rows(config, lam, ts, eps_grid, validate), lams,
            config.threads,
        )
        rows = [row for cell_rows in per_cell for row in cell_rows]
        violations = [v for row in rows for v in _check_leakage_row(row)]
        return LEAKAGE_FIELDS, rows, violations

    if config.sweep == "utility-sweep":
        fields = ("lambda", "age", "eps_c", "mse_exact", "mse_simulated",
                  "mse_stderr", "samples", "seed")
        samples = int(grids.get("samples", 4000))
        lams = grids.get("lambda", [0.5])
        cells = [
            (lam, tuple(age), eps)
            for lam in lams
            for age in grids.get("age", [[0, 0]])
            for eps in grids.get("eps_c", [1.0])
        ]
        # one model and kernel per distinct lambda, shared read-only by its cells
        kernels = {}
        for lam in dict.fromkeys(lams):
            model = _model_for(config, lam)
            kernels[lam] = (joint_kernel(model, config.cap), builtin_queries(model.space)["mean"])

        def cell(c):
            lam, age, eps = c
            kernel, query = kernels[lam]
            exact = mse_exact(kernel, age, query, eps)
            est, se = mse_simulated(
                kernel, age, query, eps, samples,
                derive_seed(config.seed, "mse", lam, age, eps),
            )
            return {
                "lambda": lam, "age": "|".join(str(a) for a in age), "eps_c": eps,
                "mse_exact": exact, "mse_simulated": est, "mse_stderr": se,
                "samples": samples, "seed": config.seed,
            }

        rows = _map_cells(cell, cells, config.threads)
        violations = [
            f"lambda={r['lambda']} age={r['age']} eps_c={r['eps_c']}: "
            "simulated MSE outside 5 standard errors of exact "
            f"(z = {_z_score(r['mse_simulated'] - r['mse_exact'], r['mse_stderr']):+.2f})"
            for r in rows
            if abs(r["mse_simulated"] - r["mse_exact"]) > 5 * r["mse_stderr"]
        ]
        return fields, rows, violations

    if config.sweep == "frontier":
        lam = grids.get("lambda", [0.5])[0]
        caps = grids.get("caps", [round(0.2 + 0.1 * i, 10) for i in range(9)])
        model = _model_for(config, lam)
        query = builtin_queries(model.space)["mean"]
        spec = UtilitySpec(
            query,
            mse_cap=max(caps),
            age_grid=tuple(grids.get("age", AGE_GRID_DEFAULT)),
            eps_grid=tuple(grids.get("eps_c", EPS_GRID_DEFAULT)),
            leakage_kind=grids.get("leakage_kind", "tight"),
        )
        frontier = tradeoff_frontier(model, spec, caps)
        rows = []
        for mech in ("csdp", "adp", "ddp", "dp"):
            for cap, sol in frontier[mech]:
                rows.append({
                    "mechanism": mech, "l_cap": cap,
                    "age": "|".join(str(a) for a in sol.age),
                    "eps_c": sol.eps_c, "leakage": sol.leakage, "mse": sol.mse,
                    "feasible": sol.feasible, "seed": config.seed,
                })
        violations = []
        for mech in ("csdp", "adp", "ddp", "dp"):
            points = [(cap, sol.leakage) for cap, sol in frontier[mech] if sol.feasible]
            violations += [
                f"{mech}: frontier not non-increasing in the cap: rises by {b - a:.1e} "
                f"at l_cap={cap}"
                for (_, a), (cap, b) in zip(points, points[1:]) if b > a + 1e-9
            ]
        return FRONTIER_FIELDS, rows, violations

    if config.sweep == "reduce-check":
        fields = ("case", "applicable", "passed", "detail")
        eps = grids.get("eps_c", [1.0])[0]
        cases = verify_reductions(eps, int(grids.get("max_age", 8)))
        rows = [
            {"case": c.name, "applicable": c.applicable, "passed": c.passed,
             "detail": c.detail}
            for c in cases
        ]
        violations = [f"reduction case '{c.name}' failed" for c in cases
                      if c.applicable and not c.passed]
        return fields, rows, violations

    raise ModelError(f"sweep: unknown kind '{config.sweep}'")


# ---------------------------------------------------------------------------
# artifact emission


def _plain(v):
    """A NumPy scalar as the Python scalar it holds, so that a cell renders
    the same whichever kind it is; any other value unchanged."""
    return v.item() if isinstance(v, np.generic) else v


def _format_value(v):
    v = _plain(v)
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_table(fields, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [{f: _plain(row[f]) for f in fields} for row in rows], indent=2, default=str
        ) + "\n"
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_format_value(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _manifest(config: ExperimentConfig, violations) -> dict:
    digest = ""
    if config.model_path:
        with open(config.model_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sweep": config.sweep,
        "grids": config.grids,
        "model_path": config.model_path,
        "model_digest": digest,
        "seed": config.seed,
        "cap": config.cap,
        "threads": config.threads,
        "violations": list(violations),
    }


def run(config: ExperimentConfig):
    """Run a sweep and write its artifacts; returns (exit_code, paths).

    Exit code 0 on success, 1 when invariant violations occurred.  Partial
    outputs are removed if anything fails mid-write.
    """
    fields, rows, violations = run_sweep(config)
    os.makedirs(config.out_dir, exist_ok=True)
    table_path = os.path.join(config.out_dir, f"{config.sweep}.{config.fmt}")
    manifest_path = os.path.join(config.out_dir, f"{config.sweep}.manifest.json")
    written = []
    try:
        for path, payload in (
            (table_path, render_table(fields, rows, config.fmt)),
            (manifest_path, json.dumps(_manifest(config, violations), indent=2) + "\n"),
        ):
            fd, tmp = tempfile.mkstemp(dir=config.out_dir)
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
            written.append(path)
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    return (1 if violations else 0), [table_path, manifest_path], violations
