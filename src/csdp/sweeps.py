"""Parameter sweeps behind the CLI: benchmark reproductions and validators.

Each sweep turns a config into one table (list of dict rows with a fixed
column order), a run manifest, and a list of invariant violations.  Rows
always carry every parameter needed to regenerate them, including the
seed.  Cells are independent; with threads > 1 they are evaluated in a
pool and merged in grid order, so output bytes never depend on scheduling.
A leakage sweep's cell is one lambda: one model and kernel, and one
Delta_bar call for all its ages; its rows are (t, eps_c) in grid order.
A utility sweep's cell is one (lambda, age): one aging term, and one row
per eps_c in grid order.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
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
from .utility import (
    MECHANISMS,
    UtilitySpec,
    aging_error,
    mse_simulated,
    noise_variance,
    tradeoff_frontier,
)

LEAKAGE_FIELDS = (
    "lambda", "t", "eps_c", "k", "d_k", "delta_k", "delta_bar",
    "loose_linear", "loose_log", "tight", "adp", "dp", "ddp",
    "oracle", "oracle_hw", "seed",
)

FRONTIER_FIELDS = ("mechanism", "l_cap", "age", "eps_c", "leakage", "mse", "feasible", "seed")

EPS_GRID_DEFAULT = tuple(np.logspace(np.log10(0.05), np.log10(10.0), 25).tolist())

_LEAKAGE_GRIDS = {"lambda": (0.5,), "t": tuple(range(7)), "eps_c": (1.0,)}

# Each sweep kind's grid keys and the value a key takes when a config leaves
# it out; a config naming any other key, or giving a value not of its
# default's shape (`_fits`), is rejected.
GRID_DEFAULTS = {
    "leakage-vs-lambda": _LEAKAGE_GRIDS,
    "leakage-vs-age": _LEAKAGE_GRIDS,
    "leakage-vs-noise": _LEAKAGE_GRIDS,
    "utility-sweep": {"lambda": (0.5,), "age": ((0, 0),), "eps_c": (1.0,), "samples": 4000},
    "frontier": {"lambda": (0.5,), "caps": tuple(round(0.2 + 0.1 * i, 10) for i in range(9)),
                 "age": tuple(range(21)), "eps_c": EPS_GRID_DEFAULT, "leakage_kind": "tight"},
    "oracle-validate": {"lambda": (0.0, 0.25, 0.5, 0.75, 1.0), "t": tuple(range(7)),
                        "eps_c": (2.0, 5.0, 10.0)},
    "reduce-check": {"eps_c": (1.0,), "max_age": 8},
}


def _fits(value, default) -> bool:
    """Whether a grid value has the shape of its default: a list (or tuple)
    of elements each fitting the default's first for a tuple, an int for an
    int, a number for a float and a str for a str.  A bool is none of these."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, numbers.Integral if isinstance(default, int) else numbers.Real)


def _shape(default) -> str:
    """The shape `_fits` asks of a value, written out: "[int, ...]"."""
    if isinstance(default, tuple):
        return f"[{_shape(default[0])}, ...]"
    return {int: "int", float: "number", str: "str"}[type(default)]


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
        if self.sweep not in GRID_DEFAULTS:
            raise ModelError(
                f"sweep: unknown kind '{self.sweep}'; expected one of {tuple(GRID_DEFAULTS)}"
            )
        if not isinstance(self.grids, dict):
            raise ModelError(f"grids: expected a mapping, got {self.grids!r}")
        keys = GRID_DEFAULTS[self.sweep]
        unknown = [key for key in self.grids if key not in keys]
        if unknown:
            raise ModelError(f"grids: unknown key(s) {unknown}; {self.sweep} takes {tuple(keys)}")
        for key, value in self.grids.items():
            # a frontier's ages may be age vectors too, as a utility sweep's are
            if not (_fits(value, keys[key]) or key == "age" and _fits(value, ((0,),))):
                raise ModelError(f"grids: {key}: expected {_shape(keys[key])}, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ModelError(f"format: unknown value '{self.fmt}'")
        if self.threads < 1:
            raise ModelError(f"threads: must be >= 1, got {self.threads}")

    def grid(self, key: str):
        """The grid `key` as the config gives it, else the sweep kind's default."""
        return self.grids.get(key, GRID_DEFAULTS[self.sweep][key])

    def single(self, key: str):
        """The value of grid `key`, for a sweep that takes exactly one."""
        values = self.grid(key)
        if len(values) != 1:
            raise ModelError(f"grids: a {self.sweep} sweep takes one {key}, got {values}")
        return values[0]


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
        {"lambda": [0.5], "caps": [0.4, 0.6, 0.8], "leakage_kind": "tight"},
    ),
    "fig5": ExperimentConfig(
        "frontier",
        {"lambda": [0.5], "caps": GRID_DEFAULTS["frontier"]["caps"], "leakage_kind": "tight"},
    ),
    "oracle-validate": ExperimentConfig("oracle-validate", dict(GRID_DEFAULTS["oracle-validate"])),
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
        try:
            doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ModelError(f"config: '{source}' is not valid YAML: {exc}") from None
    if not isinstance(doc, dict) or "sweep" not in doc:
        raise ModelError("config: missing field 'sweep'")
    return ExperimentConfig(
        sweep=doc["sweep"],
        grids=doc.get("grids", {}),
        model_path=_field(doc, "model", str, ""),
        seed=_field(doc, "seed", int, 0),
        out_dir=_field(doc, "out", str, "."),
        cap=_field(doc, "cap", int, DEFAULT_ENUMERATION_CAP),
        fmt=_field(doc, "format", str, "csv"),
        threads=_field(doc, "threads", int, 1),
    )


def _field(doc: dict, key: str, kind, default):
    """doc[key] as `kind`, or `default` when the key is absent or left empty;
    a value that is not of that kind (or, for an int, text of one) is refused."""
    value = doc.get(key)
    if value is None:
        return default
    if kind is str and isinstance(value, str):
        return value
    if kind is int:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ModelError(f"{key}: expected {kind.__name__}, got {value!r}")


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
    if config.sweep in ("leakage-vs-lambda", "leakage-vs-age", "leakage-vs-noise",
                        "oracle-validate"):
        ts, eps_grid = config.grid("t"), config.grid("eps_c")
        validate = config.sweep == "oracle-validate"
        per_cell = _map_cells(
            lambda lam: _leakage_rows(config, lam, ts, eps_grid, validate),
            config.grid("lambda"), config.threads,
        )
        rows = [row for cell_rows in per_cell for row in cell_rows]
        violations = [v for row in rows for v in _check_leakage_row(row)]
        return LEAKAGE_FIELDS, rows, violations

    if config.sweep == "utility-sweep":
        fields = ("lambda", "age", "eps_c", "mse_exact", "mse_simulated",
                  "mse_stderr", "samples", "seed")
        samples = config.grid("samples")
        lams, eps_grid = config.grid("lambda"), config.grid("eps_c")
        cells = [(lam, tuple(age)) for lam in lams for age in config.grid("age")]
        # one model and kernel per distinct lambda, shared read-only by its cells
        kernels = {}
        for lam in dict.fromkeys(lams):
            model = _model_for(config, lam)
            kernels[lam] = (joint_kernel(model, config.cap), builtin_queries(model.space)["mean"])

        def cell(c):
            lam, age = c
            kernel, query = kernels[lam]
            aging = aging_error(kernel, age, query)
            label = "|".join(str(a) for a in age)
            rows = []
            for eps in eps_grid:
                est, se = mse_simulated(kernel, age, query, eps, samples,
                                        derive_seed(config.seed, "mse", lam, age, eps))
                # mse_exact's sum; mse_simulated has checked eps by now
                exact = aging + noise_variance(query, eps)
                rows.append({"lambda": lam, "age": label, "eps_c": eps, "mse_exact": exact,
                             "mse_simulated": est, "mse_stderr": se, "samples": samples,
                             "seed": config.seed})
            return rows

        rows = [row for cell_rows in _map_cells(cell, cells, config.threads)
                for row in cell_rows]
        violations = [
            f"lambda={r['lambda']} age={r['age']} eps_c={r['eps_c']}: "
            "simulated MSE outside 5 standard errors of exact "
            f"(z = {_z_score(r['mse_simulated'] - r['mse_exact'], r['mse_stderr']):+.2f})"
            for r in rows
            if abs(r["mse_simulated"] - r["mse_exact"]) > 5 * r["mse_stderr"]
        ]
        return fields, rows, violations

    if config.sweep == "frontier":
        model = _model_for(config, config.single("lambda"))
        caps = config.grid("caps")
        spec = UtilitySpec(
            builtin_queries(model.space)["mean"],
            mse_cap=max(caps),
            age_grid=tuple(config.grid("age")),
            eps_grid=tuple(config.grid("eps_c")),
            leakage_kind=config.grid("leakage_kind"),
        )
        frontier = tradeoff_frontier(model, spec, caps, config.cap)
        rows, violations = [], []
        for mech in MECHANISMS:
            for cap, sol in frontier[mech]:
                rows.append({
                    "mechanism": mech, "l_cap": cap,
                    "age": "|".join(str(a) for a in sol.age),
                    "eps_c": sol.eps_c, "leakage": sol.leakage, "mse": sol.mse,
                    "feasible": sol.feasible, "seed": config.seed,
                })
            points = [(cap, sol.leakage) for cap, sol in frontier[mech] if sol.feasible]
            violations += [
                f"{mech}: frontier not non-increasing in the cap: rises by {b - a:.1e} "
                f"at l_cap={cap}"
                for (_, a), (cap, b) in zip(points, points[1:]) if b > a + 1e-9
            ]
        return FRONTIER_FIELDS, rows, violations

    if config.sweep == "reduce-check":
        fields = ("case", "applicable", "passed", "detail")
        cases = verify_reductions(config.single("eps_c"), config.grid("max_age"))
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
