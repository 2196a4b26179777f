"""Parameter sweeps behind the CLI: benchmark reproductions and validators.

Each sweep turns a config into one table (list of dict rows with a fixed
column order), a run manifest, and a list of invariant violations.  Rows
always carry every parameter needed to regenerate them, including the
seed.  Every sweep runs serially on the calling thread, and builds the
kernels of its whole lambda grid as one stack (`joint_kernels`).  A
leakage sweep is one pass: one call reads the aged laws of every lambda at
every t off that stack (`aged_joint_grid`), and then, over those laws in
lambda-major order, one call each gives their Delta_k, their Delta_bar and
their oracle over the whole eps grid; its rows are (lambda, t, eps_c) in
grid order, and only the budgets that vary with all three are formed per
row.  The single-chain TVs of the ADP column depend only on the models'
self-transition matrices, not on lambda, so the sweep computes them once
per distinct set of those matrices (once for every built-in preset).  A
utility sweep takes, per lambda, one aging term per law of its age grid
from one `aged_joints` call, duplicates kept, and then one seeded
simulation per (age, eps_c), in that order; a simulation's seed depends
only on its (lambda, age, eps_c).  A frontier reads every cap off one grid
of rows per mechanism (`utility.tradeoff_frontier`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
import platform
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .bounds import (
    adp_leakage,
    aged_tvs,
    baseline_bounds,
    bounded_aged_correlations,
    exact_oracles,
    loose_bound,
    single_chain_tvs,
    tight_bound,
    verify_reductions,
)
from .kernel import aged_joint_grid, aged_joints, joint_kernels, state_values
from .model import (DEFAULT_ENUMERATION_CAP, CmcModel, ModelError, load_model, read_yaml_fields,
                    two_user_model)
from .queries import builtin_queries, k_sensitivity
from .rng import derive_seed
from .utility import (
    MECHANISMS,
    UtilitySpec,
    _aging_term,
    _mse_simulated,
    _sampling_tables,
    noise_variance,
    tradeoff_frontier,
)

LEAKAGE_FIELDS = (
    "lambda", "t", "eps_c", "k", "d_k", "delta_k", "delta_bar",
    "loose_linear", "loose_log", "tight", "adp", "dp", "ddp",
    "oracle", "seed",
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
    """Whether a value has the shape of its default: a non-empty list (or
    tuple) of elements each fitting the default's first for a tuple, an int
    for an int, a number for a float and a str for a str.  A bool is none of
    these."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(_fits(v, default[0]) for v in value))
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


# YAML key (also the `csdp run` flag) -> ExperimentConfig field, but for sweep and grids
FIELD_KEYS = {"model": "model_path", "seed": "seed", "out": "out_dir", "cap": "cap",
              "format": "fmt"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep, valid by construction.  A field of FIELD_KEYS must fit its
    default (`_fits`), an int field also taking the text of an int, which it
    stores as an int; a ModelError names the YAML key of a field that does not."""

    sweep: str
    grids: dict = field(default_factory=dict)
    model_path: str = ""  # empty: built-in two-user benchmark model
    seed: int = 0
    out_dir: str = "."
    cap: int = DEFAULT_ENUMERATION_CAP
    fmt: str = "csv"

    def __post_init__(self):
        if not isinstance(self.sweep, str) or self.sweep not in GRID_DEFAULTS:
            raise ModelError(
                f"sweep: unknown kind '{self.sweep}'; expected one of {tuple(GRID_DEFAULTS)}"
            )
        for key, name in FIELD_KEYS.items():
            value, default = getattr(self, name), getattr(ExperimentConfig, name)
            if isinstance(default, int) and isinstance(value, str):
                try:
                    value = int(value)
                except ValueError:
                    pass
            if not _fits(value, default):
                raise ModelError(f"{key}: expected {_shape(default)}, got {value!r}")
            object.__setattr__(self, name, int(value) if isinstance(default, int) else value)
        if not isinstance(self.grids, dict):
            raise ModelError(f"grids: expected a mapping, got {self.grids!r}")
        keys = GRID_DEFAULTS[self.sweep]
        unknown = [key for key in self.grids if key not in keys]
        if unknown:
            raise ModelError(f"grids: unknown key(s) {unknown}; {self.sweep} takes {tuple(keys)}")
        if self.model_path and "lambda" in self.grids:
            raise ModelError("grids: lambda: a sweep with a model file takes no lambda grid; "
                             "the model file fixes the coupling")
        for key, value in self.grids.items():
            # a frontier's ages may be age vectors too, as a utility sweep's are
            if not (_fits(value, keys[key]) or key == "age" and _fits(value, ((0,),))):
                raise ModelError(f"grids: {key}: expected {_shape(keys[key])}, got {value!r}")
        for cap in self.grids.get("caps", ()):
            if not cap > 0:  # also NaN; +inf is no cap
                raise ModelError(f"grids: caps: every cap must be positive, got {cap}")
        if self.fmt not in ("csv", "json"):
            raise ModelError(f"format: unknown value '{self.fmt}'")
        if self.cap < 1:
            raise ModelError(f"cap: must be >= 1, got {self.cap}")

    def grid(self, key: str):
        """The grid `key` as the config gives it, else the sweep kind's default.
        With a model file, which fixes the coupling, the lambda grid is the
        default's first value: one lambda, whose rows leave lambda empty."""
        if key == "lambda" and self.model_path:
            return GRID_DEFAULTS[self.sweep][key][:1]
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
    """Resolve a preset name or read a YAML config file, whose keys are `sweep`,
    `grids` and those of FIELD_KEYS; a key left empty takes its default."""
    if source in PRESETS:
        return PRESETS[source]
    if not os.path.exists(source):
        raise ModelError(
            f"config: '{source}' is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor a readable file"
        )
    doc = read_yaml_fields(source, "config", ("sweep",), ("grids", *FIELD_KEYS))
    return ExperimentConfig(**{FIELD_KEYS.get(key, key): value
                               for key, value in doc.items() if value is not None})


def _model_for(config: ExperimentConfig, lam: float) -> CmcModel:
    if config.model_path:
        return load_model(config.model_path)
    return two_user_model(lam)


def _chain_tvs(models, ts) -> list:
    """Each model's single-chain TVs at every t of `ts`, from one
    `single_chain_tvs` call per distinct set of self-transition matrices
    (a preset's lambdas change only the coupling, so they share one)."""
    groups, out = {}, []
    for model in models:
        s = model.space.num_sequences
        key = (model.space, model.transitions[np.diag_indices(s)].tobytes())
        if key not in groups:
            groups[key] = single_chain_tvs(model, ts)
        out.append(groups[key])
    return out


def _leakage_rows(config):
    """Rows of a leakage sweep, one per (lambda, t, eps_c) of its grids, in
    that order.

    The lambdas' kernels are built as one stack, and the aged laws of every
    lambda at every t are read off it in one call; those laws, lambda-major,
    then get their Delta_k, their Delta_bar and the oracle at every eps_c
    from one call each for the whole sweep.  The DP and DDP budgets are
    formed once per eps_c and the ADP budget once per (single-chain TV,
    eps_c); only the budgets that vary with (lambda, t, eps_c) are formed
    per row.
    """
    lams, ts, eps_grid = config.grid("lambda"), config.grid("t"), config.grid("eps_c")
    models = [_model_for(config, lam) for lam in lams]  # all of one space
    query = builtin_queries(models[0].space)["mean"]
    k = models[0].space.num_sequences
    dk = k_sensitivity(query, k)
    # (lambda, t, single-chain TV) of each law, in the laws' order
    cells = [(lam, t, delta_t) for lam, chain_tvs in zip(lams, _chain_tvs(models, ts))
             for t, delta_t in zip(ts, chain_tvs)]
    grid = aged_joint_grid(joint_kernels(models, config.cap), [(t,) * k for t in ts])
    laws = [law for row in grid for law in row]
    deltas_k, deltas_bar = aged_tvs(laws), bounded_aged_correlations(laws)
    # the exact pure-DP leakage, in closed form
    oracles = [[""] * len(eps_grid)] * len(laws)
    if config.sweep == "oracle-validate":
        oracles = exact_oracles(laws, query, eps_grid)
    baselines = [baseline_bounds(eps, query) for eps in eps_grid]
    adp = {(delta_t, eps): adp_leakage(delta_t, eps)
           for delta_t in dict.fromkeys(cell[2] for cell in cells) for eps in eps_grid}
    rows = []
    for (lam, t, delta_t), delta_k, delta_bar, at_t in zip(cells, deltas_k, deltas_bar, oracles):
        for eps, oracle, (dp, ddp) in zip(eps_grid, at_t, baselines):
            lin, logf = loose_bound(delta_k, dk, eps)
            rows.append({
                "lambda": "" if config.model_path else lam, "t": t, "eps_c": eps, "k": k, "d_k": dk,
                "delta_k": delta_k, "delta_bar": delta_bar,
                "loose_linear": lin, "loose_log": logf,
                "tight": tight_bound(delta_bar, eps),
                "adp": adp[delta_t, eps],
                "dp": dp, "ddp": ddp,
                "oracle": oracle, "seed": config.seed,
            })
    return rows


def _check_leakage_row(row, slack: float = 1e-9) -> list:
    """Breaches of loose_log >= loose_linear >= tight and, with an oracle,
    oracle <= tight, each with its size."""
    bad = []
    loc = f"lambda={row['lambda']} t={row['t']} eps_c={row['eps_c']}"
    if row["loose_log"] < row["loose_linear"] - slack:
        bad.append(f"{loc}: loose_log fell below loose_linear by "
                   f"{row['loose_linear'] - row['loose_log']:.1e}")
    if row["tight"] > row["loose_linear"] + slack:
        bad.append(f"{loc}: tight exceeds loose_linear by "
                   f"{row['tight'] - row['loose_linear']:.1e}")
    if row["oracle"] != "" and row["oracle"] > row["tight"] + slack:
        bad.append(f"{loc}: oracle exceeds tight bound by "
                   f"{row['oracle'] - row['tight']:.1e}")
    return bad


def _z_score(diff: float, stderr: float) -> float:
    if stderr > 0:
        return diff / stderr
    return math.copysign(math.inf, diff)


def run_sweep(config: ExperimentConfig):
    """Execute a sweep; returns (fields, rows, violations)."""
    if config.sweep in ("leakage-vs-lambda", "leakage-vs-age", "leakage-vs-noise",
                        "oracle-validate"):
        rows = _leakage_rows(config)
        violations = [v for row in rows for v in _check_leakage_row(row)]
        return LEAKAGE_FIELDS, rows, violations

    if config.sweep == "utility-sweep":
        fields = ("lambda", "age", "eps_c", "mse_exact", "mse_simulated",
                  "mse_stderr", "samples", "seed")
        samples = config.grid("samples")
        ages, eps_grid = [tuple(age) for age in config.grid("age")], config.grid("eps_c")
        lams = config.grid("lambda")
        models = [_model_for(config, lam) for lam in lams]
        kernels = joint_kernels(models, config.cap)  # refuses a space beyond the cap first
        rows = []
        for lam, kernel in zip(lams, kernels):
            # the query's values on the joint states and the kernel's sampling
            # tables, shared by every row of this lambda
            query = builtin_queries(kernel.space)["mean"]
            f, tables = state_values(kernel.space, query), _sampling_tables(kernel)
            agings = [_aging_term(law, f) for law in aged_joints(kernel, ages)]
            for age, aging in zip(ages, agings):
                label = "|".join(str(a) for a in age)
                for eps in eps_grid:
                    est, se = _mse_simulated(kernel, age, query, f, tables, eps, samples,
                                             derive_seed(config.seed, "mse", lam, age, eps))
                    # mse_exact's sum; _mse_simulated has checked eps by now
                    exact = aging + noise_variance(query, eps)
                    rows.append({"lambda": "" if config.model_path else lam, "age": label,
                                 "eps_c": eps, "mse_exact": exact,
                                 "mse_simulated": est, "mse_stderr": se, "samples": samples,
                                 "seed": config.seed})
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

    # reduce-check, the one kind left: ExperimentConfig refuses any other
    fields = ("case", "applicable", "passed", "detail")
    cases = verify_reductions(config.single("eps_c"), config.grid("max_age"))
    rows = [
        {"case": c.name, "applicable": c.applicable, "passed": c.passed, "detail": c.detail}
        for c in cases
    ]
    violations = [f"reduction case '{c.name}' failed" for c in cases
                  if c.applicable and not c.passed]
    return fields, rows, violations


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
        "violations": list(violations),
    }


def run(config: ExperimentConfig):
    """Run a sweep and write its artifacts; returns (exit_code, paths).

    The output directory is created, and probed with a temporary file,
    before the sweep runs, so an unusable one fails (OSError) before any
    work is done.  Exit code 0 on success, 1 when invariant violations
    occurred.  If anything fails, the outputs written so far and the
    directories created for the run, once empty, are removed.
    """
    created = []  # the output directory and its missing ancestors, deepest first
    path = os.path.abspath(config.out_dir)
    while not os.path.lexists(path):
        created.append(path)
        path = os.path.dirname(path)
    written = []
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        tempfile.TemporaryFile(dir=config.out_dir).close()
        fields, rows, violations = run_sweep(config)
        table_path = os.path.join(config.out_dir, f"{config.sweep}.{config.fmt}")
        manifest_path = os.path.join(config.out_dir, f"{config.sweep}.manifest.json")
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
        for path in created:
            with contextlib.suppress(OSError):  # not empty, or never made
                os.rmdir(path)
        raise
    return (1 if violations else 0), [table_path, manifest_path], violations
