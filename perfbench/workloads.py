"""The four workloads of the csdp benchmark.

Every workload is closed-loop: one process, one caller, and each call
waits for the previous one.  A workload object is built from the seed
(that is the set-up: it generates the inputs, and the program receives
only those), then runs passes over a fixed amount of work.  Each pass
times its operations one by one and checks every output outside the
timed region; a check that fails, or an operation that raises, marks the
operation failed.

Why each workload exists:

* figures -- what a reader runs to reproduce the paper: `csdp run` on the
  two-user presets.  Time goes to per-call overhead and repeated work
  (LP wrapper calls, a kernel rebuilt per cell, a frontier re-solved per
  cap, query evaluation in Python per sample).  It bypasses product-space
  scaling.
* ladder -- "certify" requests on seeded random coupled models of growing
  joint size n = m^s, plus one P1 solve.  The product-space loops (kernel
  build, aged joint, Delta_k, the per-pair oracle) dominate; this is the
  multi-user case.  It bypasses mechanism, rng and simulated MSE.
* release -- a stream of seeded `release` calls on a sampled database:
  the library's release path (mechanism, rng, queries).  It does no
  kernel or bounds work, so kernel and bounds optimisations should leave
  it unchanged.
* gate -- `acceptance(seed)`, the only path through the acceptance layer
  and the only one that runs a sweep on two threads.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import traceback
from time import perf_counter

import numpy as np
from scipy import stats

from catalog import PRESETS
from csdp import acceptance, bounds, cli, kernel, mechanism, queries, sweeps, utility
from csdp.model import CmcModel, StateSpace

COLUMN_TOL = 1e-9
BOUND_SLACK = 1e-9
MSE_SIGMAS = 5.0
# Floor on the p-value of a Kolmogorov-Smirnov test of released noise: a
# correct mechanism gives a uniform p-value, so it fails 1 seed in 10^6.
KS_PVALUE_FLOOR = 1e-6
MAX_TRACEBACKS = 3


class Pass:
    """Timed operations of one pass, with the problems their checks found."""

    def __init__(self, index: int, tracer=None, inject: bool = False):
        self.index = index
        self.tracer = tracer
        self.inject = inject
        self.ops = []  # [label, seconds, problems, start (perf_counter)]
        self.notes = {}
        self.counters = None  # filled by a traced run
        self._tracebacks = 0

    def span(self, label):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(self.index * 1_000_000 + len(self.ops), label)

    def time(self, label: str, fn):
        """Run fn() as one operation; returns its result, or None if it raised."""
        start = perf_counter()
        try:
            with self.span(label):
                result = fn()
        except Exception:  # an operation that raises is counted, not fatal
            self.record(label, start, perf_counter() - start, ["raised " + self.exception()])
            return None
        self.record(label, start, perf_counter() - start, [])
        return result

    def record(self, label: str, start: float, seconds: float, problems: list) -> None:
        self.ops.append([label, seconds, list(problems), start])

    def exception(self) -> str:
        """Print the first few tracebacks; return the exception's repr."""
        self._tracebacks += 1
        if self._tracebacks <= MAX_TRACEBACKS:
            traceback.print_exc(file=sys.stderr)
        return repr(sys.exc_info()[1])

    def verify(self, check, *args) -> None:
        """Run check(*args) -> problems outside the traced counts; file them
        against the last operation."""
        pause = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with pause:
            try:
                problems = check(*args)
            except Exception:
                problems = ["check raised " + self.exception()]
        self.ops[-1][2].extend(problems)

    def take_fault(self) -> bool:
        """True once per pass when a wrong result is to be injected."""
        hit, self.inject = self.inject, False
        return hit

    @property
    def seconds(self) -> float:
        return sum(op[1] for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op[2])


def seeded(seed: int, stream: int) -> np.random.Generator:
    """The workload's input generator; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def random_model(rng: np.random.Generator, s: int, m: int) -> CmcModel:
    """A coupled model with Dirichlet(1) transition columns and coupling rows."""
    transitions = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2)
    weights = rng.dirichlet(np.ones(s), size=s)
    return CmcModel(StateSpace(s, m), transitions.copy(), weights)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


# ---------------------------------------------------------------------------
# figures


class Figures:
    name = "figures"
    PRESETS = PRESETS
    SMOKE_PRESETS = ("fig3c", "fig4b")

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.presets = self.SMOKE_PRESETS if smoke else self.PRESETS
        self.out = os.path.join(workdir, "figures")
        self.digests = {}  # preset -> SHA-256 of the table from the first pass

    def run_pass(self, p: Pass) -> None:
        rows = 0
        for preset in self.presets:
            out = os.path.join(self.out, preset)
            argv = ["run", "--config", preset, "--out", out, "--seed", str(self.seed)]
            code = p.time(preset, lambda: _quiet(cli.main, argv))
            if code is not None:
                p.verify(self._check, p, preset, code, out)
                rows += p.notes.pop("rows", 0)
        p.notes["rows"] = rows

    def _check(self, p: Pass, preset: str, code: int, out: str) -> list:
        problems = [] if code == 0 else [f"{preset}: exit code {code}"]
        sweep = sweeps.PRESETS[preset].sweep
        with open(os.path.join(out, f"{sweep}.manifest.json")) as fh:
            violations = json.load(fh)["violations"]
        problems += [f"{preset}: {v}" for v in violations]
        with open(os.path.join(out, f"{sweep}.csv"), "rb") as fh:
            table = fh.read()
        digest = hashlib.sha256(table).hexdigest()
        first = self.digests.setdefault(preset, digest)
        if digest != first:
            problems.append(f"{preset}: table digest {digest} differs from {first}")
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        p.notes["rows"] = len(rows)
        if sweep == "utility-sweep":
            if p.take_fault():
                rows[0]["mse_simulated"] = str(float(rows[0]["mse_exact"]) + 1.0)
            for r in rows:
                gap = abs(float(r["mse_simulated"]) - float(r["mse_exact"]))
                if gap > MSE_SIGMAS * float(r["mse_stderr"]):
                    problems.append(f"{preset}: age={r['age']} simulated MSE "
                                    f"{gap / float(r['mse_stderr']):.2f} standard errors off")
        return problems

    def report(self, passes) -> list:
        times = [p.seconds for p in passes]
        rows = passes[0].notes["rows"]
        lines = [("rows_per_s", rows / _median(times), "1/s",
                  f"{rows} rows per pass, median of {len(times)} passes")]
        for preset in self.presets:
            t = [op[1] for p in passes for op in p.ops if op[0] == preset]
            lines.append((f"preset_s.{preset}", _median(t), "s", f"median of {len(t)}"))
        for preset, digest in self.digests.items():
            lines.append((f"sha256.{preset}", digest, "", "table digest, equal on every pass"))
        return lines


# ---------------------------------------------------------------------------
# ladder


class Ladder:
    name = "ladder"
    SIZES = ((4, 2), (3, 3), (6, 2), (8, 2), (10, 2))
    SMOKE_SIZES = ((4, 2), (3, 3))
    P1_SIZE = (8, 2)
    SMOKE_P1_SIZE = (4, 2)
    P1_AGES = 6
    SMOKE_P1_AGES = 3
    TIGHT_MAX_N = 64
    ORACLE_MAX_N = 256
    # eps in [0.2, 3] covers eps <= 1.5, where the tight bound is known to
    # fail; the fraction of such requests is reported, not hidden.
    EPS_RANGE = (0.2, 3.0)
    # The age of the request at each size, in SIZES order.  It is fixed,
    # not drawn, because a request's work grows with its age: a drawn age
    # moved the n=1024 request's time by about a third from seed to seed.
    # Ages 1, 2 and 3 each meet the tight-bound check (n <= 64).
    AGES = (1, 2, 3, 1, 2)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = seeded(seed, 2)
        sizes = self.SMOKE_SIZES if smoke else self.SIZES
        self.p1_size = self.SMOKE_P1_SIZE if smoke else self.P1_SIZE
        self.p1_ages = self.SMOKE_P1_AGES if smoke else self.P1_AGES
        # Every pass repeats the same requests, so a pass's work does not
        # depend on how many passes a run fits.
        self.requests = [(random_model(rng, s, m), t, float(rng.uniform(*self.EPS_RANGE)))
                         for (s, m), t in zip(sizes, self.AGES)]
        self.p1_eps = tuple(sorted(float(e) for e in rng.uniform(*self.EPS_RANGE, size=3)))

    @staticmethod
    def label(model) -> str:
        return f"n{model.space.product_size}"

    def _certify(self, model, t, eps) -> dict:
        s = model.space.num_sequences
        n = model.space.product_size
        K = kernel.joint_kernel(model)
        query = queries.builtin_queries(model.space)["mean"]
        dk = queries.k_sensitivity(query, s)
        age = (t,) * s
        delta_k = bounds.aged_tv_distance(K, age, s)
        linear, log_form = bounds.loose_bound(delta_k, dk, eps)
        out = {"kernel": K, "delta_k": delta_k, "certified": min(linear, log_form),
               "tight": None, "oracle": None}
        if n <= self.TIGHT_MAX_N:
            out["tight"] = bounds.tight_bound(bounds.bounded_aged_correlation(K, age), eps)
        if n <= self.ORACLE_MAX_N:
            params = bounds.LeakageParams(age, eps, s, query)
            out["oracle"] = bounds.oracle_leakage(K, params).estimate
        return out

    def _check_certify(self, p: Pass, r: dict) -> list:
        problems = []
        K = r["kernel"]
        col_err = float(np.abs(K.matrix.sum(axis=0) - 1.0).max())
        if col_err > COLUMN_TOL:
            problems.append(f"kernel columns off by {col_err:.3e}")
        if not 0.0 <= r["delta_k"] <= 1.0 + COLUMN_TOL:
            problems.append(f"Delta_k {r['delta_k']} outside [0, 1]")
        oracle = r["oracle"]
        if oracle is not None:
            if p.take_fault():
                oracle = r["certified"] + 1.0
            if oracle > r["certified"] + BOUND_SLACK:
                problems.append(f"oracle {oracle:.6g} exceeds certified loose "
                                f"budget {r['certified']:.6g}")
            if r["tight"] is not None:
                p.notes["tight_checked"] = p.notes.get("tight_checked", 0) + 1
                if oracle > r["tight"] + BOUND_SLACK:
                    p.notes["tight_violated"] = p.notes.get("tight_violated", 0) + 1
        return problems

    def _check_p1(self, sol, spec, K) -> list:
        problems = []
        if sol.age not in spec.age_grid or sol.eps_c not in spec.eps_grid:
            problems.append(f"P1 picked ({sol.age}, {sol.eps_c}) outside its grid")
            return problems
        mse = utility.mse_exact(K, sol.age, spec.query, sol.eps_c)
        if not math.isclose(mse, sol.mse, rel_tol=1e-12):
            problems.append(f"P1 mse {sol.mse} differs from exact {mse}")
        if sol.feasible and sol.mse > spec.mse_cap:
            problems.append(f"P1 feasible point has mse {sol.mse} above cap {spec.mse_cap}")
        s = K.space.num_sequences
        delta_k = bounds.aged_tv_distance(K, sol.age, s)
        _, log_form = bounds.loose_bound(delta_k, queries.k_sensitivity(spec.query, s),
                                         sol.eps_c)
        if not math.isclose(log_form, sol.leakage, rel_tol=1e-12):
            problems.append(f"P1 leakage {sol.leakage} differs from loose_log {log_form}")
        return problems

    def run_pass(self, p: Pass) -> None:
        kernels = {}
        p1_model = None
        for model, t, eps in self.requests:
            r = p.time(self.label(model), lambda: self._certify(model, t, eps))
            if r is not None:
                p.verify(self._check_certify, p, r)
                kernels[id(model)] = r["kernel"]
            if (model.space.num_sequences, model.space.num_states) == self.p1_size:
                p1_model = model
        s = p1_model.space.num_sequences
        spec = utility.UtilitySpec(
            queries.builtin_queries(p1_model.space)["mean"], mse_cap=0.3,
            age_grid=tuple((a,) * s for a in range(self.p1_ages)),
            eps_grid=self.p1_eps, leakage_kind="loose_log",
        )
        sol = p.time(f"p1.{self.label(p1_model)}", lambda: utility.solve_p1(p1_model, spec))
        if sol is not None:
            K = kernels.get(id(p1_model)) or kernel.joint_kernel(p1_model)
            p.verify(self._check_p1, sol, spec, K)

    def report(self, passes) -> list:
        lines = []
        for label in [op[0] for op in passes[0].ops]:
            t = [op[1] for p in passes for op in p.ops if op[0] == label]
            name = "p1_s." + label[3:] if label.startswith("p1.") else "certify_s." + label
            lines.append((name, _median(t), "s", f"median of {len(t)}"))
        checked = sum(p.notes.get("tight_checked", 0) for p in passes)
        violated = sum(p.notes.get("tight_violated", 0) for p in passes)
        frac = violated / checked if checked else float("nan")
        lines.append(("tight_violation_frac", frac, "1",
                      f"{violated} of {checked} requests with n <= {self.TIGHT_MAX_N} "
                      "have oracle > tight (known defect, reported as measured)"))
        return lines


# ---------------------------------------------------------------------------
# release


class Release:
    name = "release"
    MODEL_SHAPE = (4, 3)
    HORIZON = 20_000
    SMOKE_HORIZON = 500
    BATCH = 2000
    SMOKE_BATCH = 200
    BATCHES = 8
    MAX_AGE = 20
    QUERIES = ("mean", "sum", "max")
    EPS_RANGE = (0.1, 5.0)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = seeded(seed, 3)
        s, m = self.MODEL_SHAPE
        model = random_model(rng, s, m)
        K = kernel.joint_kernel(model)
        horizon = self.SMOKE_HORIZON if smoke else self.HORIZON
        states = kernel.sample_trajectory(K, "stationary", horizon, int(rng.integers(2**62)))
        self.db = mechanism.SequenceDatabase(model.space, states)
        size = self.SMOKE_BATCH if smoke else self.BATCH
        self.batches = []
        for _ in range(self.BATCHES):
            t = rng.integers(self.MAX_AGE + 1, horizon + 1, size=size).tolist()
            ages = rng.integers(0, self.MAX_AGE + 1, size=(size, s)).tolist()
            names = rng.choice(self.QUERIES, size=size).tolist()
            eps = rng.uniform(*self.EPS_RANGE, size=size).tolist()
            seeds = rng.integers(2**62, size=size).tolist()
            self.batches.append(list(zip(t, map(tuple, ages), names, eps, seeds)))
        self.digests = {}  # batch index -> SHA-256 of its values on the first pass
        self.ks_pvalues = {}  # batch index -> KS p-value of its unit-scaled noise

    def run_pass(self, p: Pass) -> None:
        # Built per pass so a traced pass sees traced query callables.
        specs = queries.builtin_queries(self.db.space)
        index = p.index % len(self.batches)
        batch = self.batches[index]
        release = mechanism.release
        db = self.db
        outs = [None] * len(batch)
        starts = np.empty(len(batch))
        times = np.empty(len(batch))
        for i, (t, age, name, eps, seed) in enumerate(batch):
            query = specs[name]
            starts[i] = start = perf_counter()
            try:
                if p.tracer is None:
                    outs[i] = release(db, t, age, query, eps, seed)
                else:
                    with p.span("release"):
                        outs[i] = release(db, t, age, query, eps, seed)
            except Exception:
                outs[i] = "raised " + p.exception()
            times[i] = perf_counter() - start
        pause = p.tracer.paused() if p.tracer else contextlib.nullcontext()
        with pause:
            for i, (t, age, name, eps, seed) in enumerate(batch):
                p.record("release", float(starts[i]), float(times[i]),
                         self._check(p, outs[i], t, age, specs[name], eps))
            if all(not isinstance(out, str) for out in outs):
                p.ops[-1][2].extend(self._check_batch(index, outs, batch, specs))

    def _check(self, p: Pass, out, t, age, query, eps) -> list:
        if isinstance(out, str):
            return [out]
        value = float("nan") if p.take_fault() else out.value
        problems = []
        if not math.isfinite(value):
            problems.append(f"release value {value} at t={t}")
        if out.aged_snapshot != mechanism.age_data(self.db, t, age):
            problems.append(f"aged snapshot {out.aged_snapshot} at t={t} age={age}")
        if out.noise_scale != query.sensitivity(1) / eps:
            problems.append(f"noise scale {out.noise_scale} for eps={eps}")
        return problems

    def _check_batch(self, index, outs, batch, specs) -> list:
        """The batch's values are the same on every pass, and on the first its
        noise, scaled to unit size, passes a KS test against Laplace(0, 1)."""
        values = np.array([out.value for out in outs])
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        first = self.digests.setdefault(index, digest)
        if digest != first:
            return [f"batch {index}: values digest {digest} differs from {first}"]
        if index in self.ks_pvalues:
            return []
        noise = [(out.value - specs[name].evaluate(out.aged_snapshot)) / out.noise_scale
                 for out, (_, _, name, _, _) in zip(outs, batch)]
        pvalue = float(stats.kstest(noise, "laplace").pvalue)
        self.ks_pvalues[index] = pvalue
        if pvalue <= KS_PVALUE_FLOOR:
            return [f"batch {index}: noise KS p-value {pvalue:.3e} <= {KS_PVALUE_FLOOR}"]
        return []

    def report(self, passes) -> list:
        times = np.array([op[1] for p in passes for op in p.ops])
        per_pass = len(passes[0].ops)
        return [
            ("releases_per_s", per_pass / _median([p.seconds for p in passes]), "1/s",
             f"{per_pass} releases per pass, median of {len(passes)} passes"),
            ("release_p50_us", float(np.percentile(times, 50)) * 1e6, "us",
             f"{times.size} releases"),
            ("release_p99_us", float(np.percentile(times, 99)) * 1e6, "us",
             f"{times.size} releases"),
            ("noise_ks_pvalue_min", min(self.ks_pvalues.values(), default=float("nan")), "",
             f"over {len(self.ks_pvalues)} batches, floor {KS_PVALUE_FLOOR}"),
            *((f"sha256.batch{i}", d, "", "values digest, equal on every pass")
              for i, d in sorted(self.digests.items())),
        ]


# ---------------------------------------------------------------------------
# gate


class Gate:
    name = "gate"
    SMOKE_CRITERIA = ("u-shape", "decay", "reductions", "oracle-consistency")
    # The package's tolerances, except for its two seeded significance tests,
    # which by design fail at some seeds: criterion 6's KS p-value is held to
    # KS_PVALUE_FLOOR instead of 0.01, and criterion 7 to MSE_SIGMAS standard
    # errors (the utility sweep's own rule) instead of 3.
    TOLERANCES = {**acceptance.DEFAULT_TOLERANCES,
                  "ks_pvalue": KS_PVALUE_FLOOR, "mse_sigmas": MSE_SIGMAS}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.lines = {}  # criterion number -> result line from the first pass

    def run_pass(self, p: Pass) -> None:
        """acceptance(seed), one criterion per operation."""
        numbers = []
        for name, fn in acceptance.CRITERIA:
            if self.smoke and name not in self.SMOKE_CRITERIA:
                continue
            # Named criterion functions are looked up again so that a traced
            # pass calls the traced binding rather than the one CRITERIA holds.
            fn = getattr(acceptance, fn.__name__, fn)
            r = p.time(name, lambda: fn(dict(self.TOLERANCES), self.seed))
            if r is not None:
                p.verify(self._check, p, r)
                numbers.append(r.number)
        if not self.smoke and sorted(numbers) != list(range(1, 10)):
            p.ops[-1][2].append(f"criteria reported {numbers}, expected 1..9 once each")

    def _check(self, p: Pass, r) -> list:
        problems = []
        first = self.lines.setdefault(r.number, r.line())
        if r.line() != first:
            problems.append(f"criterion {r.number} changed between passes: {r.line()}")
        if p.take_fault():
            r = dataclasses.replace(r, passed=False, measured="injected wrong result")
        if not r.passed:
            problems.append(r.line())
        return problems

    def report(self, passes) -> list:
        times = [p.seconds for p in passes]
        lines = [("gate_s", _median(times), "s", f"median of {len(times)} passes")]
        for number in sorted(self.lines):
            lines.append((f"criterion.{number}", self.lines[number], "", ""))
        return lines


WORKLOADS = {w.name: w for w in (Figures, Ladder, Release, Gate)}
