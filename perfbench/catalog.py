"""Names the benchmark's metrics are built from, defined once.

This module imports nothing, so run.py can build its metric tables before
numpy or csdp is loaded.  bench_selftest.py checks CRITERIA and PRESETS
against the csdp package.
"""

WORKLOAD_NAMES = ("figures", "ladder", "release", "gate")

# The presets the figures workload runs, in order.
PRESETS = ("fig3a", "fig3c", "fig4b", "fig5", "oracle-validate")

# The csdp modules traced as layers.
LAYERS = ("model", "kernel", "bounds", "queries", "mechanism",
          "rng", "utility", "sweeps", "cli", "acceptance")

# The names of csdp.acceptance.CRITERIA, in order.
CRITERIA = ("u-shape", "decay", "bound-ordering", "reductions", "baseline-separation",
            "mechanism-stats", "mse", "oracle-consistency", "determinism")
