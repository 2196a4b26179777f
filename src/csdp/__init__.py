"""Privacy accounting for correlated categorical sequences.

Model coupled Markov sequences, release aged-and-noised query answers,
and certify the privacy leakage with analytic bounds, cross-checked by an
oracle that computes the exact pure-DP leakage.
"""

__version__ = "0.1.0"

from .bounds import (
    LeakageParams,
    OracleEstimate,
    adp_leakage,
    aged_tv_distance,
    aged_tvs,
    baseline_bounds,
    bounded_aged_correlation,
    bounded_aged_correlations,
    exact_oracles,
    k_sensitivity,
    loose_bound,
    oracle_leakage,
    single_chain_tvs,
    tight_bound,
    verify_reductions,
)
from .kernel import AgedLaw, JointKernel, aged_joint, aged_joints, joint_kernel, sample_trajectory
from .mechanism import (
    MechanismOutput,
    SequenceDatabase,
    age_data,
    laplace_sample,
    release,
    release_values,
)
from .model import (
    CmcModel,
    ModelError,
    StateSpace,
    load_model,
    save_model,
    two_user_model,
)
from .queries import QuerySpec, builtin_queries
from .utility import (
    TradeoffSolution,
    UtilitySpec,
    mse_exact,
    mse_simulated,
    solve_p1,
    tradeoff_frontier,
)

__all__ = [name for name in dir() if not name.startswith("_")]
