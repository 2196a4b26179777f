"""The vectorised product-space routines equal their loop forms bit for bit.

Each property builds a random valid coupled model (s <= 3 sequences,
m <= 3 states, Dirichlet transition columns and coupling rows, sometimes
with a zero coupling weight) and compares the package against the loop
references in `loop_reference.py` with exact equality; Delta_bar, whose
LP changed form, is compared with the dense coupling LP to 1e-12, and the
exact oracle, whose sums are two log-domain passes over the query's
values, with one `logsumexp` per state and value to 1e-12 * max(1, |value|).
The exact oracle also equals the largest log-ratio over a 20,001-point
density grid that holds the query's values, and is at least the largest
half-line log-ratio on criterion 8's grid, with warnings raised as errors.  The closed-form transport
bounds that settle most Delta_bar blocks must bracket the dense LP to n
ulps, on random and exchangeable models at mixed ages.  The aged
joint law is held in C order; it joins an age's lag groups by powers of K
where the loop steps once per lag, so the two agree to 1e-15, and a law
has the same bytes built alone or in a list.  The powers of a list of uniform
ages, read off one shared set of squares, have `np.linalg.matrix_power`'s
bytes; Delta_k of a list of laws equals the loop at each law's age and,
over seven 1024-state laws, peaks no higher than one law at a time plus
one n x n array, as Delta_bar does over seven 256-state laws, and past a
full group of laws Delta_bar holds no more open LP rows however many laws
it is given; both keep
their bits when every chunk of neighbour-pair differences is one row and
every group one law; the oracle over an eps grid equals one call per eps_c,
and over a list of laws one call per law.  A leakage sweep makes one
single-chain TV call per distinct set of self-transition matrices and one
call each for Delta_k, Delta_bar and the oracle over the laws of all its
lambdas, and each lambda's rows read its own model's TVs; a utility sweep
evaluates the query on the joint states once per lambda.
One more property checks that the current-snapshot marginal of the aged
joint law is the stationary law.  The release path, the simulated MSE and
the built-in query evaluates are compared with their per-sample NumPy forms the same way,
the simulated MSE also at lags up to 20, and its chain step with the
comparison sum it replaced on hand-picked uniforms at every threshold; a
draw at one column, as its start states and criterion 8's snapshots are
drawn, equals searchsorted on that column's cumsum, clipped.  A sampled
trajectory, whose steps bisect the rows of the same threshold table,
equals the per-step searchsorted loop, from every kind of start.
The P1 solver and the four-mechanism frontier equal a plain scan that
recomputes every grid point, on grids with repeated and mixed ages, and
their one selection pass over every cap equals the per-cap scan it
replaced, ties within the tolerances included.  Kernels, stationary laws
and aged laws built as one stack, over lambda grids and over random
models of one space, have the bytes of one-model builds.  A stationary
law has the loop's bytes where the loop stops within STATIONARY_STEPS
steps; a slow, periodic or sticky slice is within 1e-12 relative of the
long-double GTH law, in any stack order.  Delta_bar's groups
of laws hold no copy of the laws.
The joint encoding that `StateSpace` owns (s <= 4, m <= 3) equals the
loop encoding, and its tables and a model's arrays are read-only.
"""

import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import loop_reference as ref
from csdp import (
    CmcModel,
    LeakageParams,
    ModelError,
    SequenceDatabase,
    StateSpace,
    UtilitySpec,
    adp_leakage,
    aged_joint,
    aged_joint_grid,
    aged_joints,
    aged_tv_distance,
    aged_tvs,
    bounded_aged_correlation,
    bounded_aged_correlations,
    bounds,
    builtin_queries,
    exact_oracles,
    joint_kernel,
    joint_kernels,
    mse_simulated,
    oracle_leakage,
    release,
    release_values,
    sample_trajectory,
    single_chain_tvs,
    solve_p1,
    sweeps,
    tradeoff_frontier,
    two_user_model,
    utility,
)
from csdp import kernel as kernel_module
from csdp.acceptance import _half_line_cdf
from csdp.bounds import _transport_bounds, _value_laws
from csdp.kernel import _powers
from csdp.mechanism import noise_scale
from csdp.queries import QuerySpec
from csdp.rng import threshold_draws, threshold_table
from csdp.sweeps import EPS_GRID_DEFAULT, PRESETS, ExperimentConfig, run_sweep
from csdp.utility import LEAKAGE_KINDS, TIE_ATOL, TIE_RTOL

PROPERTY = settings(max_examples=30, deadline=None)


def random_model(seed: int, s: int, m: int, zero_weight: bool = False) -> CmcModel:
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2).copy()
    weights = rng.dirichlet(np.ones(s), size=s)
    if zero_weight and s > 1:
        weights[0, -1] = 0.0
        weights[0] /= weights[0].sum()
    return CmcModel(StateSpace(s, m), transitions, weights)


@st.composite
def models(draw):
    s = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    return random_model(draw(st.integers(0, 2**32 - 1)), s, m, draw(st.booleans()))


@st.composite
def models_and_ages(draw):
    model = draw(models())
    s = model.space.num_sequences
    if draw(st.booleans()):
        age = (draw(st.integers(0, 3)),) * s
    else:
        age = tuple(draw(st.lists(st.integers(0, 3), min_size=s, max_size=s)))
    return model, age


def assert_oracle_matches_loops(kernel, age, eps_c):
    """The oracle sums its densities in two log-domain passes over the
    query's values, the loop in one `logsumexp` per state and value, so the
    two agree to rounding only."""
    s = kernel.space.num_sequences
    for name, query in builtin_queries(kernel.space).items():
        params = LeakageParams(age, eps_c, s, query)
        got, want = oracle_leakage(kernel, params).estimate, ref.exact_oracle(kernel, params)
        assert math.isfinite(got), (name, eps_c, got)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, eps_c, got, want)


def assert_matches_loops(kernel, age, eps_c=0.7):
    s = kernel.space.num_sequences
    assert aged_tv_distance(kernel, age, s) == ref.aged_tv_distance(kernel, age, s)
    assert_oracle_matches_loops(kernel, age, eps_c)


def assert_mse_matches_loops(kernel, age, seed):
    """Every built-in query against its NumPy form, and a query that weighs
    each sequence differently, so that a wrong state order would show."""
    space = kernel.space
    cases = [(query, ref.NUMPY_EVALUATE[name]) for name, query in builtin_queries(space).items()]
    weighted = QuerySpec("weighted", space, evaluate=lambda x: float(x @ 3 ** np.arange(len(x))),
                         sensitivity=lambda i: 1.0)
    cases.append((weighted, weighted.evaluate))
    for query, evaluate in cases:
        args = (kernel, age, query, 0.3 + seed % 7, 200, seed)
        assert mse_simulated(*args) == ref.mse_simulated(*args, evaluate), query.name


def assert_stationary_matches_references(pi, K):
    """pi has the bits of the loop's power iteration where that stops within
    STATIONARY_STEPS steps, and is within 1e-12 relative of the long-double
    GTH law where it does not."""
    try:
        want = ref.joint_stationary(K, max_iter=kernel_module.STATIONARY_STEPS)
    except AssertionError:
        np.testing.assert_allclose(pi, ref.stationary_gth(K), rtol=1e-12, atol=0)
    else:
        assert pi.tobytes() == want.tobytes()


@PROPERTY
@given(models())
def test_joint_kernel_matches_loops(model):
    kern = joint_kernel(model)
    K = ref.joint_kernel_matrix(model)
    assert np.array_equal(kern.matrix, K)
    assert_stationary_matches_references(kern.stationary, K)
    np.testing.assert_allclose(kern.matrix.sum(axis=0), 1.0, atol=1e-12)


def assert_stack_matches_one_model_builds(models, ages):
    """`joint_kernels` and `aged_joint_grid` over the models equal, bit for
    bit, the loop kernel (which skips zero weights), its stationary law
    (see `assert_stationary_matches_references`), one
    `joint_kernel` per model, and its laws at `ages`, uniform ones also the
    law from `np.linalg.matrix_power`; mixed ones equal the loop law to
    1e-15."""
    kernels = joint_kernels(models)
    grid = aged_joint_grid(kernels, ages)
    assert len(kernels) == len(grid) == len(models)
    for model, kern, laws in zip(models, kernels, grid):
        K = ref.joint_kernel_matrix(model)
        alone = joint_kernel(model)
        assert kern.matrix.tobytes() == alone.matrix.tobytes() == K.tobytes()
        assert kern.stationary.tobytes() == alone.stationary.tobytes()
        assert_stationary_matches_references(kern.stationary, K)
        for age, law, one in zip(ages, laws, aged_joints(alone, ages)):
            assert law.joint.tobytes() == one.joint.tobytes(), age
            if len(set(age)) == 1:
                want = (np.linalg.matrix_power(K, age[0]) * kern.stationary).T
                assert law.joint.tobytes() == np.ascontiguousarray(want).tobytes(), age
            else:
                np.testing.assert_allclose(law.joint, ref.aged_joint(kern, age),
                                           rtol=0, atol=1e-15, err_msg=str(age))


def age_lists(s: int):
    """1-6 ages of s sequences, uniform and mixed alike, up to 9."""
    uniform = st.integers(0, 9).map(lambda t: (t,) * s)
    mixed = st.lists(st.integers(0, 9), min_size=s, max_size=s).map(tuple)
    return st.lists(st.one_of(uniform, mixed), min_size=1, max_size=6)


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1,
                max_size=8),
       st.sampled_from([0.05, 0.3, 0.5]), st.data())
def test_stacked_lambda_grid_matches_one_model_builds(lams, p, data):
    """A grid of two-user couplings, lambda 0 and 1 among them (a zero
    cross- or self-coupling weight, which the loop kernel skips), built as
    one stack."""
    ages = data.draw(age_lists(2))
    assert_stack_matches_one_model_builds([two_user_model(lam, p) for lam in lams], ages)


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 3),
       st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=5),
       st.data())
def test_stacked_models_match_one_model_builds(s, m, seeds, data):
    """Random models of one space, some with a zero coupling weight."""
    models = [random_model(seed, s, m, zero) for seed, zero in seeds]
    assert_stack_matches_one_model_builds(models, data.draw(age_lists(s)))


def three_state_chain(P) -> CmcModel:
    return CmcModel(StateSpace(1, 3), np.array(P, float)[None, None], np.ones((1, 1)))


# 0 -> {1, 2} -> 0: period 2
PERIODIC = [[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]
# eigenvalue about -0.997: aperiodic, but thousands of steps to converge
SLOW = [[0.001, 0.998, 0.998], [0.4995, 0.001, 0.001], [0.4995, 0.001, 0.001]]
FAST = [[0.5, 0.2, 0.3], [0.3, 0.6, 0.3], [0.2, 0.2, 0.4]]


def test_stack_keeps_fast_bits_and_solves_slow_and_periodic_slices():
    """In any stack order, a slice that stops within STATIONARY_STEPS keeps
    the bits of the plain loop, a slice still moving then is within 1e-12
    relative of the long-double GTH law, and a periodic slice gets its
    hand-solved law."""
    K = ref.joint_kernel_matrix(three_state_chain(SLOW))
    with pytest.raises(AssertionError):  # slow indeed
        ref.joint_stationary(K, max_iter=kernel_module.STATIONARY_STEPS)
    for stack in ([SLOW], [FAST, SLOW], [SLOW, FAST, SLOW], [PERIODIC], [FAST, PERIODIC],
                  [PERIODIC, FAST], [FAST, SLOW, PERIODIC], [SLOW, PERIODIC, FAST]):
        models = [three_state_chain(P) for P in stack]
        for P, model, kern in zip(stack, models, joint_kernels(models)):
            K = ref.joint_kernel_matrix(model)
            if P is FAST:
                assert kern.stationary.tobytes() == ref.joint_stationary(K).tobytes()
            else:
                np.testing.assert_allclose(kern.stationary, ref.stationary_gth(K),
                                           rtol=1e-12, atol=0)
            if P is PERIODIC:
                np.testing.assert_allclose(kern.stationary, [0.5, 0.25, 0.25], rtol=1e-15)


def sticky_model(s: int, p: float) -> CmcModel:
    """Every pair moves by [[1 - p, 3p], [p, 1 - 3p]], with self-weight 0.8:
    positive, but mixing at a rate of order p."""
    weights = np.full((s, s), 0.2 / (s - 1))
    np.fill_diagonal(weights, 0.8)
    P = [[1 - p, 3 * p], [p, 1 - 3 * p]]
    return CmcModel(StateSpace(s, 2), np.broadcast_to(P, (s, s, 2, 2)), weights)


@pytest.mark.parametrize("p", [1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("s", [2, 3, 5, 8])
def test_sticky_chains_match_the_long_double_reference(s, p):
    """A positive chain too slow for STATIONARY_STEPS steps is solved
    exactly, in well under a second at n <= 256, to 1e-12 relative of
    the long-double GTH law in every entry."""
    start = time.perf_counter()
    kern = joint_kernel(sticky_model(s, p))
    assert time.perf_counter() - start < 1.0
    np.testing.assert_allclose(kern.stationary, ref.stationary_gth(kern.matrix),
                               rtol=1e-12, atol=0)


def test_sticky_chain_on_1024_states_completes():
    """The exact solve is O(n^3): about 1 s at n = 1024, where the power
    iteration it replaces took 89 s on this chain."""
    start = time.perf_counter()
    kern = joint_kernel(sticky_model(10, 1e-5))
    assert time.perf_counter() - start < 10.0
    pi = kern.stationary
    assert pi.min() > 0 and pi.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(kern.matrix @ pi - pi).sum() < 1e-14


def test_stack_of_one_copies_no_kernel():
    """The stationary solve of a stack of one 1024-state kernel steps the
    kernel itself: its peak is a few n-vectors, not an n x n copy."""
    K = joint_kernel(random_model(0, 10, 2)).matrix
    pis, peak = traced_peak(lambda: kernel_module._joint_stationaries(K[None]))
    assert pis[0].tobytes() == ref.joint_stationary(K).tobytes()
    assert peak <= 64 * 1024 * 8, peak


def test_stacks_refuse_mixed_spaces():
    with pytest.raises(ModelError, match="one state space"):
        joint_kernels([two_user_model(0.5), three_state_chain(FAST)])


@pytest.mark.parametrize("s, m", [(s, m) for s in range(1, 5) for m in range(2, 5)])
def test_neighbour_pairs_and_costs_match_loops(s, m):
    states = list(itertools.product(range(m), repeat=s))
    assert StateSpace(s, m).neighbour_pairs.tolist() == [list(p) for p in ref.neighbour_pairs(states)]
    assert np.array_equal(ref.hamming_costs_from_digits(s, m), ref.hamming_costs(states))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.data())
def test_state_space_owns_the_encoding(s, m, data):
    """StateSpace's tables equal the loop encoding, are computed once per
    (s, m) and are read-only; a model keeps read-only copies of its arrays."""
    space = StateSpace(s, m)
    states = tuple(itertools.product(range(m), repeat=s))
    n = len(states)
    assert space.states == states
    assert [space.index(x) for x in space.states] == list(range(n))
    assert np.array_equal(space.digits @ space.place, np.arange(n))
    assert space.neighbour_pairs.tolist() == [list(p) for p in ref.neighbour_pairs(states)]
    coords = data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=s, unique=True))
    assert space.subset_code(coords).tolist() == ref.subset_code(states, coords, m)
    again = StateSpace(s, m)
    assert again.digits is space.digits and again.neighbour_pairs is space.neighbour_pairs
    assert again.states is space.states and again.place is space.place
    for table in (space.place, space.digits, space.neighbour_pairs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    with pytest.raises(TypeError):
        space.states[0] = states[0]

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    transitions = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2).copy()
    weights = rng.dirichlet(np.ones(s), size=s)
    model = CmcModel(space, transitions, weights)
    kept = model.transitions.copy(), model.weights.copy()
    transitions[...] = 0.0
    weights[...] = 0.0
    assert np.array_equal(model.transitions, kept[0]) and np.array_equal(model.weights, kept[1])
    for arr in (model.transitions, model.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


@PROPERTY
@given(models_and_ages(), st.sampled_from(EPS_GRID_DEFAULT))
def test_delta_k_and_oracle_match_loops(case, eps_c):
    model, age = case
    assert_matches_loops(joint_kernel(model), age, eps_c)


@pytest.mark.parametrize("i, eps_c", list(enumerate(EPS_GRID_DEFAULT)))
def test_oracle_matches_loops_on_eps_grid(i, eps_c):
    s, m = [(2, 2), (3, 2), (2, 3)][i % 3]
    kern = joint_kernel(random_model(i, s, m, zero_weight=i % 2 == 1))
    for age in [(1,) * s, tuple(range(s))]:
        assert_oracle_matches_loops(kern, age, eps_c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps_c", [300.0, 2000.0, 1e300])
@pytest.mark.parametrize("t", range(4))
def test_oracle_matches_loops_at_large_eps(eps_c, t):
    """At eps_c * range / sensitivity beyond ~745 the densities at the far
    values underflow in the linear domain; the log-domain passes keep them,
    with no warning."""
    two_user = joint_kernel(two_user_model(0.5))
    for kern in (two_user, joint_kernel(random_model(3, 3, 2))):
        assert_oracle_matches_loops(kern, (t,) * kern.space.num_sequences, eps_c)
    if t == 0:  # the noise alone protects the current snapshot
        params = LeakageParams((0, 0), eps_c, 2, builtin_queries(two_user.space)["mean"])
        assert oracle_leakage(two_user, params).estimate == pytest.approx(eps_c, rel=1e-12)


def assert_delta_bar_matches_dense(kernel, age):
    """The KR dual LP and the dense coupling LPs solve the same transport
    problems in different arithmetic, so they agree to rounding only."""
    got, want = bounded_aged_correlation(kernel, age), ref.bounded_aged_correlation(kernel, age)
    assert abs(got - want) <= 1e-12, (got, want)


@PROPERTY
@given(models_and_ages())
def test_delta_bar_matches_dense_lp(case):
    model, age = case
    kern = joint_kernel(model)
    assert_delta_bar_matches_dense(kern, age)


@st.composite
def models_and_age_lists(draw):
    """A model and 1-2 ages, mixed or uniform, plus age zero."""
    model = draw(models())
    s = model.space.num_sequences
    uniform = st.integers(0, 3).map(lambda t: (t,) * s)
    mixed = st.lists(st.integers(0, 3), min_size=s, max_size=s).map(tuple)
    ages = draw(st.lists(st.one_of(uniform, mixed), min_size=1, max_size=2))
    ages.insert(draw(st.integers(0, len(ages))), (0,) * s)
    return model, ages


# fewer examples than PROPERTY: each makes up to two dense reference LPs
# per neighbour pair, and test_delta_bar_matches_dense_lp covers single ages
@settings(max_examples=15, deadline=None)
@given(models_and_age_lists())
def test_batched_delta_bar_matches_dense_lp(case):
    """One call bounds the transport blocks of every age and gives each
    open one its own LP; each age still gets its own dense-LP value."""
    model, ages = case
    kern = joint_kernel(model)
    got = bounded_aged_correlations([aged_joint(kern, age) for age in ages])
    assert len(got) == len(ages)
    for age, value in zip(ages, got):
        want = 1.0 if not any(age) else ref.bounded_aged_correlation(kern, age)
        assert abs(value - want) <= 1e-12, (age, value, want)


def exchangeable_model(seed: int, s: int, m: int) -> CmcModel:
    """Every user the same Dirichlet(1) chain, every coupling row uniform."""
    P = np.random.default_rng(seed).dirichlet(np.ones(m), size=m).T
    return CmcModel(StateSpace(s, m), np.broadcast_to(P, (s, s, m, m)), np.full((s, s), 1.0 / s))


@st.composite
def small_models_and_ages(draw):
    """A random or exchangeable model with m^s <= 27 states, or 16 (s <= 4,
    m <= 3), and one age, mixed or uniform."""
    s, m = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]))
    seed = draw(st.integers(0, 2**32 - 1))
    model = (exchangeable_model(seed, s, m) if draw(st.booleans())
             else random_model(seed, s, m, draw(st.booleans())))
    uniform = st.integers(0, 3).map(lambda t: (t,) * s)
    mixed = st.lists(st.integers(0, 3), min_size=s, max_size=s).map(tuple)
    return model, draw(st.one_of(uniform, mixed))


# each example makes one dense reference LP per neighbour pair (up to 54)
@settings(max_examples=25, deadline=None)
@given(small_models_and_ages())
@example((exchangeable_model(7, 4, 2), (1, 1, 1, 1)))
@example((exchangeable_model(8, 3, 3), (2, 0, 1)))
@example((random_model(9, 4, 2), (3, 1, 0, 2)))
def test_transport_bounds_bracket_dense_lp(case):
    """lo <= W1 <= hi, up to n ulps of 1, for the backward conditionals of
    every neighbour pair: the split flow is a real flow, so its cost is
    never below the dense LP."""
    model, age = case
    kern = joint_kernel(model)
    s, m = model.space.num_sequences, model.space.num_states
    B = aged_joint(kern, age).conditional()
    pairs = ref.neighbour_pairs(kern.space.states)
    lo, hi = _transport_bounds(np.array([B[:, a] - B[:, b] for a, b in pairs]), kern.space)
    costs = ref.hamming_costs_from_digits(s, m)
    ulps = kern.space.product_size * np.finfo(float).eps
    for (a, b), low, high in zip(pairs, lo, hi):
        w1 = ref.transport_distance(B[:, a], B[:, b], costs)
        assert low <= w1 + ulps and w1 <= high + ulps, (a, b, low, w1, high)


def test_batched_delta_bar_with_equal_conditionals():
    """With uniform transition columns every age >= 1 leaves all backward
    conditionals equal (Delta_bar 0, no blocks) while age zero gives 1; a
    batch mixing those ages with a partly fresh one keeps each value."""
    kern = joint_kernel(CmcModel(StateSpace(2, 2), np.full((2, 2, 2, 2), 0.5),
                                 np.full((2, 2), 0.5)))
    ages = [(1, 1), (0, 0), (2, 1), (0, 3)]
    got = bounded_aged_correlations([aged_joint(kern, age) for age in ages])
    assert got[0] == got[2] == 0.0
    assert abs(got[1] - 1.0) <= 1e-12
    assert abs(got[3] - ref.bounded_aged_correlation(kern, (0, 3))) <= 1e-12
    assert got[3] > 0.5


def test_delta_bar_matches_dense_lp_six_users():
    kern = joint_kernel(random_model(0, 6, 2))
    age = (1,) * 6
    assert_delta_bar_matches_dense(kern, age)


def test_oracle_matches_loops_six_users():
    kern = joint_kernel(random_model(0, 6, 2))
    for age in [(1,) * 6, (0, 1, 2, 0, 1, 2)]:
        assert_oracle_matches_loops(kern, age, 0.7)


@PROPERTY
@given(models(), st.lists(st.integers(0, 24), max_size=25))
def test_single_chain_tvs_match_solo_models(model, ts):
    """Ages up to 24 take the shared squares K^8 and K^16 too."""
    assert single_chain_tvs(model, ts) == [ref.single_chain_tv(model, t) for t in ts]


@PROPERTY
@given(models(), st.permutations(range(65)))
def test_shared_square_powers_match_matrix_power(model, ts):
    """Every power from the shared squares, and the uniform-age law read
    off it, has the bytes of `np.linalg.matrix_power` and of the law formed
    from it, in any order of the ages."""
    kern = joint_kernel(model)
    K, pi = kern.matrix, kern.stationary
    s = model.space.num_sequences
    powers = _powers(K, ts)
    laws = aged_joints(kern, [(t,) * s for t in ts])
    for t, power, law in zip(ts, powers, laws):
        want = np.linalg.matrix_power(K, t)
        assert power.tobytes() == want.tobytes(), t
        assert law.joint.tobytes() == np.ascontiguousarray((want * pi[None, :]).T).tobytes(), t


@st.composite
def models_and_mixed_age_lists(draw):
    """A model and 1-6 ages, uniform and mixed alike, up to 10."""
    model = draw(models())
    s = model.space.num_sequences
    uniform = st.integers(0, 10).map(lambda t: (t,) * s)
    mixed = st.lists(st.integers(0, 10), min_size=s, max_size=s).map(tuple)
    return model, draw(st.lists(st.one_of(uniform, mixed), min_size=1, max_size=6))


@PROPERTY
@given(models_and_mixed_age_lists())
def test_stacked_delta_k_matches_loops(case):
    """Delta_k of a list of laws equals the loop form at each law's age, at
    the full degree s."""
    model, ages = case
    kern = joint_kernel(model)
    s = model.space.num_sequences
    assert aged_tvs(aged_joints(kern, ages)) == [ref.aged_tv_distance(kern, age, s)
                                                 for age in ages]


def traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


N1024 = 1024 * 1024 * 8  # bytes of one 1024-state n x n array


def test_stacked_delta_k_memory_is_the_loop_memory():
    """Over seven 1024-state laws, Delta_k of the list peaks at most one
    n x n array above one law at a time."""
    kern = joint_kernel(random_model(0, 10, 2))
    laws = aged_joints(kern, [(t,) * 10 for t in range(1, 8)])
    one_at_a_time, loop_peak = traced_peak(lambda: [aged_tvs([law])[0] for law in laws])
    stacked, stacked_peak = traced_peak(lambda: aged_tvs(laws))
    assert stacked == one_at_a_time
    assert stacked_peak <= loop_peak + N1024, (stacked_peak, loop_peak)


N256 = 256 * 256 * 8  # bytes of one 256-state n x n array


def test_delta_bar_memory_is_the_loop_memory():
    """Over seven 256-state laws at age 0, where every block settles without
    an LP, Delta_bar of the list peaks at most one n x n array above one
    law at a time: no law's neighbour-pair differences are held whole."""
    kern = joint_kernel(random_model(0, 8, 2))
    laws = aged_joints(kern, [(0,) * 8] * 7)
    one_at_a_time, loop_peak = traced_peak(
        lambda: [bounded_aged_correlations([law])[0] for law in laws])
    stacked, stacked_peak = traced_peak(lambda: bounded_aged_correlations(laws))
    assert stacked == one_at_a_time == [1.0] * 7
    assert stacked_peak <= loop_peak + N256, (stacked_peak, loop_peak)


def test_delta_bar_holds_one_lp_of_open_rows(monkeypatch):
    """On the exchangeable six-user model (n = 64) at age 1 the flow bound
    settles every block; slack -1 opens all 192 of a law's blocks, as on a
    model whose bounds settle none.  Sixteen copies of the law fill a group
    of `_pair_differences`, so its conditionals and chunks are at their budget;
    48 copies then raise the peak by at most 64 bytes per block (its bounds
    and indices), and by none of the 64-entry rows of the 6,144 blocks
    more: each open block's row is rebuilt from its law and solved by its
    own LP before the next.  The solver is a stub, given the same LPs as
    HiGHS, so the test takes about a second."""
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    s = 6
    kern = joint_kernel(CmcModel(StateSpace(s, 2), np.broadcast_to(P, (s, s, 2, 2)),
                                 np.full((s, s), 1.0 / s)))
    law = aged_joint(kern, (1,) * s)
    assert 2**16 // 64**2 == 16 and bounds._PAIR_ENTRIES == 2**16
    monkeypatch.setattr(bounds, "_SETTLE_SLACK", -1.0)
    solved = []

    def stub(c, **kwargs):
        solved.append(len(c))
        return OptimizeResult(success=True, x=np.zeros(len(c)))

    with mock.patch.object(bounds, "linprog", stub):
        _, full_group = traced_peak(lambda: bounded_aged_correlations([law] * 16))
        _, triple = traced_peak(lambda: bounded_aged_correlations([law] * 48))
    blocks = 48 * 192
    assert sum(solved) == (16 + 48) * 192 * 64  # every block went to an LP
    assert triple <= full_group + 64 * blocks, (triple, full_group)


def test_pair_differences_hold_no_copy_of_the_laws():
    """Delta_bar of one full group of `_pair_differences` (16 of the
    exchangeable 64-state laws, stub solver) peaks at most two budgets of
    `_PAIR_ENTRIES` entries above one law: the group's conditionals and one
    chunk's two temporaries.  A copy of the group's laws, divided into the
    conditionals afterwards, would add a third."""
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    s = 6
    kern = joint_kernel(CmcModel(StateSpace(s, 2), np.broadcast_to(P, (s, s, 2, 2)),
                                 np.full((s, s), 1.0 / s)))
    law = aged_joint(kern, (1,) * s)
    budget = bounds._PAIR_ENTRIES * 8

    def stub(c, **kwargs):
        return OptimizeResult(success=True, x=np.zeros(len(c)))

    with mock.patch.object(bounds, "linprog", stub):
        one_law, one_peak = traced_peak(lambda: bounded_aged_correlations([law]))
        group, group_peak = traced_peak(lambda: bounded_aged_correlations([law] * 16))
    assert group == one_law * 16
    assert group_peak <= one_peak + 2 * budget, (group_peak, one_peak)


def test_aged_law_memory_is_matrix_power_memory():
    """A 1024-state law peaks at most one n x n array above the same law
    formed from `np.linalg.matrix_power`, at any age, so the shared squares
    are not all held at once; a list of ten laws holds the ten and at most
    two n x n arrays more."""
    kern = joint_kernel(random_model(0, 10, 2))
    K, pi = kern.matrix, kern.stationary
    for t in (1, 3, 7, 100):
        law, peak = traced_peak(lambda: aged_joint(kern, (t,) * 10))
        want, want_peak = traced_peak(
            lambda: np.ascontiguousarray((np.linalg.matrix_power(K, t) * pi[None, :]).T))
        assert law.joint.tobytes() == want.tobytes(), t
        assert peak <= want_peak + N1024, (t, peak, want_peak)
    del law, want
    _, peak = traced_peak(lambda: aged_joints(kern, [(t,) * 10 for t in range(1, 11)]))
    assert peak <= 12 * N1024 + 2**20, peak


def test_eps_grid_oracle_matches_per_eps():
    """The oracle of one law over the default eps grid plus 300 and 2000
    equals one call per eps_c, bit for bit, at 4, 8 and 64 states."""
    eps_grid = list(EPS_GRID_DEFAULT) + [300.0, 2000.0]
    for kern in (joint_kernel(two_user_model(0.5)), joint_kernel(random_model(3, 3, 2)),
                 joint_kernel(random_model(4, 6, 2))):
        n = kern.space.product_size
        for t in range(4):
            law = aged_joint(kern, (t,) * kern.space.num_sequences)
            for query in builtin_queries(kern.space).values():
                want = [exact_oracles([law], query, [eps])[0][0] for eps in eps_grid]
                assert exact_oracles([law], query, eps_grid) == [want], (n, t, query.name)


@PROPERTY
@given(models())
def test_list_form_oracle_equals_one_law_calls(model):
    """The oracle of the laws at ages 0..8, in one call, equals one call per
    law bit for bit, for every built-in query over the default eps grid plus
    300 and 2000."""
    s = model.space.num_sequences
    laws = aged_joints(joint_kernel(model), [(t,) * s for t in range(9)])
    eps_grid = list(EPS_GRID_DEFAULT) + [300.0, 2000.0]
    for query in builtin_queries(model.space).values():
        got = exact_oracles(laws, query, eps_grid)
        assert got == [exact_oracles([law], query, eps_grid)[0] for law in laws], query.name


@st.composite
def oracle_laws(draw):
    """An aged law of a random model (s <= 3, m <= 3) at an age of 0..3.  A
    sparse model keeps, in each transition column, the stay and the cyclic
    step and drops each other entry by a coin; with every self-coupling
    weight positive its joint chain still reaches every state.  Age 0 gives
    the identity conditional."""
    model = draw(models())
    if draw(st.booleans()):
        P = model.transitions.copy()
        m = P.shape[-1]
        keep = np.eye(m, dtype=bool) | np.roll(np.eye(m, dtype=bool), 1, axis=0)
        coins = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(P.shape) < 0.5
        P[~(keep | coins)] = 0.0
        model = CmcModel(model.space, P / P.sum(axis=2, keepdims=True), model.weights)
    s = model.space.num_sequences
    return aged_joint(joint_kernel(model), (draw(st.integers(0, 3)),) * s)


@pytest.mark.filterwarnings("error")
@PROPERTY
@given(oracle_laws())
def test_exact_oracle_is_the_dense_grid_maximum(law):
    """The largest log-ratio of the output densities over neighbouring
    snapshots, on a 20,001-point grid spanning the query's range plus six
    noise scales and holding its values, equals the exact oracle to 1e-12:
    the supremum is attained at the query's values, and the densities are
    summed here in the linear domain, which the default eps grid keeps
    clear of underflow.  Neighbours differ in one user's state, so their
    largest log-ratio is the largest spread of log p along one user's axis
    of the joint states."""
    shape = (law.space.num_states,) * law.space.num_sequences + (-1,)
    for query in builtin_queries(law.space).values():
        ys, (G,) = _value_laws([law], query)
        exact = exact_oracles([law], query, EPS_GRID_DEFAULT)[0]
        for eps, want in zip(EPS_GRID_DEFAULT, exact):
            b = noise_scale(query, eps)
            grid = np.linspace(ys[0] - 6.0 * b, ys[-1] + 6.0 * b, 20001 - len(ys))
            grid = np.union1d(grid, ys)
            p = np.einsum("jx,jy->xy", G, np.exp(-np.abs(grid - ys[:, None]) / b))
            log_p = np.log(p).reshape(shape)  # one axis per user, then the grid
            dense = max(np.ptp(log_p, axis=j).max() for j in range(log_p.ndim - 1))
            assert abs(dense - want) <= 1e-12, (query.name, eps, dense, want)


@pytest.mark.filterwarnings("error")
@PROPERTY
@given(oracle_laws())
def test_exact_oracle_bounds_the_half_line_ratios(law):
    """Pr[M in S | x] <= e^eps Pr[M in S | x'] for every event S once the
    densities obey it, so the exact oracle is at least the largest log-ratio
    of the half-line probabilities Pr[M <= theta] and Pr[M > theta] on
    criterion 8's grid, less 1e-12; the survival side is mixed from the
    Laplace sf, not taken as 1 - F, so that it keeps its digits."""
    a, c = law.space.neighbour_pairs.T
    for query in builtin_queries(law.space).values():
        ys, (G,) = _value_laws([law], query)
        exact = exact_oracles([law], query, EPS_GRID_DEFAULT)[0]
        for eps, bound in zip(EPS_GRID_DEFAULT, exact):
            b = noise_scale(query, eps)
            thetas, F = _half_line_cdf(law, query, eps)
            u = (thetas[:, None] - ys) / b
            S = np.where(u < 0, 1.0 - 0.5 * np.exp(np.minimum(u, 0.0)),
                         0.5 * np.exp(-np.maximum(u, 0.0))) @ G
            for P in (np.log(F), np.log(S)):
                assert np.abs(P[:, a] - P[:, c]).max() <= bound + 1e-12, (query.name, eps)


@PROPERTY
@given(oracle_laws())
def test_one_row_chunks_keep_the_bits(law):
    """With `_PAIR_ENTRIES` at 1, `_pair_differences` yields one row per
    chunk and takes one law per group, so a law's Delta_bar blocks straddle
    chunks and its tau is taken across them; Delta_k and Delta_bar still
    equal the default budget's bit for bit."""
    laws = [law, law]
    want = [aged_tvs(laws), bounded_aged_correlations(laws)]
    with mock.patch.object(bounds, "_PAIR_ENTRIES", 1):
        assert [aged_tvs(laws), bounded_aged_correlations(laws)] == want


def counted(monkeypatch, module, names) -> dict:
    """{name: [args of each call]} of the named functions of `module`, which
    still run."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(*args, name=name, fn=getattr(module, name)):
            calls[name].append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_leakage_sweeps_make_one_call_per_layer(monkeypatch):
    """A leakage sweep is one pass over every (lambda, t): each preset makes
    one `single_chain_tvs` call, its lambdas' self-transition matrices being
    equal, and one `aged_tvs` and one `bounded_aged_correlations` call on the
    laws of all its lambdas; `oracle-validate` also makes one oracle call,
    with its 35 laws and its whole eps grid."""
    calls = counted(monkeypatch, sweeps, ("single_chain_tvs", "aged_tvs",
                                          "bounded_aged_correlations", "exact_oracles"))
    for preset in ("fig3a", "fig3b", "fig3c", "oracle-validate"):
        for args in calls.values():
            args.clear()
        config = PRESETS[preset]
        laws = len(config.grid("lambda")) * len(config.grid("t"))
        run_sweep(config)
        assert len(calls["single_chain_tvs"]) == 1
        assert [len(args[0]) for args in calls["aged_tvs"]] == [laws]
        assert [len(args[0]) for args in calls["bounded_aged_correlations"]] == [laws]
        oracles = [(len(args[0]), list(args[2])) for args in calls["exact_oracles"]]
        assert oracles == ([(35, [2.0, 5.0, 10.0])] if preset == "oracle-validate" else [])


def test_each_cell_reads_its_own_chain_tvs(monkeypatch):
    """With lambda 0.75's self-transition matrices unlike those of 0.25 and
    0.5, a sweep makes one single-chain call per set of matrices, and every
    row's adp is its own model's."""
    def model_for(config, lam):
        return two_user_model(lam, p=0.1 if lam == 0.75 else 0.3)

    monkeypatch.setattr(sweeps, "_model_for", model_for)
    calls = counted(monkeypatch, sweeps, ("single_chain_tvs",))
    config = ExperimentConfig("leakage-vs-age", {"lambda": [0.25, 0.5, 0.75], "t": [0, 1, 3],
                                                 "eps_c": [1.0, 2.0]})
    _, rows, _ = run_sweep(config)
    assert [model.transitions[0, 0, 0, 1] for model, _ in calls["single_chain_tvs"]] == [0.3, 0.1]
    for row in rows:
        tv = single_chain_tvs(model_for(config, row["lambda"]), [row["t"]])[0]
        assert row["adp"] == adp_leakage(tv, row["eps_c"]), (row["lambda"], row["t"])
    # the two sets of matrices do give different TVs
    assert len({row["adp"] for row in rows if row["t"] == 1 and row["eps_c"] == 1.0}) == 2


def test_utility_sweep_evaluates_the_query_once_per_lambda(monkeypatch):
    """Each lambda's cells share one evaluation of the query on the n joint
    states, for their aging terms and their simulations alike."""
    evaluated = []

    def queries(space):
        out = builtin_queries(space)
        mean = out["mean"]
        out["mean"] = replace(mean, evaluate=lambda x: evaluated.append(x) or mean.evaluate(x))
        return out

    monkeypatch.setattr(sweeps, "builtin_queries", queries)
    config = ExperimentConfig("utility-sweep", {"lambda": [0.25, 0.75], "age": [[0, 0], [3, 1]],
                                                "eps_c": [0.5, 2.0], "samples": 100})
    _, rows, _ = run_sweep(config)
    assert len(rows) == 8
    assert len(evaluated) == 2 * StateSpace(2, 2).product_size


@PROPERTY
@given(models_and_ages(), st.integers(0, 2**62))
def test_mse_simulated_matches_loops(case, seed):
    model, age = case
    assert_mse_matches_loops(joint_kernel(model), age, seed)


@st.composite
def models_and_long_ages(draw):
    """Lags up to 20, either uniform or fig4b-style (t, t//2, t, ...)."""
    model = draw(models())
    t = draw(st.integers(0, 20))
    halve = draw(st.booleans())
    return model, tuple(t // 2 if halve and j % 2 else t for j in range(model.space.num_sequences))


@PROPERTY
@given(models_and_long_ages(), st.integers(0, 2**62))
@example((two_user_model(0.5), (20, 10)), 1013)
@example((two_user_model(0.5), (20, 20)), 0)
def test_mse_simulated_matches_loops_long_lags(case, seed):
    model, age = case
    assert_mse_matches_loops(joint_kernel(model), age, seed)


@st.composite
def trajectory_starts(draw):
    """A model with a stationary, a joint-state tuple or an int start."""
    model = draw(models())
    n = model.space.product_size
    kind = draw(st.sampled_from(["stationary", "tuple", "int"]))
    if kind == "stationary":
        return model, "stationary"
    index = draw(st.integers(0, n - 1))
    return model, model.space.states[index] if kind == "tuple" else index


@PROPERTY
@given(trajectory_starts(), st.integers(1, 200), st.integers(0, 2**62))
def test_sample_trajectory_matches_loop(case, horizon, seed):
    model, initial = case
    kernel = joint_kernel(model)
    got = sample_trajectory(kernel, initial, horizon, seed)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, ref.sample_trajectory(kernel, initial, horizon, seed))


def test_sample_trajectory_matches_loop_at_release_size():
    """A (4,3) model and 20,000 steps, the size of a release database."""
    kernel = joint_kernel(random_model(3, 4, 3))
    for seed in (0, 2**62 - 1):
        np.testing.assert_array_equal(sample_trajectory(kernel, "stationary", 20_000, seed),
                                      ref.sample_trajectory(kernel, "stationary", 20_000, seed))


def edge_matrix(nstates: int) -> np.ndarray:
    """A column-stochastic matrix whose columns hold the step's edge cases.

    Column 0 puts all mass on the last state (its thresholds repeat 0),
    column 1 on the first (they repeat 1); with three or more states
    column 2 is a Dirichlet column whose cumsum rounds below the largest
    double under 1, so a uniform can lie above all its thresholds; with
    ten or more states column 3 is ten entries of 0.1, whose cumsum ends
    exactly on that double.  The other columns are Dirichlet draws with
    about 30% zero entries, which repeat thresholds.
    """
    top = np.nextafter(1.0, 0.0)
    rng = np.random.default_rng(nstates)
    cols = rng.dirichlet(np.ones(nstates), size=nstates)
    cols[:, :-1][rng.random((nstates, nstates - 1)) < 0.3] = 0.0
    cols /= cols.sum(axis=1, keepdims=True)
    cols[0] = np.eye(nstates)[-1]
    if nstates >= 2:
        cols[1] = np.eye(nstates)[0]
    if nstates >= 3:
        draws = rng.dirichlet(np.ones(nstates), size=256)
        cols[2] = draws[np.cumsum(draws, axis=1)[:, -1] < top][0]
    if nstates >= 10:
        cols[3] = [0.1] * 10 + [0.0] * (nstates - 10)
    return cols.T.copy()


@pytest.mark.parametrize("nstates", [3, 9, 27])
def test_next_states_matches_comparison_sum(nstates):
    """The lifted step against the comparison sum and clip on hand-picked
    uniforms: every threshold of every column, the doubles either side of
    it, 0 and the largest double under 1, each from every state."""
    K = edge_matrix(nstates)
    cum = np.cumsum(K, axis=0)
    top = np.nextafter(1.0, 0.0)
    assert cum[-1, 2] < top and np.sum(cum[:-1, 0] == 0.0) == nstates - 1
    if nstates >= 10:
        assert cum[-1, 3] == top and np.sum(cum[:-1, 3] == top) == nstates - 10
    us = np.concatenate([cum.ravel(), np.nextafter(cum, 0.0).ravel(),
                         np.nextafter(cum, 2.0).ravel(), [0.0, top]])
    us = np.unique(us[us < 1.0])
    cur = np.repeat(np.arange(nstates), len(us))
    u = np.tile(us, nstates)
    got = threshold_draws(threshold_table(K), cur, u)
    assert np.array_equal(got, ref.next_states(cum, cur, u))
    # the largest double under 1 lies above every threshold of column 2
    assert got.reshape(nstates, -1)[2, -1] == nstates - 1


@pytest.mark.parametrize("nstates", [1, 2, 4, 8, 16, 17, 32, 33, 64])
def test_threshold_draws_at_one_column_match_searchsorted(nstates):
    """Draws at one column, from the matrix's table or from the column's own
    (the simulated MSE's start states, criterion 8's snapshots), equal
    searchsorted on the column's cumsum, clipped, on every threshold, the
    doubles either side of it, 0 and the largest double under 1.  Tables up
    to 32 wide (n <= 32) count the cuts, wider ones lift; a single uniform
    (`sample_trajectory`'s start) lifts at any width."""
    K = edge_matrix(nstates)
    top = np.nextafter(1.0, 0.0)
    assert (threshold_table(K).shape[1] <= 32) == (nstates <= 32)
    for c in range(nstates):
        cum = np.cumsum(K[:, c])
        us = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0, top]])
        us = np.unique(us[us < 1.0])
        want = np.minimum(np.searchsorted(cum, us, side="right"), nstates - 1)
        for table, column in ((threshold_table(K[:, c]), 0), (threshold_table(K), c)):
            got = threshold_draws(table, column, us)
            assert got.dtype == np.intp and np.array_equal(got, want)
            if c < 4:
                assert [int(threshold_draws(table, column, u)) for u in us] == want.tolist()
    # zero-probability states repeat cuts: a uniform on a repeated cut passes all of them
    assert threshold_draws(threshold_table(K[:, 0]), 0, np.array([0.0])).tolist() == [nstates - 1]
    if nstates >= 3:  # a uniform above every cut draws the last state
        assert np.cumsum(K[:, 2])[-1] < top
        assert threshold_draws(threshold_table(K), 2, np.array([top])).tolist() == [nstates - 1]


def test_next_states_skips_a_zero_probability_state_at_a_tie():
    """A uniform equal to a threshold steps past it: with all of column 0's
    mass on state 2, u = 0.0 goes to state 2, never to the empty state 0."""
    K = np.array([[0.0, 0.5, 0.5], [0.0, 0.25, 0.5], [1.0, 0.25, 0.0]])
    cur, u = np.array([0]), np.array([0.0])
    assert threshold_draws(threshold_table(K), cur, u).tolist() == [2]
    assert ref.next_states(np.cumsum(K, axis=0), cur, u).tolist() == [2]


@st.composite
def p1_problems(draw):
    """A model, a spec whose age grid repeats ages and mixes scalar, uniform
    and mixed age vectors, and a few MSE caps."""
    model = draw(models())
    s = model.space.num_sequences
    age = st.one_of(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=s, max_size=s))
    ages = draw(st.lists(age, min_size=1, max_size=4))
    ages = draw(st.permutations(ages + draw(st.lists(st.sampled_from(ages), max_size=3))))
    spec = UtilitySpec(
        builtin_queries(model.space)["mean"], mse_cap=1.0,
        age_grid=tuple(ages),
        eps_grid=tuple(draw(st.lists(st.sampled_from((0.2, 0.5, 1.0, 2.0, 5.0)),
                                     min_size=1, max_size=3))),
        leakage_kind=draw(st.sampled_from(LEAKAGE_KINDS)),
    )
    return model, spec, draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=3))


def assert_solutions_match(got, want, rel):
    """(cap, solution) lists equal, leakage to `rel` and all else exactly."""
    assert [cap for cap, _ in got] == [cap for cap, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert (g.age, g.eps_c, g.mse, g.feasible) == (w.age, w.eps_c, w.mse, w.feasible)
        assert g.leakage == pytest.approx(w.leakage, rel=rel, abs=rel)


@PROPERTY
@given(p1_problems())
def test_p1_and_frontier_match_plain_scan(problem):
    """Every mechanism's frontier and `solve_p1` at each cap equal the
    scan's.  The package packs every age's Delta_bar into one call and the
    scan makes one call per grid point, which agree to rounding, so a tight
    CSDP leakage is compared to 1e-12; every other value is compared exactly."""
    model, spec, caps = problem
    want = ref.tradeoff_scan(model, spec, caps)
    got = tradeoff_frontier(model, spec, caps)
    assert list(got) == list(want)
    rel = {mech: 0.0 for mech in want}
    if spec.leakage_kind == "tight":
        rel["csdp"] = 1e-12
    for mech in want:
        assert_solutions_match(got[mech], want[mech], rel[mech])
    p1 = [(cap, solve_p1(model, replace(spec, mse_cap=cap))) for cap in caps]
    assert_solutions_match(p1, want["csdp"], rel["csdp"])


@pytest.mark.parametrize("preset", ["fig4c", "fig5"])
def test_one_pass_selection_matches_per_cap_scan_on_presets(preset):
    """Every mechanism's grid rows of the frontier presets, at their caps, a
    cap below every row's MSE and +inf."""
    config = PRESETS[preset]
    model = two_user_model(config.single("lambda"))
    caps = list(config.grid("caps")) + [1e-9, math.inf]
    spec = UtilitySpec(builtin_queries(model.space)["mean"], mse_cap=max(caps),
                       age_grid=tuple(config.grid("age")), eps_grid=tuple(config.grid("eps_c")),
                       leakage_kind=config.grid("leakage_kind"))
    grid_rows = utility._grid_rows(joint_kernel(model), model, spec, baselines=True)
    for mech, rows in grid_rows.items():
        got = utility._select(rows, caps)
        assert got == [ref.select_per_cap(rows, cap) for cap in caps], mech
        assert not got[-2].feasible and got[-1].feasible


@st.composite
def selection_rows(draw):
    """Grid rows whose leakages tie within TIE_RTOL or TIE_ATOL, or nearly
    do, over repeated ages and eps, with caps that admit none, some and
    all of them."""
    ages = draw(st.lists(st.sampled_from([(0, 0), (1, 1), (2, 1), (3, 3), (0, 2)]),
                         min_size=1, max_size=12))
    base = draw(st.sampled_from([0.0, 1e-16, 0.25, 1.0]))
    steps = st.integers(-3, 3)
    rows = []
    for age in ages:
        rel, absolute = draw(steps), draw(steps)
        leak = base * (1 + 0.6 * rel * TIE_RTOL) + 0.6 * absolute * TIE_ATOL
        rows.append((age, draw(st.sampled_from([0.5, 1.0, 2.0])), leak,
                     draw(st.sampled_from([0.1, 0.2, 0.2, 0.4, 0.8]))))
    caps = draw(st.lists(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.4, 1.0, math.inf]),
                         min_size=1, max_size=4))
    return rows, caps


@PROPERTY
@given(selection_rows())
def test_one_pass_selection_matches_per_cap_scan(case):
    rows, caps = case
    assert utility._select(rows, caps) == [ref.select_per_cap(rows, cap) for cap in caps]


@PROPERTY
@given(models_and_ages())
def test_aged_joint_matches_loops(case):
    """Every age agrees with the loop form to rounding: the package takes
    powers of K (`matrix_power`'s squares) where the loop steps."""
    model, age = case
    kern = joint_kernel(model)
    law = aged_joint(kern, age)
    want = ref.aged_joint(kern, age)
    np.testing.assert_allclose(law.joint, want, rtol=0, atol=1e-15)
    # C order on both paths, as the loop builds it, so that every sum over
    # J rounds the same way
    assert law.joint.flags.c_contiguous


@PROPERTY
@given(models_and_mixed_age_lists())
def test_law_alone_equals_law_in_a_list(case):
    """An age's law has the same bytes built alone or in a list, whatever
    lags, gaps and powers the list's other ages share with it."""
    model, ages = case
    kern = joint_kernel(model)
    for age, law in zip(ages, aged_joints(kern, ages)):
        assert law.joint.tobytes() == aged_joint(kern, age).joint.tobytes(), age


def test_mixed_age_cost_is_logarithmic_in_the_lag():
    """Two-user (10^7, 0) builds in well under 0.5 s: its two lag groups are
    joined by K^(10^7) from shared squares, not by 10^7 steps.  The current
    snapshot's law is stationary up to the power's rounding (about t ulps,
    as for the uniform age (10^7, 10^7)), and the age-0 sequence reads x's
    state."""
    kern = joint_kernel(two_user_model(0.5))
    start = time.perf_counter()
    law = aged_joint(kern, (10**7, 0))
    assert time.perf_counter() - start < 0.5
    np.testing.assert_allclose(law.totals, kern.stationary, rtol=0, atol=1e-9)
    np.testing.assert_allclose(law.totals, aged_joint(kern, (10**7,) * 2).totals, rtol=1e-14)
    digits = kern.space.digits
    assert not law.joint[digits[:, 1][:, None] != digits[:, 1][None, :]].any()


@PROPERTY
@given(models_and_ages())
def test_aged_joint_x_marginal_is_stationary(case):
    model, age = case
    kern = joint_kernel(model)
    np.testing.assert_allclose(aged_joint(kern, age).totals, kern.stationary,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("s, m", [(4, 2), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_models_match_loops(s, m, seed):
    model = random_model(seed, s, m, zero_weight=seed == 1)
    kern = joint_kernel(model)
    assert np.array_equal(kern.matrix, ref.joint_kernel_matrix(model))
    for age in [(1,) * s, (2,) * s, tuple(range(s))]:
        assert_matches_loops(kern, age)
    np.testing.assert_allclose(aged_joint(kern, tuple(range(s))).joint,
                               ref.aged_joint(kern, tuple(range(s))), rtol=0, atol=1e-15)
    age = (2,) * s
    assert_delta_bar_matches_dense(kern, age)
    for age in [(3,) * s, tuple(range(s))]:
        assert_mse_matches_loops(kern, age, seed)


def release_db() -> SequenceDatabase:
    """A 60-step database sampled from a random (4,3) model."""
    model = random_model(7, 4, 3)
    return SequenceDatabase(model.space, sample_trajectory(joint_kernel(model), "stationary", 60, 5))


def test_release_matches_loops():
    """release() equals the validate_ages + laplace_sample(...)[0] form with
    NumPy evaluates, value bits included, over random requests on a (4,3)
    database; requests whose ages reach before the record raise the same
    error in both."""
    db = release_db()
    queries = builtin_queries(db.space)
    names = sorted(queries)
    rng = np.random.default_rng(11)
    outcomes = []
    for _ in range(10**4):
        t = int(rng.integers(1, db.horizon + 1))
        age = rng.integers(0, 12, size=db.space.num_sequences)
        age = [tuple(age.tolist()), age.tolist(), age, int(age[0])][int(rng.integers(4))]
        query = queries[names[int(rng.integers(len(names)))]]
        eps = float(rng.uniform(0.05, 5.0))
        seed = int(rng.integers(2**62))
        try:
            got = release(db, t, age, query, eps, seed)
        except ModelError as err:
            with pytest.raises(ModelError) as expected:
                ref.release(db, t, age, query, eps, seed)
            assert str(err) == str(expected.value)
            outcomes.append("raised")
            continue
        want = ref.release(db, t, age, query, eps, seed)
        assert got == want
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        outcomes.append(query.name)
    assert set(outcomes) == set(names) | {"raised"}


@PROPERTY
@given(st.integers(1, 60), st.lists(st.integers(0, 11), min_size=4, max_size=4),
       st.sampled_from(["max", "mean", "min", "sum"]), st.floats(0.05, 5.0),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30))
@example(60, [0, 1, 2, 3], "mean", 1.0, [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_release_values_match_release(t, age, name, eps, seeds):
    """release_values() gives, for each seed, the value of the per-seed
    reference release bit for bit, or raises the same error."""
    db = release_db()
    query = builtin_queries(db.space)[name]
    try:
        got = release_values(db, t, age, query, eps, seeds)
    except ModelError as err:
        with pytest.raises(ModelError) as expected:
            ref.release(db, t, age, query, eps, seeds[0])
        assert str(err) == str(expected.value)
        return
    want = np.array([ref.release(db, t, age, query, eps, seed).value for seed in seeds])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "s, m", [(s, m) for s in range(1, 11) for m in (2, 3, 4) if m**s <= 1024])
def test_builtin_evaluate_matches_numpy(s, m):
    rows = StateSpace(s, m).digits
    for name, query in builtin_queries(StateSpace(s, m)).items():
        numpy_evaluate = ref.NUMPY_EVALUATE[name]
        for row in rows:
            want = numpy_evaluate(row)
            for x in (tuple(row.tolist()), row):
                got = query.evaluate(x)
                assert type(got) is float
                assert got == want, (name, x)
