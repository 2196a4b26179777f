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
bounds that settle most Delta_bar blocks must bracket the dense LP, and the
flow bound must not exceed the collapse onto state 0 it replaced.  The aged
joint law is held in C order; at a uniform age it squares K where the loop
steps, so there the two agree to 1e-15.  The powers of a list of uniform
ages, read off one shared set of squares, have `np.linalg.matrix_power`'s
bytes; Delta_k of a list of laws equals the loop at each law's age and,
over seven 1024-state laws, peaks no higher than one law at a time plus
one n x n array; the oracle over an eps grid equals one call per eps_c,
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
recomputes every grid point, on grids with repeated and mixed ages.
The joint encoding that `StateSpace` owns (s <= 4, m <= 3) equals the
loop encoding, and its tables and a model's arrays are read-only.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    aged_joints,
    aged_tv_distance,
    aged_tvs,
    bounded_aged_correlation,
    bounded_aged_correlations,
    builtin_queries,
    exact_oracles,
    joint_kernel,
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
)
from csdp.acceptance import _half_line_cdf
from csdp.bounds import _transport_bounds, _value_laws
from csdp.kernel import _powers
from csdp.mechanism import noise_scale
from csdp.queries import QuerySpec
from csdp.rng import threshold_draws, threshold_table
from csdp.sweeps import EPS_GRID_DEFAULT, PRESETS, ExperimentConfig, run_sweep
from csdp.utility import LEAKAGE_KINDS

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
    for degree in range(1, s + 1):
        assert aged_tv_distance(kernel, age, degree) == ref.aged_tv_distance(kernel, age, degree)
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


@PROPERTY
@given(models())
def test_joint_kernel_matches_loops(model):
    kern = joint_kernel(model)
    K = ref.joint_kernel_matrix(model)
    assert np.array_equal(kern.matrix, K)
    assert np.array_equal(kern.stationary, ref.joint_stationary(K))
    np.testing.assert_allclose(kern.matrix.sum(axis=0), 1.0, atol=1e-12)


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
    """One call packs the transport blocks of every age into shared LPs;
    each age still gets its own dense-LP value."""
    model, ages = case
    kern = joint_kernel(model)
    got = bounded_aged_correlations([aged_joint(kern, age) for age in ages])
    assert len(got) == len(ages)
    for age, value in zip(ages, got):
        want = 1.0 if not any(age) else ref.bounded_aged_correlation(kern, age)
        assert abs(value - want) <= 1e-12, (age, value, want)


@st.composite
def small_models_and_ages(draw):
    """A model with m^s <= 27 states (s <= 4, m <= 3) and one age, mixed or
    uniform."""
    s, m = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]))
    model = random_model(draw(st.integers(0, 2**32 - 1)), s, m, draw(st.booleans()))
    uniform = st.integers(0, 3).map(lambda t: (t,) * s)
    mixed = st.lists(st.integers(0, 3), min_size=s, max_size=s).map(tuple)
    return model, draw(st.one_of(uniform, mixed))


# each example makes one dense reference LP per neighbour pair (up to 54)
@settings(max_examples=15, deadline=None)
@given(small_models_and_ages())
def test_transport_bounds_bracket_dense_lp(case):
    """lo <= W1 <= hi for the backward conditionals of every neighbour pair."""
    model, age = case
    kern = joint_kernel(model)
    s, m = model.space.num_sequences, model.space.num_states
    B = aged_joint(kern, age).conditional()
    pairs = ref.neighbour_pairs(kern.space.states)
    lo, hi = _transport_bounds(np.array([B[:, a] - B[:, b] for a, b in pairs]), kern.space)
    costs = ref.hamming_costs_from_digits(s, m)
    for (a, b), low, high in zip(pairs, lo, hi):
        w1 = ref.transport_distance(B[:, a], B[:, b], costs)
        assert low <= w1 + 1e-12 and w1 <= high + 1e-12, (a, b, low, w1, high)


@PROPERTY
@given(small_models_and_ages())
def test_cheapest_target_never_above_state_zero_collapse(case):
    """Row by row, the flow bound is at most the collapse onto state 0 (to
    1e-15 relative: the two sum their lines in different orders)."""
    model, age = case
    kern = joint_kernel(model)
    B = aged_joint(kern, age).conditional()
    pairs = kern.space.neighbour_pairs
    D = (B[:, pairs[:, 0]] - B[:, pairs[:, 1]]).T
    hi = _transport_bounds(D, kern.space)[1]
    state_zero = ref.state_zero_flow_cost(D, kern.space)
    assert np.all(hi <= state_zero * (1 + 1e-15)), (hi - state_zero).max()


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
    every degree."""
    model, ages = case
    kern = joint_kernel(model)
    laws = aged_joints(kern, ages)
    for degree in range(1, model.space.num_sequences + 1):
        assert aged_tvs(laws, degree) == [ref.aged_tv_distance(kern, age, degree)
                                          for age in ages], degree


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
    one_at_a_time, loop_peak = traced_peak(lambda: [aged_tvs([law], 10)[0] for law in laws])
    stacked, stacked_peak = traced_peak(lambda: aged_tvs(laws, 10))
    assert stacked == one_at_a_time
    assert stacked_peak <= loop_peak + N1024, (stacked_peak, loop_peak)


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
    column 1 on the first (they repeat 1); column 2 is a Dirichlet column whose
    cumsum rounds below the largest double under 1, so a uniform can lie
    above all its thresholds; with ten or more states column 3 is ten
    entries of 0.1, whose cumsum ends exactly on that double.  The other
    columns are Dirichlet draws with about 30% zero entries, which repeat
    thresholds.
    """
    top = np.nextafter(1.0, 0.0)
    rng = np.random.default_rng(nstates)
    cols = rng.dirichlet(np.ones(nstates), size=nstates)
    cols[:, :-1][rng.random((nstates, nstates - 1)) < 0.3] = 0.0
    cols /= cols.sum(axis=1, keepdims=True)
    cols[0], cols[1] = np.eye(nstates)[-1], np.eye(nstates)[0]
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


@pytest.mark.parametrize("nstates", [3, 9, 27])
def test_threshold_draws_at_one_column_match_searchsorted(nstates):
    """Draws at one column, from the matrix's table or from the column's own
    (the simulated MSE's start states, criterion 8's snapshots), equal
    searchsorted on the column's cumsum, clipped, on every threshold and the
    doubles either side of it."""
    K = edge_matrix(nstates)
    for c in range(nstates):
        cum = np.cumsum(K[:, c])
        us = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                             [0.0, np.nextafter(1.0, 0.0)]])
        us = np.unique(us[us < 1.0])
        want = np.minimum(np.searchsorted(cum, us, side="right"), nstates - 1)
        assert np.array_equal(threshold_draws(threshold_table(K[:, c]), 0, us), want)
        assert np.array_equal(threshold_draws(threshold_table(K), c, us), want)
    one_state = threshold_table(np.array([1.0]))
    assert threshold_draws(one_state, 0, np.array([0.0, 0.5])).tolist() == [0, 0]


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


@PROPERTY
@given(models_and_ages())
def test_aged_joint_matches_loops(case):
    """Mixed ages equal the loop form bit for bit.  A uniform age squares K
    (`matrix_power`) where the loop steps, so the two agree to rounding."""
    model, age = case
    kern = joint_kernel(model)
    law = aged_joint(kern, age)
    want = ref.aged_joint(kern, age)
    if len(set(age)) > 1:
        assert np.array_equal(law.joint, want)
    else:
        np.testing.assert_allclose(law.joint, want, rtol=0, atol=1e-15)
    # C order on both paths, as the loop builds it, so that every sum over
    # J rounds the same way
    assert law.joint.flags.c_contiguous


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
    assert np.array_equal(aged_joint(kern, tuple(range(s))).joint,
                          ref.aged_joint(kern, tuple(range(s))))
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
