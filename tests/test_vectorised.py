"""The vectorised product-space routines equal their loop forms bit for bit.

Each property builds a random valid coupled model (s <= 3 sequences,
m <= 3 states, Dirichlet transition columns and coupling rows, sometimes
with a zero coupling weight) and compares the package against the loop
references in `loop_reference.py` with exact equality; Delta_bar, whose
LP changed form, is compared with the dense coupling LP to 1e-12, and the
exact oracle, whose sums are one matrix product, with the per-state
`logsumexp` loop to 1e-12 * max(1, |value|).  The closed-form transport
bounds that settle most Delta_bar blocks must bracket the dense LP.  One more
property checks that the current-snapshot marginal of the aged joint law is
the stationary law.  The release path, the simulated MSE and the built-in
query evaluates are compared with their per-sample NumPy forms the same way,
the simulated MSE also at lags up to 20, and its chain step with the
comparison sum it replaced on hand-picked uniforms at every threshold.
The P1 solver and the four-mechanism frontier equal a plain scan that
recomputes every grid point, on grids with repeated and mixed ages.
"""

import itertools
import math
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
    aged_joint,
    aged_tv_distance,
    backward_conditional,
    bounded_aged_correlation,
    bounded_aged_correlations,
    builtin_queries,
    joint_kernel,
    mse_simulated,
    oracle_leakage,
    release,
    release_values,
    sample_trajectory,
    single_chain_tv,
    solve_p1,
    tradeoff_frontier,
    two_user_model,
)
from csdp.bounds import _neighbour_pairs, _transport_bounds
from csdp.kernel import _digits
from csdp.queries import QuerySpec
from csdp.sweeps import EPS_GRID_DEFAULT
from csdp.utility import LEAKAGE_KINDS, _next_states, _threshold_table

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
    """The oracle's mixtures are one row-scaled matrix product, the loop's
    one `logsumexp` per state, so the two agree to rounding only."""
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
    assert _neighbour_pairs(s, m).tolist() == [list(p) for p in ref.neighbour_pairs(states)]
    assert np.array_equal(ref.hamming_costs_from_digits(s, m), ref.hamming_costs(states))


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


@pytest.mark.parametrize("eps_c", [300.0, 2000.0])
@pytest.mark.parametrize("t", range(4))
def test_oracle_matches_loops_at_large_eps(eps_c, t):
    """At eps_c * range / sensitivity beyond ~745 the row-scaled product
    underflows in some columns; those must be summed in the log domain."""
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
    got = bounded_aged_correlations(kern, ages)
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
    B = backward_conditional(kern, age)
    pairs = ref.neighbour_pairs(kern.states)
    lo, hi = _transport_bounds(np.array([B[:, a] - B[:, b] for a, b in pairs]), s, m)
    costs = ref.hamming_costs_from_digits(s, m)
    for (a, b), low, high in zip(pairs, lo, hi):
        w1 = ref.transport_distance(B[:, a], B[:, b], costs)
        assert low <= w1 + 1e-12 and w1 <= high + 1e-12, (a, b, low, w1, high)


def test_batched_delta_bar_with_equal_conditionals():
    """With uniform transition columns every age >= 1 leaves all backward
    conditionals equal (Delta_bar 0, no blocks) while age zero gives 1; a
    batch mixing those ages with a partly fresh one keeps each value."""
    kern = joint_kernel(CmcModel(StateSpace(2, 2), np.full((2, 2, 2, 2), 0.5),
                                 np.full((2, 2), 0.5)))
    ages = [(1, 1), (0, 0), (2, 1), (0, 3)]
    got = bounded_aged_correlations(kern, ages)
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
@given(models(), st.integers(0, 6))
def test_single_chain_tv_matches_solo_models(model, t):
    assert single_chain_tv(model, t) == ref.single_chain_tv(model, t)


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
    got = _next_states(_threshold_table(K), cur, u)
    assert np.array_equal(got, ref.next_states(cum, cur, u))
    # the largest double under 1 lies above every threshold of column 2
    assert got.reshape(nstates, -1)[2, -1] == nstates - 1


def test_next_states_skips_a_zero_probability_state_at_a_tie():
    """A uniform equal to a threshold steps past it: with all of column 0's
    mass on state 2, u = 0.0 goes to state 2, never to the empty state 0."""
    K = np.array([[0.0, 0.5, 0.5], [0.0, 0.25, 0.5], [1.0, 0.25, 0.0]])
    cur, u = np.array([0]), np.array([0.0])
    assert _next_states(_threshold_table(K), cur, u).tolist() == [2]
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


@st.composite
def models_and_mixed_ages(draw):
    s = draw(st.integers(2, 3))
    model = random_model(draw(st.integers(0, 2**32 - 1)), s, draw(st.integers(2, 3)),
                         draw(st.booleans()))
    ages = st.lists(st.integers(0, 4), min_size=s, max_size=s)
    return model, tuple(draw(ages.filter(lambda a: len(set(a)) > 1)))


@PROPERTY
@given(models_and_mixed_ages())
def test_aged_joint_matches_loops(case):
    model, age = case
    kern = joint_kernel(model)
    J = aged_joint(kern, age)
    assert np.array_equal(J, ref.aged_joint(kern, age))
    # C order, as the loop builds it, so that sums over J round the same way
    assert J.flags.c_contiguous


@PROPERTY
@given(models_and_ages())
def test_aged_joint_x_marginal_is_stationary(case):
    model, age = case
    kern = joint_kernel(model)
    np.testing.assert_allclose(aged_joint(kern, age).sum(axis=0), kern.stationary,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("s, m", [(4, 2), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_models_match_loops(s, m, seed):
    model = random_model(seed, s, m, zero_weight=seed == 1)
    kern = joint_kernel(model)
    assert np.array_equal(kern.matrix, ref.joint_kernel_matrix(model))
    for age in [(1,) * s, (2,) * s, tuple(range(s))]:
        assert_matches_loops(kern, age)
    assert np.array_equal(aged_joint(kern, tuple(range(s))), ref.aged_joint(kern, tuple(range(s))))
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
    rows = _digits(s, m)
    for name, query in builtin_queries(StateSpace(s, m)).items():
        numpy_evaluate = ref.NUMPY_EVALUATE[name]
        for row in rows:
            want = numpy_evaluate(row)
            for x in (tuple(row.tolist()), row):
                got = query.evaluate(x)
                assert type(got) is float
                assert got == want, (name, x)
