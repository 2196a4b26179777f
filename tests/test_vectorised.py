"""The vectorised product-space routines equal their loop forms bit for bit.

Each property builds a random valid coupled model (s <= 3 sequences,
m <= 3 states, Dirichlet transition columns and coupling rows, sometimes
with a zero coupling weight) and compares the package against the loop
references in `loop_reference.py` with exact equality.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from csdp import (
    CmcModel,
    LeakageParams,
    StateSpace,
    aged_tv_distance,
    backward_conditional,
    bounded_aged_correlation,
    builtin_queries,
    joint_kernel,
    oracle_leakage,
)
from csdp.bounds import _hamming_costs, _neighbour_pairs, _transport_distance

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


def bounded_aged_correlation_loops(kernel, age) -> float:
    B = backward_conditional(kernel, age)
    costs = ref.hamming_costs(kernel.states)
    best = 0.0
    for ai, bi in ref.neighbour_pairs(kernel.states):
        best = max(best, _transport_distance(B[:, ai], B[:, bi], costs))
    return best


def assert_matches_loops(kernel, age):
    s = kernel.space.num_sequences
    for degree in range(1, s + 1):
        assert aged_tv_distance(kernel, age, degree) == ref.aged_tv_distance(kernel, age, degree)
    params = LeakageParams(age, 0.7, s, builtin_queries(kernel.space)["mean"])
    assert oracle_leakage(kernel, params).estimate == ref.exact_oracle(kernel, params)


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
    assert np.array_equal(_hamming_costs(s, m), ref.hamming_costs(states))


@PROPERTY
@given(models_and_ages())
def test_delta_k_and_oracle_match_loops(case):
    model, age = case
    assert_matches_loops(joint_kernel(model), age)


@pytest.mark.parametrize("s, m", [(4, 2), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_models_match_loops(s, m, seed):
    model = random_model(seed, s, m, zero_weight=seed == 1)
    kern = joint_kernel(model)
    assert np.array_equal(kern.matrix, ref.joint_kernel_matrix(model))
    for age in [(1,) * s, (2,) * s, tuple(range(s))]:
        assert_matches_loops(kern, age)
    age = (2,) * s
    assert bounded_aged_correlation(kern, age) == bounded_aged_correlation_loops(kern, age)
