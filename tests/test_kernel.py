import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdp import (
    CmcModel,
    JointKernel,
    LeakageParams,
    ModelError,
    StateSpace,
    aged_joint,
    aged_tv_distance,
    aged_tvs,
    bounded_aged_correlation,
    bounded_aged_correlations,
    builtin_queries,
    joint_kernel,
    mse_exact,
    oracle_leakage,
    sample_trajectory,
    two_user_model,
)
from csdp import kernel as kernel_module
from csdp.kernel import validate_ages
from csdp.model import DEFAULT_ENUMERATION_CAP
from csdp.rng import generator
from loop_reference import evolve_distribution

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def single_chain(P):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


def kernel_marginals(kernel, blocks: np.ndarray) -> np.ndarray:
    """One joint step from a product distribution, marginalized per sequence."""
    s, m = kernel.space.num_sequences, kernel.space.num_states
    joint = np.ones(len(kernel.space.states))
    for idx, state in enumerate(kernel.space.states):
        for j in range(s):
            joint[idx] *= blocks[j][state[j]]
    nxt = kernel.matrix @ joint
    out = np.zeros((s, m))
    for idx, state in enumerate(kernel.space.states):
        for j in range(s):
            out[j, state[j]] += nxt[idx]
    return out


class TestJointKernel:
    def test_single_sequence_equals_p(self):
        kern = joint_kernel(single_chain(FLIP))
        np.testing.assert_allclose(kern.matrix, FLIP)

    def test_benchmark_column_from_00(self):
        kern = joint_kernel(two_user_model(0.75))
        col = kern.matrix[:, kern.space.index((0, 0))]
        # both sequences draw 0.7/0.3 mixtures from source state 0
        np.testing.assert_allclose(col, [0.49, 0.21, 0.21, 0.09])

    def test_columns_stochastic(self):
        kern = joint_kernel(two_user_model(0.3))
        np.testing.assert_allclose(kern.matrix.sum(axis=0), np.ones(4), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10**6))
    def test_columns_stochastic_random_models(self, s, m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        trans = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2)
        model = CmcModel(StateSpace(s, m), trans, rng.dirichlet(np.ones(s), size=s))
        kern = joint_kernel(model)
        np.testing.assert_allclose(kern.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert kern.matrix.min() >= 0

    def test_identity_fixed_point(self, monkeypatch):
        # identity transitions with identity coupling leave every product law
        # in place; every joint state is then a closed class of its own, so
        # the kernel is refused for want of a unique stationary law, and its
        # matrix is read with that solve stubbed out
        model = CmcModel(
            StateSpace(2, 2),
            np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy(),
            np.eye(2),
        )
        with pytest.raises(ModelError, match="has 4 closed classes"):
            joint_kernel(model)
        monkeypatch.setattr(kernel_module, "_joint_stationaries", lambda K: K[:, 0])
        blocks = np.array([[0.2, 0.8], [0.6, 0.4]])
        np.testing.assert_allclose(kernel_marginals(joint_kernel(model), blocks), blocks,
                                   atol=1e-12)

    def test_benchmark_one_step_by_hand(self):
        # sequence 0 starts in state 0 and sequence 1 in state 1; each moves
        # by FLIP from its own state with weight 0.75, from the other's with 0.25
        out = kernel_marginals(joint_kernel(two_user_model(0.75)),
                               np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.4], [0.4, 0.6]], atol=1e-12)

    def test_uniform_weights_equal_marginals(self):
        # with coupling weights 1/2 each sequence's next marginal is the same
        # mixture, however different the starting blocks are
        out = kernel_marginals(joint_kernel(two_user_model(0.5)),
                               np.array([[0.3, 0.7], [0.9, 0.1]]))
        expected = 0.5 * FLIP @ [0.3, 0.7] + 0.5 * FLIP @ [0.9, 0.1]
        np.testing.assert_allclose(out, [expected, expected], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 10**6))
    def test_marginal_consistency(self, s, m, seed):
        # one joint step from a product law has the marginals that the
        # per-sequence evolution gives
        rng = np.random.Generator(np.random.Philox(seed))
        trans = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2)
        model = CmcModel(StateSpace(s, m), trans, rng.dirichlet(np.ones(s), size=s))
        blocks = rng.dirichlet(np.ones(m), size=s)
        evolved = evolve_distribution(model, blocks)
        np.testing.assert_allclose(kernel_marginals(joint_kernel(model), blocks), evolved,
                                   atol=1e-12)
        np.testing.assert_allclose(evolved.sum(axis=1), 1.0, atol=1e-12)

    def test_cap_refusal(self):
        with pytest.raises(ModelError, match="cap"):
            joint_kernel(two_user_model(0.5), cap=3)

    def test_default_cap_refuses_by_memory(self):
        # 2^14 joint states: the dense kernel would need 2 GiB, so it is
        # refused before anything is allocated
        model = CmcModel(
            StateSpace(14, 2),
            np.broadcast_to(FLIP, (14, 14, 2, 2)),
            np.full((14, 14), 1 / 14),
        )
        assert 2**14 > DEFAULT_ENUMERATION_CAP
        with pytest.raises(ModelError, match=f"cap {DEFAULT_ENUMERATION_CAP}.* {2**31} bytes"):
            joint_kernel(model)

    def test_periodic_chain_is_solved_fast(self):
        # period-2 chain: power iteration from uniform oscillates forever, so
        # its zero entries send it to the exact solve
        P = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        start = time.perf_counter()
        pi = joint_kernel(single_chain(P)).stationary
        assert time.perf_counter() - start < 1.0
        np.testing.assert_allclose(pi, [0.5, 0.25, 0.25], rtol=1e-14)


class TestBackwardConditional:
    def test_age_zero_identity(self):
        kern = joint_kernel(two_user_model(0.75))
        B = aged_joint(kern, (0, 0)).conditional()
        np.testing.assert_allclose(B, np.eye(4), atol=1e-12)

    def test_single_chain_age_one(self):
        kern = joint_kernel(single_chain(FLIP))
        B = aged_joint(kern, (1,)).conditional()
        # symmetric chain: backward equals forward
        assert B[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_single_chain_age_t_eigenvalue_form(self):
        kern = joint_kernel(single_chain(FLIP))
        for t in range(6):
            B = aged_joint(kern, (t,)).conditional()
            assert B[0, 0] == pytest.approx((1 + 0.4**t) / 2, abs=1e-9)

    def test_columns_are_distributions(self):
        kern = joint_kernel(two_user_model(0.4))
        for age in ((3, 3), (2, 5), (0, 4)):
            B = aged_joint(kern, age).conditional()
            np.testing.assert_allclose(B.sum(axis=0), np.ones(4), atol=1e-9)
            assert B.min() >= -1e-15

    # chain where state 1 is never entered: stationary mass is all on 0
    NEVER_ENTERED = CmcModel(StateSpace(1, 2), np.array([[[[1.0, 1.0], [0.0, 0.0]]]]),
                             np.ones((1, 1)))

    def test_zero_probability_state_named(self):
        kern = joint_kernel(self.NEVER_ENTERED)
        with pytest.raises(ModelError, match=r"\(1,\)"):
            aged_joint(kern, (1,)).conditional()

    # two users, each absorbed in state 0: (0, 0) is the one closed class
    ABSORBING = CmcModel(StateSpace(2, 2),
                         np.broadcast_to([[1.0, 0.5], [0.0, 0.5]], (2, 2, 2, 2)), np.eye(2))

    @pytest.mark.parametrize("model, dead", [(NEVER_ENTERED, "(1,)"), (ABSORBING, "(0, 1)")],
                             ids=["never-entered", "absorbing"])
    def test_zero_probability_state_refused_by_every_conditioning_consumer(self, model, dead):
        """Delta_k at degree s, Delta_bar, the oracle and the backward
        conditional condition on the current state and refuse it by name,
        in their one-law and list forms; the MSE does not condition.  The
        stationary law is exactly 0 off the closed class."""
        kern = joint_kernel(model)
        s = kern.space.num_sequences
        assert kern.stationary.tolist() == [1.0] + [0.0] * (len(kern.stationary) - 1)
        query = builtin_queries(kern.space)["mean"]
        age = (1,) * s
        law = aged_joint(kern, age)
        for consume in (lambda: aged_tv_distance(kern, age, s),
                        lambda: aged_tvs([law]),
                        lambda: bounded_aged_correlation(kern, age),
                        lambda: bounded_aged_correlations([law]),
                        lambda: oracle_leakage(kern, LeakageParams(age, 1.0, s, query)),
                        law.conditional):
            with pytest.raises(ModelError, match=re.escape(f"cannot condition on state {dead}: "
                                                           "zero probability")):
                consume()
        assert np.isfinite(mse_exact(kern, age, query, 1.0))


class TestAgedJoint:
    def test_uniform_age_matches_matrix_power(self):
        kern = joint_kernel(two_user_model(0.75))
        J = aged_joint(kern, (2, 2)).joint
        K2 = kern.matrix @ kern.matrix
        np.testing.assert_allclose(J, (K2 * kern.stationary[None, :]).T, atol=1e-14)

    def test_heterogeneous_age_matches_path_enumeration(self):
        kern = joint_kernel(two_user_model(0.6))
        ages = (2, 1)
        J = aged_joint(kern, ages).joint
        # brute force: sum over trajectories (w0, w1, w2); z = (w0[0], w1[1])
        n = 4
        expected = np.zeros((n, n))
        for w0, w1, w2 in itertools.product(range(n), repeat=3):
            p = (
                kern.stationary[w0]
                * kern.matrix[w1, w0]
                * kern.matrix[w2, w1]
            )
            z = kern.space.index((kern.space.states[w0][0], kern.space.states[w1][1]))
            expected[z, w2] += p
        np.testing.assert_allclose(J, expected, atol=1e-12)

    def test_joint_sums_to_one(self):
        kern = joint_kernel(two_user_model(0.25))
        for age in ((0, 3), (4, 1), (2, 2)):
            assert aged_joint(kern, age).joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_age_rejected(self):
        kern = joint_kernel(two_user_model(0.5))
        with pytest.raises(ModelError, match="nonnegative"):
            aged_joint(kern, (-1, 0))


class TestSampling:
    def test_identity_kernel_constant(self):
        # the identity kernel has no unique stationary law (joint_kernel
        # refuses it), and a path from a given start needs none
        kern = JointKernel(StateSpace(2, 2), np.eye(4), np.full(4, 0.25))
        traj = sample_trajectory(kern, (1, 0), horizon=50, seed=3)
        assert (traj == [1, 0]).all()

    def test_stationary_frequencies(self):
        kern = joint_kernel(two_user_model(0.75))
        traj = sample_trajectory(kern, "stationary", horizon=10**5, seed=11)
        freq = traj.mean(axis=0)
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.01)

    def test_determinism(self):
        kern = joint_kernel(two_user_model(0.75))
        a = sample_trajectory(kern, "stationary", horizon=500, seed=7)
        b = sample_trajectory(kern, "stationary", horizon=500, seed=7)
        assert (a == b).all()
        c = sample_trajectory(kern, "stationary", horizon=500, seed=8)
        assert (a != c).any()

    def test_transition_frequencies_chi_square(self):
        from scipy import stats

        kern = joint_kernel(two_user_model(0.75))
        traj = sample_trajectory(kern, "stationary", horizon=10**5, seed=5)
        idx = [kern.space.index(tuple(row)) for row in traj]
        counts = np.zeros((4, 4))
        for a, b in zip(idx, idx[1:]):
            counts[b, a] += 1
        for col in range(4):
            total = counts[:, col].sum()
            expected = kern.matrix[:, col] * total
            chi2 = ((counts[:, col] - expected) ** 2 / expected).sum()
            # 3 degrees of freedom; fail only on gross disagreement
            assert chi2 < stats.chi2.ppf(0.9999, df=3)

    @pytest.mark.parametrize("initial", [1.7, 1.0, True, np.float64(2.0), np.True_])
    def test_non_integer_start_index_is_refused(self, initial):
        kern = joint_kernel(two_user_model(0.75))
        with pytest.raises(ModelError, match="initial state index must be integers, got"):
            sample_trajectory(kern, initial, horizon=3, seed=1)

    def test_integer_start_index_and_state_agree(self):
        kern = joint_kernel(two_user_model(0.75))
        runs = [sample_trajectory(kern, initial, horizon=20, seed=3)
                for initial in (2, np.int64(2), (1, 0), np.array([1, 0]))]
        assert runs[0][0].tolist() == [1, 0]
        assert all((run == runs[0]).all() for run in runs)
        with pytest.raises(ModelError, match="initial state index 4 out of range"):
            sample_trajectory(kern, 4, horizon=3, seed=1)

    def test_horizon_precondition(self):
        kern = joint_kernel(two_user_model(0.75))
        with pytest.raises(ModelError, match="horizon"):
            sample_trajectory(kern, "stationary", horizon=0, seed=1)

    @pytest.mark.parametrize("horizon", [3.5, 3.0, True, "3"])
    def test_non_integer_horizon_is_refused(self, horizon):
        kern = joint_kernel(two_user_model(0.75))
        with pytest.raises(ModelError) as raised:
            sample_trajectory(kern, "stationary", horizon=horizon, seed=1)
        assert str(raised.value) == f"horizon: expected an integer, got {horizon!r}"

    def test_numpy_int_horizon_is_read(self):
        kern = joint_kernel(two_user_model(0.75))
        np.testing.assert_array_equal(sample_trajectory(kern, "stationary", np.int64(9), 2),
                                      sample_trajectory(kern, "stationary", 9, 2))

    def test_stationary_start_when_cumsum_rounds_below_one(self):
        # a start draw above the stationary law's total lands on the last state
        kern = JointKernel(StateSpace(1, 2), np.eye(2), np.array([0.5, 0.499]))
        seed = 1874
        assert generator(seed).random() > 0.999
        traj = sample_trajectory(kern, "stationary", horizon=3, seed=seed)
        assert traj.tolist() == [[1], [1], [1]]

    def test_stationary_start_at_a_tie_skips_an_empty_state(self, monkeypatch):
        # a uniform of exactly 0.0 ties with the empty state 0's threshold;
        # start and steps alike count the thresholds at or below it
        class Zeros:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        monkeypatch.setattr(kernel_module, "generator", lambda seed: Zeros())
        K = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [1.0, 0.5, 0.5]])
        kern = JointKernel(StateSpace(1, 3), K, np.array([0.0, 0.5, 0.5]))
        traj = sample_trajectory(kern, "stationary", horizon=3, seed=0)
        assert traj.tolist() == [[1], [1], [1]]


class TestValidateAges:
    SPACE = StateSpace(2, 2)

    @pytest.mark.parametrize("age", [
        1.5, 2.0, True, "2", [1.5, 2], (2.0, 2), [True, 1], (1, "2"),
        np.array([1.0, 2.0]), np.array([True, False]), np.float64(2.0), [1, [2]],
    ])
    def test_non_integer_ages_are_refused(self, age):
        with pytest.raises(ModelError, match="ages must be integers, got"):
            validate_ages(age, self.SPACE)

    @pytest.mark.parametrize("age, ages", [
        ((1, 2), (1, 2)), ([3], (3, 3)), (4, (4, 4)), (np.int64(2), (2, 2)),
        (np.array([1, 2]), (1, 2)), ([np.int64(1), 2], (1, 2)), (np.uint8(5), (5, 5)),
    ])
    def test_integer_ages_are_read(self, age, ages):
        got = validate_ages(age, self.SPACE)
        assert got == ages and all(type(a) is int for a in got)

    def test_consumers_refuse_a_fractional_age(self):
        kern = joint_kernel(two_user_model(0.5))
        with pytest.raises(ModelError, match=r"ages must be integers, got \(1.5, 2\)"):
            aged_joint(kern, (1.5, 2))
