import itertools
import time

import numpy as np
import pytest

from csdp import (
    CmcModel,
    JointKernel,
    ModelError,
    StateSpace,
    aged_joint,
    backward_conditional,
    evolve_distribution,
    joint_kernel,
    sample_trajectory,
    two_user_model,
)
from csdp import kernel as kernel_module
from csdp.kernel import validate_ages
from csdp.model import DEFAULT_ENUMERATION_CAP
from csdp.rng import generator

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def single_chain(P):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


def kernel_marginals(kernel, blocks: np.ndarray) -> np.ndarray:
    """One joint step from a product distribution, marginalized per sequence."""
    s, m = kernel.space.num_sequences, kernel.space.num_states
    joint = np.ones(len(kernel.states))
    for idx, state in enumerate(kernel.states):
        for j in range(s):
            joint[idx] *= blocks[j][state[j]]
    nxt = kernel.matrix @ joint
    out = np.zeros((s, m))
    for idx, state in enumerate(kernel.states):
        for j in range(s):
            out[j, state[j]] += nxt[idx]
    return out


class TestJointKernel:
    def test_single_sequence_equals_p(self):
        kern = joint_kernel(single_chain(FLIP))
        np.testing.assert_allclose(kern.matrix, FLIP)

    def test_benchmark_column_from_00(self):
        kern = joint_kernel(two_user_model(0.75))
        col = kern.matrix[:, kern.index((0, 0))]
        # both sequences draw 0.7/0.3 mixtures from source state 0
        np.testing.assert_allclose(col, [0.49, 0.21, 0.21, 0.09])

    def test_columns_stochastic(self):
        kern = joint_kernel(two_user_model(0.3))
        np.testing.assert_allclose(kern.matrix.sum(axis=0), np.ones(4), atol=1e-12)

    def test_marginal_consistency(self):
        model = two_user_model(0.6)
        kern = joint_kernel(model)
        blocks = np.array([[0.2, 0.8], [0.9, 0.1]])
        np.testing.assert_allclose(
            kernel_marginals(kern, blocks), evolve_distribution(model, blocks),
            atol=1e-12,
        )

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

    def test_periodic_chain_fails_fast(self):
        # period-2 chain: power iteration from uniform oscillates forever
        P = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        start = time.perf_counter()
        with pytest.raises(ModelError, match="periodic"):
            joint_kernel(single_chain(P))
        assert time.perf_counter() - start < 1.0


class TestBackwardConditional:
    def test_age_zero_identity(self):
        kern = joint_kernel(two_user_model(0.75))
        B = backward_conditional(kern, (0, 0))
        np.testing.assert_allclose(B, np.eye(4), atol=1e-12)

    def test_single_chain_age_one(self):
        kern = joint_kernel(single_chain(FLIP))
        B = backward_conditional(kern, (1,))
        # symmetric chain: backward equals forward
        assert B[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_single_chain_age_t_eigenvalue_form(self):
        kern = joint_kernel(single_chain(FLIP))
        for t in range(6):
            B = backward_conditional(kern, (t,))
            assert B[0, 0] == pytest.approx((1 + 0.4**t) / 2, abs=1e-9)

    def test_columns_are_distributions(self):
        kern = joint_kernel(two_user_model(0.4))
        for age in ((3, 3), (2, 5), (0, 4)):
            B = backward_conditional(kern, age)
            np.testing.assert_allclose(B.sum(axis=0), np.ones(4), atol=1e-9)
            assert B.min() >= -1e-15

    def test_zero_probability_state_named(self):
        # chain where state 1 is never entered: stationary mass is all on 0
        P = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = CmcModel(StateSpace(1, 2), P[None, None], np.ones((1, 1)))
        kern = joint_kernel(model)
        with pytest.raises(ModelError, match=r"\(1,\)"):
            backward_conditional(kern, (1,))


class TestAgedJoint:
    def test_uniform_age_matches_matrix_power(self):
        kern = joint_kernel(two_user_model(0.75))
        J = aged_joint(kern, (2, 2))
        K2 = kern.matrix @ kern.matrix
        np.testing.assert_allclose(J, (K2 * kern.stationary[None, :]).T, atol=1e-14)

    def test_heterogeneous_age_matches_path_enumeration(self):
        kern = joint_kernel(two_user_model(0.6))
        ages = (2, 1)
        J = aged_joint(kern, ages)
        # brute force: sum over trajectories (w0, w1, w2); z = (w0[0], w1[1])
        n = 4
        expected = np.zeros((n, n))
        for w0, w1, w2 in itertools.product(range(n), repeat=3):
            p = (
                kern.stationary[w0]
                * kern.matrix[w1, w0]
                * kern.matrix[w2, w1]
            )
            z = kern.index((kern.states[w0][0], kern.states[w1][1]))
            expected[z, w2] += p
        np.testing.assert_allclose(J, expected, atol=1e-12)

    def test_joint_sums_to_one(self):
        kern = joint_kernel(two_user_model(0.25))
        for age in ((0, 3), (4, 1), (2, 2)):
            assert aged_joint(kern, age).sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_age_rejected(self):
        kern = joint_kernel(two_user_model(0.5))
        with pytest.raises(ModelError, match="nonnegative"):
            aged_joint(kern, (-1, 0))


class TestSampling:
    def test_identity_kernel_constant(self):
        model = CmcModel(
            StateSpace(2, 2),
            np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy(),
            np.eye(2),
        )
        kern = joint_kernel(model)
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
        idx = [kern.index(tuple(row)) for row in traj]
        counts = np.zeros((4, 4))
        for a, b in zip(idx, idx[1:]):
            counts[b, a] += 1
        for col in range(4):
            total = counts[:, col].sum()
            expected = kern.matrix[:, col] * total
            chi2 = ((counts[:, col] - expected) ** 2 / expected).sum()
            # 3 degrees of freedom; fail only on gross disagreement
            assert chi2 < stats.chi2.ppf(0.9999, df=3)

    def test_horizon_precondition(self):
        kern = joint_kernel(two_user_model(0.75))
        with pytest.raises(ModelError, match="horizon"):
            sample_trajectory(kern, "stationary", horizon=0, seed=1)

    def test_stationary_start_when_cumsum_rounds_below_one(self):
        # a start draw above the stationary law's total lands on the last state
        kern = JointKernel(StateSpace(1, 2), np.eye(2), ((0,), (1,)), np.array([0.5, 0.499]))
        seed = 1874
        assert generator(seed).random() > 0.999
        traj = sample_trajectory(kern, "stationary", horizon=3, seed=seed)
        assert traj.tolist() == [[1], [1], [1]]

    def test_stationary_start_at_a_tie_skips_an_empty_state(self, monkeypatch):
        # a uniform of exactly 0.0 ties with the empty state 0's threshold;
        # start and steps alike count the thresholds at or below it
        class Zeros:
            def random(self):
                return 0.0

        monkeypatch.setattr(kernel_module, "generator", lambda seed: Zeros())
        K = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [1.0, 0.5, 0.5]])
        kern = JointKernel(StateSpace(1, 3), K, ((0,), (1,), (2,)), np.array([0.0, 0.5, 0.5]))
        traj = sample_trajectory(kern, "stationary", horizon=3, seed=0)
        assert traj.tolist() == [[1], [1], [1]]


class TestValidateAges:
    SPACE = StateSpace(2, 2)

    @pytest.mark.parametrize("age", [
        1.5, 2.0, True, "2", [1.5, 2], (2.0, 2), [True, 1], (1, "2"),
        np.array([1.0, 2.0]), np.array([True, False]), np.float64(2.0),
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
