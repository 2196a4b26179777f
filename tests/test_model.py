import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdp import (
    CmcModel,
    ModelError,
    StateSpace,
    build_block_matrix,
    evolve_distribution,
    joint_kernel,
    load_model,
    save_model,
    spectral_check,
    stationary_distribution,
    two_user_model,
)
from csdp.model import _support_period

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def single_chain(P):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


def random_model(s, m, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    trans = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2)
    weights = rng.dirichlet(np.ones(s), size=s)
    return CmcModel(StateSpace(s, m), trans, weights)


class TestValidation:
    """A model is checked when it is built: an invalid one is never made."""

    def test_identity_matrices_pass(self):
        model = CmcModel(
            StateSpace(2, 2),
            np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy(),
            np.full((2, 2), 0.5),
        )
        assert model.transitions.shape == (2, 2, 2, 2)

    def test_bad_column_named(self):
        trans = np.broadcast_to(FLIP, (2, 2, 2, 2)).copy()
        trans[0, 0, 0, 0] = 0.6  # column 0 now sums to 0.9
        with pytest.raises(ModelError, match=r"column 0 of P\[0\]\[0\] sums to 0\.9"):
            CmcModel(StateSpace(2, 2), trans, np.full((2, 2), 0.5))

    def test_benchmark_setup_passes(self):
        assert two_user_model(0.75).weights.tolist() == [[0.75, 0.25], [0.25, 0.75]]

    def test_bad_weight_row(self):
        with pytest.raises(ModelError, match="coupling row 0 sums to 1.1"):
            CmcModel(
                StateSpace(2, 2),
                np.broadcast_to(FLIP, (2, 2, 2, 2)).copy(),
                np.array([[0.8, 0.3], [0.25, 0.75]]),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ModelError, match=r"transitions have shape \(2, 2, 3, 3\), "
                                             r"expected \(2, 2, 2, 2\)"):
            CmcModel(StateSpace(2, 2), np.zeros((2, 2, 3, 3)), np.full((2, 2), 0.5))

    def test_every_violation_is_named(self):
        trans = np.broadcast_to(FLIP, (2, 2, 2, 2)).copy()
        trans[1, 0, :, 1] = [1.5, -0.5]  # sums to 1, entries outside [0, 1]
        trans[0, 1, 0, 0] = 0.5  # column 0 of P[0][1] sums to 0.8
        with pytest.raises(ModelError) as err:
            CmcModel(StateSpace(2, 2), trans, np.array([[1.2, -0.1], [0.5, 0.6]]))
        assert str(err.value) == (
            "invalid model: transition entries outside [0, 1]; "
            "column 0 of P[0][1] sums to 0.8; negative coupling weight; "
            "coupling row 0 sums to 1.1; coupling row 1 sums to 1.1")

    def test_nan_entries_are_refused(self):
        trans = np.broadcast_to(FLIP, (2, 2, 2, 2)).copy()
        trans[0, 1, 1, 0] = np.nan
        with pytest.raises(ModelError, match=r"invalid model: transition entries outside "
                                             r"\[0, 1\]; column 0 of P\[0\]\[1\] sums to nan; "
                                             "negative coupling weight; coupling row 1 sums to nan"):
            CmcModel(StateSpace(2, 2), trans, np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_non_numeric_arrays_are_named(self):
        with pytest.raises(ModelError, match="weights: not a numeric array"):
            CmcModel(StateSpace(1, 2), FLIP[None, None], [["a"]])


class TestStateSpaceSizes:
    @pytest.mark.parametrize("sizes, message", [
        ((1.9, 2.6), "num_sequences: expected an integer, got 1.9"),
        ((2, 2.0), "num_states: expected an integer, got 2.0"),
        ((True, 2), "num_sequences: expected an integer, got True"),
        ((2, np.bool_(True)), "num_states: expected an integer, got np.True_"),
        ((2, "3"), "num_states: expected an integer, got '3'"),
    ])
    def test_non_integer_sizes_are_refused(self, sizes, message):
        with pytest.raises(ModelError) as raised:
            StateSpace(*sizes)
        assert str(raised.value) == message

    def test_numpy_int_sizes_are_python_ints(self):
        space = StateSpace(np.int64(64), np.uint8(2))
        assert space == StateSpace(64, 2) and type(space.num_sequences) is int
        assert space.product_size == 2**64  # exact, as NumPy int64 arithmetic would not be


class TestStateIndex:
    SPACE = StateSpace(2, 2)

    @pytest.mark.parametrize("state", [
        (0.7, 1.9), (True, 1), (1, np.True_), (1.0, 0), ("0", 1), np.array([0.5, 1.0]),
        np.array([True, False]), [[0, 1], [1]],
    ])
    def test_non_integer_states_are_refused(self, state):
        with pytest.raises(ModelError, match="states must be integers, got"):
            self.SPACE.index(state)

    @pytest.mark.parametrize("state, index", [
        ((1, 0), 2), ([0, 1], 1), (np.array([1, 1]), 3), ((np.int64(1), np.uint8(1)), 3),
    ])
    def test_integer_states_are_read(self, state, index):
        got = self.SPACE.index(state)
        assert got == index and type(got) is int

    @pytest.mark.parametrize("state", [(0, 2), (0, -1), (1,), (0, 1, 0), np.array([[0, 1], [1, 0]])])
    def test_invalid_states_are_named(self, state):
        with pytest.raises(ModelError, match="is not a valid joint state for s=2, m=2"):
            self.SPACE.index(state)


class TestBlockMatrix:
    def test_single_sequence_is_p_itself(self):
        Q = build_block_matrix(single_chain(FLIP))
        np.testing.assert_allclose(Q, FLIP)

    def test_benchmark_blocks(self):
        Q = build_block_matrix(two_user_model(0.75))
        np.testing.assert_allclose(Q[:2, :2], 0.75 * FLIP)
        np.testing.assert_allclose(Q[:2, 2:], 0.25 * FLIP)

    def test_uniform_weights_equal_blocks(self):
        model = two_user_model(0.5)
        Q = build_block_matrix(model)
        v = np.array([0.3, 0.7])
        stacked = np.concatenate([v, v])
        np.testing.assert_allclose(Q @ stacked, np.concatenate([FLIP @ v, FLIP @ v]))

    def test_invalid_model_rejected(self):
        with pytest.raises(ModelError, match=r"column 0 of P\[0\]\[0\] sums to 0"):
            CmcModel(StateSpace(2, 2), np.zeros((2, 2, 2, 2)), np.full((2, 2), 0.5))


class TestEvolve:
    def test_identity_fixed_point(self):
        # identity transitions leave every distribution in place; with equal
        # coupling weights the blocks additionally average, so use identity
        # coupling to isolate the fixed-point behaviour
        model = CmcModel(
            StateSpace(2, 2),
            np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy(),
            np.eye(2),
        )
        pi = np.array([[0.2, 0.8], [0.6, 0.4]])
        np.testing.assert_allclose(evolve_distribution(model, pi), pi)

    def test_benchmark_one_step_by_hand(self):
        pi = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = evolve_distribution(two_user_model(0.75), pi)
        np.testing.assert_allclose(out, [[0.7, 0.3], [0.7, 0.3]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            evolve_distribution(two_user_model(0.75), np.array([0.5, 0.5, 0.5]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10**6))
    def test_stochasticity_preserved(self, s, m, seed):
        model = random_model(s, m, seed)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        pi = rng.dirichlet(np.ones(m), size=s)
        out = evolve_distribution(model, pi)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(s), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10**6))
    def test_block_matrix_consistency(self, s, m, seed):
        model = random_model(s, m, seed)
        rng = np.random.Generator(np.random.Philox(seed + 2))
        pi = rng.dirichlet(np.ones(m), size=s)
        via_q = (build_block_matrix(model) @ pi.ravel()).reshape(s, m)
        np.testing.assert_allclose(via_q, evolve_distribution(model, pi), atol=1e-12)


class TestStationary:
    def test_benchmark_uniform_blocks(self):
        pi = stationary_distribution(two_user_model(0.75))
        np.testing.assert_allclose(pi, np.full((2, 2), 0.5), atol=1e-9)

    def test_hand_solved_two_state(self):
        P = np.array([[0.9, 0.2], [0.1, 0.8]])
        pi = stationary_distribution(single_chain(P))
        np.testing.assert_allclose(pi[0], [2 / 3, 1 / 3], atol=1e-9)

    def test_periodic_chain_fails(self):
        # period-2 chain: states 1 and 2 always return to 0, state 0 splits;
        # power iteration from uniform oscillates and must be reported, not
        # silently averaged
        P = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(ModelError, match="periodic|converge"):
            stationary_distribution(single_chain(P), max_iter=2000)

    @pytest.mark.parametrize("entry", [stationary_distribution, joint_kernel])
    def test_period_three_chain_fails_fast(self, entry):
        # 0 -> 1 -> {2, 3} -> 0: every cycle has length 3, so power iteration
        # from uniform returns to its start every third step
        P = np.array([[0, 0, 1, 1], [1, 0, 0, 0], [0, 0.5, 0, 0], [0, 0.5, 0, 0]], float)
        start = time.perf_counter()
        with pytest.raises(ModelError, match="periodic"):
            entry(single_chain(P))
        assert time.perf_counter() - start < 1.0

    def test_support_period_is_lcm_over_components(self):
        # a 2-cycle, a 3-cycle and a state with a self-loop
        A = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 5)]:
            A[b, a] = 1.0
        assert _support_period(A) == 6
        assert _support_period(A[5:, 5:]) == 1
        assert _support_period(np.array([[0.001, 0.998], [0.999, 0.002]])) == 1

    def test_nearly_periodic_chain_converges(self):
        # eigenvalue -0.997: successive steps almost repeat, yet the chain
        # is aperiodic and must not be reported as periodic
        P = np.array([[0.001, 0.998], [0.999, 0.002]])
        pi = stationary_distribution(single_chain(P))
        np.testing.assert_allclose(pi[0], [0.998 / 1.997, 0.999 / 1.997], atol=1e-9)

    def test_permutation_from_uniform_start_converges_exactly(self):
        # uniform is the exact stationary vector of any permutation chain, so
        # the mandated uniform start lands on the fixed point immediately
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(single_chain(perm))
        np.testing.assert_allclose(pi[0], [0.5, 0.5], atol=1e-12)

    def test_reducible_chain_fails(self):
        absorbing = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ModelError, match="reducible"):
            stationary_distribution(single_chain(absorbing))

    def test_convergence_speed_on_benchmark(self):
        # the fixed point is reached well within 100 iterations
        model = two_user_model(0.75)
        Q = build_block_matrix(model)
        pi = np.full(4, 0.5)
        gaps = []
        for _ in range(100):
            nxt = Q @ pi
            gaps.append(np.abs(nxt - pi).sum())
            pi = nxt
        assert gaps[-1] < 1e-6
        burned = gaps[2:]
        assert all(b <= a + 1e-15 for a, b in zip(burned, burned[1:]))


class TestSpectral:
    def test_benchmark_dominant_one(self):
        report = spectral_check(two_user_model(0.75))
        assert abs(report.dominant_modulus - 1.0) < 1e-6
        assert report.stable

    def test_identity_has_no_gap(self):
        model = CmcModel(
            StateSpace(2, 2),
            np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy(),
            np.full((2, 2), 0.5),
        )
        report = spectral_check(model)
        assert not report.has_gap

    def test_flip_chain_second_eigenvalue(self):
        report = spectral_check(single_chain(FLIP))
        assert abs(report.second_modulus - 0.4) < 1e-9


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.yaml"
        model = two_user_model(0.75)
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.transitions, model.transitions)
        np.testing.assert_allclose(loaded.weights, model.weights)

    def test_invalid_file_reports_first_violation(self, tmp_path):
        path = tmp_path / "model.yaml"
        model = two_user_model(0.75)
        save_model(model, path)
        text = path.read_text().replace("0.75", "0.80", 1)
        path.write_text(text)
        with pytest.raises(ModelError, match="coupling row 0"):
            load_model(path)

    def test_file_of_wrong_shape_is_refused_by_name(self, tmp_path):
        path = tmp_path / "model.yaml"
        save_model(two_user_model(0.75), path)
        path.write_text(path.read_text().replace("num_states: 2", "num_states: 3"))
        with pytest.raises(ModelError, match=r"invalid model: transitions have shape "
                                             r"\(2, 2, 2, 2\), expected \(2, 2, 3, 3\)"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("num_sequences: 2\nnum_states: 2\n")
        with pytest.raises(ModelError, match="transitions"):
            load_model(path)

    def test_bundled_model_loads(self):
        from importlib import resources

        with resources.as_file(
            resources.files("csdp").joinpath("data/two_user_benchmark.yaml")
        ) as path:
            model = load_model(path)
        assert model.space == StateSpace(2, 2)
