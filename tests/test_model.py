import time

import numpy as np
import pytest

from csdp import (
    CmcModel,
    JointKernel,
    ModelError,
    StateSpace,
    aged_joints,
    aged_tvs,
    joint_kernel,
    load_model,
    save_model,
    single_chain_tvs,
    two_user_model,
)

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def single_chain(P):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


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

    def test_invalid_model_rejected(self):
        with pytest.raises(ModelError, match=r"column 0 of P\[0\]\[0\] sums to 0"):
            CmcModel(StateSpace(2, 2), np.zeros((2, 2, 2, 2)), np.full((2, 2), 0.5))


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


class TestStationary:
    """The joint kernel's stationary law: by power iteration from uniform on a
    positive kernel that settles within STATIONARY_STEPS steps, and by GTH
    state reduction on the one closed class otherwise, so periodic and
    slowly mixing chains get their law and reducible ones are refused."""

    def test_benchmark_uniform_blocks(self):
        pi = joint_kernel(two_user_model(0.75)).stationary.reshape(2, 2)
        np.testing.assert_allclose(pi.sum(axis=0), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(pi.sum(axis=1), [0.5, 0.5], atol=1e-9)

    def test_hand_solved_two_state(self):
        P = np.array([[0.9, 0.2], [0.1, 0.8]])
        pi = joint_kernel(single_chain(P)).stationary
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-9)

    @pytest.mark.parametrize("model", [
        two_user_model(0.75),
        CmcModel(StateSpace(3, 2),
                 np.random.Generator(np.random.Philox(5)).dirichlet(
                     np.ones(2), size=(3, 3, 2)).transpose(0, 1, 3, 2),
                 np.random.Generator(np.random.Philox(6)).dirichlet(np.ones(3), size=3)),
    ], ids=["benchmark", "random-3x2"])
    def test_stationary_is_a_fixed_point(self, model):
        kern = joint_kernel(model)
        pi = kern.stationary
        assert pi.min() >= 0
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(kern.matrix @ pi, pi, atol=1e-12)

    def test_period_two_chain_returns_its_law(self):
        # period-2 chain: state 0 splits over 1, 2 and 3, which all return to
        # 0; from uniform the mass on state 0 swings between 1/4 and 3/4, so
        # the law is solved on the closed class, not iterated
        P = np.array([[0, 1, 1, 1], [0.2, 0, 0, 0], [0.3, 0, 0, 0], [0.5, 0, 0, 0]], float)
        pi = joint_kernel(single_chain(P)).stationary
        np.testing.assert_allclose(pi, [0.5, 0.1, 0.15, 0.25], rtol=1e-14)

    def test_period_three_chain_returns_its_law(self):
        # 0 -> 1 -> {2, 3} -> 0: every cycle has length 3, so power iteration
        # from uniform returns to its start every third step; both the joint
        # kernel and the single-chain TVs read the hand-solved law
        P = np.array([[0, 0, 1, 1], [1, 0, 0, 0], [0, 0.5, 0, 0], [0, 0.5, 0, 0]], float)
        law = np.array([1 / 3, 1 / 3, 1 / 6, 1 / 6])
        ts = [0, 1, 2, 3, 4]
        start = time.perf_counter()
        pi = joint_kernel(single_chain(P)).stationary
        tvs = single_chain_tvs(single_chain(P), ts)
        assert time.perf_counter() - start < 1.0
        np.testing.assert_allclose(pi, law, rtol=1e-14)
        hand = JointKernel(StateSpace(1, 4), P, law)
        np.testing.assert_allclose(tvs, aged_tvs(aged_joints(hand, [[t] for t in ts])),
                                   atol=1e-14)

    @pytest.mark.parametrize("model", [
        single_chain(np.block([[np.array([[0.9, 0.2], [0.1, 0.8]]), np.zeros((2, 2))],
                               [np.zeros((2, 2)), np.full((2, 2), 0.5)]])),
        two_user_model(0.5, p=0),
    ], ids=["two-blocks", "two-user-p0"])
    def test_reducible_chain_is_refused_by_name(self, model):
        # more than one closed class: no unique stationary law to condition on
        with pytest.raises(ModelError, match=r"the joint chain has \d+ closed classes of "
                                             r"states, so its stationary law is not unique"):
            joint_kernel(model)

    def test_convergence_speed_on_benchmark(self):
        # from a point mass the joint law is within 1e-6 of its fixed point
        # well within 100 steps, and after a short burn-in each step is
        # smaller than the one before
        K = joint_kernel(two_user_model(0.75)).matrix
        pi = np.eye(4)[0]
        gaps = []
        for _ in range(100):
            nxt = K @ pi
            gaps.append(np.abs(nxt - pi).sum())
            pi = nxt
        assert gaps[-1] < 1e-6
        burned = gaps[2:]
        assert all(b <= a + 1e-15 for a, b in zip(burned, burned[1:]))

    def test_nearly_periodic_chain_converges(self):
        # eigenvalue -0.997: successive steps almost repeat, yet the chain
        # is aperiodic and must not be reported as periodic
        P = np.array([[0.001, 0.998], [0.999, 0.002]])
        pi = joint_kernel(single_chain(P)).stationary
        np.testing.assert_allclose(pi, [0.998 / 1.997, 0.999 / 1.997], atol=1e-9)

    def test_permutation_chain_is_solved_exactly(self):
        # a permutation chain has zero entries, so it is solved on its one
        # closed class, where uniform is the exact stationary vector
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = joint_kernel(single_chain(perm)).stationary
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


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
