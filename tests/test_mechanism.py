import math

import numpy as np
import pytest

import loop_reference as ref
from csdp import (
    ModelError,
    SequenceDatabase,
    StateSpace,
    aged_joint,
    age_data,
    builtin_queries,
    joint_kernel,
    laplace_sample,
    release,
    release_values,
    two_user_model,
)
from csdp.acceptance import _half_line_cdf
from csdp.kernel import state_values
from csdp.mechanism import noise_scale
from csdp.queries import QuerySpec
from csdp.utility import noise_variance

SPACE = StateSpace(2, 2)


def alternating_db(T=8):
    col0 = [(t % 2) for t in range(T)]
    col1 = [1 - (t % 2) for t in range(T)]
    return SequenceDatabase(SPACE, np.column_stack([col0, col1]))


class TestAgeData:
    def test_age_zero_is_current(self):
        db = alternating_db()
        assert age_data(db, 4, (0, 0)) == tuple(db.snapshots[3])

    def test_index_arithmetic(self):
        db = alternating_db()
        snap = age_data(db, 4, (2, 0))
        assert snap == (int(db.snapshots[1, 0]), int(db.snapshots[3, 1]))

    def test_rejection_names_sequence(self):
        db = alternating_db()
        with pytest.raises(ModelError, match="sequence 0"):
            age_data(db, 3, (5, 5))

    def test_bad_time_index(self):
        db = alternating_db(4)
        with pytest.raises(ModelError, match="horizon"):
            age_data(db, 9, (0, 0))

    @pytest.mark.parametrize("t", [2.5, 2.0, "2", True, np.float64(2.0), np.True_])
    def test_non_integer_time_index_is_refused(self, t):
        db = alternating_db()
        query = builtin_queries(SPACE)["mean"]
        message = f"time index: expected an integer, got {t!r}"
        for call in (lambda: age_data(db, t, (0, 0)),
                     lambda: release(db, t, (0, 0), query, 1.0, seed=1),
                     lambda: release_values(db, t, (0, 0), query, 1.0, [1])):
            with pytest.raises(ModelError) as raised:
                call()
            assert str(raised.value) == message

    @pytest.mark.parametrize("t", [np.int64(3), np.uint8(3), np.int32(3)])
    def test_numpy_int_time_index_is_read(self, t):
        db = alternating_db()
        query = builtin_queries(SPACE)["mean"]
        assert age_data(db, t, (1, 0)) == age_data(db, 3, (1, 0))
        assert (release(db, t, (1, 0), query, 1.0, seed=4)
                == release(db, 3, (1, 0), query, 1.0, seed=4))


class TestLaplaceSample:
    def test_moments(self):
        draws = laplace_sample(1.0, 10**5, seed=42)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 2.0) < 0.05

    def test_determinism(self):
        a = laplace_sample(0.5, 100, seed=9)
        b = laplace_sample(0.5, 100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_bad_scale(self):
        with pytest.raises(ModelError, match="scale"):
            laplace_sample(0.0, 10, seed=1)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2"])
    def test_non_integer_dim_is_refused(self, dim):
        with pytest.raises(ModelError) as raised:
            laplace_sample(1.0, dim, 0)
        assert str(raised.value) == f"dim: expected an integer, got {dim!r}"

    def test_negative_dim_is_refused(self):
        with pytest.raises(ModelError) as raised:
            laplace_sample(1.0, -1, 0)
        assert str(raised.value) == "dim must be >= 0, got -1"

    def test_numpy_int_dim_is_read(self):
        np.testing.assert_array_equal(laplace_sample(1.0, np.int64(3), 5),
                                      laplace_sample(1.0, 3, 5))

    @pytest.mark.parametrize("scale, message", [
        (math.nan, "noise scale must be finite, got nan"),
        (math.inf, "noise scale must be finite, got inf"),
        (-math.inf, "noise scale must be positive, got -inf"),
    ])
    def test_non_finite_scale(self, scale, message):
        """Also through a query whose sensitivity is the bad scale, on the
        per-seed and the batch release path."""
        query = QuerySpec("bad", SPACE, evaluate=lambda x: 0.0, sensitivity=lambda i: scale)
        for draw in (lambda: laplace_sample(scale, 3, seed=0),
                     lambda: release(alternating_db(), 2, (0, 0), query, 1.0, seed=0),
                     lambda: release_values(alternating_db(), 2, (0, 0), query, 1.0, [0])):
            with pytest.raises(ModelError) as raised:
                draw()
            assert str(raised.value) == message


class TestNoiseScale:
    @pytest.mark.parametrize("eps, message", [
        (0.0, "eps_c must be positive, got 0.0"),
        (0, "eps_c must be positive, got 0"),
        (math.nan, "eps_c must be finite, got nan"),
        (math.inf, "eps_c must be finite, got inf"),
        (-math.inf, "eps_c must be positive, got -inf"),
    ])
    def test_bad_eps_is_refused(self, eps, message):
        with pytest.raises(ModelError) as raised:
            noise_scale(builtin_queries(SPACE)["mean"], eps)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["mean", "sum", "max", "min"])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 7.0])
    def test_release_variance_and_oracle_read_one_scale(self, name, eps):
        query = builtin_queries(SPACE)[name]
        scale = noise_scale(query, eps)
        assert scale == query.sensitivity(1) / eps
        assert release(alternating_db(), 3, (1, 0), query, eps, seed=2).noise_scale == scale
        assert noise_variance(query, eps) == 2.0 * scale**2
        # criterion 8's theta grid spans the query range plus six scales of its noise
        law = aged_joint(joint_kernel(two_user_model(0.75)), (1, 1))
        f_values = state_values(SPACE, query)
        thetas = _half_line_cdf(law, query, eps)[0]
        np.testing.assert_array_equal(
            thetas, np.linspace(f_values.min() - 6 * scale, f_values.max() + 6 * scale, 101))


class TestRelease:
    def test_reproducible_value_and_scale(self):
        db = SequenceDatabase(SPACE, np.array([[1, 0]]))
        query = builtin_queries(SPACE)["mean"]
        out1 = release(db, 1, (0, 0), query, 1.0, seed=77)
        out2 = release(db, 1, (0, 0), query, 1.0, seed=77)
        assert out1 == out2
        assert out1.aged_snapshot == (1, 0)
        assert out1.noise_scale == pytest.approx(0.5)
        noise = laplace_sample(0.5, 1, seed=77)[0]
        assert out1.value == pytest.approx(0.5 + noise)

    def test_high_budget_concentrates(self):
        db = SequenceDatabase(SPACE, np.array([[1, 1]]))
        query = builtin_queries(SPACE)["mean"]
        hits = sum(
            abs(release(db, 1, (0, 0), query, 1e6, seed=s).value - 1.0) < 1e-4
            for s in range(1000)
        )
        assert hits > 999 * 0.999 - 5  # Laplace tail at 200 scales

    def test_bad_eps(self):
        db = alternating_db()
        query = builtin_queries(SPACE)["mean"]
        with pytest.raises(ModelError, match="eps_c"):
            release(db, 2, (0, 0), query, 0.0, seed=1)

    @pytest.mark.parametrize("eps, message", [
        (math.nan, "eps_c must be finite, got nan"),
        (math.inf, "eps_c must be finite, got inf"),
        (-math.inf, "eps_c must be positive, got -inf"),
    ])
    def test_non_finite_eps(self, eps, message):
        query = builtin_queries(SPACE)["mean"]
        with pytest.raises(ModelError) as raised:
            release(alternating_db(), 2, (0, 0), query, eps, seed=1)
        assert str(raised.value) == message

    @pytest.mark.parametrize("t, age, eps, query, message", [
        (4, (1, 2, 3), 1.0, "mean", "age vector has shape (3,), expected (2,)"),
        (4, [], 1.0, "mean", "age vector has shape (0,), expected (2,)"),
        (4, np.zeros((2, 2), int), 1.0, "mean", "age vector has shape (2, 2), expected (2,)"),
        (4, (1, -1), 1.0, "sum", "ages must be nonnegative, got [1, -1]"),
        (4, -2, 1.0, "sum", "ages must be nonnegative, got [-2, -2]"),
        (3, (1, 3), 1.0, "max",
         "sequence 1: age 3 reaches before the start of the record at t=3"),
        (3, np.array([5, 5]), 1.0, "max",
         "sequence 0: age 5 reaches before the start of the record at t=3"),
        (9, (0, 0), 1.0, "min", "time index 9 outside the recorded horizon [1, 8]"),
        (0, (0, 0), 1.0, "min", "time index 0 outside the recorded horizon [1, 8]"),
        (2, (0, 0), 0.0, "mean", "eps_c must be positive, got 0.0"),
        (2, (0, 0), -1.0, "mean", "eps_c must be positive, got -1.0"),
        (2, (0, 0), 1.0, "zero", "noise scale must be positive, got 0.0"),
    ])
    def test_error_messages(self, t, age, eps, query, message):
        db = alternating_db()
        queries = builtin_queries(SPACE)
        queries["zero"] = QuerySpec("zero", SPACE, evaluate=lambda x: 0.0,
                                    sensitivity=lambda i: 0.0)
        with pytest.raises(ModelError) as raised:
            release(db, t, age, queries[query], eps, seed=1)
        assert str(raised.value) == message
        with pytest.raises(ModelError) as raised:
            release_values(db, t, age, queries[query], eps, [1])
        assert str(raised.value) == message
        if query != "zero":  # the reference knows the built-in queries only
            with pytest.raises(ModelError) as expected:
                ref.release(db, t, age, queries[query], eps, seed=1)
            assert str(expected.value) == message
        if eps > 0 and query != "zero":
            with pytest.raises(ModelError) as raised:
                age_data(db, t, age)
            assert str(raised.value) == message

    @pytest.mark.parametrize("seeds, message", [
        ([1, -1], "seed must lie in [0, 2**64), got -1"),
        ([2**64], "seed must lie in [0, 2**64), got 18446744073709551616"),
        ([1.5], "seed: expected an integer, got 1.5"),
        ([True], "seed: expected an integer, got True"),
        ([np.True_], "seed: expected an integer, got np.True_"),
    ])
    def test_bad_seeds_are_named(self, seeds, message):
        query = builtin_queries(SPACE)["mean"]
        with pytest.raises(ModelError) as raised:
            release_values(alternating_db(), 2, (0, 0), query, 1.0, seeds)
        assert str(raised.value) == message
        with pytest.raises(ModelError) as raised:
            release(alternating_db(), 2, (0, 0), query, 1.0, seeds[-1])
        assert str(raised.value) == message

    @pytest.mark.parametrize("age", [1, np.int64(1), np.array([2, 1]), np.array(1), [2, 1]])
    def test_scalar_and_array_ages(self, age):
        db = alternating_db()
        query = builtin_queries(SPACE)["sum"]
        out = release(db, 5, age, query, 1.0, seed=3)
        assert out == ref.release(db, 5, age, query, 1.0, seed=3)
        assert out.aged_snapshot == ref.age_data(db, 5, age)


class TestDatabaseIO:
    def test_csv_roundtrip(self, tmp_path):
        db = alternating_db()
        path = tmp_path / "db.csv"
        db.to_csv(path)
        loaded = SequenceDatabase.from_csv(path, SPACE)
        np.testing.assert_array_equal(loaded.snapshots, db.snapshots)

    def test_out_of_range_state(self):
        with pytest.raises(ModelError, match="state values"):
            SequenceDatabase(SPACE, np.array([[0, 3]]))

    def test_column_mismatch(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("seq0\n0\n1\n")
        with pytest.raises(ModelError, match="columns"):
            SequenceDatabase.from_csv(path, SPACE)

    @pytest.mark.parametrize("text, message", [
        ("", " is empty"),
        ("seq0,seq1\n0,1\n0,1,1\n1,0\n", ", line 3: 3 cells, expected 2"),
        ("seq0,seq1\n0,1\n1\n1,0\n", ", line 3: 1 cells, expected 2"),
        ("seq0,seq1\n", ": database needs at least one time step"),
        ("seq0,seq1\n0,2\n", ": state values must lie in [0, 1]"),
        ("0,1\n1,0\n", " has no header: its first row 0,1 reads as states"),
    ])
    def test_bad_file_is_refused_by_name(self, tmp_path, text, message):
        path = tmp_path / "db.csv"
        path.write_text(text)
        with pytest.raises(ModelError) as raised:
            SequenceDatabase.from_csv(path, SPACE)
        assert str(raised.value) == f"database file '{path}'{message}"


class TestDatabaseStates:
    @pytest.mark.parametrize("states", [
        [[0.7, 1.9], [1, 0]],
        [[1.0, 0.0]],
        [[np.nan, 0]],
        [[True, False]],
        np.array([["0", "1"]]),
    ])
    def test_non_integer_states_are_refused(self, states):
        with pytest.raises(ModelError, match="state values must be integers, got an array of"):
            SequenceDatabase(SPACE, states)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_integer_arrays_are_taken_as_int64(self, dtype):
        db = SequenceDatabase(SPACE, np.array([[0, 1], [1, 1]], dtype=dtype))
        assert db.snapshots.dtype == np.int64 and db.snapshots.tolist() == [[0, 1], [1, 1]]

    def test_csv_cell_that_is_not_an_int_names_file_and_line(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("seq0,seq1\n0,1\n\n0.7,1\n")
        with pytest.raises(ModelError, match=f"database file '{path}', line 4: .*'0.7'"):
            SequenceDatabase.from_csv(path, SPACE)
