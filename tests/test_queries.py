import numpy as np
import pytest

from csdp import ModelError, StateSpace, builtin_queries
from csdp.queries import QuerySpec, k_sensitivity
from loop_reference import brute_force_profile


def profile(query, upto: int) -> list:
    """[s_1(f), ..., s_upto(f)] as the query declares them."""
    return [query.sensitivity(i) for i in range(1, upto + 1)]


class TestKSensitivity:
    def test_mean_two_binary_users(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        assert k_sensitivity(q, 2) == pytest.approx(2.0)

    def test_max_is_flat(self):
        q = builtin_queries(StateSpace(3, 2))["max"]
        assert k_sensitivity(q, 2) == pytest.approx(1.0)
        assert k_sensitivity(q, 3) == pytest.approx(1.0)

    def test_k_one_always_unity(self):
        for name, q in builtin_queries(StateSpace(3, 4)).items():
            assert k_sensitivity(q, 1) == pytest.approx(1.0), name

    def test_degenerate_query_rejected(self):
        space = StateSpace(2, 2)
        q = QuerySpec("zero", space, evaluate=lambda x: 0.0, sensitivity=lambda i: 0.0)
        with pytest.raises(ModelError, match="degenerate"):
            k_sensitivity(q, 1)

    def test_out_of_range_degree(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        with pytest.raises(ModelError):
            k_sensitivity(q, 3)


class TestProfiles:
    def test_sum_profile(self):
        q = builtin_queries(StateSpace(2, 2))["sum"]
        assert profile(q, 2) == [1.0, 2.0]

    def test_mean_profile_normalized(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        assert profile(q, 2) == [0.5, 1.0]

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_declared_profiles_match_brute_force(self, s, m):
        for name, q in builtin_queries(StateSpace(s, m)).items():
            declared = profile(q, s)
            exhaustive = brute_force_profile(q, s)
            np.testing.assert_allclose(declared, exhaustive, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("m", [2, 4])
    def test_profile_shape_invariants(self, s, m):
        for name, q in builtin_queries(StateSpace(s, m)).items():
            prof = profile(q, s)
            assert prof[0] > 0, name
            assert all(b >= a for a, b in zip(prof, prof[1:])), name
            assert all(si <= (i + 1) * prof[0] + 1e-12 for i, si in enumerate(prof)), name
