"""Query specifications with per-distance sensitivity profiles.

s_i(f) is the worst-case change in f when exactly i coordinates of the
snapshot change.  The k-sensitivity d(k) = s_k(f)/s_1(f) measures how much
harder the query is to protect when up to k coordinated records move
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import ModelError, StateSpace


@dataclass(frozen=True)
class QuerySpec:
    name: str
    space: StateSpace
    evaluate: Callable  # joint snapshot (sequence of ints) -> float
    sensitivity: Callable  # i -> s_i(f)

    def profile(self, upto: int) -> list:
        """[s_1(f), ..., s_upto(f)]; upto is a correlation degree of the space."""
        return [self.sensitivity(i) for i in range(1, self.space.check_degree(upto) + 1)]


def k_sensitivity(query: QuerySpec, k: int) -> float:
    """d(k) = s_k(f) / s_1(f), k a correlation degree of the query's space."""
    k = query.space.check_degree(k)
    s1 = query.sensitivity(1)
    if s1 <= 0:
        raise ModelError(f"query '{query.name}' is degenerate: s_1 = {s1}")
    return query.sensitivity(k) / s1


def builtin_queries(space: StateSpace) -> dict:
    """Mean, sum, max and min over the joint snapshot, with exact profiles.

    `evaluate` takes a tuple or an integer array row and returns a Python
    float.  It is plain Python: on integer snapshots the sums are exact
    (below 2^53), so it equals numpy's mean/sum/max/min bit for bit.
    """
    s, m = space.num_sequences, space.num_states
    span = float(m - 1)
    check = space.check_degree  # s_i(f) is defined for the degrees 1 <= i <= s

    def extremum_profile(i):
        check(i)
        return span  # one moving record already reaches the full range

    return {
        "mean": QuerySpec(
            "mean", space,
            evaluate=lambda x: float(sum(x)) / len(x),
            sensitivity=lambda i: check(i) * span / s,
        ),
        "sum": QuerySpec(
            "sum", space,
            evaluate=lambda x: float(sum(x)),
            sensitivity=lambda i: check(i) * span,
        ),
        "max": QuerySpec(
            "max", space,
            evaluate=lambda x: float(max(x)),
            sensitivity=extremum_profile,
        ),
        "min": QuerySpec(
            "min", space,
            evaluate=lambda x: float(min(x)),
            sensitivity=extremum_profile,
        ),
    }


def brute_force_profile(query: QuerySpec, upto: int) -> list:
    """Exhaustive s_i(f) over all snapshot pairs at Hamming distance i.

    Only feasible on small spaces; used to certify the declared profiles.
    """
    states = query.space.states
    worst = [0.0] * (upto + 1)
    for a in states:
        fa = query.evaluate(a)
        for b in states:
            d = sum(x != y for x, y in zip(a, b))
            if 1 <= d <= upto:
                worst[d] = max(worst[d], abs(fa - query.evaluate(b)))
    return worst[1:]
