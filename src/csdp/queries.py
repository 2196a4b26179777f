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
