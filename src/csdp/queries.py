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
        return [self.sensitivity(i) for i in range(1, upto + 1)]


def k_sensitivity(query: QuerySpec, k: int) -> float:
    """d(k) = s_k(f) / s_1(f)."""
    if not 1 <= k <= query.space.num_sequences:
        raise ModelError(f"correlation degree {k} out of range [1, {query.space.num_sequences}]")
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

    def clamp(i):
        if not 1 <= i <= s:
            raise ModelError(f"sensitivity profile defined for 1 <= i <= {s}, got {i}")
        return i

    def extremum_profile(i):
        clamp(i)
        return span  # one moving record already reaches the full range

    return {
        "mean": QuerySpec(
            "mean", space,
            evaluate=lambda x: float(sum(x)) / len(x),
            sensitivity=lambda i: clamp(i) * span / s,
        ),
        "sum": QuerySpec(
            "sum", space,
            evaluate=lambda x: float(sum(x)),
            sensitivity=lambda i: clamp(i) * span,
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
