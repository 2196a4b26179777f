"""The batch seeding path equals NumPy's own, bit for bit.

`seed_keys` ports `np.random.SeedSequence(seed).generate_state(2, np.uint64)`
and `first_uniforms` the first Philox4x64-10 block behind
`generator(seed).random()`; both are compared with NumPy itself over
random seeds in [0, 2**64), the word-boundary seeds below and a derived
batch, and the block's 128-bit products with Python's exact ones on
every word edge.  Seeds that are not integers in [0, 2**64) are rejected
by name on both paths.
`derive_seeds` is compared with `derive_seed` child by child, and a
`uint64` array of seeds, which `seed_keys` takes as it is, with the list
path.  Array Laplace draws, which invert their uniforms in place, are
compared with the out-of-place expression bit for bit.

One-shot draws (`laplace_sample`, behind every `release`) re-key the
calling thread's Philox.  Each call of a random sequence equals a fresh
`Philox(seed)` bit for bit, whatever the calls before it left behind; a
Generator from `generator(seed)`, held across draws, keeps its stream;
threads releasing interleaved seeds get the serial values; bad scales,
seeds and dims are refused in that order; and a thread's 2,000 releases
build at most one Philox.
"""

import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdp import ModelError, SequenceDatabase, StateSpace, builtin_queries, laplace_sample, release
from csdp import rng as rng_module
from csdp.rng import (
    derive_seed,
    derive_seeds,
    first_laplace,
    first_uniforms,
    generator,
    laplace,
    rekeyed,
    seed_keys,
)

# The top bit of each 32-bit word of a seed, a full and an empty high word.
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
SEED_LISTS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40)
PROPERTY = settings(max_examples=50, deadline=None)


@PROPERTY
@given(SEED_LISTS)
@example(EDGE_SEEDS)
def test_keys_equal_seed_sequence(seeds):
    want = np.array([np.random.SeedSequence(s).generate_state(2, np.uint64) for s in seeds])
    got = seed_keys(seeds)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)
    # a uint64 array, taken as it is, and a strided view of one
    array = np.array(seeds, dtype=np.uint64)
    assert np.array_equal(seed_keys(array), want)
    assert np.array_equal(seed_keys(array[::2]), want[::2])


@PROPERTY
@given(SEED_LISTS, st.floats(1e-3, 1e3))
@example(EDGE_SEEDS, 1.0)
def test_first_draws_equal_generator(seeds, scale):
    want = np.array([generator(s).random() for s in seeds])
    assert first_uniforms(seeds).tobytes() == want.tobytes()
    want = np.array([laplace(generator(s), scale, None) for s in seeds])
    assert first_laplace(seeds, scale).tobytes() == want.tobytes()
    assert first_laplace(np.array(seeds, dtype=np.uint64), scale).tobytes() == want.tobytes()


def test_first_uniforms_of_a_derived_batch_equal_generator():
    """A batch longer than the property's lists, from `derive_seeds` as criterion 6 draws it."""
    seeds = derive_seeds(11, "ks", count=3000)
    want = np.array([generator(s).random() for s in seeds.tolist()])
    assert first_uniforms(seeds).tobytes() == want.tobytes()


_WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2**32, 2**64 - 1]


@pytest.mark.parametrize("m", [rng_module._PHILOX_M0, rng_module._PHILOX_M1, 2**64 - 1, 1])
def test_mulhilo_is_the_128_bit_product(m):
    """Both words of m * x on every word edge and random words, as Python's
    exact product gives them; x is read, not written."""
    x = np.array(_WORD_EDGES + [rng_module._PHILOX_M0, rng_module._PHILOX_M1]
                 + np.random.default_rng(m % 97).integers(0, 2**64, 64, dtype=np.uint64).tolist(),
                 dtype=np.uint64)
    kept = x.copy()
    hi, lo, t0, t1 = (np.empty_like(x) for _ in range(4))
    rng_module._mulhilo_into(m, x, hi, lo, t0, t1)
    assert np.array_equal(x, kept)
    assert hi.tolist() == [(m * v) >> 64 for v in x.tolist()]
    assert lo.tolist() == [(m * v) % 2**64 for v in x.tolist()]


@pytest.mark.parametrize("seeds, message", [
    ([3, -1], "seed must lie in [0, 2**64), got -1"),
    ([2**64], "seed must lie in [0, 2**64), got 18446744073709551616"),
    ([2**70 + 5], "seed must lie in [0, 2**64), got 1180591620717411303429"),
    (np.array([4, -7], dtype=np.int64), "seed must lie in [0, 2**64), got -7"),
    ([1.5], "seed: expected an integer, got 1.5"),
    ([2.0], "seed: expected an integer, got 2.0"),
    (np.array([1.5]), "seed: expected an integer, got np.float64(1.5)"),
    ([None], "seed: expected an integer, got None"),
    (np.array([2.0]), "seed: expected an integer, got np.float64(2.0)"),
    (np.array([[1, 2]], dtype=np.uint64), "seeds must be a 1-D sequence, got an array of shape (1, 2)"),
    (np.array([[3], [4]]), "seeds must be a 1-D sequence, got an array of shape (2, 1)"),
    ([True], "seed: expected an integer, got True"),  # a bool is not seed 1
    ([2, np.True_], "seed: expected an integer, got np.True_"),
])
def test_bad_batch_seeds_are_named(seeds, message):
    for fn in (seed_keys, first_uniforms):
        with pytest.raises(ModelError) as raised:
            fn(seeds)
        assert str(raised.value) == message


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed: expected an integer, got 1.5"),
    (np.float64(3.0), "seed: expected an integer, got np.float64(3.0)"),
    (math.nan, "seed: expected an integer, got nan"),
    (-1, "seed must lie in [0, 2**64), got -1"),
    (2**64, "seed must lie in [0, 2**64), got 18446744073709551616"),
    (True, "seed: expected an integer, got True"),
    (np.True_, "seed: expected an integer, got np.True_"),
])
def test_bad_seed_is_named(seed, message):
    with pytest.raises(ModelError) as raised:
        generator(seed)
    assert str(raised.value) == message


@pytest.mark.parametrize("count, message", [
    (True, "count: expected an integer, got True"),
    (2.5, "count: expected an integer, got 2.5"),
    (-1, "count must be >= 0, got -1"),
])
def test_bad_count_is_refused(count, message):
    with pytest.raises(ModelError) as raised:
        derive_seeds(7, "ks", count=count)
    assert str(raised.value) == message


def test_numpy_int_count_is_read():
    assert np.array_equal(derive_seeds(7, "ks", count=np.int64(3)), derive_seeds(7, "ks", count=3))
    assert derive_seeds(7, "ks", count=0).shape == (0,)


def test_integer_types_seed_alike():
    want = generator(12345).random()
    assert generator(np.int64(12345)).random() == want
    assert generator(np.uint64(12345)).random() == want


COORDS = st.lists(st.one_of(
    st.text(max_size=8),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
), max_size=3)


@PROPERTY
@given(st.integers(-2**70, 2**70), COORDS, st.integers(0, 30))
@example(0, [], 12)
@example(-1, ["ks-fran"], 11)
@example(2**64, [0.5, (1, "a")], 3)
def test_batch_children_equal_derive_seed(root, coords, count):
    want = [derive_seed(root, *coords, i) for i in range(count)]
    got = derive_seeds(root, *coords, count=count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == want
    assert seed_keys(got).tobytes() == seed_keys(want).tobytes()


@pytest.mark.parametrize("root", [1.5, 1.0, "1", None, True, np.True_])
def test_root_seed_that_is_not_an_integer_is_refused(root):
    message = f"root seed: expected an integer, got {root!r}"
    with pytest.raises(ModelError) as raised:
        derive_seed(root, "mse")
    assert str(raised.value) == message
    with pytest.raises(ModelError) as raised:
        derive_seeds(root, "mse", count=2)
    assert str(raised.value) == message


def test_integer_types_derive_alike():
    assert derive_seed(np.int64(7), "mse", 0.5) == derive_seed(7, "mse", 0.5)
    assert np.array_equal(derive_seeds(np.uint64(7), "ks", count=3), derive_seeds(7, "ks", count=3))
    # the payload of an int root is unchanged: repr((7, "mse", 0.5))
    digest = hashlib.sha256(repr((7, "mse", 0.5)).encode("utf-8")).digest()
    assert derive_seed(7, "mse", 0.5) == int.from_bytes(digest[:8], "big")


def _laplace_expression(u, scale):
    """The out-of-place inverse cdf the array path must equal."""
    u = u - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.floats(1e-3, 1e3), st.integers(1, 3000))
@example(0, 1.0, 1)
def test_array_laplace_is_the_expression_bit_for_bit(seed, scale, size):
    rng = generator(seed)
    u = rng.random(size)
    got = laplace(generator(seed), scale, size)
    assert got.tobytes() == _laplace_expression(u, scale).tobytes()
    # the scalar draw keeps its float expression and equals element 0
    one = laplace(generator(seed), scale, None)
    assert isinstance(one, np.float64) and one == _laplace_expression(u[0], scale) == got[0]


def test_uniforms_at_the_inverse_cdf_edges():
    """u = 0 gives -inf, u = 0.5 gives +0.0 and the doubles beside them
    their finite draws, on the array path as in the expression."""
    u = np.array([0.0, np.nextafter(0.0, 1.0), np.nextafter(0.5, 0.0), 0.5,
                  np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)])
    with np.errstate(divide="ignore"):
        got = rng_module._invert_laplace(u.copy(), 2.0)
        assert got.tobytes() == _laplace_expression(u, 2.0).tobytes()
    assert got[0] == -np.inf and got[3] == 0.0 and not np.signbit(got[3])


def test_array_draws_write_into_no_array_the_caller_holds():
    seeds = derive_seeds(5, "hold", count=64)
    kept = seeds.copy()
    u = first_uniforms(seeds)
    draws = first_laplace(seeds, 2.0)
    assert np.array_equal(seeds, kept) and not np.shares_memory(draws, seeds)
    assert draws.tobytes() == _laplace_expression(u, 2.0).tobytes()
    rng = generator(5)
    first, second = laplace(rng, 1.0, 8), laplace(rng, 1.0, 8)
    assert not np.shares_memory(first, second)
    assert np.concatenate([first, second]).tobytes() == laplace(generator(5), 1.0, 16).tobytes()


ONE_SHOT_EDGES = [(seed, dim, 1.5) for seed in EDGE_SEEDS for dim in (None, 1, 5)]


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.none() | st.integers(0, 9),
                          st.floats(1e-3, 1e3)), min_size=1, max_size=12))
@example(ONE_SHOT_EDGES)
def test_one_shot_draws_equal_a_fresh_philox(calls):
    """Every call equals a fresh Philox's draw, also after an odd-sized draw
    left the thread's Philox mid-block, or a 32-bit draw left it a spare word."""
    for seed, dim, scale in calls:
        want = laplace(np.random.Generator(np.random.Philox(seed)), scale, dim)
        got = laplace_sample(scale, dim, seed)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        rekeyed(seed).integers(2**32, dtype=np.uint32)


def test_held_generator_keeps_its_stream():
    held = generator(77)
    got = []
    for i in range(16):
        got.append(held.random(3))
        laplace_sample(1.0, None, 1000 + i)
        laplace_sample(2.0, 5, 77)
    assert np.concatenate(got).tobytes() == generator(77).random(48).tobytes()


def test_threads_releasing_interleaved_seeds_get_the_serial_values():
    """Four threads (more than the cores of a small host) release the seeds
    k, k + 4, ... of one list, switching as often as the interpreter allows."""
    space = StateSpace(2, 2)
    db = SequenceDatabase(space, np.array([[0, 1], [1, 0], [1, 1], [0, 0]]))
    query = builtin_queries(space)["mean"]
    seeds = derive_seeds(3, "threads", count=2000).tolist()

    def values(part):
        return [release(db, 4, (1, 2), query, 0.7, seed).value for seed in part]

    parts = [seeds[k::4] for k in range(4)]
    serial = [values(part) for part in parts]
    threaded = [None] * 4

    def work(k):
        threaded[k] = values(parts[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


BAD_ARGUMENTS = {
    "scale": {0.0: "noise scale must be positive, got 0.0",
              math.nan: "noise scale must be finite, got nan"},
    "seed": {-1: "seed must lie in [0, 2**64), got -1",
             1.5: "seed: expected an integer, got 1.5"},
    "dim": {-1: "dim must be >= 0, got -1", 2.5: "dim: expected an integer, got 2.5"},
}


@pytest.mark.parametrize("scale, seed, dim", [
    case for case in itertools.product([1.0, *BAD_ARGUMENTS["scale"]], [3, *BAD_ARGUMENTS["seed"]],
                                       [None, 2, *BAD_ARGUMENTS["dim"]])
    if case[0] != 1.0 or case[1] != 3 or case[2] not in (None, 2)
])
def test_bad_one_shot_arguments_are_refused_in_order(scale, seed, dim):
    """Scale first, then seed, then dim: the first bad one names the error."""
    first = next(BAD_ARGUMENTS[name][value] for name, value in
                 (("scale", scale), ("seed", seed), ("dim", dim))
                 if value in BAD_ARGUMENTS[name])
    with pytest.raises(ModelError) as raised:
        laplace_sample(scale, dim, seed)
    assert str(raised.value) == first


def test_releases_build_at_most_one_philox(monkeypatch):
    """2,000 releases in a new thread build at most one Philox, as seen from
    csdp.rng: the thread's own, which every release re-keys."""
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(rng_module.np.random, "Philox", counted)
    space = StateSpace(2, 2)
    db = SequenceDatabase(space, np.array([[0, 1], [1, 0], [1, 1]]))
    query = builtin_queries(space)["sum"]
    thread = threading.Thread(
        target=lambda: [release(db, 3, (0, 1), query, 1.0, seed) for seed in range(2000)])
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(built) <= 1, len(built)
