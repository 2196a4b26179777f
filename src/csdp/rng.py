"""Deterministic random-number plumbing.

Every stochastic operation in this package takes an explicit seed, an
integer in [0, 2**64).  Seeds for grid cells are derived from a root seed
(any integer) by hashing the root together with the cell's coordinates (the
"splitting rule"), so a cell's stream depends only on its coordinates, not
on which cells run before it.
The underlying bit generator is numpy's counter-based Philox, which
produces the same output on every platform.

One-shot draws.  `generator(seed)` builds a fresh SeedSequence, Philox and
Generator on every call, because its callers (`kernel.sample_trajectory`,
the simulated MSE, criterion 8) hold the Generator across many draws, so
it must belong to them alone.  A draw that needs one seed's stream for one
call only, `mechanism.laplace_sample` behind every `release`, instead
re-keys the calling thread's own Philox through `rekeyed(seed)`: its key
is set to `np.random.SeedSequence(seed).generate_state(2, np.uint64)`,
the key `Philox(seed)` derives, and its counter, buffer and spare word to
those of a fresh Philox.  Philox is counter-based, so its stream from
then on is `generator(seed)`'s bit for bit; building the Philox and the
Generator was most of a release's time.  The Generator is held per thread
(`threading.local`), so threads never share a stream, and it is re-keyed
on every call, so no draw depends on an earlier one.

Splitting rule (version 1, changing it is a breaking change):
    child_seed = first 8 bytes (big-endian) of
                 SHA-256(repr((root_seed,) + coordinates))
`derive_seeds` gives the children i = 0..count-1 of one coordinate prefix,
bit for bit, as one uint64 array, hashing the shared prefix once.

Batch path.  `seed_keys` is a NumPy-array port of
`np.random.SeedSequence(seed).generate_state(2, np.uint64)`, the Philox
key that `generator(seed)` uses: SeedSequence's documented pool-size-4
`hashmix`/`mix` hash over the seed's two 32-bit words.  It takes a 1-D
uint64 array, such as `derive_seeds` returns, as it is, since the dtype
proves every seed lies in [0, 2**64); any other sequence is checked seed
by seed.  `first_uniforms` adds the first Philox4x64-10 block (counter
(1, 0, 0, 0); Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011) and gives `generator(seed).random()` for a whole array of
seeds in one pass, and `first_laplace` the first draw of
`laplace(generator(seed), scale, None)`.  Because Philox is counter-based,
that first draw is a pure function of the key.  The block's first round
maps that counter to (k0, 0, k1, M0) in closed form; the other nine run
as in-place ufuncs over a fixed set of buffers, each 128-bit product from
32-bit halves, so no round allocates an array.  The port holds because
NumPy's stream-compatibility policy (NEP 19) fixes SeedSequence's output
and the Philox stream for a given seed.  tests/test_rng.py pins the keys
and the first draws, bit for bit, against NumPy itself, and
tests/test_vectorised.py pins `mechanism.release_values` against per-seed
releases.

Draws from uniforms.  An array of Laplace draws inverts its own fresh
uniforms in place, by the same operations as the scalar draw.  A state
is drawn from a law by one rule, `threshold_draws`: a uniform u maps to
min(#{j : cum[j] <= u}, n-1), cum the law's cumulative sums held in a
`threshold_table`; `kernel.sample_trajectory`, the simulated MSE and
criterion 8 draw every state so.  The rule has two shapes that give the
same integer: an array of uniforms at one column of a table at most 32
wide counts the cuts each uniform passes (criterion 8's snapshots, the
simulated MSE's start states), and every other draw finds its count by
binary lifting over the table (the MSE's steps, whose column changes
from chain to chain, wider tables and single uniforms).
"""

from __future__ import annotations

import hashlib
import math
import threading

import numpy as np

from .model import ModelError, integer_value

# SeedSequence with its default pool of four 32-bit words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# Philox4x64-10.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW_HALF = np.uint64(_MASK32)
_HALF = np.uint64(32)


def derive_seed(root_seed: int, *coords) -> int:
    """Derive a child seed from a root seed and hashable grid coordinates."""
    payload = repr((integer_value(root_seed, "root seed"),) + tuple(coords)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(root_seed: int, *coords, count: int) -> np.ndarray:
    """`derive_seed(root_seed, *coords, i)` for i in range(count), as one
    uint64 array.

    The payloads share the repr prefix "(root_seed, *coords, ", so it is
    hashed once and each child copies that SHA-256 state and adds "i)".
    The children's 8-byte digest prefixes are joined and read as big-endian
    words in one pass, with no Python int per child.  count is an integer >= 0.
    """
    integer_value(count, "count", 0)
    head = repr((integer_value(root_seed, "root seed"),) + tuple(coords) + (0,))[: -len("0)")]
    prefix = hashlib.sha256(head.encode("utf-8"))
    digests = []
    for i in range(count):
        h = prefix.copy()
        h.update(b"%d)" % i)
        digests.append(h.digest()[:8])
    return np.frombuffer(b"".join(digests), ">u8").astype(np.uint64)


def _check_seed(seed) -> int:
    """seed as an int, rejected by name unless it is an integer in [0, 2**64)."""
    value = seed if type(seed) is int else integer_value(seed, "seed")  # releases pass ints
    if not 0 <= value < 2**64:
        raise ModelError(f"seed must lie in [0, 2**64), got {value}")
    return value


def generator(seed: int) -> np.random.Generator:
    """A new Philox-backed Generator for the given seed, an integer in
    [0, 2**64), which the caller may hold across draws."""
    return np.random.Generator(np.random.Philox(_check_seed(seed)))


# Each thread's Generator for one-shot draws; see `rekeyed`.
_THREAD = threading.local()
# A fresh Philox's counter and buffer; buffer_pos 4 marks the buffer empty.
_ZEROS = (0, 0, 0, 0)


def rekeyed(seed: int) -> np.random.Generator:
    """The calling thread's Generator, re-keyed so that its stream is
    `generator(seed)`'s bit for bit; seed is an integer in [0, 2**64).

    It is the same object on every call in a thread, and the next call
    re-keys it, so the caller draws from it within one call only.
    """
    key = np.random.SeedSequence(_check_seed(seed)).generate_state(2, np.uint64)
    try:
        rng = _THREAD.rng
    except AttributeError:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _hash_constants(init, mult, count):
    """The (xor, multiply) constant pairs of `count` successive hashmix calls."""
    pairs = []
    h = init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        pairs.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return pairs


def _hashmix(value, constants):
    value = (value ^ constants[0]) * constants[1]
    return value ^ (value >> _XSHIFT)


def seed_keys(seeds) -> np.ndarray:
    """The (len(seeds), 2) uint64 Philox keys of the 1-D sequence seeds:
    row i equals `np.random.SeedSequence(seeds[i]).generate_state(2, np.uint64)`."""
    if isinstance(seeds, np.ndarray) and seeds.ndim != 1:
        raise ModelError(f"seeds must be a 1-D sequence, got an array of shape {seeds.shape}")
    # A uint64 array is taken as it is: its dtype proves every seed lies in
    # [0, 2**64).  Any other seed is checked on its own: np.asarray would
    # turn a list holding seeds on both sides of 2**63 into float64, and a
    # float array cast to uint64 truncates.
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.fromiter(map(_check_seed, seeds), dtype=np.uint64)
    # A seed below 2**64 is two 32-bit words, low first.  SeedSequence pads
    # its entropy with hashmix(0) up to the pool size, so a seed below 2**32
    # (one word; zero is the one word 0) hashes like its two words.
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * (_POOL_SIZE - 2)
    mix_constants = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2))
    pool = [_hashmix(w, next(mix_constants)) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * _hashmix(pool[src], next(mix_constants)))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(2, np.uint64): four 32-bit words, read as two
    # little-endian 64-bit words.
    state = [_hashmix(w, c).astype(np.uint64)
             for w, c in zip(pool, _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE))]
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=1)


def _mulhilo_into(m: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                  t0: np.ndarray, t1: np.ndarray) -> None:
    """Write the high and low 64-bit words of the 128-bit product m * x into
    hi and lo, from 32-bit halves, with t0 and t1 as scratch; x is only read.

    No sum wraps: each adds less than 2**32 to a product of two 32-bit
    halves, which is at most 2**64 - 2**33 + 1.
    """
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    np.bitwise_and(x, _LOW_HALF, out=t0)  # x_lo
    np.multiply(t0, m_lo, out=t1)
    t1 >>= _HALF
    t0 *= m_hi
    t0 += t1  # x_lo m_hi + (x_lo m_lo >> 32)
    np.bitwise_and(t0, _LOW_HALF, out=t1)
    t0 >>= _HALF
    np.right_shift(x, _HALF, out=hi)  # x_hi
    np.multiply(hi, m_lo, out=lo)
    t1 += lo  # x_hi m_lo + the low half above
    t1 >>= _HALF
    hi *= m_hi
    hi += t0
    hi += t1
    np.multiply(x, np.uint64(m), out=lo)


def first_uniforms(seeds) -> np.ndarray:
    """`generator(seeds[i]).random()` for every seed, as one float64 array."""
    key = seed_keys(seeds)
    k0, k1 = key[:, 0].copy(), key[:, 1].copy()
    # Philox increments its counter before the first block, so it is
    # (1, 0, 0, 0), and the first round, under the key as it is, maps it to
    # (k0, 0, k1, M0) in closed form: mulhilo(M0, 1) = (0, M0) and
    # mulhilo(M1, 0) = (0, 0).
    c0, c1, c2, c3 = k0.copy(), np.zeros_like(k0), k1.copy(), np.full_like(k0, _PHILOX_M0)
    # The other rounds write the new words into four free buffers; the old
    # words' buffers are the next round's free ones.
    hi0, lo0, hi1, lo1, t0, t1 = (np.empty_like(k0) for _ in range(6))
    for _ in range(_PHILOX_ROUNDS - 1):
        k0 += np.uint64(_PHILOX_W0)
        k1 += np.uint64(_PHILOX_W1)
        _mulhilo_into(_PHILOX_M0, c0, hi0, lo0, t0, t1)
        _mulhilo_into(_PHILOX_M1, c2, hi1, lo1, t0, t1)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    # Generator.random() takes word 0 of the block as a 53-bit double.
    return (c0 >> 11).astype(np.float64) * 2.0**-53


def _invert_laplace(u: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(0, scale) variates from an array of uniforms u in [0, 1),
    written over u, which the caller gives up.

    The operations and their order are those of the scalar expression in
    `laplace`, -scale * sign(u - 0.5) * log1p(-2 |u - 0.5|), so the bits are
    too (a product's operands may swap: IEEE multiplication commutes); the
    one temporary is the sign.
    """
    u -= 0.5
    sign = np.sign(u)
    sign *= -scale
    np.abs(u, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    u *= sign
    return u


def laplace(rng: np.random.Generator, scale: float, size) -> np.ndarray | float:
    """Laplace(0, scale) draws via inverse CDF from uniform variates.

    Implemented explicitly (rather than through Generator.laplace) so the
    draw is a fixed, documented function of the uniform stream.  With
    size=None one variate is drawn and returned as a scalar, the same
    double as the single element that size=1 returns.  That draw stays a
    float expression: the same steps on a 0-d array cost several times more.
    """
    if size is None:
        u = rng.random() - 0.5
        return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    return _invert_laplace(rng.random(size), scale)


def first_laplace(seeds, scale: float) -> np.ndarray:
    """`laplace(generator(seeds[i]), scale, None)` for every seed, as one array."""
    return _invert_laplace(first_uniforms(seeds), scale)


# Widest `threshold_table` whose single-column draws count cuts.
_COUNT_WIDTH = 32


def threshold_table(columns: np.ndarray) -> np.ndarray:
    """Row c holds the first n-1 cumulative sums of column c of an (n, k)
    column-stochastic matrix (an (n,) law is one column), padded with +inf
    to a power-of-two width: the table `threshold_draws` reads."""
    columns = columns.reshape(len(columns), -1)
    n = columns.shape[0]
    table = np.full((columns.shape[1], 1 << (n - 1).bit_length()), np.inf)
    np.cumsum(columns[:-1], axis=0, out=table[:, : n - 1].T)  # no n x k temporary
    return table


def threshold_draws(table: np.ndarray, column, u: np.ndarray) -> np.ndarray:
    """The one sampling rule: each uniform u maps to min(#{j : cum[j] <= u}, n-1),
    cum the cumulative sums of its column of `threshold_table` (`column`, an
    int or an int array as long as u).  A zero-probability state is never
    drawn.

    Two shapes give the same integer, bit for bit
    `min(np.searchsorted(cum, u, side="right"), n - 1)`:
    - An array u at one column of a table at most `_COUNT_WIDTH` wide
      (criterion 8's snapshots, the simulated MSE's start states): count
      the cuts each u passes, one comparison pass over u per finite cut.
      The row's finite cuts are cum[0..n-2], so the count is
      #{j <= n-2 : cum[j] <= u}, at most n-1.  That is the rule's number:
      cum never decreases, so cum[n-1] <= u only when u passes every
      other cut too, and then both are n-1.
    - Otherwise, branch-free binary lifting over the table's rows: the
      thresholds of a row never decrease (cumsums of nonnegative entries do
      not in floating point), so the count up to u is a prefix length, and
      the +inf padding caps it at n-1 with no clip.
    Counting makes a cheap pass per cut and lifting a gather per halving of
    the width.  At one column and 4,000 uniforms counting wins up to n = 32
    (53 against 63 us there) and loses from n = 64 (88 against 71 us); at
    10^5 uniforms and n = 4 it takes 81 us against 1.97 ms (2 shared x86-64
    vCPUs).  An array column costs counting a gather per cut, and a single
    uniform a call per cut, so both lose to lifting from n = 4.
    """
    width = table.shape[1]
    if width <= _COUNT_WIDTH and np.ndim(column) == 0 and np.ndim(u):
        # The counts stay below 32, so they add up in uint8, the passed
        # flags read as 0 and 1; that is about four times faster than intp.
        count = np.zeros(np.shape(u), dtype=np.uint8)
        passed = np.empty(np.shape(u), dtype=bool)
        for cut in table[column].tolist():
            if cut == math.inf:
                break
            np.less_equal(cut, u, out=passed)
            count += passed.view(np.uint8)
        return count.astype(np.intp)
    flat = table.ravel()
    base = column * width - 1
    pos = np.zeros(np.shape(u), dtype=np.intp)
    k = width // 2
    while k:
        pos += k * (flat[base + pos + k] <= u)
        k //= 2
    return pos
