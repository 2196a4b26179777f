"""Deterministic random-number plumbing.

Every stochastic operation in this package takes an explicit integer seed.
Seeds for grid cells are derived from a root seed by hashing the root
together with the cell's coordinates (the "splitting rule"), so serial and
parallel sweeps see identical streams.  The underlying bit generator is
numpy's counter-based Philox, which produces the same output on every
platform.

Splitting rule (version 1, changing it is a breaking change):
    child_seed = first 8 bytes (big-endian) of
                 SHA-256(repr((root_seed,) + coordinates))
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *coords) -> int:
    """Derive a child seed from a root seed and hashable grid coordinates."""
    payload = repr((int(root_seed),) + tuple(coords)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def generator(seed: int) -> np.random.Generator:
    """A Philox-backed Generator for the given seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def laplace(rng: np.random.Generator, scale: float, size) -> np.ndarray | float:
    """Laplace(0, scale) draws via inverse CDF from uniform variates.

    Implemented explicitly (rather than through Generator.laplace) so the
    draw is a fixed, documented function of the uniform stream.  With
    size=None one variate is drawn and returned as a scalar, the same
    double as the single element that size=1 returns.
    """
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
