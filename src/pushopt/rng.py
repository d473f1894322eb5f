"""Deterministic random stream splitting.

All randomness in the package flows from a single master seed. Components
derive their own independent streams by naming a path, e.g.
``stream(seed, "member", 3)``. Paths are mapped onto numpy ``SeedSequence``
spawn keys, so streams are independent, reproducible and platform-stable.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_component(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path components must be non-negative: {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    raise TypeError(f"unsupported stream path component: {part!r}")


def seed_sequence(seed: int, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(_key_component(p) for p in path))


def stream(seed: int, *path) -> np.random.Generator:
    """A generator for the sub-stream named by ``path``."""
    return np.random.default_rng(seed_sequence(seed, *path))


def derive_seed(seed: int, *path) -> int:
    """A child master seed (63-bit) for the sub-stream named by ``path``."""
    words = seed_sequence(seed, *path).generate_state(2)
    return int((int(words[0]) << 31) ^ int(words[1]))


def uniform_int(rng: np.random.Generator, low: int, high: int) -> int:
    """``int(rng.integers(low, high))``, from the same draws, for Python
    ints with ``2 <= high - low < 2**32`` and both ends in the int64 range.

    This is numpy's 32-bit Lemire draw taken straight from the bit
    generator, without ``Generator.integers``' argument handling: one 32-bit
    word scaled by the width, redrawn while its low half falls below
    ``2**32 % width``. Like every stream in the package, ``rng`` is used by
    one thread only.
    """
    width = high - low
    bits = rng.bit_generator.ctypes
    next_uint32 = bits.next_uint32
    address = bits.state
    m = next_uint32(address) * width
    if m & 0xFFFFFFFF < width:
        threshold = 2**32 % width
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(address) * width
    return low + (m >> 32)
