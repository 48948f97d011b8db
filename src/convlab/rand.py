"""Deterministic substream derivation.

Every Monte Carlo routine draws from a counter-based Philox generator
keyed by a hash of (master seed, label parts).  Adding experiments or
reordering reps never perturbs existing streams, and reductions over
reps are schedule-independent.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream_key(master: int, *parts) -> int:
    text = "/".join([str(int(master)), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master: int, *parts) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=substream_key(master, *parts)))


def substreams(keys):
    """One Generator per key of the iterable (read lazily), each drawing
    exactly what Generator(Philox(key=key)) would.  It is one generator
    re-keyed in place: the key goes into a fresh Philox state (counter,
    buffer and the cached 32-bit half cleared), which costs a fraction of
    building a Philox, and its OS entropy read, per key.  A yielded
    generator is valid until the next."""
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    fresh = bits.state  # a new Philox's state, as a copy the setter reads from
    for key in keys:
        fresh["state"]["key"][0] = key
        bits.state = fresh
        yield rng
