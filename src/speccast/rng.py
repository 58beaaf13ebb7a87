"""Deterministic counter-based random streams.

Every stochastic draw in a decode session comes from a Philox stream keyed by
(session seed, round index, purpose tag). Philox is a counter-based generator,
so streams with distinct keys are statistically independent and each stream's
draw sequence is fully determined by its key, independent of scheduling or of
how other streams are consumed. This is what makes decode traces replayable
bit-for-bit from (config, data, seed) alone.

Purpose tags keep draws for different roles on disjoint streams. In
particular the fallback/extension draws never share a stream with the
acceptance uniforms, so the practical and lossless decode variants consume
common random numbers up to the point where their behavior diverges.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for the per-round streams.
ROUND = 0       # main round stream: acceptance uniforms (drawn first, so
                # variants share common random numbers), proposal noise,
                # then the block-extension draw, in that fixed order
FALLBACK = 3    # target draw after a rejection (practical variant)
RESIDUAL = 4    # residual thinning draws (lossless variant)
DIRECT = 5      # plain autoregressive sampling (baselines)

_MASK64 = (1 << 64) - 1
_ROUND_BITS = 48


def _key(seed: int, round_index: int, purpose: int) -> np.ndarray:
    """Pack (seed, round, purpose) into a 128-bit Philox key."""
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    if not 0 <= purpose < (1 << 8):
        raise ValueError(f"purpose tag out of range: {purpose}")
    hi = (purpose << _ROUND_BITS) | (round_index & ((1 << _ROUND_BITS) - 1))
    return np.array([seed & _MASK64, hi & _MASK64], dtype=np.uint64)


def stream(seed: int, round_index: int = 0, purpose: int = DIRECT) -> np.random.Generator:
    """Fresh generator for the stream keyed by (seed, round, purpose)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, round_index, purpose)))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent session seed from a base seed and index path.

    Used to give each channel / window / replication its own stream family
    without manual seed arithmetic. SeedSequence hashing makes nearby index
    paths statistically independent.
    """
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


class ReusableStream:
    """A single Philox generator re-keyed in place.

    Re-keying is about 3x cheaper than constructing a fresh Generator,
    which matters in the per-round decode loop. Draws after ``rekey`` are
    bit-identical to draws from ``stream()`` with the same key.
    """

    def __init__(self) -> None:
        self._bg = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bg)

    def rekey(self, seed: int, round_index: int, purpose: int) -> np.random.Generator:
        st = self._bg.state
        st["state"]["key"][:] = _key(seed, round_index, purpose)
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = len(st["buffer"])  # force a refill on next draw
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self.generator
