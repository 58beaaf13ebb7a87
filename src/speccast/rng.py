"""Deterministic counter-based random streams.

Every stochastic draw in a decode session comes from a Philox stream keyed by
(session seed, round index, purpose tag). Philox is a counter-based generator,
so streams with distinct keys are statistically independent and each stream's
draw sequence is fully determined by its key, independent of scheduling or of
how other streams are consumed. This is what makes decode traces replayable
bit-for-bit from (config, data, seed) alone.

Purpose tags keep draws for different roles on disjoint streams. The decode
round stream is drawn a block of rounds at a time, in full and in a fixed
order, before any of those rounds is decided: acceptance uniforms, proposal
noise, then one target variate per round. That variate closes the round
whenever it does not end in a residual draw (all proposals accepted, or a
practical rejection); it is independent of the round's uniforms and
proposal noise, so it is a target draw whatever the accept decision was.
The residual sampler draws from its own per-round stream: one normal
vector, then one uniform. So the practical and lossless decode variants
consume common random numbers up to the point where their behavior
diverges.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for the per-round streams.
# A tag is part of every key it makes, so the values never move; 3, the
# former practical-fallback stream, stays unused.
ROUND = 0       # main round stream: acceptance uniforms (drawn first, so
                # variants share common random numbers), proposal noise,
                # then the round-closing target draw, in that fixed order
RESIDUAL = 4    # residual draw of a rejected lossless round: standard_normal(d),
                # then one random(), in that order
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
        # One state document serves every rekey: the setter copies it into
        # the generator, so only its key changes between calls. The counter
        # stays zero and a full buffer position forces a refill on the next
        # draw.
        self._state = self._bg.state
        self._state["buffer_pos"] = len(self._state["buffer"])

    def rekey(self, seed: int, round_index: int, purpose: int) -> np.random.Generator:
        self._state["state"]["key"][:] = _key(seed, round_index, purpose)
        self._bg.state = self._state
        return self.generator
