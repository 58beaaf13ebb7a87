"""Deterministic counter-based random streams.

Every stochastic draw in a decode session comes from a Philox stream keyed by
(session seed, index, purpose tag); the round stream's index is its block
of rounds. Philox is a counter-based generator,
so streams with distinct keys are statistically independent and each stream's
draw sequence is fully determined by its key, independent of scheduling or of
how other streams are consumed. This is what makes decode traces replayable
bit-for-bit from (config, data, seed) alone.

Purpose tags keep draws for different roles on disjoint streams, and a
decode uses two. The speculative round stream (``ROUND``) is drawn a block
of rounds at a time, in full and in a fixed order, before any of those
rounds is decided: acceptance uniforms, proposal noise, then one target
variate per round. That variate closes the round whatever the accept
decision was, as a target draw or, on a lossless rejection, mapped to its
residual draw; it is independent of the round's uniforms and proposal
noise. So the practical and lossless decode variants consume the same
random numbers and differ only in what a rejected round makes of its
variate. The baselines draw all their noise from one ``DIRECT`` stream.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for the streams.
# A tag is part of every key it makes, so the values never move; 3 and 4,
# the former practical-fallback and lossless-residual streams, stay unused.
ROUND = 0       # main round stream: acceptance uniforms (drawn first, so
                # variants share common random numbers), proposal noise,
                # then the round-closing target variates, in that fixed order
DIRECT = 5      # plain autoregressive sampling (baselines)

_MASK64 = (1 << 64) - 1
_ROUND_BITS = 48


def _key_words(seed: int, round_index: int, purpose: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of (seed, round, purpose)."""
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    if not 0 <= purpose < (1 << 8):
        raise ValueError(f"purpose tag out of range: {purpose}")
    hi = (purpose << _ROUND_BITS) | (round_index & ((1 << _ROUND_BITS) - 1))
    return seed & _MASK64, hi & _MASK64


def stream(seed: int, round_index: int = 0, purpose: int = DIRECT) -> np.random.Generator:
    """Fresh generator for the stream keyed by (seed, round, purpose)."""
    key = np.array(_key_words(seed, round_index, purpose), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        # the generator, so only its key changes between calls, and its two
        # words are written in place. The counter stays zero and a full
        # buffer position forces a refill on the next draw.
        self._state = self._bg.state
        self._state["buffer_pos"] = len(self._state["buffer"])
        self._key = self._state["state"]["key"]

    def rekey(self, seed: int, round_index: int, purpose: int) -> np.random.Generator:
        self._key[0], self._key[1] = _key_words(seed, round_index, purpose)
        self._bg.state = self._state
        return self.generator
