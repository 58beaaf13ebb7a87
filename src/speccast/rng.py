"""Deterministic counter-based random streams.

Every stochastic draw in a decode session comes from a Philox stream keyed by
(session seed, index, purpose tag); the round stream's index is its block
of rounds. Philox is a counter-based generator,
so streams with distinct keys are statistically independent and each stream's
draw sequence is fully determined by its key, independent of scheduling or of
how other streams are consumed. This is what makes decode traces replayable
bit-for-bit from (config, data, seed) alone.

Purpose tags keep draws for different roles on disjoint streams, and a
decode uses two. The speculative round stream (``ROUND``) has one key per
block of 8 rounds and a fixed order: first the block's acceptance
uniforms, 8 rows of gamma, then its normals round-major, per round gamma
proposal rows and then one closing row, the round's target variate. A
session draws the uniforms at the block's first round and only the rounds
of normals it can still use, continuing the same generator when it needs
more; ``standard_normal`` continues a stream the same way however its
draws are split, so each round's rows are those of drawing the whole
block at once, before any of its rounds is decided. The target variate,
independent of the round's uniforms and proposal noise, closes the round
as a target draw on a full accept or a practical rejection; a lossless
rejection reflects its rejected proposal instead and leaves the variate
unread. So the practical and lossless decode variants consume the same
random numbers and differ only in how a rejected round closes. The
baselines draw all their noise from one ``DIRECT`` stream.

A decode does not build a generator per stream: each thread re-keys one
``ReusableStream`` in place, by handing the Philox state setter one state
document, kept as Python ints in lists, in which only the two key words
change. The setter converts lists about 2.5x faster than uint64 arrays, to
the same state, and the document also clears the buffer and the cached
32-bit half-word, so the draws after a rekey are those of ``stream()``
with that key, whatever the previous key's generator left behind.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for the streams.
# A tag is part of every key it makes, so the values never move; 3 and 4,
# the former practical-fallback and lossless-residual streams, stay unused.
ROUND = 0       # main round stream, one key per block of rounds: the
                # block's acceptance uniforms (drawn first, so variants
                # share common random numbers), then per round its proposal
                # noise and its closing target variate, in that fixed order
DIRECT = 5      # plain autoregressive sampling (baselines)

_MASK64 = (1 << 64) - 1
_ROUND_BITS = 48
_ROUND_MASK = (1 << _ROUND_BITS) - 1


def _key_words(seed: int, round_index: int, purpose: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of (seed, round, purpose)."""
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    if not 0 <= purpose < (1 << 8):
        raise ValueError(f"purpose tag out of range: {purpose}")
    return seed & _MASK64, (purpose << _ROUND_BITS) | (round_index & _ROUND_MASK)


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

    Re-keying is about seventeen times cheaper than constructing a fresh
    Generator with ``stream()`` (0.55 against 9.4 us on a 2-vCPU x86
    host), which matters in a decode session's set-up. Draws after
    ``rekey`` are bit-identical to draws from ``stream()`` with the same
    key. ``rekey`` writes the two key words itself, with the refusals of
    ``_key_words``: calling it took a third of the method's time.
    """

    def __init__(self) -> None:
        self._bg = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bg)
        # One state document serves every rekey: the setter copies it into
        # the generator, so only its key changes between calls, and its two
        # words are written in place. It holds Python ints in lists, which
        # the setter converts faster than uint64 arrays (0.37 against 0.91 us
        # a call on a 2-vCPU x86 host), to the same state. The counter stays
        # zero, a full buffer position forces a refill on the next draw, and
        # the cached 32-bit half-word is cleared, so nothing of the previous
        # key's draws carries over.
        state = self._bg.state
        state["state"] = {name: words.tolist() for name, words in state["state"].items()}
        self._state = {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in state.items()}
        self._state["buffer_pos"] = len(self._state["buffer"])
        self._key = self._state["state"]["key"]

    def rekey(self, seed: int, round_index: int, purpose: int) -> np.random.Generator:
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        if not 0 <= purpose < (1 << 8):
            raise ValueError(f"purpose tag out of range: {purpose}")
        key = self._key
        key[0] = seed & _MASK64
        key[1] = (purpose << _ROUND_BITS) | (round_index & _ROUND_MASK)
        self._bg.state = self._state
        return self.generator
