"""Per-assignment random streams for the multi-lane batch runtime.

Above one lane, every scheduler assignment draws from its own stream: the
one ``numpy.random.default_rng([seed, stream])`` would start
(``default_rng([stream])`` when the seed is None). Building a generator per
assignment costs more than the assignment's own draws, so this module
reaches the same streams without building any:

* :func:`pcg64_states` runs numpy's ``SeedSequence`` entropy mixing and
  state generation for a whole wave of stream ids at once, as uint32 array
  arithmetic, then applies PCG64's seeding step to each result. The output
  is the ``(state, inc)`` pair ``PCG64(SeedSequence(entropy))`` would hold.
* :class:`StreamGenerator` owns one ``PCG64``/``Generator`` pair and
  re-positions it onto each of those pairs in turn, clearing the 32-bit
  buffer so no half-used word leaks from one stream into the next.

Both algorithms are the ones numpy's random-number policy keeps stable
across releases: ``SeedSequence`` is O'Neill's ``seed_seq`` hash with a
four-word pool, and PCG64 seeds with ``pcg_setseq_128_srandom_r``. Every
draw therefore equals the freshly built generator's draw, bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_U32 = np.uint32
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875  # entropy-mixing hash
_GEN_INIT, _GEN_MULT = 0x8B51F9DD, 0x58F38DED  # state-generation hash
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)  # pool-word combiner
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_calls(init: int, mult: int, first: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of hash calls ``first .. first+count-1``.

    Call ``k`` xors with ``c_k`` and multiplies by ``c_{k+1}``, where
    ``c_k = init * mult**k`` mod 2**32. The sequence never depends on the
    data, so every element of a wave uses the same constants.
    """
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count + 1)]
    return list(zip(consts, consts[1:]))


def _columns(calls: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row hash constants as (rows, 1) xor and multiply columns."""
    table = np.array(calls, dtype=_U32)
    return table[:, :1], table[:, 1:]


# Entropy mixing makes one hash call per pool word, then one per ordered
# pair of distinct pool words (source by source), then four per entropy
# word past the pool. State generation makes one call per output word.
_FILL = _columns(_hash_calls(_MIX_INIT, _MIX_MULT, 0, _POOL))
_ROUNDS = []
for _src in range(_POOL):
    _calls = iter(_hash_calls(_MIX_INIT, _MIX_MULT, _POOL + (_POOL - 1) * _src, _POOL - 1))
    # The source row keeps its value; its constants are placeholders.
    _ROUNDS.append(
        (_src, _columns([(0, 0) if d == _src else next(_calls) for d in range(_POOL)]))
    )
_GENERATE = _columns(_hash_calls(_GEN_INIT, _GEN_MULT, 0, 2 * _POOL))


def _extra_columns(position: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants that mix entropy word *position*, past the pool, into each pool word."""
    first = _POOL * _POOL + (position - _POOL) * _POOL
    return _columns(_hash_calls(_MIX_INIT, _MIX_MULT, first, _POOL))


def _words(value: int) -> list[int]:
    """*value*'s uint32 words, least significant first (0 is one word)."""
    value = int(value)
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(pool: np.ndarray, words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Combine each pool word with the hash of *words* under its own constants."""
    mixed = _hashmix(words, xor, mul)
    mixed *= _MIX_R
    out = pool * _MIX_L
    out -= mixed
    out ^= out >> 16
    return out


def pcg64_states(seed: int | None, streams: Sequence[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(entropy))`` for each stream.

    The entropy is ``[seed, stream]``, or ``[stream]`` when *seed* is None.
    *seed* is a non-negative int of any size; stream ids are non-negative
    and below 2**64. Entropy longer than the four-word pool (a seed of 2**64
    or more, say) is mixed in word by word, as numpy does.
    """
    seed_words = [] if seed is None else _words(seed)
    ns = len(seed_words)
    ids = np.asarray(streams, dtype=np.uint64)
    high = (ids >> np.uint64(32)).astype(_U32)
    # Rows: the seed's words, then each id's low and high word. Pool
    # positions past an element's entropy hash a zero word, so zero padding
    # reproduces a shorter entropy exactly inside the pool.
    rows = max(_POOL, ns + 2)
    entropy = np.zeros((rows, ids.size), dtype=_U32)
    entropy[:ns] = np.array(seed_words, dtype=_U32)[:, None]
    entropy[ns] = ids.astype(_U32)  # truncates to the low word
    entropy[ns + 1] = high

    pool = _hashmix(entropy[:_POOL], *_FILL)
    # Mix every pool word into every other, source by source.
    for src, columns in _ROUNDS:
        out = _mix(pool, pool[src], *columns)
        out[src] = pool[src]
        pool = out
    # Entropy words past the pool count only for ids whose entropy reaches
    # them: an id below 2**32 is one word long.
    lengths = ns + 1 + (high != 0)
    for position in range(_POOL, rows):
        out = _mix(pool, entropy[position], *_extra_columns(position))
        pool = np.where(lengths > position, out, pool)

    state = _hashmix(np.concatenate((pool, pool)), *_GENERATE)
    # Little-endian word pairs make the four uint64s numpy seeds PCG64 with:
    # initstate (high, low), then initseq (high, low).
    quads = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()
    pairs = []
    for seed_high, seed_low, seq_high, seq_low in quads:
        inc = ((seq_high << 65) | (seq_low << 1) | 1) & _MASK128
        start = ((((seed_high << 64) | seed_low) + inc) * _PCG_MULT + inc) & _MASK128
        pairs.append((start, inc))
    return pairs


class StreamGenerator:
    """One ``Generator`` that is moved onto per-assignment streams in turn.

    Not thread-safe: each owner (one scheduler) uses its own, from one thread.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self._bit_generator)
        self._position = {"state": 0, "inc": 0}
        self._state = {
            "bit_generator": "PCG64",
            "state": self._position,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def walk(self, seed: int | None, streams: Sequence[int]) -> Iterator[np.random.Generator]:
        """Yield :attr:`generator` at the start of each of *streams*, in order.

        Each step re-positions the same generator, so finish one stream's
        draws before advancing to the next.
        """
        position, state, bit_generator = self._position, self._state, self._bit_generator
        for start, inc in pcg64_states(seed, streams):
            position["state"] = start
            position["inc"] = inc
            bit_generator.state = state
            yield self.generator
