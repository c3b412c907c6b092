"""Each drop's generators: those of default_rng(SeedSequence(seed,
spawn_key=(drop, role))), made a chunk of drops at a time.

numpy's SeedSequence hash runs here in plain ints over the master seed's
words, once per seed, and over a chunk's drop indices as one uint32 array;
each PCG64 takes its state words through _PCG64Words.  harness calls
drop_rngs once per chunk and role.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of a SeedSequence hash's first hashmix calls."""
    consts = list(itertools.accumulate([mult] * calls, lambda c, m: c * m & _MASK32,
                                       initial=init))
    return list(zip(consts, consts[1:]))


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of an int or, elementwise, a uint32 array."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


@dataclass
class _PCG64Words(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the 4 uint64 state words drop_rngs computed."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=1)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The SeedSequence pool of master_seed's words, hashed in ints, and the
    hash constants of the two spawn-key words that drop_rngs mixes in: all
    that the seed fixes, made once per seed (one entry is kept, so the
    one-drop calls that retry a failed chunk do not hash it again)."""
    # the seed's 32-bit words, low first, padded to the pool as a spawn key asks
    words = [master_seed >> 32 * i & _MASK32
             for i in range(max(-(-master_seed.bit_length() // 32), 4))]
    calls = iter(_hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 8))
    pool = [_hashmix(w, *next(calls)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(calls)))
    for word in words[4:]:
        pool = [_mix(p, _hashmix(word, *next(calls))) for p in pool]
    return tuple(pool), tuple(calls)


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def drop_rngs(master_seed: int, lo: int, hi: int, role: int) -> list[np.random.Generator]:
    """The generators of (drop k, role) for k in lo..hi-1, each in the state of
    default_rng(SeedSequence(master_seed, spawn_key=(k, role))) bit for bit,
    so a drop's streams depend on neither its chunk nor its worker.  The seed's
    words are hashed once per seed (_seed_pool); the spawn keys (k < 2**32: one
    word each, harness.require_valid_config) are mixed into the pool as one (4, drops)
    array."""
    pool, calls = _seed_pool(master_seed)
    xor, mult = np.array(calls[:4], np.uint32).T[..., None]
    pool = _mix(np.array(pool, np.uint32)[:, None],
                _hashmix(np.arange(lo, hi, dtype=np.uint32), xor, mult))
    pool = _mix(pool, np.array([[_hashmix(role, *c)] for c in calls[4:]], np.uint32))
    xor, mult = np.array(_STATE_CONSTANTS, np.uint32).T[..., None]
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).T   # 8 words a drop
    state = np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_PCG64Words(row))) for row in state]
