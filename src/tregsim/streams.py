"""numpy's SeedSequence hash for many stream keys in one pass, bit for
bit, and a PCG64 Generator per key; numpy.random loads on first use."""

import functools

import numpy as np


def generators(entropy, spawn_key, tails):
    """One Generator per row of tails, each from its stream_seeds words.

    Each equals np.random.default_rng(SeedSequence(entropy,
    spawn_key=(*spawn_key, *tail))), draw for draw.
    """
    # registered here, not at import: numpy imports numpy.random on first
    # use, and loading it with this module raised the peak RSS of
    # `bench/run.py --workload impedance` by about 0.6 MB (numpy 2.4.6).
    # Registering again is a no-op.
    np.random.bit_generator.ISeedSequence.register(_StreamSeed)
    return [np.random.Generator(np.random.PCG64(_StreamSeed(words)))
            for words in stream_seeds(entropy, spawn_key, tails)]


class _StreamSeed:
    """One stream's seed sequence, which hands PCG64 its four seed words:
    a numpy ISeedSequence, registered as one by generators."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly these
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a stream seed holds four np.uint64 words")
        return self.words


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, hashmix and mix on it, and the hash constants
# INIT_A * MULT_A**k and INIT_B * MULT_B**k
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_constants(init, mult, n):
    """init * mult**k modulo 2**32 for k = 0 .. n: as ints, and as a
    uint64 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out), np.array(out, dtype=np.uint64)[:, None]


# generate_state(4, np.uint64) hashes the pool twice over into eight
# 32-bit words: the constants before and after each step, shaped (2, 4, 1)
_GEN_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)[1]
_GEN_BEFORE = _GEN_CONSTANTS[:-1].reshape(2, _POOL, 1)
_GEN_AFTER = _GEN_CONSTANTS[1:].reshape(2, _POOL, 1)


def _hashmix(value, before, after):
    """numpy's hashmix of value with the hash constant before and after
    its step: on ints, or on uint64 arrays holding 32-bit words."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """numpy's mix of two 32-bit words, on ints or uint64 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _uint32_words(x):
    """The 32-bit words SeedSequence makes of an entropy or a spawn key:
    an int's words low first (one for 0), a sequence's items in turn."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    return [word for item in x for word in _uint32_words(item)]


def stream_seeds(entropy, spawn_key, tails):
    """PCG64 seed words of many streams of one seed key, in one pass.

    Row i of the result, four uint64 words, equals
    np.random.SeedSequence(entropy, spawn_key=(*spawn_key, *tails[i]))
    .generate_state(4, np.uint64).  tails is (streams, k), k >= 1, each
    entry below 2**32: a cell index, a stream word.  The hash's constant
    sequence does not depend on the data, so the words that every
    stream shares (the entropy, zero-padded to the pool, then the spawn
    key) are mixed once as ints, and each tail column is mixed into the
    whole pool as one uint64 array step, the pool's four words a column
    against the streams.
    """
    tails = np.asarray(tails, dtype=np.uint64)
    words = _uint32_words(entropy)
    # a spawned sequence pads its entropy to the pool with zeros
    words += [0] * (_POOL - len(words))
    words += _uint32_words(spawn_key)
    # one hashmix per pool word, one per ordered pair of pool words, then
    # one per pool word for each later word
    n_late = len(words) - _POOL + tails.shape[1]
    consts, const_column = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + n_late))
    pool = [_hashmix(w, consts[k], consts[k + 1]) for k, w in enumerate(words[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k], consts[k + 1]))
                k += 1
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, consts[k], consts[k + 1]))
            k += 1
    pool = np.array(pool, dtype=np.uint64)[:, None]
    for w in tails.T:
        pool = _mix(pool, _hashmix(w, const_column[k:k + _POOL], const_column[k + 1:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(pool, _GEN_BEFORE, _GEN_AFTER)
    # per stream, the eight words in turn, paired low word first, as
    # generate_state pairs them
    return (state.transpose(2, 0, 1).astype("<u4", order="C").view("<u8").reshape(-1, 4)
            .astype(np.uint64, copy=False))
