"""Keyed random streams, seeded for many keys at once.

`np.random.default_rng(np.random.SeedSequence(key))` costs tens of
microseconds per key, most of it outside the hash. `seed_states` computes
SeedSequence's pool and output hashes (O'Neill's seed_seq_fe) for every key
of a batch in uint32 array arithmetic, and `reseat` puts a PCG64 into the
state that `PCG64(SeedSequence(key))` starts in, so one generator can read
every key's stream in turn. numpy's stream-compatibility policy (NEP 19)
keeps both algorithms fixed.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, repeat

import numpy as np

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _words(part, m: int) -> list[np.ndarray]:
    """A key part's 32-bit entropy words, each an [m] uint32 array."""
    if isinstance(part, int):
        if part < 0:
            raise ValueError("a key part must be nonnegative")
        n_words = max(1, -(-part.bit_length() // 32))
        return [np.full(m, (part >> 32 * k) & _MASK32, dtype=np.uint32) for k in range(n_words)]
    if part.size and (part.min() < 0 or part.max() > _MASK32):
        raise ValueError("a key array's entries must lie in [0, 2**32)")
    return [part.astype(np.uint32)]


def _hasher(init: int, mult: int):
    """SeedSequence's hash of one word with a running constant: each call
    xors the word with the constant, advances the constant by mult and
    multiplies by the new one. The constants do not depend on the words."""
    constants = pairwise(accumulate(repeat(mult), lambda c, k: c * k & _MASK32, initial=init))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, times = next(constants)
        value = value ^ xor
        value *= times
        value ^= value >> 16
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def seed_states(*key) -> np.ndarray:
    """[m, 4] uint64: row j is `SeedSequence([k0_j, k1_j, ...])
    .generate_state(4, np.uint64)`. Each key part is a nonnegative int shared
    by every key, or a 1-D integer array with one entry per key (m of them),
    each below 2**32."""
    key = [p if isinstance(p, int) else np.asarray(p) for p in key]
    arrays = [p for p in key if not isinstance(p, int)]
    if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in arrays):
        raise ValueError("a key array must be a 1-D integer array")
    m = len(arrays[0]) if arrays else 1
    if any(len(a) != m for a in arrays):
        raise ValueError("key arrays must have one entry per key")
    entropy = [w for p in key for w in _words(p, m)]
    entropy += [np.zeros(m, dtype=np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    out = np.stack([output(pool[i % _POOL]) for i in range(8)], axis=1)
    # Eight 32-bit words, read as four little-endian 64-bit words.
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def reseat(bits: np.random.PCG64, words: np.ndarray) -> None:
    """Put bits into the state `PCG64(SeedSequence(key))` starts in, given
    the key's row of `seed_states`."""
    init_hi, init_lo, seq_hi, seq_lo = words.tolist()
    inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
    state = ((inc + ((init_hi << 64) | init_lo)) * _PCG64_MULT + inc) & _MASK128
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
