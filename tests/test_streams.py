"""Keyed stream states computed as arrays, against numpy's own seeding.

`seed_states` must give every key the words `SeedSequence(key)
.generate_state(4, np.uint64)` gives it, and a generator reseated with them
must be in the state `PCG64(SeedSequence(key))` starts in. The callers that
read keyed streams (synth and the bootstrap counts) must give each call its
own generator.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import cohort_digest, oracle_resample_counts
from tridrive.ope import resample_counts
from tridrive.streams import reseat, seed_states
from tridrive.synth import CohortConfig, generate

_TOP = 2**32 - 1


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    # numpy warns on scalar uint32 overflow; the array arithmetic must not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _numpy_states(keys):
    return np.array(
        [np.random.SeedSequence(key).generate_state(4, np.uint64) for key in keys]
    )


def _word_matrix(n_words, m=12):
    """[m, n_words] key words: one row all zeros, one all 2**32 - 1, the rest
    mixed edge and random words."""
    rng = np.random.default_rng(n_words)
    words = rng.integers(0, 2**32, size=(m, n_words), dtype=np.uint64)
    edges = np.array([0, 1, 2**31, _TOP], dtype=np.uint64)
    words[2::2] = rng.choice(edges, size=words[2::2].shape)
    words[0], words[1] = 0, _TOP
    return words


class TestSeedStates:
    @pytest.mark.parametrize("n_words", range(1, 8))
    def test_array_keys_match_numpy(self, n_words):
        words = _word_matrix(n_words)
        states = seed_states(*words.T)
        assert states.dtype == np.uint64 and states.shape == (len(words), 4)
        assert np.array_equal(states, _numpy_states(words.tolist()))

    @pytest.mark.parametrize("seed_words", range(1, 6))
    def test_a_shared_int_and_array_parts(self, seed_words):
        # The shared seed splits into 32-bit words, least significant first.
        seed = (1 << 32 * (seed_words - 1)) + 3
        patients, tags = np.arange(6), np.array([0, 9, 2, 0, 5, 1])
        states = seed_states(seed, patients, tags)
        keys = [[seed, int(p), int(t)] for p, t in zip(patients, tags)]
        assert np.array_equal(states, _numpy_states(keys))

    @pytest.mark.parametrize(
        "key",
        [(0,), (_TOP,), (2**32,), (2**64 + 3,), (2**160 - 1,), (0, 0, 0, 0, 0), (2**192,),
         (5, 0, _TOP, 7)],
        ids=lambda key: repr(key),
    )
    def test_int_keys_match_numpy(self, key):
        assert np.array_equal(seed_states(*key), _numpy_states([list(key)]))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64, np.int32])
    def test_any_integer_dtype(self, dtype):
        part = np.array([0, 1, 2**31 - 1, 12], dtype=dtype)
        assert np.array_equal(seed_states(7, part), _numpy_states([[7, int(v)] for v in part]))

    @pytest.mark.parametrize(
        "key",
        [
            (0, np.array([2**32])),
            (0, np.array([-1])),
            (0, np.array([1, 2**40], dtype=np.uint64)),
            (-1,),
            (0, np.array([0.5])),
            (0, np.array([[1, 2]])),
            (np.arange(3), np.arange(4)),
        ],
        ids=["entry-2**32", "negative-entry", "entry-2**40", "negative-int", "float-array",
             "2-d-array", "length-mismatch"],
    )
    def test_bad_parts_raise(self, key):
        with pytest.raises(ValueError):
            seed_states(*key)


class TestReseat:
    @pytest.mark.parametrize(
        "key", [[0], [5, 17], [_TOP, _TOP, _TOP], [2**64 + 3, 1, 9], [0] * 7]
    )
    def test_state_equals_a_fresh_generator(self, key):
        bits = np.random.PCG64(1)
        reseat(bits, seed_states(*key)[0])
        assert bits.state == np.random.PCG64(np.random.SeedSequence(key)).state

    def test_a_half_used_word_is_dropped(self):
        # A 32-bit draw leaves half a word cached; a reseated stream starts fresh.
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        for b, words in enumerate(seed_states(4, np.arange(5))):
            rng.integers(0, 7)
            reseat(bits, words)
            fresh = np.random.default_rng(np.random.SeedSequence([4, b]))
            assert np.array_equal(rng.integers(0, 7, size=9), fresh.integers(0, 7, size=9))
            assert np.array_equal(rng.normal(size=5), fresh.normal(size=5))


def test_threads_reading_keyed_streams_get_their_own_draws():
    configs = [CohortConfig(n_patients=40, seed=s) for s in (1, 2)]
    keys = [(1, 300, 400), (2, 301, 400)]
    expected = [
        (cohort_digest(generate(c)), oracle_resample_counts(*k)) for c, k in zip(configs, keys)
    ]
    results = [[], []]
    barrier = threading.Barrier(2, timeout=60)

    def work(slot, config, key):
        # Both threads make the same kind of call at the same time.
        for _ in range(4):
            barrier.wait()
            resample_counts.cache_clear()
            counts = resample_counts(*key)
            barrier.wait()
            results[slot].append((cohort_digest(generate(config)), counts))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot, config, key))
            for slot, (config, key) in enumerate(zip(configs, keys))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (digest, counts), runs in zip(expected, results):
        assert len(runs) == 4
        for run_digest, run_counts in runs:
            assert run_digest == digest
            assert np.array_equal(run_counts, counts)
