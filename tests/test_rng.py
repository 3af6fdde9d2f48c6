import hashlib
from decimal import Decimal

import numpy as np

from monotest import rng
from monotest.rng import SplitRng

# labels that compare equal in pairs but have different reprs, so different
# words, and the string labels the tester uses
LABELS = [1, 1.0, True, np.float64(1.0), 0.0, -0.0, (1,), (1.0,), (True,),
          Decimal("1.0"), Decimal("1.00"), "1", "1.0", "", "edge", "rb",
          "influence", 2**40, -3, np.int64(7)]


def _uncached_words(label):
    """_label_words as it was before its hash was cached."""
    if isinstance(label, (int, np.integer)):
        val = int(label)
        if 0 <= val < 2**32:
            return (val,)
        val &= (1 << 64) - 1
        return (val & 0xFFFFFFFF, val >> 32)
    digest = hashlib.sha256(repr(label).encode()).digest()
    return (int.from_bytes(digest[0:4], "little"),
            int.from_bytes(digest[4:8], "little"))


def test_cached_label_words_match_uncached():
    # twice each, so that the second pass reads the cache, and each label
    # right after an equal one
    rng._text_words.cache_clear()
    for _ in range(2):
        for label in LABELS:
            assert rng._label_words(label) == _uncached_words(label), label
    assert rng._text_words.cache_info().hits > 0
    for a, b in [(1.0, np.float64(1.0)), (0.0, -0.0), ((1,), (1.0,)),
                 (Decimal("1.0"), Decimal("1.00"))]:
        assert a == b
        assert rng._label_words(a) != rng._label_words(b)


def test_streams_are_keyed_as_before():
    # the spawn key of a path is its labels' uncached words, in order
    path = ("trial", 3, "test", "rb", 0.05, -0.0)
    g = SplitRng(11, path).generator
    key = sum((_uncached_words(label) for label in path), ())
    ref = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(11, spawn_key=key)))
    assert np.array_equal(g.integers(0, 2**32, size=8),
                          ref.integers(0, 2**32, size=8))
