"""Splittable random streams on top of the Philox counter-based generator.

Every randomized component receives its own stream, keyed by a path of labels
under a single master seed: (master, trial id, subroutine label, call index).
Streams for different paths are statistically independent and do not consume
from each other, so reordering subroutine calls or running trials concurrently
never perturbs any other stream.  Identical (master seed, path) always yields
the identical stream.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


# distinct label texts whose words are kept; a trial names a few dozen
LABEL_CACHE = 1024


def _label_words(label) -> tuple[int, ...]:
    """Map an arbitrary label to one or two stable uint32 words."""
    if isinstance(label, (int, np.integer)):
        val = int(label)
        if 0 <= val < 2**32:
            return (val,)
        val &= (1 << 64) - 1
        return (val & 0xFFFFFFFF, val >> 32)
    return _text_words(repr(label))


@functools.lru_cache(maxsize=LABEL_CACHE)
def _text_words(text: str) -> tuple[int, int]:
    """The first two little-endian uint32 words of sha256(text), cached on
    the text: labels that compare equal, such as 0.0 and -0.0 or 1.0 and
    np.float64(1.0), can have different reprs, so the cache is keyed on
    the repr, not on the label."""
    digest = hashlib.sha256(text.encode()).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


class SplitRng:
    """An addressable node in a tree of independent Philox streams."""

    def __init__(self, master_seed: int, path: tuple = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(path)
        self._gen = None

    def child(self, *labels) -> "SplitRng":
        return SplitRng(self.master_seed, self.path + tuple(labels))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            spawn_key = ()
            for label in self.path:
                spawn_key += _label_words(label)
            seq = np.random.SeedSequence(self.master_seed, spawn_key=spawn_key)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def __repr__(self):
        return f"SplitRng(seed={self.master_seed}, path={self.path})"


def generator_for(master_seed: int, *path) -> np.random.Generator:
    return SplitRng(master_seed, path).generator
