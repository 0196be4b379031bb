"""Keyed random-number substreams.

Every source of randomness in the package is derived from a user seed plus
an explicit integer key path (replication index, stage, ...).  Each stage
draws everything it needs -- all coefficient rows of a measure, all
sampled plans -- from the one stream its key path names, in a fixed order,
so a longer run extends a shorter one.  Streams with different key paths
are statistically independent, and the mapping (seed, key) -> stream is
pure, so results do not depend on the order in which the stages run or
how replications are scheduled.  This is what makes parallel evaluation
bit-reproducible.

Key paths must never differ only by appended zeros: SeedSequence fills
its entropy pool up with zeros, so ``SeedSequence([5, 1])`` and
``SeedSequence([5, 1, 0])`` give the same state, and the streams keyed
``(5, 1)`` and ``(5, 1, 0)`` would be one stream.
"""

from __future__ import annotations

import operator
from typing import Union

import numpy as np

Seed = Union[int, tuple]


def _index(value) -> int:
    """``operator.index`` that also refuses a bool: ``True`` is a flag, not
    the count or key 1."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def seed_entropy(seed: Seed, *key: int) -> tuple[int, ...]:
    """Flatten ``seed`` and an integer key path into SeedSequence entropy.

    Every component must be an integer; a float, a string or a bool raises
    TypeError rather than being truncated or parsed into another key.
    """
    parts = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    entropy = tuple(_index(p) for p in (*parts, *key))
    if any(p < 0 for p in entropy):
        raise ValueError(f"seed and key components must be nonnegative integers, got {entropy}")
    return entropy


def substream(seed: Seed, *key: int) -> np.random.Generator:
    """Return the generator identified by ``(seed, *key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(seed, *key)))
