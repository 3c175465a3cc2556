"""Deterministic substream derivation for seeded experiments.

Every random draw in the library comes from a named substream derived by
hashing a key tuple (master seed plus string/int tags). Substreams keyed on
different tags are statistically independent, and adding a new consumer of
randomness never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def substream(*key: int | str) -> np.random.Generator:
    """Fresh generator for the substream identified by `key`.

    The key tuple of ints/strings is hashed to a stable 128-bit seed.
    """
    h = hashlib.sha256()
    for part in key:
        if not isinstance(part, (int, str)):
            raise TypeError(f"substream key parts must be int or str, got {type(part)!r}")
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return np.random.default_rng(int.from_bytes(h.digest()[:16], "little"))
