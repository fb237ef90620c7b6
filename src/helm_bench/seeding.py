"""Per-sensor random streams derived from a single scenario seed.

Each consumer gets its own counter-based generator keyed by (seed, label),
so adding or removing a sensor never shifts the draws of the others.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator

import numpy as np

BLOCK_ROWS = 1024  # rows drawn per numpy call by normal_rows


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent Philox stream for a named consumer of the scenario seed."""
    digest = hashlib.blake2s(f"{seed}:{label}".encode(), digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.Philox(key=key))


def normal_rows(rng: np.random.Generator, scales, n_rows: int) -> Iterator:
    """An iterator over n_rows draws of rng.normal(0.0, scales), at most BLOCK_ROWS per numpy call.

    A scalar scale yields floats, a sequence of scales yields lists. The
    values equal, bit for bit and in order, one rng.normal(0.0, s) call per
    value: numpy's array draw runs the same per-value routine in C order.
    No more than n_rows rows are drawn, so memory stays flat however long
    the run.
    """
    scales = np.asarray(scales, dtype=float)
    blocks = (min(BLOCK_ROWS, n_rows - start) for start in range(0, n_rows, BLOCK_ROWS))
    draws = (rng.normal(0.0, scales, size=(rows, *scales.shape)).tolist() for rows in blocks)
    return itertools.chain.from_iterable(draws)  # each block is drawn when the last one runs out
