"""Named, reproducible random substreams derived from one root seed.

Every component draws its randomness from a stream named after its role
(``bm-data``, ``mcmc``, ``nn-init``, ...), so any stage of a pipeline can be
re-run in isolation and still see the same random numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(root_seed: int, name: str) -> int:
    """Stable child seed for the substream `name` under `root_seed`."""
    ss = np.random.SeedSequence([int(root_seed) & (2**64 - 1), _name_key(name)])
    return int(ss.generate_state(1, np.uint64)[0])


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream. Same (root, name) -> same stream."""
    return np.random.default_rng(derive_seed(root_seed, name))
