"""Seeded random streams: the one place a generator is built."""

import numpy as np

# stream tags under a training seed: initial weights, batch order, augmentation, rank pairs
INIT, SAMPLER, AUGMENT, RANK = range(4)


def stream(*key) -> np.random.Generator:
    """A PCG64 generator seeded by `SeedSequence(key)`, e.g. (seed, stream tag, step)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
