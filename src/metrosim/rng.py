"""Named, independently seeded random substreams.

One root seed deterministically spawns a generator per subsystem, so
toggling one subsystem's randomness (e.g. running with zero fertility)
never perturbs the draws of another.
"""
from __future__ import annotations

import numpy as np

# Substream order is part of the reproducibility contract: changing it
# changes every seeded run.
STREAM_NAMES = ("worldgen", "demographics", "labor", "consumption", "housing")


class RngStreams:
    """One ``numpy.random.Generator`` attribute per name of ``STREAM_NAMES``, in that order."""

    def __init__(self, seed: int):
        children = np.random.SeedSequence(int(seed)).spawn(len(STREAM_NAMES))
        generators = [np.random.default_rng(ss) for ss in children]
        self.worldgen, self.demographics, self.labor, self.consumption, self.housing = generators
