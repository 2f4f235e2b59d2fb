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
    """Per-subsystem ``numpy.random.Generator`` instances from one root seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        root = np.random.SeedSequence(self.seed)
        children = root.spawn(len(STREAM_NAMES))
        self._streams = {
            name: np.random.default_rng(ss) for name, ss in zip(STREAM_NAMES, children)
        }

    @property
    def worldgen(self) -> np.random.Generator:
        return self._streams["worldgen"]

    @property
    def demographics(self) -> np.random.Generator:
        return self._streams["demographics"]

    @property
    def labor(self) -> np.random.Generator:
        return self._streams["labor"]

    @property
    def consumption(self) -> np.random.Generator:
        return self._streams["consumption"]

    @property
    def housing(self) -> np.random.Generator:
        return self._streams["housing"]
