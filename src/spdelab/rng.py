"""Counter-based random substreams.

Every stochastic routine takes one integer seed and derives independent
substreams via ``substream(seed, role, index, ...)``. Philox is counter
based, so the draws inside a substream do not depend on how many other
substreams were consumed, which makes parallel Monte Carlo reproducible.

The role tags below are part of the reproducibility contract: changing
them changes every sampled artifact.  Gaps are the numbers of roles
that no longer exist; the remaining tags keep their values.
"""

from __future__ import annotations

import numpy as np

PATHS = 1
SKOROHOD = 3
CONV_MODEWISE = 5
BESSEL_BATTERY = 9


def substream(seed, *key):
    """Return an independent ``numpy.random.Generator`` for (seed, key).

    Distinct keys give statistically independent streams; the same
    (seed, key) always gives the same stream.
    """
    key = tuple(int(k) for k in key)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
