"""Sobol low-discrepancy sampling of activation design spaces.

The paper samples 10 000 circuit configurations per activation function with
a Sobol sequence over the feasible design space Q^AF before running SPICE on
each.  We use :class:`scipy.stats.qmc.Sobol` (available offline) with an
explicit seed for scrambling so every dataset regeneration is deterministic.

``scipy.stats`` is imported inside :func:`sobol_sequence`, not at module
level: drawing Sobol points is the cold surrogate-fit path, the only place
the package uses scipy, and importing ``scipy.stats`` takes about a second.
Every warm process (cached surrogates, frozen-artifact prediction, reports)
therefore never loads it; ``tests/test_cold_start.py`` holds that line.
"""

from __future__ import annotations

import numpy as np

from repro.pdk.params import DesignSpace


def sobol_sequence(dimension: int, n_samples: int, seed: int = 0) -> np.ndarray:
    """Return ``n_samples`` scrambled Sobol points in the unit hypercube.

    Uses ``Sobol.random`` rather than ``random_base2`` so arbitrary sample
    counts are allowed; the balance property loss is irrelevant for surrogate
    fitting (scipy emits a warning for non-powers-of-two, which we suppress
    by drawing the next power of two and truncating).
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dimension, scramble=True, seed=seed)
    m = int(np.ceil(np.log2(max(n_samples, 2))))
    points = engine.random_base2(m=m)
    return points[:n_samples]


def sobol_sample_space(space: DesignSpace, n_samples: int, seed: int = 0) -> np.ndarray:
    """Sample ``n_samples`` parameter vectors ``q`` from a design space.

    Log-scaled parameters (resistances) are sampled log-uniformly, matching
    how printable resistor values spread over decades.
    """
    unit = sobol_sequence(space.dimension, n_samples, seed=seed)
    return space.from_unit(unit)
