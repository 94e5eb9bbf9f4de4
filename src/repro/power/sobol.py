"""Sobol low-discrepancy sampling of activation design spaces.

The paper samples 10 000 circuit configurations per activation function with
a Sobol sequence over the feasible design space Q^AF before running SPICE on
each.  :func:`sobol_sequence` draws those points with a small numpy
generator: Joe–Kuo direction numbers, linear matrix scrambling (LMS) plus a
random digital shift, and Gray-code point order.  For a given seed it returns
the same bits as ``qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)``
of the ``dev`` extra (the test oracle in ``tests/test_power_surrogate.py``,
not a runtime dependency), so every dataset regeneration is deterministic
and surrogates fitted with that engine stay valid.
"""

from __future__ import annotations

import numpy as np

from repro.pdk.params import DesignSpace

# Bits per coordinate: at most 2**30 points, each a multiple of 2**-30.
_BITS = 30

# Joe–Kuo direction numbers (new-joe-kuo-6.21201) for the first 16
# dimensions: the primitive polynomial of each dimension, its degree being
# ``bit_length - 1``, and the initial direction numbers m_1..m_degree.
# Dimension 0 is the van der Corput sequence (every direction number 1).
_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_VINIT = (
    (1,),
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
    (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49),
)
MAX_DIMENSION = len(_POLY)


def _direction_numbers(dimension: int) -> np.ndarray:
    """Unscrambled direction numbers ``v[d, j]`` as ``_BITS``-bit integers.

    Bratley & Fox (1988) recurrence: ``m_j = 2 a_1 m_{j-1} ^ 4 a_2 m_{j-2}
    ^ ... ^ 2^s m_{j-s} ^ m_{j-s}``, then column j is shifted left by
    ``_BITS - 1 - j`` so the leading bit of ``v[d, j]`` is bit j from the MSB.
    """
    v = np.ones((dimension, _BITS), dtype=np.uint32)
    for d in range(1, dimension):
        poly = _POLY[d]
        degree = poly.bit_length() - 1
        m = list(_VINIT[d])
        for j in range(degree, _BITS):
            new = m[j - degree]
            for k in range(degree):
                if (poly >> (degree - 1 - k)) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        v[d] = m
    return v << np.arange(_BITS - 1, -1, -1, dtype=np.uint32)


def _scramble(v: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(shift, scrambled v)``, drawing from ``rng`` in the oracle's order.

    The shift comes first: one random bit per (dimension, bit), LSB first.
    Then one lower-triangular bit matrix per dimension, with a unit diagonal.
    LMS sets bit p (counted from the MSB) of each scrambled direction number
    to the parity of ``row_p & v``, with row p read MSB-first: a matrix-vector
    product over GF(2).
    """
    dimension = v.shape[0]
    shift = np.dot(
        rng.integers(2, size=(dimension, _BITS), dtype=np.uint32),
        2 ** np.arange(_BITS, dtype=np.uint32),
    )
    ltm = np.tril(rng.integers(2, size=(dimension, _BITS, _BITS), dtype=np.uint32))
    ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
    msb_first = np.arange(_BITS - 1, -1, -1, dtype=np.uint32)
    v_bits = (v[:, None, :] >> msb_first[:, None]) & 1          # (d, bit i, j)
    scrambled_bits = (ltm @ v_bits) & 1                         # (d, bit p, j)
    scrambled = (scrambled_bits << msb_first[:, None]).sum(axis=1, dtype=np.uint32)
    return shift, scrambled


def sobol_sequence(dimension: int, n_samples: int, seed: int = 0) -> np.ndarray:
    """Return ``n_samples`` scrambled Sobol points in the unit hypercube.

    Point i is the shift XOR the scrambled direction numbers of the set bits
    of ``gray(i) = i ^ (i >> 1)``, scaled by ``2**-30``.  It depends on i
    alone, so the points equal the first ``n_samples`` of the next
    power-of-two draw, bit for bit the oracle's ``qmc.Sobol(dimension,
    scramble=True, seed=seed).random_base2(m)[:n_samples]``: arbitrary
    sample counts are allowed, and the lost balance property is irrelevant
    for surrogate fitting.
    """
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}]")
    if not 1 <= n_samples <= 2**_BITS:
        raise ValueError(f"n_samples must be in [1, 2**{_BITS}]")
    shift, v = _scramble(_direction_numbers(dimension), np.random.default_rng(seed))
    index = np.arange(n_samples, dtype=np.uint32)
    gray = index ^ (index >> 1)
    quasi = np.broadcast_to(shift, (n_samples, dimension)).copy()
    for bit in range((n_samples - 1).bit_length()):
        quasi ^= ((gray >> bit) & 1)[:, None] * v[:, bit]
    return quasi * 2.0**-_BITS


def sobol_sample_space(space: DesignSpace, n_samples: int, seed: int = 0) -> np.ndarray:
    """Sample ``n_samples`` parameter vectors ``q`` from a design space.

    Log-scaled parameters (resistances) are sampled log-uniformly, matching
    how printable resistor values spread over decades.
    """
    unit = sobol_sequence(space.dimension, n_samples, seed=seed)
    return space.from_unit(unit)
