"""Seedable 64-bit random streams (splitmix64).

The generator is the standard splitmix64 mixer: tiny state, fast, and
simple enough to reimplement bit-for-bit in another language, which is
what makes seeded runs reproducible across ports. Substreams for
distinct purposes (initial positions, target draws, ...) are derived
from one base seed with `derive`, so adding a consumer never shifts
the values another consumer sees.
"""

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream labels used by the harness. Values are part of the output
# contract for seeded runs; do not renumber.
STREAM_POSITIONS = 1
STREAM_TARGET = 2
STREAM_DENSITY = 3
STREAM_PERTURB = 4
STREAM_ORACLE = 5


def _mix(z):
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 sequence from a 64-bit seed."""

    def __init__(self, seed):
        self.state = int(seed) & MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & MASK64
        return _mix(self.state)

    def next_float(self):
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n):
        """Array of n uniform doubles in [0, 1): n `next_float` draws at once.

        The states and the mix run in uint64 arrays, whose arithmetic
        wraps modulo 2**64 exactly as the masked integer code does.
        """
        n = int(n)
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self.state = (self.state + n * _GOLDEN) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(float) * 2.0**-53


def derive(seed, *labels):
    """Derive a child seed from a base seed and integer labels.

    Each label is folded into the state through the splitmix64 output
    function, so (seed, labels...) -> child is a fixed documented map.
    """
    s = int(seed) & MASK64
    for lab in labels:
        s = _mix((s ^ ((int(lab) + 1) * _GOLDEN)) & MASK64)
    return s
