"""Deterministic random stream tests.

The generator must reproduce the reference splitmix64 output sequence so
that seeded experiments are portable across machines and languages.
"""

import numpy as np
import pytest

from swarm_ot.rng import SplitMix64, derive

# First three outputs of splitmix64 seeded with 0, as published with the
# original algorithm.
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed_zero_reference_sequence():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == SEED0_OUTPUTS


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64).next_u64() == SEED0_OUTPUTS[0]
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


def test_floats_are_uniform_in_unit_interval():
    gen = SplitMix64(42)
    xs = gen.uniforms(4000)
    assert xs.min() >= 0.0
    assert xs.max() < 1.0
    # mean of U[0,1) is 1/2 with standard error ~0.0046 at this sample size
    assert abs(xs.mean() - 0.5) < 0.02


def test_derive_is_deterministic_and_label_sensitive():
    assert derive(123, 1, 4) == derive(123, 1, 4)
    assert derive(123, 1, 4) != derive(123, 1, 5)
    assert derive(123, 1, 4) != derive(123, 2, 4)
    assert derive(123, 1) != derive(124, 1)


def test_derive_streams_do_not_collide_for_small_labels():
    seeds = {derive(0, a, b) for a in range(8) for b in range(8)}
    assert len(seeds) == 64


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345678901234567])
@pytest.mark.parametrize("n", [0, 1, 65536])
def test_uniforms_are_the_next_float_stream(seed, n):
    drawn, stepped = SplitMix64(seed), SplitMix64(seed)
    xs = drawn.uniforms(n)
    ref = np.array([stepped.next_float() for _ in range(n)], dtype=float)
    assert xs.dtype == ref.dtype and xs.tobytes() == ref.tobytes()
    # the batch advances the state exactly as n single draws do
    assert drawn.state == stepped.state
    assert drawn.next_u64() == stepped.next_u64()
