"""The in-package generator against its oracle, numpy's default_rng."""

import numpy as np
import pytest

from entwine._rng import Generator

# 2^128 and up take SeedSequence past its 4-word pool
SEEDS = list(range(301)) + [2**b + k for b in (32, 64, 128, 160) for k in range(8)]
RANGES = [(-3, 4), (-2, 3), (1, 4)]


def _numpy(rng, low, high, size):
    drawn = rng.integers(low, high, size=size)
    return int(drawn) if size is None else drawn.tolist()


@pytest.mark.parametrize("size", [None, 1, 384])
@pytest.mark.parametrize("low, high", RANGES)
def test_integers_match_numpy(low, high, size):
    for seed in SEEDS:
        assert Generator(seed).integers(low, high, size) == _numpy(np.random.default_rng(seed), low, high, size), seed


def test_interleaved_scalar_and_vector_draws_match_numpy():
    # an odd count of 32-bit draws leaves a buffered half for the next call;
    # span 2^31 + 1 rejects about half its draws, span 1 draws nothing
    draws = [(-3, 4, None), (-2, 3, 3), (1, 4, None), (0, 2**31 + 1, 5), (5, 6, 2), (-3, 4, 384), (1, 4, 0), (-2, 3, None)]
    for seed in SEEDS[:40] + SEEDS[-16:]:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for low, high, size in draws:
            assert ours.integers(low, high, size) == _numpy(theirs, low, high, size), (seed, low, high, size)


def test_bad_seeds_and_ranges_raise_value_error():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)
    # empty ranges, and a 2^32 span, which numpy draws by a path this port leaves out
    for low, high in [(0, 0), (3, 1), (0, 2**32)]:
        with pytest.raises(ValueError):
            Generator(0).integers(low, high)
