"""``rng.uniform_int`` must give what ``int(Generator.integers(low, high))``
gives over the ranges it accepts: the same values and types, and the stream
left in the same state."""

import numpy as np

from pushopt.rng import uniform_int

# Widths 2 to 2**32 - 1; 2**31 + 1 rejects almost half of its words.
WIDTHS = (2, 21, 2**31 + 1, 2**32 - 1)


def test_matches_generator_integers_over_seeds_and_widths():
    for seed in range(1000):
        for width in WIDTHS:
            # Ranges at both ends of int64 too: from -2**63, and up to
            # 2**63 - 1.
            low = (-10, 0, -(2**63), 2**63 - width)[seed % 4]
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = [uniform_int(got_rng, low, low + width) for _ in range(8)]
            want = [int(want_rng.integers(low, low + width)) for _ in range(8)]
            assert [type(v) for v in got] == [int] * 8
            assert got == want, (seed, low, width)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (seed, width)


def test_interleaves_with_other_draws_on_the_stream():
    # A PCG64 keeps the unused half of a 64-bit word for its next 32-bit
    # draw, whoever makes it.
    got_rng = np.random.default_rng(3)
    want_rng = np.random.default_rng(3)
    for k in range(200):
        assert uniform_int(got_rng, -10, 11) == int(want_rng.integers(-10, 11))
        if k % 3 == 0:
            assert got_rng.random() == want_rng.random()
        if k % 5 == 0:
            got, want = (r.integers(0, 1000, size=3).tolist() for r in (got_rng, want_rng))
            assert got == want
            assert got_rng.integers(0, 2**40) == want_rng.integers(0, 2**40)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
