"""``rng.uniform_int`` must give what ``int(Generator.integers(low, high))``
gives: the same values and types, the same errors, and the stream left in
the same state."""

import numpy as np
import pytest

from pushopt.rng import uniform_int

# Widths 2 to 2**32 - 1 take the direct draw; 2**31 + 1 rejects almost half
# of its words. Widths 1, 2**32 and 2**40 go to numpy.
WIDTHS = (1, 2, 21, 2**31 + 1, 2**32 - 1, 2**32, 2**40)
# Lows at both ends of the int64 range, where the last value drawn is
# -2**63 or 2**63 - 1.
LOWS = (-10, 0, -(2**63), 2**63 - 2**40)


def _outcome(draw):
    try:
        value = draw()
    except Exception as exc:  # compared between the two draws
        return "raised", type(exc), str(exc)
    return "value", type(value), value


def test_matches_generator_integers_over_seeds_and_widths():
    for seed in range(1000):
        low = LOWS[seed % len(LOWS)]
        for width in WIDTHS:
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = [_outcome(lambda: uniform_int(got_rng, low, low + width)) for _ in range(8)]
            want = [
                _outcome(lambda: int(want_rng.integers(low, low + width))) for _ in range(8)
            ]
            assert got == want, (seed, low, width)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (seed, width)


@pytest.mark.parametrize(
    "low, high",
    [
        (5, 5),
        (5, 4),
        (-(2**63) - 1, -(2**63) + 20),
        (2**63 - 10, 2**63 + 1),
        (0.5, 3),
        (np.int64(-3), np.int64(7)),
        (True, 3),
        (0, 2**64),
    ],
    ids=["empty", "reversed", "low-below-int64", "high-above-int64", "float-low",
         "numpy-ints", "bool-low", "width-2**64"],
)
def test_bad_or_foreign_ranges_behave_as_generator_integers(low, high):
    got_rng = np.random.default_rng(7)
    want_rng = np.random.default_rng(7)
    got = _outcome(lambda: uniform_int(got_rng, low, high))
    want = _outcome(lambda: int(want_rng.integers(low, high)))
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
