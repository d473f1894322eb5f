import math

import numpy as np
import pytest

from pushopt.problems import (
    Problem,
    ProblemFamily,
    Transform,
    TransformRanges,
    make_function,
    problem_family_from_descriptor,
    sample_transform,
)
from pushopt.push import instruction_errstate
from pushopt.rng import stream

from reference_functions import reference_error

ALL_IDS = sorted(("F1", "F9", "F12", "F13", "F14"))


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Function construction
# ---------------------------------------------------------------------------


def test_make_function_is_deterministic():
    a = make_function("F12", 2, 77)
    b = make_function("F12", 2, 77)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.params["a"], b.params["a"])


def test_unsupported_id_is_error():
    with pytest.raises(ValueError, match="unsupported"):
        make_function("F15", 10, 1)


def test_bad_dimension_is_error():
    with pytest.raises(ValueError):
        make_function("F1", 0, 1)


@pytest.mark.parametrize(
    "fid,lo,hi",
    [
        ("F1", -100.0, 100.0),
        ("F9", -5.0, 5.0),
        ("F12", -math.pi, math.pi),
        ("F13", -3.0, 1.0),
        ("F14", -100.0, 100.0),
    ],
)
def test_domain_bounds(fid, lo, hi):
    fn = make_function(fid, 10, 3)
    assert fn.bounds == (lo, hi)
    assert (fn.shift >= lo).all() and (fn.shift <= hi).all()


@pytest.mark.parametrize("fid", ALL_IDS)
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_error_at_optimum_is_zero(fid, dim):
    fn = make_function(fid, dim, 5)
    assert abs(fn.evaluate(fn.shift)) < 1e-9


def test_f9_unit_offset_value():
    # z = (1, 0): 1 - 10 cos(2 pi) + 10 = 1
    fn = make_function("F9", 2, 9)
    assert fn.evaluate(fn.shift + np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)


def test_f12_optimum_is_angle_vector():
    fn = make_function("F12", 10, 42)
    assert fn.evaluate(fn.shift) == pytest.approx(0.0, abs=1e-9)


def _roll_reference(fn, x):
    # The F13/F14 formulas as first written, with np.roll for the neighbour.
    if fn.id == "F13":
        z = x - fn.shift + 1.0
        v = np.roll(z, -1)
        t = 100.0 * (z * z - v) ** 2 + (z - 1.0) ** 2
        return float(np.sum(t * t / 4000.0 - np.cos(t) + 1.0))
    z = x - fn.shift
    v = np.roll(z, -1)
    s = z * z + v * v
    return float(np.sum(0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2))


@pytest.mark.parametrize("fid", ["F13", "F14"])
@pytest.mark.parametrize("dim", [1, 2, 10, 50])
def test_neighbour_functions_match_roll_reference_exactly(fid, dim):
    fn = make_function(fid, dim, 3)
    rng = stream(11, "roll", fid, dim)
    points = [fn.shift, np.full(dim, fn.lower), np.full(dim, fn.upper)]
    # Enough points to show a one-ulp change: dividing by 1000 for the factor
    # 0.001 in F14 changes about one value in two hundred.
    points += [rng.uniform(fn.lower, fn.upper, dim) for _ in range(1000)]
    # Transformed points reach outside the bounds.
    points += [fn.shift + rng.normal(size=dim) * spread for spread in (1e-6, 1e3, 1e6)]
    for x in points:
        assert fn.evaluate(x) == _roll_reference(fn, x)


def test_dimension_mismatch_is_hard_error():
    fn = make_function("F1", 3, 1)
    with pytest.raises(ValueError):
        fn.evaluate(np.zeros(4))


@pytest.mark.parametrize("dim", [1, 3])
def test_problem_reports_a_wrong_length_as_the_function_does(dim):
    # Under the identity transform, and under a random one, which keeps a
    # wrong length at D=1 and refuses it in numpy otherwise.
    fn = make_function("F1", dim, 1)
    transform = sample_transform(fn.bounds, dim, stream(2, "lengths"))
    assert not transform.is_identity()
    for length in (0, 1, 2, 4):
        if length == dim:
            continue
        message = f"^point has length {length}, expected {dim}$"
        with pytest.raises(ValueError, match=message):
            fn.evaluate(np.zeros(length))
        for problem in (Problem.plain(fn), Problem(fn, transform)):
            with pytest.raises(ValueError, match=message):
                problem.evaluate(np.zeros(length))


def test_f1_separability():
    fn = make_function("F1", 5, 8)
    rng = np.random.default_rng(0)
    x = rng.uniform(-100, 100, 5)
    per_axis = 0.0
    for i in range(5):
        probe = fn.shift.copy()
        probe[i] = x[i]
        per_axis += fn.evaluate(probe)
    assert rel_close(fn.evaluate(x), per_axis)


@pytest.mark.parametrize("fid", ALL_IDS)
@pytest.mark.parametrize("dim", [2, 10])
def test_reference_equivalence(fid, dim):
    fn = make_function(fid, dim, 13)
    rng = np.random.default_rng(100)
    for _ in range(200):
        x = rng.uniform(fn.lower, fn.upper, dim)
        assert rel_close(fn.evaluate(x), reference_error(fn, x.tolist()))


@pytest.mark.parametrize("fid", ALL_IDS)
@pytest.mark.parametrize("dim", [1, 2, 10, 50])
def test_objectives_raise_nothing_under_the_instruction_error_state(fid, dim):
    # The harness evaluates inside instruction_errstate, where overflow,
    # invalid and divide-by-zero raise. Built-in objectives must not, at any
    # in-bounds point of any transformed instance: corners, the centre,
    # zeros of either sign, the bounds' neighbours and random points.
    rng = np.random.default_rng(dim)
    for seed in range(4):
        function = make_function(fid, dim, seed)
        lower, upper = function.bounds
        family = ProblemFamily(function)
        edges = [lower, upper, math.nextafter(lower, upper), math.nextafter(upper, lower),
                 0.0, -0.0, (lower + upper) / 2.0, 5e-324, -5e-324]
        points = [np.full(dim, e) for e in edges]
        points += [rng.choice(edges, dim) for _ in range(50)]
        points += [rng.uniform(lower, upper, dim) for _ in range(100)]
        for t in range(5):
            problem = family.instance(stream(seed, "transform", t))
            with instruction_errstate():
                for x in points:
                    assert math.isfinite(problem.evaluate(x))


@pytest.mark.parametrize("fid", ALL_IDS)
def test_non_negativity(fid):
    fn = make_function(fid, 10, 21)
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.uniform(fn.lower, fn.upper, 10)
        assert fn.evaluate(x) >= -1e-9


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class MidpointRng:
    """Stub generator that always draws the midpoint of each range."""

    def uniform(self, low, high, size=None):
        mid = (np.asarray(low) + np.asarray(high)) / 2.0
        if size is None:
            return mid
        return np.broadcast_to(mid, size).copy() if np.ndim(mid) == 0 else mid

    def random(self, size=None):
        if size is None:
            return 0.5
        return np.full(size, 0.5)


def test_sample_transform_midpoint_stub():
    t = sample_transform((-100.0, 100.0), 4, MidpointRng())
    assert t.translation.tolist() == [0.0] * 4
    assert t.scale.tolist() == [1.25] * 4
    assert t.flip.tolist() == [1.0] * 4  # threshold draw is not a flip


def test_sample_transform_ranges():
    rng = stream(1, "transforms")
    for _ in range(200):
        t = sample_transform((-5.0, 5.0), 6, rng)
        assert (np.abs(t.translation) <= 2.5 + 1e-12).all()
        assert ((t.scale >= 0.5) & (t.scale <= 2.0)).all()
        assert set(np.unique(t.flip)) <= {-1.0, 1.0}


def test_flip_rate_is_binomial():
    rng = stream(2, "flips")
    flips = 0
    n = 10_000
    for _ in range(n):
        t = sample_transform((-5.0, 5.0), 1, rng)
        flips += t.flip[0] == -1.0
    assert 0.47 <= flips / n <= 0.53


@pytest.mark.parametrize("fid", ALL_IDS)
def test_transformed_optimum_stays_in_bounds_and_is_optimal(fid):
    fn = make_function(fid, 10, 31)
    rng = stream(17, "opt", fid)
    for _ in range(100):
        t = sample_transform(fn.bounds, fn.dim, rng, optimum=fn.shift)
        problem = Problem(fn, t)
        x_star = problem.transformed_optimum()
        assert (x_star >= fn.lower - 1e-9).all()
        assert (x_star <= fn.upper + 1e-9).all()
        assert abs(problem.evaluate(x_star)) < 1e-9


def test_transform_is_reparameterization():
    fn = make_function("F9", 4, 2)
    rng = stream(5, "re")
    t = sample_transform(fn.bounds, 4, rng, optimum=fn.shift)
    problem = Problem(fn, t)
    plain = Problem.plain(fn)
    for _ in range(50):
        x = rng.uniform(fn.lower, fn.upper, 4)
        assert rel_close(problem.evaluate(x), plain.evaluate(problem.map_point(x)))


@pytest.mark.parametrize("fid", ALL_IDS)
@pytest.mark.parametrize("dim", [1, 2, 10, 50])
def test_map_point_is_bit_identical_to_the_transform_expression(fid, dim):
    fn = make_function(fid, dim, 6)
    rng = stream(8, "map", fid, dim)
    centre = (fn.lower + fn.upper) / 2.0
    for _ in range(5):
        t = sample_transform(fn.bounds, dim, rng, optimum=fn.shift)
        problem = Problem(fn, t)
        for _ in range(5):
            x = rng.uniform(fn.lower, fn.upper, dim)
            expected = t.flip * t.scale * (x - centre) + centre + t.translation
            assert problem.map_point(x).tobytes() == expected.tobytes()


def test_identity_transform_is_identity_map():
    fn = make_function("F13", 3, 4)
    problem = Problem.plain(fn)
    x = np.array([0.3, -1.2, 0.9])
    assert problem.map_point(x).tolist() == x.tolist()
    assert problem.transform.is_identity()


def test_custom_transform_ranges():
    rng = stream(9, "custom")
    ranges = TransformRanges(translate_frac=0.0, scale=(1.0, 1.0), flip_prob=0.0)
    t = sample_transform((-5.0, 5.0), 3, rng, ranges=ranges)
    assert t.is_identity()


@pytest.mark.parametrize(
    "ranges, message",
    [
        ({"scale": (1.0,)}, "scale"),
        ({"scale": (1.0, 2.0, 3.0)}, "scale"),
        ({"scale": (0.0, 0.0)}, "scale"),
        ({"scale": (-1.0, 2.0)}, "scale"),
        ({"scale": (2.0, 1.0)}, "scale"),
        ({"scale": (0.5, math.inf)}, "scale"),
        ({"scale": (math.nan, 1.0)}, "scale"),
        ({"flip_prob": 3.0}, "flip_prob"),
        ({"flip_prob": -0.1}, "flip_prob"),
        ({"flip_prob": math.nan}, "flip_prob"),
        ({"translate_frac": -0.5}, "translate_frac"),
        ({"translate_frac": math.inf}, "translate_frac"),
        ({"translate_frac": math.nan}, "translate_frac"),
    ],
)
def test_transform_ranges_refuse_bad_values(ranges, message):
    with pytest.raises(ValueError, match=message):
        TransformRanges(**ranges)


def test_transform_ranges_take_their_edge_values():
    for ranges in ({"scale": (1.0, 1.0)}, {"flip_prob": 0.0}, {"flip_prob": 1.0}, {"translate_frac": 0.0}):
        TransformRanges(**ranges)


# ---------------------------------------------------------------------------
# Families and descriptors
# ---------------------------------------------------------------------------


def test_family_identity_vs_random():
    fn = make_function("F1", 2, 6)
    identity = ProblemFamily(fn, Transform.identity(2))
    assert identity.instance(stream(0, "x")).transform.is_identity()
    randomized = ProblemFamily(fn)
    transforms = {
        tuple(randomized.instance(stream(0, "y", i)).transform.translation)
        for i in range(5)
    }
    assert len(transforms) == 5


def test_descriptor_round_trip():
    family = problem_family_from_descriptor(
        {"id": "F9", "D": 3, "seed": 11, "transform": "identity"}
    )
    assert family.function.id == "F9"
    assert family.function.dim == 3
    assert isinstance(family.transforms, Transform) and family.transforms.is_identity()


def test_descriptor_explicit_transform():
    family = problem_family_from_descriptor(
        {
            "id": "F1",
            "D": 2,
            "transform": {
                "translation": [1.0, -1.0],
                "scale": [1.0, 2.0],
                "flip": [1.0, -1.0],
            },
        }
    )
    problem = family.instance(stream(0, "z"))
    assert problem.transform.translation.tolist() == [1.0, -1.0]


BAD_TRANSFORMS = {
    "short-lists": {"translation": [1.0], "scale": [2.0], "flip": [1.0]},
    "long-list": {"translation": [0.0] * 4, "scale": [1.0] * 3, "flip": [1.0] * 3},
    "nested": {"translation": [[0.0]] * 3, "scale": [1.0] * 3, "flip": [1.0] * 3},
    "scalar": {"translation": 0.0, "scale": [1.0] * 3, "flip": [1.0] * 3},
    "nan": {"translation": [0.0, float("nan"), 0.0], "scale": [1.0] * 3, "flip": [1.0] * 3},
    "inf": {"translation": [0.0] * 3, "scale": [1.0, float("inf"), 1.0], "flip": [1.0] * 3},
    "zero-scale": {"translation": [0.0] * 3, "scale": [1.0, 0.0, 1.0], "flip": [1.0] * 3},
    "negative-scale": {"translation": [0.0] * 3, "scale": [-1.0] * 3, "flip": [1.0] * 3},
    "flip-5": {"translation": [0.0] * 3, "scale": [1.0] * 3, "flip": [1.0, 5.0, -1.0]},
    "flip-0": {"translation": [0.0] * 3, "scale": [1.0] * 3, "flip": [0.0] * 3},
    "missing-flip": {"translation": [0.0] * 3, "scale": [1.0] * 3},
    "extra-key": {"translation": [0.0] * 3, "scale": [1.0] * 3, "flip": [1.0] * 3, "rotate": 1},
}


@pytest.mark.parametrize("name", sorted(BAD_TRANSFORMS))
def test_descriptor_bad_explicit_transform_is_error(name):
    with pytest.raises(ValueError, match="transform"):
        problem_family_from_descriptor({"id": "F1", "D": 3, "transform": BAD_TRANSFORMS[name]})


def test_descriptor_bounds_override():
    family = problem_family_from_descriptor(
        {"id": "F1", "D": 2, "bounds_override": [-10, 10]}
    )
    assert family.function.bounds == (-10.0, 10.0)


@pytest.mark.parametrize(
    "bounds",
    [[-1e308, 1e308], [1, 1], [2, 1], [1], [1, 2, 3], ["a", 1], [True, 2], [0, math.inf],
     [-math.nan, 1], "0 1", {"lower": 0}, []],
)
def test_descriptor_bad_bounds_override_is_error(bounds):
    with pytest.raises(ValueError, match="bounds_override"):
        problem_family_from_descriptor({"id": "F1", "D": 2, "bounds_override": bounds})


def test_descriptor_bounds_override_takes_a_huge_integer_as_a_bad_value():
    with pytest.raises(ValueError, match="bounds_override"):
        problem_family_from_descriptor({"id": "F1", "D": 2, "bounds_override": [0, 10**400]})


def test_descriptor_null_bounds_override_keeps_the_default():
    family = problem_family_from_descriptor({"id": "F9", "D": 2, "bounds_override": None})
    assert family.function.bounds == (-5.0, 5.0)


def test_descriptor_unknown_key_is_error():
    with pytest.raises(ValueError, match="unknown descriptor keys"):
        problem_family_from_descriptor({"id": "F1", "D": 2, "bogus": 1})


def test_descriptor_missing_required_key():
    with pytest.raises(ValueError, match="missing required"):
        problem_family_from_descriptor({"id": "F1"})
