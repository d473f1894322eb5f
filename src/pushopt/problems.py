"""Benchmark objective functions with per-instance random transformations.

Five functions in the CEC 2005 style are built in: F1 (shifted sphere),
F9 (shifted Rastrigin), F12 (Schwefel's problem 2.13), F13 (shifted expanded
Griewank plus Rosenbrock) and F14 (shifted expanded Schaffer F6). All are
minimisation problems reported as error values, so the global minimum has
error 0 by construction. Shift vectors and F12 matrices are generated from a
named seed rather than loaded from data files.

Additional functions can be plugged in through ``register_function``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import stream


@dataclass(frozen=True)
class BenchmarkFunction:
    """A benchmark objective over a hyper-cubic domain.

    ``evaluate`` returns the error f(x) - f(x*), which is 0 at the shift
    point. Instances are immutable and safe for concurrent evaluation.
    """

    id: str
    dim: int
    lower: float
    upper: float
    shift: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def evaluate(self, point: np.ndarray) -> float:
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        return _EVALUATORS[self.id](self, np.asarray(point, dtype=float))

    def __reduce__(self):
        # A spawn or forkserver worker holds only what its imports registered.
        fields = (self.id, self.dim, self.lower, self.upper, self.shift, self.params)
        return _unpickle_function, (_EVALUATORS.get(self.id), fields)


def _unpickle_function(evaluator, fields) -> BenchmarkFunction:
    if evaluator is not None:
        _EVALUATORS.setdefault(fields[0], evaluator)
    return BenchmarkFunction(*fields)


# Function ids map to their builders and evaluators; an instance names its
# evaluator by id, so it holds no function object of its own.
_EVALUATORS: dict = {}
_BUILDERS: dict = {}


def register_function(fid: str, builder, evaluator) -> None:
    """Register an externally supplied benchmark function.

    ``builder(dim, seed, bounds)`` must return a BenchmarkFunction with
    ``id == fid``; ``evaluator(function, point)`` must return the error at
    ``point`` as a finite number, and must be a deterministic function of
    the point. The harness relies on both: it reuses a member's last value
    when the member proposes the same point again, results match across
    ``jobs`` counts only if workers compute the same values, and a value
    that is not finite, or a numpy floating-point error (evaluation runs
    under ``instruction_errstate``), stops the run with ``ValueError``.

    A pickled instance carries its evaluator, by module and name, and
    registers it where it is missing, so worker processes need no
    registration of their own; for ``jobs > 1`` under ``spawn`` or
    ``forkserver``, ``evaluator`` must therefore be a module-level function.
    """
    _BUILDERS[fid] = builder
    _EVALUATORS[fid] = evaluator


def make_function(fid: str, dim: int, seed: int, bounds: tuple = None) -> BenchmarkFunction:
    """Build a function instance, deterministic in (id, dim, seed)."""
    if fid not in _BUILDERS:
        raise ValueError(
            f"unsupported function id: {fid} (supported: {', '.join(_BUILDERS)})"
        )
    if dim < 1:
        raise ValueError("dimensionality must be >= 1")
    if seed < 0:
        raise ValueError("function seed must be >= 0")
    return _BUILDERS[fid](dim, seed, bounds)


def _shift_within(lower, upper, dim, rng, margin=0.1):
    # Keep the optimum away from the boundary so transformed instances stay
    # well-posed after translation clamping.
    span = upper - lower
    return rng.uniform(lower + margin * span, upper - margin * span, dim)


def _builder(fid, default_bounds):
    def build(dim, seed, bounds=None):
        lower, upper = bounds if bounds is not None else default_bounds
        rng = stream(seed, "function", fid, dim)
        params = {}
        if fid == "F12":
            # The optimum is the angle vector itself, which may sit anywhere
            # in the domain; the integer matrices define the landscape.
            a = rng.integers(-100, 101, (dim, dim))
            b = rng.integers(-100, 101, (dim, dim))
            shift = rng.uniform(lower, upper, dim)
            params = {"a": a, "b": b, "target": a @ np.sin(shift) + b @ np.cos(shift)}
        else:
            shift = _shift_within(lower, upper, dim, rng)
        return BenchmarkFunction(fid, dim, float(lower), float(upper), shift, params)

    return build


def _eval_f1(fn, x):
    z = x - fn.shift
    return float(z.dot(z))


def _eval_f9(fn, x):
    z = x - fn.shift
    return float(np.sum(z * z - 10.0 * np.cos(2.0 * math.pi * z) + 10.0))


def _eval_f12(fn, x):
    b = fn.params["a"] @ np.sin(x) + fn.params["b"] @ np.cos(x)
    d = fn.params["target"] - b
    return float(d @ d)


def _rotate_left(z):
    # np.roll(z, -1) without its overhead: the same values in the same order.
    v = np.empty_like(z)
    v[:-1] = z[1:]
    v[-1] = z[0]
    return v


def _eval_f13(fn, x):
    z = x - fn.shift + 1.0
    u = z
    v = _rotate_left(z)
    t = 100.0 * (u * u - v) ** 2 + (u - 1.0) ** 2
    return float(np.sum(t * t / 4000.0 - np.cos(t) + 1.0))


def _eval_f14(fn, x):
    # sum(0.5 + (sin(sqrt(s))**2 - 0.5) / (1 + 0.001*s)**2) with
    # s = z*z + roll(z, -1)**2, worked in place on two temporaries and with
    # each z*z taken once. It rounds as that form does: floating-point + and
    # * commute exactly, and numpy computes a**2 as a * a.
    q = x - fn.shift
    q *= q
    s = _rotate_left(q)
    s += q
    np.multiply(s, 0.001, out=q)
    q += 1.0
    q *= q
    np.sqrt(s, out=s)
    np.sin(s, out=s)
    s *= s
    s -= 0.5
    s /= q
    s += 0.5
    # The method skips np.sum's dispatch; both run the same add.reduce.
    return float(s.sum())


register_function("F1", _builder("F1", (-100.0, 100.0)), _eval_f1)
register_function("F9", _builder("F9", (-5.0, 5.0)), _eval_f9)
register_function("F12", _builder("F12", (-math.pi, math.pi)), _eval_f12)
register_function("F13", _builder("F13", (-3.0, 1.0)), _eval_f13)
register_function("F14", _builder("F14", (-100.0, 100.0)), _eval_f14)


# ---------------------------------------------------------------------------
# Instance transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformRanges:
    """Sampling ranges for instance transforms.

    ``translate_frac`` is the maximum translation as a fraction of the
    half-range of each axis.
    """

    translate_frac: float = 0.5
    scale: tuple[float, float] = (0.5, 2.0)
    flip_prob: float = 0.5

    def __post_init__(self):
        if len(self.scale) != 2 or not 0.0 < self.scale[0] <= self.scale[1] < math.inf:
            raise ValueError("transform scale range must be two finite numbers with 0 < low <= high")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("transform flip_prob must be in [0, 1]")
        if not 0.0 <= self.translate_frac < math.inf:
            raise ValueError("transform translate_frac must be finite and >= 0")


DEFAULT_TRANSFORM_RANGES = TransformRanges()


@dataclass(frozen=True)
class Transform:
    """Per-axis translation, scaling and axis flips of a function instance."""

    translation: np.ndarray
    scale: np.ndarray
    flip: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "Transform":
        return cls(np.zeros(dim), np.ones(dim), np.ones(dim))

    def is_identity(self) -> bool:
        return (
            not self.translation.any()
            and (self.scale == 1.0).all()
            and (self.flip == 1.0).all()
        )


def sample_transform(
    bounds: tuple[float, float],
    dim: int,
    rng: np.random.Generator,
    optimum: np.ndarray = None,
    ranges: TransformRanges = DEFAULT_TRANSFORM_RANGES,
) -> Transform:
    """Draw a random instance transform.

    Translations are clamped per axis so that the pre-image of ``optimum``
    (when given) stays inside the bounds.
    """
    lower, upper = bounds
    centre = (lower + upper) / 2.0
    half = (upper - lower) / 2.0
    t_max = ranges.translate_frac * half
    translation = rng.uniform(-t_max, t_max, dim)
    scale = rng.uniform(ranges.scale[0], ranges.scale[1], dim)
    flip = np.where(rng.random(dim) < ranges.flip_prob, -1.0, 1.0)
    if optimum is not None:
        offset = optimum - centre
        translation = np.clip(translation, offset - scale * half, offset + scale * half)
    return Transform(translation, scale, flip)


@dataclass(frozen=True)
class Problem:
    """A benchmark function composed with an instance transform.

    Evaluation applies the per-axis map flip -> scale -> translate in
    function space and is a pure function of the point.
    """

    function: BenchmarkFunction
    transform: Transform

    @classmethod
    def plain(cls, function: BenchmarkFunction) -> "Problem":
        return cls(function, Transform.identity(function.dim))

    @property
    def dim(self) -> int:
        return self.function.dim

    @property
    def bounds(self) -> tuple[float, float]:
        return self.function.bounds

    @cached_property
    def _affine(self):
        # (flip*scale, centre, translation), or None for the identity transform.
        t = self.transform
        if t.is_identity():
            return None
        return t.flip * t.scale, (self.function.lower + self.function.upper) / 2.0, t.translation

    def map_point(self, point: np.ndarray) -> np.ndarray:
        if self._affine is None:
            return point
        flip_scale, centre, translation = self._affine
        # flip*scale*(point-centre) + centre + translation, in that order on one
        # temporary; folding it into one affine map a*x + b changes the rounding.
        r = point - centre
        r *= flip_scale
        r += centre
        r += translation
        return r

    def evaluate(self, point: np.ndarray) -> float:
        # The function checks the length of the point it is given. A
        # transform keeps a wrong length (at D=1) or refuses it with numpy's
        # message, which is then replaced by the function's.
        try:
            return self.function.evaluate(self.map_point(point))
        except ValueError:
            if len(point) != self.dim:
                raise ValueError(f"point has length {len(point)}, expected {self.dim}") from None
            raise

    def transformed_optimum(self) -> np.ndarray:
        """The point whose image under the transform is the function shift."""
        centre = (self.function.lower + self.function.upper) / 2.0
        offset = self.function.shift - centre - self.transform.translation
        return centre + offset / (self.transform.flip * self.transform.scale)


@dataclass(frozen=True)
class ProblemFamily:
    """A source of problem instances for repeated optimisation runs.

    With ``TransformRanges`` each instance draws its own transform from
    them; a ``Transform`` (``Transform.identity(dim)`` for the plain
    function) is used as is by every instance.
    """

    function: BenchmarkFunction
    transforms: TransformRanges | Transform = DEFAULT_TRANSFORM_RANGES

    def instance(self, rng: np.random.Generator) -> Problem:
        if isinstance(self.transforms, Transform):
            return Problem(self.function, self.transforms)
        transform = sample_transform(
            self.function.bounds,
            self.function.dim,
            rng,
            optimum=self.function.shift,
            ranges=self.transforms,
        )
        return Problem(self.function, transform)


# ---------------------------------------------------------------------------
# Problem descriptor files
# ---------------------------------------------------------------------------

_DESCRIPTOR_KEYS = {"id", "D", "seed", "transform", "bounds_override"}


def problem_family_from_descriptor(raw: dict) -> ProblemFamily:
    """A problem descriptor's family: {id, D, seed, transform, bounds_override}.

    ``transform`` is "random" (default), "identity", or an explicit object
    with per-axis ``translation``, ``scale`` and ``flip`` lists.
    """
    unknown = set(raw) - _DESCRIPTOR_KEYS
    if unknown:
        raise ValueError(f"unknown descriptor keys: {', '.join(sorted(unknown))}")
    for key in ("id", "D"):
        if key not in raw:
            raise ValueError(f"descriptor missing required key: {key}")
    for key, kind, name in (("id", str, "a string"), ("D", int, "an integer"), ("seed", int, "an integer")):
        if key in raw and type(raw[key]) is not kind:
            raise ValueError(f"descriptor {key} must be {name}, not {raw[key]!r}")
    bounds = raw.get("bounds_override")
    function = make_function(
        raw["id"], raw["D"], raw.get("seed", 0),
        bounds=None if bounds is None else _bounds_override(bounds),
    )
    transform = raw.get("transform", "random")
    if transform == "random":
        return ProblemFamily(function)
    if transform == "identity":
        return ProblemFamily(function, Transform.identity(function.dim))
    if isinstance(transform, dict):
        return ProblemFamily(function, _explicit_transform(transform, function.dim))
    raise ValueError(f"bad transform value: {transform!r}")


def _bounds_override(raw) -> tuple:
    # Two finite numbers, lower < upper, with a finite width: sampling and
    # the instance transform both work with upper - lower.
    try:
        if not isinstance(raw, list) or len(raw) != 2 or any(type(b) not in (int, float) for b in raw):
            raise ValueError
        # float() overflows on an integer too large for a float.
        lower, upper = float(raw[0]), float(raw[1])
        if not (lower < upper and math.isfinite(upper - lower)):
            raise ValueError
    except (ValueError, OverflowError):
        raise ValueError(
            f"bounds_override must be two finite numbers [lower, upper] with lower < upper "
            f"and a finite upper - lower, got {raw!r}"
        ) from None
    return lower, upper


def _explicit_transform(raw: dict, dim: int) -> Transform:
    # Each list holds one finite value per axis; scales are positive and
    # flips are +1 or -1.
    keys = ("translation", "scale", "flip")
    if set(raw) != set(keys):
        raise ValueError(f"transform object needs exactly the keys {', '.join(keys)}")
    axes = {}
    for key in keys:
        try:
            values = np.asarray(raw[key], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"transform {key} must list {dim} numbers, got {raw[key]!r}") from None
        if values.shape != (dim,):
            raise ValueError(f"transform {key} must list {dim} values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"transform {key} must be finite")
        axes[key] = values
    if (axes["scale"] <= 0.0).any():
        raise ValueError("transform scale must be > 0")
    if not (np.abs(axes["flip"]) == 1.0).all():
        raise ValueError("transform flip values must be 1 or -1")
    return Transform(**axes)
