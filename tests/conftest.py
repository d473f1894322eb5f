import numpy as np
import pytest
from hypothesis import settings

from pushopt.problems import BenchmarkFunction, register_function
from pushopt.push import InterpreterState, SwarmContext, parse_program

# Reproducible property tests: the suite's pass/fail must not depend on the
# run's entropy.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# Stub objectives with exactly known behaviour, usable wherever a function id
# is accepted. STUB-X0: first coordinate minus the lower bound (error 0 at
# the left edge). STUB-7: constant error 7. STUB-SPHERE0: squared distance to
# the origin, whose optimum a program can propose exactly via
# "(0.0 vector.wrand)".
register_function(
    "STUB-X0",
    lambda dim, seed, bounds=None: BenchmarkFunction(
        "STUB-X0", dim, -1.0, 1.0, np.full(dim, -1.0)
    ),
    lambda fn, x: float(x[0] - fn.lower),
)
register_function(
    "STUB-7",
    lambda dim, seed, bounds=None: BenchmarkFunction(
        "STUB-7", dim, -1.0, 1.0, np.zeros(dim)
    ),
    lambda fn, x: 7.0,
)
register_function(
    "STUB-SPHERE0",
    lambda dim, seed, bounds=None: BenchmarkFunction(
        "STUB-SPHERE0", dim, -1.0, 1.0, np.zeros(dim)
    ),
    lambda fn, x: float(np.asarray(x) @ np.asarray(x)),
)

# Reference evolved optimiser expressions, paired with the benchmark function
# each was trained on. Used as realistic fixtures throughout the suite.
EVOLVED_OPTIMISERS = {
    "F1": "(exec.dup float.- vector.- float.pop vector.zip vector.zip integer.swap"
    " float.cos float.- float.cos float.- float.yank vector.best vector.wrand"
    " float.abs float.dup float.frominteger vector.- vector.dim*)",
    "F9": "(input.stackdepth float.frominteger vector.yank vector.wrand boolean.dup"
    " integer.fromboolean vector.swap integer.rot float.frominteger float.sin"
    " vector.yank vector.shove vector.dim+ vector.yank 0.0 float.> input.inall"
    " boolean.not 1 boolean.dup vector.pop boolean.stackdepth)",
    "F12": "(vector.stackdepth vector.swap float.fromboolean integer.fromboolean"
    " integer.rand vector.dim+ float.+ vector.swap integer.rand 0 vector.swap"
    " integer.max integer.= vector.stackdepth integer.dup vector.- integer.dup"
    " integer.rand vector.- vector.dim+ vector.mag float.frominteger float.tan"
    " integer.rot vector.dim+)",
    "F13": "(integer.- float.sin vector.wrand integer.yankdup vector.dim* vector.-"
    " input.inall float.sin vector.-)",
    "F14": "(float.< float./ vector.best vector.yankdup float.ln float.max"
    " float.stackdepth 0.48999998 float.abs vector.between vector.wrand vector.scale"
    " integer.yank input.index vector.- float.rand float.neg 0.97999996 float.-"
    " 0.97999996 vector.wrand vector.scale vector.-)",
}

# The swarm-size x moves configuration each expression was trained under.
TRAINED_CONFIGS = {
    "F1": (5, 200),
    "F9": (1, 1000),
    "F12": (5, 200),
    "F13": (1, 1000),
    "F14": (25, 40),
}


@pytest.fixture
def evolved_programs():
    return {fid: parse_program(text) for fid, text in EVOLVED_OPTIMISERS.items()}


def fresh_state(dim=2, seed=0, inputs=(-1.0, 1.0), **settings):
    return InterpreterState(dim=dim, rng=np.random.default_rng(seed), inputs=inputs, **settings)


def solo_context(dim=2):
    point = np.zeros(dim)
    return SwarmContext([point], [point], 0)
