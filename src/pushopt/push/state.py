"""Interpreter state: the typed stacks and the swarm lookup context."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EXECUTION_LIMIT = 100


@dataclass(frozen=True)
class PushSettings:
    """Ranges for the random-value instructions and ephemeral constants.

    Each range is inclusive at both ends for integers; float ranges follow
    numpy's half-open uniform convention.
    """

    float_rand: tuple[float, float] = (0.0, 1.0)
    integer_rand: tuple[int, int] = (-10, 10)
    vector_rand: tuple[float, float] = (-1.0, 1.0)
    float_erc: tuple[float, float] = (-1.0, 1.0)
    integer_erc: tuple[int, int] = (-10, 10)


DEFAULT_SETTINGS = PushSettings()


@dataclass
class SwarmContext:
    """Every swarm member's current and best point as of the start of the
    move; instructions only read it.

    Lookups reduce the requested index modulo the swarm size; a negative
    index resolves to the calling member itself.
    """

    currents: list
    bests: list
    self_index: int = 0

    @property
    def size(self) -> int:
        return len(self.currents)

    def resolve(self, index) -> int:
        if index is None or index < 0:
            return self.self_index
        return int(index) % self.size


@dataclass
class InterpreterState:
    """The six stacks of one interpreter plus its RNG and step accounting.

    A state is single-owner: it is never shared between interpreters. The
    input stack is fixed at seeding time and never modified by execution.
    Vectors on the vector stack are float64 arrays of length ``dim`` and are
    treated as immutable (instructions copy before modifying).
    """

    dim: int
    rng: np.random.Generator = None
    settings: PushSettings = DEFAULT_SETTINGS
    booleans: list = field(default_factory=list)
    integers: list = field(default_factory=list)
    floats: list = field(default_factory=list)
    vectors: list = field(default_factory=list)
    exec: list = field(default_factory=list)
    inputs: tuple = ()
    steps_used: int = 0
    step_limit: int = DEFAULT_EXECUTION_LIMIT
    usage: dict = None

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng()

    def clear_stacks(self) -> None:
        self.booleans.clear()
        self.integers.clear()
        self.floats.clear()
        self.vectors.clear()
        self.exec.clear()

    def stack_snapshot(self):
        return (
            list(self.booleans),
            list(self.integers),
            list(self.floats),
            list(self.vectors),
            list(self.exec),
        )
