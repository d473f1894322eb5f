"""Interpreter state: the typed stacks and the swarm lookup context."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EXECUTION_LIMIT = 100


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

    def resolve(self, index) -> int:
        if index is None or index < 0:
            return self.self_index
        return int(index) % len(self.currents)


@dataclass(slots=True)
class InterpreterState:
    """The six stacks of one interpreter plus its RNG, step accounting and
    run settings: ``step_limit`` and the swarm ``ctx`` that
    ``vector.current`` and ``vector.best`` read. Slots refuse any other
    attribute. Instruction counts are taken around a run
    (``interpreter.counting``), not on the state.

    A state is single-owner: it is never shared between interpreters. The
    input stack is fixed at seeding time and never modified by execution.
    Vectors on the vector stack are float64 arrays of length ``dim`` and are
    treated as immutable (instructions copy before modifying).
    """

    dim: int
    rng: np.random.Generator
    booleans: list = field(default_factory=list)
    integers: list = field(default_factory=list)
    floats: list = field(default_factory=list)
    vectors: list = field(default_factory=list)
    exec: list = field(default_factory=list)
    inputs: tuple = ()
    steps_used: int = 0
    step_limit: int = DEFAULT_EXECUTION_LIMIT
    ctx: SwarmContext = None

    def __post_init__(self):
        if self.step_limit < 1:
            raise ValueError("execution limit must be >= 1")

    def stack_snapshot(self):
        return (
            list(self.booleans),
            list(self.integers),
            list(self.floats),
            list(self.vectors),
            list(self.exec),
        )
