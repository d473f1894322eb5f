"""Bounded execution of programs against an interpreter state."""

from __future__ import annotations

import numpy as np

from .ops import REGISTRY, ExecGroup
from .state import DEFAULT_EXECUTION_LIMIT, InterpreterState, SwarmContext


class UnknownInstructionError(KeyError):
    pass


def _run_exec(state: InterpreterState, ctx) -> None:
    # Hot loop: stacks are only ever mutated in place, so aliases of their
    # methods stay valid. The step count is synced with state.steps_used
    # around instruction calls (vector.apply/zip nest on it) and on exit.
    ex = state.exec
    pop = ex.pop
    registry = REGISTRY
    push_boolean = state.booleans.append
    push_integer = state.integers.append
    push_float = state.floats.append
    usage = state.usage
    limit = state.step_limit
    steps = state.steps_used
    while ex and steps < limit:
        item = pop()
        steps += 1
        kind = type(item)
        if kind is str:
            state.steps_used = steps
            fn = registry.get(item)
            if fn is None:
                raise UnknownInstructionError(item)
            fn(state, ctx)
            steps = state.steps_used
            if usage is not None:
                usage[item] = usage.get(item, 0) + 1
        elif kind is float:
            push_float(item)
        elif kind is int:
            push_integer(item)
        elif kind is bool:
            push_boolean(item)
        elif kind is ExecGroup:
            ex.extend(reversed(item.items))
        else:
            state.steps_used = steps
            raise TypeError(f"cannot execute item of type {kind.__name__}")
    state.steps_used = steps


def instruction_errstate():
    """The numpy floating-point error state that instructions run under.

    Instructions detect overflow and invalid results by checking their
    values, so numpy's warnings are silenced. ``run_with_source`` enters this
    state once per run; code that calls ``run_move``, ``step_swarm`` or
    ``REGISTRY[name](state, ctx)`` directly should enter it too, for example
    around a whole loop of such calls::

        with instruction_errstate():
            REGISTRY["vector.+"](state, ctx)
    """
    return np.errstate(all="ignore")


def run_single_item(state: InterpreterState, ctx, item) -> None:
    """Run one item to completion on a private exec stack.

    Used by instructions that take a code argument; shares the caller's step
    budget so nested execution cannot exceed the move limit.
    """
    saved = state.exec
    state.exec = [item]
    try:
        _run_exec(state, ctx)
    finally:
        state.exec = saved


def run_move(
    state: InterpreterState,
    program,
    ctx: SwarmContext = None,
    limit: int = DEFAULT_EXECUTION_LIMIT,
    usage: dict = None,
) -> InterpreterState:
    """Execute one move of ``program`` against ``state``.

    The exec stack is cleared and reloaded with the program items; execution
    proceeds until the exec stack empties or ``limit`` item executions have
    been counted (literals and group unpacks count). All other stacks
    persist between moves. The caller enters ``instruction_errstate``, as
    ``run_with_source`` does once around all of its moves.
    """
    if limit <= 0:
        raise ValueError("execution limit must be positive")
    state.exec.clear()
    state.exec.extend(reversed(program.items))
    state.steps_used = 0
    state.step_limit = limit
    state.usage = usage
    _run_exec(state, ctx)
    return state
