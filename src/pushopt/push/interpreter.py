"""Bounded execution of programs against an interpreter state."""

from __future__ import annotations

from operator import length_hint
from types import FunctionType

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

    Overflow, invalid and divide-by-zero raise ``FloatingPointError``;
    underflow is ignored. Vector instructions refuse a result on that error
    instead of checking its values, so correctness, not only quiet, depends
    on this state: outside it they would push non-finite vectors.
    ``run_with_source`` enters it once per run, around the objective's
    evaluations too; code that calls ``run_move``, ``step_swarm`` or
    ``REGISTRY[name](state, ctx)`` directly must enter it as well, for
    example around a whole loop of such calls::

        with instruction_errstate():
            REGISTRY["vector.+"](state, ctx)
    """
    return np.errstate(over="raise", invalid="raise", divide="raise", under="ignore")


def run_single_item(state: InterpreterState, ctx, item) -> None:
    """Run one item to completion on a private exec stack.

    Used by instructions that take a code argument; shares the caller's step
    budget so nested execution cannot exceed the move limit. Steps, stacks
    and exceptions are those of running ``[item]`` through the loop. While
    usage is not counted, a name registered to a plain function runs as one
    step without the loop, and one flagged ``touches_exec`` sees an empty
    private exec stack, as it would there. Everything else, and every item
    while ``state.usage`` is counted, runs through the loop, which alone
    counts usage.
    """
    fn = REGISTRY.get(item) if type(item) is str and state.usage is None else None
    saved = state.exec
    if type(fn) is not FunctionType:
        state.exec = [item]
        try:
            _run_exec(state, ctx)
        finally:
            state.exec = saved
        return
    steps = state.steps_used
    if steps >= state.step_limit:
        return
    state.steps_used = steps + 1
    if not fn.touches_exec:
        fn(state, ctx)
        return
    state.exec = []
    try:
        fn(state, ctx)
        # Whatever the instruction left on the private stack runs as it
        # would in the loop.
        if state.exec:
            _run_exec(state, ctx)
    finally:
        state.exec = saved


def resolve_plan(items) -> tuple:
    """The execution plan of a program's straight-line prefix.

    Each instruction resolves to its registered function and each literal
    stands for itself. The plan stops before the first item that needs the
    exec stack to run exactly: an instruction registered with
    ``touches_exec``, an unknown name or an item that is not a literal. It
    also stops at a name registered to anything but a plain function, so
    that every other step is a literal. A plan keeps the functions
    registered when it was resolved.
    """
    plan = []
    for item in items:
        kind = type(item)
        if kind is str:
            fn = REGISTRY.get(item)
            if type(fn) is not FunctionType or fn.touches_exec:
                break
            plan.append(fn)
        elif kind is float or kind is int or kind is bool:
            plan.append(item)
        else:
            break
    return tuple(plan)


def run_steps(state: InterpreterState, ctx, steps) -> None:
    """Run plan steps (see ``resolve_plan``) taken from the iterator
    ``steps``, without the exec stack or the step counters, which the
    caller keeps. When a step raises, the iterator has handed out every
    step up to and including that one."""
    for step in steps:
        # Instructions first: literals are rare in programs.
        kind = type(step)
        if kind is FunctionType:
            step(state, ctx)
        elif kind is float:
            state.floats.append(step)
        elif kind is int:
            state.integers.append(step)
        else:
            state.booleans.append(step)


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

    While ``usage`` is None, the items of ``program.plan`` run first, in
    program order and without the exec stack, which none of them can see;
    the remaining items are then loaded onto the exec stack for the general
    loop. Step counts and leftover exec items are those of running every
    item through the loop, also when the limit cuts the plan short or an
    instruction raises. A ``usage`` dict is counted by the general loop
    alone, so with one every item runs through it.
    """
    if limit <= 0:
        raise ValueError("execution limit must be positive")
    items = program.items
    plan = program.plan if usage is None else ()
    if len(plan) > limit:
        plan = plan[:limit]
    state.exec.clear()
    state.step_limit = limit
    state.usage = usage
    steps = iter(plan)
    try:
        run_steps(state, ctx, steps)
    except BaseException:
        # The loop counts the raising item as a step and leaves the items
        # after it on the exec stack.
        ran = len(plan) - length_hint(steps)
        state.steps_used = ran
        state.exec.extend(reversed(items[ran:]))
        raise
    ran = len(plan)
    state.steps_used = ran
    if ran < len(items):
        # The cached tail follows a whole plan; a plan the limit cut short
        # leaves more items, which the loop then does not run.
        state.exec.extend(program.tail if plan is program.plan else reversed(items[ran:]))
        _run_exec(state, ctx)
    return state
