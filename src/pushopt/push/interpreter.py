"""The instruction registry and the bounded execution of programs against an
interpreter state.

A tuple on the exec stack is a group: a continuation that a loop instruction
built. Executing it unpacks its items so they run in list order. Programs
hold only registered names and literals (``Program`` refuses anything
else), so groups exist only at runtime and every name the loop meets has a
function, which never raises (see ``ops``). A loop whose body cannot see
the exec stack runs its iterations inside the loop instruction and builds a
group only when it stops early (see ``ops._exec_do_range``).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from types import FunctionType

import numpy as np

from .state import InterpreterState

# Every instruction by name, in registration order (see ``ops``).
REGISTRY: dict = {}


def instruction(name, touches_exec=False):
    """Decorator registering an instruction under ``name``.

    ``touches_exec`` marks an instruction that reads or changes the exec
    stack, ``steps_used`` or ``step_limit``; the interpreter runs a
    program's items without an exec stack only up to the first such
    instruction.
    """

    def register(fn):
        fn.touches_exec = touches_exec
        REGISTRY[name] = fn
        return fn

    return register


def _run_exec(state: InterpreterState) -> None:
    # Hot loop: stacks are only ever mutated in place, so aliases of their
    # methods stay valid. The step count is synced with state.steps_used
    # around instruction calls (vector.apply/zip nest on it) and on exit.
    ex = state.exec
    pop = ex.pop
    registry = REGISTRY
    push_boolean = state.booleans.append
    push_integer = state.integers.append
    push_float = state.floats.append
    limit = state.step_limit
    steps = state.steps_used
    while ex and steps < limit:
        item = pop()
        steps += 1
        kind = type(item)
        if kind is str:
            state.steps_used = steps
            registry[item](state)
            steps = state.steps_used
        elif kind is float:
            push_float(item)
        elif kind is int:
            push_integer(item)
        elif kind is bool:
            push_boolean(item)
        else:
            ex.extend(reversed(item))
    state.steps_used = steps


def _counted(counts, name, fn, state):
    result = fn(state)
    counts[name] = counts.get(name, 0) + 1
    return result


@contextmanager
def counting(counts: dict):
    """Count into ``counts``, by name, each instruction executed inside the
    block.

    Every name is registered, in place, to a counting wrapper that is not a
    plain function, so every shortcut past the exec loop declines it. A
    plan resolved before the block keeps its functions: build the programs
    to count inside it. The registry is the process's, so everything run
    inside the block, in any thread, is counted."""
    saved = dict(REGISTRY)
    try:
        for name, fn in saved.items():
            REGISTRY[name] = partial(_counted, counts, name, fn)
        yield counts
    finally:
        REGISTRY.update(saved)


def instruction_errstate():
    """The numpy floating-point error state that instructions run under.

    Overflow, invalid and divide-by-zero raise ``FloatingPointError``;
    underflow is ignored. Vector instructions refuse a result on that error
    instead of checking its values, so correctness, not only quiet, depends
    on this state: outside it they would push non-finite vectors.
    ``run_with_source`` enters it once per run, around the objective's
    evaluations too; code that calls ``run_move``, ``step_swarm`` or
    ``REGISTRY[name](state)`` directly must enter it as well, for
    example around a whole loop of such calls::

        with instruction_errstate():
            REGISTRY["vector.+"](state)
    """
    return np.errstate(over="raise", invalid="raise", divide="raise", under="ignore")


def resolve_plan(items) -> tuple:
    """The execution plan of a program's straight-line prefix, or of a
    loop body's items.

    Each instruction resolves to its registered function and each literal
    stands for itself. The plan stops before the first item that needs the
    exec stack to run exactly: an instruction registered with
    ``touches_exec`` or a group nested in a body. It also stops at a name
    registered to anything but a plain function, such as the wrappers of
    ``counting``, so that every other step is a literal. A plan keeps the
    functions registered when it was resolved.
    """
    plan = []
    for item in items:
        kind = type(item)
        if kind is str:
            fn = REGISTRY[item]
            if type(fn) is not FunctionType or fn.touches_exec:
                break
            plan.append(fn)
        elif kind is float or kind is int or kind is bool:
            plan.append(item)
        else:
            break
    return tuple(plan)


def run_steps(state: InterpreterState, plan: tuple) -> None:
    """Run the steps of ``plan`` (see ``resolve_plan``) without the exec
    stack or the step counters, which the caller keeps."""
    for step in plan:
        # Instructions first: literals are rare in programs.
        kind = type(step)
        if kind is FunctionType:
            step(state)
        elif kind is float:
            state.floats.append(step)
        elif kind is int:
            state.integers.append(step)
        else:
            state.booleans.append(step)


def run_move(state: InterpreterState, program) -> InterpreterState:
    """Execute one move of ``program`` against ``state``.

    The exec stack is cleared and reloaded with the program items; execution
    proceeds until the exec stack empties or ``step_limit`` item executions
    have been counted (literals and group unpacks count). All other stacks
    persist between moves. The caller enters ``instruction_errstate``, as
    ``run_with_source`` does once around all of its moves.

    The items of ``program.plan`` run first, in program order and without
    the exec stack, which none of them can see; the remaining items are
    then loaded onto the exec stack for the general loop. Step counts and
    leftover exec items are those of running every item through the loop,
    also when the limit cuts the plan short.
    """
    items = program.items
    plan = program.plan[: state.step_limit]
    state.exec.clear()
    run_steps(state, plan)
    ran = len(plan)
    state.steps_used = ran
    if ran < len(items):
        # The cached tail follows a whole plan; a plan the limit cut short
        # leaves more items, which the loop then does not run.
        state.exec.extend(program.tail if ran == len(program.plan) else reversed(items[ran:]))
        _run_exec(state)
    return state
