"""Counted loops: ``exec.do*range``, ``exec.do*count`` and ``exec.do*times``
run the iterations of a body that cannot see the exec stack inside the
instruction while usage is not counted, and must leave exactly what re-entry
through an ``ExecGroup`` on the exec stack leaves. While usage is counted
they re-enter, and count it as the reference does."""

import pickle
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pushopt.evolution import random_program
from pushopt.push import (
    REGISTRY,
    ExecGroup,
    InstructionSet,
    InterpreterState,
    Program,
    SwarmContext,
    instruction_errstate,
    run_move,
)
from pushopt.push.interpreter import _run_exec

LOOPS = ("exec.do*range", "exec.do*count", "exec.do*times")


# Re-entry through the exec stack: the loop instructions as they were
# before iterations ran in place.
def _reference_do_range(state, ctx):
    if len(state.integers) < 2 or not state.exec:
        return False
    dest = state.integers.pop()
    current = state.integers.pop()
    body = state.exec.pop()
    state.integers.append(current)
    if current == dest:
        state.exec.append(body)
    else:
        step = 1 if dest > current else -1
        state.exec.append(ExecGroup((current + step, dest, "exec.do*range", body)))
        state.exec.append(body)
    return True


def _reference_do_count(state, ctx):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    n = ints.pop()
    body = state.exec.pop()
    state.exec.append(ExecGroup((0, n - 1, "exec.do*range", body)))
    return True


def _reference_do_times(state, ctx):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    n = ints.pop()
    body = state.exec.pop()
    hidden = ExecGroup(("integer.pop", body))
    state.exec.append(ExecGroup((0, n - 1, "exec.do*range", hidden)))
    return True


REFERENCE = dict(zip(LOOPS, (_reference_do_range, _reference_do_count, _reference_do_times)))
for _name, _fn in REFERENCE.items():
    _fn.push_name = _name
    _fn.touches_exec = True


def _raises(state, ctx):
    # A plain instruction that changes a stack, then raises on every fourth
    # index a loop pushes.
    ints = state.integers
    state.floats.append(0.25)
    if ints and ints[-1] % 4 == 3:
        raise OverflowError(f"test.raise at {ints[-1]}")
    return True


_raises.push_name = "test.raise"
_raises.touches_exec = False


@pytest.fixture(autouse=True, scope="module")
def _registered():
    with pytest.MonkeyPatch.context() as m, instruction_errstate():
        m.setitem(REGISTRY, "test.raise", _raises)
        yield


@contextmanager
def _loops(reference):
    """The live loop instructions, or the reference ones in their place."""
    with pytest.MonkeyPatch.context() as m:
        if reference:
            for name, fn in REFERENCE.items():
                m.setitem(REGISTRY, name, fn)
        yield


def _bits(value):
    kind = type(value)
    if kind is float:
        return (kind, struct.pack("<d", value))
    if kind is np.ndarray:
        return (kind, value.dtype.str, value.shape, value.tobytes())
    if kind is ExecGroup:
        return (kind, tuple(_bits(item) for item in value.items))
    return (kind, value)


def _outcome(state, error):
    # Everything a move leaves but usage counts: stacks by bits, leftover
    # exec items, steps, the RNG state and the exception.
    stacks = [[_bits(v) for v in stack] for stack in state.stack_snapshot()]
    return stacks, state.steps_used, state.rng.bit_generator.state, error


# (counting, reference) of the three runs compared: the live instructions
# without counting, which take the in-place paths, the live instructions
# while usage is counted, and the reference ones.
RUNS = ((False, False), (True, False), (True, True))


def _assert_same(outcomes, counts, where):
    # Every run leaves what the reference leaves, and usage is counted as
    # the reference counts it, in the order each name was first counted.
    live, counted, reference = outcomes
    assert live == reference, where
    assert counted == reference, where
    assert list(counts[1].items()) == list(counts[2].items()), where


def _run(runner, state, *args):
    try:
        runner(state, *args)
    except Exception as exc:  # compared between the two paths
        return (type(exc), str(exc))
    return None


def _new_state(dim, seed, points):
    state = InterpreterState(dim=dim, rng=np.random.default_rng(seed), inputs=(-5.0, 5.0))
    state.vectors.append(points[1])
    state.floats.append(2.5)
    state.booleans.append(True)
    return state


def assert_same_moves(items, dim, limit, seed, moves=6):
    """Run ``items`` move by move through ``run_move`` on three identical
    states (see ``RUNS``) and compare everything after every move."""
    rng = np.random.default_rng(seed)
    points = [rng.uniform(-5.0, 5.0, dim) for _ in range(3)]
    ctx = SwarmContext(points, points[::-1], 1)
    states = [_new_state(dim, seed, points) for _ in RUNS]
    # Separate programs, so that none reuses a plan resolved for another.
    programs = [Program(tuple(items)) for _ in RUNS]
    for move in range(1, moves + 1):
        outcomes, counts = [], []
        for state, program, (counting, swap) in zip(states, programs, RUNS):
            state.integers.extend([move, 3, 0])
            usage = {} if counting else None
            with _loops(swap):
                error = _run(run_move, state, program, ctx, limit, usage)
            outcomes.append(_outcome(state, error))
            counts.append(usage)
        _assert_same(outcomes, counts, f"move {move}")
        if outcomes[0][-1] is not None:
            return
        for state in states:
            state.floats.append(float(move))
            if not state.vectors:
                state.vectors.append(points[0])


# Loops, plain instructions (stack shufflers among them), instructions that
# see the exec stack, the raising instruction and, through the ERC markers,
# literals.
PLAIN = (
    "float.abs", "float.+", "float.rand", "integer.+", "integer.dup", "integer.pop",
    "integer.yank", "float.shove", "vector.+", "vector.rand", "boolean.not", "exec.noop",
)
EXEC_SIDE = ("exec.dup", "exec.swap", "exec.pop", "exec.if", "exec.stackdepth", "exec.yank", "vector.apply")
LIMITS = (1, 4, 5, 6, 7, 100)
DIMS = (1, 2, 10)


@settings(max_examples=400, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    dim=hst.sampled_from(DIMS),
    limit=hst.sampled_from(LIMITS),
    n_plain=hst.integers(1, 4),
    n_exec=hst.integers(0, 2),
)
def test_random_genomes_run_as_with_re_entry(seed, dim, limit, n_plain, n_exec):
    rng = np.random.default_rng(seed)
    names = [
        *LOOPS,
        *rng.choice(PLAIN, n_plain).tolist(),
        *rng.choice(EXEC_SIDE, n_exec).tolist(),
    ]
    if rng.random() < 0.3:
        names.append("test.raise")
    program = random_program(InstructionSet(dict.fromkeys(names)), 25, rng)
    assert_same_moves(program.items, dim, limit, seed)


# One program per body kind. Each move starts with three more integers on
# the stack, so that loops also take their counts from earlier moves.
BODY_PROGRAMS = {
    "literal": (0, 7, "exec.do*range", 1.5, "float.+", 5, "exec.do*count", 2),
    "plain name": (9, 1, "exec.do*range", "integer.dup", 6, "exec.do*count", "float.abs"),
    "hidden group": (6, "exec.do*times", "float.rand", 3, "exec.do*times", -2),
    "nested loop": (2, "exec.do*times", "exec.do*times", "float.abs", 3, "exec.do*times", 1.0),
    "loop body": (0, 3, "exec.do*range", "exec.do*count", "integer.dup"),
    "exec-side name": (0, 5, "exec.do*range", "exec.stackdepth", 4, "exec.do*times", "exec.dup", 2.0),
    "raise": (0, 6, "exec.do*range", "test.raise", 1.0),
    "raise in hidden group": (2, 9, "exec.do*range", "integer.dup", 8, "exec.do*times", "test.raise"),
    "one iteration": (1, "exec.do*count", "float.abs", 1, "exec.do*times", 2.0, 4, 4, "exec.do*range", 3),
    "refused": (0, "exec.do*times", 1.0, -3, "exec.do*count", 2.0, "exec.do*range"),
}


@pytest.mark.parametrize("kind", sorted(BODY_PROGRAMS))
def test_each_body_kind_runs_as_with_re_entry(kind):
    # Every limit up to a few iterations, so that one cuts each step of an
    # iteration.
    for limit in (*range(1, 32), 100):
        for dim in DIMS:
            assert_same_moves(BODY_PROGRAMS[kind], dim, limit, seed=limit)


# Exec stacks a genome cannot start with, in program order: bodies that are
# groups, plain or holding a nested group, groups that raise in their
# middle, and loops reached through vector.apply's nested run.
GROUP_STACKS = {
    "plain group": (0, 3, "exec.do*range", ExecGroup((1.5, "float.neg", 2)), "float.abs"),
    "nested group": (4, "exec.do*times", ExecGroup((ExecGroup(("float.abs",)), 2.5))),
    "exec-side group": (3, 0, "exec.do*range", ExecGroup(("exec.stackdepth", 1.0))),
    "raise mid-group": (0, 5, "exec.do*range", ExecGroup((1.0, "test.raise", "float.abs", 0.5))),
    "raise in count group": (9, "exec.do*count", ExecGroup(("integer.dup", "test.raise", 2.0))),
    "empty group": (4, "exec.do*count", ExecGroup(())),
    "apply": ("vector.apply", ExecGroup((0, 2, "exec.do*range", "float.neg"))),
    "apply group": ("vector.apply", ExecGroup((3, "exec.do*count", ExecGroup(("float.abs", "integer.pop"))))),
}


@pytest.mark.parametrize("kind", sorted(GROUP_STACKS))
def test_group_bodies_run_as_with_re_entry(kind):
    for limit in (*range(1, 32), 100):
        for dim in DIMS:
            _assert_same_stack_run(GROUP_STACKS[kind], dim, limit)


def _assert_same_stack_run(items, dim, limit):
    outcomes, counts = [], []
    for counting, swap in RUNS:
        state = InterpreterState(dim=dim, rng=np.random.default_rng(dim))
        state.vectors.append(np.linspace(-1.0, 1.0, dim))
        state.floats.append(0.5)
        state.exec.extend(reversed(items))
        state.step_limit = limit
        state.usage = usage = {"float.abs": 1} if counting else None
        with _loops(swap):
            error = _run(_run_exec, state, None)
        outcomes.append(_outcome(state, error))
        counts.append(usage)
    _assert_same(outcomes, counts, (limit, dim))


def test_iterations_in_place_are_charged_as_re_entries():
    # 4 iterations of a one-item body, each 5 steps, plus the instruction,
    # its two literals and the last body: run in place without counting,
    # through the exec stack with it.
    for usage in (None, {}):
        state = InterpreterState(dim=1, rng=np.random.default_rng(0))
        run_move(state, Program((1, 5, "exec.do*range", "float.abs")), limit=100, usage=usage)
        assert state.steps_used == 3 + 4 * 5 + 1
        assert state.integers == [1, 2, 3, 4, 5]
    assert usage == {"exec.do*range": 5, "float.abs": 5}
    # A limit one step short of the third iteration leaves it to the exec
    # stack, where the limit cuts it before the re-entry.
    state = InterpreterState(dim=1, rng=np.random.default_rng(0))
    run_move(state, Program((1, 5, "exec.do*range", "float.abs")), limit=3 + 3 * 5 - 1)
    assert state.steps_used == 17
    assert state.integers == [1, 2, 3, 4, 5]
    assert state.exec == ["float.abs", "exec.do*range"]


def test_exec_group_compares_hashes_and_prints_by_its_items():
    group = ExecGroup((1, "float.abs"))
    assert group == ExecGroup((1, "float.abs"))
    assert group != ExecGroup((1,))
    assert group != (1, "float.abs")
    assert hash(group) == hash(ExecGroup((1, "float.abs")))
    assert repr(group) == "ExecGroup(items=(1, 'float.abs'))"
    assert not hasattr(group, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(group, protocol)) == group
