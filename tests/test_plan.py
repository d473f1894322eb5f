"""Execution plans: while usage is not counted, ``run_move`` runs a
program's straight-line prefix without the exec stack, and must leave
exactly what the general loop leaves."""

import hashlib
import pickle
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pushopt.analysis import dynamic_instruction_usage, reevaluate
from pushopt.evolution import random_program
from pushopt.harness import RunConfig
from pushopt.problems import ProblemFamily, make_function
from pushopt.push import (
    DEFAULT_INSTRUCTION_SET,
    REGISTRY,
    ExecGroup,
    InstructionSet,
    InterpreterState,
    Program,
    SwarmContext,
    UnknownInstructionError,
    instruction_errstate,
    parse_program,
    run_move,
)
from pushopt.push.interpreter import _run_exec, run_single_item

from conftest import EVOLVED_OPTIMISERS

REFERENCE_IDS = sorted(EVOLVED_OPTIMISERS)


@pytest.fixture(autouse=True)
def _errstate():
    with instruction_errstate():
        yield


def loop_move(state, program, ctx=None, limit=100, usage=None):
    """``run_move`` as it was before plans: every item through the loop."""
    state.exec.clear()
    state.exec.extend(reversed(program.items))
    state.steps_used = 0
    state.step_limit = limit
    state.usage = usage
    _run_exec(state, ctx)
    return state


def _bits(value):
    # A comparable form that tells apart every distinct value: the type,
    # float bits (so -0.0 and nan compare), array dtype and bytes, and the
    # items of an exec group.
    kind = type(value)
    if kind is float:
        return (kind, struct.pack("<d", value))
    if kind is np.ndarray:
        return (kind, value.dtype.str, value.shape, value.tobytes())
    if kind is ExecGroup:
        return (kind, tuple(_bits(item) for item in value.items))
    return (kind, value)


def _snapshot(state):
    return (
        [[_bits(v) for v in stack] for stack in state.stack_snapshot()],
        state.steps_used,
        state.rng.bit_generator.state,
    )


def _attempt(runner, state, program, ctx, limit, usage):
    try:
        runner(state, program, ctx, limit, usage)
    except Exception as exc:  # compared between the paths
        return type(exc), str(exc)
    return None


def assert_same_moves(program, dim, limit, seed, moves=8):
    """Run ``program`` move by move on three identical states, with
    harness-like feedback between moves, and compare everything after every
    move: ``run_move`` without counting, which runs the plan, ``run_move``
    while usage is counted, and the loop alone, counting usage."""
    rng = np.random.default_rng(seed)
    points = [rng.uniform(-5.0, 5.0, dim) for _ in range(3)]
    ctx = SwarmContext(points, points[::-1], 1)
    states = []
    for _ in range(3):
        state = InterpreterState(dim=dim, rng=np.random.default_rng(seed), inputs=(-5.0, 5.0))
        state.vectors.append(points[1])
        state.floats.append(2.5)
        state.booleans.append(True)
        states.append(state)
    planned, counted, looped = states
    for move in range(1, moves + 1):
        for state in states:
            state.integers.extend([move, 1, 0])
        usage, want_usage = {}, {}
        want = _attempt(loop_move, looped, program, ctx, limit, want_usage)
        assert _attempt(run_move, planned, program, ctx, limit, None) == want, f"move {move}"
        assert _attempt(run_move, counted, program, ctx, limit, usage) == want, f"move {move}"
        assert usage == want_usage, f"move {move}"
        assert _snapshot(planned) == _snapshot(looped), f"move {move}"
        assert _snapshot(counted) == _snapshot(looped), f"move {move}"
        if want is not None:
            return
        for state in states:
            state.booleans.append(move % 2 == 0)
            state.floats.append(float(move))
            if not state.vectors:
                state.vectors.append(points[0])


# The instructions that can see the exec stack or the step counters, by
# their specification rather than by the flag the plan reads.
EXEC_SIDE = sorted(n for n in REGISTRY if n.startswith("exec.")) + ["vector.apply", "vector.zip"]


@settings(max_examples=300, deadline=None)
@given(
    source=hst.one_of(
        hst.just("genome"), hst.just("small-set genome"), hst.sampled_from(REFERENCE_IDS)
    ),
    seed=hst.integers(0, 2**32 - 1),
    dim=hst.sampled_from([1, 2, 10, 50]),
    limit=hst.sampled_from([1, 7, 100]),
)
def test_plan_matches_general_loop(source, seed, dim, limit):
    rng = np.random.default_rng(seed)
    if source == "genome":
        program = random_program(DEFAULT_INSTRUCTION_SET, 100, rng)
    elif source == "small-set genome":
        # Six instructions, two of them exec-side, so that each one often
        # sits early in the program: inside the plan or where it stops.
        names = [
            *rng.choice(DEFAULT_INSTRUCTION_SET.names, 4).tolist(),
            *rng.choice(EXEC_SIDE, 2).tolist(),
        ]
        program = random_program(InstructionSet(dict.fromkeys(names)), 30, rng)
    else:
        program = parse_program(EVOLVED_OPTIMISERS[source])
    assert_same_moves(program, dim, limit, seed)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_instruction_runs_as_in_the_loop(name):
    # Each instruction twice, after literals and before more items, so that
    # it runs with every stack non-empty, inside the plan unless it stops it.
    program = Program((1.5, 2, 3, True, name, "float.neg", 0.5, 1, name, "integer.+", 2.0))
    for dim, limit in ((1, 100), (2, 100), (2, 6), (3, 9)):
        assert_same_moves(program, dim, limit, seed=dim, moves=3)


def test_reference_plans_cover_their_programs():
    # F1 starts with exec.dup; the other four touch no exec state.
    for fid in REFERENCE_IDS:
        program = parse_program(EVOLVED_OPTIMISERS[fid])
        expected = 0 if fid == "F1" else len(program)
        assert len(program.plan) == expected, fid


def test_plan_resolves_instructions_and_keeps_literals():
    program = Program((1, 2.5, True, "float.abs", "exec.noop", "exec.dup", "float.neg"))
    assert program.plan == (1, 2.5, True, REGISTRY["float.abs"], REGISTRY["exec.noop"])


def test_plan_stops_at_an_instruction_that_is_not_a_plain_function(monkeypatch):
    # The plan's steps are functions or literals; any other callable runs
    # through the loop.
    negate = partial(REGISTRY["float.neg"])
    negate.touches_exec = False
    monkeypatch.setitem(REGISTRY, "test.partial", negate)
    program = Program((1.5, "float.abs", "test.partial", 2.5))
    assert program.plan == (1.5, REGISTRY["float.abs"])
    assert_same_moves(program, 2, 100, seed=0, moves=2)


class _Watched:
    """A state proxy that records reads and writes of the exec stack and
    the step counters."""

    WATCHED = ("exec", "steps_used", "step_limit")

    def __init__(self, state):
        object.__setattr__(self, "_state", state)
        object.__setattr__(self, "touched", set())

    def __getattr__(self, name):
        if name in self.WATCHED:
            self.touched.add(name)
        return getattr(self._state, name)

    def __setattr__(self, name, value):
        if name in self.WATCHED:
            self.touched.add(name)
        setattr(self._state, name, value)


def _full_state():
    state = InterpreterState(dim=3, rng=np.random.default_rng(0), inputs=(-1.0, 1.0))
    state.booleans.extend([True, False, True])
    state.integers.extend([2, 1, 3])
    state.floats.extend([0.5, 1.5, 2.5])
    state.vectors.extend(np.arange(3.0) + k for k in range(3))
    state.exec.extend(["float.neg", 1.0, "integer.dup"])
    return state


def test_touches_exec_marks_exactly_the_instructions_that_touch_it():
    # Every instruction runs once on stacks deep enough for it to execute;
    # the flagged set is the set that reads or writes the exec stack or the
    # step counters, and it is the one the plan stops at.
    point = np.zeros(3)
    ctx = SwarmContext([point], [point], 0)
    touching = set()
    for name, fn in REGISTRY.items():
        watched = _Watched(_full_state())
        fn(watched, ctx)
        if watched.touched:
            touching.add(name)
    flagged = {name for name, fn in REGISTRY.items() if fn.touches_exec}
    assert flagged == touching
    exec_names = {name for name in REGISTRY if name.startswith("exec.")}
    assert len(exec_names) == 16
    assert flagged == (exec_names - {"exec.noop"}) | {"vector.apply", "vector.zip"}


@pytest.mark.parametrize(
    "items, error",
    [
        ((1, 2, "no.such", 3), UnknownInstructionError),
        ((1, "integer.dup", None, 3), TypeError),
    ],
)
def test_bad_item_raises_after_earlier_items(items, error):
    # The items before the bad one run; the error leaves the step count and
    # the exec stack the loop leaves, without counting usage and while
    # counting it. A limit before the bad item stops the move without an
    # error.
    program = Program(items)
    for usage in (None, {}):
        state = InterpreterState(dim=2, rng=np.random.default_rng(0))
        with pytest.raises(error):
            run_move(state, program, usage=usage)
        assert state.steps_used == 3
        assert state.exec == [3]
        assert state.integers == ([1, 2] if error is UnknownInstructionError else [1, 1])
    assert usage == ({"integer.dup": 1} if "integer.dup" in items else {})
    for limit in (1, 2, 3, 100):
        assert_same_moves(program, 2, limit, seed=0, moves=2)


def _raises(state, ctx):
    state.floats.append(1.5)
    raise OverflowError("test.raise")


_raises.touches_exec = False


def test_raise_inside_the_plan_leaves_what_the_loop_leaves(monkeypatch):
    # A plain instruction that raises after changing a stack; it sits inside
    # the plan, after an instruction whose use is counted. The plan runs
    # only without counting; the second run counts.
    monkeypatch.setitem(REGISTRY, "test.raise", _raises)
    program = Program((1, "integer.dup", 2.5, "test.raise", 3, "integer.+"))
    assert len(program.plan) == len(program)
    for usage in (None, {}):
        state = InterpreterState(dim=2, rng=np.random.default_rng(0))
        with pytest.raises(OverflowError):
            run_move(state, program, usage=usage)
        assert state.steps_used == 4
        assert state.exec == ["integer.+", 3]
        assert state.floats == [2.5, 1.5]
    assert usage == {"integer.dup": 1}
    assert_same_moves(program, 2, 100, seed=0, moves=1)


def test_pickled_program_drops_its_plan():
    program = parse_program(EVOLVED_OPTIMISERS["F14"])
    run_move(InterpreterState(dim=2, rng=np.random.default_rng(0)), program)
    assert "plan" in program.__dict__
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program
    assert hash(copy) == hash(program)
    assert "plan" not in copy.__dict__
    assert copy.plan == program.plan


def test_reevaluate_in_workers_after_programs_ran_here():
    fn = make_function("F1", 2, 0)
    optimisers = [(fid, parse_program(EVOLVED_OPTIMISERS[fid])) for fid in ("F9", "F13", "F14")]
    config = RunConfig(swarm_size=2, moves=15, seed=5)
    serial = reevaluate(optimisers, [fn], config, runs=3, jobs=1)
    for _, program in optimisers:
        assert "plan" in program.__dict__
    assert reevaluate(optimisers, [fn], config, runs=3, jobs=2) == serial


# Dynamic usage counts from the commit before plans existed, for F1 at D=2
# under random transforms, swarm 2, 10 moves and seed 3.
REFERENCE_USAGE = {
    100: {
        "vector.-": 160, "float.-": 100, "vector.wrand": 100, "float.frominteger": 80,
        "vector.dim+": 80, "vector.swap": 80, "float.sin": 60, "integer.rand": 60,
        "vector.yank": 60, "boolean.dup": 40, "float.abs": 40, "float.cos": 40,
        "input.inall": 40, "integer.dup": 40, "integer.fromboolean": 40, "integer.rot": 40,
        "vector.best": 40, "vector.dim*": 40, "vector.scale": 40, "vector.stackdepth": 40,
        "vector.zip": 40, "boolean.not": 20, "boolean.stackdepth": 20, "exec.dup": 20,
        "float.+": 20, "float./": 20, "float.<": 20, "float.>": 20, "float.dup": 20,
        "float.fromboolean": 20, "float.ln": 20, "float.max": 20, "float.neg": 20,
        "float.pop": 20, "float.rand": 20, "float.stackdepth": 20, "float.tan": 20,
        "float.yank": 20, "input.index": 20, "input.stackdepth": 20, "integer.-": 20,
        "integer.=": 20, "integer.max": 20, "integer.swap": 20, "integer.yank": 20,
        "integer.yankdup": 20, "vector.between": 20, "vector.mag": 20, "vector.pop": 20,
        "vector.shove": 20, "vector.yankdup": 20,
    },
    7: {
        "float.-": 40, "integer.fromboolean": 40, "vector.-": 40, "vector.swap": 40,
        "vector.wrand": 40, "vector.zip": 40, "boolean.dup": 20, "exec.dup": 20,
        "float.+": 20, "float./": 20, "float.<": 20, "float.fromboolean": 20,
        "float.frominteger": 20, "float.ln": 20, "float.max": 20, "float.pop": 20,
        "float.sin": 20, "float.stackdepth": 20, "input.inall": 20, "input.stackdepth": 20,
        "integer.-": 20, "integer.rand": 20, "integer.yankdup": 20, "vector.best": 20,
        "vector.dim*": 20, "vector.dim+": 20, "vector.stackdepth": 20, "vector.yank": 20,
        "vector.yankdup": 20,
    },
}

# For 20 random genomes of up to 40 items: (rows, total count, sha256 of the
# "name count" lines in rank order).
GENOME_USAGE = {
    100: (108, 6846, "e42305adb5cc25c56ee0454ceb05670e9874cc96b92ba76805114718de3b470d"),
    7: (74, 2330, "72b08ae84aa27f9094da19efbf368417b4f5b1f728aff1be9fd1a5a97915b16c"),
}


@pytest.mark.parametrize("limit", [100, 7])
def test_dynamic_usage_counts_match_the_loop_only_interpreter(limit):
    family = ProblemFamily(make_function("F1", 2, 0), randomize=True)
    config = RunConfig(swarm_size=2, moves=10, seed=3, execution_limit=limit)
    refs = [parse_program(EVOLVED_OPTIMISERS[fid]) for fid in REFERENCE_IDS]
    rows = dynamic_instruction_usage(refs, family, config)
    assert {row.instruction: row.count for row in rows} == REFERENCE_USAGE[limit]

    rng = np.random.default_rng(2024)
    genomes = [random_program(DEFAULT_INSTRUCTION_SET, 40, rng) for _ in range(20)]
    rows = dynamic_instruction_usage(genomes, family, config)
    text = "".join(f"{row.instruction} {row.count}\n" for row in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(rows), sum(row.count for row in rows), digest) == GENOME_USAGE[limit]


def loop_single_item(state, ctx, item):
    """``run_single_item`` as it was: the item through a nested loop."""
    saved = state.exec
    state.exec = [item]
    try:
        _run_exec(state, ctx)
    finally:
        state.exec = saved


def _pushes_onto_exec(state, ctx):
    state.exec.append("float.neg")
    state.exec.append(ExecGroup((2.0, "exec.stackdepth")))
    return True


_pushes_onto_exec.touches_exec = True

SINGLE_ITEM_BODIES = sorted(REGISTRY) + [
    2.5, 3, True, ExecGroup(("float.neg", 1.5, "exec.dup", "float.abs")), ExecGroup(()),
    "no.such", "test.partial", "test.pushes", "test.raise",
]


@pytest.mark.parametrize("body", SINGLE_ITEM_BODIES, ids=repr)
def test_single_item_runs_as_in_a_nested_loop(monkeypatch, body):
    # Every registered instruction, a literal, groups, an unknown name, a
    # registered callable that is not a plain function, a touches_exec
    # instruction that leaves items on its private exec stack and a plain
    # instruction that raises; on full and empty stacks, with steps to
    # spare, with the last step and with none; without counting usage,
    # which takes the shortcut, and while counting it.
    negate = partial(REGISTRY["float.neg"])
    negate.touches_exec = False
    monkeypatch.setitem(REGISTRY, "test.partial", negate)
    monkeypatch.setitem(REGISTRY, "test.pushes", _pushes_onto_exec)
    monkeypatch.setitem(REGISTRY, "test.raise", _raises)
    point = np.zeros(3)
    ctx = SwarmContext([point], [point], 0)
    for full in (True, False):
        for steps_used, limit in ((0, 100), (4, 5), (5, 5), (6, 5)):
            outcomes, counts = [], []
            for runner, counting in ((run_single_item, False), (run_single_item, True), (loop_single_item, True)):
                state = _full_state() if full else InterpreterState(dim=3, rng=np.random.default_rng(0))
                state.steps_used = steps_used
                state.step_limit = limit
                state.usage = {"float.neg": 1} if counting else None
                caller_exec = state.exec
                try:
                    runner(state, ctx, body)
                    error = None
                except Exception as exc:  # compared between the runners
                    error = (type(exc), str(exc))
                assert state.exec is caller_exec
                outcomes.append((_snapshot(state), error))
                counts.append(state.usage)
            where = (full, steps_used, limit)
            assert outcomes[0] == outcomes[2], where
            assert outcomes[1] == outcomes[2], where
            assert counts[1] == counts[2], where
