"""Execution plans: ``run_move`` runs a program's straight-line prefix
without the exec stack, and must leave exactly what the general loop leaves.
Under ``counting`` no instruction is a plain function, so every one runs
through the loop and is counted."""

import hashlib
import pickle
import struct
from contextlib import nullcontext
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
    InstructionSet,
    InterpreterState,
    Program,
    SwarmContext,
    counting,
    instruction_errstate,
    parse_program,
    run_move,
)
from pushopt.push.interpreter import _run_exec

from conftest import EVOLVED_OPTIMISERS, solo_context

REFERENCE_IDS = sorted(EVOLVED_OPTIMISERS)


@pytest.fixture(autouse=True)
def _errstate():
    with instruction_errstate():
        yield


def loop_move(state, program):
    """``run_move`` as it was before plans: every item through the loop."""
    state.exec.clear()
    state.exec.extend(reversed(program.items))
    state.steps_used = 0
    _run_exec(state)
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
    if kind is tuple:
        return (kind, tuple(_bits(item) for item in value))
    return (kind, value)


def _snapshot(state):
    return (
        [[_bits(v) for v in stack] for stack in state.stack_snapshot()],
        state.steps_used,
        state.rng.bit_generator.state,
    )


def assert_same_moves(program, dim, limit, seed, moves=8):
    """Run ``program`` move by move on three identical states, with
    harness-like feedback between moves, and compare everything after every
    move: ``run_move`` without counting, which runs the plan, ``run_move``
    under ``counting`` on a copy built inside the block, and the loop alone
    under ``counting``."""
    rng = np.random.default_rng(seed)
    points = [rng.uniform(-5.0, 5.0, dim) for _ in range(3)]
    ctx = SwarmContext(points, points[::-1], 1)
    states = []
    for _ in range(3):
        state = InterpreterState(
            dim=dim, rng=np.random.default_rng(seed), inputs=(-5.0, 5.0), step_limit=limit, ctx=ctx
        )
        state.vectors.append(points[1])
        state.floats.append(2.5)
        state.booleans.append(True)
        states.append(state)
    planned, counted, looped = states
    for move in range(1, moves + 1):
        for state in states:
            state.integers.extend([move, 1, 0])
        with counting({}) as want_usage:
            loop_move(looped, program)
        run_move(planned, program)
        with counting({}) as usage:
            run_move(counted, Program(program.items))
        assert list(usage.items()) == list(want_usage.items()), f"move {move}"
        assert _snapshot(planned) == _snapshot(looped), f"move {move}"
        assert _snapshot(counted) == _snapshot(looped), f"move {move}"
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
    state = InterpreterState(
        dim=3, rng=np.random.default_rng(0), inputs=(-1.0, 1.0), ctx=solo_context(3)
    )
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
    touching = set()
    for name, fn in REGISTRY.items():
        watched = _Watched(_full_state())
        fn(watched)
        if watched.touched:
            touching.add(name)
    flagged = {name for name, fn in REGISTRY.items() if fn.touches_exec}
    assert flagged == touching
    exec_names = {name for name in REGISTRY if name.startswith("exec.")}
    assert len(exec_names) == 16
    assert flagged == (exec_names - {"exec.noop"}) | {"vector.apply", "vector.zip"}


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
    family = ProblemFamily(make_function("F1", 2, 0))
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


def loop_single_item(state, item):
    """One item through a nested loop on a private exec stack."""
    saved = state.exec
    state.exec = [item]
    _run_exec(state)
    state.exec = saved


def _reference_map(arity):
    """``vector.apply`` (arity 1) or ``vector.zip`` (arity 2) as they were
    before they ran their own body: each component's run of the body goes
    through ``loop_single_item``."""

    def op(state):
        vs = state.vectors
        if len(vs) < arity or not state.exec:
            return False
        body = state.exec.pop()
        operands = vs[-arity:]
        del vs[-arity:]
        floats = state.floats
        out = []
        for components in zip(*[v.tolist() for v in operands]):
            c = components[0]
            if state.steps_used < state.step_limit:
                floats.extend(components)
                loop_single_item(state, body)
                if floats:
                    c = floats.pop()
            out.append(c)
        vs.append(np.array(out, dtype=operands[0].dtype))
        return True

    op.touches_exec = True
    return op


REFERENCE_MAPS = {"vector.apply": _reference_map(1), "vector.zip": _reference_map(2)}


def _pushes_onto_exec(state):
    state.exec.append("float.neg")
    state.exec.append((2.0, "exec.stackdepth"))
    return True


_pushes_onto_exec.touches_exec = True

SINGLE_ITEM_BODIES = sorted(REGISTRY) + [
    2.5, 3, True, ("float.neg", 1.5, "exec.dup", "float.abs"), (), "test.partial", "test.pushes",
]

# (steps used, step limit) before the map: steps to spare, limits that cut
# the three components' runs before, inside or between them, the last step
# and none left.
MAP_LIMITS = ((0, 100), (0, 1), (0, 2), (0, 7), (4, 5), (5, 5), (6, 5))


def _bare_state():
    state = InterpreterState(dim=3, rng=np.random.default_rng(0), ctx=solo_context(3))
    state.vectors.extend([np.array([0.5, -1.5, 2.0]), np.array([3.0, 0.0, -0.25])])
    return state


@pytest.mark.parametrize("body", SINGLE_ITEM_BODIES, ids=repr)
def test_single_item_runs_as_in_a_nested_loop(monkeypatch, body):
    # vector.apply and vector.zip run their body, the next exec item, once
    # per component as the item alone runs through a nested loop: every
    # registered instruction, literals, groups, a registered callable that
    # is not a plain function and a touches_exec instruction that leaves
    # items on its private exec stack; on full stacks and on bare ones that hold
    # only the operand vectors, under each of MAP_LIMITS. Three runs are
    # compared: the live map without counting, which resolves the body
    # once, the live map under ``counting`` and the reference map under it.
    negate = partial(REGISTRY["float.neg"])
    negate.touches_exec = False
    monkeypatch.setitem(REGISTRY, "test.partial", negate)
    monkeypatch.setitem(REGISTRY, "test.pushes", _pushes_onto_exec)
    for name in REFERENCE_MAPS:
        for full in (True, False):
            for steps_used, limit in MAP_LIMITS:
                outcomes, counts = [], []
                for counted, reference in ((False, False), (True, False), (True, True)):
                    state = _full_state() if full else _bare_state()
                    state.exec.append(body)
                    state.steps_used = steps_used
                    state.step_limit = limit
                    usage = {"float.neg": 1} if counted else None
                    caller_exec = state.exec
                    with pytest.MonkeyPatch.context() as m:
                        if reference:
                            for map_name, fn in REFERENCE_MAPS.items():
                                m.setitem(REGISTRY, map_name, fn)
                        with nullcontext() if usage is None else counting(usage):
                            result = REGISTRY[name](state)
                    assert state.exec is caller_exec
                    outcomes.append((_snapshot(state), result))
                    counts.append(list(usage.items()) if counted else None)
                where = (name, full, steps_used, limit)
                assert outcomes[0] == outcomes[2], where
                assert outcomes[1] == outcomes[2], where
                assert counts[1] == counts[2], where
