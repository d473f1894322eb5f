"""The member-move against a reference copy of the step it replaced.

``step_swarm`` reuses a member's last value when it proposes the same bytes
again, keeps one ``SwarmContext`` per run and checks what the objective
returns. ``_reference_step_swarm`` below is the step as it was before:
a context built at the start of every move and every in-bounds proposal
evaluated. Runs through either must be identical.
"""

import math

import numpy as np
import pytest

from pushopt import harness
from pushopt.evolution import random_program
from pushopt.harness import (
    INFEASIBLE,
    RunConfig,
    TrajectoryRow,
    _in_bounds,
    fitness,
    run_optimisation,
    run_with_source,
)
from pushopt.hybrid import Pool, PoolEntry, run_hybrid
from pushopt.problems import (
    BenchmarkFunction,
    Problem,
    ProblemFamily,
    Transform,
    make_function,
    register_function,
)
from pushopt.push import DEFAULT_INSTRUCTION_SET, SwarmContext, parse_program, run_move
from pushopt.rng import stream

from conftest import EVOLVED_OPTIMISERS

FUNCTION_IDS = ("F1", "F9", "F12", "F13", "F14")


def _reference_step_swarm(swarm, move):
    # The step before value reuse and the per-run context: a fresh context
    # per move, and the objective called for every in-bounds proposal.
    problem = swarm.problem
    lower, upper = problem.bounds
    ctx = SwarmContext([m.point for m in swarm.members], [m.best for m in swarm.members])
    programs = swarm.source.select(move)
    assert len(programs) == len(swarm.members)
    for member, program in zip(swarm.members, programs):
        ctx.self_index = member.index
        state = member.state
        state.integers.append(move)
        state.integers.append(member.index)
        state.integers.append(swarm.pbestindex)
        previous = member.value
        state.ctx = ctx
        run_move(state, program)
        if state.vectors:
            proposal = state.vectors[-1]
            member.point = proposal
            evaluable = _in_bounds(proposal, lower, upper)
        else:
            state.vectors.append(member.point)
            proposal = member.point
            evaluable = False
        if evaluable:
            value = problem.evaluate(proposal)
            swarm.evaluations_used += 1
            if value < member.bestval:
                member.bestval = value
                member.best = proposal
            if value < previous:
                state.booleans.append(True)
            else:
                state.booleans.append(False)
                state.vectors.append(member.best)
            state.floats.append(value)
            member.value = value
            recorded = value
        else:
            state.booleans.append(False)
            state.floats.append(INFEASIBLE)
            recorded = math.inf
        best = swarm.members[swarm.pbestindex]
        if member.bestval < best.bestval:
            swarm.pbestindex = member.index
            best = member
        if swarm.trajectory is not None:
            swarm.trajectory.append(
                TrajectoryRow(move, member.index, proposal, recorded, evaluable, best.bestval)
            )
    return swarm


class _CountingProblem(Problem):
    """A Problem that counts its objective calls."""

    calls = 0

    def evaluate(self, point):
        type(self).calls += 1
        return super().evaluate(point)


def _both(run, monkeypatch):
    """``run()`` with the current step and with the reference step, and the
    objective calls each made."""
    _CountingProblem.calls = 0
    new = run()
    new_calls = _CountingProblem.calls
    with monkeypatch.context() as m:
        m.setattr(harness, "step_swarm", _reference_step_swarm)
        _CountingProblem.calls = 0
        old = run()
        old_calls = _CountingProblem.calls
    return new, new_calls, old, old_calls


def _rows(result):
    return [
        (r.move, r.member, r.point.tobytes(), r.value, r.in_bounds, r.pbest)
        for r in result.trajectory
    ]


def _expected_calls(result, swarm_size):
    # One call per member at initialisation, then one per in-bounds
    # proposal whose bytes differ from the last point that member evaluated.
    last = {}
    calls = 0
    for row in result.trajectory:
        key = row.point.tobytes()
        if row.move == 0 or (row.in_bounds and last[row.member] != key):
            calls += 1
            last[row.member] = key
    assert calls >= swarm_size
    return calls


def _assert_same_run(new, old):
    assert _rows(new) == _rows(old)
    assert new.pbest == old.pbest
    assert new.pbest_point.tobytes() == old.pbest_point.tobytes()
    assert new.evaluations_used == old.evaluations_used


def _problem(fid, dim, seed):
    function = make_function(fid, dim, seed)
    family = ProblemFamily(function)
    base = family.instance(stream(seed, "transform"))
    return _CountingProblem(base.function, base.transform)


def _programs():
    rng = np.random.default_rng(2103)
    genomes = [random_program(DEFAULT_INSTRUCTION_SET, 30, rng) for _ in range(24)]
    return [parse_program(text) for text in EVOLVED_OPTIMISERS.values()] + genomes


@pytest.mark.parametrize("swarm_size", [1, 3])
@pytest.mark.parametrize("k", range(29))
def test_run_optimisation_matches_the_reference_step(k, swarm_size, monkeypatch):
    program = _programs()[k]
    fid = FUNCTION_IDS[k % len(FUNCTION_IDS)]
    problem = _problem(fid, (2, 10)[k % 2], k)
    config = RunConfig(swarm_size=swarm_size, moves=60, seed=k, record_trajectory=True)
    new, new_calls, old, old_calls = _both(
        lambda: run_optimisation(program, problem, config), monkeypatch
    )
    _assert_same_run(new, old)
    assert old_calls == old.evaluations_used
    assert new_calls == _expected_calls(new, swarm_size)


def test_most_programs_repeat_points():
    # The reuse branch must be exercised by the cases above, not only the
    # evaluate branch.
    repeated = 0
    for k, program in enumerate(_programs()):
        problem = _problem(FUNCTION_IDS[k % len(FUNCTION_IDS)], (2, 10)[k % 2], k)
        config = RunConfig(swarm_size=1, moves=60, seed=k, record_trajectory=True)
        _CountingProblem.calls = 0
        result = run_optimisation(program, problem, config)
        repeated += _CountingProblem.calls < result.evaluations_used
    assert repeated >= 10


@pytest.mark.parametrize("swarm_size", [1, 3])
@pytest.mark.parametrize("mode", ["per_move", "per_member"])
def test_run_hybrid_matches_the_reference_step(swarm_size, mode, monkeypatch):
    pool = Pool(tuple(PoolEntry(p, 0.0, "test") for p in _programs()[:8]))
    for seed, fid in enumerate(FUNCTION_IDS):
        problem = _problem(fid, 10, seed)
        config = RunConfig(swarm_size=swarm_size, moves=50, seed=seed, record_trajectory=True)
        new, new_calls, old, old_calls = _both(
            lambda: run_hybrid(pool, problem, config, mode=mode), monkeypatch
        )
        _assert_same_run(new, old)
        assert old_calls == old.evaluations_used
        assert new_calls == _expected_calls(new, swarm_size)


@pytest.mark.parametrize("swarm_size", [1, 3])
def test_fitness_matches_the_reference_step(swarm_size, monkeypatch):
    config = RunConfig(swarm_size=swarm_size, moves=40, seed=11)
    for fid, text in EVOLVED_OPTIMISERS.items():
        program = parse_program(text)
        family = ProblemFamily(make_function(fid, 5, 3))
        new, _, old, _ = _both(lambda: fitness(program, family, 3, config), monkeypatch)
        assert new == old


# ---------------------------------------------------------------------------
# What counts as the same point
# ---------------------------------------------------------------------------

register_function(
    "STUB-SIGN",
    lambda dim, seed, bounds=None: BenchmarkFunction("STUB-SIGN", dim, -1.0, 1.0, np.zeros(dim)),
    # Tells 0.0 from -0.0, which compare equal.
    lambda fn, x: 2.0 + math.copysign(1.0, x[0]),
)


class _Alternating:
    """Program source for one member running ``programs[move % len(programs)]``."""

    def __init__(self, programs):
        self.programs = programs

    def select(self, move):
        return (self.programs[move % len(self.programs)],)


def test_negative_zero_is_a_different_point(monkeypatch):
    zeros = parse_program("(0.0 vector.wrand)")
    negative_zeros = parse_program("(0.0 vector.wrand -1.0 vector.scale)")
    # Moves 1-6 propose +0, +0, -0, -0, +0, +0.
    source = _Alternating([negative_zeros, zeros, zeros, negative_zeros])
    problem = _CountingProblem(make_function("STUB-SIGN", 2, 0), Transform.identity(2))
    config = RunConfig(swarm_size=1, moves=6, seed=0, record_trajectory=True)
    calls = []
    original = _CountingProblem.evaluate

    def spy(self, point):
        calls.append(point.tobytes())
        return original(self, point)

    monkeypatch.setattr(_CountingProblem, "evaluate", spy)
    result = run_with_source(source, problem, config)
    values = [row.value for row in result.trajectory[1:]]
    assert values == [3.0, 3.0, 1.0, 1.0, 3.0, 3.0]
    assert result.evaluations_used == 7
    # Initial point, then +0, -0 and +0 again: each change of sign is a
    # new evaluation, each repeat is not.
    assert len(calls) == 4
    assert calls[1] == calls[3] != calls[2]


# ---------------------------------------------------------------------------
# One context per run
# ---------------------------------------------------------------------------


class _PerMember:
    def __init__(self, programs):
        self.programs = programs

    def select(self, move):
        return self.programs


def test_lookups_see_start_of_move_points_after_earlier_members_moved():
    # Member 0 moves to a fresh random point every move, before members 1
    # and 2 run; they copy its current and its best point.
    source = _PerMember([
        parse_program("(0.5 vector.wrand)"),
        parse_program("(0 vector.current)"),
        parse_program("(0 vector.best)"),
    ])
    problem = Problem.plain(make_function("F1", 3, 0, bounds=(-1.0, 1.0)))
    config = RunConfig(swarm_size=3, moves=30, seed=4, record_trajectory=True)
    result = run_with_source(source, problem, config)
    rows = {(r.move, r.member): r for r in result.trajectory}
    best, bestval = rows[0, 0].point, rows[0, 0].value
    for move in range(1, config.moves + 1):
        current = rows[move - 1, 0].point
        assert rows[move, 1].point is current
        assert rows[move, 2].point is best
        own = rows[move, 0]
        assert own.point is not current
        if own.in_bounds and own.value < bestval:
            best, bestval = own.point, own.value


# ---------------------------------------------------------------------------
# Objective values reach the float stack as finite Python floats
# ---------------------------------------------------------------------------

register_function(
    "STUB-NP",
    lambda dim, seed, bounds=None: BenchmarkFunction("STUB-NP", dim, -1.0, 1.0, np.full(dim, -1.0)),
    lambda fn, x: np.float64(x[0] - fn.lower),
)


def test_numpy_float_objective_gives_the_same_run_as_a_python_float():
    program = parse_program(EVOLVED_OPTIMISERS["F9"])
    config = RunConfig(swarm_size=3, moves=50, seed=5, record_trajectory=True)
    results = []
    for fid in ("STUB-X0", "STUB-NP"):
        problem = Problem.plain(make_function(fid, 3, 0))
        results.append(run_optimisation(program, problem, config))
    _assert_same_run(*results)
    assert all(type(r.value) is float for r in results[1].trajectory)
