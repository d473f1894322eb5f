import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from pushopt import harness
from pushopt.harness import (
    INFEASIBLE,
    FixedSource,
    RunConfig,
    _in_bounds,
    fitness,
    init_swarm,
    repeated_runs,
    run_optimisation,
    step_swarm,
    write_trajectory_csv,
)
from pushopt.problems import Problem, ProblemFamily, Transform, make_function
from pushopt.push import Program, instruction_errstate, parse_program


@pytest.fixture(autouse=True)
def _errstate():
    # step_swarm leaves the instruction error state to its caller, as
    # run_with_source enters it once around all of its moves.
    with instruction_errstate():
        yield


def stub_problem(fid, dim=2):
    return Problem.plain(make_function(fid, dim, 0))


def pbest(swarm):
    return swarm.members[swarm.pbestindex].bestval


ORIGIN_PROGRAM = parse_program("(0.0 vector.wrand)")  # proposes exactly the origin
ESCAPE_PROGRAM = parse_program("(1000.0 0 vector.dim+)")  # pushes far out of bounds


# ---------------------------------------------------------------------------
# init_swarm
# ---------------------------------------------------------------------------


def test_init_single_member_pbest():
    problem = stub_problem("STUB-X0")
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=1, moves=1, seed=5))
    member = swarm.members[0]
    assert pbest(swarm) == member.value == problem.evaluate(member.point)
    assert swarm.pbestindex == 0
    assert swarm.evaluations_used == 1


def test_init_pbestindex_is_argmin_of_first_coordinates():
    problem = stub_problem("STUB-X0", dim=3)
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=5, moves=1, seed=8))
    values = [m.point[0] for m in swarm.members]
    assert swarm.pbestindex == int(np.argmin(values))
    assert pbest(swarm) == pytest.approx(min(values) + 1.0)
    assert swarm.evaluations_used == 5


def test_init_seeds_member_stacks():
    # The start point is answered as an improving in-bounds move 0. Every
    # start point ties on the constant objective, and ties go to the lowest
    # index.
    problem = stub_problem("STUB-7")
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=3, moves=1, seed=2, record_trajectory=True))
    for member in swarm.members:
        st = member.state
        assert st.vectors == [member.point]  # own initial point, no best-point reminder
        assert st.floats == [7.0]
        assert st.booleans == [True]
        assert st.inputs == (-1.0, 1.0)
        assert st.exec == []
    assert swarm.pbestindex == 0
    assert swarm.evaluations_used == 3
    assert len(swarm.trajectory) == 3
    for p, (row, member) in enumerate(zip(swarm.trajectory, swarm.members)):
        assert (row.move, row.member, row.value, row.in_bounds, row.pbest) == (0, p, 7.0, True, 7.0)
        assert row.point is member.point


def test_init_points_are_distinct_and_in_bounds():
    problem = stub_problem("STUB-7", dim=4)
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=6, moves=1, seed=3))
    points = [tuple(m.point) for m in swarm.members]
    assert len(set(points)) == 6
    for p in swarm.members:
        assert (p.point >= -1.0).all() and (p.point <= 1.0).all()


# ---------------------------------------------------------------------------
# Bounds check
# ---------------------------------------------------------------------------

_BOUNDS = [
    (-100.0, 100.0), (-5.0, 5.0), (-math.pi, math.pi), (-3.0, 1.0), (-0.0, 0.0), (0.0, 5e-324),
]
_EDGE_FLOATS = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, sys.float_info.min,
    sys.float_info.max, -sys.float_info.max,
]
_EDGE_FLOATS += [
    x for pair in _BOUNDS for b in pair
    for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
]


@given(
    hst.sampled_from(_BOUNDS),
    hst.sampled_from([1, 2, 10, 50]).flatmap(
        lambda n: arrays(
            np.float64, n, elements=hst.one_of(hst.floats(), hst.sampled_from(_EDGE_FLOATS))
        )
    ),
)
@example((-100.0, 100.0), np.array([-100.0, 100.0]))
@example((-100.0, 100.0), np.array([math.nan]))
@example((-5.0, 5.0), np.array([0.0] * 9 + [math.nan]))
@example((-0.0, 0.0), np.array([-0.0, 0.0, -0.0]))
@example((0.0, 5e-324), np.array([5e-324, -0.0]))
@example((-3.0, 1.0), np.array([1.0] * 49 + [math.nextafter(1.0, 2.0)]))
def test_in_bounds_matches_min_max(bounds, point):
    lower, upper = bounds
    assert _in_bounds(point, lower, upper) is bool(point.min() >= lower and point.max() <= upper)


# ---------------------------------------------------------------------------
# step_swarm
# ---------------------------------------------------------------------------


def test_constant_optimum_program_reaches_zero_in_one_move():
    problem = stub_problem("STUB-SPHERE0")
    swarm = init_swarm(ORIGIN_PROGRAM, problem, RunConfig(swarm_size=1, moves=1, seed=1))
    step_swarm(swarm, 1)
    assert pbest(swarm) == 0.0


def test_empty_program_reproposes_previous_point():
    problem = stub_problem("STUB-X0")
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=2, moves=3, seed=4))
    before = [m.point.copy() for m in swarm.members]
    bestvals = [m.bestval for m in swarm.members]
    step_swarm(swarm, 1)
    for member, point, bestval in zip(swarm.members, before, bestvals):
        assert member.point.tolist() == point.tolist()
        assert member.bestval == bestval  # re-evaluating cannot worsen
        assert member.state.booleans[-1] is False  # equal value: not improving
    assert swarm.evaluations_used == 4


def test_out_of_bounds_feedback_and_budget():
    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=1, moves=1, seed=6)
    swarm = init_swarm(ESCAPE_PROGRAM, problem, config)
    step_swarm(swarm, 1)
    member = swarm.members[0]
    assert swarm.evaluations_used == 1  # no evaluation consumed by the move
    assert member.state.booleans[-1] is False
    assert member.state.floats[-1] == INFEASIBLE
    assert member.point[0] > 1.0  # point follows the proposal


def test_move_pushes_move_member_and_pbest_indices():
    problem = stub_problem("STUB-7")
    swarm = init_swarm(Program(()), problem, RunConfig(swarm_size=3, moves=2, seed=9))
    step_swarm(swarm, 1)
    for member in swarm.members:
        ints = member.state.integers
        # empty program: the three pushed indices are still there
        assert ints[-3:] == [1, member.index, swarm.pbestindex]


def test_snapshot_coordination_is_order_independent():
    # Every member proposes member 0's *current* point; member 1 must see
    # member 0's pre-move point even though member 0 moves first.
    problem = stub_problem("STUB-7")
    program = parse_program("(0 vector.current)")
    swarm = init_swarm(program, problem, RunConfig(swarm_size=2, moves=1, seed=12))
    member0_before = swarm.members[0].point.copy()
    step_swarm(swarm, 1)
    assert swarm.members[1].point.tolist() == member0_before.tolist()


def test_pbest_tracks_best_across_members():
    problem = stub_problem("STUB-X0", dim=2)
    config = RunConfig(swarm_size=4, moves=5, seed=20)
    swarm = init_swarm(ORIGIN_PROGRAM, problem, config)
    for move in range(1, 6):
        step_swarm(swarm, move)
    # origin has error 1.0 under STUB-X0 (x0 - lower = 0 - (-1))
    assert pbest(swarm) == min(1.0, pbest(swarm))
    replay = min(m.bestval for m in swarm.members)
    assert pbest(swarm) == replay


class _RecordingSource:
    """Runs ``program`` on every member; records each ``select`` call with
    the trajectory length at that call."""

    def __init__(self, program, count, swarm):
        self.programs = (program,) * count
        self.swarm = swarm
        self.calls = []

    def select(self, move):
        self.calls.append((move, len(self.swarm.trajectory)))
        return self.programs


def test_select_is_called_once_per_move_before_any_member_runs():
    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=3, moves=4, seed=5, record_trajectory=True)
    swarm = init_swarm(ORIGIN_PROGRAM, problem, config)
    source = swarm.source = _RecordingSource(ORIGIN_PROGRAM, config.swarm_size, swarm)
    for move in range(1, config.moves + 1):
        step_swarm(swarm, move)
    # At each call, only whole moves have been answered: move 0 and the
    # moves before this one.
    assert source.calls == [(move, config.swarm_size * move) for move in range(1, config.moves + 1)]


def test_prime_runs_once_per_member_just_before_its_run_move(monkeypatch):
    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=3, moves=4, seed=5)
    swarm = init_swarm(ORIGIN_PROGRAM, problem, config)
    members = {id(m.state): m.index for m in swarm.members}
    calls = []
    prime, run_move = harness._prime, harness.run_move

    def recording_prime(swarm_, member, move):
        calls.append(("prime", member.index, move))
        prime(swarm_, member, move)

    def recording_run_move(state, program):
        index = members[id(state)]
        # The member is primed: the context resolves to it and its integer
        # stack ends with the move, its index and the pbest index.
        assert swarm.context.self_index == index
        assert state.integers[-3:-1] == [calls[-1][2], index]
        calls.append(("run", index, calls[-1][2]))
        return run_move(state, program)

    monkeypatch.setattr(harness, "_prime", recording_prime)
    monkeypatch.setattr(harness, "run_move", recording_run_move)
    for move in range(1, config.moves + 1):
        step_swarm(swarm, move)
    assert calls == [
        (kind, index, move)
        for move in range(1, config.moves + 1)
        for index in range(config.swarm_size)
        for kind in ("prime", "run")
    ]


@pytest.mark.parametrize("count", [2, 4])
def test_wrong_number_of_programs_is_an_error(count):
    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=3, moves=1, seed=5, record_trajectory=True)
    swarm = init_swarm(ORIGIN_PROGRAM, problem, config)
    swarm.source = _RecordingSource(ORIGIN_PROGRAM, count, swarm)
    with pytest.raises(ValueError):
        step_swarm(swarm, 1)


# ---------------------------------------------------------------------------
# Feedback contract, exhaustively scripted
# ---------------------------------------------------------------------------


def test_feedback_contract_improving_nonimproving_outofbounds():
    # Program: add -0.25 to coordinate 0. Under STUB-X0 each in-bounds move
    # strictly improves; starting left of the boundary it eventually leaves
    # the domain.
    problem = stub_problem("STUB-X0")
    program = parse_program("(-0.25 0 vector.dim+)")
    config = RunConfig(swarm_size=1, moves=1, seed=33)
    swarm = init_swarm(program, problem, config)
    member = swarm.members[0]
    state = member.state
    x0 = float(member.point[0])
    value0 = member.value
    depth_b = len(state.booleans)
    depth_f = len(state.floats)
    depth_v = len(state.vectors)

    # Move 1: improving. Exactly one boolean and one float pushed; the
    # literals -0.25 and 0 were consumed by dim+, and dim+ replaced the
    # vector top, so the vector depth is unchanged.
    step_swarm(swarm, 1)
    assert state.booleans[depth_b:] == [True]
    assert state.floats[depth_f:] == [pytest.approx(value0 - 0.25)]
    assert len(state.vectors) == depth_v
    assert member.point[0] == pytest.approx(x0 - 0.25)
    assert swarm.evaluations_used == 2

    # Force a non-improving in-bounds move: freeze the proposal by running
    # an empty program (re-evaluates the same point; equal is not better).
    swarm.source = FixedSource((Program(()),) * config.swarm_size)
    value1 = member.value
    step_swarm(swarm, 2)
    assert state.booleans[-1] is False
    assert state.floats[-1] == pytest.approx(value1)
    # best point re-pushed on top of the proposal
    assert state.vectors[-1].tolist() == member.best.tolist()
    assert swarm.evaluations_used == 3

    # Out of bounds: false + infeasible marker, no evaluation consumed.
    swarm.source = FixedSource((ESCAPE_PROGRAM,) * config.swarm_size)
    evals = swarm.evaluations_used
    value_before = member.value
    step_swarm(swarm, 3)
    assert state.booleans[-1] is False
    assert state.floats[-1] == INFEASIBLE
    assert swarm.evaluations_used == evals
    assert member.value == value_before  # value untouched by an unevaluated move


def test_feedback_shapes_per_move():
    # After every member-move exactly one boolean and one float are pushed
    # by the harness (programs here touch neither stack).
    problem = stub_problem("STUB-7")
    program = parse_program("(vector.dup)")
    config = RunConfig(swarm_size=3, moves=4, seed=40)
    swarm = init_swarm(program, problem, config)
    for move in range(1, 5):
        depths_b = [len(m.state.booleans) for m in swarm.members]
        depths_f = [len(m.state.floats) for m in swarm.members]
        step_swarm(swarm, move)
        for m, db, df in zip(swarm.members, depths_b, depths_f):
            assert len(m.state.booleans) == db + 1
            assert len(m.state.floats) == df + 1


# ---------------------------------------------------------------------------
# run_optimisation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("swarm_size,moves", [(1, 40), (5, 20), (4, 10)])
def test_budget_ledger(swarm_size, moves):
    problem = stub_problem("STUB-SPHERE0")
    config = RunConfig(swarm_size=swarm_size, moves=moves, seed=3, record_trajectory=True)
    result = run_optimisation(ORIGIN_PROGRAM, problem, config)
    assert result.evaluations_used == swarm_size * (moves + 1)
    evaluated = [row.value for row in result.trajectory if row.in_bounds]
    assert result.pbest == min(evaluated)


def test_budget_with_out_of_bounds_moves():
    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=2, moves=30, seed=7)
    result = run_optimisation(ESCAPE_PROGRAM, problem, config)
    assert result.evaluations_used <= 2 * 31
    assert result.evaluations_used == 2  # only the init evaluations


def test_pbest_non_increasing_and_deterministic():
    problem = Problem.plain(make_function("F9", 2, 10))
    config = RunConfig(swarm_size=5, moves=50, seed=77, record_trajectory=True)
    program = parse_program("(vector.best 0.3 vector.wrand vector.+)")
    result = run_optimisation(program, problem, config)
    pbests = [row.pbest for row in result.trajectory]
    assert all(a >= b for a, b in zip(pbests, pbests[1:]))
    result2 = run_optimisation(program, problem, config)
    assert result2.pbest == result.pbest
    assert result2.evaluations_used == result.evaluations_used
    assert result2.pbest_point.tolist() == result.pbest_point.tolist()


def test_trajectory_row_count():
    problem = stub_problem("STUB-7")
    config = RunConfig(swarm_size=3, moves=8, seed=1, record_trajectory=True)
    result = run_optimisation(ORIGIN_PROGRAM, problem, config)
    move_rows = [row for row in result.trajectory if row.move >= 1]
    assert len(move_rows) == 3 * 8
    assert len(result.trajectory) == 3 * 9  # init rows carry move == 0


def test_trajectory_csv_export(tmp_path):
    problem = stub_problem("STUB-SPHERE0")
    config = RunConfig(swarm_size=2, moves=3, seed=2, record_trajectory=True)
    result = run_optimisation(ORIGIN_PROGRAM, problem, config)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, [(0, result)], run_id=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,repeat,move,member,x0,x1,error,in_bounds,pbest"
    assert len(lines) == 1 + 2 * 4


def test_trajectory_jsonl_export(tmp_path):
    import json

    from pushopt.harness import write_trajectory_jsonl

    problem = stub_problem("STUB-X0")
    config = RunConfig(swarm_size=1, moves=2, seed=3, record_trajectory=True)
    result = run_optimisation(ESCAPE_PROGRAM, problem, config)
    path = tmp_path / "trajectory.jsonl"
    write_trajectory_jsonl(path, [(0, result)], run_id=3)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 3
    assert records[0]["move"] == 0 and records[0]["in_bounds"] is True
    assert records[1]["error"] is None and records[1]["in_bounds"] is False
    assert len(records[0]["point"]) == 2


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------


def _report(program, family, repeats, config):
    return repeated_runs(lambda problem, run: run_optimisation(program, problem, run), family, repeats, config)


def test_fitness_single_repeat_equals_run():
    fn = make_function("F1", 2, 3)
    family = ProblemFamily(fn, Transform.identity(2))
    config = RunConfig(swarm_size=1, moves=20, seed=5)
    report = _report(ORIGIN_PROGRAM, family, 1, config)
    assert fitness(ORIGIN_PROGRAM, family, 1, config) == report.per_repeat[0]


def test_fitness_constant_stub_is_constant():
    family = ProblemFamily(make_function("STUB-7", 2, 0), Transform.identity(2))
    config = RunConfig(swarm_size=2, moves=10, seed=8)
    assert fitness(ORIGIN_PROGRAM, family, 4, config) == 7.0


def test_fitness_constant_optimum_program_is_zero_on_identity_family():
    family = ProblemFamily(make_function("STUB-SPHERE0", 2, 0), Transform.identity(2))
    config = RunConfig(swarm_size=1, moves=5, seed=9)
    assert fitness(ORIGIN_PROGRAM, family, 3, config) == 0.0


def test_fitness_draws_fresh_transforms_per_repeat():
    fn = make_function("F1", 2, 4)
    family = ProblemFamily(fn)
    config = RunConfig(swarm_size=1, moves=5, seed=11)
    report = _report(ORIGIN_PROGRAM, family, 5, config)
    # the origin is a different distance from each transformed optimum
    assert len(set(report.per_repeat)) > 1


def test_repeated_runs_requires_positive_repeats():
    family = ProblemFamily(make_function("F1", 2, 4))
    with pytest.raises(ValueError):
        fitness(ORIGIN_PROGRAM, family, 0, RunConfig(swarm_size=1, moves=5))
