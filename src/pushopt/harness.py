"""The per-move optimisation harness.

One evolved program is run as a local or swarm optimiser: every swarm member
holds a copy of the program and its own interpreter state, proposes one
search point per move, and receives feedback (improvement boolean and new
error) through its stacks. The swarm holds the problem it runs on. A move is
select, prime, run, answer: the source selects the move's programs before any
member runs, then each member in turn is primed (``_prime``), runs its
program (``run_move``) and has its proposal answered (``_answer``). A
member's random start point is answered as move 0, exactly like an improving
in-bounds proposal: true and its error, one evaluation charged. Members see
each other's current and best points as they were at the start of each move,
through one ``SwarmContext`` per run that is brought up to date after every
member has moved. Only the pbest index pushed to each member's integer stack
depends on the order members execute: it is live, not snapshotted, so a
member that improves on the swarm best changes the index the members after
it receive in the same move.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .problems import Problem, ProblemFamily
from .push import (
    DEFAULT_EXECUTION_LIMIT,
    InterpreterState,
    Program,
    SwarmContext,
    instruction_errstate,
    run_move,
)
from .rng import derive_seed, stream

# Feedback value for out-of-bounds moves: the largest representable real, so
# it survives the float stack's no-op rules for non-finite results.
INFEASIBLE = sys.float_info.max


@dataclass(frozen=True)
class RunConfig:
    """Budget and reproducibility settings for one optimisation run."""

    swarm_size: int = 1
    moves: int = 1000
    execution_limit: int = DEFAULT_EXECUTION_LIMIT
    record_trajectory: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 1:
            raise ValueError("swarm size must be >= 1")
        if self.moves < 1:
            raise ValueError("moves must be >= 1")
        if self.execution_limit < 1:
            raise ValueError("execution limit must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SwarmMember:
    """One search process: program state plus current and best points.

    ``value`` is the error at the last point the member evaluated and
    ``evaluated`` that point's ``tobytes()``.
    """

    index: int
    state: InterpreterState
    point: np.ndarray
    value: float
    best: np.ndarray
    bestval: float
    evaluated: bytes


@dataclass(frozen=True)
class TrajectoryRow:
    """One member-move record; move 0 rows are the initial evaluations."""

    move: int
    member: int
    point: np.ndarray
    value: float
    in_bounds: bool
    pbest: float


class FixedSource:
    """Program source that gives every move the same ``programs``, one per
    member in member order: a homogeneous swarm's one program repeated, or a
    hybrid ``per_member`` block. A source is anything with ``select(move)``,
    which the harness calls once at the start of each move, before any
    member runs; it returns one program per member, in member order."""

    def __init__(self, programs):
        self.programs = tuple(programs)

    def select(self, move: int) -> tuple:
        return self.programs


@dataclass
class Swarm:
    """The members of one run on ``problem``; the swarm best is
    ``members[pbestindex]``."""

    problem: Problem
    members: list
    pbestindex: int
    evaluations_used: int
    source: object
    context: SwarmContext
    trajectory: list = None


@dataclass(frozen=True)
class RunResult:
    pbest: float
    pbest_point: np.ndarray
    evaluations_used: int
    trajectory: tuple = None


@dataclass(frozen=True)
class FitnessReport:
    """Per-repeat best errors and their mean."""

    per_repeat: tuple
    mean: float
    results: tuple


def _evaluate(problem: Problem, point: np.ndarray) -> float:
    # Feedback reaches the float stack, whose values instructions rely on
    # being finite Python floats; anything else is a fault of the objective.
    try:
        value = float(problem.evaluate(point))
    except FloatingPointError as exc:
        raise ValueError(f"objective {problem.function.id} raised a floating-point error: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"objective {problem.function.id} returned a non-finite value: {value!r}")
    return value


def init_swarm(source, problem: Problem, config: RunConfig) -> Swarm:
    """Initialise and evaluate the swarm (one evaluation per member).

    ``source`` is a program, which every member runs every move, or a
    program source (see ``FixedSource``). Each member starts at a random
    point within bounds with cleared stacks, the search bounds on its input
    stack and its start point on its vector stack. The start point is then
    answered as move 0, exactly like an improving in-bounds proposal: true
    on the boolean stack and its error on the float stack, one evaluation
    charged. An objective value that is not finite, or a numpy
    floating-point error raised by the objective, raises ``ValueError``,
    here and in ``step_swarm``.
    """
    if isinstance(source, Program):
        source = FixedSource((source,) * config.swarm_size)
    lower, upper = problem.bounds
    init_rng = stream(config.seed, "init")
    points = [init_rng.uniform(lower, upper, problem.dim) for _ in range(config.swarm_size)]
    ctx = SwarmContext(points, list(points))
    members = []
    swarm = Swarm(problem=problem, members=members, pbestindex=0, evaluations_used=0, source=source,
                  context=ctx, trajectory=[] if config.record_trajectory else None)
    for p, point in enumerate(points):
        state = InterpreterState(
            dim=problem.dim,
            rng=stream(config.seed, "member", p),
            inputs=(lower, upper),
            step_limit=config.execution_limit,
            ctx=ctx,
        )
        state.vectors.append(point)
        member = SwarmMember(p, state, point, math.inf, point, math.inf, b"")
        members.append(member)
        _answer(swarm, member, 0, point, True)
    return swarm


def _in_bounds(point: np.ndarray, lower: float, upper: float) -> bool:
    # A nan component is a miss, as it is for point.min() >= lower.
    for x in point.tolist():
        if not lower <= x <= upper:
            return False
    return True


def _answer(swarm: Swarm, member: SwarmMember, move: int, proposal: np.ndarray, evaluable: bool) -> None:
    """Answer one proposal through the member's stacks, then update the
    bests and the trajectory. A tie with the swarm best keeps the earlier
    pbest index.

    An evaluable proposal is charged one evaluation and answered with an
    improvement boolean and its error, plus the member's best point if it
    did not improve. One with the same bytes as the last point the member
    evaluated takes that point's value without calling the objective, which
    must therefore be a deterministic function of the point. Any other
    proposal costs no evaluation and is answered with false and an
    infeasible marker value.
    """
    state = member.state
    if evaluable:
        previous = member.value
        key = proposal.tobytes()
        if key == member.evaluated:
            value = previous
        else:
            value = _evaluate(swarm.problem, proposal)
            member.evaluated = key
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
    pbest = swarm.members[swarm.pbestindex].bestval
    if member.bestval < pbest:
        swarm.pbestindex = member.index
        pbest = member.bestval
    if swarm.trajectory is not None:
        swarm.trajectory.append(TrajectoryRow(move, member.index, proposal, recorded, evaluable, pbest))


def _prime(swarm: Swarm, member: SwarmMember, move: int) -> None:
    """Ready ``member`` to run its program in ``move``: the swarm context
    resolves a negative index to it, and its integer stack receives the move
    number, its own index and the current pbest index."""
    swarm.context.self_index = member.index
    member.state.integers.extend((move, member.index, swarm.pbestindex))


def step_swarm(swarm: Swarm, move: int) -> Swarm:
    """Run one move (move numbers start at 1) for every member.

    The source's ``select(move)`` gives the move's programs, one per member,
    before any member runs; a count that is not the swarm size raises
    ``ValueError``. Each member is primed (``_prime``) and runs its program;
    then the proposal is read non-destructively from the top of the vector
    stack and answered (see ``_answer``): in-bounds proposals are evaluated,
    consuming budget, and out-of-bounds ones are not.

    The caller enters ``instruction_errstate``, as ``run_with_source`` does
    once per run. Correctness, not only quiet, depends on it: vector
    instructions detect non-finite results through the errors it raises.
    """
    lower, upper = swarm.problem.bounds
    members = swarm.members
    for member, program in zip(members, swarm.source.select(move), strict=True):
        _prime(swarm, member, move)
        state = member.state
        run_move(state, program)
        if state.vectors:
            proposal = state.vectors[-1]
            member.point = proposal
            evaluable = _in_bounds(proposal, lower, upper)
        else:
            # The program consumed every vector; re-seed with the previous
            # point and treat the move as out of bounds.
            state.vectors.append(member.point)
            proposal = member.point
            evaluable = False
        _answer(swarm, member, move, proposal, evaluable)
    # Later members of this move saw start-of-move points; the next move
    # sees where every member ended this one.
    ctx = swarm.context
    for member in members:
        ctx.currents[member.index] = member.point
        ctx.bests[member.index] = member.best
    return swarm


def run_with_source(source, problem: Problem, config: RunConfig) -> RunResult:
    with instruction_errstate():
        swarm = init_swarm(source, problem, config)
        for move in range(1, config.moves + 1):
            step_swarm(swarm, move)
    best = swarm.members[swarm.pbestindex]
    return RunResult(
        pbest=best.bestval,
        pbest_point=np.array(best.best),
        evaluations_used=swarm.evaluations_used,
        trajectory=tuple(swarm.trajectory) if swarm.trajectory is not None else None,
    )


def run_optimisation(program: Program, problem: Problem, config: RunConfig) -> RunResult:
    """Run one program as an optimiser; deterministic given config.seed."""
    return run_with_source(program, problem, config)


def repeated_runs(runner, family: ProblemFamily, repeats: int, config: RunConfig) -> FitnessReport:
    """Repeat runs with fresh instances and fresh seeds; report per-repeat
    bests and their mean.

    ``runner(problem, config)`` must return a RunResult.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = tuple(
        runner(family.instance(stream(config.seed, "transform", r)),
               replace(config, seed=derive_seed(config.seed, "run", r)))
        for r in range(repeats)
    )
    per_repeat = tuple(result.pbest for result in results)
    return FitnessReport(per_repeat=per_repeat, mean=sum(per_repeat) / repeats, results=results)


def fitness(program: Program, family: ProblemFamily, repeats: int, config: RunConfig) -> float:
    """Mean best error over ``repeats`` optimisation runs, each with random
    initial locations and a fresh instance drawn from the family."""

    def runner(problem, run_config):
        return run_optimisation(program, problem, run_config)

    return repeated_runs(runner, family, repeats, config).mean


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------


def format_value(x) -> str:
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    """Write a result table: ``header``, then ``rows``, with "\\n" line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _checked_runs(runs):
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to write")
    if runs[0][1].trajectory is None:
        raise ValueError("runs were not recorded with trajectories")
    return runs


def write_trajectory_csv(path, runs, run_id=0) -> None:
    """Write trajectory rows for a sequence of (repeat, RunResult) pairs.

    Columns: run, repeat, move, member, one column per point component,
    error, in_bounds, pbest.
    """
    runs = _checked_runs(runs)
    dim = len(runs[0][1].trajectory[0].point)
    header = ["run", "repeat", "move", "member", *(f"x{i}" for i in range(dim)), "error", "in_bounds", "pbest"]
    write_csv(path, header, (
        [run_id, repeat, row.move, row.member, *map(format_value, row.point),
         format_value(row.value), int(row.in_bounds), format_value(row.pbest)]
        for repeat, result in runs for row in result.trajectory
    ))


def write_trajectory_jsonl(path, runs, run_id=0) -> None:
    """The same records as the CSV export, one JSON object per line."""
    runs = _checked_runs(runs)
    with open(path, "w", encoding="utf-8") as fh:
        for repeat, result in runs:
            for row in result.trajectory:
                record = {
                    "run": run_id, "repeat": repeat, "move": row.move, "member": row.member,
                    "point": [float(c) for c in row.point],
                    "error": None if math.isinf(row.value) else row.value,
                    "in_bounds": row.in_bounds, "pbest": row.pbest,
                }
                fh.write(json.dumps(record) + "\n")
