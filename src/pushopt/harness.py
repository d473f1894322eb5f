"""The per-move optimisation harness.

One evolved program is run as a local or swarm optimiser: every swarm member
holds a copy of the program and its own interpreter state, proposes one
search point per move, and receives feedback (improvement boolean and new
error) through its stacks. Members see each other's current and best points
as they were at the start of each move, through one ``SwarmContext`` per
run that is brought up to date after every member has moved. The pbest index
pushed to each member's integer stack is live, not snapshotted: a member that
improves on the swarm best changes the index the members after it receive in
the same move, so results can depend on the order members execute.
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
    DEFAULT_SETTINGS,
    InterpreterState,
    Program,
    PushSettings,
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
    settings: PushSettings = DEFAULT_SETTINGS

    def __post_init__(self):
        if self.swarm_size < 1:
            raise ValueError("swarm size must be >= 1")
        if self.moves < 1:
            raise ValueError("moves must be >= 1")

    @property
    def budget(self) -> int:
        return self.swarm_size * self.moves


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
    """Program source for a homogeneous swarm: every member runs the same
    program every move."""

    def __init__(self, program: Program):
        self.program = program

    def on_init(self, swarm_size: int) -> None:
        pass

    def select(self, member: int, move: int) -> Program:
        return self.program


@dataclass
class Swarm:
    members: list
    pbest: float
    pbestindex: int
    pbest_point: np.ndarray
    evaluations_used: int
    source: object
    config: RunConfig
    context: SwarmContext
    trajectory: list = None
    usage: dict = None


@dataclass(frozen=True)
class RunResult:
    pbest: float
    pbest_point: np.ndarray
    evaluations_used: int
    moves_executed: int
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


def init_swarm(source, problem: Problem, config: RunConfig, usage: dict = None) -> Swarm:
    """Initialise and evaluate the swarm (one evaluation per member).

    Each member starts at a random point within bounds with cleared stacks;
    its vector stack is seeded with the point, the float stack with its
    error, the boolean stack with true, and the input stack holds the search
    bounds. An objective value that is not finite, or a numpy floating-point
    error raised by the objective, raises ``ValueError``, here and in
    ``step_swarm``.
    """
    if isinstance(source, Program):
        source = FixedSource(source)
    lower, upper = problem.bounds
    init_rng = stream(config.seed, "init")
    members = []
    pbest = math.inf
    pbestindex = 0
    pbest_point = None
    trajectory = [] if config.record_trajectory else None
    for p in range(config.swarm_size):
        state = InterpreterState(
            dim=problem.dim,
            rng=stream(config.seed, "member", p),
            settings=config.settings,
            inputs=(lower, upper),
        )
        point = init_rng.uniform(lower, upper, problem.dim)
        value = _evaluate(problem, point)
        state.vectors.append(point)
        state.floats.append(value)
        state.booleans.append(True)
        members.append(SwarmMember(p, state, point, value, point, value, point.tobytes()))
        if value < pbest:
            pbest = value
            pbestindex = p
            pbest_point = point
        if trajectory is not None:
            trajectory.append(TrajectoryRow(0, p, point, value, True, pbest))
    source.on_init(config.swarm_size)
    return Swarm(
        members=members,
        pbest=pbest,
        pbestindex=pbestindex,
        pbest_point=pbest_point,
        evaluations_used=config.swarm_size,
        source=source,
        config=config,
        context=SwarmContext([m.point for m in members], [m.best for m in members]),
        trajectory=trajectory,
        usage=usage,
    )


def _in_bounds(point: np.ndarray, lower: float, upper: float) -> bool:
    # A nan component is a miss, as it is for point.min() >= lower.
    for x in point.tolist():
        if not lower <= x <= upper:
            return False
    return True


def step_swarm(swarm: Swarm, problem: Problem, move: int) -> Swarm:
    """Run one move (move numbers start at 1) for every member.

    The member's integer stack receives the move number, its own index and
    the current pbest index; after execution the proposal is read
    non-destructively from the top of the vector stack. In-bounds proposals
    are evaluated (consuming budget) and answered with an improvement
    boolean and the new error; non-improving members are also reminded of
    their best point. A proposal with the same bytes as the last point the
    member evaluated is charged as an evaluation but takes that point's
    value without calling the objective, which must therefore be a
    deterministic function of the point. Out-of-bounds proposals cost no
    evaluation and are answered with false and an infeasible marker value.

    The caller enters ``instruction_errstate``, as ``run_with_source`` does
    once per run. Correctness, not only quiet, depends on it: vector
    instructions detect non-finite results through the errors it raises.
    """
    lower, upper = problem.bounds
    limit = swarm.config.execution_limit
    usage = swarm.usage
    select = swarm.source.select
    ctx = swarm.context
    members = swarm.members
    trajectory = swarm.trajectory
    for member in members:
        index = member.index
        ctx.self_index = index
        program = select(index, move)
        state = member.state
        integers = state.integers
        integers.append(move)
        integers.append(index)
        integers.append(swarm.pbestindex)
        previous = member.value
        run_move(state, program, ctx, limit, usage=usage)
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
        if evaluable:
            key = proposal.tobytes()
            if key == member.evaluated:
                value = previous
            else:
                value = _evaluate(problem, proposal)
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
        if member.bestval < swarm.pbest:
            swarm.pbest = member.bestval
            swarm.pbestindex = index
            swarm.pbest_point = member.best
        if trajectory is not None:
            trajectory.append(
                TrajectoryRow(move, index, proposal, recorded, evaluable, swarm.pbest)
            )
    # Later members of this move saw start-of-move points; the next move
    # sees where every member ended this one.
    currents = ctx.currents
    bests = ctx.bests
    for member in members:
        currents[member.index] = member.point
        bests[member.index] = member.best
    return swarm


def run_with_source(source, problem: Problem, config: RunConfig, usage: dict = None) -> RunResult:
    with instruction_errstate():
        swarm = init_swarm(source, problem, config, usage=usage)
        for move in range(1, config.moves + 1):
            step_swarm(swarm, problem, move)
    return RunResult(
        pbest=swarm.pbest,
        pbest_point=np.array(swarm.pbest_point),
        evaluations_used=swarm.evaluations_used,
        moves_executed=config.moves,
        trajectory=tuple(swarm.trajectory) if swarm.trajectory is not None else None,
    )


def run_optimisation(program: Program, problem: Problem, config: RunConfig, usage: dict = None) -> RunResult:
    """Run one program as an optimiser; deterministic given config.seed."""
    return run_with_source(FixedSource(program), problem, config, usage=usage)


def repeated_runs(runner, family: ProblemFamily, repeats: int, config: RunConfig) -> FitnessReport:
    """Repeat runs with fresh instances and fresh seeds; report per-repeat
    bests and their mean.

    ``runner(problem, config)`` must return a RunResult.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    per_repeat = []
    results = []
    for r in range(repeats):
        problem = family.instance(stream(config.seed, "transform", r))
        run_config = replace(config, seed=derive_seed(config.seed, "run", r))
        result = runner(problem, run_config)
        per_repeat.append(result.pbest)
        results.append(result)
    return FitnessReport(
        per_repeat=tuple(per_repeat),
        mean=sum(per_repeat) / repeats,
        results=tuple(results),
    )


def fitness_report(program: Program, family: ProblemFamily, repeats: int, config: RunConfig) -> FitnessReport:
    def runner(problem, run_config):
        return run_optimisation(program, problem, run_config)

    return repeated_runs(runner, family, repeats, config)


def fitness(program: Program, family: ProblemFamily, repeats: int, config: RunConfig) -> float:
    """Mean best error over ``repeats`` optimisation runs, each with random
    initial locations and a fresh instance drawn from the family."""
    return fitness_report(program, family, repeats, config).mean


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------


def format_value(x) -> str:
    return repr(float(x))


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["run", "repeat", "move", "member"]
        header += [f"x{i}" for i in range(dim)]
        header += ["error", "in_bounds", "pbest"]
        writer.writerow(header)
        for repeat, result in runs:
            for row in result.trajectory:
                record = [run_id, repeat, row.move, row.member]
                record += [format_value(c) for c in row.point]
                record += [format_value(row.value), int(row.in_bounds), format_value(row.pbest)]
                writer.writerow(record)


def write_trajectory_jsonl(path, runs, run_id=0) -> None:
    """The same records as the CSV export, one JSON object per line."""
    runs = _checked_runs(runs)
    with open(path, "w", encoding="utf-8") as fh:
        for repeat, result in runs:
            for row in result.trajectory:
                fh.write(
                    json.dumps(
                        {
                            "run": run_id,
                            "repeat": repeat,
                            "move": row.move,
                            "member": row.member,
                            "point": [float(c) for c in row.point],
                            "error": None if math.isinf(row.value) else row.value,
                            "in_bounds": row.in_bounds,
                            "pbest": row.pbest,
                        }
                    )
                    + "\n"
                )
