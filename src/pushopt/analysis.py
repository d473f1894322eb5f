"""Post-hoc tooling: instruction usage tables, program simplification and
re-evaluation reports with mean ranks."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

from .harness import RunConfig, fitness, format_value, run_optimisation, write_csv
from .hybrid import Pool, run_hybrid
from .parallel import worker_pool
from .problems import Problem, ProblemFamily
from .push import Program, counting
from .rng import derive_seed, stream


@dataclass(frozen=True)
class UsageRow:
    instruction: str
    count: int
    rate: float


def _check_usage_args(programs, top) -> None:
    if not programs:
        raise ValueError("no programs given")
    if top is not None and top < 1:
        raise ValueError("top must be >= 1")


def _usage_rows(counts: dict, top: int = None) -> list:
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top is not None:
        ordered = ordered[:top]
    return [UsageRow(name, count, count / total) for name, count in ordered]


def instruction_usage(programs, top: int = None) -> list:
    """Ranked static instruction counts over a list of programs.

    Literals are excluded; rates are normalised over all counted
    instructions (before any top-k truncation of the returned rows).
    """
    _check_usage_args(programs, top)
    counts = {}
    for program in programs:
        for item in program.items:
            if type(item) is str:
                counts[item] = counts.get(item, 0) + 1
    return _usage_rows(counts, top)


def dynamic_instruction_usage(
    programs, family: ProblemFamily, config: RunConfig, top: int = None
) -> list:
    """Ranked executed-instruction counts, measured by running each program
    once per family instance under ``config``."""
    _check_usage_args(programs, top)
    counts = {}
    with counting(counts):
        for i, program in enumerate(programs):
            problem = family.instance(stream(config.seed, "usage", i))
            # A copy, so that no plan resolved before counting began runs.
            run_optimisation(Program(program.items), problem, config)
    return _usage_rows(counts, top)


def write_usage_csv(path, rows) -> None:
    write_csv(path, ["rank", "instruction", "count", "rate"], (
        [rank, row.instruction, row.count, format_value(row.rate)] for rank, row in enumerate(rows, start=1)
    ))


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(
    program: Program,
    family: ProblemFamily,
    config: RunConfig,
    repeats: int = 10,
    tolerance: float = 1e-6,
) -> tuple[Program, float, float]:
    """Greedily drop items whose removal does not hurt fitness.

    Fitness is measured with paired seeds (identical instances and run seeds
    for every candidate), so removals of effect-free instructions compare
    exactly. A removal is kept when the candidate fitness stays within
    ``tolerance`` (relative) of the fitness of the input program; the loop
    repeats until no single removal is accepted, so the result is never
    longer than the input and never worse beyond the tolerance.

    Returns ``(simplified, input_fitness, simplified_fitness)``.
    """
    baseline = fitness(program, family, repeats, config)
    threshold = baseline * (1.0 + tolerance)
    current, current_fitness = program, baseline
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current.items):
            candidate = Program(current.items[:i] + current.items[i + 1 :])
            candidate_fitness = fitness(candidate, family, repeats, config)
            if candidate_fitness <= threshold:
                current, current_fitness = candidate, candidate_fitness
                changed = True
            else:
                i += 1
    return current, baseline, current_fitness


# ---------------------------------------------------------------------------
# Re-evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReevalReport:
    """Mean errors of optimisers across problems, with mean ranks.

    ``means[i][j]`` is optimiser i's mean error on problem j over ``runs``
    runs; ``per_run[i][j]`` holds the individual run bests.
    """

    names: tuple
    problem_ids: tuple
    means: tuple
    per_run: tuple
    mean_ranks: tuple
    runs: int


def _column_ranks(values) -> list:
    # 1-based ranks; tied values share the mean of the ranks they span.
    return [sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2 for v in values]


def _run_optimiser(shared, task) -> float:
    optimisers, problems, config = shared
    i, j, seed = task
    optimiser, problem, config = optimisers[i], problems[j], replace(config, seed=seed)
    if isinstance(optimiser, Pool):
        return run_hybrid(optimiser, problem, config).pbest
    return run_optimisation(optimiser, problem, config).pbest


def reevaluate(
    optimisers,
    functions,
    config: RunConfig,
    runs: int = 25,
    jobs: int = 1,
) -> ReevalReport:
    """Re-evaluate optimisers over identity-transform instances.

    ``optimisers`` is a list of (name, Program-or-Pool) pairs; every
    optimiser faces the same ``runs`` random initial conditions per
    function, derived from (config.seed, function id, run index), so
    comparisons are paired. ``jobs > 1`` runs the (optimiser, problem, run)
    grid in worker processes, each of which receives the optimisers, the
    problems and ``config`` once, without changing the results.
    """
    if not optimisers:
        raise ValueError("no optimisers given")
    if not functions:
        raise ValueError("no functions given")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    names, members = zip(*optimisers)
    problem_ids = tuple(fn.id for fn in functions)
    problems = tuple(Problem.plain(fn) for fn in functions)
    tasks = [
        (i, j, derive_seed(config.seed, "reeval", fn.id, r))
        for i in range(len(names))
        for j, fn in enumerate(functions)
        for r in range(runs)
    ]
    with worker_pool(_run_optimiser, (members, problems, config), jobs) as run_all:
        flat = run_all(tasks)
    bests = iter(flat)
    per_run = tuple(tuple(tuple(islice(bests, runs)) for _ in functions) for _ in names)
    means = tuple(tuple(sum(bests) / runs for bests in row) for row in per_run)
    rank_columns = [_column_ranks(column) for column in zip(*means)]
    mean_ranks = tuple(sum(ranks) / len(problem_ids) for ranks in zip(*rank_columns))
    return ReevalReport(names, problem_ids, means, per_run, mean_ranks, runs)


def write_error_table_csv(path, report: ReevalReport) -> None:
    write_csv(path, ["optimiser", "runs", *report.problem_ids, "mean_rank"], (
        [name, report.runs, *map(format_value, report.means[i]), format_value(report.mean_ranks[i])]
        for i, name in enumerate(report.names)
    ))


def write_per_run_csv(path, report: ReevalReport) -> None:
    write_csv(path, ["optimiser", "problem", "run", "pbest"], (
        [name, pid, r, format_value(value)]
        for i, name in enumerate(report.names)
        for j, pid in enumerate(report.problem_ids)
        for r, value in enumerate(report.per_run[i][j])
    ))
