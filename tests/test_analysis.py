import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from pushopt.analysis import (
    _column_ranks,
    dynamic_instruction_usage,
    instruction_usage,
    reevaluate,
    simplify,
    write_error_table_csv,
    write_usage_csv,
)
from pushopt.harness import RunConfig, fitness, run_optimisation
from pushopt.hybrid import Pool, PoolEntry, run_hybrid
from pushopt.problems import Problem, ProblemFamily, Transform, make_function
from pushopt.push import parse_program


def test_usage_single_program():
    rows = instruction_usage([parse_program("(float.sin float.sin)")])
    assert len(rows) == 1
    assert rows[0].instruction == "float.sin"
    assert rows[0].count == 2
    assert rows[0].rate == 1.0


def test_usage_excludes_literals():
    rows = instruction_usage([parse_program("(1 2.5 true float.sin)")])
    assert [r.instruction for r in rows] == ["float.sin"]


def test_usage_rates_sum_to_one():
    programs = [
        parse_program("(float.sin float.cos vector.+)"),
        parse_program("(float.sin integer.+ integer.+)"),
    ]
    rows = instruction_usage(programs)
    assert sum(r.rate for r in rows) == pytest.approx(1.0)
    assert rows[0].count >= rows[-1].count


def test_usage_is_permutation_invariant():
    programs = [
        parse_program("(float.sin)"),
        parse_program("(vector.+ vector.+)"),
        parse_program("(integer.%)"),
    ]
    assert instruction_usage(programs) == instruction_usage(programs[::-1])


def test_usage_top_k_truncates_after_normalisation():
    rows = instruction_usage(
        [parse_program("(float.sin float.sin float.cos)")], top=1
    )
    assert len(rows) == 1
    assert rows[0].rate == pytest.approx(2 / 3)


def test_usage_requires_programs():
    with pytest.raises(ValueError):
        instruction_usage([])


def test_dynamic_usage_counts_executions():
    family = ProblemFamily(make_function("STUB-7", 2, 0), Transform.identity(2))
    config = RunConfig(swarm_size=1, moves=5, seed=3)
    rows = dynamic_instruction_usage(
        [parse_program("(3 exec.do*times float.rand)")], family, config
    )
    counts = {r.instruction: r.count for r in rows}
    # the body runs three times per move, five moves
    assert counts["float.rand"] == 15
    assert counts["exec.do*times"] == 5


def test_dynamic_usage_counts_a_program_whose_plan_was_resolved():
    # A plan resolved outside counting holds the functions themselves,
    # which count nothing; the program is counted as a fresh copy is.
    family = ProblemFamily(make_function("STUB-7", 2, 0), Transform.identity(2))
    config = RunConfig(swarm_size=2, moves=5, seed=3)
    text = "(float.abs 0.5 vector.wrand vector.+)"
    resolved = parse_program(text)
    assert len(resolved.plan) == len(resolved)
    rows = dynamic_instruction_usage([resolved], family, config)
    assert rows == dynamic_instruction_usage([parse_program(text)], family, config)
    assert {r.instruction: r.count for r in rows} == {"float.abs": 10, "vector.wrand": 10, "vector.+": 10}


def test_usage_csv(tmp_path):
    rows = instruction_usage([parse_program("(float.sin float.cos float.sin)")])
    path = tmp_path / "usage.csv"
    write_usage_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,instruction,count,rate"
    assert lines[1].startswith("1,float.sin,2,")


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def _sphere_family():
    return ProblemFamily(make_function("STUB-SPHERE0", 2, 0), Transform.identity(2))


def test_simplify_removes_trailing_noop():
    config = RunConfig(swarm_size=1, moves=5, seed=17)
    program = parse_program("(0.0 vector.wrand exec.noop)")
    simplified, _, _ = simplify(program, _sphere_family(), config, repeats=2)
    assert "exec.noop" not in simplified.items
    assert len(simplified) < len(program)


def test_simplify_never_longer_never_worse():
    config = RunConfig(swarm_size=1, moves=10, seed=23)
    family = ProblemFamily(make_function("F9", 2, 6))
    program = parse_program("(vector.best 0.3 vector.wrand vector.+ exec.noop boolean.rand)")
    before = fitness(program, family, 3, config)
    simplified, reported_before, reported_after = simplify(program, family, config, repeats=3)
    after = fitness(simplified, family, 3, config)
    assert (reported_before, reported_after) == (before, after)
    assert len(simplified) <= len(program)
    assert after <= before * (1 + 1e-6)


def test_simplify_idempotent():
    config = RunConfig(swarm_size=1, moves=10, seed=29)
    family = ProblemFamily(make_function("F1", 2, 2))
    program = parse_program("(vector.best 0.5 vector.wrand vector.+ float.pop exec.noop)")
    once, _, once_fitness = simplify(program, family, config, repeats=2)
    twice, again_fitness, twice_fitness = simplify(once, family, config, repeats=2)
    assert once == twice
    assert once_fitness == again_fitness == twice_fitness


# ---------------------------------------------------------------------------
# reevaluate
# ---------------------------------------------------------------------------

ORIGIN = "(0.0 vector.wrand)"


def test_reevaluate_constant_optimum_program():
    functions = [make_function("STUB-SPHERE0", 2, 0)]
    config = RunConfig(swarm_size=1, moves=5, seed=31)
    report = reevaluate([("origin", parse_program(ORIGIN))], functions, config, runs=25)
    assert report.runs == 25
    assert len(report.per_run[0][0]) == 25
    assert report.means[0][0] == 0.0


def constant_point_program(point):
    """A program proposing exactly ``point``: start from the zero vector and
    add each component as a float literal."""
    tokens = ["0.0", "vector.wrand"]
    for i, c in enumerate(point):
        tokens += [repr(float(c)), str(i), "vector.dim+"]
    return parse_program("(" + " ".join(tokens) + ")")


def test_reevaluate_constant_optimum_on_f1():
    fn = make_function("F1", 2, 19)
    program = constant_point_program(fn.shift)
    config = RunConfig(swarm_size=1, moves=3, seed=59)
    report = reevaluate([("optimal", program)], [fn], config, runs=25)
    assert report.means[0][0] == 0.0
    assert all(v == 0.0 for v in report.per_run[0][0])


def test_reevaluate_dominance_ranks():
    functions = [make_function("STUB-X0", 2, 0), make_function("STUB-SPHERE0", 2, 0)]
    config = RunConfig(swarm_size=1, moves=5, seed=37)
    # the origin-proposer dominates a program that always walks out of bounds
    report = reevaluate(
        [
            ("origin", parse_program(ORIGIN)),
            ("escape", parse_program("(1000.0 0 vector.dim+)")),
        ],
        functions,
        config,
        runs=5,
    )
    assert report.mean_ranks == (1.0, 2.0)


def test_reevaluate_tie_ranks_are_midranks():
    functions = [make_function("STUB-7", 2, 0)]
    config = RunConfig(swarm_size=1, moves=3, seed=41)
    report = reevaluate(
        [("a", parse_program(ORIGIN)), ("b", parse_program(ORIGIN))],
        functions,
        config,
        runs=3,
    )
    assert report.mean_ranks == (1.5, 1.5)


def _reference_column_ranks(values):
    # The sort-and-scan midranks that _column_ranks replaced.
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@given(hst.lists(hst.sampled_from([0.0, -0.0, 0.5, 1.0, 1e300, 3.25]), min_size=1, max_size=9))
def test_column_ranks_match_the_sort_and_scan_reference(values):
    assert _column_ranks(values) == _reference_column_ranks(values)


def test_reevaluate_accepts_pools():
    functions = [make_function("STUB-SPHERE0", 2, 0)]
    config = RunConfig(swarm_size=2, moves=5, seed=43)
    pool = Pool((PoolEntry(parse_program(ORIGIN), 0.0, "x"),))
    report = reevaluate([("pool", pool)], functions, config, runs=4)
    assert report.means[0][0] == 0.0


def test_reevaluate_deterministic():
    functions = [make_function("F9", 2, 4)]
    config = RunConfig(swarm_size=1, moves=20, seed=47)
    program = parse_program("(vector.best 0.3 vector.wrand vector.+)")
    a = reevaluate([("p", program)], functions, config, runs=5)
    b = reevaluate([("p", program)], functions, config, runs=5)
    assert a.per_run == b.per_run


def test_reevaluate_parallel_matches_serial():
    functions = [make_function("F1", 2, 4), make_function("F9", 2, 4)]
    config = RunConfig(swarm_size=1, moves=10, seed=53)
    program = parse_program("(vector.best 0.3 vector.wrand vector.+)")
    serial = reevaluate([("p", program)], functions, config, runs=4, jobs=1)
    parallel = reevaluate([("p", program)], functions, config, runs=4, jobs=2)
    assert serial.per_run == parallel.per_run
    assert serial.mean_ranks == parallel.mean_ranks


def test_error_table_csv(tmp_path):
    functions = [make_function("STUB-7", 2, 0)]
    config = RunConfig(swarm_size=1, moves=2, seed=51)
    report = reevaluate([("p", parse_program(ORIGIN))], functions, config, runs=2)
    path = tmp_path / "errors.csv"
    write_error_table_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "optimiser,runs,STUB-7,mean_rank"
    assert lines[1].startswith("p,2,7.0,")


# Each of these makes numpy overflow or divide by zero on its first move.
OVERFLOW_PROGRAMS = (
    "(0.0 vector.wrand vector./)",
    "(1e100 vector.scale vector.dup vector.* vector.dup vector.* vector.dup vector.*)",
    "(1e300 vector.scale vector.mag)",
)


def test_overflowing_programs_run_without_warnings():
    # Every entry point runs its moves under the instruction error state,
    # which run_with_source enters once per run.
    programs = [parse_program(text) for text in OVERFLOW_PROGRAMS]
    pool = Pool(tuple(PoolEntry(p, 0.0, str(i)) for i, p in enumerate(programs)))
    functions = [make_function("F1", 2, 0), make_function("F14", 10, 0)]
    config = RunConfig(swarm_size=2, moves=5, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in functions:
            for program in programs:
                run_optimisation(program, Problem.plain(fn), config)
                fitness(program, ProblemFamily(fn), 2, config)
            run_hybrid(pool, Problem.plain(fn), config)
        optimisers = [(str(i), p) for i, p in enumerate(programs)] + [("pool", pool)]
        report = reevaluate(optimisers, functions, config, runs=2, jobs=1)
    assert len(report.names) == 4
