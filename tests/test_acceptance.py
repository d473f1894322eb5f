"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with stated runtime bounds assert them.
"""

import json
import math
import time

import numpy as np

from pushopt.cli import main as cli_main
from pushopt.evolution import EvolutionConfig, evolve, random_program
from pushopt.harness import (
    INFEASIBLE,
    FixedSource,
    RunConfig,
    RunResult,
    fitness,
    init_swarm,
    repeated_runs,
    run_optimisation,
    step_swarm,
)
from pushopt.hybrid import Pool, PoolEntry, PoolSource, run_hybrid
from pushopt.problems import Problem, ProblemFamily, make_function, sample_transform
from pushopt.push import (
    DEFAULT_INSTRUCTION_SET,
    REGISTRY,
    InterpreterState,
    Program,
    SwarmContext,
    instruction_errstate,
    parse_program,
    print_program,
)
from pushopt.rng import derive_seed, stream

from conftest import EVOLVED_OPTIMISERS, TRAINED_CONFIGS
from reference_functions import reference_error

FUNCTION_IDS = ("F1", "F9", "F12", "F13", "F14")


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Criterion 1: interpreter conformance
# ---------------------------------------------------------------------------


def _fuzz_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    float_pool = [0.0, -1.0, 1.0, 0.5, -0.25, 1e300, -1e300, INFEASIBLE, 1e-300, 3.14]
    int_pool = [0, 1, -1, 2, -7, 100, -100, 2**62, -(2**62)]

    def refill(st):
        for _ in range(int(rng.integers(1, 4))):
            st.floats.append(float(float_pool[int(rng.integers(len(float_pool)))]))
            st.integers.append(int(int_pool[int(rng.integers(len(int_pool)))]))
            st.booleans.append(bool(rng.random() < 0.5))
            st.vectors.append(rng.uniform(-10, 10, dim))
        st.exec.append("exec.noop")
        st.exec.append(float(rng.uniform(-1, 1)))

    states = []
    for i in range(count):
        st = InterpreterState(dim=dim, rng=np.random.default_rng(i), inputs=(-5.0, 5.0))
        refill(st)
        ctx = SwarmContext(
            [rng.uniform(-5, 5, dim) for _ in range(5)],
            [rng.uniform(-5, 5, dim) for _ in range(5)],
            int(rng.integers(5)),
        )
        states.append((st, ctx))
    return rng, states, refill


def _snap(st):
    return (list(st.booleans), list(st.integers), list(st.floats), list(st.vectors), list(st.exec))


def _stacks_equal(a, b):
    for sa, sb in zip(a, b):
        if len(sa) != len(sb):
            return False
        for x, y in zip(sa, sb):
            if x is not y and x != y:
                return False
    return True


def test_criterion_1_interpreter_conformance():
    started = time.time()
    # All five evolved expressions parse, round-trip, and survive 1000
    # harness moves on the 2D versions of their training functions.
    for fid, text in EVOLVED_OPTIMISERS.items():
        program = parse_program(text)
        printed = print_program(program)
        assert parse_program(printed) == program
        problem = Problem.plain(make_function(fid, 2, 1))
        result = run_optimisation(
            program, problem, RunConfig(swarm_size=1, moves=1000, seed=7)
        )
        assert result.moves_executed == 1000
        assert np.isfinite(result.pbest)

    # Fuzz: one million random instruction applications never crash, never
    # leave a wrong-length vector or a non-finite float anywhere on the
    # stacks, and refused executions leave the stacks bit-identical.
    dim = 3
    rng, states, refill = _fuzz_states(dim, 32, 2024)
    names = sorted(REGISTRY)
    applications = 1_000_000
    noops = 0
    # Direct instruction calls enter the error state run_move would.
    with instruction_errstate():
        for k in range(applications):
            st, ctx = states[k & 31]
            if (k & 255) == 0:
                for stack in (st.floats, st.integers, st.booleans, st.vectors, st.exec):
                    del stack[:-8]
                refill(st)
            st.steps_used = 0
            st.step_limit = 100
            st.usage = None
            name = names[int(rng.integers(len(names)))]
            before = _snap(st)
            applied = REGISTRY[name](st, ctx)
            if not applied:
                noops += 1
                assert _stacks_equal(before, _snap(st)), name
            for v in st.vectors:
                assert len(v) == dim, name
                assert np.isfinite(v).all(), name
            # Python floats only: a numpy float would escape the float
            # instructions' protected arithmetic.
            for x in st.floats:
                assert type(x) is float and math.isfinite(x), name
            for item in st.exec:
                assert type(item) is not float or math.isfinite(item), name
    elapsed = time.time() - started
    assert 0 < noops < applications
    assert elapsed < 120.0
    report(
        f"criterion 1 PASS: 5 evolved programs parse/round-trip/run 1000 moves; "
        f"{applications} fuzz applications ({noops} refusals) clean in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 2: benchmark oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_benchmark_oracle_equivalence():
    worst = 0.0
    for fid in FUNCTION_IDS:
        for dim in (2, 10):
            fn = make_function(fid, dim, 13)
            rng = stream(99, "oracle", fid, dim)
            for _ in range(1000):
                x = rng.uniform(fn.lower, fn.upper, dim)
                got = fn.evaluate(x)
                want = reference_error(fn, x.tolist())
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                assert err < 1e-9
        # 100 sampled transforms: error at the transformed optimum < 1e-9
        fn = make_function(fid, 10, 13)
        trng = stream(98, "optimum", fid)
        for _ in range(100):
            transform = sample_transform(fn.bounds, fn.dim, trng, optimum=fn.shift)
            problem = Problem(fn, transform)
            assert abs(problem.evaluate(problem.transformed_optimum())) < 1e-9
    report(
        f"criterion 2 PASS: 1000 points x 5 functions x D in (2,10) match the "
        f"reference (worst rel err {worst:.2e}); 100 transformed optima per "
        f"function at error < 1e-9"
    )


# ---------------------------------------------------------------------------
# Criterion 3: budget ledger
# ---------------------------------------------------------------------------

BUDGET_CONFIGS = ((1, 1000), (5, 200), (25, 40), (50, 20))


def test_criterion_3_budget_ledger():
    constant = parse_program("(0.0 vector.wrand)")  # always proposes the origin
    for swarm_size, moves in BUDGET_CONFIGS:
        problem = Problem.plain(make_function("F9", 2, 3))
        config = RunConfig(
            swarm_size=swarm_size, moves=moves, seed=17, record_trajectory=True
        )
        result = run_optimisation(constant, problem, config)
        assert result.evaluations_used == swarm_size * (moves + 1)
        _assert_pbest_matches_trajectory(result)
        # random programs: never over budget, pbest always replayable
        for i in range(3):
            program = random_program(
                DEFAULT_INSTRUCTION_SET, 100, stream(55, "prog", swarm_size, i)
            )
            result = run_optimisation(program, problem, config)
            assert result.evaluations_used <= swarm_size * (moves + 1)
            _assert_pbest_matches_trajectory(result)
    report(
        "criterion 3 PASS: evaluations == s*(M+1) for a constant in-bounds "
        "program and <= s*(M+1) for random programs over 1x1000/5x200/25x40/50x20; "
        "pbest equals the trajectory minimum exactly"
    )


def _assert_pbest_matches_trajectory(result: RunResult):
    evaluated = [row.value for row in result.trajectory if row.in_bounds]
    assert result.pbest == min(evaluated)
    assert result.trajectory[-1].pbest == result.pbest


# ---------------------------------------------------------------------------
# Criterion 4: feedback contract
# ---------------------------------------------------------------------------


def test_criterion_4_feedback_contract():
    # Scripted exactly: a stub objective (first coordinate minus lower
    # bound), a program stepping coordinate 0 by -0.25 (strictly improving),
    # an empty program (re-evaluates the same point: non-improving), and a
    # program jumping far out of bounds.
    problem = Problem.plain(make_function("STUB-X0", 2, 0))
    improver = parse_program("(-0.25 0 vector.dim+)")
    config = RunConfig(swarm_size=1, moves=1, seed=33)
    swarm = init_swarm(improver, problem, config)
    member = swarm.members[0]
    state = member.state

    value0 = member.value
    with instruction_errstate():
        step_swarm(swarm, problem, 1)
    assert state.booleans[-1] is True  # improving move: true
    assert state.floats[-1] == value0 - 0.25  # ... plus the new error
    assert swarm.evaluations_used == 2

    swarm.source = FixedSource(Program(()))
    value1 = member.value
    best_before = member.best
    vector_depth = len(state.vectors)
    with instruction_errstate():
        step_swarm(swarm, problem, 2)
    assert state.booleans[-1] is False  # non-improving: false
    assert state.floats[-1] == value1  # ... plus the new error
    assert len(state.vectors) == vector_depth + 1  # ... plus the best point
    assert state.vectors[-1] is best_before
    assert swarm.evaluations_used == 3

    swarm.source = FixedSource(parse_program("(1000.0 0 vector.dim+)"))
    value2 = member.value
    bestval2 = member.bestval
    with instruction_errstate():
        step_swarm(swarm, problem, 3)
    assert state.booleans[-1] is False  # out of bounds: false
    assert state.floats[-1] == INFEASIBLE  # ... plus the infeasible marker
    assert swarm.evaluations_used == 3  # no evaluation consumed
    assert member.value == value2 and member.bestval == bestval2
    report(
        "criterion 4 PASS: improving -> true + new error; non-improving -> "
        "false + new error + best re-push; out-of-bounds -> false + marker, "
        "no evaluation consumed"
    )


# ---------------------------------------------------------------------------
# Criterion 5: evolution efficacy at desk scale
# ---------------------------------------------------------------------------


def _random_search_fitness(family, repeats, config):
    # Pure random search evaluated under the identical protocol: the same
    # number of repeats, a fresh instance per repeat, and the same total FE
    # count per run as the optimiser consumes (s * (M + 1)).
    budget = config.swarm_size * (config.moves + 1)

    def runner(problem, run_config):
        rng = stream(run_config.seed, "random-search")
        lower, upper = problem.bounds
        points = rng.uniform(lower, upper, (budget, problem.dim))
        best = min(problem.evaluate(p) for p in points)
        return RunResult(best, points[0], budget, config.moves, None)

    return repeated_runs(runner, family, repeats, config).mean


def test_criterion_5_evolution_efficacy():
    started = time.time()
    family = ProblemFamily(make_function("F1", 2, 0), randomize=True)
    beats_median = 0
    beats_random_search = 0
    for seed in range(10):
        config = EvolutionConfig(
            population_size=50,
            generations=10,
            repeats=1,
            run=RunConfig(swarm_size=1, moves=200),
            seed=seed,
        )
        result = evolve(config, family)
        baseline = _random_search_fitness(
            family, 1, RunConfig(swarm_size=1, moves=200, seed=derive_seed(seed, "baseline"))
        )
        beats_median += result.best_fitness < result.stats[0].median
        beats_random_search += result.best_fitness < baseline
    elapsed = time.time() - started
    assert beats_median >= 9
    assert beats_random_search >= 8
    assert elapsed < 300.0
    report(
        f"criterion 5 PASS: best fitness beat the initial median in "
        f"{beats_median}/10 seeds and equal-budget random search in "
        f"{beats_random_search}/10 seeds ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 6: hybrid degenerate equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_hybrid_degenerate_equivalence():
    program = parse_program(EVOLVED_OPTIMISERS["F9"])
    problem = Problem.plain(make_function("F9", 2, 3))
    config = RunConfig(swarm_size=5, moves=100, seed=21, record_trajectory=True)
    solo = run_optimisation(program, problem, config)
    degenerate = run_hybrid(
        Pool((PoolEntry(program, 0.0, "solo"),)), problem, config
    )
    assert degenerate.pbest == solo.pbest
    assert degenerate.evaluations_used == solo.evaluations_used
    assert degenerate.pbest_point.tolist() == solo.pbest_point.tolist()
    assert len(degenerate.trajectory) == len(solo.trajectory)
    for a, b in zip(degenerate.trajectory, solo.trajectory):
        assert a.move == b.move and a.member == b.member
        assert a.point.tolist() == b.point.tolist()
        assert a.value == b.value and a.in_bounds == b.in_bounds
        assert a.pbest == b.pbest

    pool = Pool(
        tuple(
            PoolEntry(parse_program(text), float(i), fid)
            for i, (fid, text) in enumerate(sorted(EVOLVED_OPTIMISERS.items()))
        )
    )
    source = PoolSource(pool, stream(5, "sel"))
    counts = dict.fromkeys(pool.programs, 0)
    draws = 10_000
    for i in range(draws):
        counts[source.select(i % 5, i)] += 1
    for program in pool.programs:
        assert abs(counts[program] / draws - 0.2) <= 0.02
    report(
        "criterion 6 PASS: single-program hybrid is trajectory-identical to "
        "the homogeneous run; 5-program selection frequencies within +/-2% "
        "of uniform over 10^4 draws"
    )


# ---------------------------------------------------------------------------
# Criterion 7: simplification soundness
# ---------------------------------------------------------------------------


def test_criterion_7_simplification_soundness():
    from pushopt.analysis import simplify

    tolerance = 1e-6
    summary = []
    for fid, text in EVOLVED_OPTIMISERS.items():
        program = parse_program(text)
        family = ProblemFamily(make_function(fid, 2, 5), randomize=True)
        swarm_size, moves = TRAINED_CONFIGS[fid]
        config = RunConfig(swarm_size=swarm_size, moves=moves, seed=71)
        repeats = 3
        before = fitness(program, family, repeats, config)
        simplified, reported_before, reported_after = simplify(
            program, family, config, repeats=repeats, tolerance=tolerance
        )
        after = fitness(simplified, family, repeats, config)
        assert (reported_before, reported_after) == (before, after)
        again, _, _ = simplify(simplified, family, config, repeats=repeats, tolerance=tolerance)
        assert again == simplified  # idempotent under fixed seeds
        assert len(simplified) <= len(program)
        assert after <= before * (1.0 + tolerance)  # paired no-degradation
        summary.append(f"{fid} {len(program)}->{len(simplified)}")
    report("criterion 7 PASS: simplify idempotent and fitness-preserving: " + ", ".join(summary))


# ---------------------------------------------------------------------------
# Criterion 8: CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "function": "F1",
                "D": 2,
                "swarm": 1,
                "moves": 20,
                "pop": 8,
                "gens": 1,
                "repeats": 1,
                "seed": 4,
            }
        )
    )
    out_a = tmp_path / "a"
    assert cli_main(["evolve", "--config", str(config_path), "--out", str(out_a)]) == 0
    out_b = tmp_path / "b"
    assert cli_main(["replay", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    compared = []
    for name in ("manifest.json", "best_program.txt", "generations.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        compared.append(name)
    for checkpoint in sorted((out_a / "checkpoints").glob("*.jsonl")):
        twin = out_b / "checkpoints" / checkpoint.name
        assert checkpoint.read_bytes() == twin.read_bytes()
        compared.append(f"checkpoints/{checkpoint.name}")

    # run + hybrid result CSVs are byte-identical under replay too
    program_path = tmp_path / "prog.txt"
    program_path.write_text(EVOLVED_OPTIMISERS["F9"] + "\n")
    run_a = tmp_path / "run_a"
    args = [
        "run", "--program", str(program_path), "--function", "F9", "--dim", "2",
        "--moves", "50", "--repeats", "3", "--seed", "6", "--transforms", "random",
        "--out", str(run_a),
    ]
    assert cli_main(args) == 0
    run_b = tmp_path / "run_b"
    assert cli_main(["replay", "--manifest", str(run_a / "manifest.json"), "--out", str(run_b)]) == 0
    assert (run_a / "results.csv").read_bytes() == (run_b / "results.csv").read_bytes()
    compared.append("results.csv")
    report(
        f"criterion 8 PASS: replayed manifests reproduced {len(compared)} "
        f"result files byte-identically"
    )
