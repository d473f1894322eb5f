import json
import math

import pytest

from pushopt import hybrid
from pushopt.harness import FixedSource, RunConfig, run_optimisation, run_with_source
from pushopt.hybrid import (
    Pool,
    PoolEntry,
    PoolSource,
    build_pool,
    load_pool_manifest,
    read_checkpoint,
    run_hybrid,
    write_checkpoint,
    write_pool_manifest,
)
from pushopt.problems import Problem, make_function
from pushopt.push import instruction_errstate, parse_program, print_program
from pushopt.rng import stream

from conftest import EVOLVED_OPTIMISERS


def entry(text, fitness, source="test"):
    return PoolEntry(parse_program(text), fitness, source)


def five_pool():
    return Pool(
        tuple(
            entry(text, float(i), source=fid)
            for i, (fid, text) in enumerate(sorted(EVOLVED_OPTIMISERS.items()))
        )
    )


def test_pool_must_not_be_empty():
    with pytest.raises(ValueError):
        Pool(())


def test_degenerate_pool_matches_homogeneous_run():
    program = parse_program(EVOLVED_OPTIMISERS["F9"])
    problem = Problem.plain(make_function("F9", 2, 3))
    config = RunConfig(swarm_size=5, moves=50, seed=21, record_trajectory=True)
    solo = run_optimisation(program, problem, config)
    hybrid = run_hybrid(Pool((entry(EVOLVED_OPTIMISERS["F9"], 0.0),)), problem, config)
    assert hybrid.pbest == solo.pbest
    assert hybrid.evaluations_used == solo.evaluations_used
    assert hybrid.pbest_point.tolist() == solo.pbest_point.tolist()
    assert len(hybrid.trajectory) == len(solo.trajectory)
    for a, b in zip(hybrid.trajectory, solo.trajectory):
        assert a.move == b.move and a.member == b.member
        assert a.point.tolist() == b.point.tolist()
        assert a.value == b.value and a.pbest == b.pbest


def test_selection_frequency_is_uniform():
    pool = five_pool()
    source = PoolSource(pool, stream(5, "sel"), 7)
    counts = {}
    for move in range(1429):  # 10,003 draws
        for program in source.select(move):
            counts[program] = counts.get(program, 0) + 1
    for program in pool.programs:
        assert 0.18 <= counts[program] / 10_003 <= 0.22


def test_per_member_mode_assigns_persistent_programs(monkeypatch):
    # run_hybrid draws one block before the run and hands it to the harness
    # as a FixedSource, which gives it back every move.
    sources = []

    def recording_run(source, problem, config):
        sources.append(source)
        return run_with_source(source, problem, config)

    monkeypatch.setattr(hybrid, "run_with_source", recording_run)
    pool = five_pool()
    config = RunConfig(swarm_size=4, moves=20, seed=6)
    run_hybrid(pool, Problem.plain(make_function("F1", 2, 0)), config, mode="per_member")
    (source,) = sources
    assert isinstance(source, FixedSource)
    first = source.select(1)
    assert len(first) == 4
    assert first == tuple(PoolSource(pool, stream(6, "select"), 4).select(0))
    for move in range(2, 21):
        assert source.select(move) == first


def test_bad_mode_rejected():
    problem = Problem.plain(make_function("F1", 2, 0))
    with pytest.raises(ValueError, match="unknown hybrid mode: sometimes"):
        run_hybrid(five_pool(), problem, RunConfig(moves=1), mode="sometimes")


def test_stack_state_persists_across_program_switches():
    # Two programs that each push one integer; under per-move switching the
    # member's integer stack keeps growing no matter which program ran
    # before, so depth after m moves equals the homogeneous depth.
    p_a = parse_program("(1)")
    p_b = parse_program("(2)")
    pool = Pool((entry("(1)", 0.0, "a"), entry("(2)", 0.0, "b")))
    problem = Problem.plain(make_function("STUB-7", 2, 0))
    config = RunConfig(swarm_size=1, moves=12, seed=2)

    from pushopt.harness import init_swarm, step_swarm
    from pushopt.hybrid import PoolSource as PS

    swarm = init_swarm(PS(pool, stream(config.seed, "select"), config.swarm_size), problem, config)
    with instruction_errstate():
        for move in range(1, 13):
            step_swarm(swarm, move)
    # per move: three harness indices + one program literal, all unconsumed
    assert len(swarm.members[0].state.integers) == 12 * 4


def test_build_pool_top_n_takes_lowest_fitness(tmp_path):
    checkpoint = tmp_path / "bests.jsonl"
    with open(checkpoint, "w") as fh:
        for i, (fid, text) in enumerate(sorted(EVOLVED_OPTIMISERS.items())):
            fh.write(json.dumps({"fitness": 10.0 - i, "program": text}) + "\n")
    pool = build_pool([checkpoint], top_n=2)
    assert len(pool) == 2
    assert [e.fitness for e in pool.entries] == [6.0, 7.0]
    top1 = build_pool([checkpoint], top_n=1)
    assert top1.entries[0].fitness == 6.0


def test_build_pool_union_across_files(tmp_path):
    files = []
    for batch in range(5):
        path = tmp_path / f"batch_{batch}.jsonl"
        with open(path, "w") as fh:
            for run in range(50):
                fh.write(json.dumps({"fitness": float(run), "program": "(exec.noop)"}) + "\n")
        files.append(path)
    pool = build_pool(files)
    assert len(pool) == 250
    assert build_pool(files, top_n=20).entries[-1].fitness <= pool.entries[-1].fitness


def test_build_pool_ordering_is_deterministic(tmp_path):
    path = tmp_path / "ties.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fitness": 1.0, "program": "(1)"}) + "\n")
        fh.write(json.dumps({"fitness": 1.0, "program": "(2)"}) + "\n")
    a = build_pool([path])
    b = build_pool([path])
    assert [e.source for e in a.entries] == [e.source for e in b.entries]


def _checkpoint(path, fitnesses):
    with open(path, "w") as fh:
        for fitness in fitnesses:
            fh.write(json.dumps({"fitness": fitness, "program": "(exec.noop)"}) + "\n")
    return path


def test_build_pool_refuses_nan_and_infinity(tmp_path):
    # NaN has no place in the (fitness, source) order: sorted among 1.0 and
    # 0.5 it would keep [1.0, NaN] or [0.5, NaN] as the top two, by line order.
    for fitnesses in ([1.0, math.nan, 0.5], [0.5, math.nan, 1.0]):
        with pytest.raises(ValueError, match='ck.jsonl:2: "fitness" is NaN'):
            build_pool([_checkpoint(tmp_path / "ck.jsonl", fitnesses)], top_n=2)
    # Infinity is not JSON either, so a pool.json could not hold it.
    for value, token in ((math.inf, "Infinity"), (-math.inf, "-Infinity")):
        with pytest.raises(ValueError, match=f'ck.jsonl:1: "fitness" is {token}'):
            build_pool([_checkpoint(tmp_path / "ck.jsonl", [value, 1.0, 0.5])], top_n=2)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_pool_manifest(Pool((entry("(1)", math.inf),)), tmp_path / "pool.json")
    assert not (tmp_path / "pool.json").exists()


def test_build_pool_empty_selection_is_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        build_pool([path])


def test_pool_manifest_round_trip(tmp_path):
    pool = five_pool()
    path = tmp_path / "pool.json"
    write_pool_manifest(pool, path)
    loaded = load_pool_manifest(path)
    assert loaded.programs == pool.programs
    assert [e.fitness for e in loaded.entries] == [e.fitness for e in pool.entries]


def test_checkpoint_round_trip(tmp_path):
    pool = five_pool()
    path = tmp_path / "gen_0000.jsonl"
    fitnesses = [2.5, 0.125, 1e-300, 7.0, 0.0]
    write_checkpoint(path, pool.programs, fitnesses)
    entries = read_checkpoint(path)
    assert [print_program(e.program) for e in entries] == [print_program(p) for p in pool.programs]
    assert [e.fitness for e in entries] == fitnesses


def test_hybrid_budget_invariants():
    pool = five_pool()
    problem = Problem.plain(make_function("F13", 2, 8))
    config = RunConfig(swarm_size=5, moves=40, seed=10, record_trajectory=True)
    result = run_hybrid(pool, problem, config)
    assert result.evaluations_used <= 5 * 41
    evaluated = [row.value for row in result.trajectory if row.in_bounds]
    assert result.pbest == min(evaluated)


class ScalarDrawSource:
    """The reference for ``PoolSource``: one scalar ``integers(len(pool))``
    draw per member, at each per-move ``select`` or once when it is built."""

    def __init__(self, pool, rng, swarm_size, mode):
        self.pool = pool
        self.rng = rng
        self.swarm_size = swarm_size
        self.mode = mode
        if mode == "per_member":
            self.assignments = self.draws()

    def draws(self):
        entries = self.pool.entries
        return [entries[int(self.rng.integers(len(entries)))].program for _ in range(self.swarm_size)]

    def select(self, move):
        if self.mode == "per_member":
            return self.assignments
        return self.draws()


def _rows(result):
    return [
        (row.move, row.member, row.point.tobytes(), row.value, row.in_bounds, row.pbest)
        for row in result.trajectory
    ]


@pytest.mark.parametrize("mode", ["per_move", "per_member"])
@pytest.mark.parametrize("pool_size", [1, 2, 5])
@pytest.mark.parametrize("swarm_size", [1, 3, 10])
def test_block_draws_match_scalar_draws(monkeypatch, mode, pool_size, swarm_size):
    # run_hybrid's selections come a block per move; a source that draws
    # them one scalar at a time gives the same trajectory and leaves the
    # selection stream in the same state.
    streams = []

    def recording_stream(*path):
        streams.append(stream(*path))
        return streams[-1]

    monkeypatch.setattr(hybrid, "stream", recording_stream)
    pool = Pool(five_pool().entries[:pool_size])
    problem = Problem.plain(make_function("F14", 3, 4))
    config = RunConfig(swarm_size=swarm_size, moves=25, seed=17, record_trajectory=True)
    blocked = run_hybrid(pool, problem, config, mode)
    (select_rng,) = streams
    reference = ScalarDrawSource(pool, stream(config.seed, "select"), swarm_size, mode)
    scalar = run_with_source(reference, problem, config)
    assert _rows(blocked) == _rows(scalar)
    assert blocked.pbest == scalar.pbest
    assert select_rng.bit_generator.state == reference.rng.bit_generator.state
