import numpy as np
import pytest

from pushopt.evolution import (
    EvolutionConfig,
    crossover,
    evolve,
    mutate,
    random_program,
    tournament_select,
)
from pushopt.harness import RunConfig
from pushopt.problems import ProblemFamily, make_function
from pushopt.push import (
    DEFAULT_INSTRUCTION_SET,
    InstructionSet,
    InterpreterState,
    Program,
    instruction_errstate,
    parse_program,
    print_program,
    run_move,
)
from pushopt.rng import stream

ISET = DEFAULT_INSTRUCTION_SET


def test_random_program_size_limit_one():
    program = random_program(ISET, 1, stream(0, "a"))
    assert len(program) == 1


def test_random_program_lengths_and_validity():
    rng = stream(1, "lengths")
    lengths = []
    for _ in range(10_000):
        program = random_program(ISET, 100, rng)
        lengths.append(len(program))
    assert min(lengths) >= 1
    assert max(lengths) <= 100
    assert max(lengths) > 90  # uniform in [1, 100] actually reaches the top
    for item in random_program(ISET, 100, stream(1, "members")).items:
        if type(item) is str:
            assert item in ISET


def test_numpy_instruction_names_give_runnable_genomes():
    # Names drawn with numpy (np.str_) become the str items the interpreter
    # runs and the printer prints.
    iset = InstructionSet(np.array(["float.neg", "float.abs"]))
    assert [type(name) for name in iset.names] == [str, str]
    rng = stream(3, "numpy-names")
    for _ in range(50):
        program = random_program(iset, 10, rng)
        assert parse_program(print_program(program)) == program
        state = InterpreterState(dim=2, rng=np.random.default_rng(0))
        state.floats.append(-1.5)
        with instruction_errstate():
            run_move(state, program)
        assert state.steps_used == len(program)
        assert abs(state.floats[0]) == 1.5


def test_random_program_parses_after_print():
    rng = stream(2, "valid")
    for _ in range(200):
        program = random_program(ISET, 50, rng)
        assert parse_program(print_program(program)) == program


def test_random_program_draws_erc_literals():
    rng = stream(3, "erc")
    items = [
        item
        for _ in range(300)
        for item in random_program(ISET, 20, rng).items
    ]
    assert any(type(i) is float for i in items)
    assert any(type(i) is int for i in items)
    assert any(type(i) is bool for i in items)
    floats = [i for i in items if type(i) is float]
    assert all(-1.0 <= f <= 1.0 for f in floats)


def test_mutate_delete_floor():
    program = Program(("exec.noop",))
    rng = stream(4, "del")
    for _ in range(50):
        child = mutate(program, rng)
        assert len(child) >= 1


def test_mutate_insert_respects_limit():
    program = Program(tuple(["exec.noop"] * 100))
    rng = stream(5, "ins")
    for _ in range(50):
        child = mutate(program, rng)
        assert len(child) <= 100


def _edit_distance_at_most_one(a, b):
    # parent and child differ by at most one insertion, deletion or swap
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) <= 1
    if abs(len(a) - len(b)) != 1:
        return False
    short, long = (a, b) if len(a) < len(b) else (b, a)
    for cut in range(len(long)):
        if long[:cut] + long[cut + 1 :] == short:
            return True
    return False


def test_mutation_edit_distance_is_at_most_one():
    rng = stream(6, "edit")
    for _ in range(1000):
        parent = random_program(ISET, 30, rng)
        child = mutate(parent, rng)
        assert _edit_distance_at_most_one(parent.items, child.items)


def test_crossover_of_identical_parents_is_identity():
    rng = stream(7, "cx")
    for _ in range(100):
        parent = random_program(ISET, 40, rng)
        assert crossover(parent, parent, rng) == parent


def test_crossover_cut_zero_yields_second_parent():
    a = Program(("exec.noop", "float.sin"))
    b = Program((1, 2, 3))

    class ZeroRng:
        def integers(self, *args, **kwargs):
            return 0

    assert crossover(a, b, ZeroRng()) == b


def test_crossover_respects_size_limit():
    rng = stream(8, "cxlimit")
    for _ in range(1000):
        a = random_program(ISET, 100, rng)
        b = random_program(ISET, 100, rng)
        child = crossover(a, b, rng)
        assert 1 <= len(child) <= 100
        assert parse_program(print_program(child)) == child


def test_tournament_selects_global_best_with_full_sample():
    population = [Program((i,)) for i in range(10)]
    fitnesses = list(range(10))

    class AllRng:
        def integers(self, n, size):
            return np.arange(size) % n

    winner = tournament_select(population, fitnesses, 10, AllRng())
    assert winner == population[0]


def test_tournament_population_of_one():
    program = Program((1,))
    assert tournament_select([program], [5.0], 5, stream(9, "t1")) == program


def test_tournament_frequency_monotone_in_rank():
    population = [Program((i,)) for i in range(10)]
    fitnesses = [float(i + 1) for i in range(10)]
    rng = stream(10, "tfreq")
    counts = [0] * 10
    for _ in range(10_000):
        winner = tournament_select(population, fitnesses, 5, rng)
        counts[winner.items[0]] += 1
    # selection frequency decreases with fitness rank
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[9]


def test_tournament_tie_break_first_sampled():
    population = [Program((0,)), Program((1,))]
    fitnesses = [1.0, 1.0]

    class Seq:
        def integers(self, n, size):
            return np.array([1, 0, 0, 0, 0])

    assert tournament_select(population, fitnesses, 5, Seq()) == population[1]


def _small_config(seed=0, generations=2):
    return EvolutionConfig(
        population_size=12,
        generations=generations,
        tournament_size=3,
        size_limit=20,
        repeats=1,
        run=RunConfig(swarm_size=1, moves=10, seed=seed),
    )


def _family():
    return ProblemFamily(make_function("F1", 2, 5))


def test_evolve_zero_generations_returns_best_of_initial_population():
    config = _small_config(seed=3, generations=0)
    result = evolve(config, _family())
    assert len(result.stats) == 1
    fits = [f for _, f in result.final_population]
    assert result.best_fitness == min(fits)


def test_evolve_best_so_far_non_increasing():
    result = evolve(_small_config(seed=4, generations=4), _family())
    bests = [s.best_so_far for s in result.stats]
    assert all(a >= b for a, b in zip(bests, bests[1:]))


def test_evolve_deterministic_per_seed():
    a = evolve(_small_config(seed=5), _family())
    b = evolve(_small_config(seed=5), _family())
    assert a.best_fitness == b.best_fitness
    assert a.best_program == b.best_program
    assert [s.mean for s in a.stats] == [s.mean for s in b.stats]


def test_evolve_population_invariants():
    seen = []

    def on_generation(gen, population, fitnesses):
        seen.append(len(population))
        for program in population:
            assert 1 <= len(program) <= 20
            assert parse_program(print_program(program)) == program

    evolve(_small_config(seed=6, generations=3), _family(), on_generation=on_generation)
    assert seen == [12, 12, 12, 12]


def test_evolve_rates_must_sum_to_one():
    with pytest.raises(ValueError):
        EvolutionConfig(crossover_rate=0.5, mutation_rate=0.5, reproduction_rate=0.5)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("population_size", 0, "population size"),
        ("tournament_size", 0, "tournament size"),
        ("generations", -1, "generations"),
        ("size_limit", 0, "size limit"),
        ("repeats", 0, "repeats"),
        ("crossover_rate", 1.5, r"operator rates must each lie in \[0, 1\], got \(1.5, "),
        ("mutation_rate", -0.5, r"operator rates must each lie in \[0, 1\], got \(0.4, -0.5, "),
    ],
)
def test_config_counts_are_checked(field, value, message):
    with pytest.raises(ValueError, match=message):
        EvolutionConfig(**{field: value})


def test_config_defaults():
    config = EvolutionConfig()
    assert config.population_size == 200
    assert config.generations == 50
    assert config.tournament_size == 5
    assert config.size_limit == 100
    assert config.run.execution_limit == 100
    assert config.repeats == 10


def test_evolve_parallel_jobs_match_serial():
    config = _small_config(seed=7, generations=1)
    serial = evolve(config, _family(), jobs=1)
    parallel = evolve(config, _family(), jobs=2)
    assert serial.best_fitness == parallel.best_fitness
    assert [s.mean for s in serial.stats] == [s.mean for s in parallel.stats]
