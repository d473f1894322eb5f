"""Generational evolution of programs: random generation, tournament
selection, one-point crossover and point mutation, with elitism of one.

Fitness is stochastic (every evaluation draws fresh instance transforms), so
no fitness caching is done across generations; the elite is re-evaluated
each generation and the best fitness ever observed is retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .harness import RunConfig, fitness
from .parallel import worker_pool
from .problems import ProblemFamily
from .push import DEFAULT_INSTRUCTION_SET, InstructionSet, Program
from .push.ops import FLOAT_ERC, INTEGER_ERC
from .rng import derive_seed, stream

# The default genome length limit: programs that evolve generates and varies
# have at most this many items. Parsed programs have no limit.
DEFAULT_SIZE_LIMIT = 100


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 200
    generations: int = 50
    tournament_size: int = 5
    size_limit: int = DEFAULT_SIZE_LIMIT
    crossover_rate: float = 0.4
    mutation_rate: float = 0.4
    reproduction_rate: float = 0.2
    repeats: int = 10
    run: RunConfig = field(default_factory=RunConfig)
    instruction_set: InstructionSet = DEFAULT_INSTRUCTION_SET

    def __post_init__(self):
        rates = tuple(map(float, (self.crossover_rate, self.mutation_rate, self.reproduction_rate)))
        if not all(0.0 <= rate <= 1.0 for rate in rates):
            raise ValueError(f"operator rates must each lie in [0, 1], got {rates}")
        total = sum(rates)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operator rates must sum to 1, got {total}")
        if self.population_size < 1:
            raise ValueError("population size must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.size_limit < 1:
            raise ValueError("size limit must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    median: float
    best_so_far: float


@dataclass(frozen=True)
class EvolvedResult:
    best_program: Program
    best_fitness: float
    stats: tuple
    final_population: tuple  # (program, fitness) pairs of the last generation


def draw_item(pool, rng):
    """One genome item drawn uniformly from instructions and constant makers."""
    choice = pool[int(rng.integers(len(pool)))]
    if choice == "boolean.erc":
        return bool(rng.random() < 0.5)
    if choice == "float.erc":
        return float(rng.uniform(*FLOAT_ERC))
    if choice == "integer.erc":
        lo, hi = INTEGER_ERC
        return int(rng.integers(lo, hi + 1))
    return choice


def random_program(instruction_set: InstructionSet, size_limit: int, rng: np.random.Generator) -> Program:
    """A syntactically valid program with length uniform in [1, size_limit]."""
    pool = instruction_set.generation_pool()
    length = int(rng.integers(1, size_limit + 1))
    return Program(tuple(draw_item(pool, rng) for _ in range(length)))


def mutate(
    program: Program,
    rng: np.random.Generator,
    instruction_set: InstructionSet = DEFAULT_INSTRUCTION_SET,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> Program:
    """Apply one of point-replace, insert or delete at a uniform position.

    Insertion is skipped at the size limit and deletion at length one, so
    the child stays within [1, size_limit] and differs from the parent by at
    most one item.
    """
    items = program.items
    kind = int(rng.integers(3))
    if kind == 0:  # replace
        if not items:
            return program
        pos = int(rng.integers(len(items)))
        pool = instruction_set.generation_pool()
        return Program(items[:pos] + (draw_item(pool, rng),) + items[pos + 1 :])
    if kind == 1:  # insert
        if len(items) >= size_limit:
            return program
        pos = int(rng.integers(len(items) + 1))
        pool = instruction_set.generation_pool()
        return Program(items[:pos] + (draw_item(pool, rng),) + items[pos:])
    if len(items) <= 1:  # delete
        return program
    pos = int(rng.integers(len(items)))
    return Program(items[:pos] + items[pos + 1 :])


def crossover(a: Program, b: Program, rng: np.random.Generator, size_limit: int = DEFAULT_SIZE_LIMIT) -> Program:
    """One-point crossover on the linear sequences with a shared cut index."""
    cut = int(rng.integers(min(len(a), len(b)) + 1))
    child = a.items[:cut] + b.items[cut:]
    if not child:
        child = b.items or a.items
    return Program(child[:size_limit])


def tournament_select(population, fitnesses, k: int, rng: np.random.Generator) -> Program:
    """Sample k individuals with replacement, return the lowest fitness;
    ties go to the first sampled."""
    if not population:
        raise ValueError("population is empty")
    # min keeps the first of equal keys.
    best = min(rng.integers(len(population), size=k).tolist(), key=lambda i: fitnesses[i])
    return population[best]


def _fitness(shared, task) -> float:
    family, repeats, run = shared
    program, seed = task
    return fitness(program, family, repeats, replace(run, seed=seed))


def evolve(
    config: EvolutionConfig,
    family: ProblemFamily,
    on_generation=None,
    jobs: int = 1,
) -> EvolvedResult:
    """Run the generational loop and return the best program ever evaluated.

    ``on_generation(generation, population, fitnesses)`` is called after
    each generation is evaluated (checkpointing hook). With ``jobs > 1``,
    fitness evaluations run in one pool of worker processes for the whole
    call; each worker receives the family and the run config once. Results
    are independent of the worker count and the start method because every
    individual has its own pre-split random stream, split from
    ``config.run.seed``.
    """
    iset = config.instruction_set
    seed = config.run.seed
    population = [
        random_program(iset, config.size_limit, stream(seed, "initpop", i))
        for i in range(config.population_size)
    ]
    best_program = None
    best_fitness = float("inf")
    stats = []
    with worker_pool(_fitness, (family, config.repeats, config.run), jobs) as evaluate:
        for generation in range(config.generations + 1):
            fitnesses = evaluate(
                [(p, derive_seed(seed, "fit", generation, i)) for i, p in enumerate(population)]
            )
            gen_best = min(range(len(population)), key=lambda i: (fitnesses[i], i))
            if fitnesses[gen_best] < best_fitness:
                best_fitness = fitnesses[gen_best]
                best_program = population[gen_best]
            stats.append(
                GenerationStats(
                    generation=generation,
                    best=float(fitnesses[gen_best]),
                    mean=float(np.mean(fitnesses)),
                    median=float(np.median(fitnesses)),
                    best_so_far=best_fitness,
                )
            )
            if on_generation is not None:
                on_generation(generation, population, fitnesses)
            if generation == config.generations:
                break
            var_rng = stream(seed, "vary", generation)

            def select():
                return tournament_select(population, fitnesses, config.tournament_size, var_rng)

            offspring = [population[gen_best]]  # elitism of one
            while len(offspring) < config.population_size:
                roll = var_rng.random()
                if roll < config.crossover_rate:
                    child = crossover(select(), select(), var_rng, config.size_limit)
                elif roll < config.crossover_rate + config.mutation_rate:
                    child = mutate(select(), var_rng, iset, config.size_limit)
                else:
                    child = select()
                offspring.append(child)
            population = offspring
    return EvolvedResult(
        best_program=best_program,
        best_fitness=best_fitness,
        stats=tuple(stats),
        final_population=tuple(zip(population, fitnesses)),
    )
