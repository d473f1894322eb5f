"""pushopt: continuous optimisers evolved as typed stack programs.

Subpackages and modules:

- ``pushopt.push``: the interpreter (stacks, instruction set, parsing).
- ``pushopt.problems``: benchmark functions and instance transforms.
- ``pushopt.harness``: the per-move optimisation harness.
- ``pushopt.evolution``: the generational evolutionary loop.
- ``pushopt.hybrid``: heterogeneous swarms over program pools.
- ``pushopt.analysis``: usage tables, simplification, re-evaluation.
- ``pushopt.cli``: the ``pushopt`` command.
"""

from .push import (
    InstructionSet,
    InterpreterState,
    Program,
    ProgramError,
    SwarmContext,
    parse_program,
    print_program,
    run_move,
)
from .problems import (
    BenchmarkFunction,
    Problem,
    ProblemFamily,
    Transform,
    make_function,
    register_function,
    sample_transform,
)
from .harness import (
    RunConfig,
    RunResult,
    fitness,
    init_swarm,
    run_optimisation,
    step_swarm,
)
from .evolution import (
    EvolutionConfig,
    EvolvedResult,
    crossover,
    evolve,
    mutate,
    random_program,
    tournament_select,
)
from .hybrid import Pool, PoolEntry, build_pool, run_hybrid
from .analysis import instruction_usage, reevaluate, simplify

__version__ = "0.1.0"
