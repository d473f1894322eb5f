"""A typed stack-program interpreter with a search-point vector extension."""

from .interpreter import counting, instruction_errstate, run_move
from .ops import (
    DEFAULT_INSTRUCTION_SET,
    ERC_MARKERS,
    INT_LIMIT,
    REGISTRY,
    InstructionSet,
    default_instruction_set,
    push_value,
)
from .program import (
    Program,
    ProgramError,
    load_program,
    parse_program,
    print_program,
    save_program,
)
from .state import DEFAULT_EXECUTION_LIMIT, InterpreterState, SwarmContext

__all__ = [
    "DEFAULT_EXECUTION_LIMIT",
    "DEFAULT_INSTRUCTION_SET",
    "ERC_MARKERS",
    "INT_LIMIT",
    "REGISTRY",
    "InstructionSet",
    "InterpreterState",
    "Program",
    "ProgramError",
    "SwarmContext",
    "counting",
    "default_instruction_set",
    "instruction_errstate",
    "load_program",
    "parse_program",
    "print_program",
    "push_value",
    "run_move",
    "save_program",
]
