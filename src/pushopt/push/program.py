"""Programs as flat sequences of instructions and literals, with a
parenthesized text form.

The text format is a whitespace-separated token list wrapped in parentheses,
e.g. ``(3 2 integer.+)``. ``true``/``false`` are boolean literals, integer
tokens are integer literals and any other numeric token is a float literal.
Nested sublists are accepted on input and flattened depth-first; the
canonical printed form is always a single flat list.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .interpreter import resolve_plan
from .ops import DEFAULT_INSTRUCTION_SET, InstructionSet

DEFAULT_SIZE_LIMIT = 100

_INT_TOKEN = re.compile(r"[+-]?[0-9]+\Z")


class ProgramError(ValueError):
    pass


@dataclass(frozen=True)
class Program:
    """An immutable linear genome of instruction names and literals.

    Float literals must be finite, as on every stack the program runs on.
    """

    items: tuple = ()

    def __post_init__(self):
        for item in self.items:
            if isinstance(item, float) and not math.isfinite(item):
                raise ProgramError(f"non-finite literal: {item!r}")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __str__(self) -> str:
        return print_program(self)

    def __reduce__(self):
        # The cached plan holds instruction closures, which do not pickle;
        # a copy resolves its own.
        return (Program, (self.items,))

    @cached_property
    def plan(self) -> tuple:
        """The straight-line prefix ``run_move`` runs without the exec
        stack (see ``interpreter.resolve_plan``); resolved on first use."""
        return resolve_plan(self.items)


def format_item(item) -> str:
    kind = type(item)
    if kind is str:
        return item
    if kind is bool:
        return "true" if item else "false"
    if kind is int:
        return str(item)
    if kind is float:
        return repr(item)
    raise ProgramError(f"cannot print item of type {kind.__name__}")


def print_program(program: Program) -> str:
    """Canonical single-line text form; ``parse_program`` inverts it."""
    return "(" + " ".join(format_item(item) for item in program.items) + ")"


def _classify_token(token: str, instruction_set: InstructionSet):
    if token == "true":
        return True
    if token == "false":
        return False
    if _INT_TOKEN.match(token):
        return int(token)
    try:
        # A non-finite value is refused when the Program is built.
        return float(token)
    except ValueError:
        pass
    if token in instruction_set:
        return token
    raise ProgramError(f"unknown instruction: {token}")


def parse_program(
    text: str,
    instruction_set: InstructionSet = DEFAULT_INSTRUCTION_SET,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> Program:
    """Parse a parenthesized expression into a flat Program.

    Raises ProgramError on unbalanced parentheses, unknown instruction
    tokens, or more than ``size_limit`` items.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ProgramError("empty program text")
    if tokens[0] != "(":
        raise ProgramError("program must start with '('")
    items = []
    depth = 0
    for pos, token in enumerate(tokens):
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                raise ProgramError("unbalanced parentheses: too many ')'")
            if depth == 0 and pos != len(tokens) - 1:
                raise ProgramError("trailing tokens after top-level ')'")
        else:
            if depth == 0:
                raise ProgramError(f"token outside parentheses: {token}")
            items.append(_classify_token(token, instruction_set))
    if depth != 0:
        raise ProgramError("unbalanced parentheses: missing ')'")
    if len(items) > size_limit:
        raise ProgramError(f"program has {len(items)} items, limit is {size_limit}")
    return Program(tuple(items))


def load_program(path, instruction_set=DEFAULT_INSTRUCTION_SET, size_limit=DEFAULT_SIZE_LIMIT) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), instruction_set, size_limit)


def save_program(program: Program, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_program(program) + "\n")
