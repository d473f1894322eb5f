"""Programs as flat sequences of instructions and literals, with a
parenthesized text form.

The text format is a whitespace-separated token list wrapped in parentheses,
e.g. ``(3 2 integer.+)``. ``true``/``false`` are boolean literals, integer
tokens are integer literals and any other numeric token is a float literal.
Nested sublists are accepted on input and flattened depth-first; the
canonical printed form is always a single flat list.

A program holds only registered instruction names and finite literals:
every item is a ``str``, ``int``, ``float`` or ``bool``. Parsed programs
have no length limit: genome length is an evolution setting
(``EvolutionConfig.size_limit``), and the run time of a move is bounded by
its execution limit, not by the program's length.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .interpreter import REGISTRY, resolve_plan

_INT_TOKEN = re.compile(r"[+-]?[0-9]+\Z")
_ITEM_TYPES = frozenset((str, int, float, bool))


class ProgramError(ValueError):
    pass


@dataclass(frozen=True)
class Program:
    """An immutable linear genome of instruction names and literals.

    Every item is a ``str`` naming a registered instruction, or an
    ``int``, ``float`` or ``bool``, so a tuple on the exec stack is always a
    group a loop instruction built. Float literals must be finite, as on
    every stack the program runs on.
    """

    items: tuple = ()

    def __post_init__(self):
        for item in self.items:
            if isinstance(item, float) and not math.isfinite(item):
                raise ProgramError(f"non-finite literal: {item!r}")
            if type(item) not in _ITEM_TYPES:
                raise ProgramError(f"not an instruction name or literal: {item!r}")
            if type(item) is str and item not in REGISTRY:
                raise ProgramError(f"unknown instruction: {item}")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __str__(self) -> str:
        return print_program(self)

    def __reduce__(self):
        # The cached plan holds instruction closures, which do not pickle;
        # a copy resolves its own plan and tail.
        return (Program, (self.items,))

    @cached_property
    def plan(self) -> tuple:
        """The straight-line prefix ``run_move`` runs without the exec
        stack (see ``interpreter.resolve_plan``); resolved on first use."""
        return resolve_plan(self.items)

    @cached_property
    def tail(self) -> tuple:
        """The items after the plan, reversed: what ``run_move`` loads onto
        the exec stack when the whole plan ran."""
        return self.items[len(self.plan) :][::-1]


def format_item(item) -> str:
    kind = type(item)
    if kind is str:
        return item
    if kind is bool:
        return "true" if item else "false"
    return repr(item)


def print_program(program: Program) -> str:
    """Canonical single-line text form; ``parse_program`` inverts it."""
    return "(" + " ".join(format_item(item) for item in program.items) + ")"


def _classify_token(token: str):
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
        # So is an unknown name.
        return token


def parse_program(text: str) -> Program:
    """Parse a parenthesized expression into a flat Program of any length.

    Raises ProgramError on unbalanced parentheses or unknown instruction
    tokens.
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
            items.append(_classify_token(token))
    if depth != 0:
        raise ProgramError("unbalanced parentheses: missing ')'")
    return Program(tuple(items))


def load_program(path) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())


def save_program(program: Program, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_program(program) + "\n")
