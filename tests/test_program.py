import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushopt.push import (
    DEFAULT_INSTRUCTION_SET,
    Program,
    ProgramError,
    parse_program,
    print_program,
)

from conftest import EVOLVED_OPTIMISERS


def test_parse_simple_arithmetic():
    program = parse_program("(3 2 integer.+)")
    assert program.items == (3, 2, "integer.+")


def test_parse_evolved_f13_expression_has_nine_items():
    program = parse_program(EVOLVED_OPTIMISERS["F13"])
    assert len(program) == 9


def test_parse_unbalanced_is_error():
    with pytest.raises(ProgramError):
        parse_program("(float.+")


@pytest.mark.parametrize(
    "text",
    [
        "(3 2",
        "3 2)",
        "(3)) ",
        "(3) 2",
        "",
        "x",
        "(no.such.instruction)",
        "(float.erc)",  # generation-time marker, not an instruction
        "(inf)",
        "(nan)",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ProgramError):
        parse_program(text)


@pytest.mark.parametrize("literal", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_program_rejects_non_finite_float_literals(literal):
    # Every stack holds only finite values, so a program may not push others.
    with pytest.raises(ProgramError, match="non-finite literal"):
        Program((literal,))
    with pytest.raises(ProgramError, match="non-finite literal"):
        Program(("float.+", 1.0, literal))


def test_parse_over_size_limit_is_error():
    text = "(" + " ".join(["exec.noop"] * 101) + ")"
    with pytest.raises(ProgramError):
        parse_program(text)
    assert len(parse_program(text, size_limit=101)) == 101


def test_nested_sublists_flatten_depth_first():
    nested = parse_program("((3 2) (integer.+ (4)) 5)")
    flat = parse_program("(3 2 integer.+ 4 5)")
    assert nested == flat


def test_literal_classification():
    program = parse_program("(true false 7 -7 0.5 -1e-3 2.0)")
    assert program.items == (True, False, 7, -7, 0.5, -0.001, 2.0)
    assert type(program.items[0]) is bool
    assert type(program.items[2]) is int
    assert type(program.items[6]) is float


def test_print_boolean_literal():
    assert print_program(Program((True,))) == "(true)"


def test_print_empty_program():
    assert print_program(Program(())) == "()"


@pytest.mark.parametrize("fid", sorted(EVOLVED_OPTIMISERS))
def test_evolved_expressions_round_trip(fid):
    text = EVOLVED_OPTIMISERS[fid]
    program = parse_program(text)
    printed = print_program(program)
    assert parse_program(printed) == program
    # one normalisation reaches a fixed point
    assert print_program(parse_program(printed)) == printed


_literals = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
)
_items = st.one_of(st.sampled_from(DEFAULT_INSTRUCTION_SET.names), _literals)


@settings(max_examples=200)
@given(st.lists(_items, max_size=100))
def test_print_parse_identity(items):
    program = Program(tuple(items))
    assert parse_program(print_program(program)) == program
