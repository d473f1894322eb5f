from contextlib import nullcontext

import numpy as np
import pytest

import pushopt.push
from pushopt.push import REGISTRY, Program, counting, instruction_errstate, parse_program, run_move

from conftest import fresh_state


@pytest.fixture(autouse=True)
def _errstate():
    # run_move leaves the instruction error state to its caller, as
    # run_with_source enters it once around all of its moves.
    with instruction_errstate():
        yield


def test_every_exported_name_resolves():
    # A stale entry in __all__ would break "from pushopt.push import *".
    missing = [name for name in pushopt.push.__all__ if not hasattr(pushopt.push, name)]
    assert missing == []


def test_empty_program_leaves_state_unchanged():
    st = fresh_state()
    st.floats.append(1.5)
    before = st.stack_snapshot()
    run_move(st, Program(()))
    assert st.stack_snapshot() == before
    assert st.steps_used == 0


def test_simple_arithmetic_program():
    st = fresh_state()
    run_move(st, parse_program("(3 2 integer.+)"))
    assert st.integers == [5]
    assert st.steps_used == 3  # literals count as executions


def test_stacks_persist_across_moves():
    st = fresh_state()
    run_move(st, parse_program("(1 2)"))
    run_move(st, parse_program("(integer.+)"))
    assert st.integers == [3]


def test_exec_stack_reloaded_each_move():
    # A move that hits the step limit leaves exec items behind; the next
    # move must not resume them.
    st = fresh_state(step_limit=2)
    run_move(st, parse_program("(1 2 3 4 5)"))
    assert st.integers == [1, 2]
    run_move(st, parse_program("(9)"))
    assert st.integers == [1, 2, 9]


def test_loop_halts_exactly_at_limit():
    # A 500-iteration loop under a limit of 100 counts exactly 100
    # executions, then halts; unbounded execution works through all 500
    # iterations (oracle: body execution count via a run that counts
    # instructions and so re-enters through the exec stack).
    text = "(500 exec.do*times float.rand)"
    for context in (nullcontext(), counting({})):
        with context:
            st = fresh_state(seed=1, step_limit=100)
            run_move(st, parse_program(text))
        assert st.steps_used == 100
        assert len(st.floats) < 500

    unbounded = fresh_state(seed=1, step_limit=10_000_000)
    run_move(unbounded, parse_program(text))
    assert len(unbounded.floats) == 500
    assert unbounded.steps_used > 100
    with counting({}) as usage:
        counted = fresh_state(seed=1, step_limit=10_000_000)
        run_move(counted, parse_program(text))
    assert usage["float.rand"] == 500
    assert counted.floats == unbounded.floats
    assert counted.steps_used == unbounded.steps_used


def test_limit_counts_nested_body_runs():
    # vector.apply runs its body once per component within the same budget
    st = fresh_state(dim=3, step_limit=100)
    st.vectors.append(np.array([1.0, 2.0, 3.0]))
    run_move(st, parse_program("(vector.apply float.neg)"))
    # 1 step for apply + 3 body runs
    assert st.steps_used == 4
    assert st.vectors[-1].tolist() == [-1.0, -2.0, -3.0]


def test_limit_cuts_apply_midway():
    st = fresh_state(dim=3, step_limit=2)
    st.vectors.append(np.array([1.0, 2.0, 3.0]))
    run_move(st, parse_program("(vector.apply float.neg)"))
    assert st.steps_used == 2
    # only the first component's body ran; the rest stay unchanged
    assert st.vectors[-1].tolist() == [-1.0, 2.0, 3.0]


def test_invalid_limit_rejected():
    # The limit is checked when the state is built, not on every move.
    with pytest.raises(ValueError):
        fresh_state(step_limit=0)


def test_state_needs_an_rng():
    # Every draw comes from a seeded stream; there is no unseeded fallback.
    with pytest.raises(TypeError):
        pushopt.push.InterpreterState(dim=2)


def test_usage_tally_counts_instructions_not_literals():
    with counting({}) as usage:
        run_move(fresh_state(), parse_program("(1 2 integer.+ integer.dup)"))
    assert usage == {"integer.+": 1, "integer.dup": 1}


def test_counting_puts_the_registry_back():
    # The same names, in the same order, for the same functions (functions
    # compare by identity): after a normal exit and after an error inside
    # the block.
    before = list(REGISTRY.items())
    with counting({}):
        assert list(REGISTRY) == [name for name, _ in before]
        assert all(REGISTRY[name] is not fn for name, fn in before)
    assert list(REGISTRY.items()) == before
    with pytest.raises(RuntimeError):
        with counting({}):
            raise RuntimeError
    assert list(REGISTRY.items()) == before


def test_run_move_returns_state():
    st = fresh_state()
    assert run_move(st, Program(())) is st
