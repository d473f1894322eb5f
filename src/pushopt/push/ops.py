"""The instruction set: every primitive, plus the default enabled set.

Conventions shared by all instructions:

- An instruction only executes when its operand stacks hold enough values;
  otherwise it is a no-op that leaves every stack bit-identical.
- Arithmetic is protected: division or modulo by zero, logarithms of
  non-positive arguments, domain errors in pow, and any non-finite result
  make the instruction a no-op with its operands left in place. Integer
  results are additionally bounded to 64-bit signed range.
- Binary operators follow stack convention: with b on top of a, the result
  is ``a OP b`` (so ``float.-`` computes second minus top).
- Every instruction function returns True if it executed and False if it
  degraded to a no-op.
- Every value on every stack is finite: literals are finite (``Program``
  rejects others), protected arithmetic refuses non-finite results and the
  harness pushes only finite objective values.
- Instructions run under ``interpreter.instruction_errstate``, which
  ``run_with_source`` enters once per run; direct callers of ``run_move``,
  ``step_swarm`` or ``REGISTRY[name]`` enter it themselves. Correctness, not
  only quiet, depends on it: vector arithmetic learns that a result is
  non-finite from the ``FloatingPointError`` the state raises for
  overflow, invalid and divide-by-zero flags. With finite operands, an
  elementwise result is non-finite exactly when one of those flags is
  set; outside the state a non-finite vector would be pushed.
"""

from __future__ import annotations

import math
import operator
from types import FunctionType

import numpy as np

from ..rng import uniform_int
from .state import InterpreterState

INT_LIMIT = 2**63 - 1

# Largest float f for which the wrand interval [-f, f] has a finite width.
_WRAND_LIMIT = math.ldexp(float(np.finfo(np.float64).max), -1)

REGISTRY: dict = {}


class ExecGroup:
    """A grouped continuation on the exec stack.

    Groups exist only at runtime (loop expansions); they never appear in
    genomes. Executing a group unpacks its items so they run in list order.
    While usage is not counted, a loop whose body cannot see the exec stack
    runs its iterations inside the loop instruction and builds a group only
    when it stops early (see ``_do_range``). Groups compare, hash, print
    and pickle by their items. Instances carry no ``__dict__``: a loop left
    to the exec stack builds one group per iteration.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"ExecGroup(items={self.items!r})"

    def __reduce__(self):
        return (ExecGroup, (self.items,))


def instruction(name, touches_exec=False):
    """Decorator registering an instruction under ``name``.

    ``touches_exec`` marks an instruction that reads or changes the exec
    stack, ``steps_used`` or ``step_limit``; the interpreter runs a
    program's items without an exec stack only up to the first such
    instruction.
    """

    def register(fn):
        fn.push_name = name
        fn.touches_exec = touches_exec
        REGISTRY[name] = fn
        return fn

    return register


def items_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, ExecGroup):
        return len(a.items) == len(b.items) and all(
            items_equal(x, y) for x, y in zip(a.items, b.items)
        )
    return a == b


# ---------------------------------------------------------------------------
# Generic stack manipulation, instantiated for each stack
# ---------------------------------------------------------------------------

_STACK_ATTRS = {
    "boolean": "booleans",
    "integer": "integers",
    "float": "floats",
    "vector": "vectors",
    "exec": "exec",
}


def _make_dup(attr):
    def op(state, ctx):
        stack = getattr(state, attr)
        if not stack:
            return False
        stack.append(stack[-1])
        return True

    return op


def _make_pop(attr):
    def op(state, ctx):
        stack = getattr(state, attr)
        if not stack:
            return False
        stack.pop()
        return True

    return op


def _make_flush(attr):
    def op(state, ctx):
        getattr(state, attr).clear()
        return True

    return op


def _make_swap(attr):
    def op(state, ctx):
        stack = getattr(state, attr)
        if len(stack) < 2:
            return False
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return True

    return op


def _make_rot(attr):
    def op(state, ctx):
        stack = getattr(state, attr)
        if len(stack) < 3:
            return False
        stack.append(stack.pop(-3))
        return True

    return op


def _make_stackdepth(attr):
    def op(state, ctx):
        state.integers.append(len(getattr(state, attr)))
        return True

    return op


def _make_yank(attr, duplicate):
    # Pops an index from the integer stack, then moves (or copies) the item
    # that deep from the top of the target stack to the top. The index is
    # clamped into range.
    def op(state, ctx):
        ints = state.integers
        stack = getattr(state, attr)
        need = 2 if stack is ints else 1
        if not ints or len(stack) < need:
            return False
        index = ints.pop()
        top = len(stack) - 1
        if index < 0:
            index = 0
        elif index > top:
            index = top
        pos = top - index
        if duplicate:
            stack.append(stack[pos])
        else:
            stack.append(stack.pop(pos))
        return True

    return op


def _make_shove(attr):
    # Pops an index from the integer stack, then moves the top item of the
    # target stack so that it sits that deep from the top (clamped).
    def op(state, ctx):
        ints = state.integers
        stack = getattr(state, attr)
        need = 2 if stack is ints else 1
        if not ints or len(stack) < need:
            return False
        index = ints.pop()
        top = len(stack) - 1
        if index < 0:
            index = 0
        elif index > top:
            index = top
        item = stack.pop()
        stack.insert(top - index, item)
        return True

    return op


for _name, _attr in _STACK_ATTRS.items():
    _touches = _attr == "exec"
    instruction(f"{_name}.dup", _touches)(_make_dup(_attr))
    instruction(f"{_name}.pop", _touches)(_make_pop(_attr))
    instruction(f"{_name}.flush", _touches)(_make_flush(_attr))
    instruction(f"{_name}.swap", _touches)(_make_swap(_attr))
    instruction(f"{_name}.rot", _touches)(_make_rot(_attr))
    instruction(f"{_name}.stackdepth", _touches)(_make_stackdepth(_attr))
    instruction(f"{_name}.yank", _touches)(_make_yank(_attr, duplicate=False))
    instruction(f"{_name}.yankdup", _touches)(_make_yank(_attr, duplicate=True))
    instruction(f"{_name}.shove", _touches)(_make_shove(_attr))


@instruction("boolean.rand")
def _boolean_rand(state, ctx):
    state.booleans.append(bool(state.rng.random() < 0.5))
    return True


@instruction("integer.rand")
def _integer_rand(state, ctx):
    lo, hi = INTEGER_RAND
    state.integers.append(uniform_int(state.rng, lo, hi + 1))
    return True


@instruction("float.rand")
def _float_rand(state, ctx):
    # FLOAT_RAND is [0, 1), the range of random() itself.
    state.floats.append(state.rng.random())
    return True


@instruction("vector.rand")
def _vector_rand(state, ctx):
    state.vectors.append(state.rng.uniform(*VECTOR_RAND, state.dim))
    return True


# ---------------------------------------------------------------------------
# Boolean instructions
# ---------------------------------------------------------------------------


def _boolean_binary(name, fn):
    @instruction(name)
    def op(state, ctx):
        bs = state.booleans
        if len(bs) < 2:
            return False
        b = bs.pop()
        a = bs.pop()
        bs.append(fn(a, b))
        return True

    return op


_boolean_binary("boolean.=", operator.eq)
_boolean_binary("boolean.and", operator.and_)
_boolean_binary("boolean.or", operator.or_)
_boolean_binary("boolean.xor", operator.ne)


@instruction("boolean.not")
def _boolean_not(state, ctx):
    bs = state.booleans
    if not bs:
        return False
    bs.append(not bs.pop())
    return True


@instruction("boolean.fromfloat")
def _boolean_fromfloat(state, ctx):
    if not state.floats:
        return False
    state.booleans.append(state.floats.pop() != 0.0)
    return True


@instruction("boolean.frominteger")
def _boolean_frominteger(state, ctx):
    if not state.integers:
        return False
    state.booleans.append(state.integers.pop() != 0)
    return True


# ---------------------------------------------------------------------------
# Float instructions
# ---------------------------------------------------------------------------


def _float_binary(name, fn):
    @instruction(name)
    def op(state, ctx):
        fs = state.floats
        if len(fs) < 2:
            return False
        b = fs[-1]
        a = fs[-2]
        try:
            r = fn(a, b)
        except (ValueError, OverflowError, ZeroDivisionError):
            return False
        if not math.isfinite(r):
            return False
        fs.pop()
        fs.pop()
        fs.append(float(r))
        return True

    return op


def _float_unary(name, fn):
    @instruction(name)
    def op(state, ctx):
        fs = state.floats
        if not fs:
            return False
        try:
            r = fn(fs[-1])
        except (ValueError, OverflowError, ZeroDivisionError):
            return False
        if not math.isfinite(r):
            return False
        fs[-1] = float(r)
        return True

    return op


def _float_compare(name, fn):
    @instruction(name)
    def op(state, ctx):
        fs = state.floats
        if len(fs) < 2:
            return False
        b = fs.pop()
        a = fs.pop()
        state.booleans.append(fn(a, b))
        return True

    return op


_float_binary("float.+", operator.add)
_float_binary("float.-", operator.sub)
_float_binary("float.*", operator.mul)
_float_binary("float./", operator.truediv)
_float_binary("float.%", math.fmod)
_float_binary("float.pow", math.pow)
_float_binary("float.max", max)
_float_binary("float.min", min)
_float_compare("float.<", operator.lt)
_float_compare("float.>", operator.gt)
_float_compare("float.=", operator.eq)  # exact comparison by convention
_float_unary("float.abs", abs)
_float_unary("float.neg", operator.neg)
_float_unary("float.sin", math.sin)
_float_unary("float.cos", math.cos)
_float_unary("float.tan", math.tan)
_float_unary("float.exp", math.exp)
_float_unary("float.ln", math.log)
_float_unary("float.log", math.log10)


@instruction("float.fromboolean")
def _float_fromboolean(state, ctx):
    if not state.booleans:
        return False
    state.floats.append(1.0 if state.booleans.pop() else 0.0)
    return True


@instruction("float.frominteger")
def _float_frominteger(state, ctx):
    if not state.integers:
        return False
    state.floats.append(float(state.integers.pop()))
    return True


# ---------------------------------------------------------------------------
# Integer instructions
# ---------------------------------------------------------------------------


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a, b):
    # Remainder matching truncated division: a == trunc(a/b) * b + r.
    return a - _trunc_div(a, b) * b


def _int_binary(name, fn):
    @instruction(name)
    def op(state, ctx):
        ints = state.integers
        if len(ints) < 2:
            return False
        b = ints[-1]
        a = ints[-2]
        try:
            r = fn(a, b)
        except (ValueError, OverflowError, ZeroDivisionError):
            return False
        r = int(r)
        if abs(r) > INT_LIMIT:
            return False
        ints.pop()
        ints.pop()
        ints.append(r)
        return True

    return op


def _int_compare(name, fn):
    @instruction(name)
    def op(state, ctx):
        ints = state.integers
        if len(ints) < 2:
            return False
        b = ints.pop()
        a = ints.pop()
        state.booleans.append(fn(a, b))
        return True

    return op


def _int_pow(a, b):
    r = math.pow(a, b)
    if not math.isfinite(r):
        raise OverflowError
    return math.trunc(r)


_int_binary("integer.+", operator.add)
_int_binary("integer.-", operator.sub)
_int_binary("integer.*", operator.mul)
_int_binary("integer./", _trunc_div)
_int_binary("integer.%", _trunc_mod)
_int_binary("integer.pow", _int_pow)
_int_binary("integer.max", max)
_int_binary("integer.min", min)
_int_compare("integer.<", operator.lt)
_int_compare("integer.>", operator.gt)
_int_compare("integer.=", operator.eq)


@instruction("integer.abs")
def _integer_abs(state, ctx):
    ints = state.integers
    if not ints:
        return False
    ints[-1] = abs(ints[-1])
    return True


@instruction("integer.neg")
def _integer_neg(state, ctx):
    ints = state.integers
    if not ints:
        return False
    ints[-1] = -ints[-1]
    return True


def _int_log(name, base_log):
    # Truncated logarithm of a positive integer.
    @instruction(name)
    def op(state, ctx):
        ints = state.integers
        if not ints or ints[-1] <= 0:
            return False
        ints[-1] = math.trunc(base_log(ints[-1]))
        return True

    return op


_int_log("integer.ln", math.log)
_int_log("integer.log", math.log10)


@instruction("integer.fromboolean")
def _integer_fromboolean(state, ctx):
    if not state.booleans:
        return False
    state.integers.append(1 if state.booleans.pop() else 0)
    return True


@instruction("integer.fromfloat")
def _integer_fromfloat(state, ctx):
    fs = state.floats
    if not fs:
        return False
    r = math.trunc(fs[-1])
    if abs(r) > INT_LIMIT:
        return False
    fs.pop()
    state.integers.append(r)
    return True


# ---------------------------------------------------------------------------
# Exec instructions
# ---------------------------------------------------------------------------


@instruction("exec.noop")
def _exec_noop(state, ctx):
    return True


@instruction("exec.=", touches_exec=True)
def _exec_eq(state, ctx):
    ex = state.exec
    if len(ex) < 2:
        return False
    a = ex.pop()
    b = ex.pop()
    state.booleans.append(items_equal(a, b))
    return True


@instruction("exec.if", touches_exec=True)
def _exec_if(state, ctx):
    if not state.booleans or len(state.exec) < 2:
        return False
    condition = state.booleans.pop()
    first = state.exec.pop()
    second = state.exec.pop()
    state.exec.append(first if condition else second)
    return True


@instruction("exec.iflt", touches_exec=True)
def _exec_iflt(state, ctx):
    # Branch on second < top of the float stack.
    if len(state.floats) < 2 or len(state.exec) < 2:
        return False
    b = state.floats.pop()
    a = state.floats.pop()
    first = state.exec.pop()
    second = state.exec.pop()
    state.exec.append(first if a < b else second)
    return True


def _body_plan(body):
    """The plan of a loop body that cannot see the exec stack, or None.

    A plain body is a literal, a name registered to a plain function that
    is not ``touches_exec``, or a group of such items; a nested group is
    not plain.
    """
    items = body.items if type(body) is ExecGroup else (body,)
    plan = _interpreter.resolve_plan(items)
    return plan if len(plan) == len(items) else None


def _do_range(state, ctx, current, dest, body):
    # One entry of exec.do*range at index ``current``. Through the exec
    # stack an iteration is the body, the unpack of the continuation group,
    # its two integer literals and the re-entry. A plain body cannot see the
    # exec stack, so while usage is not counted and a whole iteration fits
    # in the step limit it runs here with the same steps and stacks;
    # otherwise the continuation group and the body go on the exec stack,
    # where the loop counts their usage.
    ints = state.integers
    ex = state.exec
    ints.append(current)
    if current != dest:
        step = 1 if dest > current else -1
        plan = _body_plan(body) if state.usage is None else None
        if plan is not None:
            unpack = 1 if type(body) is ExecGroup else 0
            cost = unpack + len(plan) + 4
            steps = state.steps_used
            limit = state.step_limit
            run_steps = _interpreter.run_steps
            body_steps = iter(())
            try:
                while steps + cost <= limit:
                    body_steps = iter(plan)
                    run_steps(state, ctx, body_steps)
                    steps += cost
                    current += step
                    ints.append(current)
                    if current == dest:
                        break
            except BaseException:
                # As the loop leaves it: the raising item is charged a step,
                # and the continuation and the group's unrun items stay on
                # the exec stack.
                ran = len(plan) - operator.length_hint(body_steps)
                state.steps_used = steps + unpack + ran
                ex.append(ExecGroup((current + step, dest, "exec.do*range", body)))
                if unpack:
                    ex.extend(reversed(body.items[ran:]))
                raise
            state.steps_used = steps
    if current == dest:
        ex.append(body)
    else:
        ex.append(ExecGroup((current + step, dest, "exec.do*range", body)))
        ex.append(body)
    return True


def _enter_loop(state, ctx, n, body):
    # exec.do*count and exec.do*times: while usage is not counted, the loop
    # group's unpack, its two literals and the first re-entry run at once
    # when those 4 steps fit.
    if state.usage is not None or state.steps_used + 4 > state.step_limit:
        state.exec.append(ExecGroup((0, n - 1, "exec.do*range", body)))
        return True
    state.steps_used += 4
    return _do_range(state, ctx, 0, n - 1, body)


@instruction("exec.do*range", touches_exec=True)
def _exec_do_range(state, ctx):
    # Top integer is the destination index, second the current index. The
    # body (next exec item) runs once per index with the index pushed to the
    # integer stack; re-entry is a grouped continuation on the exec stack,
    # or an iteration run in place that is charged the same (_do_range).
    if len(state.integers) < 2 or not state.exec:
        return False
    dest = state.integers.pop()
    current = state.integers.pop()
    return _do_range(state, ctx, current, dest, state.exec.pop())


@instruction("exec.do*count", touches_exec=True)
def _exec_do_count(state, ctx):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    return _enter_loop(state, ctx, ints.pop(), state.exec.pop())


@instruction("exec.do*times", touches_exec=True)
def _exec_do_times(state, ctx):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    hidden = ExecGroup(("integer.pop", state.exec.pop()))
    return _enter_loop(state, ctx, ints.pop(), hidden)


# ---------------------------------------------------------------------------
# Input instructions
# ---------------------------------------------------------------------------


def push_value(state: InterpreterState, value) -> None:
    """Push a value onto the stack matching its type."""
    if type(value) is bool:
        state.booleans.append(value)
    elif type(value) is int:
        state.integers.append(value)
    elif type(value) is float:
        state.floats.append(value)
    elif isinstance(value, np.ndarray):
        state.vectors.append(value)
    else:
        raise TypeError(f"cannot push value of type {type(value).__name__}")


@instruction("input.inall")
def _input_inall(state, ctx):
    if not state.inputs:
        return False
    for value in state.inputs:
        push_value(state, value)
    return True


@instruction("input.inallrev")
def _input_inallrev(state, ctx):
    if not state.inputs:
        return False
    for value in reversed(state.inputs):
        push_value(state, value)
    return True


@instruction("input.index")
def _input_index(state, ctx):
    if not state.integers or not state.inputs:
        return False
    index = state.integers.pop()
    push_value(state, state.inputs[index % len(state.inputs)])
    return True


@instruction("input.stackdepth")
def _input_stackdepth(state, ctx):
    state.integers.append(len(state.inputs))
    return True


# ---------------------------------------------------------------------------
# Vector instructions
# ---------------------------------------------------------------------------


def _vector_pairwise(name, fn):
    @instruction(name)
    def op(state, ctx):
        vs = state.vectors
        if len(vs) < 2:
            return False
        try:
            r = fn(vs[-2], vs[-1])
        except FloatingPointError:
            return False
        vs.pop()
        vs.pop()
        vs.append(r)
        return True

    return op


_vector_pairwise("vector.+", operator.add)
_vector_pairwise("vector.-", operator.sub)
_vector_pairwise("vector.*", operator.mul)
_vector_pairwise("vector./", operator.truediv)


@instruction("vector.scale")
def _vector_scale(state, ctx):
    if not state.vectors or not state.floats:
        return False
    try:
        r = state.vectors[-1] * state.floats[-1]
    except FloatingPointError:
        return False
    state.vectors.pop()
    state.floats.pop()
    state.vectors.append(r)
    return True


@instruction("vector.dprod")
def _vector_dprod(state, ctx):
    vs = state.vectors
    if len(vs) < 2:
        return False
    # Not every numpy release sets the flags in dot, so the scalar is
    # checked as well. For length-1 vectors dot returns the lone product,
    # which may be -0.0 where matmul's sum from 0.0 gives 0.0; adding 0.0
    # gives matmul's bits.
    try:
        r = float(vs[-2].dot(vs[-1])) + 0.0
    except FloatingPointError:
        return False
    if not math.isfinite(r):
        return False
    vs.pop()
    vs.pop()
    state.floats.append(r)
    return True


@instruction("vector.mag")
def _vector_mag(state, ctx):
    vs = state.vectors
    if not vs:
        return False
    v = vs[-1]
    try:
        r = math.sqrt(v.dot(v))
    except FloatingPointError:
        return False
    if not math.isfinite(r):
        return False
    vs.pop()
    state.floats.append(r)
    return True


def _vector_dim(name, fn):
    # Modify one component, selected by the integer index modulo dim.
    @instruction(name)
    def op(state, ctx):
        if not state.vectors or not state.floats or not state.integers:
            return False
        index = state.integers[-1] % state.dim
        c = fn(state.vectors[-1].item(index), state.floats[-1])
        if not math.isfinite(c):
            return False
        r = state.vectors[-1].copy()
        r[index] = c
        state.integers.pop()
        state.floats.pop()
        state.vectors[-1] = r
        return True

    return op


_vector_dim("vector.dim+", operator.add)
_vector_dim("vector.dim*", operator.mul)


@instruction("vector.between")
def _vector_between(state, ctx):
    # Point on the line through the two top vectors at parameter t (popped
    # from the float stack); t outside [0, 1] extrapolates the line.
    vs = state.vectors
    if len(vs) < 2 or not state.floats:
        return False
    t = state.floats[-1]
    b = vs[-1]
    a = vs[-2]
    try:
        r = a + t * (b - a)
    except FloatingPointError:
        return False
    state.floats.pop()
    vs.pop()
    vs.pop()
    vs.append(r)
    return True


@instruction("vector.urand")
def _vector_urand(state, ctx):
    norm = 0.0
    while norm == 0.0:
        g = state.rng.normal(size=state.dim)
        norm = math.sqrt(g.dot(g))
    state.vectors.append(g / norm)
    return True


@instruction("vector.wrand")
def _vector_wrand(state, ctx):
    # Random vector with every component in [-f, f], f popped from floats.
    if not state.floats:
        return False
    f = abs(state.floats[-1])
    if f > _WRAND_LIMIT:
        return False
    state.floats.pop()
    state.vectors.append(state.rng.uniform(-f, f, state.dim))
    return True


def _vector_lookup(name, source):
    # Fetch another member's current or best point; an empty integer stack
    # or a negative index resolves to the executing member itself.
    def op(state, ctx):
        if ctx is None:
            return False
        index = None
        if state.integers:
            index = state.integers.pop()
        target = ctx.resolve(index)
        state.vectors.append(getattr(ctx, source)[target])
        return True

    return instruction(name)(op)


_vector_lookup("vector.current", "currents")
_vector_lookup("vector.best", "bests")


@instruction("vector.apply", touches_exec=True)
def _vector_apply(state, ctx):
    # Run the next exec item once per component: the component is pushed to
    # the float stack before the body and the result popped afterwards. A
    # component is left unchanged when its body run leaves the float stack
    # empty or never runs because the step limit was reached.
    if not state.vectors or not state.exec:
        return False
    run_single_item = _interpreter.run_single_item
    body = state.exec.pop()
    v = state.vectors.pop()
    floats = state.floats
    out = []
    for c in v.tolist():
        if state.steps_used < state.step_limit:
            floats.append(c)
            run_single_item(state, ctx, body)
            if floats:
                c = floats.pop()
        out.append(c)
    state.vectors.append(np.array(out, dtype=v.dtype))
    return True


@instruction("vector.zip", touches_exec=True)
def _vector_zip(state, ctx):
    # As vector.apply, but over pairs of components of the two top vectors.
    if len(state.vectors) < 2 or not state.exec:
        return False
    run_single_item = _interpreter.run_single_item
    body = state.exec.pop()
    b = state.vectors.pop()
    a = state.vectors.pop()
    floats = state.floats
    out = []
    for c, d in zip(a.tolist(), b.tolist()):
        if state.steps_used < state.step_limit:
            floats.append(c)
            floats.append(d)
            run_single_item(state, ctx, body)
            if floats:
                c = floats.pop()
        out.append(c)
    state.vectors.append(np.array(out, dtype=a.dtype))
    return True


# ---------------------------------------------------------------------------
# The enabled instruction set
# ---------------------------------------------------------------------------

# Ephemeral-random-constant markers: drawn during program generation and
# frozen into literals; they are not executable instructions.
ERC_MARKERS = ("boolean.erc", "float.erc", "integer.erc")

# The ranges of the random-value instructions and of the ephemeral random
# constants; boolean.rand and boolean.erc are fair coin flips. Integer
# ranges include both ends; float ranges are half-open, [low, high).
FLOAT_RAND = (0.0, 1.0)
INTEGER_RAND = (-10, 10)
VECTOR_RAND = (-1.0, 1.0)
FLOAT_ERC = (-1.0, 1.0)
INTEGER_ERC = (-10, 10)


def default_instruction_set() -> tuple:
    """Every registered instruction, in registration order."""
    return tuple(REGISTRY)


class InstructionSet:
    """An ordered subset of the registry used for parsing and generation."""

    def __init__(self, names=None):
        if names is None:
            names = default_instruction_set()
        # str() turns numpy string names into the str items the interpreter
        # runs.
        names = tuple(str(n) for n in names)
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown instructions: {', '.join(unknown)}")
        self.names = names
        self._members = frozenset(names)

    def __contains__(self, name) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self.names)

    def generation_pool(self) -> tuple:
        """Items drawn from during random program generation."""
        return self.names + ERC_MARKERS


DEFAULT_INSTRUCTION_SET = InstructionSet()


# Imported last: the interpreter module imports this one, and is always
# imported first (the package imports it before this module).
from . import interpreter as _interpreter  # noqa: E402
