"""The instruction set: every primitive, plus the default enabled set.

Each instruction is registered in ``interpreter.REGISTRY`` where this module
defines it, and that order is the order of the default instruction set,
which random genomes index into: moving a registration, even one made
through a factory defined earlier, changes what every seed evolves.

Conventions shared by all instructions:

- An instruction only executes when its operand stacks hold enough values;
  otherwise it is a no-op that leaves every stack bit-identical.
- Arithmetic is protected: division or modulo by zero, logarithms of
  non-positive arguments, domain errors in pow, and any non-finite result
  make the instruction a no-op with its operands left in place. Integer
  results are additionally bounded to 64-bit signed range.
- Binary operators follow stack convention: with b on top of a, the result
  is ``a OP b`` (so ``float.-`` computes second minus top).
- Every instruction function takes the interpreter state alone and
  returns True if it executed and False if it degraded to a no-op. It never
  raises, so the interpreter neither guards nor undoes a call.
- Every value on every stack is finite: literals are finite (``Program``
  rejects others), protected arithmetic refuses non-finite results and the
  harness pushes only finite objective values.
- The exec stack holds instruction names, literals and groups: tuples of
  items that the loop instructions build as continuations (see
  ``interpreter``).
- Instructions run under ``interpreter.instruction_errstate`` (see there),
  whose ``FloatingPointError`` tells vector arithmetic that a result is
  not finite: with finite operands, an elementwise result is non-finite
  exactly when the state raises.
"""

from __future__ import annotations

import math
import operator
from types import FunctionType

import numpy as np

from ..rng import uniform_int
from .interpreter import REGISTRY, _run_exec, instruction, resolve_plan, run_steps
from .state import InterpreterState

INT_LIMIT = 2**63 - 1

# Largest float f for which the wrand interval [-f, f] has a finite width.
_WRAND_LIMIT = math.ldexp(float(np.finfo(np.float64).max), -1)


def items_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(items_equal(x, y) for x, y in zip(a, b))
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
    def op(state):
        stack = getattr(state, attr)
        if not stack:
            return False
        stack.append(stack[-1])
        return True

    return op


def _make_pop(attr):
    def op(state):
        stack = getattr(state, attr)
        if not stack:
            return False
        stack.pop()
        return True

    return op


def _make_flush(attr):
    def op(state):
        getattr(state, attr).clear()
        return True

    return op


def _make_swap(attr):
    def op(state):
        stack = getattr(state, attr)
        if len(stack) < 2:
            return False
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return True

    return op


def _make_rot(attr):
    def op(state):
        stack = getattr(state, attr)
        if len(stack) < 3:
            return False
        stack.append(stack.pop(-3))
        return True

    return op


def _make_stackdepth(attr):
    def op(state):
        state.integers.append(len(getattr(state, attr)))
        return True

    return op


def _make_yank(attr, duplicate):
    # Pops an index from the integer stack, then moves (or copies) the item
    # that deep from the top of the target stack to the top. The index is
    # clamped into range.
    def op(state):
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
    def op(state):
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
def _boolean_rand(state):
    state.booleans.append(bool(state.rng.random() < 0.5))
    return True


@instruction("integer.rand")
def _integer_rand(state):
    lo, hi = INTEGER_RAND
    state.integers.append(uniform_int(state.rng, lo, hi + 1))
    return True


@instruction("float.rand")
def _float_rand(state):
    # FLOAT_RAND is [0, 1), the range of random() itself.
    state.floats.append(state.rng.random())
    return True


@instruction("vector.rand")
def _vector_rand(state):
    state.vectors.append(state.rng.uniform(*VECTOR_RAND, state.dim))
    return True


# ---------------------------------------------------------------------------
# Boolean instructions
# ---------------------------------------------------------------------------


def _compare(name, stack, fn):
    @instruction(name)
    def op(state):
        values = getattr(state, stack)
        if len(values) < 2:
            return False
        b = values.pop()
        a = values.pop()
        state.booleans.append(fn(a, b))
        return True

    return op


def _convert(name, source, target, fn):
    @instruction(name)
    def op(state):
        values = getattr(state, source)
        if not values:
            return False
        getattr(state, target).append(fn(values.pop()))
        return True

    return op


_compare("boolean.=", "booleans", operator.eq)
_compare("boolean.and", "booleans", operator.and_)
_compare("boolean.or", "booleans", operator.or_)
_compare("boolean.xor", "booleans", operator.ne)
_convert("boolean.not", "booleans", "booleans", operator.not_)
_convert("boolean.fromfloat", "floats", "booleans", bool)
_convert("boolean.frominteger", "integers", "booleans", bool)


# ---------------------------------------------------------------------------
# Float instructions
# ---------------------------------------------------------------------------


def _float_binary(name, fn):
    @instruction(name)
    def op(state):
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
    def op(state):
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


_float_binary("float.+", operator.add)
_float_binary("float.-", operator.sub)
_float_binary("float.*", operator.mul)
_float_binary("float./", operator.truediv)
_float_binary("float.%", math.fmod)
_float_binary("float.pow", math.pow)
_float_binary("float.max", max)
_float_binary("float.min", min)
_compare("float.<", "floats", operator.lt)
_compare("float.>", "floats", operator.gt)
_compare("float.=", "floats", operator.eq)  # exact comparison by convention
_float_unary("float.abs", abs)
_float_unary("float.neg", operator.neg)
_float_unary("float.sin", math.sin)
_float_unary("float.cos", math.cos)
_float_unary("float.tan", math.tan)
_float_unary("float.exp", math.exp)
_float_unary("float.ln", math.log)
_float_unary("float.log", math.log10)


_convert("float.fromboolean", "booleans", "floats", float)
_convert("float.frominteger", "integers", "floats", float)


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
    def op(state):
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
_compare("integer.<", "integers", operator.lt)
_compare("integer.>", "integers", operator.gt)
_compare("integer.=", "integers", operator.eq)
_convert("integer.abs", "integers", "integers", abs)
_convert("integer.neg", "integers", "integers", operator.neg)


def _int_log(name, base_log):
    # Truncated logarithm of a positive integer.
    @instruction(name)
    def op(state):
        ints = state.integers
        if not ints or ints[-1] <= 0:
            return False
        ints[-1] = math.trunc(base_log(ints[-1]))
        return True

    return op


_int_log("integer.ln", math.log)
_int_log("integer.log", math.log10)


_convert("integer.fromboolean", "booleans", "integers", int)


@instruction("integer.fromfloat")
def _integer_fromfloat(state):
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
def _exec_noop(state):
    return True


@instruction("exec.=", touches_exec=True)
def _exec_eq(state):
    ex = state.exec
    if len(ex) < 2:
        return False
    a = ex.pop()
    b = ex.pop()
    state.booleans.append(items_equal(a, b))
    return True


def _exec_branch(name, stack, arity, test):
    # Pops ``arity`` values of ``stack`` and the two top exec items, then
    # puts back the top item when ``test`` of the values (deepest first)
    # holds and the one below it otherwise.
    @instruction(name, touches_exec=True)
    def op(state):
        values = getattr(state, stack)
        ex = state.exec
        if len(values) < arity or len(ex) < 2:
            return False
        args = values[-arity:]
        del values[-arity:]
        first = ex.pop()
        second = ex.pop()
        ex.append(first if test(*args) else second)
        return True

    return op


_exec_branch("exec.if", "booleans", 1, bool)
_exec_branch("exec.iflt", "floats", 2, operator.lt)  # second < top


def _body_plan(body):
    """The plan of a loop body that cannot see the exec stack, or None.

    A plain body is a literal, a name registered to a plain function that
    is not ``touches_exec``, or a group of such items; a nested group is
    not plain.
    """
    items = body if type(body) is tuple else (body,)
    plan = resolve_plan(items)
    return plan if len(plan) == len(items) else None


@instruction("exec.do*range", touches_exec=True)
def _exec_do_range(state):
    # Top integer is the destination index, second the current index. The
    # body (next exec item) runs once per index with the index pushed to the
    # integer stack. Re-entry is a continuation group on the exec stack, so
    # an iteration is the body, the group's unpack, its two integer literals
    # and the re-entry. A plain body cannot see the exec stack, so while a
    # whole iteration fits in the step limit it runs here with the same
    # steps and stacks, standing for a re-entry into this function; hence
    # only while this function is registered (``counting`` must see each
    # re-entry, also of a literal-only body).
    ints = state.integers
    ex = state.exec
    if len(ints) < 2 or not ex:
        return False
    dest = ints.pop()
    current = ints[-1]
    body = ex.pop()
    if current != dest:
        step = 1 if dest > current else -1
        plan = _body_plan(body) if REGISTRY["exec.do*range"] is _exec_do_range else None
        if plan is not None:
            cost = len(plan) + 4 + (1 if type(body) is tuple else 0)
            steps = state.steps_used
            limit = state.step_limit
            while steps + cost <= limit:
                run_steps(state, plan)
                steps += cost
                current += step
                ints.append(current)
                if current == dest:
                    break
            state.steps_used = steps
    if current == dest:
        ex.append(body)
    else:
        ex.append((current + step, dest, "exec.do*range", body))
        ex.append(body)
    return True


@instruction("exec.do*count", touches_exec=True)
def _exec_do_count(state):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    state.exec.append((0, ints.pop() - 1, "exec.do*range", state.exec.pop()))
    return True


@instruction("exec.do*times", touches_exec=True)
def _exec_do_times(state):
    ints = state.integers
    if not ints or not state.exec or ints[-1] <= 0:
        return False
    hidden = ("integer.pop", state.exec.pop())
    state.exec.append((0, ints.pop() - 1, "exec.do*range", hidden))
    return True


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


def _input_all(name, order):
    @instruction(name)
    def op(state):
        if not state.inputs:
            return False
        for value in order(state.inputs):
            push_value(state, value)
        return True

    return op


_input_all("input.inall", iter)
_input_all("input.inallrev", reversed)


@instruction("input.index")
def _input_index(state):
    if not state.integers or not state.inputs:
        return False
    index = state.integers.pop()
    push_value(state, state.inputs[index % len(state.inputs)])
    return True


@instruction("input.stackdepth")
def _input_stackdepth(state):
    state.integers.append(len(state.inputs))
    return True


# ---------------------------------------------------------------------------
# Vector instructions
# ---------------------------------------------------------------------------


def _vector_pairwise(name, fn):
    @instruction(name)
    def op(state):
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
def _vector_scale(state):
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
def _vector_dprod(state):
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
def _vector_mag(state):
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
    def op(state):
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
def _vector_between(state):
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
def _vector_urand(state):
    norm = 0.0
    while norm == 0.0:
        g = state.rng.normal(size=state.dim)
        norm = math.sqrt(g.dot(g))
    state.vectors.append(g / norm)
    return True


@instruction("vector.wrand")
def _vector_wrand(state):
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
    def op(state):
        if state.ctx is None:
            return False
        index = None
        if state.integers:
            index = state.integers.pop()
        target = state.ctx.resolve(index)
        state.vectors.append(getattr(state.ctx, source)[target])
        return True

    return instruction(name)(op)


_vector_lookup("vector.current", "currents")
_vector_lookup("vector.best", "bests")


def _vector_map(name, arity):
    # Run the next exec item once per component of the top ``arity``
    # vectors: the components, the deepest vector's first, are pushed to the
    # float stack before the body and the result popped afterwards. The
    # deepest vector's component is kept when its body run leaves the float
    # stack empty or never runs because the step limit was reached.
    #
    # Each body run is that of ``[body]`` on a private exec stack, on the
    # move's shared step budget. A body naming a plain function runs as one
    # step without the loop; one flagged ``touches_exec`` sees the empty
    # private stack, and what it leaves there runs through the loop. Other
    # bodies, names registered to anything but a plain function among them
    # (such as the wrappers of ``counting``), run through the loop. A run
    # ends with the private stack empty or the step limit reached, so every
    # run starts on an empty one.
    @instruction(name, touches_exec=True)
    def op(state):
        vs = state.vectors
        if len(vs) < arity or not state.exec:
            return False
        body = state.exec.pop()
        operands = vs[-arity:]
        del vs[-arity:]
        fn = REGISTRY[body] if type(body) is str else None
        direct = type(fn) is FunctionType
        floats = state.floats
        saved = state.exec
        state.exec = private = []
        out = []
        for components in zip(*[v.tolist() for v in operands]):
            c = components[0]
            if state.steps_used < state.step_limit:
                floats.extend(components)
                if direct:
                    state.steps_used += 1
                    fn(state)
                else:
                    private.append(body)
                if private:
                    _run_exec(state)
                if floats:
                    c = floats.pop()
            out.append(c)
        state.exec = saved
        vs.append(np.array(out, dtype=operands[0].dtype))
        return True

    return op


_vector_map("vector.apply", 1)
_vector_map("vector.zip", 2)


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
        if not names:
            raise ValueError("an instruction set needs at least one instruction")
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
