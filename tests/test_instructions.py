import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from pushopt.harness import INFEASIBLE
from pushopt.push import (
    DEFAULT_SETTINGS,
    INT_LIMIT,
    REGISTRY,
    ExecGroup,
    InterpreterState,
    PushSettings,
    SwarmContext,
    instruction_errstate,
    parse_program,
    run_move,
)
from pushopt.push.ops import _WRAND_LIMIT, items_equal

from conftest import fresh_state, solo_context


def apply(name, state, ctx=None):
    # Direct instruction calls enter the error state run_move would.
    with instruction_errstate():
        return REGISTRY[name](state, ctx)


# ---------------------------------------------------------------------------
# Generic stack ops
# ---------------------------------------------------------------------------


def test_dup_swap_rot():
    st = fresh_state()
    st.integers.extend([1, 2, 3])
    apply("integer.dup", st)
    assert st.integers == [1, 2, 3, 3]
    apply("integer.swap", st)
    assert st.integers == [1, 2, 3, 3]
    st.integers[-1] = 4
    apply("integer.rot", st)
    assert st.integers == [1, 3, 4, 2]


def test_pop_and_flush():
    st = fresh_state()
    st.floats.extend([1.0, 2.0])
    apply("float.pop", st)
    assert st.floats == [1.0]
    apply("float.flush", st)
    assert st.floats == []


def test_stackdepth_pushes_to_integer_stack():
    st = fresh_state()
    st.floats.extend([0.5, 1.5, 2.5])
    apply("float.stackdepth", st)
    assert st.integers == [3]
    apply("integer.stackdepth", st)
    assert st.integers == [3, 1]


def test_yank_moves_indexed_item_to_top():
    st = fresh_state()
    st.floats.extend([10.0, 20.0, 30.0, 40.0])
    st.integers.append(2)  # depth 2 from the top -> 20.0
    apply("float.yank", st)
    assert st.floats == [10.0, 30.0, 40.0, 20.0]
    assert st.integers == []


def test_yank_clamps_index():
    st = fresh_state()
    st.floats.extend([10.0, 20.0])
    st.integers.append(99)
    apply("float.yank", st)
    assert st.floats == [20.0, 10.0]
    st.integers.append(-5)
    apply("float.yank", st)
    assert st.floats == [20.0, 10.0]


def test_yankdup_copies():
    st = fresh_state()
    st.floats.extend([10.0, 20.0, 30.0])
    st.integers.append(2)
    apply("float.yankdup", st)
    assert st.floats == [10.0, 20.0, 30.0, 10.0]


def test_shove_inserts_at_depth():
    st = fresh_state()
    st.floats.extend([10.0, 20.0, 30.0])
    st.integers.append(2)
    apply("float.shove", st)
    assert st.floats == [30.0, 10.0, 20.0]


def test_integer_yank_uses_index_then_rest():
    st = fresh_state()
    st.integers.extend([10, 20, 30, 1])  # index 1 -> yank 20... over [10, 20, 30]
    apply("integer.yank", st)
    assert st.integers == [10, 30, 20]


def test_self_yank_requires_two_items():
    st = fresh_state()
    st.integers.append(5)
    assert apply("integer.yank", st) is False
    assert st.integers == [5]


def test_rand_instructions_respect_ranges():
    st = fresh_state(dim=4, seed=3)
    for _ in range(200):
        apply("float.rand", st)
        apply("integer.rand", st)
        apply("vector.rand", st)
        apply("boolean.rand", st)
    assert all(0.0 <= f < 1.0 for f in st.floats)
    assert all(-10 <= i <= 10 for i in st.integers)
    assert all(len(v) == 4 and (np.abs(v) <= 1.0).all() for v in st.vectors)


_RAND_SETTINGS = (
    DEFAULT_SETTINGS,
    PushSettings(float_rand=(-3.5, 7.25), vector_rand=(-1e3, 2.5e-3)),
    PushSettings(float_rand=(1e-300, 1e300), vector_rand=(-0.0, 5e-324)),
)


def test_rand_instructions_match_generator_uniform():
    # float.rand, vector.rand and vector.wrand push exactly what
    # Generator.uniform returns from the same stream: the same bits and
    # Python types, drawn in the same order.
    for seed in range(1000):
        for settings in _RAND_SETTINGS:
            for dim in (1, 2, 10, 50):
                ref = np.random.default_rng(seed)
                st = InterpreterState(dim=dim, rng=np.random.default_rng(seed), settings=settings)
                apply("float.rand", st)
                expected = float(ref.uniform(*settings.float_rand))
                assert type(st.floats[0]) is float
                assert struct.pack("<d", st.floats.pop()) == struct.pack("<d", expected)
                apply("vector.rand", st)
                expected = [ref.uniform(*settings.vector_rand, dim)]
                for f in (0.0, 1.0, _WRAND_LIMIT):
                    st.floats.append(f)
                    assert apply("vector.wrand", st) is True
                    expected.append(ref.uniform(-f, f, dim))
                assert len(st.vectors) == len(expected)
                for got, want in zip(st.vectors, expected):
                    assert type(got) is np.ndarray and got.dtype == want.dtype
                    assert got.shape == (dim,) and got.tobytes() == want.tobytes()
                assert st.rng.random() == ref.random()


@pytest.mark.parametrize(
    "lo, hi", [(0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0), (-math.inf, math.inf), (1.0, 0.0)]
)
@pytest.mark.parametrize(
    "name, field", [("float.rand", "float_rand"), ("vector.rand", "vector_rand")]
)
def test_rand_instructions_raise_generator_errors(name, field, lo, hi):
    # A range numpy rejects (a width that is not finite, or negative) raises
    # the error Generator.uniform raises for it.
    with pytest.raises(Exception) as expected:
        np.random.default_rng(0).uniform(lo, hi, None if name == "float.rand" else 3)
    settings = PushSettings(**{field: (lo, hi)})
    st = InterpreterState(dim=3, rng=np.random.default_rng(0), settings=settings)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        apply(name, st)


@pytest.mark.parametrize(
    "lo, hi", [(-10, 10), (0, 2**31), (-(2**63), 2**63 - 1), (5, 5), (5, 4), (0.5, 3.0)]
)
def test_integer_rand_matches_generator_integers(lo, hi):
    # integer.rand pushes int(Generator.integers(lo, hi + 1)) from the same
    # stream, or raises its error.
    settings = PushSettings(integer_rand=(lo, hi))
    for seed in range(50):
        ref = np.random.default_rng(seed)
        st = InterpreterState(dim=2, rng=np.random.default_rng(seed), settings=settings)
        try:
            expected = [int(ref.integers(lo, hi + 1)) for _ in range(5)]
        except Exception as exc:  # compared with the instruction's error
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                apply("integer.rand", st)
            return
        for _ in range(5):
            assert apply("integer.rand", st) is True
        assert [type(i) for i in st.integers] == [int] * 5
        assert st.integers == expected
        assert st.rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# Boolean / float / integer arithmetic
# ---------------------------------------------------------------------------


def test_boolean_logic():
    st = fresh_state()
    st.booleans.extend([True, False])
    apply("boolean.and", st)
    assert st.booleans == [False]
    st.booleans.append(True)
    apply("boolean.or", st)
    assert st.booleans == [True]
    st.booleans.append(True)
    apply("boolean.xor", st)
    assert st.booleans == [False]
    apply("boolean.not", st)
    assert st.booleans == [True]


def test_binary_operand_order_is_second_op_top():
    st = fresh_state()
    st.floats.extend([7.0, 2.0])
    apply("float.-", st)
    assert st.floats == [5.0]
    st.integers.extend([7, 2])
    apply("integer./", st)
    assert st.integers == [3]


def test_comparisons_push_booleans():
    st = fresh_state()
    st.floats.extend([1.0, 2.0])
    apply("float.<", st)
    assert st.booleans == [True] and st.floats == []
    st.integers.extend([5, 5])
    apply("integer.=", st)
    assert st.booleans == [True, True]


def test_float_division_by_zero_is_noop():
    st = fresh_state()
    st.floats.extend([3.0, 0.0])
    assert apply("float./", st) is False
    assert st.floats == [3.0, 0.0]


def test_float_mod_and_pow_protected():
    st = fresh_state()
    st.floats.extend([7.5, 2.0])
    apply("float.%", st)
    assert st.floats == [1.5]
    st.floats.clear()
    st.floats.extend([7.5, 0.0])
    assert apply("float.%", st) is False
    st.floats.clear()
    st.floats.extend([-2.0, 0.5])  # sqrt of a negative
    assert apply("float.pow", st) is False
    assert st.floats == [-2.0, 0.5]


def test_float_overflow_is_noop():
    big = 1e308
    st = fresh_state()
    st.floats.extend([big, big])
    assert apply("float.+", st) is False
    assert st.floats == [big, big]
    st.floats.clear()
    st.floats.append(1000.0)
    assert apply("float.exp", st) is False
    assert st.floats == [1000.0]


def test_float_ln_log_protected():
    st = fresh_state()
    st.floats.append(-1.0)
    assert apply("float.ln", st) is False
    st.floats[-1] = math.e
    apply("float.ln", st)
    assert st.floats[-1] == pytest.approx(1.0)
    st.floats[-1] = 100.0
    apply("float.log", st)
    assert st.floats[-1] == pytest.approx(2.0)


def test_float_trig_and_minmax():
    st = fresh_state()
    st.floats.extend([math.pi / 2])
    apply("float.sin", st)
    assert st.floats[-1] == pytest.approx(1.0)
    st.floats.extend([3.0, -4.0])
    apply("float.max", st)
    assert st.floats[-1] == 3.0
    apply("float.min", st)
    assert st.floats == [pytest.approx(1.0)]


def test_integer_division_truncates_toward_zero():
    st = fresh_state()
    st.integers.extend([-7, 2])
    apply("integer./", st)
    assert st.integers == [-3]
    st.integers.clear()
    st.integers.extend([7, 0])
    assert apply("integer./", st) is False


def test_integer_mod_matches_truncated_division():
    st = fresh_state()
    st.integers.extend([-7, 2])
    apply("integer.%", st)
    assert st.integers == [-1]  # -7 == -3 * 2 + -1
    st.integers.clear()
    st.integers.extend([7, -2])
    apply("integer.%", st)
    assert st.integers == [1]
    st.integers.clear()
    st.integers.extend([7, 0])
    assert apply("integer.%", st) is False


def test_integer_overflow_is_noop():
    st = fresh_state()
    st.integers.extend([INT_LIMIT, 2])
    assert apply("integer.*", st) is False
    assert st.integers == [INT_LIMIT, 2]
    st.integers.clear()
    st.integers.extend([10, 100])
    assert apply("integer.pow", st) is False


def test_integer_ln_log_truncate():
    st = fresh_state()
    st.integers.append(100)
    apply("integer.log", st)
    assert st.integers == [2]
    st.integers[-1] = 0
    assert apply("integer.ln", st) is False


def test_conversions():
    st = fresh_state()
    st.booleans.append(True)
    apply("integer.fromboolean", st)
    assert st.integers == [1]
    apply("float.frominteger", st)
    assert st.floats == [1.0] and st.integers == []
    apply("boolean.fromfloat", st)
    assert st.booleans == [True] and st.floats == []
    st.floats.append(-2.9)
    apply("integer.fromfloat", st)
    assert st.integers == [-2]
    st.integers[-1] = 0
    apply("boolean.frominteger", st)
    assert st.booleans == [True, False]


def test_integer_fromfloat_of_huge_float_is_noop():
    st = fresh_state()
    st.floats.append(1e300)
    assert apply("integer.fromfloat", st) is False
    assert st.floats == [1e300]


# ---------------------------------------------------------------------------
# Vector instructions
# ---------------------------------------------------------------------------


def vecs(st):
    return [v.tolist() for v in st.vectors]


def test_vector_pairwise_arithmetic():
    st = fresh_state()
    st.vectors.append(np.array([1.0, 2.0]))
    st.vectors.append(np.array([3.0, 5.0]))
    apply("vector.-", st)
    assert vecs(st) == [[-2.0, -3.0]]
    st.vectors.append(np.array([2.0, 2.0]))
    apply("vector.*", st)
    assert vecs(st) == [[-4.0, -6.0]]
    st.vectors.append(np.array([4.0, 2.0]))
    apply("vector./", st)
    assert vecs(st) == [[-1.0, -3.0]]


def test_vector_divide_by_zero_component_is_noop():
    st = fresh_state()
    st.vectors.append(np.array([1.0, 2.0]))
    st.vectors.append(np.array([1.0, 0.0]))
    assert apply("vector./", st) is False
    assert vecs(st) == [[1.0, 2.0], [1.0, 0.0]]


def test_vector_mag_is_euclidean_norm():
    st = fresh_state()
    st.vectors.append(np.array([3.0, 4.0]))
    apply("vector.mag", st)
    assert st.floats == [5.0]
    assert st.vectors == []


def test_vector_scale_and_dprod():
    st = fresh_state()
    st.vectors.append(np.array([1.0, -2.0]))
    st.floats.append(2.5)
    apply("vector.scale", st)
    assert vecs(st) == [[2.5, -5.0]] and st.floats == []
    st.vectors.append(np.array([2.0, 1.0]))
    apply("vector.dprod", st)
    assert st.floats == [0.0] and st.vectors == []


def test_vector_between_interpolates_and_extrapolates():
    st = fresh_state()
    st.vectors.append(np.array([0.0, 0.0]))
    st.vectors.append(np.array([2.0, 2.0]))
    st.floats.append(0.5)
    apply("vector.between", st)
    assert vecs(st) == [[1.0, 1.0]]
    st.vectors.clear()
    st.vectors.append(np.array([0.0, 0.0]))
    st.vectors.append(np.array([2.0, 2.0]))
    st.floats.append(2.0)
    apply("vector.between", st)
    assert vecs(st) == [[4.0, 4.0]]


def test_vector_dim_ops_use_modular_index():
    st = fresh_state(dim=3)
    st.vectors.append(np.array([1.0, 2.0, 3.0]))
    st.floats.append(10.0)
    st.integers.append(4)  # 4 mod 3 == 1
    apply("vector.dim+", st)
    assert vecs(st) == [[1.0, 12.0, 3.0]]
    st.floats.append(2.0)
    st.integers.append(-1)  # -1 mod 3 == 2
    apply("vector.dim*", st)
    assert vecs(st) == [[1.0, 12.0, 6.0]]
    assert st.integers == [] and st.floats == []


def test_vector_dim_copy_does_not_mutate_original():
    st = fresh_state(dim=2)
    original = np.array([1.0, 1.0])
    st.vectors.append(original)
    st.vectors.append(original)
    apply("vector.dup", st)
    st.floats.append(5.0)
    st.integers.append(0)
    apply("vector.dim+", st)
    assert original.tolist() == [1.0, 1.0]


def test_vector_wrand_bounds_property():
    st = fresh_state(dim=10, seed=5)
    for _ in range(1000):
        st.floats.append(0.25)
        apply("vector.wrand", st)
        v = st.vectors.pop()
        assert len(v) == 10
        assert (np.abs(v) <= 0.25).all()


def test_vector_urand_is_unit_length():
    st = fresh_state(dim=7, seed=6)
    for _ in range(100):
        apply("vector.urand", st)
        assert np.linalg.norm(st.vectors.pop()) == pytest.approx(1.0)


def test_vector_current_uses_modular_lookup():
    points = [np.full(2, float(i)) for i in range(5)]
    bests = [np.full(2, float(10 + i)) for i in range(5)]
    ctx = SwarmContext(points, bests, self_index=3)
    st = fresh_state(dim=2)
    st.integers.append(7)  # 7 mod 5 == 2
    apply("vector.current", st, ctx)
    assert vecs(st) == [[2.0, 2.0]]
    st.integers.append(-2)  # negative -> own point
    apply("vector.best", st, ctx)
    assert vecs(st)[-1] == [13.0, 13.0]
    apply("vector.current", st, ctx)  # empty integer stack -> own point
    assert vecs(st)[-1] == [3.0, 3.0]
    assert st.integers == []


def test_vector_lookup_without_context_is_noop():
    st = fresh_state(dim=2)
    st.integers.append(1)
    assert apply("vector.current", st, None) is False
    assert st.integers == [1]


def test_vector_apply_runs_body_per_component():
    st = fresh_state(dim=3)
    st.vectors.append(np.array([1.0, 2.0, 3.0]))
    st.exec.append("float.dup")  # body; next exec item
    st.exec.append("unused-placeholder")
    st.exec.pop()  # leave body on top
    st.step_limit = 100
    apply("vector.apply", st)
    # float.dup duplicates the pushed component; result popped, the
    # duplicate's source remains
    assert vecs(st) == [[1.0, 2.0, 3.0]]
    assert st.floats == [1.0, 2.0, 3.0]


def test_vector_apply_with_neg_body():
    st = fresh_state(dim=2)
    st.vectors.append(np.array([1.0, -2.0]))
    st.exec.append("float.neg")
    st.step_limit = 100
    apply("vector.apply", st)
    assert vecs(st) == [[-1.0, 2.0]]
    assert st.floats == []


def test_vector_zip_pairs_components():
    st = fresh_state(dim=2)
    st.vectors.append(np.array([1.0, 2.0]))
    st.vectors.append(np.array([10.0, 20.0]))
    st.exec.append("float.+")
    st.step_limit = 100
    apply("vector.zip", st)
    assert vecs(st) == [[11.0, 22.0]]


def test_vector_zip_empty_float_keeps_first_components():
    st = fresh_state(dim=2)
    st.vectors.append(np.array([1.0, 2.0]))
    st.vectors.append(np.array([10.0, 20.0]))
    st.exec.append(ExecGroup(("float.pop", "float.pop")))
    st.step_limit = 100
    apply("vector.zip", st)
    assert vecs(st) == [[1.0, 2.0]]


@pytest.mark.parametrize(
    "name, vectors, body",
    [
        ("vector.apply", 1, ExecGroup((5, "float.swap"))),
        # The two pushed components sit above the marker, so zip needs a rot
        # (not a swap) to pop it as a result component.
        ("vector.zip", 2, ExecGroup((5, "float.rot"))),
    ],
)
def test_vector_apply_and_zip_take_any_stack_float_into_the_result(name, vectors, body):
    # Every float on the stack is finite, the harness's infeasible marker
    # included, so a body that moves one into the result gives a finite
    # vector and nothing needs rolling back.
    st = fresh_state(dim=3)
    st.floats.append(INFEASIBLE)
    for k in range(vectors):
        st.vectors.append(np.array([1.0, 2.0, 3.0]) + k)
    st.exec.extend(["exec.noop", body])
    st.step_limit = 100
    assert apply(name, st) is True
    assert len(st.vectors) == 1
    assert st.vectors[0].dtype == np.float64
    assert st.vectors[0][0] == INFEASIBLE
    assert np.isfinite(st.vectors[0]).all()
    assert st.exec == ["exec.noop"]


_SPECIAL_FLOATS = [
    sys.float_info.max,
    -sys.float_info.max,
    5e-324,
    -5e-324,
    1e-310,
    sys.float_info.min,
    -sys.float_info.min,
    -0.0,
    0.0,
    1.0,
    -1.0,
]

# Finite values only: every value on every stack is finite.
_FINITE = hst.one_of(
    hst.floats(allow_nan=False, allow_infinity=False),
    hst.sampled_from(_SPECIAL_FLOATS),
)

_VECTOR_PAIRS = hst.sampled_from([1, 2, 10, 50]).flatmap(
    lambda n: hst.tuples(
        arrays(np.float64, n, elements=_FINITE),
        arrays(np.float64, n, elements=_FINITE),
    )
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _old_vec_ok(v) -> bool:
    # The finite check the vector instructions made before they read
    # numpy's floating-point flags: 0 * x is nan exactly when x is not
    # finite, and a sum of zeros is finite.
    return math.isfinite(v.dot(np.zeros(len(v))))


# The vector instructions that read the flags, with the arithmetic they ran
# before, given (second, top) vectors and the top float.
_FLAG_OPS = {
    "vector.+": lambda a, b, t: a + b,
    "vector.-": lambda a, b, t: a - b,
    "vector.*": lambda a, b, t: a * b,
    "vector./": lambda a, b, t: a / b,
    "vector.scale": lambda a, b, t: b * t,
    "vector.between": lambda a, b, t: a + t * (b - a),
}


@pytest.mark.parametrize("name", sorted(_FLAG_OPS))
@settings(max_examples=300, deadline=None)
@given(pair=_VECTOR_PAIRS, t=_FINITE)
@example(pair=(np.array([sys.float_info.max]), np.array([sys.float_info.max])), t=2.0)
@example(pair=(np.array([0.0, 1.0]), np.array([0.0, 0.0])), t=0.0)
@example(pair=(np.full(50, -sys.float_info.max), np.full(50, sys.float_info.max)), t=0.0)
@example(pair=(np.full(10, 5e-324), np.full(10, 0.5)), t=1e-300)
@example(pair=(np.full(10, 1e-310), np.full(10, 1e300)), t=-1e300)
def test_vector_ops_refuse_exactly_as_the_finite_check_did(name, pair, t):
    a, b = pair
    # The old error state: everything ignored.
    with np.errstate(all="ignore"):
        want = _FLAG_OPS[name](a, b, t)
        accepted = _old_vec_ok(want)
    st = fresh_state(dim=len(a))
    st.floats.append(t)
    st.vectors.extend([a, b])
    before = st.stack_snapshot()
    assert apply(name, st) is accepted
    if accepted:
        assert st.vectors[-1].tobytes() == want.tobytes()
    else:
        after = st.stack_snapshot()
        assert after[2] == before[2]
        assert all(x is y for x, y in zip(after[3], before[3]))
        assert len(after[3]) == len(before[3])


@settings(max_examples=300, deadline=None)
@given(pair=_VECTOR_PAIRS)
@example(pair=(np.full(50, sys.float_info.max), np.full(50, sys.float_info.max)))
@example(pair=(np.array([sys.float_info.max, -sys.float_info.max]), np.array([1.0, 1.0])))
@example(pair=(np.full(10, 5e-324), np.full(10, 5e-324)))
@example(pair=(np.array([-0.0]), np.array([0.0])))
def test_ndarray_dot_gives_the_bits_of_matmul(pair):
    # F1, vector.dprod, vector.mag and vector.urand take vector products
    # with ndarray.dot, which skips matmul's dispatch. A square is never
    # -0.0, so a self-product is bit for bit matmul's; a product of two
    # vectors is once 0.0 has been added (vector.dprod does).
    a, b = pair
    with np.errstate(all="ignore"):
        assert np.float64(a.dot(a)).tobytes() == np.float64(a @ a).tobytes()
        assert _bits(float(a.dot(b)) + 0.0) == _bits(float(a @ b))
        want = float(a @ b)
    st = fresh_state(dim=len(a))
    st.vectors.extend([a, b])
    applied = apply("vector.dprod", st)
    assert applied is math.isfinite(want)
    if applied:
        assert _bits(st.floats[-1]) == _bits(want)


# ---------------------------------------------------------------------------
# Exec and input instructions
# ---------------------------------------------------------------------------


def run_program(text, st, ctx=None, limit=100):
    # Direct run_move calls enter the error state run_with_source would.
    with instruction_errstate():
        return run_move(st, parse_program(text), ctx, limit)


def test_exec_noop_and_equality():
    st = fresh_state()
    run_program("(exec.noop 1 1)", st)
    assert st.integers == [1, 1]
    st2 = fresh_state()
    run_program("(exec.= 5 5)", st2)
    # exec.= consumed both literals
    assert st2.integers == []
    assert st2.booleans == [True]


def test_exec_eq_group_comparison():
    assert items_equal(ExecGroup((1, "exec.noop")), ExecGroup((1, "exec.noop")))
    assert not items_equal(ExecGroup((1,)), ExecGroup((1, 2)))
    assert not items_equal(True, 1)
    assert not items_equal(1, 1.0)


def test_exec_if_branches():
    st = fresh_state()
    st.booleans.append(True)
    run_program("(exec.if 1.0 2.0)", st)
    assert st.floats == [1.0]
    st = fresh_state()
    st.booleans.append(False)
    run_program("(exec.if 1.0 2.0)", st)
    assert st.floats == [2.0]


def test_exec_iflt_compares_floats():
    st = fresh_state()
    st.floats.extend([1.0, 2.0])  # second < top -> first branch
    run_program("(exec.iflt 10 20)", st)
    assert st.integers == [10]
    st = fresh_state()
    st.floats.extend([2.0, 1.0])
    run_program("(exec.iflt 10 20)", st)
    assert st.integers == [20]


def test_exec_do_times_repeats_body():
    st = fresh_state()
    run_program("(4 exec.do*times 1.0)", st, limit=1000)
    assert st.floats == [1.0] * 4
    assert st.integers == []


def test_exec_do_count_pushes_counter():
    st = fresh_state()
    run_program("(3 exec.do*count integer.dup)", st, limit=1000)
    # counter 0,1,2 each duplicated
    assert st.integers == [0, 0, 1, 1, 2, 2]


def test_exec_do_range_runs_inclusive_range():
    st = fresh_state()
    run_program("(2 5 exec.do*range exec.noop)", st, limit=1000)
    assert st.integers == [2, 3, 4, 5]
    st = fresh_state()
    run_program("(5 2 exec.do*range exec.noop)", st, limit=1000)
    assert st.integers == [5, 4, 3, 2]
    st = fresh_state()
    run_program("(-2 -5 exec.do*range exec.noop)", st, limit=1000)
    assert st.integers == [-2, -3, -4, -5]


def test_exec_if_arity_shortfall_is_noop():
    # one pending exec item is not enough for a branch; condition retained
    st = fresh_state()
    st.booleans.append(True)
    run_program("(exec.if 1.0)", st)
    assert st.booleans == [True]
    assert st.floats == [1.0]  # the literal executed normally afterwards


def test_exec_do_times_nonpositive_is_noop():
    # the loop instruction refuses, leaving its operands: the count stays on
    # the integer stack and the body then executes once as a plain item
    st = fresh_state()
    run_program("(0 exec.do*times 1.0)", st, limit=1000)
    assert st.floats == [1.0]
    assert st.integers == [0]
    st = fresh_state()
    run_program("(-3 exec.do*count 1.0)", st, limit=1000)
    assert st.floats == [1.0]
    assert st.integers == [-3]


def test_input_instructions():
    st = fresh_state(inputs=(-5.0, 5.0))
    run_program("(input.inall)", st)
    assert st.floats == [-5.0, 5.0]
    st = fresh_state(inputs=(-5.0, 5.0))
    run_program("(input.inallrev)", st)
    assert st.floats == [5.0, -5.0]
    st = fresh_state(inputs=(-5.0, 5.0))
    run_program("(3 input.index)", st)  # 3 mod 2 == 1
    assert st.floats == [5.0]
    st = fresh_state(inputs=(-5.0, 5.0))
    run_program("(input.stackdepth)", st)
    assert st.integers == [2]


def test_inputs_never_change():
    st = fresh_state(inputs=(-5.0, 5.0))
    run_program("(input.inall input.inall 0 input.index)", st)
    assert st.inputs == (-5.0, 5.0)


# ---------------------------------------------------------------------------
# No-op purity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_noop_purity_on_empty_stacks(name):
    st = fresh_state(dim=2, seed=1)
    ctx = solo_context(dim=2)
    before = st.stack_snapshot()
    applied = apply(name, st, ctx)
    if not applied:
        assert st.stack_snapshot() == before
    # instructions needing nothing may execute on empty stacks; all that is
    # required is totality plus purity of refused executions


def test_determinism_same_seed_same_result():
    program = "(float.rand vector.rand vector.wrand integer.rand float.+)"
    states = []
    for _ in range(2):
        st = fresh_state(dim=3, seed=42)
        st.floats.append(0.5)
        run_program(program, st)
        states.append((list(st.floats), [v.tolist() for v in st.vectors], list(st.integers)))
    assert states[0] == states[1]
