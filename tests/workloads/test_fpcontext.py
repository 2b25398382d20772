"""Tests for the FP interposition context."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fpu.formats import FpOp
from repro.utils import ieee754
from repro.workloads.base import (
    FPContext,
    GuestFpException,
    GuestTimeout,
    roll,
)


class TestCountingAndResults:
    def test_elementwise_counting(self):
        ctx = FPContext()
        ctx.add(np.ones(10), np.ones(10))
        ctx.mul(2.0, 3.0)
        assert ctx.counters[FpOp.ADD_D] == 10
        assert ctx.counters[FpOp.MUL_D] == 1
        assert ctx.ops_executed == 11

    def test_results_are_native_ieee(self, rng):
        ctx = FPContext()
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        assert np.array_equal(ctx.add(a, b), a + b)
        assert np.array_equal(ctx.mul(a, b), a * b)
        assert np.array_equal(ctx.sub(a, b), a - b)
        assert np.array_equal(ctx.div(a, b), a / b)

    def test_broadcasting(self):
        ctx = FPContext()
        out = ctx.mul(np.ones((3, 4)), 2.0)
        assert out.shape == (3, 4)
        assert ctx.counters[FpOp.MUL_D] == 12

    def test_scalar_in_scalar_out(self):
        ctx = FPContext()
        out = ctx.add(1.5, 2.5)
        assert float(out) == 4.0

    def test_single_precision_rounds(self):
        ctx = FPContext()
        out = ctx.add_s(1.0, 2.0**-30)
        assert float(out) == 1.0
        assert ctx.counters[FpOp.ADD_S] == 1

    def test_f2i_truncates(self):
        ctx = FPContext()
        out = ctx.f2i(np.array([3.7, -3.7]))
        assert list(out) == [3, -3]
        assert ctx.counters[FpOp.F2I_D] == 2

    def test_i2f_exact(self):
        ctx = FPContext()
        assert list(ctx.i2f(np.array([5, -5]))) == [5.0, -5.0]

    def test_tree_sum_matches_numpy(self, rng):
        ctx = FPContext()
        values = rng.normal(size=257)
        assert ctx.sum(values) == pytest.approx(values.sum(), rel=1e-12)
        assert ctx.counters[FpOp.ADD_D] == 256

    def test_dot(self, rng):
        ctx = FPContext()
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert ctx.dot(a, b) == pytest.approx(np.dot(a, b), rel=1e-12)


class TestCorruption:
    def test_exact_bit_flip_at_victim_index(self):
        mask = 1 << 51
        ctx = FPContext(corruption={FpOp.ADD_D: {3: mask}})
        a = np.arange(8, dtype=float)
        out = ctx.add(a, a)
        expected = a + a
        flipped = np.float64(
            np.uint64(np.float64(expected[3]).view(np.uint64))
            ^ np.uint64(mask)
        ).view() if False else None
        raw = (a + a).view(np.uint64).copy()
        raw[3] ^= np.uint64(mask)
        assert np.array_equal(out.view(np.uint64), raw)
        assert ctx.corrupted_events == 1

    def test_victim_across_batches(self):
        ctx = FPContext(corruption={FpOp.MUL_D: {5: 1}})
        ctx.mul(np.ones(3), np.ones(3))   # indices 0-2
        out = ctx.mul(np.ones(4), np.ones(4))  # indices 3-6; victim at 5
        raw = out.view(np.uint64)
        assert raw[2] == np.float64(1.0).view(np.uint64) ^ np.uint64(1)
        assert ctx.corrupted_events == 1

    def test_victim_outside_stream_never_fires(self):
        ctx = FPContext(corruption={FpOp.MUL_D: {100: 1}})
        ctx.mul(np.ones(10), np.ones(10))
        assert ctx.corrupted_events == 0

    def test_single_precision_corruption(self):
        ctx = FPContext(corruption={FpOp.MUL_S: {0: 1 << 22}})
        out = ctx.mul_s(np.array([1.5]), np.array([2.0]))
        assert float(out[0]) != 3.0
        assert ctx.corrupted_events == 1

    def test_conversion_corruption(self):
        ctx = FPContext(corruption={FpOp.F2I_D: {0: 1 << 10}})
        out = ctx.f2i(np.array([2.0]))
        assert out[0] == 2 ^ (1 << 10)

    def test_i2f_corruption_arms_traps(self):
        ctx = FPContext(corruption={FpOp.I2F_D: {1: 1}})
        out = ctx.i2f(np.array([5, 6]))
        assert out.view(np.uint64)[1] == (np.float64(6.0).view(np.uint64)
                                          ^ np.uint64(1))
        assert ctx.corrupted_events == 1 and ctx._armed


class TestBudgetAndTraps:
    def test_budget_timeout(self):
        ctx = FPContext(op_budget=100)
        ctx.add(np.ones(60), np.ones(60))
        with pytest.raises(GuestTimeout):
            ctx.add(np.ones(60), np.ones(60))

    def test_trap_only_after_corruption(self):
        ctx = FPContext(trap_nonfinite=True)
        # FPContext leaves numpy's FP error state to its caller (the
        # campaign runner ignores it around every guest run), so a direct
        # caller sees numpy's default divide-by-zero warning.
        with pytest.warns(RuntimeWarning):
            out = ctx.div(1.0, 0.0)  # inf, but nothing armed yet
        assert np.isinf(out)

    def test_trap_fires_after_corruption(self):
        # 3.0 has biased exponent 0x400; XOR 0x3FF sets all exponent bits:
        # the corrupted result is infinite and the guest traps.
        ctx = FPContext(trap_nonfinite=True,
                        corruption={FpOp.MUL_D: {0: 0x3FF << 52}})
        with pytest.raises(GuestFpException):
            ctx.mul(np.array([1.5]), np.array([2.0]))


class TestTraceRecording:
    def test_records_operand_bits(self):
        ctx = FPContext(record_trace=True)
        a = np.array([1.5, 2.5])
        b = np.array([3.5, 4.5])
        ctx.mul(a, b)
        profile = ctx.profile("t", ops_per_fp=4.0)
        ta, tb = profile.trace_by_op[FpOp.MUL_D]
        assert np.array_equal(ta, a.view(np.uint64))
        assert np.array_equal(tb, b.view(np.uint64))

    def test_trace_cap_respected(self):
        ctx = FPContext(record_trace=True, trace_cap=5)
        ctx.add(np.ones(10), np.ones(10))
        profile = ctx.profile("t", ops_per_fp=0.0)
        ta, _ = profile.trace_by_op[FpOp.ADD_D]
        assert ta.size == 5
        assert profile.counts_by_op[FpOp.ADD_D] == 10  # counts uncapped

    def test_profile_total_instructions(self):
        ctx = FPContext(record_trace=True)
        ctx.add(np.ones(100), np.ones(100))
        profile = ctx.profile("t", ops_per_fp=4.0)
        assert profile.total_instructions == 500

    def test_op_sequence_run_length(self):
        ctx = FPContext()
        ctx.add(np.ones(5), np.ones(5))
        ctx.add(np.ones(5), np.ones(5))
        ctx.mul(np.ones(2), np.ones(2))
        assert ctx.op_sequence == [(FpOp.ADD_D, 10), (FpOp.MUL_D, 2)]
        assert ctx.fp_op_sequence(limit=11) == [FpOp.ADD_D] * 10 + [FpOp.MUL_D]


# -- differential oracle ----------------------------------------------------------
# FPContext's dispatch (binary ops, conversions, tree sum) as it was
# before binary ops let the ufunc broadcast, kept verbatim: the current
# dispatch must match it bit for bit.
_BINARY_FNS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}


class _OracleContext(FPContext):
    def sum(self, values):
        """Sequential-tree sum through the FPU add stream."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        while arr.size > 1:
            half = arr.size // 2
            paired = self.add(arr[:half], arr[half:2 * half])
            if arr.size % 2:
                arr = np.concatenate([np.atleast_1d(paired),
                                      arr[2 * half:]])
            else:
                arr = np.atleast_1d(paired)
        return float(arr[0]) if arr.size else 0.0

    def _binary(self, op: FpOp, a, b):
        a_arr, b_arr = np.broadcast_arrays(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        )
        scalar = a_arr.ndim == 0
        a_flat = np.atleast_1d(a_arr).ravel()
        b_flat = np.atleast_1d(b_arr).ravel()
        n = a_flat.size
        start = self._charge(op, n)

        single = not op.is_double
        if single:
            a_flat = a_flat.astype(np.float32)
            b_flat = b_flat.astype(np.float32)
        with np.errstate(all="ignore"):
            result = _BINARY_FNS[op.kind](a_flat, b_flat)

        if self.record_trace:
            if single:
                self._record(op, ieee754.floats_to_bits32(a_flat).astype(np.uint64),
                             ieee754.floats_to_bits32(b_flat).astype(np.uint64))
            else:
                self._record(op, a_flat.view(np.uint64),
                             b_flat.view(np.uint64))

        if self.corruption.get(op):
            if single:
                bits = result.view(np.uint32).astype(np.uint64)
                if self._apply_corruption(op, start, bits):
                    result = bits.astype(np.uint32).view(np.float32)
                    self._armed = True
            else:
                bits = result.view(np.uint64)
                if self._apply_corruption(op, start, bits):
                    self._armed = True
                result = bits.view(np.float64)

        result = result.astype(np.float64)
        self._trap_check(result)
        out = result.reshape(a_arr.shape) if not scalar else result[0]
        return out

    def _conv(self, op: FpOp, values):
        shaped = np.asarray(values)
        scalar = shaped.ndim == 0
        arr = np.atleast_1d(shaped).ravel()
        n = arr.size
        start = self._charge(op, n)
        if op.kind == "i2f":
            src = arr.astype(np.int64)
            if self.record_trace:
                self._record(op, src.view(np.uint64), None)
            result = src.astype(np.float64)
            bits = result.view(np.uint64)
            if self._apply_corruption(op, start, bits):
                self._armed = True
            result = bits.view(np.float64)
            self._trap_check(result)
            return result[0] if scalar else result.reshape(shaped.shape)
        # f2i: round toward zero, saturating (matches the FPU semantics).
        src = arr.astype(np.float64)
        if self.record_trace:
            self._record(op, src.view(np.uint64), None)
        with np.errstate(all="ignore"):
            clipped = np.where(np.isnan(src), 0.0,
                               np.clip(src, -2.0**62, 2.0**62))
            result = np.trunc(clipped).astype(np.int64)
        bits = result.view(np.uint64)
        if self._apply_corruption(op, start, bits):
            self._armed = True
        result = bits.view(np.int64)
        return int(result[0]) if scalar else result.reshape(shaped.shape)


_BINARY_METHODS = ("add", "sub", "mul", "div", "add_s", "sub_s", "mul_s",
                   "div_s")
_UNARY_METHODS = ("sum", "i2f", "f2i")
#: The ops each API method dispatches (victim candidates).
_METHOD_OPS = {"add": [FpOp.ADD_D], "sub": [FpOp.SUB_D], "mul": [FpOp.MUL_D],
               "div": [FpOp.DIV_D], "add_s": [FpOp.ADD_S],
               "sub_s": [FpOp.SUB_S], "mul_s": [FpOp.MUL_S],
               "div_s": [FpOp.DIV_S], "sum": [FpOp.ADD_D],
               "dot": [FpOp.MUL_D, FpOp.ADD_D], "i2f": [FpOp.I2F_D],
               "f2i": [FpOp.F2I_D]}

_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def _operand(draw, shape):
    """An operand recipe of ``shape``: (kind, base array).

    The recipe is materialised afresh for each context so neither sees
    the other's objects; transposed and sliced kinds are non-contiguous.
    """
    if shape == ():
        kind = draw(st.sampled_from(["float", "int", "f64", "array0d"]))
        if kind == "int":
            return kind, np.asarray(draw(st.integers(-2**60, 2**60)))
        return kind, np.asarray(draw(_floats))
    kind = draw(st.sampled_from(["array", "list", "ints", "transposed",
                                 "sliced"]))
    if kind == "ints":
        return kind, draw(hnp.arrays(np.int64, shape,
                                     elements=st.integers(-2**40, 2**40)))
    if kind == "transposed":
        return kind, draw(hnp.arrays(np.float64, shape[::-1],
                                     elements=_floats))
    if kind == "sliced":
        return kind, draw(hnp.arrays(np.float64, (*shape[:-1], 2 * shape[-1]),
                                     elements=_floats))
    return kind, draw(hnp.arrays(np.float64, shape, elements=_floats))


def _materialise(recipe):
    kind, base = recipe
    base = base.copy()
    if kind == "float":
        return float(base)
    if kind == "int":
        return int(base)
    if kind == "f64":
        return np.float64(base)
    if kind == "list":
        return base.tolist()
    if kind == "transposed":
        return base.T
    if kind == "sliced":
        return base[..., ::2]
    return base  # array0d, array, ints


@st.composite
def _call(draw):
    method = draw(st.sampled_from(_BINARY_METHODS + _UNARY_METHODS
                                  + ("dot",)))
    if method in _UNARY_METHODS:
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                      max_side=5))
        return method, (draw(_operand(shape)),)
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, min_dims=0, max_dims=3, min_side=0, max_side=4))
    return method, tuple(draw(_operand(shape))
                         for shape in shapes.input_shapes)


@st.composite
def _scenario(draw):
    calls = draw(st.lists(_call(), min_size=1, max_size=4))
    victims = {}
    called = [op for method, _ in calls for op in _METHOD_OPS[method]]
    for op in draw(st.lists(st.sampled_from(called), max_size=3)):
        indices = draw(st.lists(st.integers(0, 12), max_size=3))
        victims[op] = {index: draw(st.integers(1, 2**64 - 1))
                       for index in indices}
    options = dict(
        corruption=victims,
        record_trace=draw(st.booleans()),
        trace_cap=draw(st.sampled_from([1_000_000, 7])),
        op_budget=draw(st.one_of(st.none(), st.integers(0, 120))),
        trap_nonfinite=draw(st.booleans()),
    )
    return calls, options


def _drive(ctx, calls):
    """Apply ``calls`` to ``ctx``: per-call results, then any exception."""
    results = []
    for method, recipes in calls:
        operands = [_materialise(recipe) for recipe in recipes]
        try:
            out = getattr(ctx, method)(*operands)
        except Exception as exc:  # budget, trap, or unbroadcastable
            return results, type(exc)
        for operand in operands:
            assert not np.shares_memory(out, operand)
        results.append(out)
    return results, None


def _state(ctx):
    return (dict(ctx.counters), ctx.ops_executed, list(ctx.op_sequence),
            ctx.corrupted_events, ctx._armed, dict(ctx._trace_len))


def _assert_same_chunks(new, old):
    assert new.keys() == old.keys()
    for op in new:
        assert len(new[op]) == len(old[op])
        for got, want in zip(new[op], old[op]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestDispatchMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_scenario())
    def test_dispatch_bit_identical_to_oracle(self, scenario):
        calls, options = scenario
        new_ctx = FPContext(**options)
        old_ctx = _OracleContext(**options)
        # Both under the campaign runner's guest error state.
        with np.errstate(all="ignore"):
            new_results, new_exc = _drive(new_ctx, calls)
            old_results, old_exc = _drive(old_ctx, calls)
        assert new_exc is old_exc
        assert len(new_results) == len(old_results)
        for got, want in zip(new_results, old_results):
            assert type(got) is type(want)
            if not isinstance(want, np.ndarray):  # a scalar
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                continue
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        assert _state(new_ctx) == _state(old_ctx)
        _assert_same_chunks(new_ctx._trace_a, old_ctx._trace_a)
        _assert_same_chunks(new_ctx._trace_b, old_ctx._trace_b)


class TestGuestErrorState:
    """The runner owns the guest's FP error state: no warning escapes."""

    @pytest.mark.parametrize("name,victim,outcome", [
        # A huge quotient overflows later kmeans multiplies to inf/NaN
        # and the labels change.
        ("kmeans", (FpOp.DIV_D, 0, 1 << 61), "SDC"),
        # cg overflows to inf and traps on it once armed.
        ("cg", (FpOp.ADD_D, 0, 1 << 62), "Crash"),
    ])
    def test_golden_and_nonfinite_injection_warning_free(self, name, victim,
                                                         outcome):
        from repro.campaign.runner import CampaignRunner
        from repro.workloads import make_workload

        op, index, mask = victim
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runner = CampaignRunner(make_workload(name, scale="tiny",
                                                  seed=11), seed=11)
            runner.golden()
            execution = runner.run_guest({op: {index: mask}})
        assert execution.outcome.value == outcome
        assert execution.unexpected is None

    def test_golden_build_ignores_guest_fp_errors(self):
        from repro.campaign.runner import CampaignRunner
        from repro.workloads.base import Workload

        class DivideByZero(Workload):
            name = "div0"

            def _build_input(self):
                pass

            def run(self, ctx):
                return ctx.div(np.ones(4), np.zeros(4))

            def outputs_equal(self, golden, observed):
                return bool(np.array_equal(golden, observed))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            golden = CampaignRunner(DivideByZero(scale="tiny")).golden()
        assert np.isinf(golden.output).all()
        assert golden.fp_ops_executed == 4


class TestFusedTreeSum:
    """The fused tree sum against the level-by-level oracle at its edges.

    Each case runs ``prepare`` then ``sum`` on a fresh FPContext and a
    fresh ``_OracleContext`` and asserts the same result (or exception),
    dispatch state and recorded trace.
    """

    @staticmethod
    def _compare(values, prepare=None, **options):
        outcomes = []
        contexts = (FPContext(**options), _OracleContext(**options))
        with np.errstate(all="ignore"):
            for ctx in contexts:
                if prepare is not None:
                    prepare(ctx)
                try:
                    out = np.float64(ctx.sum(values)).tobytes()
                except (GuestTimeout, GuestFpException) as exc:
                    out = type(exc)
                outcomes.append((out, _state(ctx)))
        assert outcomes[0] == outcomes[1]
        _assert_same_chunks(contexts[0]._trace_a, contexts[1]._trace_a)
        _assert_same_chunks(contexts[0]._trace_b, contexts[1]._trace_b)
        return contexts[0], outcomes[0][0]

    @staticmethod
    def _five_adds(ctx):
        ctx.add(np.ones(5), np.ones(5))  # the tree starts at ADD_D index 5

    @pytest.mark.parametrize("offset,lands", [(0, True), (255, True),
                                              (256, False)])
    def test_add_victim_at_tree_edges(self, rng, offset, lands):
        # 257 values: 256 adds at ADD_D indices 5..260.
        ctx, _ = self._compare(
            rng.normal(size=257), self._five_adds,
            corruption={FpOp.ADD_D: {5 + offset: 1 << 51}})
        assert ctx.corrupted_events == int(lands)

    @pytest.mark.parametrize("slack", [0, -1])
    def test_budget_at_tree_end(self, rng, slack):
        _, out = self._compare(rng.normal(size=257), self._five_adds,
                               op_budget=5 + 256 + slack)
        assert (out is GuestTimeout) == (slack < 0)

    def test_armed_trap_at_inner_level(self):
        # Level 0 is finite (1e308 + 1); level 1 overflows to inf.
        values = np.array([1e308] * 4 + [1.0] * 4)

        def arm(ctx):
            ctx.mul(np.ones(1), np.ones(1))  # the MUL_D victim lands

        ctx, out = self._compare(values, arm, trap_nonfinite=True,
                                 corruption={FpOp.MUL_D: {0: 1}})
        assert out is GuestFpException
        assert ctx.counters[FpOp.ADD_D] == 4 + 2  # levels 0 and 1 charged

    def test_record_trace(self, rng):
        ctx, _ = self._compare(rng.normal(size=257), self._five_adds,
                               record_trace=True)
        assert ctx._trace_len[FpOp.ADD_D] == 5 + 256

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 257])
    def test_sizes(self, rng, size):
        ctx, _ = self._compare(rng.normal(size=size), self._five_adds,
                               trap_nonfinite=True)
        assert ctx.op_sequence == [(FpOp.ADD_D, 5 + max(size - 1, 0))]


class TestPeriodicRoll:
    @pytest.mark.parametrize("shape", [(7,), (1,), (4, 6), (1, 5), (5, 1),
                                       (3, 4, 5), (4, 1, 3), (1, 1, 1)])
    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_matches_np_roll(self, rng, shape, shift, dtype):
        a = (rng.normal(size=shape) * 100).astype(dtype)
        for axis in range(a.ndim):
            got, want = roll(a, shift, axis=axis), np.roll(a, shift, axis=axis)
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, a)


def test_perfbench_traced_api_defined_on_fpcontext():
    # perfbench times guest FP dispatch by wrapping these names in
    # FPContext.__dict__; a name defined elsewhere would silently move
    # guest time into its residual.
    path = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.FP_OPS) == 12
    for name in tracing.FP_OPS:
        assert name in FPContext.__dict__, name
