"""Tests for the FPU facade and formats module."""

import numpy as np
import pytest

from repro.circuit.liberty import NOMINAL, VR15, VR20
from repro.circuit.variation import StressCondition
from repro.errors.characterize import random_operands
from repro.fpu import ops
from repro.fpu.formats import (
    ALL_OPS,
    OPS_DOUBLE,
    OPS_SINGLE,
    FpOp,
    op_by_mnemonic,
)
from repro.fpu.timing import DEFAULT_MODEL
from repro.fpu.unit import DEFAULT_DTA_BATCH, FPU
from repro.utils.ieee754 import float_to_bits64, floats_to_bits64
from repro.utils.rng import RngStream


class TestFormats:
    def test_twelve_instructions(self):
        assert len(ALL_OPS) == 12
        assert len(OPS_DOUBLE) == len(OPS_SINGLE) == 6

    def test_kinds(self):
        assert FpOp.MUL_D.kind == "mul"
        assert FpOp.I2F_S.kind == "i2f"
        assert FpOp.F2I_D.kind == "f2i"

    def test_precision_and_fmt(self):
        assert FpOp.ADD_D.is_double and FpOp.ADD_D.fmt.width == 64
        assert not FpOp.ADD_S.is_double and FpOp.ADD_S.fmt.width == 32

    def test_operand_count(self):
        assert FpOp.DIV_D.has_two_operands
        assert not FpOp.I2F_D.has_two_operands

    def test_latency_classes(self):
        assert FpOp.DIV_D.latency_cycles > FpOp.MUL_D.latency_cycles
        assert FpOp.MUL_D.latency_cycles > FpOp.I2F_D.latency_cycles

    def test_mnemonic_lookup(self):
        for op in ALL_OPS:
            assert op_by_mnemonic(op.value) is op
        with pytest.raises(KeyError):
            op_by_mnemonic("fp.sqrt.d")


class TestFpuFacade:
    def test_scalar_execute(self, fpu):
        a = float_to_bits64(3.0)
        b = float_to_bits64(4.0)
        assert fpu.execute(FpOp.MUL_D, a, b) == float_to_bits64(12.0)

    def test_batch_matches_scalar(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=64))
        b = floats_to_bits64(rng.uniform(-10, 10, size=64))
        batch = fpu.execute_batch(FpOp.ADD_D, a, b)
        for i in range(64):
            assert int(batch[i]) == fpu.execute(FpOp.ADD_D, int(a[i]),
                                                int(b[i]))

    def test_dta_batch_structure(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        b = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        batch = fpu.dta(FpOp.MUL_D, a, b, [NOMINAL, VR20])
        assert set(batch.masks) == {"NOM", "VR20"}
        assert batch.golden.shape == a.shape
        assert batch.error_ratio("NOM") == 0.0

    def test_faulty_results_xor(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        b = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        batch = fpu.dta(FpOp.MUL_D, a, b, [VR20])
        faulty = batch.faulty_results("VR20")
        assert np.array_equal(faulty ^ batch.golden, batch.masks["VR20"])

    def test_nominal_is_clean(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=2000))
        b = floats_to_bits64(rng.uniform(-10, 10, size=2000))
        assert fpu.nominal_is_clean(FpOp.MUL_D, a, b)

    def test_operating_point_passthrough(self, fpu):
        point = fpu.operating_point(0.15)
        assert point.name == "VR15"
        assert point.voltage == pytest.approx(VR15.voltage)


#: Hot enough that most single-precision ops become live too.
STRESS = StressCondition(voltage_reduction=0.2, years=10, temperature_c=100,
                         overclock=1.1).operating_point()
POINT_SETS = {
    "nom": [NOMINAL],
    "vr15+vr20": [VR15, VR20],
    "nom+vr15+vr20": [NOMINAL, VR15, VR20],
    "stress": [STRESS],
}
CHUNK = DEFAULT_DTA_BATCH
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


class TestDtaDifferential:
    """``FPU.dta`` (chunked, clean points skipped) equals the oracle.

    The oracle is the whole-array evaluation with no short-circuit:
    ``ops.golden`` plus ``DEFAULT_MODEL.error_masks`` over every point.
    """

    @pytest.fixture(scope="class")
    def operands(self):
        return {op: random_operands(op, max(SIZES), RngStream(7, op.value))
                for op in ALL_OPS}

    @pytest.mark.parametrize("points", list(POINT_SETS.values()),
                             ids=list(POINT_SETS))
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_matches_whole_array_oracle(self, fpu, operands, op, points):
        full_a, full_b = operands[op]
        for size in SIZES:
            a = full_a[:size]
            b = full_b[:size] if full_b is not None else None
            golden = ops.golden(op, a, b)
            oracle = DEFAULT_MODEL.error_masks(op, a, b, points,
                                               golden=golden)
            batch = fpu.dta(op, a, b, points)
            arrays = [batch.golden] + list(batch.masks.values())
            for array in arrays:
                assert array.dtype == np.uint64
                assert array.flags.c_contiguous
            assert batch.golden.tobytes() == golden.tobytes(), size
            assert list(batch.masks) == list(oracle)
            for name, mask in oracle.items():
                assert batch.masks[name].tobytes() == mask.tobytes(), (
                    size, name)
            masks = list(batch.masks.values())
            for i, mask in enumerate(masks):
                for other in masks[i + 1:]:
                    assert not np.shares_memory(mask, other)

    def test_nominal_is_clean_evaluates_the_model(self, fpu, monkeypatch):
        """The invariant check runs ``error_masks`` even though NOMINAL
        is provably clean and ``dta`` would skip it."""
        calls = []
        error_masks = type(DEFAULT_MODEL).error_masks

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return error_masks(self, *args, **kwargs)

        monkeypatch.setattr(type(DEFAULT_MODEL), "error_masks", counting)
        a, b = random_operands(FpOp.MUL_D, 100, RngStream(7, "nominal"))
        assert fpu.nominal_is_clean(FpOp.MUL_D, a, b)
        assert calls == [FpOp.MUL_D]
