"""The FpOp classification table: every attribute of all 12 instructions."""

import pytest

from repro.fpu.formats import ALL_OPS, FpOp, op_by_mnemonic
from repro.utils.ieee754 import DOUBLE, SINGLE

#: op -> (kind, precision, is_double, latency_cycles), written out by hand.
EXPECTED = {
    FpOp.ADD_D: ("add", "double", True, 6),
    FpOp.SUB_D: ("sub", "double", True, 6),
    FpOp.MUL_D: ("mul", "double", True, 7),
    FpOp.DIV_D: ("div", "double", True, 24),
    FpOp.I2F_D: ("i2f", "double", True, 3),
    FpOp.F2I_D: ("f2i", "double", True, 3),
    FpOp.ADD_S: ("add", "single", False, 6),
    FpOp.SUB_S: ("sub", "single", False, 6),
    FpOp.MUL_S: ("mul", "single", False, 7),
    FpOp.DIV_S: ("div", "single", False, 24),
    FpOp.I2F_S: ("i2f", "single", False, 3),
    FpOp.F2I_S: ("f2i", "single", False, 3),
}


def test_table_covers_every_op():
    assert set(EXPECTED) == set(FpOp) == set(ALL_OPS)


@pytest.mark.parametrize("op", list(FpOp), ids=lambda o: o.value)
def test_classification(op):
    kind, precision, is_double, latency = EXPECTED[op]
    assert op.kind == kind
    assert op.precision == precision
    assert op.is_double is is_double
    assert op.latency_cycles == latency
    assert op.fmt is (DOUBLE if is_double else SINGLE)
    assert op.has_two_operands is (kind in ("add", "sub", "mul", "div"))
    assert op_by_mnemonic(op.mnemonic) is op
