"""Tests for trace synthesis and the out-of-order core model."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fpu.formats import FpOp
from repro.uarch.core import CoreParams, FunctionalCore, OoOCore
from repro.uarch.isa import Instruction, InstrClass
from repro.uarch.trace import MIXES, TraceMix, synthesize_trace


def _fp_stream(n=2000):
    ops = [FpOp.MUL_D, FpOp.ADD_D, FpOp.SUB_D, FpOp.DIV_D]
    return [ops[i % len(ops)] for i in range(n)]


class TestTraceMix:
    def test_all_benchmarks_have_mixes(self):
        for name in ("sobel", "cg", "kmeans", "srad_v1", "hotspot",
                     "is", "mg", "default"):
            assert name in MIXES

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            TraceMix(ops_per_fp=5, load_fraction=0.6, store_fraction=0.5)
        with pytest.raises(ValueError):
            TraceMix(ops_per_fp=-1)

    def test_is_mix_reflects_integer_dominance(self):
        """Table II: is runs 24x more instructions per FP op."""
        assert MIXES["is"].ops_per_fp > 4 * MIXES["kmeans"].ops_per_fp


class TestSynthesizeTrace:
    def test_deterministic(self):
        a = synthesize_trace("cg", _fp_stream(), seed=3)
        b = synthesize_trace("cg", _fp_stream(), seed=3)
        assert np.array_equal(a.cls, b.cls)
        assert np.array_equal(a.dest, b.dest)

    def test_fp_instructions_embedded_in_order(self):
        window = synthesize_trace("cg", _fp_stream(100))
        fp_rows = window.fp_index[window.cls == int(InstrClass.FP)]
        assert list(fp_rows) == list(range(len(fp_rows)))

    def test_mix_ratio_approximate(self):
        mix = MIXES["cg"]
        window = synthesize_trace("cg", _fp_stream(5000), mix=mix)
        fp = (window.cls == int(InstrClass.FP)).sum()
        non_fp = len(window) - fp
        assert non_fp / fp == pytest.approx(mix.ops_per_fp, rel=0.05)

    def test_window_cap(self):
        window = synthesize_trace("cg", _fp_stream(500_000), max_window=5000)
        assert len(window) <= 6000

    def test_class_fractions(self):
        mix = MIXES["hotspot"]
        window = synthesize_trace("hotspot", _fp_stream(5000), mix=mix)
        non_fp = window.cls[window.cls != int(InstrClass.FP)]
        loads = (non_fp == int(InstrClass.LOAD)).mean()
        assert loads == pytest.approx(mix.load_fraction, abs=0.03)

    def test_empty_stream(self):
        window = synthesize_trace("cg", [])
        assert len(window) == 0


class TestOoOCore:
    @pytest.fixture(scope="class")
    def schedule(self):
        window = synthesize_trace("cg", _fp_stream(4000), seed=5)
        return OoOCore().simulate(window), window

    def test_cpi_at_least_ideal(self, schedule):
        sched, _ = schedule
        assert sched.cpi >= 1.0 / CoreParams().fetch_width

    def test_commit_cycles_monotone(self, schedule):
        sched, _ = schedule
        assert sched.window_cycles > 0
        assert sched.total_cycles >= sched.window_cycles

    def test_fp_writebacks_recorded(self, schedule):
        sched, window = schedule
        assert sched.fp_writeback.size == window.fp_count
        assert (np.diff(sched.fp_global_index) > 0).all()

    def test_cycle_lookup_inside_and_beyond_window(self, schedule):
        sched, window = schedule
        inside = sched.cycle_of_fp(int(sched.fp_global_index[10]))
        assert inside == sched.fp_writeback[10]
        beyond = sched.cycle_of_fp(10**7)
        assert beyond > sched.window_cycles

    def test_masking_rates_are_probabilities(self, schedule):
        sched, _ = schedule
        assert 0.0 <= sched.wrong_path_fp_fraction < 0.5
        assert 0.0 <= sched.dead_fp_fraction < 0.5

    def test_mispredicts_cost_cycles(self):
        # Pure-mul stream: the front-end is the bottleneck, so redirect
        # stalls are visible (a div-saturated FPU would absorb them).
        fp = [FpOp.MUL_D] * 3000
        clean = TraceMix(ops_per_fp=5.0, branch_fraction=0.15,
                         branch_mispredict=0.0)
        dirty = TraceMix(ops_per_fp=5.0, branch_fraction=0.15,
                         branch_mispredict=0.3)
        c1 = OoOCore().simulate(synthesize_trace("x", fp, mix=clean))
        c2 = OoOCore().simulate(synthesize_trace("x", fp, mix=dirty))
        assert c2.window_cycles > c1.window_cycles
        assert c2.wrong_path_fp_fraction > c1.wrong_path_fp_fraction

    def test_blocking_divider_slows_div_heavy_code(self):
        muls = [FpOp.MUL_D] * 2000
        divs = [FpOp.DIV_D] * 2000
        mix = MIXES["default"]
        c_mul = OoOCore().simulate(synthesize_trace("x", muls, mix=mix))
        c_div = OoOCore().simulate(synthesize_trace("x", divs, mix=mix))
        assert c_div.window_cycles > c_mul.window_cycles

    def test_rob_limits_extraction(self):
        fp = _fp_stream(3000)
        big = OoOCore(CoreParams(rob_size=128))
        tiny = OoOCore(CoreParams(rob_size=4))
        window = synthesize_trace("x", fp)
        assert tiny.simulate(window).window_cycles >= (
            big.simulate(window).window_cycles
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CoreParams(fetch_width=0)

    def test_empty_window(self):
        sched = OoOCore().simulate(synthesize_trace("x", []))
        assert sched.window_cycles == 0
        assert sched.cycle_of_fp(3) == 0

    def test_extrapolation_scales_with_total(self):
        window = synthesize_trace("x", _fp_stream(2000))
        small = OoOCore().simulate(window, total_fp_instructions=2000,
                                   ops_per_fp=5.0)
        large = OoOCore().simulate(window, total_fp_instructions=200_000,
                                   ops_per_fp=5.0)
        assert large.total_cycles > 50 * small.total_cycles


class TestFunctionalCore:
    def test_arithmetic_program(self):
        program = [
            Instruction("li", dest=1, imm=20),
            Instruction("li", dest=2, imm=22),
            Instruction("add", dest=3, src1=1, src2=2),
            Instruction("halt"),
        ]
        core = FunctionalCore()
        core.run(program)
        assert core.int_regs[3] == 42

    def test_loop_with_branch(self):
        # Sum 1..5 via a countdown loop.
        program = [
            Instruction("li", dest=1, imm=5),    # counter
            Instruction("li", dest=2, imm=0),    # acc
            Instruction("li", dest=3, imm=1),    # const 1
            Instruction("beqz", src1=1, target=7),
            Instruction("add", dest=2, src1=2, src2=1),
            Instruction("sub", dest=1, src1=1, src2=3),
            Instruction("jmp", target=3),
            Instruction("halt"),
        ]
        core = FunctionalCore()
        core.run(program)
        assert core.int_regs[2] == 15

    def test_fp_through_softfloat(self):
        from repro.utils.ieee754 import bits64_to_float, float_to_bits64

        core = FunctionalCore()
        core.fp_regs[1] = float_to_bits64(2.5)
        core.fp_regs[2] = float_to_bits64(4.0)
        program = [
            Instruction("fp", dest=3, src1=1, src2=2, fp_op=FpOp.MUL_D),
            Instruction("halt"),
        ]
        core.run(program)
        assert bits64_to_float(core.fp_regs[3]) == 10.0

    def test_injection_flips_destination(self):
        from repro.utils.ieee754 import float_to_bits64

        program = [
            Instruction("fp", dest=3, src1=1, src2=2, fp_op=FpOp.ADD_D),
            Instruction("halt"),
        ]
        clean = FunctionalCore()
        clean.fp_regs[1] = float_to_bits64(1.0)
        clean.fp_regs[2] = float_to_bits64(2.0)
        clean.run(program)
        dirty = FunctionalCore()
        dirty.fp_regs[1] = float_to_bits64(1.0)
        dirty.fp_regs[2] = float_to_bits64(2.0)
        dirty.run(program, inject={0: 1 << 51})
        assert dirty.fp_regs[3] == clean.fp_regs[3] ^ (1 << 51)

    def test_memory_roundtrip_and_fault(self):
        core = FunctionalCore(memory_words=8)
        program = [
            Instruction("li", dest=1, imm=3),
            Instruction("li", dest=2, imm=77),
            Instruction("store", src1=1, src2=2, imm=0),
            Instruction("load", dest=4, src1=1, imm=0),
            Instruction("halt"),
        ]
        core.run(program)
        assert core.int_regs[4] == 77
        bad = [Instruction("li", dest=1, imm=99),
               Instruction("load", dest=2, src1=1, imm=0)]
        with pytest.raises(MemoryError):
            FunctionalCore(memory_words=8).run(bad)

    def test_step_budget(self):
        spin = [Instruction("jmp", target=0)]
        with pytest.raises(TimeoutError):
            FunctionalCore().run(spin, max_steps=100)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate")

    def test_fp_requires_fp_op(self):
        with pytest.raises(ValueError):
            Instruction("fp", dest=1)


# -- exact values ---------------------------------------------------------------
#
# The invariants above would survive a change that reorders one RNG draw
# or moves one timestamp.  These cases pin the exact bytes of every
# TraceWindow column and every PipelineSchedule field.  The RNG call
# sequence of synthesize_trace is part of the golden format (DESIGN.md
# §3): if these digests must change, the goldens are being versioned.

DIGESTS_PATH = Path(__file__).parent / "golden" / "trace_core_digests.json"

WINDOW_COLUMNS = ("cls", "latency", "dest", "src1", "src2", "fp_index",
                  "mispredicted")

CORE_VARIANTS = {
    "wide": CoreParams(int_units=3, mem_units=2, fp_units=2),
    "div_pipelined": CoreParams(fp_div_blocking=False),
    "rob4": CoreParams(rob_size=4),
    "fetch1": CoreParams(fetch_width=1),
    "fetch4": CoreParams(fetch_width=4),
}


def _mixed_stream(n=1500):
    """All 12 instructions, in an irregular order, DIVs included."""
    ops = list(FpOp)
    return [ops[(i * 7 + i // 5) % len(ops)] for i in range(n)]


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return f"{value.dtype}{list(value.shape)}:{digest.hexdigest()}"
    return f"{type(value).__name__}:{value!r}"


def _window_digest(window):
    return {name: _fingerprint(getattr(window, name))
            for name in WINDOW_COLUMNS}


def _schedule_digest(schedule):
    return {f.name: _fingerprint(getattr(schedule, f.name))
            for f in dataclasses.fields(schedule)}


def _exact_cases():
    """Case id -> (window, schedule) digests, recomputed from the code."""
    stream = _mixed_stream()
    cases = {}
    for name, mix in MIXES.items():
        for seed in (2021, 11):
            window = synthesize_trace(name, stream, mix=mix, seed=seed)
            cases[f"mix/{name}/{seed}"] = (window, OoOCore().simulate(window))
    half = synthesize_trace("half", stream, mix=TraceMix(ops_per_fp=0.5),
                            seed=2021)
    cases["mix/fractional"] = (half, OoOCore().simulate(half))
    capped = synthesize_trace("cg", stream, seed=2021, max_window=2000)
    cases["max_window"] = (capped, OoOCore().simulate(
        capped, total_fp_instructions=len(stream), ops_per_fp=5.0))
    empty = synthesize_trace("cg", [], seed=2021)
    cases["empty"] = (empty, OoOCore().simulate(empty))
    base = synthesize_trace("cg", stream, seed=2021)
    for label, params in CORE_VARIANTS.items():
        cases[f"core/{label}"] = (base, OoOCore(params).simulate(base))
    return {case: {"window": _window_digest(window),
                   "schedule": _schedule_digest(schedule)}
            for case, (window, schedule) in cases.items()}


class TestExactValues:
    @pytest.fixture(scope="class")
    def computed(self):
        return _exact_cases()

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(DIGESTS_PATH.read_text())

    def test_case_set_matches(self, computed, pinned):
        assert sorted(computed) == sorted(pinned)

    @pytest.mark.parametrize("part", ["window", "schedule"])
    def test_digests_match(self, computed, pinned, part):
        for case in sorted(pinned):
            assert computed[case][part] == pinned[case][part], case


if __name__ == "__main__":
    # Rewrites the pinned digests: only when the golden format is being
    # versioned on purpose (see DESIGN.md §3).
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(_exact_cases(), indent=1,
                                       sort_keys=True) + "\n")
