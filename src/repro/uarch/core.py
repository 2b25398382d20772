"""Cycle-level out-of-order core model and a small functional core.

:class:`OoOCore` is a timestamp-based OoO pipeline model (the standard
fast-microarchitecture-model construction): every dynamic instruction gets
fetch / issue / writeback / commit timestamps subject to fetch width, ROB
capacity, functional-unit structural hazards, register data dependencies
and branch-misprediction redirects.  It produces the
:class:`PipelineSchedule` the injector uses to place errors at cycles and
to resolve microarchitectural masking, and extrapolates whole-program
cycle counts from the simulated window (SimPoint-style).

:class:`FunctionalCore` executes small programs of the
:class:`repro.uarch.isa.Instruction` ISA with full semantics, routing FP
through the bit-accurate softfloat and applying injection bitmasks to
destination registers — the end-to-end demonstration vehicle of the
injection semantics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.fpu import softfloat
from repro.fpu.formats import FpOp
from repro.uarch.isa import Instruction, InstrClass, NUM_REGS
from repro.uarch.trace import TraceWindow


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural parameters (defaults: modest embedded OoO)."""

    fetch_width: int = 2
    rob_size: int = 64
    int_units: int = 2
    mem_units: int = 1
    fp_units: int = 1
    mispredict_penalty: int = 8
    fp_div_blocking: bool = True

    def __post_init__(self):
        if min(self.fetch_width, self.rob_size, self.int_units,
               self.mem_units, self.fp_units) < 1:
            raise ValueError("core parameters must be positive")


@dataclass
class PipelineSchedule:
    """Timing outcome of a trace window, plus whole-program extrapolation.

    ``fp_writeback[i]`` is the writeback cycle of the window's i-th FP
    instruction; ``wrong_path_fp_fraction`` the fraction of fetched FP
    instructions that were squashed on wrong paths; ``dead_fp_fraction``
    the fraction of committed FP results never read before overwrite.
    """

    window_instructions: int
    window_cycles: int
    cpi: float
    fp_writeback: np.ndarray
    fp_global_index: np.ndarray
    wrong_path_fp_fraction: float
    dead_fp_fraction: float
    store_forward_rate: float
    total_instructions: int = 0
    total_cycles: int = 0

    def cycle_of_fp(self, fp_index: int) -> int:
        """Cycle at which FP instruction ``fp_index`` writes back.

        Inside the simulated window this is exact; beyond it, the window's
        FP cadence extrapolates (documented sampling deviation).
        """
        if self.fp_writeback.size == 0:
            return 0
        pos = int(np.searchsorted(self.fp_global_index, fp_index))
        if pos < self.fp_writeback.size and \
                self.fp_global_index[pos] == fp_index:
            return int(self.fp_writeback[pos])
        per_fp = self.window_cycles / max(1, self.fp_writeback.size)
        return int(fp_index * per_fp)


class OoOCore:
    """Timestamp-based out-of-order pipeline model."""

    def __init__(self, params: CoreParams = CoreParams()):
        self.params = params

    def simulate(self, window: TraceWindow,
                 total_fp_instructions: Optional[int] = None,
                 ops_per_fp: Optional[float] = None) -> PipelineSchedule:
        """Timing-simulate a trace window and extrapolate program totals."""
        p = self.params
        n = len(window)
        if n == 0:
            return PipelineSchedule(
                window_instructions=0, window_cycles=0, cpi=0.0,
                fp_writeback=np.zeros(0, dtype=np.int64),
                fp_global_index=np.zeros(0, dtype=np.int64),
                wrong_path_fp_fraction=0.0, dead_fp_fraction=0.0,
                store_forward_rate=0.0,
            )

        # Python lists and floats throughout: numpy only at the edges.
        fp = int(InstrClass.FP)
        int_free = [0.0] * p.int_units
        mem_free = [0.0] * p.mem_units
        fp_free = [0.0] * p.fp_units
        # Per class code: rotating FU free times and register-bank offset.
        pool_of = [fp_free if c == fp else
                   mem_free if c in (InstrClass.LOAD, InstrClass.STORE) else
                   int_free for c in InstrClass]
        bank_of = [NUM_REGS if c == fp else 0 for c in InstrClass]
        reg_ready = [0.0] * (2 * NUM_REGS)
        step = 1.0 / p.fetch_width
        # Commit times of the last rob_size instructions, oldest first;
        # the zero padding stands for "no ROB limit yet".
        rob = deque([0.0] * p.rob_size, maxlen=p.rob_size)
        fp_writeback: List[float] = []
        next_fetch = 0.0
        last_commit = 0.0
        redirect_at = 0.0
        wrong_path_cycles = 0.0
        for c, lat, s1, s2, d, mispredicted in _rows(window):
            # Fetch: width, ROB occupancy, and any pending redirect.
            f = next_fetch
            if rob[0] > f:
                f = rob[0]
            if redirect_at > f:
                f = redirect_at
            next_fetch = f + step

            # Register read-after-write dependencies (FP bank offset).
            bank = bank_of[c]
            ready = f + 1.0  # decode/rename
            if s1 >= 0 and reg_ready[bank + s1] > ready:
                ready = reg_ready[bank + s1]
            if s2 >= 0 and reg_ready[bank + s2] > ready:
                ready = reg_ready[bank + s2]

            # Structural hazard on the right FU pool: the first unit
            # with the earliest free time.
            pool = pool_of[c]
            slot = pool.index(min(pool)) if len(pool) > 1 else 0
            start = pool[slot] if pool[slot] > ready else ready
            done = start + lat
            blocking = c == fp and lat >= 20 and p.fp_div_blocking
            pool[slot] = done if blocking else start + 1.0
            if c == fp:
                fp_writeback.append(done)

            if d >= 0:
                reg_ready[bank + d] = done

            if done > last_commit:
                last_commit = done
            rob.append(last_commit)

            if mispredicted and c == InstrClass.BRANCH:
                resolve = done + p.mispredict_penalty
                wrong_path_cycles += max(0.0, resolve - f)
                redirect_at = resolve

        window_cycles = math.ceil(last_commit)
        cpi = window_cycles / n

        fp_mask = window.cls == fp
        fp_wb = np.asarray(fp_writeback, dtype=np.float64).astype(np.int64)
        fp_idx = window.fp_index[fp_mask]

        # Wrong-path FP estimate: during redirect windows the front-end
        # fetched fetch_width instructions/cycle down the wrong path, with
        # the window's FP density.
        fp_density = fp_mask.mean()
        wrong_fp = wrong_path_cycles * p.fetch_width * fp_density
        wrong_frac = wrong_fp / max(1.0, wrong_fp + fp_mask.sum())

        dead_frac = _dead_write_fraction(window)
        fwd_rate = _store_forward_rate(window)

        total_fp = total_fp_instructions or int(fp_mask.sum())
        opf = ops_per_fp if ops_per_fp is not None else (
            (n - fp_mask.sum()) / max(1, fp_mask.sum())
        )
        total_instr = int(round(total_fp * (1.0 + opf)))
        total_cycles = int(round(total_instr * cpi))

        return PipelineSchedule(
            window_instructions=n,
            window_cycles=window_cycles,
            cpi=cpi,
            fp_writeback=fp_wb,
            fp_global_index=fp_idx,
            wrong_path_fp_fraction=float(wrong_frac),
            dead_fp_fraction=float(dead_frac),
            store_forward_rate=float(fwd_rate),
            total_instructions=total_instr,
            total_cycles=total_cycles,
        )


def _rows(window: TraceWindow):
    """The window's rows as Python values, converted a chunk at a time.

    Chunking bounds the per-column lists, so a golden build's peak
    memory stays below that of whole-window numpy timestamp arrays.
    """
    chunk = 8192
    columns = (window.cls, window.latency, window.src1, window.src2,
               window.dest, window.mispredicted)
    for lo in range(0, len(window), chunk):
        yield from zip(*(col[lo:lo + chunk].tolist() for col in columns))


def _dead_write_fraction(window: TraceWindow) -> float:
    """Fraction of FP register writes overwritten before any read."""
    fp = window.cls == int(InstrClass.FP)
    read_since: Dict[int, bool] = {}  # every written register: read yet?
    dead = 0
    total = 0
    for s1, s2, d in zip(window.src1[fp].tolist(), window.src2[fp].tolist(),
                         window.dest[fp].tolist()):
        for s in (s1, s2):
            if s >= 0 and s in read_since:
                read_since[s] = True
        if d >= 0:
            total += 1
            if not read_since.get(d, True):
                dead += 1
            read_since[d] = False
    return dead / total if total else 0.0


def _store_forward_rate(window: TraceWindow) -> float:
    """Fraction of loads serviced by an in-flight earlier store.

    Uses register-id coincidence as the (synthetic) address proxy: a load
    whose address register matches a store's within the last ROB-ish
    window forwards.
    """
    store = int(InstrClass.STORE)
    mem = (window.cls == store) | (window.cls == int(InstrClass.LOAD))
    recent_stores: Deque[int] = deque(maxlen=16)
    forwards = 0
    loads = 0
    for c, s1, s2 in zip(window.cls[mem].tolist(), window.src1[mem].tolist(),
                         window.src2[mem].tolist()):
        if c == store:
            recent_stores.append(s2)
        else:
            loads += 1
            if s1 in recent_stores:
                forwards += 1
    return forwards / loads if loads else 0.0


class FunctionalCore:
    """In-order functional core for the tiny demonstration ISA.

    Executes :class:`~repro.uarch.isa.Instruction` lists with two 32-entry
    register banks and a word-addressed memory.  FP instructions run
    through the bit-accurate softfloat; an ``inject`` map of
    {dynamic FP index: bitmask} XORs destination registers exactly the way
    the campaign injector corrupts the big workloads.
    """

    def __init__(self, memory_words: int = 1024):
        self.int_regs = [0] * NUM_REGS
        self.fp_regs = [0] * NUM_REGS
        self.memory = [0] * memory_words
        self.fp_dyn_count = 0
        self.instructions_executed = 0
        self.pc = 0
        self.halted = False

    def run(self, program: Sequence[Instruction],
            inject: Optional[Dict[int, int]] = None,
            max_steps: int = 1_000_000,
            step_limit: Optional[int] = None,
            resume: bool = False) -> int:
        """Execute until 'halt'; returns executed instruction count.

        ``step_limit`` stops after that many instructions with the
        architectural state (``pc``, registers, memory, ``fp_dyn_count``)
        intact; ``resume=True`` continues from the current state instead
        of restarting at instruction 0 — together they let a caller (or
        a restored :mod:`repro.uarch.snapshot` checkpoint) split one
        execution into prefix + suffix that is bit-identical to the
        unsplit run.
        """
        inject = inject or {}
        if not resume:
            self.pc = 0
            self.halted = False
        steps = 0
        while not self.halted and 0 <= self.pc < len(program):
            if steps >= max_steps:
                raise TimeoutError("functional core exceeded step budget")
            if step_limit is not None and steps >= step_limit:
                break
            instr = program[self.pc]
            steps += 1
            self.instructions_executed += 1
            next_pc = self._step(instr, self.pc, inject)
            if next_pc is None:
                self.halted = True
                break
            self.pc = next_pc
        return steps

    def _step(self, instr: Instruction, pc: int,
              inject: Dict[int, int]) -> Optional[int]:
        op = instr.opcode
        if op == "halt":
            return None
        if op == "li":
            self.int_regs[instr.dest] = instr.imm & 0xFFFFFFFFFFFFFFFF
        elif op == "add":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] + self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "sub":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] - self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "mul":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] * self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "fp":
            a = self.fp_regs[instr.src1]
            b = self.fp_regs[instr.src2]
            result = softfloat.execute(instr.fp_op, a, b)
            mask = inject.get(self.fp_dyn_count, 0)
            self.fp_dyn_count += 1
            self.fp_regs[instr.dest] = result ^ mask
        elif op == "load":
            address = self.int_regs[instr.src1] + instr.imm
            if not 0 <= address < len(self.memory):
                raise MemoryError(f"load fault at address {address}")
            self.int_regs[instr.dest] = self.memory[address]
        elif op == "store":
            address = self.int_regs[instr.src1] + instr.imm
            if not 0 <= address < len(self.memory):
                raise MemoryError(f"store fault at address {address}")
            self.memory[address] = self.int_regs[instr.src2]
        elif op == "beqz":
            if self.int_regs[instr.src1] == 0:
                return instr.target
        elif op == "jmp":
            return instr.target
        return pc + 1
