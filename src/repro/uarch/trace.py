"""Dynamic-trace synthesis around a workload's FP instruction stream.

The workloads (``repro.workloads``) execute their real algorithms and
stream real FP operations; the surrounding integer/memory/branch
instructions — address arithmetic, loop control, loads/stores — determine
pipeline behaviour but not FP values.  This module synthesises that
surrounding stream from a per-benchmark :class:`TraceMix` (measured mixes
of the original programs' flavours: stencil codes are load/store heavy,
cg is branchy on sparse indices, is is integer-dominated), producing the
deterministic :class:`TraceWindow` arrays the OoO core model consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.fpu.formats import FpOp
from repro.uarch.isa import CLASS_LATENCY, NUM_REGS, InstrClass
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class TraceMix:
    """Instruction-mix shape of a benchmark.

    ``ops_per_fp`` — non-FP dynamic instructions per FP instruction
    (drives the Table II total-instruction scale); the four fractions
    split those among classes (they need not sum to 1; the remainder is
    INT_ALU).  ``branch_mispredict`` is the misprediction rate of the
    synthetic branch stream.
    """

    ops_per_fp: float
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.12
    branch_mispredict: float = 0.05

    def __post_init__(self):
        total = self.load_fraction + self.store_fraction + self.branch_fraction
        if not 0.0 <= total <= 1.0:
            raise ValueError("class fractions exceed 1.0")
        if self.ops_per_fp < 0:
            raise ValueError("ops_per_fp must be non-negative")


#: Measured-flavour mixes per benchmark (see DESIGN.md for the rationale).
MIXES: Dict[str, TraceMix] = {
    "sobel": TraceMix(ops_per_fp=6.0, load_fraction=0.35, store_fraction=0.12,
                      branch_fraction=0.10, branch_mispredict=0.02),
    "cg": TraceMix(ops_per_fp=5.0, load_fraction=0.38, store_fraction=0.08,
                   branch_fraction=0.14, branch_mispredict=0.06),
    "kmeans": TraceMix(ops_per_fp=4.0, load_fraction=0.30, store_fraction=0.08,
                       branch_fraction=0.16, branch_mispredict=0.08),
    "srad_v1": TraceMix(ops_per_fp=5.0, load_fraction=0.34, store_fraction=0.12,
                        branch_fraction=0.08, branch_mispredict=0.02),
    "hotspot": TraceMix(ops_per_fp=4.5, load_fraction=0.36, store_fraction=0.12,
                        branch_fraction=0.08, branch_mispredict=0.02),
    "is": TraceMix(ops_per_fp=24.0, load_fraction=0.30, store_fraction=0.18,
                   branch_fraction=0.14, branch_mispredict=0.10),
    "mg": TraceMix(ops_per_fp=5.5, load_fraction=0.36, store_fraction=0.12,
                   branch_fraction=0.07, branch_mispredict=0.03),
    "default": TraceMix(ops_per_fp=5.0),
}


@dataclass
class TraceWindow:
    """Column-oriented dynamic instruction window.

    ``cls`` holds :class:`InstrClass` codes; ``latency`` per-instruction
    execution latency; ``dest``/``src1``/``src2`` register ids (negative =
    none); ``fp_index`` the global FP-stream index for FP instructions
    (-1 otherwise); ``mispredicted`` flags branches the synthetic
    predictor misses.
    """

    cls: np.ndarray
    latency: np.ndarray
    dest: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    fp_index: np.ndarray
    mispredicted: np.ndarray

    def __len__(self) -> int:
        return int(self.cls.shape[0])

    @property
    def fp_count(self) -> int:
        return int(np.count_nonzero(self.cls == int(InstrClass.FP)))


#: Execution latency per filler class code (only filler classes are read).
_FILLER_LATENCY = np.array(
    [CLASS_LATENCY.get(c, 0) for c in InstrClass], dtype=np.int16)


def synthesize_trace(workload: str,
                     fp_ops: List[FpOp],
                     mix: Optional[TraceMix] = None,
                     seed: int = 2021,
                     max_window: int = 100_000) -> TraceWindow:
    """Build a trace window interleaving ``fp_ops`` with synthetic filler.

    ``fp_ops`` is the (possibly truncated) sequence of FP instruction
    types the workload executes; at most ``max_window`` total instructions
    are materialised (SimPoint-style window — the core model extrapolates
    CPI beyond it).

    The order and ``size`` of every generator call are part of the golden
    format (DESIGN.md §3).  Only those calls run per instruction; the
    columns are assembled from their results at the end.
    """
    mix = mix or MIXES.get(workload, MIXES["default"])
    generator = RngStream(seed, f"trace/{workload}").generator
    random = generator.random
    integers = generator.integers

    filler_per_fp = mix.ops_per_fp
    n_fp_window = max(1, min(
        len(fp_ops),
        int(max_window / (1.0 + filler_per_fp)),
    )) if fp_ops else 0

    store_below = mix.load_fraction + mix.store_fraction
    branch_below = store_below + mix.branch_fraction

    # Filler counts first, so the draws land in preallocated columns
    # instead of one small array per group.
    n_fillers: List[int] = []
    carry = 0.0
    for _ in range(n_fp_window):
        carry += filler_per_fp
        n_fillers.append(int(carry))
        carry -= n_fillers[-1]
    r = np.empty(sum(n_fillers))
    reg = np.empty(3 * len(r), dtype=np.int16)
    branch_mispredicted: List[bool] = []
    fp_src1: List[int] = []
    fp_src2: List[int] = []
    recent_fp: Deque[int] = deque(maxlen=6)
    pos = 0
    for i, n_filler in enumerate(n_fillers):
        draws = random(size=max(1, n_filler))
        regs = integers(0, NUM_REGS, size=3 * max(1, n_filler))
        if n_filler:
            r[pos:pos + n_filler] = draws
            reg[3 * pos:3 * (pos + n_filler)] = regs
            pos += n_filler
            for x in draws.tolist():
                if store_below <= x < branch_below:
                    branch_mispredicted.append(
                        random() < mix.branch_mispredict)
        # Realistic producer-consumer register allocation: destinations
        # rotate through a working set and sources usually read recent
        # producers (compilers keep FP lifetimes short but *used*); a
        # small fraction of results is genuinely dead (speculative
        # hoisting, unused lanes).
        if random() < 0.9 and recent_fp:
            fp_src1.append(recent_fp[integers(0, len(recent_fp))])
        else:
            fp_src1.append(int(integers(0, NUM_REGS)))
        if random() < 0.6 and recent_fp:
            fp_src2.append(recent_fp[integers(0, len(recent_fp))])
        else:
            fp_src2.append(int(integers(0, NUM_REGS)))
        recent_fp.append(2 + i % (NUM_REGS - 2))

    # Columnar assembly: FP instruction i sits after the fillers of
    # groups 0..i; every other row is a filler, in draw order.
    fp_pos = np.cumsum(np.asarray(n_fillers, dtype=np.int64)) \
        + np.arange(n_fp_window)
    is_filler = np.ones(n_fp_window + len(r), dtype=bool)
    is_filler[fp_pos] = False
    reg = reg.reshape(-1, 3)
    load, store, branch = (int(InstrClass.LOAD), int(InstrClass.STORE),
                           int(InstrClass.BRANCH))
    filler_cls = np.where(r < mix.load_fraction, load, np.where(
        r < store_below, store, np.where(
            r < branch_below, branch, int(InstrClass.INT_ALU))))
    filler_mispredicted = np.zeros(r.shape, dtype=bool)
    filler_mispredicted[filler_cls == branch] = branch_mispredicted

    def column(dtype, filler, fp):
        out = np.empty(is_filler.shape, dtype=dtype)
        out[is_filler] = filler
        out[fp_pos] = fp
        return out

    return TraceWindow(
        cls=column(np.int8, filler_cls, int(InstrClass.FP)),
        latency=column(np.int16, _FILLER_LATENCY[filler_cls],
                       [op.latency_cycles for op in fp_ops[:n_fp_window]]),
        dest=column(np.int16,
                    np.where((filler_cls == store) | (filler_cls == branch),
                             -1, reg[:, 0]),
                    2 + np.arange(n_fp_window) % (NUM_REGS - 2)),
        src1=column(np.int16, reg[:, 1], fp_src1),
        src2=column(np.int16, np.where(filler_cls == load, -1, reg[:, 2]),
                    fp_src2),
        fp_index=column(np.int64, -1, np.arange(n_fp_window)),
        mispredicted=column(bool, filler_mispredicted, False),
    )
