"""Workload infrastructure: FP interposition, budgets, classification.

:class:`FPContext` is the boundary between guest algorithms and the FPU:
all floating-point arithmetic of a benchmark flows through it, element by
element in dynamic-instruction order (vector calls count one dynamic FP
instruction per element).  The context

- counts the per-type dynamic instruction stream,
- optionally records operand bit patterns (the WA characterisation trace),
- applies injection bitmasks to the destination values of victim dynamic
  instructions, and
- enforces the 2x-golden execution budget that implements the paper's
  Timeout category, plus optional FP-exception trapping (a Crash source).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors.base import WorkloadProfile
from repro.fpu.formats import FpOp


class GuestCrash(Exception):
    """The guest program hit an unrecoverable condition (process crash)."""


class GuestFpException(GuestCrash):
    """A floating-point exception terminated the guest (paper: Crash)."""


class GuestTimeout(Exception):
    """The guest exceeded 2x the error-free execution budget."""


_OPS = tuple(FpOp)
#: FpOp ordinal -> (ufunc, single precision) for binary ops, else None.
_BINARY_META = [({"add": np.add, "sub": np.subtract, "mul": np.multiply,
                  "div": np.divide}[op.kind], not op.is_double)
                if op.has_two_operands else None for op in _OPS]
_ADD_D = FpOp.ADD_D.ordinal


@functools.lru_cache(maxsize=64)
def _periodic_index(length: int, shift: int) -> np.ndarray:
    index = (np.arange(length) - shift) % length
    index.flags.writeable = False
    return index


def roll(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(a, shift, axis)``'s C-order bytes, by a cached-index take."""
    return a.take(_periodic_index(a.shape[axis], shift), axis=axis)


class FPContext:
    """FP interposition layer between a guest algorithm and the FPU.

    numpy's FP error state is left to the caller (the campaign runner).
    """

    def __init__(
        self,
        corruption: Optional[Dict[FpOp, Dict[int, int]]] = None,
        record_trace: bool = False,
        trace_cap: int = 1_000_000,
        op_budget: Optional[int] = None,
        trap_nonfinite: bool = False,
        sequence_cap: int = 40_000,
    ):
        self.corruption = corruption or {}
        self.record_trace = record_trace
        self.trace_cap = trace_cap
        self.op_budget = op_budget
        self.trap_nonfinite = trap_nonfinite
        self.sequence_cap = sequence_cap

        # Tables indexed by op ordinal.  A call whose stream range misses
        # its op's [lo, hi) victim window does no corruption work.
        self._counts = [0] * len(_OPS)
        self._victims = [self.corruption.get(op) for op in _OPS]
        self._windows = [(min(v), max(v) + 1) if v else (0, 0)
                         for v in self._victims]
        self.ops_executed = 0
        self.corrupted_events = 0
        self._armed = False  # a corruption has landed; start trap checks
        self._trace_a: Dict[FpOp, List[np.ndarray]] = {}
        self._trace_b: Dict[FpOp, List[np.ndarray]] = {}
        self._trace_len: Dict[FpOp, int] = {}
        self.op_sequence: List[Tuple[FpOp, int]] = []  # run-length encoded

    # -- public arithmetic API (double precision) ---------------------------------
    def add(self, a, b):
        return self._binary(FpOp.ADD_D, a, b)

    def sub(self, a, b):
        return self._binary(FpOp.SUB_D, a, b)

    def mul(self, a, b):
        return self._binary(FpOp.MUL_D, a, b)

    def div(self, a, b):
        return self._binary(FpOp.DIV_D, a, b)

    def i2f(self, values):
        return self._conv(FpOp.I2F_D, values)

    def f2i(self, values):
        return self._conv(FpOp.F2I_D, values)

    # Single-precision variants (operands rounded to binary32 first).
    def add_s(self, a, b):
        return self._binary(FpOp.ADD_S, a, b)

    def sub_s(self, a, b):
        return self._binary(FpOp.SUB_S, a, b)

    def mul_s(self, a, b):
        return self._binary(FpOp.MUL_S, a, b)

    def div_s(self, a, b):
        return self._binary(FpOp.DIV_S, a, b)

    # Reductions built from the primitive stream.
    def sum(self, values):
        """Sequential-tree sum through the FPU add stream.

        One ADD_D charge and a bare ``np.add`` per level, unless an ADD_D
        victim lies in the tree, the tree would trip the budget or the
        trace is recorded: those trees go through ``add`` level by level.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        adds = arr.size - 1
        start = self._counts[_ADD_D]
        lo, hi = self._windows[_ADD_D]
        fused = (adds > 0 and not self.record_trace
                 and not (start < hi and lo < start + adds)
                 and (self.op_budget is None
                      or self.ops_executed + adds <= self.op_budget))
        trap = fused and self._armed and self.trap_nonfinite
        done = 0
        while arr.size > 1:
            half = arr.size // 2
            if not fused:
                paired = self.add(arr[:half], arr[half:2 * half])
            else:
                paired = np.add(arr[:half], arr[half:2 * half])
                done += half
                if trap and not np.isfinite(paired).all():
                    self._charge(FpOp.ADD_D, done)  # the levels run so far
                    raise GuestFpException("non-finite value raised SIGFPE")
            arr = (np.concatenate([paired, arr[2 * half:]])
                   if arr.size % 2 else paired)
        if fused:
            self._charge(FpOp.ADD_D, adds)
        return float(arr[0]) if arr.size else 0.0

    def dot(self, a, b):
        """Dot product: elementwise multiplies + tree sum."""
        return self.sum(self.mul(a, b))

    # -- counters ---------------------------------------------------------------
    @property
    def counters(self) -> Dict[FpOp, int]:
        """Per-op dynamic instruction counts (a fresh dict per read)."""
        return dict(zip(_OPS, self._counts))

    def op_count(self, op: FpOp) -> int:
        """``counters[op]`` without building the dict."""
        return self._counts[op.ordinal]

    # -- internals --------------------------------------------------------------
    def _charge(self, op: FpOp, n: int) -> int:
        start = self._counts[op.ordinal]
        self._counts[op.ordinal] = start + n
        self.ops_executed += n
        if self.op_budget is not None and self.ops_executed > self.op_budget:
            raise GuestTimeout(
                f"exceeded budget of {self.op_budget} FP operations"
            )
        sequence = self.op_sequence
        if sequence and sequence[-1][0] is op:
            sequence[-1] = (op, sequence[-1][1] + n)
        elif len(sequence) < self.sequence_cap:
            sequence.append((op, n))
        return start

    def _record(self, op: FpOp, a_bits: np.ndarray,
                b_bits: Optional[np.ndarray]) -> None:
        kept = self._trace_len.get(op, 0)
        if kept >= self.trace_cap:
            return
        room = self.trace_cap - kept
        self._trace_a.setdefault(op, []).append(a_bits[:room].copy())
        if b_bits is not None:
            self._trace_b.setdefault(op, []).append(b_bits[:room].copy())
        self._trace_len[op] = kept + min(room, a_bits.size)

    def _apply_corruption(self, op: FpOp, start: int,
                          result_bits: np.ndarray) -> bool:
        victims = self._victims[op.ordinal]
        if not victims:
            return False
        n = result_bits.size
        touched = False
        for index, mask in victims.items():
            offset = index - start
            if 0 <= offset < n:
                result_bits[offset] ^= np.uint64(mask)
                self.corrupted_events += 1
                touched = self._armed = True
        return touched

    def _trap_check(self, values: np.ndarray) -> None:
        if self.trap_nonfinite and self._armed:
            if not np.isfinite(values).all():
                raise GuestFpException("non-finite value raised SIGFPE")

    def _binary(self, op: FpOp, a, b):
        ufunc, single = _BINARY_META[op.ordinal]
        a_arr = np.asarray(a, dtype=np.float64)
        b_arr = np.asarray(b, dtype=np.float64)
        if single:
            a_arr = a_arr.astype(np.float32)
            b_arr = b_arr.astype(np.float32)
        # A fresh C-order result: corruption offsets follow the C-order
        # flattening of the broadcast.  Two 0-d operands give a scalar.
        result = ufunc(a_arr, b_arr, order="C")
        scalar = result.ndim == 0
        if scalar:
            result = result.reshape(1)
        n = result.size
        start = self._charge(op, n)

        if self.record_trace:
            # Operands broadcast into fresh C-order buffers (setitem is
            # several times cheaper than np.broadcast_to on small arrays).
            a_flat = np.empty(n, a_arr.dtype)
            b_flat = np.empty(n, b_arr.dtype)
            a_flat.reshape(result.shape)[...] = a_arr
            b_flat.reshape(result.shape)[...] = b_arr
            if single:
                self._record(op, a_flat.view(np.uint32).astype(np.uint64),
                             b_flat.view(np.uint32).astype(np.uint64))
            else:
                self._record(op, a_flat.view(np.uint64),
                             b_flat.view(np.uint64))

        lo, hi = self._windows[op.ordinal]
        if start < hi and lo < start + n:
            flat = result.reshape(-1)
            if single:
                bits = flat.view(np.uint32).astype(np.uint64)
                if self._apply_corruption(op, start, bits):
                    flat.view(np.uint32)[:] = bits
            else:
                self._apply_corruption(op, start, flat.view(np.uint64))

        if single:
            result = result.astype(np.float64)
        if (self._armed and self.trap_nonfinite
                and not np.isfinite(result).all()):
            raise GuestFpException("non-finite value raised SIGFPE")
        return result[0] if scalar else result

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
            self._apply_corruption(op, start, result.view(np.uint64))
            self._trap_check(result)
            return result[0] if scalar else result.reshape(shaped.shape)
        # f2i: round toward zero, saturating (matches the FPU semantics).
        src = arr.astype(np.float64)
        if self.record_trace:
            self._record(op, src.view(np.uint64), None)
        clipped = np.where(np.isnan(src), 0.0,
                           np.clip(src, -2.0**62, 2.0**62))
        result = np.trunc(clipped).astype(np.int64)
        self._apply_corruption(op, start, result.view(np.uint64))
        return int(result[0]) if scalar else result.reshape(shaped.shape)

    # -- checkpoint position ----------------------------------------------------------
    def checkpoint_position(self) -> Tuple[Dict[FpOp, int], int]:
        """The RNG-independent stream position: per-op counters + total.

        This pair fully determines where corruption indices land and when
        the op budget expires, so restoring it (plus the workload state)
        resumes an execution bit-identically.
        """
        return ({op: n for op, n in zip(_OPS, self._counts) if n},
                self.ops_executed)

    def restore_position(self, counters: Dict[FpOp, int],
                         ops_executed: int) -> None:
        """Fast-forward this context to a recorded stream position."""
        self._counts = [int(counters.get(op, 0)) for op in _OPS]
        self.ops_executed = int(ops_executed)

    # -- profile extraction ---------------------------------------------------------
    def profile(self, name: str, ops_per_fp: float) -> WorkloadProfile:
        """Summarise the run into a :class:`WorkloadProfile` (golden runs)."""
        trace: Dict[FpOp, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for op, chunks in self._trace_a.items():
            a_bits = np.concatenate(chunks) if chunks else np.zeros(0, np.uint64)
            b_chunks = self._trace_b.get(op)
            b_bits = np.concatenate(b_chunks) if b_chunks else None
            trace[op] = (a_bits, b_bits)
        counts = {op: n for op, n in zip(_OPS, self._counts) if n > 0}
        fp_total = sum(counts.values())
        return WorkloadProfile(
            name=name,
            counts_by_op=counts,
            trace_by_op=trace,
            total_instructions=int(round(fp_total * (1.0 + ops_per_fp))),
        )

    def fp_op_sequence(self, limit: int = 100_000) -> List[FpOp]:
        """Expand the run-length encoded op sequence (for trace synthesis)."""
        out: List[FpOp] = []
        for op, n in self.op_sequence:
            take = min(n, limit - len(out))
            out.extend([op] * take)
            if len(out) >= limit:
                break
        return out


class Workload(abc.ABC):
    """One Table II benchmark.

    Subclasses build a deterministic input at construction, implement
    :meth:`run` entirely through the supplied :class:`FPContext`, and
    define :meth:`outputs_equal` per their Table II classification
    criterion.
    """

    #: Table II name, input descriptor and classification criterion.
    name: str = "?"
    classification = "Output comparison"
    #: Key into repro.uarch.trace.MIXES.
    mix_name: str = "default"
    #: Whether the guest runs with FP-exception trapping (Crash source).
    trap_nonfinite: bool = False

    def __init__(self, scale: str = "paper", seed: int = 2021):
        if scale not in ("tiny", "small", "paper"):
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale
        self.seed = seed
        self.input_descriptor = ""
        self._build_input()

    @abc.abstractmethod
    def _build_input(self) -> None:
        """Create the deterministic input arrays for the chosen scale."""

    @abc.abstractmethod
    def run(self, ctx: FPContext):
        """Execute the benchmark through ``ctx``; return its output."""

    @abc.abstractmethod
    def outputs_equal(self, golden, observed) -> bool:
        """Table II classification: does the output verify against golden?"""

    # -- checkpointable step protocol ---------------------------------------------
    #: Whether this workload implements the step protocol below.  Workloads
    #: that keep a monolithic :meth:`run` stay non-checkpointable and
    #: campaigns transparently fall back to full replay for them.
    checkpointable: bool = False

    def initial_state(self) -> Dict[str, object]:
        """Fresh mutable state dict for :meth:`advance` (no FP ops)."""
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def advance(self, ctx: FPContext, state: Dict[str, object]) -> bool:
        """Execute one outer step, mutating ``state``; True while more remain.

        The concatenated FP-op stream of ``initial_state`` + ``advance``
        calls + ``finalize`` must be identical to :meth:`run`'s — that
        equivalence is what makes snapshots at step boundaries sound.
        """
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def finalize(self, ctx: FPContext, state: Dict[str, object]):
        """Produce the final output from a fully-advanced ``state``."""
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def run_from(self, ctx: FPContext, state: Dict[str, object]):
        """Drive the step protocol from ``state`` to the final output."""
        while self.advance(ctx, state):
            pass
        return self.finalize(ctx, state)

    def sdc_magnitude(self, golden, observed) -> Optional[float]:
        """How wrong an SDC output is: relative L2 error vs golden.

        Purely observational (flight-recorder drill-downs); never part of
        classification, which stays with :meth:`outputs_equal`.  Returns
        ``None`` when the outputs don't admit a numeric distance (shape
        mismatch, non-array output, zero-norm golden with equal shapes).
        """
        try:
            with np.errstate(all="ignore"):
                g = np.asarray(golden, dtype=np.float64)
                o = np.asarray(observed, dtype=np.float64)
                if g.shape != o.shape:
                    return None
                denom = float(np.linalg.norm(g.ravel()))
                diff = float(np.linalg.norm((o - g).ravel()))
                if np.isnan(diff):
                    # Non-finite corruption: infinitely far from golden.
                    return float("inf")
                if denom > 0.0:
                    return diff / denom
                return diff if diff > 0.0 else None
        except (TypeError, ValueError):
            return None

    @property
    def ops_per_fp(self) -> float:
        from repro.uarch.trace import MIXES

        return MIXES.get(self.mix_name, MIXES["default"]).ops_per_fp

    def make_context(self, **kwargs) -> FPContext:
        kwargs.setdefault("trap_nonfinite", self.trap_nonfinite)
        return FPContext(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(scale={self.scale!r})"
