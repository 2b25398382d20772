"""Parallel, content-addressed characterization pipeline.

The model-development phase (Fig. 2, left half) is the framework's hot
path: DA/IA/WA characterisation runs DTA over up to 1 M operands per
instruction type per benchmark.  This module is the one engine for that
phase; the ``characterize_*`` drivers in :mod:`repro.errors.characterize`
delegate to it.

Three mechanisms:

1. **Work-unit decomposition + worker pool.**  Characterisation splits
   into units ``(op | trace entry | point, sample range)`` which a pool
   of forked workers processes (``PipelineConfig.workers``), reusing the
   fork/teardown discipline of :mod:`repro.campaign.executor`: workers
   inherit the job state by fork (nothing large is pickled), ignore
   SIGINT, zero their inherited telemetry and detach file sinks, and
   ship small count payloads plus telemetry deltas back over the pipe.
   Reductions are order-fixed sums/concatenations, so **any worker count
   produces bit-identical models**.

2. **One operand stream per model.**  IA operands of an op always come
   from the sequential stream ``ia-characterization/<op>``, DA trace
   selections from the sequential stream ``da-characterization``.  A
   unit covering samples ``[lo, hi)`` slices them out of the full stream,
   which its job regenerates once per process and memoises (one op's
   operand arrays at a time; dropped with the job), so **any chunk size
   produces bit-identical models** too.  WA characterisation draws no
   random numbers at all.

3. **Content-addressed model cache.**  ``PipelineConfig.cache_dir``
   enables an on-disk cache of finished models layered on
   :mod:`repro.errors.store` artifacts.  The key is a SHA-256 over every
   input that determines the result: model kind, op set, operating
   points, seed, sample budget, trace digest, burst window, the store
   ``format_version`` and the pipeline version — change any component
   and the key changes.  Corrupt or stale entries are detected on load,
   counted (``characterize.cache.invalid``) and recomputed.

Every chunk goes through :meth:`repro.fpu.unit.FPU.dta`, which is
cache-blocked and skips the points :meth:`TimingModel.is_error_free`
proves clean; that proof is applied there and nowhere else.  Chunks
default to :data:`repro.fpu.unit.DEFAULT_DTA_BATCH`, and only per-bit
counters and fault lists survive a unit.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import artifacts as artifacts_mod
from repro.circuit.liberty import OperatingPoint
from repro.errors.base import Provenance, WorkloadProfile
from repro.errors.da import DaModel
from repro.errors.ia import IaModel, InstructionStats
from repro.errors.wa import TraceFaults, WaModel
from repro.errors import store
from repro.errors.characterize import (
    DEFAULT_SAMPLE,
    _per_bit_counts,
    random_operands,
)
from repro.fpu.formats import ALL_OPS, FpOp
from repro.fpu.unit import DEFAULT_DTA_BATCH, FPU
from repro.utils.bitops import count_ones
from repro.utils.rng import RngStream
from repro import telemetry

#: Bumped whenever the pipeline's sampling scheme changes in a way that
#: alters results; part of every cache key.
PIPELINE_VERSION = 2

PathLike = Union[str, Path]


class PipelineError(RuntimeError):
    """A characterization worker failed while computing a unit."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the characterization engine.

    ``workers=0`` (default) computes units serially in-process,
    bit-identical to any pool size.  ``chunk`` bounds the operand count
    per unit (``None`` = one unit per op/trace entry); every value gives
    the same model.  ``cache_dir`` enables the content-addressed model
    cache.

    ``min_fanout_vectors`` keeps small jobs off the fork pool: below
    that many total operand vectors the fork + pipe overhead (~5-10 ms
    per worker) exceeds any parallel win, so the job runs serially —
    the result is bit-identical either way.  Set it to 0 to force the
    pool for any job size (the differential tests do).
    """

    workers: int = 0
    chunk: Optional[int] = DEFAULT_DTA_BATCH
    cache_dir: Optional[PathLike] = None
    min_fanout_vectors: int = 262_144

    def __post_init__(self):
        if self.chunk is not None and self.chunk < 1:
            raise ValueError(f"chunk must be >= 1 or None, got {self.chunk}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.min_fanout_vectors < 0:
            raise ValueError("min_fanout_vectors must be >= 0, got "
                             f"{self.min_fanout_vectors}")


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def trace_digest(profile: WorkloadProfile) -> str:
    """SHA-256 over a profile's operand trace (the WA/DA cache input).

    Ops are folded in mnemonic order so the digest depends on trace
    *content*, not dict insertion order.
    """
    h = hashlib.sha256()
    h.update(profile.name.encode())
    for op in sorted(profile.trace_by_op, key=lambda o: o.value):
        a, b = profile.trace_by_op[op]
        h.update(op.value.encode())
        h.update(np.ascontiguousarray(a, dtype=np.uint64).tobytes())
        if b is not None:
            h.update(np.ascontiguousarray(b, dtype=np.uint64).tobytes())
    return h.hexdigest()


def _point_key(point: OperatingPoint) -> list:
    return [point.name, float(point.voltage),
            getattr(point, "factor", None)]


def cache_key(kind: str, *,
              points: Sequence[OperatingPoint],
              op_set: Optional[Iterable[FpOp]] = None,
              seed: Optional[int] = None,
              samples: Optional[int] = None,
              trace: Optional[str] = None,
              burst_window: Optional[int] = None) -> str:
    """Content address of one characterised model.

    Every input that determines the result participates: changing the
    model kind, op set, any operating point, the seed, the sample
    budget, the trace digest, the burst window, the artifact
    ``format_version`` or the pipeline version yields a different key.
    """
    payload = {
        "kind": kind,
        "format_version": store.FORMAT_VERSION,
        "pipeline_version": PIPELINE_VERSION,
        "points": [_point_key(point) for point in points],
        "ops": ([op.value for op in op_set] if op_set is not None else None),
        "seed": seed,
        "samples": samples,
        "trace": trace,
        "burst_window": burst_window,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ModelCache:
    """Content-addressed model cache over the unified artifact store.

    Entries live in the :class:`~repro.artifacts.ArtifactStore` under
    the ``model-cache`` namespace: the cached bytes are an ordinary
    store artifact (inspectable JSON, provenance included) held as a
    SHA-256-addressed object, with a ref named by the cache-key prefix
    pointing at it.  Because the namespace partitions the store, a
    model key can never alias a snapshot page or journal stored in the
    same backend.

    A hit returns the stored model; an unreadable, truncated,
    checksum-failing or format-stale entry counts as
    ``characterize.cache.invalid``, is *quarantined* (ref and object
    renamed aside with a ``.quarantined`` suffix so the corrupt bytes
    stay inspectable but can never be served) and falls back to
    recomputation, after which the entry is rewritten atomically.  A
    failing write (disk full, injected fault) degrades to "not cached"
    instead of failing the characterisation.
    """

    NAMESPACE = "model-cache"

    def __init__(self, root: Optional[PathLike] = None,
                 artifacts: Optional["artifacts_mod.ArtifactStore"] = None):
        if artifacts is None:
            if root is None:
                raise ValueError("ModelCache needs a root dir or an "
                                 "ArtifactStore")
            artifacts = artifacts_mod.ArtifactStore.local(root)
        self.artifacts = artifacts
        root = artifacts.local_root if root is None else Path(root)
        self.root = root
        self._stats = {"hit": 0, "miss": 0, "invalid": 0,
                       "quarantined": 0, "store_errors": 0}

    @staticmethod
    def _name(kind: str, key: str) -> str:
        return f"{kind.lower()}_{key[:32]}.json"

    def path(self, kind: str, key: str) -> Path:
        """Local path of the cached artifact's content bytes.

        Resolves through the ref to the content-addressed object, so
        the returned file holds the exact model JSON (loadable with
        :func:`repro.errors.store.load_any`).  For an entry that was
        never stored, the (non-existent) ref path is returned so
        ``path(...).exists()`` keeps meaning "cached".
        """
        name = self._name(kind, key)
        try:
            address = self.artifacts.resolve(self.NAMESPACE, name)
        except artifacts_mod.ArtifactIntegrityError:
            address = None
        if address is None:
            return self.artifacts.ref_path(self.NAMESPACE, name)
        return self.artifacts.object_path(address)

    def _count(self, outcome: str) -> None:
        self._stats[outcome] += 1
        telemetry.count(f"characterize.cache.{outcome}")

    def _invalidate(self, name: str) -> None:
        """Quarantine a corrupt entry; it must never be served again."""
        self._count("invalid")
        if self.artifacts.quarantine(self.NAMESPACE, name):
            self._count("quarantined")

    def load(self, kind: str, key: str):
        name = self._name(kind, key)
        try:
            blob = self.artifacts.get(self.NAMESPACE, name)
        except artifacts_mod.ArtifactIntegrityError:
            # The store already quarantined the rotted object/ref pair
            # (bit-rot caught by content addressing, dangling refs).
            self._count("invalid")
            self._count("quarantined")
            return None
        if blob is None:
            self._count("miss")
            return None
        try:
            model = store.loads_model(blob, kind)
        except Exception:
            # Corrupt (torn JSON, artifact-checksum failure) or stale
            # (an older format_version the store no longer accepts):
            # quarantine, recompute, rewrite.
            self._invalidate(name)
            return None
        self._count("hit")
        return model

    def store(self, kind: str, key: str, model) -> Optional[Path]:
        name = self._name(kind, key)
        try:
            # Artifact-store puts are atomic (temp + fsync + replace).
            address = self.artifacts.put(self.NAMESPACE, name,
                                         store.dumps_model(model),
                                         target="cache")
        except OSError:
            self._count("store_errors")
            return None
        try:
            return self.artifacts.object_path(address)
        except NotImplementedError:  # memory/S3-shaped backend
            return None

    def stats(self) -> Dict[str, int]:
        """Lifetime hit/miss/invalid/quarantine counts of this instance.

        Tracked instance-locally (so they work with telemetry disabled)
        and mirrored into the ``characterize.cache.*`` telemetry
        counters when collection is on.
        """
        return dict(self._stats)


# ---------------------------------------------------------------------------
# Work-unit jobs (fork-inherited by workers; units are small index tuples)
# ---------------------------------------------------------------------------

def _ranges(total: int, chunk: Optional[int]) -> List[Tuple[int, int]]:
    """Split ``[0, total)`` into chunk-bounded half-open ranges."""
    if total <= 0:
        return []
    if chunk is None or chunk >= total:
        return [(0, total)]
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


class _IaJob:
    """IA characterisation: units are (op index, sample range)."""

    def __init__(self, fpu: FPU, points: Sequence[OperatingPoint],
                 op_list: List[FpOp], samples_per_op: int, seed: int,
                 chunk: Optional[int]):
        self.fpu = fpu
        self.points = list(points)
        self.ops = op_list
        self.samples = samples_per_op
        self.seed = seed
        self.units: List[Tuple[int, int, int]] = [
            (index, lo, hi) for index in range(len(op_list))
            for lo, hi in _ranges(samples_per_op, chunk)
        ]
        self._memo: Optional[tuple] = None

    def _operands(self, index: int
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The op's full ``ia-characterization/<op>`` operand stream."""
        if self._memo is None or self._memo[0] != index:
            self._memo = None  # free the previous op's arrays first
            op = self.ops[index]
            rng = RngStream(self.seed, "ia-characterization").child(op.value)
            self._memo = (index, *random_operands(op, self.samples, rng))
        return self._memo[1], self._memo[2]

    def compute(self, unit: Tuple[int, int, int]) -> Dict[str, tuple]:
        index, lo, hi = unit
        op = self.ops[index]
        a, b = self._operands(index)
        batch = self.fpu.dta(op, a[lo:hi],
                             b[lo:hi] if b is not None else None, self.points)
        telemetry.count("characterize.ia.samples", hi - lo)
        out = {}
        for point in self.points:
            mask = batch.masks[point.name]
            faulty = mask[mask != 0]
            out[point.name] = (int(faulty.size),
                               _per_bit_counts(faulty, op.fmt.width))
        return out

    def reduce(self, payloads: List[Dict[str, tuple]]) -> IaModel:
        acc: Dict[Tuple[int, str], list] = {}
        for (index, _, _), payload in zip(self.units, payloads):
            for point_name, (faulty, counts) in payload.items():
                entry = acc.setdefault((index, point_name), [0, None])
                entry[0] += faulty
                entry[1] = counts if entry[1] is None else entry[1] + counts
        stats: Dict[str, Dict[FpOp, InstructionStats]] = {
            point.name: {} for point in self.points
        }
        for index, op in enumerate(self.ops):
            width = op.fmt.width
            for point in self.points:
                faulty, counts = acc.get((index, point.name),
                                         (0, np.zeros(width, dtype=np.int64)))
                conditional = (counts / faulty) if faulty else (
                    np.zeros(width)
                )
                stats[point.name][op] = InstructionStats(
                    error_ratio=faulty / self.samples,
                    bit_probabilities=conditional,
                    sample_size=self.samples,
                )
        return IaModel(stats)


class _DaJob:
    """DA characterisation: units are (point, pool entry, sample range)."""

    def __init__(self, fpu: FPU, profiles: Sequence[WorkloadProfile],
                 points: Sequence[OperatingPoint], sample_per_point: int,
                 seed: int, chunk: Optional[int]):
        self.fpu = fpu
        self.points = list(points)
        self.seed = seed
        self.pool: List[Tuple[FpOp, np.ndarray, Optional[np.ndarray]]] = []
        for profile in profiles:
            for op, (a, b) in profile.trace_by_op.items():
                if a.size:
                    self.pool.append((op, a, b))
        if not self.pool:
            raise ValueError(
                "DA characterisation needs at least one non-empty trace")
        total_weight = sum(a.size for _, a, _ in self.pool)
        self.takes = [
            min(max(1, int(round(sample_per_point * a.size / total_weight))),
                a.size)
            for _, a, _ in self.pool
        ]
        self.units: List[Tuple[int, int, int, int]] = [
            (pi, ei, lo, hi) for pi in range(len(self.points))
            for ei, take in enumerate(self.takes)
            for lo, hi in _ranges(take, chunk)
        ]
        self._memo: Optional[List[np.ndarray]] = None

    def _selection(self, pi: int, ei: int) -> np.ndarray:
        """Trace indices of (point, entry) in the ``da-characterization``
        stream, drawn point-major, entry-minor."""
        if self._memo is None:
            rng = RngStream(self.seed, "da-characterization")
            self._memo = [rng.integers(0, a.size, size=take)
                          for _ in self.points
                          for (_, a, _), take in zip(self.pool, self.takes)]
        return self._memo[pi * len(self.pool) + ei]

    def compute(self, unit: Tuple[int, int, int, int]) -> int:
        pi, ei, lo, hi = unit
        point = self.points[pi]
        op, a, b = self.pool[ei]
        sel = self._selection(pi, ei)[lo:hi]
        batch = self.fpu.dta(op, a[sel], b[sel] if b is not None else None,
                             [point])
        telemetry.count("characterize.da.samples", hi - lo)
        return int(np.count_nonzero(batch.masks[point.name]))

    def reduce(self, payloads: List[int]) -> DaModel:
        faulty = {point.name: 0 for point in self.points}
        for (pi, _, _, _), count in zip(self.units, payloads):
            faulty[self.points[pi].name] += count
        analysed = sum(self.takes)
        ratios = {
            point.name: (faulty[point.name] / analysed) if analysed else 0.0
            for point in self.points
        }
        return DaModel(ratios)


class _WaJob:
    """WA characterisation: units are (trace entry, sample range).

    Draws no random numbers; every payload is a pure function of the
    trace slice, and fault indices ascend within and across units.
    """

    def __init__(self, fpu: FPU, profile: WorkloadProfile,
                 points: Sequence[OperatingPoint], max_samples: int,
                 chunk: Optional[int]):
        self.fpu = fpu
        self.points = list(points)
        self.entries: List[tuple] = []
        for op, (a, b) in profile.trace_by_op.items():
            if a.size == 0:
                continue
            take = min(a.size, max_samples)
            self.entries.append((op, a[:take],
                                 b[:take] if b is not None else None, take))
        self.units: List[Tuple[int, int, int]] = [
            (ei, lo, hi) for ei, (_, _, _, take) in enumerate(self.entries)
            for lo, hi in _ranges(take, chunk)
        ]

    def compute(self, unit: Tuple[int, int, int]) -> Dict[str, tuple]:
        ei, lo, hi = unit
        op, a, b, _ = self.entries[ei]
        batch = self.fpu.dta(op, a[lo:hi],
                             b[lo:hi] if b is not None else None, self.points)
        telemetry.count("characterize.wa.samples", hi - lo)
        out = {}
        for point in self.points:
            mask = batch.masks[point.name]
            idx = np.nonzero(mask)[0].astype(np.int64)
            faulty = mask[idx].astype(np.uint64)
            out[point.name] = (idx + lo, faulty,
                               _per_bit_counts(faulty, op.fmt.width))
        return out

    def reduce(self, payloads: List[Dict[str, tuple]]
               ) -> Dict[str, Dict[FpOp, TraceFaults]]:
        parts: Dict[Tuple[int, str], list] = {}
        for (ei, _, _), payload in zip(self.units, payloads):
            for point_name, part in payload.items():
                parts.setdefault((ei, point_name), []).append(part)
        faults: Dict[str, Dict[FpOp, TraceFaults]] = {
            point.name: {} for point in self.points
        }
        for ei, (op, _, _, take) in enumerate(self.entries):
            for point in self.points:
                collected = parts[(ei, point.name)]
                faults[point.name][op] = TraceFaults(
                    op=op,
                    indices=np.concatenate([c[0] for c in collected]),
                    bitmasks=np.concatenate([c[1] for c in collected]),
                    analysed=take,
                    ber=sum(c[2] for c in collected) / take,
                )
        return faults


class _ArrayJob:
    """Chunked DTA reductions over caller-supplied operand arrays.

    Backs the Fig. 5 / Fig. 6 drivers: the caller keeps its own operand
    stream (so results stay bit-identical to its historical output) and
    the pipeline contributes chunking and the worker pool.  ``want``
    selects the reductions: per-bit flip counts, flip-count histograms,
    faulty totals.
    """

    def __init__(self, fpu: FPU, op: FpOp, a: np.ndarray,
                 b: Optional[np.ndarray], points: Sequence[OperatingPoint],
                 chunk: Optional[int], want: Tuple[str, ...]):
        self.fpu = fpu
        self.op = op
        self.a = np.asarray(a, dtype=np.uint64)
        self.b = None if b is None else np.asarray(b, dtype=np.uint64)
        self.points = list(points)
        self.want = want
        self.units = _ranges(self.a.size, chunk)

    def compute(self, unit: Tuple[int, int]) -> Dict[str, dict]:
        lo, hi = unit
        bb = self.b[lo:hi] if self.b is not None else None
        batch = self.fpu.dta(self.op, self.a[lo:hi], bb, self.points)
        width = self.op.fmt.width
        out = {}
        for point in self.points:
            mask = batch.masks[point.name]
            faulty = mask[mask != 0]
            part = {}
            if "bits" in self.want:
                part["bits"] = _per_bit_counts(faulty, width)
            if "hist" in self.want:
                flips = count_ones(faulty)
                part["hist"] = np.bincount(flips, minlength=width + 1
                                           ).astype(np.int64)[:width + 1]
            part["faulty"] = int(faulty.size)
            out[point.name] = part
        return out

    def reduce(self, payloads: List[Dict[str, dict]]) -> Dict[str, dict]:
        width = self.op.fmt.width
        out: Dict[str, dict] = {}
        for point in self.points:
            out[point.name] = {"faulty": 0, "analysed": int(self.a.size)}
            if "bits" in self.want:
                out[point.name]["bits"] = np.zeros(width, dtype=np.int64)
            if "hist" in self.want:
                out[point.name]["hist"] = np.zeros(width + 1, dtype=np.int64)
        for payload in payloads:
            for point_name, part in payload.items():
                entry = out[point_name]
                entry["faulty"] += part["faulty"]
                if "bits" in self.want:
                    entry["bits"] += part["bits"]
                if "hist" in self.want:
                    hist = part["hist"]
                    entry["hist"][:hist.size] += hist
        return out


# ---------------------------------------------------------------------------
# Worker pool (the executor's fork/teardown discipline, unit-granular)
# ---------------------------------------------------------------------------

def _worker_main(conn, job) -> None:
    """Worker loop: receive unit indices, send payloads + telemetry deltas.

    Runs in a forked child: ``job`` (with its operand arrays) is
    inherited, never pickled.  Mirrors the campaign executor's worker
    hygiene — SIGINT ignored (the parent coordinates shutdown),
    inherited telemetry zeroed so only this worker's deltas ship, and
    inherited file sinks detached so only the parent writes traces.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    telemetry.reset()
    collector = telemetry.get_collector()
    if collector is not None:
        for sink in collector.detach_sinks():
            try:
                sink.close()
            except Exception:  # pragma: no cover - sink already closed
                pass
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            try:
                message = {"type": "result", "index": task,
                           "payload": job.compute(job.units[task])}
            except Exception:
                message = {"type": "error", "index": task,
                           "error": traceback.format_exc()}
            if telemetry.enabled():
                message["telemetry"] = telemetry.get_collector().drain()
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass


class _WorkerHandle:
    """Parent-side view of one forked characterization worker."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Optional[int] = None
        self.alive = True

    @property
    def busy(self) -> bool:
        return self.alive and self.task is not None

    def assign(self, index: int) -> None:
        self.conn.send(index)
        self.task = index

    def retire(self) -> Optional[int]:
        """Kill a dead/broken worker; return the unit it was holding."""
        dropped, self.task = self.task, None
        self.alive = False
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        return dropped

    def shutdown(self) -> None:
        if not self.alive:
            return
        try:
            if self.process.is_alive():
                try:
                    self.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self.process.join(2.0)
        finally:
            self.retire()


_MISSING = object()


def _map_units(job, workers: int, min_fanout_vectors: int = 0) -> List:
    """``[job.compute(u) for u in job.units]``, possibly on a fork pool.

    Results always come back in unit order.  Worker deaths are absorbed:
    the dropped units (deterministic, side-effect-free) are recomputed
    in the parent.  A unit that *raises* is a real bug — the same
    exception would occur serially — and surfaces as PipelineError.

    Jobs streaming fewer than ``min_fanout_vectors`` operand vectors in
    total run serially: every unit tuple ends with its ``(lo, hi)``
    sample range, so the job size is known up front, and for small jobs
    the pool's fork + pipe cost dwarfs the work itself.
    """
    units = job.units
    total_vectors = sum(int(unit[-1]) - int(unit[-2]) for unit in units)
    if (workers <= 0 or len(units) <= 1
            or total_vectors < min_fanout_vectors
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [job.compute(unit) for unit in units]

    ctx = multiprocessing.get_context("fork")
    size = max(1, min(workers, len(units)))
    handles: List[_WorkerHandle] = []
    for _ in range(size):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=_worker_main, args=(child_conn, job),
                              daemon=True)
        process.start()
        child_conn.close()
        handles.append(_WorkerHandle(process, parent_conn))
    telemetry.count("characterize.workers", size)

    results: List = [_MISSING] * len(units)
    pending = deque(range(len(units)))
    failure: Optional[str] = None
    try:
        for handle in handles:
            if pending:
                handle.assign(pending.popleft())
        while failure is None and any(h.busy for h in handles):
            ready = set(_connection_wait(
                [h.conn for h in handles if h.busy]))
            for handle in handles:
                if not handle.busy or handle.conn not in ready:
                    continue
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-unit: recompute its unit here.
                    telemetry.count("characterize.pool.worker_deaths")
                    dropped = handle.retire()
                    if dropped is not None:
                        pending.append(dropped)
                    continue
                if "telemetry" in message:
                    telemetry.merge(message.pop("telemetry"))
                if message["type"] == "error":
                    failure = message["error"]
                    handle.task = None
                    break
                results[message["index"]] = message["payload"]
                handle.task = None
                if pending:
                    index = pending.popleft()
                    try:
                        handle.assign(index)
                    except (BrokenPipeError, OSError):
                        telemetry.count("characterize.pool.worker_deaths")
                        handle.retire()
                        pending.append(index)
    finally:
        for handle in handles:
            handle.shutdown()
    if failure is not None:
        raise PipelineError(
            "characterization worker failed:\n" + failure)
    # Deterministic fallback: units dropped by dead workers (or never
    # assigned because the whole pool died) run in the parent.
    for index, payload in enumerate(results):
        if payload is _MISSING:
            results[index] = job.compute(units[index])
    return results


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class CharacterizationPipeline:
    """The characterization engine behind the ``characterize_*`` drivers.

    Every model is bit-identical across all (workers, chunk)
    combinations: IA/DA slice one sequential operand stream per model,
    WA draws no random numbers.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 fpu: Optional[FPU] = None):
        self.config = config or PipelineConfig()
        self.fpu = fpu or FPU()
        self.cache: Optional[ModelCache] = None
        if self.config.cache_dir is not None:
            self.cache = ModelCache(self.config.cache_dir)

    # -- cache plumbing ----------------------------------------------------------
    def _cached(self, kind: str, key: str, build):
        if self.cache is None:
            return build()
        model = self.cache.load(kind, key)
        if model is not None:
            return model
        model = build()
        self.cache.store(kind, key, model)
        return model

    def _run(self, job):
        telemetry.count("characterize.pipeline.units", len(job.units))
        return job.reduce(_map_units(job, self.config.workers,
                                     self.config.min_fanout_vectors))

    # -- model builders ----------------------------------------------------------
    def characterize_ia(self, points: Sequence[OperatingPoint],
                        samples_per_op: int = DEFAULT_SAMPLE,
                        seed: int = 2021,
                        ops_under_test: Optional[Iterable[FpOp]] = None,
                        ) -> IaModel:
        """IA model from uniform random operands per op (cf. Fig. 7)."""
        op_list = list(ops_under_test or ALL_OPS)
        key = cache_key("IA", points=points, op_set=op_list, seed=seed,
                        samples=samples_per_op)

        def build() -> IaModel:
            job = _IaJob(self.fpu, points, op_list, samples_per_op, seed,
                         self.config.chunk)
            model = self._run(job)
            model.provenance = Provenance(
                seed=seed, samples=samples_per_op,
                points=tuple(point.name for point in points),
            )
            return model

        return self._cached("IA", key, build)

    def characterize_da(self, profiles: Sequence[WorkloadProfile],
                        points: Sequence[OperatingPoint],
                        sample_per_point: int = DEFAULT_SAMPLE,
                        seed: int = 2021) -> DaModel:
        """DA model: one fixed ER per point from the benchmark mix."""
        digest = hashlib.sha256(
            "".join(trace_digest(profile) for profile in profiles).encode()
        ).hexdigest()
        key = cache_key("DA", points=points, seed=seed,
                        samples=sample_per_point, trace=digest)

        def build() -> DaModel:
            job = _DaJob(self.fpu, profiles, points,
                         sample_per_point, seed, self.config.chunk)
            model = self._run(job)
            model.provenance = Provenance(
                benchmark="+".join(profile.name for profile in profiles),
                seed=seed, samples=sample_per_point,
                points=tuple(point.name for point in points),
                trace_digest=digest,
            )
            return model

        return self._cached("DA", key, build)

    def characterize_wa(self, profile: WorkloadProfile,
                        points: Sequence[OperatingPoint],
                        max_samples: int = 1_000_000,
                        burst_window: int = 8) -> WaModel:
        """WA model over the workload's own trace (cf. Fig. 8)."""
        digest = trace_digest(profile)
        key = cache_key("WA", points=points, samples=max_samples,
                        trace=digest, burst_window=burst_window)

        def build() -> WaModel:
            job = _WaJob(self.fpu, profile, points, max_samples,
                         self.config.chunk)
            model = WaModel(workload=profile.name, faults=self._run(job),
                            burst_window=burst_window)
            model.provenance = Provenance(
                benchmark=profile.name, samples=max_samples,
                points=tuple(point.name for point in points),
                trace_digest=digest,
            )
            return model

        return self._cached("WA", key, build)

    # -- chunked reductions for the figure drivers -------------------------------
    def per_bit_ber(self, op: FpOp, a: np.ndarray,
                    b: Optional[np.ndarray],
                    points: Sequence[OperatingPoint]
                    ) -> Dict[str, np.ndarray]:
        """Unconditional per-bit error ratios over given operands (Fig. 6).

        Pure count reduction: bit-identical to a full-batch evaluation
        for any chunk size or worker count.
        """
        job = _ArrayJob(self.fpu, op, a, b, points, self.config.chunk,
                        want=("bits",))
        reduced = self._run(job)
        n = max(1, int(job.a.size))
        return {point.name: reduced[point.name]["bits"] / n
                for point in points}

    def flip_histograms(self, op: FpOp, a: np.ndarray,
                        b: Optional[np.ndarray],
                        points: Sequence[OperatingPoint]
                        ) -> Dict[str, np.ndarray]:
        """Histogram of flips-per-faulty-instruction per point (Fig. 5).

        ``result[point][k]`` counts faulty instructions whose mask flips
        exactly ``k`` bits (``k >= 1``; index 0 is always zero).
        """
        job = _ArrayJob(self.fpu, op, a, b, points, self.config.chunk,
                        want=("hist",))
        reduced = self._run(job)
        return {point.name: reduced[point.name]["hist"]
                for point in points}
