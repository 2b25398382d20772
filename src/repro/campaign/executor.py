"""Fault-tolerant campaign execution engine.

The paper's evaluation is tens of thousands of guest executions in which
crashing and hanging are *expected outcomes*.  This module makes the
harness survive them at scale:

- **Process isolation** (``workers > 0``): runs execute on a pool of
  forked worker processes.  A guest crash, segfault-equivalent worker
  death, or unexpected exception is contained to its worker and
  classified; the orchestrator never dies with a guest.  The pool is
  forked once per executor; workers get each cell's ``(model, point)``
  once and then blocks of run indices (leases), and answer one result
  message per run.
- **Wall-clock watchdog**: each run gets a SIGALRM watchdog inside the
  executing process (serial or worker), catching guests that hang
  without charging FP ops.  In pool mode the orchestrator additionally
  kills workers that blow through ``wall_clock_timeout`` with signals
  blocked — the run is classified Timeout either way.
- **Retry with bounded backoff + worker recycling**: harness-side
  failures (exceptions outside the guest boundary, workers dying before
  entering the guest) are retried up to ``max_retries`` times with
  exponential backoff; the worker involved is recycled.  Guest outcomes
  are never retried — they are the data.
- **Checkpoint/resume**: every classified run is appended to a
  :class:`~repro.campaign.journal.RunJournal` keyed by its deterministic
  RNG stream name, so a killed campaign resumes exactly where it
  stopped and replays bit-identically.
- **Graceful degradation**: a cell whose permanently-failed-run count
  exceeds ``degraded_threshold`` of its runs is marked degraded and
  returned with partial :class:`OutcomeCounts` instead of aborting the
  sweep.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import pickle
import signal
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional

from repro.campaign.adaptive import AdaptiveCellStream, AdaptiveConfig
from repro.campaign.journal import RunJournal, RunRecord, run_key
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    RunExecution,
)
from repro.circuit.liberty import OperatingPoint
from repro.errors.base import ErrorModel
from repro.uarch.injector import MicroArchInjector
from repro.utils.stats import confidence_sample_size
from repro import telemetry
from repro.observe import flight

#: Upper bound on how long the pool coordinator blocks waiting for
#: worker pipes.  A SIGKILLed worker normally surfaces as pipe EOF, but
#: under heavy load that wake-up has been observed to go missing; the
#: bounded wait guarantees the liveness sweep in ``_run_pool`` notices a
#: dead-but-silent worker within one interval instead of hanging the
#: coordinator forever.
_LIVENESS_INTERVAL_S = 5.0


@dataclass
class ExecutorConfig:
    """Knobs of the fault-tolerant executor.

    ``workers=0`` (the default) runs serially in-process — the test and
    library default.  ``wall_clock_timeout`` is per run, in seconds,
    independent of the FP-op budget; ``None`` disables the watchdog.
    """

    workers: int = 0
    wall_clock_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05            # seconds; doubles per attempt
    backoff_cap: float = 2.0
    degraded_threshold: float = 0.05  # failed-run fraction before giving up
    recycle_after: int = 500         # runs per worker before a fresh fork
    kill_grace: float = 5.0          # parent kill = wall timeout + grace
    journal_path: Optional[str] = None
    resume: bool = False
    fsync: str = "group"             # journal durability policy


@dataclass
class CellStats:
    """Executor accounting for one campaign cell."""

    runs: int = 0                # requested runs
    executed: int = 0            # runs executed this invocation
    resumed: int = 0             # runs replayed from the journal
    failed: int = 0              # runs abandoned after retries
    retries: int = 0             # harness-error retries performed
    watchdog_kills: int = 0      # runs stopped by a wall-clock watchdog
    harness_errors: int = 0      # harness-side failures observed
    worker_restarts: int = 0     # workers recycled, replaced or killed
    degraded: bool = False
    wall_time: float = 0.0
    workers: int = 0             # pool size used (0 = serial)
    # Fast-forward accounting (zero when snapshots are off).
    ff_restores: int = 0         # guest runs resumed from a snapshot
    ff_early_exits: int = 0      # runs that reconverged to the golden tail
    ff_ops_skipped: int = 0      # FP ops fast-forwarded past (prefixes)
    ff_ops_replayed: int = 0     # FP ops actually executed in suffixes
    ff_corrupt: int = 0          # snapshots quarantined on failed restore
    ff_cold_starts: int = 0      # runs restarted from the initial state
    # Adaptive sequential-sampling accounting (zero/None when off).
    adaptive: bool = False       # the cell ran under a stopping rule
    stop: Optional[object] = None  # the StopDecision, when one was made
    runs_saved: int = 0          # budget minus runs consumed at the stop
    runs_discarded: int = 0      # speculative results dropped at the stop
    weight_sum: float = 0.0      # Σ importance weights over counted runs
    weighted_non_masked: float = 0.0  # Σ weight·1[non-masked]


class _WorkerHandle:
    """Parent-side view of one forked campaign worker.

    A worker outlives the cell it was forked for: ``cells`` holds the ids
    of every cell it has (inherited at fork or shipped with a lease), and
    ``block`` the leased run indices it has not yet resolved, in order —
    the head is the run it is executing.
    """

    def __init__(self, process, conn, cell: int):
        self.process = process
        self.conn = conn
        self.cells = {cell}
        self.block: deque = deque()
        self.started: float = 0.0   # lease or last result: watchdog base
        self.in_guest = False
        self.runs_done = 0          # across cells: what recycle_after counts

    @property
    def busy(self) -> bool:
        return bool(self.block)

    def lease(self, cell: int, blob: Optional[bytes], trace_ctx,
              tasks: List[tuple]) -> None:
        # The attempt number rides along with each run so a chaos-injected
        # worker kill can bound itself by the executor's retry accounting.
        self.conn.send((cell, blob, trace_ctx, tasks))
        self.cells.add(cell)
        self.block = deque(run_index for run_index, _ in tasks)
        self.started = time.monotonic()
        self.in_guest = False

    def deadline(self, wall_clock_timeout: float, grace: float) -> float:
        return self.started + wall_clock_timeout + grace

    def finish_task(self) -> None:
        self.block.popleft()
        self.started = time.monotonic()
        self.in_guest = False
        self.runs_done += 1

    def release(self) -> List[int]:
        """Hand back the block's unresolved runs (none of them started)."""
        rest = list(self.block)
        self.block.clear()
        return rest

    def shutdown(self, timeout: float = 2.0) -> None:
        """Graceful stop, escalating to SIGTERM/SIGKILL."""
        try:
            if self.process.is_alive():
                try:
                    self.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self.process.join(timeout)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():  # pragma: no cover - stuck in SIGTERM
            self.process.kill()
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _shutdown_pool(pool: List[_WorkerHandle]) -> None:
    for worker in pool:
        worker.shutdown()
    pool.clear()


class _FixedStream:
    """Fixed-range cell as a trivial run stream (commit on arrival).

    The historical executor behaviour, expressed through the same
    reserve/deliver/abandon interface
    :class:`~repro.campaign.adaptive.AdaptiveCellStream` implements, so
    serial and pool dispatch have exactly one code path each.  Never
    stops, never buffers: a delivered record is released immediately.
    """

    decision = None
    stopped = False
    discarded = 0

    def __init__(self, pending: List[int]):
        self._pending = deque(pending)
        self.backlog = len(pending)
        self.consumed: List[int] = []

    def reserve(self) -> Optional[int]:
        return self._pending.popleft() if self._pending else None

    def deliver(self, run_index: int, record, meta=None):
        self.consumed.append(run_index)
        return [(record, meta)]

    def abandon(self, run_index: int):
        return []


def _chaos_active():
    """The process's chaos injector, or None (imported lazily so the
    chaos package stays an optional leaf dependency of the executor)."""
    from repro import chaos
    return chaos.active()


def _worker_main(conn, runner: CampaignRunner, model: ErrorModel,
                 point: OperatingPoint,
                 wall_clock_timeout: Optional[float],
                 parent_pid: Optional[int] = None) -> None:
    """Worker loop: receive leases, send one classified result per run.

    Runs in a forked child that inherits ``runner`` and the cell
    ``(model, point)`` it was forked for.  A lease is ``(cell, blob,
    trace_ctx, tasks)``: ``blob`` is the pickled ``(model, point)`` of a
    cell this worker has not seen yet, or None for the cell it was
    forked for (and for cells already shipped); ``tasks`` is a block of
    ``(run_index, attempt)`` pairs executed in order.  The ``guest``
    marker before each guest execution lets the parent tell a guest
    crash (classify) from a harness death (retry).  A harness error ends
    the block: the parent recycles the worker and requeues the rest.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Inherited-by-fork telemetry would re-ship the parent's pre-fork
    # totals; zero it so this worker only ever reports its own deltas.
    telemetry.reset()
    # Fork safety: inherited file sinks share the parent's fd offset, so
    # a worker writing them would interleave with (and tear) the parent's
    # trace.  Detach and close the copies — only the parent writes files;
    # worker telemetry and flight captures ride the result pipe instead.
    collector = telemetry.get_collector()
    if collector is not None:
        for sink in collector.detach_sinks():
            try:
                sink.close()
            except Exception:  # pragma: no cover - sink already closed
                pass
    recorder = flight.get_recorder()
    if recorder is not None:
        recorder.sink = None
        recorder.keep_in_memory = False
    cells: Dict[int, tuple] = {}
    try:
        golden = runner.golden()  # already cached pre-fork; cheap
        injector = MicroArchInjector(golden.schedule, golden.masking)
        # The spawner passes its own pid: capturing os.getppid() here
        # instead would race a coordinator SIGKILL — a worker orphaned
        # before this line reads the reaper's pid (1), and the orphan
        # check below can then never fire.
        parent = os.getppid() if parent_pid is None else parent_pid
        while True:
            try:
                # Poll instead of a bare blocking recv: sibling workers
                # inherit each other's pipe fds at fork, so a dead
                # coordinator never EOFs this pipe.  Checking the parent
                # pid each second lets an orphaned worker exit instead
                # of blocking on recv forever (observed after a chaos
                # coordinator SIGKILL).
                while not conn.poll(1.0):
                    if os.getppid() != parent:
                        return
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            cell, blob, trace_ctx, tasks = message
            if cell not in cells:
                cells[cell] = ((model, point) if blob is None
                               else pickle.loads(blob))
            cell_model, cell_point = cells[cell]
            # The parent narrows the trace context per cell; buffered
            # spans ship with the next result message and get stitched
            # into the parent's trace file.
            telemetry.set_trace_context(trace_ctx)
            if trace_ctx is not None and collector is not None:
                collector.buffer_spans()
            for task, attempt in tasks:
                chaos_injector = _chaos_active()
                if chaos_injector is not None:
                    # A planned pre-guest SIGKILL: the parent sees a
                    # worker death *before* the guest marker and retries
                    # the run as a harness failure — guest outcomes stay
                    # untouched.
                    chaos_injector.maybe_kill_worker(
                        run_key(runner.workload.name, cell_model.name,
                                cell_point.name, task),
                        attempt,
                    )
                start = time.monotonic()
                try:
                    execution = runner.execute_run(
                        cell_model, cell_point, task, injector=injector,
                        wall_clock_timeout=wall_clock_timeout,
                        guest_entry=lambda: conn.send(
                            {"type": "guest", "run_index": task}
                        ),
                        attempt=attempt,
                    )
                except Exception:
                    message = {"type": "harness_error", "run_index": task,
                               "error": traceback.format_exc()}
                    if telemetry.enabled():
                        message["telemetry"] = (
                            telemetry.get_collector().drain())
                    conn.send(message)
                    break
                message = {
                    "type": "result", "run_index": task,
                    "outcome": execution.outcome.value,
                    "injected": execution.injected,
                    "uarch_masked": execution.uarch_masked,
                    "watchdog": execution.watchdog,
                    "unexpected": execution.unexpected,
                    "wall_ms": (time.monotonic() - start) * 1000.0,
                    "weight": execution.weight,
                }
                if execution.flight is not None:
                    message["flight"] = execution.flight
                if execution.fastforward is not None:
                    message["fastforward"] = execution.fastforward
                if telemetry.enabled():
                    message["telemetry"] = telemetry.get_collector().drain()
                conn.send(message)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass


class CampaignExecutor:
    """Runs campaign cells for one benchmark, fault-tolerantly."""

    def __init__(self, runner: CampaignRunner,
                 config: Optional[ExecutorConfig] = None,
                 journal: Optional[RunJournal] = None,
                 monitor=None):
        self.runner = runner
        self.config = config or ExecutorConfig()
        self.monitor = monitor
        # Records of completed adaptive cells, kept so a reallocation
        # grant (re-entering run_cell with a raised ceiling) resumes
        # from memory even without a journal.
        self._adaptive_cache: Dict[tuple, Dict[int, RunRecord]] = {}
        # The worker pool outlives cells: forked at the first pooled cell
        # and shut down by close() — or, for an executor dropped
        # unclosed, by the finalizer registered with the first fork.
        self._pool: List[_WorkerHandle] = []
        self._finalizer = None
        # Cell ids by (model, point) identity; the strong references in
        # ``_cells`` keep those identities from being reused.
        self._cell_ids: Dict[tuple, int] = {}
        self._cells: List[tuple] = []
        self._blobs: Dict[int, Optional[bytes]] = {}
        self._owns_journal = False
        if journal is not None:
            self.journal = journal
        elif self.config.journal_path:
            self.journal = RunJournal.open(self.config.journal_path,
                                           seed=runner.seed,
                                           resume=self.config.resume,
                                           fsync=self.config.fsync)
            self._owns_journal = True
        else:
            self.journal = None

    def close(self) -> None:
        _shutdown_pool(self._pool)
        recorder = flight.get_recorder()
        if recorder is not None:
            recorder.flush()
        if self.monitor is not None:
            self.monitor.close()
        if self._owns_journal and self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cell execution ----------------------------------------------------------
    def run_cell(self, model: ErrorModel, point: OperatingPoint,
                 runs: Optional[int] = None,
                 adaptive: Optional[AdaptiveConfig] = None
                 ) -> CampaignResult:
        if runs is None:
            runs = confidence_sample_size()  # 1068
        # Narrow the campaign-level trace context to this cell: pool
        # workers receive it with each lease, so their buffered spans
        # arrive pre-stamped for stitching.
        base_ctx = telemetry.get_trace_context()
        if base_ctx is not None:
            cell = (f"{self.runner.workload.name}/{model.name}/"
                    f"{point.name}")
            telemetry.set_trace_context(base_ctx.for_cell(cell))
        try:
            with telemetry.span("campaign.cell",
                                workload=self.runner.workload.name,
                                model=model.name, point=point.name,
                                runs=runs):
                return self._run_cell(model, point, runs,
                                      adaptive=adaptive)
        finally:
            if base_ctx is not None:
                telemetry.set_trace_context(base_ctx)

    def _run_cell(self, model: ErrorModel, point: OperatingPoint,
                  runs: int,
                  adaptive: Optional[AdaptiveConfig] = None
                  ) -> CampaignResult:
        start = time.monotonic()
        golden = self.runner.golden()  # harness-side: a failure here is fatal
        stats = CellStats(runs=runs)
        workload = self.runner.workload.name
        cell_key = (workload, model.name, point.name)

        records: Dict[int, RunRecord] = {}
        if self.journal is not None:
            for idx, record in self.journal.completed_runs(
                    workload, model.name, point.name).items():
                if 0 <= idx < runs:
                    records[idx] = record
        if adaptive is not None:
            # A previous adaptive pass over this cell (e.g. before a
            # reallocation grant) counts as resumable state too.
            for idx, record in self._adaptive_cache.get(cell_key,
                                                        {}).items():
                if 0 <= idx < runs:
                    records.setdefault(idx, record)
        stats.resumed = len(records)

        if self.monitor is not None:
            self.monitor.begin_cell(workload, model.name, point.name,
                                    runs, resumed=stats.resumed)

        if adaptive is not None:
            stats.adaptive = True
            stream = AdaptiveCellStream(adaptive, runs, prior=records)
        else:
            stream = _FixedStream([i for i in range(runs)
                                   if i not in records])
        if stream.backlog > 0 and not stream.stopped:
            if self.config.workers > 0 and self._fork_available():
                executed = self._run_pool(model, point, stream, runs,
                                          stats)
            else:
                executed = self._run_serial(model, point, stream, runs,
                                            stats)
            records.update(executed)

        stats.executed = len(records) - stats.resumed
        stats.wall_time = time.monotonic() - start

        if adaptive is not None:
            counted = list(stream.consumed)
            stats.failed = stream.abandoned
            stats.stop = stream.decision
            stats.runs_saved = max(0, runs - len(counted))
            stats.runs_discarded = stream.discarded
            self._adaptive_cache[cell_key] = dict(records)
            if stream.decision is not None:
                if self.journal is not None:
                    self.journal.record_stop(workload, model.name,
                                             point.name, stream.decision)
                on_stop = getattr(self.monitor, "on_stop", None)
                if on_stop is not None:
                    on_stop(stream.decision)
        else:
            counted = sorted(records)
            stats.failed = runs - len(records)

        counts = OutcomeCounts()
        uarch_masked = 0
        no_injection = 0
        for idx in counted:
            record = records[idx]
            counts.record(Outcome(record.outcome))
            uarch_masked += record.uarch_masked
            if not record.injected:
                no_injection += 1
            weight = float(getattr(record, "weight", 1.0))
            stats.weight_sum += weight
            if record.outcome != Outcome.MASKED.value:
                stats.weighted_non_masked += weight
        if telemetry.enabled():
            telemetry.count("campaign.cells")
            telemetry.count("campaign.runs.executed", stats.executed)
            telemetry.count("campaign.runs.resumed", stats.resumed)
            telemetry.count("campaign.runs.failed", stats.failed)
            telemetry.count("campaign.retries", stats.retries)
            telemetry.count("campaign.watchdog_kills", stats.watchdog_kills)
            telemetry.count("campaign.harness_errors", stats.harness_errors)
            telemetry.count("campaign.worker_restarts",
                            stats.worker_restarts)
            if stats.adaptive:
                telemetry.count("campaign.runs.saved", stats.runs_saved)
                telemetry.count("campaign.runs.discarded",
                                stats.runs_discarded)
            for outcome, n in counts.counts.items():
                if n:
                    telemetry.count(f"campaign.outcome.{outcome.value}", n)
        result = CampaignResult(
            workload=workload,
            model=model.name,
            point=point.name,
            counts=counts,
            error_ratio=model.error_ratio(golden.profile, point),
            uarch_masked=uarch_masked,
            runs_without_injection=no_injection,
            seed=self.runner.seed,
            stats=stats,
        )
        if self.journal is not None:
            self.journal.record_cell(result)
        recorder = flight.get_recorder()
        if recorder is not None:
            recorder.flush()
        if self.monitor is not None:
            self.monitor.end_cell(result)
        return result

    @staticmethod
    def _fork_available() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def _fail_budget(self, runs: int) -> int:
        return int(self.config.degraded_threshold * runs)

    def _backoff(self, attempt: int) -> float:
        return min(self.config.backoff_cap,
                   self.config.backoff * (2.0 ** attempt))

    def _journal_run(self, record: RunRecord) -> None:
        if self.journal is not None:
            self.journal.record_run(record)

    def _commit_run(self, record: RunRecord, stats: CellStats,
                    flight_payload: Optional[dict] = None) -> None:
        """Everything that happens to one classified run, in order:
        flight emission (parent side only), journal append, monitor tick.
        """
        if flight_payload is not None:
            flight.emit_run(flight_payload, wall_ms=record.wall_ms,
                            retries=record.retries)
        self._journal_run(record)
        if self.monitor is not None:
            self.monitor.on_run(record, stats)

    def _flight_truncated(self, model: ErrorModel, point: OperatingPoint,
                          record: RunRecord) -> None:
        """Record a run whose worker died holding the victim chain."""
        if not flight.enabled():
            return
        flight.emit_truncated(
            self.runner.workload.name, model.name, point.name,
            record.run_index, self.runner.seed,
            run_key(self.runner.workload.name, model.name, point.name,
                    record.run_index),
            record.outcome, watchdog=record.watchdog,
            unexpected=record.unexpected, wall_ms=record.wall_ms,
            retries=record.retries,
        )

    def _journal_error(self, model: ErrorModel, point: OperatingPoint,
                       run_index: int, attempt: int, error: str) -> None:
        if self.journal is not None:
            self.journal.record_harness_error(
                run_key(self.runner.workload.name, model.name, point.name,
                        run_index),
                attempt, error,
            )

    @staticmethod
    def _track_fastforward(stats: CellStats,
                           info: Optional[dict]) -> None:
        """Fold one run's restore/replay counters into the cell stats."""
        if not info:
            return
        stats.ff_restores += 1
        stats.ff_ops_skipped += int(info.get("ops_skipped", 0))
        stats.ff_ops_replayed += int(info.get("ops_replayed", 0))
        stats.ff_corrupt += int(info.get("corrupt", 0))
        if info.get("cold_start"):
            stats.ff_cold_starts += 1
        if "early_exit" in info:
            stats.ff_early_exits += 1

    def _make_record(self, model: ErrorModel, point: OperatingPoint,
                     run_index: int, execution: RunExecution,
                     wall_ms: float, retries: int) -> RunRecord:
        telemetry.observe("campaign.run_ms", wall_ms)
        return RunRecord(
            workload=self.runner.workload.name, model=model.name,
            point=point.name, run_index=run_index,
            outcome=execution.outcome.value, injected=execution.injected,
            uarch_masked=execution.uarch_masked,
            watchdog=execution.watchdog, unexpected=execution.unexpected,
            wall_ms=wall_ms, retries=retries,
            weight=float(getattr(execution, "weight", 1.0)),
        )

    def _release_records(self, released, model: ErrorModel,
                         point: OperatingPoint, stats: CellStats,
                         out: Dict[int, RunRecord]) -> None:
        """Commit records a stream released, in the stream's order.

        ``meta`` distinguishes a run carrying a flight payload from one
        whose worker died holding the victim chain (truncated flight).
        """
        for record, meta in released:
            out[record.run_index] = record
            flight_payload = None
            if isinstance(meta, tuple):
                if meta[0] == "flight":
                    flight_payload = meta[1]
                elif meta[0] == "truncated":
                    self._flight_truncated(model, point, record)
            self._commit_run(record, stats, flight_payload)

    # -- serial mode -------------------------------------------------------------
    def _run_serial(self, model: ErrorModel, point: OperatingPoint,
                    stream, runs: int,
                    stats: CellStats) -> Dict[int, RunRecord]:
        cfg = self.config
        golden = self.runner.golden()
        injector = MicroArchInjector(golden.schedule, golden.masking)
        fail_budget = self._fail_budget(runs)
        out: Dict[int, RunRecord] = {}
        failed = 0
        while True:
            run_index = stream.reserve()
            if run_index is None:
                break
            record = None
            for attempt in range(cfg.max_retries + 1):
                start = time.monotonic()
                try:
                    execution = self.runner.execute_run(
                        model, point, run_index, injector=injector,
                        wall_clock_timeout=cfg.wall_clock_timeout,
                        attempt=attempt,
                    )
                except Exception:
                    stats.harness_errors += 1
                    self._journal_error(model, point, run_index, attempt,
                                        traceback.format_exc())
                    if attempt < cfg.max_retries:
                        stats.retries += 1
                        time.sleep(self._backoff(attempt))
                        continue
                    break
                if execution.watchdog:
                    stats.watchdog_kills += 1
                self._track_fastforward(stats, execution.fastforward)
                record = self._make_record(
                    model, point, run_index, execution,
                    wall_ms=(time.monotonic() - start) * 1000.0,
                    retries=attempt,
                )
                break
            if record is None:
                failed += 1
                self._release_records(stream.abandon(run_index), model,
                                      point, stats, out)
                if failed > fail_budget:
                    stats.degraded = True
                    break
                continue
            self._release_records(
                stream.deliver(run_index, record,
                               ("flight", execution.flight)),
                model, point, stats, out)
        return out

    # -- pool mode ---------------------------------------------------------------
    def _cell_id(self, model: ErrorModel, point: OperatingPoint) -> int:
        key = (id(model), id(point))
        cell = self._cell_ids.get(key)
        if cell is None:
            cell = self._cell_ids[key] = len(self._cells)
            self._cells.append((model, point))
        return cell

    def _blob(self, cell: int) -> Optional[bytes]:
        """The cell's pickled ``(model, point)``; None if unpicklable."""
        if cell not in self._blobs:
            try:
                self._blobs[cell] = pickle.dumps(self._cells[cell],
                                                 pickle.HIGHEST_PROTOCOL)
            except Exception:  # e.g. a model class local to a function
                self._blobs[cell] = None
        return self._blobs[cell]

    def _spawn(self, model: ErrorModel, point: OperatingPoint,
               cell: int) -> _WorkerHandle:
        """Fork one worker that inherits the runner and this cell."""
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.runner, model, point,
                  self.config.wall_clock_timeout, os.getpid()),
            daemon=True,
        )
        process.start()
        child_conn.close()
        telemetry.count("campaign.pool.forks")
        if self._finalizer is None:
            self._finalizer = weakref.finalize(self, _shutdown_pool,
                                               self._pool)
        return _WorkerHandle(process, parent_conn, cell)

    def _prepare_pool(self, model: ErrorModel, point: OperatingPoint,
                      cell: int, size: int) -> List[_WorkerHandle]:
        """The pool, grown to ``size`` workers that can all run ``cell``.

        A worker lacking a cell that cannot be pickled is re-forked with
        the cell inherited.
        """
        pool = self._pool
        for index, worker in enumerate(pool):
            if cell not in worker.cells and self._blob(cell) is None:
                worker.shutdown()
                pool[index] = self._spawn(model, point, cell)
        while len(pool) < size:
            pool.append(self._spawn(model, point, cell))
        return pool

    def _run_pool(self, model: ErrorModel, point: OperatingPoint,
                  stream, runs: int,
                  stats: CellStats) -> Dict[int, RunRecord]:
        cfg = self.config
        cell = self._cell_id(model, point)
        stats.workers = max(1, min(cfg.workers, stream.backlog))
        workers = self._prepare_pool(model, point, cell, stats.workers)
        trace_ctx = telemetry.get_trace_context()

        queue: deque = deque()          # requeued runs and due retries
        retry_heap: List = []           # (eligible_at, run_index)
        attempts: Dict[int, int] = {}   # harness attempts per run index
        out: Dict[int, RunRecord] = {}
        fail_budget = self._fail_budget(runs)
        failed = 0
        reserved = 0                    # fresh indices taken from stream

        def lease(index: int, worker: _WorkerHandle, tasks: List[int]):
            try:
                worker.lease(
                    cell,
                    None if cell in worker.cells else self._blob(cell),
                    trace_ctx,
                    [(i, attempts.get(i, 0)) for i in tasks])
                telemetry.count("campaign.pool.leases")
            except (BrokenPipeError, OSError):
                # Worker died while idle: respawn, requeue.
                stats.worker_restarts += 1
                worker.kill()
                workers[index] = self._spawn(model, point, cell)
                queue.extendleft(reversed(tasks))

        try:
            while True:
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                while retry_heap and retry_heap[0][0] <= now:
                    queue.append(heapq.heappop(retry_heap)[1])
                if stream.stopped:
                    # Stop decision made: any queued or retrying index is
                    # at or past the stop point (every earlier index was
                    # consumed to reach the decision) — drop them and
                    # just drain the workers still busy.
                    queue.clear()
                    retry_heap.clear()
                # Hand work to idle workers: queued runs one at a time
                # first (they block the commit frontier), then fresh
                # indices.  A fixed-N cell leases a block sized to a
                # quarter of an even share of the backlog, cut at the
                # worker's recycle point.  An adaptive cell leases one
                # run at a time: a block running past the stop point
                # would be executed only to be discarded.
                for index, worker in enumerate(workers):
                    if worker.busy:
                        continue
                    if queue:
                        lease(index, worker, [queue.popleft()])
                        continue
                    size = 1
                    if not stats.adaptive:
                        share = -(-(stream.backlog - reserved)
                                  // (4 * len(workers)))
                        size = max(1, min(share, cfg.recycle_after
                                          - worker.runs_done))
                    tasks = []
                    while len(tasks) < size:
                        run_index = stream.reserve()
                        if run_index is None:
                            break
                        tasks.append(run_index)
                    if not tasks:
                        break
                    reserved += len(tasks)
                    lease(index, worker, tasks)
                busy = [w for w in workers if w.busy]
                if not busy:
                    if retry_heap and not stream.stopped:
                        time.sleep(max(0.0, retry_heap[0][0]
                                       - time.monotonic()))
                        continue
                    break  # all work drained (or stop decision made)
                timeout = _LIVENESS_INTERVAL_S
                if cfg.wall_clock_timeout:
                    deadline = min(
                        w.deadline(cfg.wall_clock_timeout, cfg.kill_grace)
                        for w in busy
                    )
                    timeout = min(timeout,
                                  max(0.0, deadline - time.monotonic()))
                if retry_heap:
                    wait_retry = max(0.0, retry_heap[0][0] - time.monotonic())
                    timeout = min(timeout, wait_retry)
                ready = set(_connection_wait([w.conn for w in busy],
                                             timeout=timeout))
                now = time.monotonic()
                for index, worker in enumerate(workers):
                    if not worker.busy:
                        continue
                    if (worker.conn in ready
                            or not worker.process.is_alive()):
                        replace = self._drain_worker(
                            worker, model, point, stats, out,
                            attempts, retry_heap, stream,
                        )
                        if replace or (worker.runs_done
                                       >= cfg.recycle_after):
                            stats.worker_restarts += 1
                            queue.extendleft(reversed(worker.release()))
                            worker.shutdown()
                            workers[index] = self._spawn(model, point, cell)
                    elif (cfg.wall_clock_timeout
                          and now >= worker.deadline(cfg.wall_clock_timeout,
                                                     cfg.kill_grace)):
                        # Watchdog kill: the in-worker SIGALRM never came
                        # back (signals blocked / stuck in native code).
                        run_index = worker.block.popleft()
                        queue.extendleft(reversed(worker.release()))
                        worker.kill()
                        stats.watchdog_kills += 1
                        stats.worker_restarts += 1
                        telemetry.observe("campaign.run_ms",
                                          (now - worker.started) * 1000.0)
                        record = RunRecord(
                            workload=self.runner.workload.name,
                            model=model.name, point=point.name,
                            run_index=run_index,
                            outcome=Outcome.TIMEOUT.value,
                            watchdog=True,
                            unexpected="worker killed by watchdog",
                            wall_ms=(now - worker.started) * 1000.0,
                            retries=attempts.get(run_index, 0),
                        )
                        self._release_records(
                            stream.deliver(run_index, record,
                                           ("truncated", True)),
                            model, point, stats, out)
                        workers[index] = self._spawn(model, point, cell)
                # Count permanently failed runs (exhausted retries).
                failed = sum(
                    1 for idx, n in attempts.items()
                    if n > cfg.max_retries and idx not in out
                )
                if failed > fail_budget:
                    stats.degraded = True
                    break
        finally:
            # A worker still holding a block (degraded cell, or an
            # exception out of this loop) would answer into the next
            # cell: kill it; the next cell forks a replacement.
            for worker in workers:
                if worker.busy:
                    worker.kill()
            workers[:] = [w for w in workers if not w.busy]
        return out

    def _drain_worker(self, worker: _WorkerHandle, model: ErrorModel,
                      point: OperatingPoint, stats: CellStats,
                      out: Dict[int, RunRecord], attempts: Dict[int, int],
                      retry_heap: List, stream) -> bool:
        """Consume everything a readable worker sent.

        Returns True when the worker must be replaced (it died or hit a
        harness error and gets recycled); the rest of its block is then
        unstarted and goes back to the queue.
        """
        while worker.busy:
            try:
                if not worker.conn.poll():
                    if worker.process.is_alive():
                        return False
                    # Dead worker whose pipe never signalled EOF (seen
                    # under load): fall through to the death handling.
                    message = None
                else:
                    message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if isinstance(message, dict) and "telemetry" in message:
                telemetry.merge(message.pop("telemetry"))
            if message is None:
                # Worker died mid-task (segfault-equivalent).
                run_index = worker.block.popleft()
                worker.process.join(1.0)
                exitcode = worker.process.exitcode
                if worker.in_guest:
                    # Death inside the guest boundary: a guest Crash,
                    # contained and classified — never retried.
                    record = RunRecord(
                        workload=self.runner.workload.name,
                        model=model.name, point=point.name,
                        run_index=run_index,
                        outcome=Outcome.CRASH.value,
                        unexpected=(f"worker died in guest "
                                    f"(exit {exitcode})"),
                        retries=attempts.get(run_index, 0),
                    )
                    self._release_records(
                        stream.deliver(run_index, record,
                                       ("truncated", True)),
                        model, point, stats, out)
                else:
                    permanent = self._record_harness_failure(
                        model, point, run_index, stats, attempts,
                        retry_heap,
                        error=f"worker died before guest (exit {exitcode})",
                    )
                    if permanent:
                        self._release_records(stream.abandon(run_index),
                                              model, point, stats, out)
                worker.kill()
                return True
            kind = message.get("type")
            if kind == "guest":
                worker.in_guest = True
                continue
            if kind == "harness_error":
                run_index = message["run_index"]
                permanent = self._record_harness_failure(
                    model, point, run_index, stats, attempts, retry_heap,
                    error=message["error"],
                )
                if permanent:
                    self._release_records(stream.abandon(run_index),
                                          model, point, stats, out)
                worker.finish_task()
                return True  # recycle the worker after a harness error
            if kind == "result":
                run_index = message["run_index"]
                execution = RunExecution(
                    outcome=Outcome(message["outcome"]),
                    injected=message["injected"],
                    uarch_masked=message["uarch_masked"],
                    watchdog=message["watchdog"],
                    unexpected=message["unexpected"],
                    weight=float(message.get("weight", 1.0)),
                )
                if execution.watchdog:
                    stats.watchdog_kills += 1
                self._track_fastforward(stats, message.get("fastforward"))
                record = self._make_record(
                    model, point, run_index, execution,
                    wall_ms=message["wall_ms"],
                    retries=attempts.get(run_index, 0),
                )
                self._release_records(
                    stream.deliver(run_index, record,
                                   ("flight", message.get("flight"))),
                    model, point, stats, out)
                worker.finish_task()
        return False

    def _record_harness_failure(self, model: ErrorModel,
                                point: OperatingPoint, run_index: int,
                                stats: CellStats, attempts: Dict[int, int],
                                retry_heap: List, error: str) -> bool:
        """Journal and schedule a harness failure.

        Returns True when the run's retries are exhausted — permanently
        failed, so an adaptive stream must skip its index.
        """
        cfg = self.config
        attempt = attempts.get(run_index, 0)
        stats.harness_errors += 1
        self._journal_error(model, point, run_index, attempt, error)
        attempts[run_index] = attempt + 1
        if attempt < cfg.max_retries:
            stats.retries += 1
            heapq.heappush(
                retry_heap,
                (time.monotonic() + self._backoff(attempt), run_index),
            )
            return False
        return True
