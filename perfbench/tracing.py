"""Span tracing installed from outside the program.

The benchmark measures each layer by timing calls into its public
functions: :func:`install` replaces each function, at the place its
caller looks it up, with a wrapper that records a span (name, start, end,
parent, repetition) and the layer's work counters.  Nothing under
``src/`` knows about it.

Spans are kept in memory and written out when the benchmark ends.  The
guest FP operations are called hundreds of thousands of times per
repetition, so those leaf spans are rolled up per (parent span, name)
into a count and a total duration instead of being kept one by one; the
self-time arithmetic treats a rollup exactly like the leaf spans it
stands for.

Pool workers are forked from a traced parent.  Each worker starts with
empty span buffers, keeps the inherited open spans as the parents of its
own, and writes its spans to one file per process when its loop ends;
the parent merges those files (:meth:`Tracer.merge_worker_files`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict, namedtuple
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter

#: Layer span names in report order.  ``workloads.fp`` is the rolled-up
#: leaf; every other name is kept span by span.
LAYERS = (
    "uarch.trace", "uarch.core", "campaign.golden", "campaign.ff.build",
    "errors.wa", "errors.ia", "errors.da", "fpu.dta",
    "errors.plan", "uarch.injector", "campaign.guest", "campaign.ff.inject",
    "workloads.fp", "workloads.compare",
    "campaign.executor", "campaign.journal", "artifacts.put",
    "artifacts.get",
)

#: FPContext's public arithmetic API (the guest's view of the FPU).
FP_OPS = ("add", "sub", "mul", "div", "i2f", "f2i",
          "add_s", "sub_s", "mul_s", "div_s", "sum", "dot")


#: One recorded call.  ``parent`` is the sid of the innermost span open
#: when it started (in this process, or inherited from the forking
#: parent); sids are unique within a process, which ``proc`` names.
Span = namedtuple("Span", "name start end parent rep proc sid")


class Tracer:
    """In-memory span and counter buffers of one process."""

    def __init__(self, outdir: Optional[Path] = None):
        self.outdir = Path(outdir) if outdir is not None else None
        self.rep = None
        self.spans: List[Span] = []
        #: (name, parent sid, rep, proc) -> [calls, total seconds]
        self.rollups: Dict[tuple, List[float]] = {}
        #: (rep, counter name) -> value
        self.counts: Dict[tuple, float] = defaultdict(float)
        self._stack: List[Tuple[int, str]] = []  # (sid, name) open spans
        self._next_sid = 1
        #: This process's key in spans and rollups.
        self.proc = str(os.getpid())
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.rep, name)] += value

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None,
             rollup: bool = False,
             skip: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``before(args)`` returns a token handed to ``after(token, args,
        kwargs, result)``, which runs even when ``fn`` raises (``result``
        is then None) and records the layer's counters.  A call made while the
        innermost open span already has this name (a nested FP op, a
        subclass calling its base) is not a new span.  ``skip(args)``
        true means the call does no layer work and is not recorded.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if ((stack and stack[-1][1] == name)
                    or (skip is not None and skip(args))):
                return fn(*args, **kwargs)
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            parent = stack[-1][0] if stack else None
            token = before(args) if before is not None else None
            result = None
            stack.append((sid, name))
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                if rollup:
                    key = (name, parent, tracer.rep, tracer.proc)
                    slot = tracer.rollups.get(key)
                    if slot is None:
                        tracer.rollups[key] = [1, end - start]
                    else:
                        slot[0] += 1
                        slot[1] += end - start
                else:
                    tracer.spans.append(Span(name, start, end, parent,
                                             tracer.rep, tracer.proc, sid))
                if after is not None:
                    after(token, args, kwargs, result)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- worker processes -----------------------------------------------------
    def start_worker(self) -> None:
        """Reset the buffers inherited at fork; keep the open-span stack.

        The worker continues the parent's sid sequence, so a later worker
        that reuses this pid could repeat its sids: the process key adds
        the start time.
        """
        self.spans = []
        self.rollups = {}
        self.counts = defaultdict(float)
        self.proc = f"{os.getpid()}-{time.monotonic_ns()}"

    def write_worker_file(self) -> None:
        if self.outdir is None:
            return
        path = self.outdir / f"spans-{self.proc}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.dump()))
        os.replace(tmp, path)

    def merge_worker_files(self) -> int:
        """Fold the workers' span files into this tracer; returns how many."""
        if self.outdir is None:
            return 0
        merged = 0
        for path in sorted(self.outdir.glob("spans-*.json")):
            self.load(json.loads(path.read_text()))
            path.unlink()
            merged += 1
        return merged

    # -- serialisation --------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "rollups": [[*key, calls, total]
                        for key, (calls, total) in self.rollups.items()],
            "counts": [[rep, name, value]
                       for (rep, name), value in self.counts.items()],
        }

    def load(self, data: dict) -> None:
        self.spans.extend(Span(*row) for row in data["spans"])
        for name, parent, rep, proc, calls, total in data["rollups"]:
            slot = self.rollups.setdefault((name, parent, rep, proc), [0, 0.0])
            slot[0] += calls
            slot[1] += total
        for rep, name, value in data["counts"]:
            self.counts[(rep, name)] += value

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.dump()))


def self_times(spans: Iterable[Span],
               rollups: Dict[tuple, List[float]]) -> Dict[tuple, float]:
    """Self time per (span name, proc).

    A span's self time is its duration minus the durations of its direct
    children in the same process (the calls of one single-threaded
    process never overlap, so that sum is the part children cover).  A
    rollup is a leaf: its self time is its total.
    """
    spans = list(spans)
    covered: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[(span.proc, span.parent)] += span.end - span.start
    for (name, parent, rep, proc), (calls, total) in rollups.items():
        if parent is not None:
            covered[(proc, parent)] += total
    own: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        own[(span.name, span.proc)] += (span.end - span.start
                                        - covered.get((span.proc, span.sid),
                                                      0.0))
    for (name, parent, rep, proc), (calls, total) in rollups.items():
        own[(name, proc)] += total
    return dict(own)


# -- installation -------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every measured public function where its caller looks it up.

    Tracing is on from here until ``tracer.uninstall()``; untraced runs
    never install, so they pay nothing for it.
    """
    import repro.campaign.executor as executor_mod
    import repro.campaign.runner as runner_mod
    import repro.errors as errors_pkg
    import repro.experiments.context as context_mod
    from repro.artifacts.store import ArtifactStore
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.fastforward import SnapshotStore
    from repro.campaign.journal import RunJournal
    from repro.campaign.runner import CampaignRunner
    from repro.errors import DaModel, IaModel, WaModel
    from repro.fpu.unit import FPU
    from repro.uarch.core import OoOCore
    from repro.uarch.injector import MicroArchInjector
    from repro.workloads import WORKLOADS
    from repro.workloads.base import FPContext, Workload

    count = tracer.count

    # Golden build.
    def after_trace(_, args, kwargs, window):
        if window is not None:
            count("uarch.trace.instrs", len(window))

    tracer.patch(runner_mod, "synthesize_trace", tracer.wrap(
        runner_mod.synthesize_trace, "uarch.trace", after=after_trace))

    def after_core(_, args, kwargs, schedule):
        count("uarch.core.instrs", len(args[1]))
        if schedule is not None:
            count("uarch.core.sim_cycles", schedule.total_cycles)

    tracer.patch(OoOCore, "simulate", tracer.wrap(
        OoOCore.simulate, "uarch.core", after=after_core))
    # A cached golden() returns at once; only the build is the layer's work.
    tracer.patch(CampaignRunner, "golden", tracer.wrap(
        CampaignRunner.golden, "campaign.golden",
        skip=lambda args: args[0]._golden is not None))

    def after_build(_, args, kwargs, output):
        count("campaign.ff.snapshot_bytes", args[0].pages.stored_bytes)

    tracer.patch(SnapshotStore, "build", tracer.wrap(
        SnapshotStore.build, "campaign.ff.build", after=after_build))

    # Characterization.
    for kind in ("wa", "ia", "da"):
        attr = f"characterize_{kind}"
        wrapped = tracer.wrap(getattr(errors_pkg, attr), f"errors.{kind}")
        tracer.patch(errors_pkg, attr, wrapped)
        tracer.patch(context_mod, attr, wrapped)

    def after_dta(_, args, kwargs, batch):
        count("fpu.dta.vectors", len(args[2]))

    tracer.patch(FPU, "dta", tracer.wrap(FPU.dta, "fpu.dta", after=after_dta))

    # Injection run.
    for model_cls in (WaModel, IaModel, DaModel):
        tracer.patch(model_cls, "plan", tracer.wrap(
            model_cls.plan, "errors.plan",
            after=lambda _, args, kwargs, plan: count("errors.plan.calls")))

    def after_place(_, args, kwargs, placed):
        if placed is not None:
            count("uarch.injector.victims", len(placed.placements))
            count("uarch.injector.masked", placed.masked_count)

    tracer.patch(MicroArchInjector, "place", tracer.wrap(
        MicroArchInjector.place, "uarch.injector", after=after_place))
    tracer.patch(CampaignRunner, "run_guest", tracer.wrap(
        CampaignRunner.run_guest, "campaign.guest",
        after=lambda _, args, kwargs, result: count("campaign.guest.calls")))

    def after_inject(_, args, kwargs, output):
        info = kwargs.get("info", args[4] if len(args) > 4 else None)
        count("campaign.ff.inject.restores")
        if info:
            count("campaign.ff.inject.early_exits", "early_exit" in info)
            count("campaign.ff.ops_skipped", info.get("ops_skipped", 0))
            count("campaign.ff.ops_replayed", info.get("ops_replayed", 0))

    tracer.patch(SnapshotStore, "run_injection", tracer.wrap(
        SnapshotStore.run_injection, "campaign.ff.inject",
        after=after_inject))

    def before_fp(args):
        return args[0].ops_executed

    def after_fp(ops_before, args, kwargs, result):
        count("workloads.fp_calls")
        count("workloads.fp_ops", args[0].ops_executed - ops_before)

    for op in FP_OPS:
        tracer.patch(FPContext, op, tracer.wrap(
            FPContext.__dict__[op], "workloads.fp", before=before_fp,
            after=after_fp, rollup=True))
    for cls in (Workload, *WORKLOADS.values()):
        if "outputs_equal" in cls.__dict__:
            tracer.patch(cls, "outputs_equal", tracer.wrap(
                cls.__dict__["outputs_equal"], "workloads.compare"))

    # Durability and parallelism.
    def after_cell(_, args, kwargs, result):
        stats = getattr(result, "stats", None)
        if stats is not None:
            count("campaign.executor.runs", stats.executed)
            count("campaign.executor.worker_restarts", stats.worker_restarts)
            count("campaign.executor.retries", stats.retries)

    tracer.patch(CampaignExecutor, "run_cell", tracer.wrap(
        CampaignExecutor.run_cell, "campaign.executor", after=after_cell))

    open_fn = RunJournal.__dict__["open"].__func__
    tracer.patch(RunJournal, "open", classmethod(
        tracer.wrap(open_fn, "campaign.journal")))
    for attr in ("record_run", "record_cell"):
        tracer.patch(RunJournal, attr, tracer.wrap(
            RunJournal.__dict__[attr], "campaign.journal"))

    def after_close(_, args, kwargs, result):
        journal = args[0]
        count("campaign.journal.records", journal.stats["records"])
        count("campaign.journal.fsyncs", journal.stats["fsyncs"])
        if journal.path.exists():
            count("campaign.journal.bytes", journal.path.stat().st_size)

    tracer.patch(RunJournal, "close", tracer.wrap(
        RunJournal.close, "campaign.journal", after=after_close))

    def after_get(_, args, kwargs, data):
        count("artifacts.get.calls")
        if data is not None:
            count("artifacts.bytes_read", len(data))

    # put() and get() resolve a ref around put_object()/get_object(); the
    # nested call is the same span, so either entry point is one span.
    for attr in ("put", "put_object"):
        tracer.patch(ArtifactStore, attr, tracer.wrap(
            ArtifactStore.__dict__[attr], "artifacts.put"))
    for attr in ("get", "get_object"):
        tracer.patch(ArtifactStore, attr, tracer.wrap(
            ArtifactStore.__dict__[attr], "artifacts.get", after=after_get))

    worker_main = executor_mod._worker_main

    @functools.wraps(worker_main)
    def traced_worker(*args, **kwargs):
        tracer.start_worker()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.write_worker_file()

    tracer.patch(executor_mod, "_worker_main", traced_worker)
