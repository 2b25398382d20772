"""The benchmark's three batch workloads.

Each is a closed loop: one driver (this process) submits one batch job at
a time and waits for it.  A workload has a set-up phase (the imports are
timed separately by ``run.py``; here: warm-up, and for the campaign
workloads the experiment context the cells need) and a repetition, the
timed body.  Every repetition digests the simulated statistics it
produced, so the run can check them against each other and against the
digest pinned for the default seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import hostspeed

_now = time.perf_counter

SCALE = "tiny"
#: Fig. 9 fixed-N grid size per cell, as ``run_all_experiments.py --runs``.
RUNS_PER_CELL = 60
#: DTA sample per instruction type for IA/DA: half the paper's 1M
#: (Section IV.C), which keeps characterization near a third of the
#: model_dev repetition and two repetitions within the run length.
MODEL_DEV_SAMPLES = 500_000
#: Characterization sample of the campaign workloads' set-up context;
#: their timed body never characterizes, so the set-up stays short.
CONTEXT_SAMPLES = 20_000
#: Pool size of ``campaign_pooled``: the machine's two cores.
POOL_WORKERS = 2


@dataclass
class RepResult:
    """One timed repetition."""

    #: Wall time of the repetition, host-speed kernels excluded.
    wall_s: float
    #: Raw time of each batch-job step, in execution order.
    steps_ms: Dict[str, float]
    #: Host slowdown before each step, and one after the last.
    slowdowns: List[float]
    attempted: int              # operations submitted
    failed: int                 # operations that failed
    digest: str                 # over every simulated statistic
    parts: Dict[str, str] = field(default_factory=dict)  # per-item digests
    errors: List[str] = field(default_factory=list)
    #: Steps that are not per-item latencies (the shared IA/DA models).
    shared: Tuple[str, ...] = ()


class StepClock:
    """Times the steps of one repetition, with the host-speed ``kernels``
    (see :mod:`hostspeed`) before each step and after the last."""

    def __init__(self, kernels: Tuple[str, ...]):
        self.kernels = kernels
        self.steps_ms: Dict[str, float] = {}
        self.slowdowns: List[float] = []
        self._kernel_s = 0.0
        self._start = _now()

    def _kernel(self) -> None:
        start = _now()
        self.slowdowns.append(hostspeed.slowdown(*self.kernels))
        self._kernel_s += _now() - start

    @contextmanager
    def step(self, key: str):
        self._kernel()
        start = _now()
        try:
            yield
        finally:
            self.steps_ms[key] = (_now() - start) * 1000.0

    def finish(self) -> float:
        """Run the closing kernel; returns the wall time without kernels."""
        self._kernel()
        return _now() - self._start - self._kernel_s


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _array_digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def golden_wa_record(golden, wa) -> dict:
    """Golden cycles, per-op counts and the WA per-bit error statistics."""
    profile = golden.profile
    faults = {
        point: {op.value: [tf.analysed, tf.count, repr(tf.error_ratio),
                           _array_digest(tf.indices),
                           _array_digest(tf.bitmasks), _array_digest(tf.ber)]
                for op, tf in sorted(per_op.items(),
                                     key=lambda kv: kv[0].value)}
        for point, per_op in wa.faults.items()
    }
    return {
        "golden_cycles": int(profile.golden_cycles),
        "total_instructions": int(profile.total_instructions),
        "counts_by_op": {op.value: int(n)
                         for op, n in profile.counts_by_op.items()},
        "fp_ops_executed": int(golden.fp_ops_executed),
        "window_cycles": int(golden.schedule.window_cycles),
        "wa": faults,
    }


def ia_record(ia) -> dict:
    return {point: {op.value: [repr(st.error_ratio), st.sample_size,
                               _array_digest(st.bit_probabilities)]
                    for op, st in sorted(per_op.items(),
                                         key=lambda kv: kv[0].value)}
            for point, per_op in ia.stats.items()}


def da_record(da) -> dict:
    return {point: repr(ratio)
            for point, ratio in sorted(da.fixed_error_ratios.items())}


def cell_record(result) -> list:
    """Outcome counts, error ratio and µarch-masked count of one cell."""
    counts = {outcome.value: n for outcome, n in result.counts.counts.items()}
    return [result.workload, result.model, result.point, counts,
            repr(result.error_ratio), int(result.uarch_masked)]


# -- model development --------------------------------------------------------
class ModelDev:
    """Cold model development for all seven Table II benchmarks."""

    name = "model_dev"
    digest_group = "model_dev"
    why = ("every new (benchmark, scale, seed, core) configuration pays "
           "golden builds and DTA characterization before its first "
           "injection")
    #: Seconds one repetition takes on a 2-core x86 host; sets the
    #: repetition count for a requested run length.
    nominal_rep_s = 11.0
    setups = 3
    kernels = ("loops", "dispatch")

    def __init__(self, seed: int, workdir: Path, benchmarks=None):
        from repro.experiments.context import BENCHMARKS

        self.seed = seed
        self.workdir = workdir
        self.benchmarks = tuple(benchmarks or BENCHMARKS)

    def imports(self) -> str:
        return ("import repro.campaign.runner, repro.errors, "
                "repro.experiments.context, repro.fpu.unit, "
                "repro.workloads")

    def setup(self):
        """Warm every layer's first call on the smallest inputs."""
        from repro import errors
        from repro.campaign.runner import CampaignRunner
        from repro.circuit.liberty import VR15, VR20
        from repro.fpu.unit import FPU
        from repro.workloads import make_workload

        fpu = FPU()
        runner = CampaignRunner(make_workload("kmeans", scale=SCALE,
                                              seed=self.seed),
                                seed=self.seed)
        golden = runner.golden()
        errors.characterize_wa(golden.profile, [VR15, VR20], fpu=fpu)
        errors.characterize_ia([VR15, VR20], fpu=fpu, samples_per_op=2_000,
                               seed=self.seed)
        errors.characterize_da([golden.profile], [VR15, VR20], fpu=fpu,
                               sample_per_point=2_000, seed=self.seed)
        return None

    def build_benchmark(self, name: str, fpu):
        """make_workload -> golden (fast-forward on) -> characterize_wa."""
        from repro import errors
        from repro.campaign.runner import CampaignRunner
        from repro.circuit.liberty import VR15, VR20
        from repro.workloads import make_workload

        runner = CampaignRunner(make_workload(name, scale=SCALE,
                                              seed=self.seed),
                                seed=self.seed)
        golden = runner.golden()
        wa = errors.characterize_wa(golden.profile, [VR15, VR20], fpu=fpu)
        return golden, wa

    def rep(self, state) -> RepResult:
        from repro import errors
        from repro.circuit.liberty import VR15, VR20
        from repro.fpu.unit import FPU

        points = [VR15, VR20]
        record: Dict[str, object] = {}
        parts: Dict[str, str] = {}
        errs: List[str] = []
        failed = 0
        clock = StepClock(self.kernels)
        fpu = FPU()
        profiles = []
        for name in self.benchmarks:
            try:
                with clock.step(name):
                    golden, wa = self.build_benchmark(name, fpu)
            except Exception:
                failed += 2
                errs.append(traceback.format_exc())
                continue
            profiles.append(golden.profile)
            record[name] = golden_wa_record(golden, wa)
            parts[name] = _digest(record[name])
        try:
            with clock.step("ia"):
                ia = errors.characterize_ia(points, fpu=fpu,
                                            samples_per_op=MODEL_DEV_SAMPLES,
                                            seed=self.seed)
            record["ia"] = ia_record(ia)
        except Exception:
            failed += 1
            errs.append(traceback.format_exc())
        try:
            with clock.step("da"):
                da = errors.characterize_da(
                    profiles, points, fpu=fpu,
                    sample_per_point=MODEL_DEV_SAMPLES, seed=self.seed)
            record["da"] = da_record(da)
        except Exception:
            failed += 1
            errs.append(traceback.format_exc())
        wall = clock.finish()
        return RepResult(wall_s=wall, steps_ms=clock.steps_ms,
                         slowdowns=clock.slowdowns,
                         # golden + WA per benchmark, then IA and DA
                         attempted=2 * len(self.benchmarks) + 2,
                         failed=failed, digest=_digest(record), parts=parts,
                         errors=errs, shared=("ia", "da"))

    def cross_check(self, state, reps: List[RepResult]) -> List[str]:
        """Rebuild the first benchmark and compare with the body's."""
        from repro.fpu.unit import FPU

        name = self.benchmarks[0]
        again = _digest(golden_wa_record(*self.build_benchmark(name, FPU())))
        return [f"repetition {i}: {name} golden/WA digest differs on rebuild"
                for i, rep in enumerate(reps) if rep.parts.get(name) != again]


# -- campaigns ----------------------------------------------------------------
class CampaignSerial:
    """The Fig. 9 fixed-N grid, serial and in-process."""

    name = "campaign_serial"
    #: Pooled and serial cells must be equal, so they share one pin.
    digest_group = "campaign"
    why = ("the application-evaluation phase as run_all_experiments.py "
           "runs it: 42 cells x 60 runs, serial, no journal")
    nominal_rep_s = 5.3
    setups = 2
    kernels = ("dispatch",)
    pooled = False

    def __init__(self, seed: int, workdir: Path, benchmarks=None):
        from repro.experiments.context import BENCHMARKS

        self.seed = seed
        self.workdir = workdir
        self.benchmarks = tuple(benchmarks or BENCHMARKS)

    def imports(self) -> str:
        return ("import repro.campaign.executor, repro.campaign.journal, "
                "repro.experiments.context")

    def _config(self):
        from repro.campaign.executor import ExecutorConfig

        return ExecutorConfig(workers=POOL_WORKERS) if self.pooled else None

    def _journal(self, name: str):
        from repro.campaign.journal import RunJournal

        if not self.pooled:
            return None
        return RunJournal.open(self.workdir / name, seed=self.seed,
                               fsync="group")

    def setup(self):
        """Build the tiny experiment context, then warm one short cell."""
        from repro.artifacts import ArtifactStore
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.fastforward import FastForwardConfig
        from repro.experiments.context import ExperimentContext
        from repro.uarch.snapshot import PageStore

        fastforward = None
        pages = self.workdir / "pages"
        if self.pooled:
            # Every set-up writes its snapshot pages into an empty store.
            shutil.rmtree(pages, ignore_errors=True)
            fastforward = FastForwardConfig(page_store_dir=str(pages))
        context = ExperimentContext.create(
            scale=SCALE, seed=self.seed,
            characterization_samples=CONTEXT_SAMPLES,
            benchmarks=self.benchmarks, fastforward=fastforward)
        if self.pooled:
            # Drop the in-memory page copies the golden build left behind:
            # restores then read pages back through the artifact store, as
            # a process that did not build the goldens itself does.  Pages
            # are content-addressed, so results are unchanged.
            for runner in context.runners.values():
                snapshots = runner.golden().snapshots
                if snapshots is not None:
                    snapshots.pages = PageStore(
                        artifacts=ArtifactStore.local(pages))
        name = context.benchmarks[0]
        journal = self._journal("warmup.jsonl")
        try:
            executor = CampaignExecutor(context.runners[name],
                                        config=self._config(),
                                        journal=journal)
            executor.run_cell(context.wa[name], context.points[-1], runs=4)
        finally:
            if journal is not None:
                journal.close()
        return context

    def cells(self, context):
        for name in context.benchmarks:
            for model in context.models_for(name):
                for point in context.points:
                    yield name, model, point

    def rep(self, context) -> RepResult:
        from repro.campaign.executor import CampaignExecutor

        cells: Dict[str, list] = {}
        errs: List[str] = []
        failed = 0
        attempted = 0
        clock = StepClock(self.kernels)
        journal = self._journal("journal.jsonl")
        config = self._config()
        try:
            executors = {}
            for name, model, point in self.cells(context):
                if name not in executors:
                    executors[name] = CampaignExecutor(
                        context.runners[name], config=config,
                        journal=journal)
                attempted += RUNS_PER_CELL
                key = f"{name}/{model.name}/{point.name}"
                try:
                    with clock.step(key):
                        result = executors[name].run_cell(
                            model, point, runs=RUNS_PER_CELL)
                except Exception:
                    failed += RUNS_PER_CELL
                    errs.append(traceback.format_exc())
                    continue
                failed += result.stats.failed + result.stats.harness_errors
                cells[key] = cell_record(result)
        finally:
            if journal is not None:
                journal.close()
        wall = clock.finish()
        parts = {key: _digest(value) for key, value in cells.items()}
        return RepResult(wall_s=wall, steps_ms=clock.steps_ms,
                         slowdowns=clock.slowdowns, attempted=attempted,
                         failed=min(failed, attempted),
                         digest=_digest(sorted(cells.values())),
                         parts=parts, errors=errs)

    def cross_check(self, context, reps: List[RepResult]) -> List[str]:
        """Re-run two cells serially; pooled cells must equal them."""
        if not self.pooled:
            return []
        from repro.campaign.executor import CampaignExecutor

        grid = list(self.cells(context))
        problems = []
        for name, model, point in random.Random(self.seed).sample(grid, 2):
            result = CampaignExecutor(context.runners[name]).run_cell(
                model, point, runs=RUNS_PER_CELL)
            key = f"{name}/{model.name}/{point.name}"
            want = _digest(cell_record(result))
            for i, rep in enumerate(reps):
                if rep.parts.get(key) != want:
                    problems.append(f"repetition {i}: pooled cell {key} "
                                    f"differs from its serial re-run")
        return problems


class CampaignPooled(CampaignSerial):
    """The same grid through the crash-safe production posture."""

    name = "campaign_pooled"
    why = ("a long crash-safe campaign: 2 forked workers, CRC run journal "
           "with group fsync, snapshot pages read from an artifact store")
    nominal_rep_s = 4.2
    pooled = True


WORKLOADS = {cls.name: cls for cls in (ModelDev, CampaignSerial,
                                      CampaignPooled)}
