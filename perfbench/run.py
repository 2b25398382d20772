#!/usr/bin/env python3
"""Benchmark of the timing-error assessment framework.

Usage (from the repository root)::

    python3 perfbench/run.py --workload model_dev --seed 2021 \\
        --seconds 10 --trace 0

Runs one workload (``model_dev``, ``campaign_serial`` or
``campaign_pooled``; see ``perfbench/README.md``) and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of untraced repetitions.  ``--trace 1`` runs the same
repetitions untraced and then traced, and reports the per-layer metrics
of the traced ones.  Everything the run writes goes under
``.perfbench_run/`` in the repository root; the merged spans of a traced
run stay there as ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"

_now = time.perf_counter

#: Layer groups of the traced set-up (golden builds vs characterization).
GOLDEN_BUILD = ("uarch.trace", "uarch.core", "campaign.golden",
                "campaign.ff.build", "workloads.fp", "artifacts.put")
CHARACTERIZATION = ("errors.wa", "errors.ia", "errors.da", "fpu.dta")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, unknown workload)."""


def time_imports(statement: str) -> float:
    """Seconds a fresh interpreter spends on the workload's imports."""
    code = ("import time; t = time.perf_counter(); " + statement
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of every order statistic: unlike picking or
    interpolating one or two of them, it does not jump when a seed
    reorders the cells around the quantile.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_norm)

    grid = 200  # midpoint rule per order statistic
    total = weighted = 0.0
    for i, value in enumerate(ordered):
        w = sum(density((i + (k + 0.5) / grid) / n)
                for k in range(grid)) / (grid * n)
        total += w
        weighted += w * value
    return weighted / total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _scaled_steps(rep) -> dict:
    """A repetition's step times scaled to the reference host (ms)."""
    return dict(zip(rep.steps_ms, hostspeed.scale_steps(
        list(rep.steps_ms.values()), rep.slowdowns)))


def median_steps(reps) -> dict:
    """Per step, the median of its scaled times over the repetitions (ms)."""
    scaled = [_scaled_steps(rep) for rep in reps]
    keys = dict.fromkeys(key for steps in scaled for key in steps)
    return {key: statistics.median(s[key] for s in scaled if key in s)
            for key in keys}


def body_wall(reps) -> float:
    """Scaled wall time of one repetition of the body, in seconds.

    The sum over steps of each step's median scaled time, plus the
    median of the scaled remainder outside any step (journal open and
    close, loop overhead).
    """
    def rest_ms(rep):
        ms = rep.wall_s * 1000.0 - sum(rep.steps_ms.values())
        return ms / statistics.median(rep.slowdowns)

    rest = statistics.median(rest_ms(r) for r in reps)
    return (sum(median_steps(reps).values()) + rest) / 1000.0


def end_to_end(setup_s, reps, attempted: int, failed: int) -> dict:
    """The user-visible metrics, name -> (value, unit)."""
    wall = body_wall(reps)
    steps = [ms for key, ms in median_steps(reps).items()
             if key not in reps[0].shared]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (reps[0].attempted / wall, "1/s"),
        "step_p50_ms": (quantile(steps, 0.50), "ms"),
        "step_p75_ms": (quantile(steps, 0.75), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_reps, untraced_reps,
                  setup_wall: float) -> dict:
    """Per-layer metrics of the traced repetitions, name -> (value, unit).

    Times and counts are per repetition.  Only the parent's spans lie on
    the timeline of ``trace.wall_s``, so on that timeline
    ``sum(<layer>.s) - trace.worker_s + residual.s == trace.wall_s``;
    ``trace.worker_s`` is the layer time pool workers spent in parallel.
    """
    reps = range(len(traced_reps))
    per = 1.0 / len(traced_reps)
    own = tracing.self_times(
        (s for s in tracer.spans if s.rep in reps),
        {k: v for k, v in tracer.rollups.items() if k[2] in reps})
    layer = defaultdict(float)
    parent_s = worker_s = 0.0
    for (name, proc), seconds in own.items():
        layer[name] += seconds * per
        if proc == tracer.proc:
            parent_s += seconds * per
        else:
            worker_s += seconds * per
    n = defaultdict(float)
    for (rep, name), value in tracer.counts.items():
        if rep in reps:
            n[name] += value * per
    wall = statistics.mean(r.wall_s for r in traced_reps)

    m = {}
    for name in tracing.LAYERS:
        key = ("campaign.executor.self_s" if name == "campaign.executor"
               else f"{name}.s")
        m[key] = (layer[name], "s")
    for name in ("uarch.trace", "uarch.core"):
        m[f"{name}.instrs"] = (n[f"{name}.instrs"], "count")
        m[f"{name}.ns_per_instr"] = (
            _ratio(layer[name] * 1e9, n[f"{name}.instrs"]), "ns")
    m["uarch.core.sim_cycles"] = (n["uarch.core.sim_cycles"], "cycles")
    m["campaign.ff.snapshot_bytes"] = (n["campaign.ff.snapshot_bytes"],
                                       "bytes")
    m["fpu.dta.vectors"] = (n["fpu.dta.vectors"], "count")
    m["fpu.dta.ns_per_vector"] = (
        _ratio(layer["fpu.dta"] * 1e9, n["fpu.dta.vectors"]), "ns")
    m["errors.plan.calls"] = (n["errors.plan.calls"], "count")
    m["uarch.injector.victims"] = (n["uarch.injector.victims"], "count")
    m["uarch.injector.masked_frac"] = (
        _ratio(n["uarch.injector.masked"], n["uarch.injector.victims"]),
        "fraction")
    m["campaign.guest.calls"] = (n["campaign.guest.calls"], "count")
    m["campaign.guest_frac"] = (
        _ratio(n["campaign.guest.calls"], n["campaign.executor.runs"]),
        "fraction")
    m["campaign.ff.inject.restores"] = (n["campaign.ff.inject.restores"],
                                        "count")
    m["campaign.ff.inject.early_exits"] = (
        n["campaign.ff.inject.early_exits"], "count")
    skipped = n["campaign.ff.ops_skipped"]
    m["campaign.ff.skip_frac"] = (
        _ratio(skipped, skipped + n["campaign.ff.ops_replayed"]), "fraction")
    m["workloads.fp_calls"] = (n["workloads.fp_calls"], "count")
    m["workloads.fp_ops"] = (n["workloads.fp_ops"], "count")
    m["workloads.ops_per_call"] = (
        _ratio(n["workloads.fp_ops"], n["workloads.fp_calls"]), "count")
    m["workloads.ns_per_fp_op"] = (
        _ratio(layer["workloads.fp"] * 1e9, n["workloads.fp_ops"]), "ns")
    m["campaign.executor.worker_restarts"] = (
        n["campaign.executor.worker_restarts"], "count")
    m["campaign.executor.retries"] = (n["campaign.executor.retries"],
                                      "count")
    for name in ("records", "fsyncs", "bytes"):
        m[f"campaign.journal.{name}"] = (
            n[f"campaign.journal.{name}"],
            "bytes" if name == "bytes" else "count")
    m["artifacts.get.calls"] = (n["artifacts.get.calls"], "count")
    m["artifacts.bytes_read"] = (n["artifacts.bytes_read"], "bytes")
    m["residual.s"] = (wall - parent_s, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.worker_s"] = (worker_s, "s")
    m["trace.overhead_s"] = (body_wall(traced_reps)
                             - body_wall(untraced_reps), "s")
    # Layer times are raw; this says how slow the host ran meanwhile.
    m["trace.host_slowdown"] = (
        statistics.median(s for r in traced_reps for s in r.slowdowns),
        "ratio")

    # The traced set-up, parent side only, grouped.
    setup = tracing.self_times(
        (s for s in tracer.spans if s.rep == "setup"),
        {k: v for k, v in tracer.rollups.items() if k[2] == "setup"})
    golden = sum(v for (name, proc), v in setup.items()
                 if proc == tracer.proc and name in GOLDEN_BUILD)
    char = sum(v for (name, proc), v in setup.items()
               if proc == tracer.proc and name in CHARACTERIZATION)
    m["setup.golden_build.s"] = (golden, "s")
    m["setup.characterization.s"] = (char, "s")
    m["setup.other.s"] = (setup_wall - golden - char, "s")
    return m


def run(workload, seconds: int, trace: bool, tracer) -> dict:
    """Set up, run the repetitions, check them; returns the result object."""
    reps_wanted = max(2, round(seconds / workload.nominal_rep_s))

    # Set-up, several times: imports in a fresh interpreter, then the
    # in-process warm-up/context build.  The last one is traced.
    setup_s = []
    setup_wall = 0.0
    for trial in range(workload.setups):
        state = None  # let the previous context go before building anew
        imports = time_imports(workload.imports())
        traced = trace and trial == workload.setups - 1
        if traced:
            tracer.rep = "setup"
            tracing.install(tracer)
        try:
            t0 = _now()
            state = workload.setup()
            setup_wall = _now() - t0
        finally:
            if traced:
                tracer.uninstall()
        setup_s.append(imports + setup_wall)

    reps = [workload.rep(state) for _ in range(reps_wanted)]
    traced_reps = []
    if trace:
        tracing.install(tracer)
        try:
            for i in range(reps_wanted):
                tracer.rep = i
                traced_reps.append(workload.rep(state))
        finally:
            tracer.uninstall()
        tracer.merge_worker_files()

    # A wrong result fails every operation of its repetition; a pooled
    # cell that differs from its serial re-run makes every repetition
    # wrong.
    cross = workload.cross_check(state, reps + traced_reps)
    problems = list(cross)
    pinned = json.loads(PINNED.read_text())
    reference = pinned.get(workload.digest_group, {}).get(str(workload.seed))
    if reference is None:
        reference = reps[0].digest
    attempted = failed = 0
    for i, rep in enumerate(reps + traced_reps):
        attempted += rep.attempted
        problems.extend(rep.errors)
        wrong = rep.digest != reference or bool(cross)
        if rep.digest != reference:
            problems.append(f"repetition {i}: digest {rep.digest[:16]} "
                            f"!= {reference[:16]}")
        failed += rep.attempted if wrong else rep.failed
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, traced_reps, reps, setup_wall)
    else:
        metrics = end_to_end(setup_s, reps, attempted, failed)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError("no program sources under src/repro")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError("imported repro from outside this checkout")
    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(WORKLOADS)}")
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    (run_dir / "spans").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    print(f"# {workload.name}: {workload.why}")
    tracer = tracing.Tracer(run_dir / "spans")
    try:
        result = run(workload, args.seconds, bool(args.trace), tracer)
        if args.trace:
            tracer.write(run_dir.parent / f"trace-{workload.name}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
