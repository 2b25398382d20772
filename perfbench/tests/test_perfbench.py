"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


# -- self-time arithmetic -----------------------------------------------------
def test_self_times_on_synthetic_spans():
    parent, worker = 100, 200
    spans = [
        Span("a", 0.0, 10.0, None, 0, parent, 1),
        Span("b", 1.0, 4.0, 1, 0, parent, 2),
        Span("c", 5.0, 9.0, 1, 0, parent, 3),
        Span("d", 6.0, 7.0, 3, 0, parent, 4),
        # A forked worker's span: its parent sid belongs to the parent
        # process, so it never reduces the parent's self time.
        Span("w", 2.0, 8.0, 1, 0, worker, 5),
    ]
    rollups = {("fp", 3, 0, parent): [7, 0.5],
               ("fp", 5, 0, worker): [3, 1.5]}
    own = self_times(spans, rollups)
    assert own[("a", parent)] == pytest.approx(3.0)
    assert own[("b", parent)] == pytest.approx(3.0)
    assert own[("c", parent)] == pytest.approx(2.5)
    assert own[("d", parent)] == pytest.approx(1.0)
    assert own[("fp", parent)] == pytest.approx(0.5)
    assert own[("w", worker)] == pytest.approx(4.5)
    assert own[("fp", worker)] == pytest.approx(1.5)
    on_parent = sum(v for (name, proc), v in own.items() if proc == parent)
    assert on_parent == pytest.approx(10.0)


def test_nested_same_name_calls_are_one_span():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "layer")

    def outer(x):
        return traced_inner(x) * 2

    assert tracer.wrap(outer, "layer")(1) == 4
    assert [s.name for s in tracer.spans] == ["layer"]


def test_tracer_round_trips_through_worker_files(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.rep = 0
    tracer.wrap(lambda: None, "x")()
    tracer.count("x.calls", 2)
    worker = Tracer(tmp_path)
    worker.load(tracer.dump())
    worker.write_worker_file()
    merged = Tracer(tmp_path)
    assert merged.merge_worker_files() == 1
    assert [s.name for s in merged.spans] == ["x"]
    assert merged.counts[(0, "x.calls")] == 2
    assert not list(tmp_path.glob("spans-*"))


# -- metric names and units ---------------------------------------------------
def _rep(wall, steps, shared=()):
    return workloads.RepResult(wall_s=wall, steps_ms=steps,
                               slowdowns=[1.0] * (len(steps) + 1),
                               attempted=10, failed=0, digest="d",
                               shared=shared)


def test_end_to_end_names_and_units_match_the_spec():
    reps = [_rep(1.0, {"a": 400.0, "b": 500.0}),
            _rep(1.2, {"a": 300.0, "b": 700.0})]
    metrics = run.end_to_end([2.0, 3.0, 2.5], reps, attempted=20, failed=0)
    assert {k: u for k, (v, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, u in metrics.values())


def test_body_wall_sums_each_steps_median_over_repetitions():
    reps = [_rep(1.0, {"a": 400.0, "b": 500.0, "ia": 50.0}, shared=("ia",)),
            _rep(1.2, {"a": 300.0, "b": 700.0, "ia": 60.0}, shared=("ia",)),
            _rep(1.1, {"a": 350.0, "b": 600.0, "ia": 40.0}, shared=("ia",))]
    # medians a 350 + b 600 + ia 50 = 1.0 s; outside-step remainders
    # 0.05, 0.14, 0.11 s have median 0.11 s.
    assert run.body_wall(reps) == pytest.approx(1.0 + 0.11)
    assert run.median_steps(reps) == pytest.approx(
        {"a": 350.0, "b": 600.0, "ia": 50.0})


def test_quantile_is_smooth_and_centred():
    values = [float(v) for v in range(1, 43)]
    assert run.quantile(values, 0.5) == pytest.approx(21.5)
    assert run.quantile(values, 0.75) == pytest.approx(32.0, abs=0.01)
    assert run.quantile([5.0], 0.75) == pytest.approx(5.0)


def test_steps_are_scaled_by_the_host_speed_around_them():
    steps = [100.0, 200.0, 300.0, 100.0, 100.0]
    # A host running twice as slow throughout halves every step.
    assert hostspeed.scale_steps(steps, [2.0] * 6) == pytest.approx(
        [s / 2 for s in steps])
    # One jittery kernel does not move its neighbours' steps.
    slowdowns = [1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
    assert hostspeed.scale_steps(steps, slowdowns) == pytest.approx(steps)
    with pytest.raises(ValueError):
        hostspeed.scale_steps(steps, slowdowns[:-1])


@pytest.mark.parametrize("kind", sorted(hostspeed.KERNELS))
def test_each_kernel_reports_a_slowdown(kind):
    assert 0.1 < hostspeed.slowdown(kind) < 20.0


@pytest.fixture(scope="module")
def pooled_slice(tmp_path_factory):
    """A traced one-benchmark pooled campaign (6 cells), set up once."""
    workdir = tmp_path_factory.mktemp("pooled")
    (workdir / "spans").mkdir()
    workload = workloads.CampaignPooled(2021, workdir, benchmarks=("kmeans",))
    context = workload.setup()
    untraced = workload.rep(context)
    tracer = Tracer(workdir / "spans")
    tracing.install(tracer)
    try:
        tracer.rep = 0
        traced = workload.rep(context)
    finally:
        tracer.uninstall()
    tracer.merge_worker_files()
    return workload, context, untraced, traced, tracer


def test_layer_names_and_units_match_the_spec(pooled_slice):
    workload, context, untraced, traced, tracer = pooled_slice
    metrics = run.layer_metrics(tracer, [traced], [untraced], 1.0)
    assert {k: u for k, (v, u) in metrics.items()} == _units("per_layer")


def test_layer_self_times_and_residual_sum_to_traced_wall(pooled_slice):
    workload, context, untraced, traced, tracer = pooled_slice
    m = {k: v for k, (v, u) in run.layer_metrics(
        tracer, [traced], [untraced], 1.0).items()}
    layers = sum(v for k, v in m.items()
                 if k.endswith(".s") and not k.startswith(("setup.",
                                                           "residual")))
    layers += m["campaign.executor.self_s"]
    assert layers - m["trace.worker_s"] + m["residual.s"] == pytest.approx(
        m["trace.wall_s"])
    # The pooled cells ran in forked workers and shipped their spans home.
    assert m["trace.worker_s"] > 0
    assert m["workloads.fp_calls"] > 0
    assert m["campaign.journal.records"] > 0
    assert m["artifacts.get.calls"] > 0


def test_tracing_leaves_no_wrapper_behind(pooled_slice):
    from repro.campaign.runner import CampaignRunner
    from repro.workloads.base import FPContext

    assert not hasattr(CampaignRunner.golden, "__wrapped__")
    assert not hasattr(FPContext.add, "__wrapped__")


# -- correctness check --------------------------------------------------------
def test_pooled_cells_equal_serial_on_a_two_cell_slice(pooled_slice):
    workload, context, untraced, traced, tracer = pooled_slice
    # cross_check re-runs two cells serially and compares them with the
    # pooled repetitions' cells.
    assert workload.cross_check(context, [untraced, traced]) == []
    assert untraced.digest == traced.digest


def test_campaign_digest_is_stable_and_pooled_equals_serial(tmp_path,
                                                            pooled_slice):
    pooled = pooled_slice[2]
    serial = workloads.CampaignSerial(2021, tmp_path, benchmarks=("kmeans",))
    context = serial.setup()
    first, second = serial.rep(context), serial.rep(context)
    assert first.digest == second.digest == pooled.digest
    assert first.parts == pooled.parts
    assert first.failed == 0 and first.attempted == 6 * 60


def test_model_digest_is_stable_on_a_slice(tmp_path):
    from repro.fpu.unit import FPU

    workload = workloads.ModelDev(2021, tmp_path)
    records = [workloads.golden_wa_record(*workload.build_benchmark(
        "kmeans", FPU())) for _ in range(2)]
    assert records[0] == records[1]
    assert records[0]["golden_cycles"] > 0


def test_pinned_digests_cover_the_default_seed():
    pinned = json.loads(run.PINNED.read_text())
    groups = {cls.digest_group for cls in workloads.WORKLOADS.values()}
    assert groups == set(pinned)
    assert all("2021" in seeds for seeds in pinned.values())
