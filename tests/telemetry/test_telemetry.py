"""Tests for the telemetry subsystem.

Covers the ISSUE-mandated behaviours: span nesting, counter merge across
forked campaign workers, JSONL sink torn-line tolerance, the disabled
no-op fast path, and campaign determinism with telemetry on.
"""

import json
import time

import pytest

from repro import telemetry
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.telemetry import JsonlSink, Stat, read_trace, summary_table
from repro.telemetry.core import _NULL_SPAN


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestCountersAndStats:
    def test_counters_accumulate(self):
        telemetry.enable()
        telemetry.count("x")
        telemetry.count("x", 4)
        assert telemetry.snapshot()["counters"]["x"] == 5

    def test_observe_tracks_distribution(self):
        telemetry.enable()
        for value in (3.0, 1.0, 2.0):
            telemetry.observe("lat", value)
        stat = telemetry.snapshot()["stats"]["lat"]
        assert stat["count"] == 3
        assert stat["total"] == 6.0
        assert stat["min"] == 1.0 and stat["max"] == 3.0

    def test_stat_merge(self):
        a = Stat()
        b = Stat()
        a.add(1.0)
        a.add(5.0)
        b.add(3.0)
        a.merge(b)
        assert a.count == 3 and a.total == 9.0
        assert a.min == 1.0 and a.max == 5.0

    def test_drain_is_a_delta(self):
        collector = telemetry.enable()
        telemetry.count("n", 2)
        first = collector.drain()
        assert first["counters"]["n"] == 2
        assert collector.drain()["counters"] == {}
        telemetry.merge(first)
        telemetry.merge({"counters": {}, "stats": {}})  # idempotent no-op
        assert telemetry.snapshot()["counters"]["n"] == 2


class TestSpanNesting:
    def test_paths_join_open_spans(self):
        records = []

        class Sink:
            def on_span(self, record):
                records.append(record)

        telemetry.enable().add_sink(Sink())
        with telemetry.span("outer"):
            with telemetry.span("inner", step=1):
                pass
            with telemetry.span("inner"):
                pass
        paths = [r.path for r in records]
        assert paths == ["outer/inner", "outer/inner", "outer"]
        assert records[0].depth == 1 and records[-1].depth == 0
        assert records[0].attrs == {"step": 1}

    def test_span_durations_feed_stats(self):
        telemetry.enable()
        with telemetry.span("work"):
            time.sleep(0.002)
        stat = telemetry.snapshot()["stats"]["work"]
        assert stat["count"] == 1
        assert stat["total"] >= 0.001

    def test_timed_decorator(self):
        @telemetry.timed("fn")
        def fn(x):
            return x * 2

        assert fn(3) == 6  # disabled: plain passthrough
        telemetry.enable()
        assert fn(4) == 8
        assert telemetry.snapshot()["stats"]["fn"]["count"] == 1


class TestDisabledFastPath:
    def test_span_returns_shared_null_object(self):
        assert telemetry.span("anything") is _NULL_SPAN
        assert telemetry.span("other", attr=1) is _NULL_SPAN
        with telemetry.span("nested"):
            pass  # usable as a context manager

    def test_probes_are_noops(self):
        telemetry.count("x", 100)
        telemetry.observe("y", 1.0)
        telemetry.merge({"counters": {"x": 1}, "stats": {}})
        assert telemetry.snapshot() == {"counters": {}, "stats": {}}
        assert not telemetry.enabled()

    def test_disabled_overhead_is_small(self):
        """Guard: a disabled probe is within ~an order of a dict lookup.

        Generous bound (50x a no-op function call) so slow CI machines
        don't flake; catches only regressions that add real work (time
        syscalls, allocation, locking) to the disabled path.
        """
        def noop():
            pass

        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            noop()
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n):
            telemetry.count("overhead.probe")
        probed = time.perf_counter() - start
        assert probed < baseline * 50 + 0.05


class TestJsonlSink:
    def test_trace_contains_meta_spans_snapshot(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        collector = telemetry.enable()
        sink = JsonlSink(path, meta={"benchmark": "kmeans"})
        collector.add_sink(sink)
        with telemetry.span("phase", kind="test"):
            telemetry.count("n")
        sink.close(collector)
        events = read_trace(path)
        assert events[0]["type"] == "meta"
        assert events[0]["benchmark"] == "kmeans"
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["phase"]
        assert events[-1]["type"] == "snapshot"
        assert events[-1]["counters"]["n"] == 1

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta"}) + "\n")
            fh.write(json.dumps({"type": "span", "name": "ok"}) + "\n")
            fh.write('{"type": "span", "name": "tor')  # killed mid-write
        events = read_trace(path)
        assert len(events) == 2
        assert events[-1]["name"] == "ok"

    def test_summary_table_renders(self):
        telemetry.enable()
        telemetry.count("events", 12)
        telemetry.observe("lat", 0.5)
        text = summary_table(telemetry.snapshot())
        assert "telemetry summary" in text
        assert "events" in text and "12" in text
        assert "lat" in text

    def test_summary_table_empty(self):
        assert "no data" in summary_table(telemetry.snapshot())


class TestCharacterizationCounters:
    def test_dta_counts_proved_clean_pairs(self):
        """At VR15 + VR20, 8 ops are provably clean at both points and
        fp.add.d at VR15 too; FPU.dta skips and counts those pairs."""
        from repro.circuit.liberty import VR15, VR20
        from repro.errors.characterize import characterize_ia
        from repro.fpu.formats import ALL_OPS

        samples = 500
        telemetry.enable()
        characterize_ia([VR15, VR20], samples_per_op=samples, seed=3)
        counters = telemetry.snapshot()["counters"]
        assert counters["fpu.dta.vectors"] == len(ALL_OPS) * samples
        assert counters["fpu.dta.clean_points"] == (8 * 2 + 1) * samples


class TestCampaignIntegration:
    def test_serial_campaign_populates_counters(self, tiny_runners,
                                                wa_models, monkeypatch):
        from repro.campaign.fastforward import FastForwardConfig
        from repro.campaign.runner import CampaignRunner
        from repro.circuit.liberty import VR20
        from repro.fpu.formats import FpOp
        from repro.workloads import make_workload
        from repro.workloads.base import FPContext

        runner = tiny_runners["kmeans"]
        # A snapshot per step, so a late victim skips a golden prefix.
        dense = CampaignRunner(make_workload("kmeans", scale="tiny", seed=11),
                               seed=11,
                               fastforward=FastForwardConfig(interval=1))
        last = dense.golden().profile.counts_by_op[FpOp.ADD_D] - 1
        # Every FP op a guest dispatches is charged once; a snapshot
        # restore moves ops_executed without charging the skipped prefix.
        charged = []
        charge = FPContext._charge

        def counting_charge(self, op, n):
            charged.append(n)
            return charge(self, op, n)

        monkeypatch.setattr(FPContext, "_charge", counting_charge)
        telemetry.enable()
        with CampaignExecutor(runner) as executor:
            executor.run_cell(wa_models["kmeans"], VR20, runs=6)
        dense.run_guest({FpOp.ADD_D: {last: 1}})
        data = telemetry.snapshot()
        assert data["counters"]["campaign.ff.ops_skipped"] > 0
        assert data["counters"]["workloads.fp_ops"] == sum(charged) > 0
        assert data["counters"]["campaign.cells"] == 1
        assert data["counters"]["campaign.runs.executed"] == 6
        assert data["stats"]["campaign.run_ms"]["count"] == 6
        outcome_total = sum(
            n for name, n in data["counters"].items()
            if name.startswith("campaign.outcome.")
        )
        assert outcome_total == 6

    def test_golden_build_spans_trace_and_core(self):
        from repro.campaign.runner import CampaignRunner
        from repro.workloads import make_workload

        records = []

        class Sink:
            def on_span(self, record):
                records.append(record)

        telemetry.enable().add_sink(Sink())
        runner = CampaignRunner(make_workload("sobel", scale="tiny", seed=11),
                                seed=11)
        schedule = runner.golden().schedule
        paths = [r.path for r in records]
        assert paths.count("campaign.golden/uarch.trace") == 1
        assert paths.count("campaign.golden/uarch.core") == 1
        assert paths[-1] == "campaign.golden"
        core = next(r for r in records if r.name == "uarch.core")
        assert core.attrs["instructions"] == schedule.window_instructions

    def test_counter_merge_across_forked_workers(self, tiny_runners,
                                                 wa_models):
        from repro.circuit.liberty import VR20

        telemetry.enable()
        runner = tiny_runners["kmeans"]
        config = ExecutorConfig(workers=2)
        with CampaignExecutor(runner, config=config) as executor:
            result = executor.run_cell(wa_models["kmeans"], VR20, runs=8)
        data = telemetry.snapshot()
        assert result.counts.total == 8
        # campaign.runs is counted inside the forked workers and must
        # arrive in the parent via drained deltas, exactly once each.
        assert data["counters"]["campaign.runs"] == 8
        assert data["counters"]["campaign.runs.executed"] == 8
        assert data["stats"]["campaign.run_ms"]["count"] == 8

    def test_campaign_bit_identical_with_telemetry(self, tiny_runners,
                                                   wa_models):
        from repro.circuit.liberty import VR20

        runner = tiny_runners["hotspot"]
        model = wa_models["hotspot"]

        def outcomes():
            with CampaignExecutor(runner) as executor:
                result = executor.run_cell(model, VR20, runs=10)
            return (dict(result.counts.counts), result.avm,
                    result.error_ratio)

        telemetry.disable()
        plain = outcomes()
        telemetry.enable()
        traced = outcomes()
        assert plain == traced
