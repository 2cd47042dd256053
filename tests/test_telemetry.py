"""Tests for the telemetry subsystem: events, metrics, export, profiles.

The single most important property is the identity invariant: attaching
any tracer must not change what the timing model does.  Everything else
— recording, aggregation, export, profile diffing — is validated against
real DIE-IRB runs so the event streams exercised are the ones the
pipelines actually emit.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.isa import FUClass, Opcode
from repro.simulation import MODELS, run_workload
from repro.telemetry import (
    CheckEvent,
    CycleEvent,
    Histogram,
    InstEvent,
    IRBEvent,
    MetricsCollector,
    NULL_TRACER,
    NullTracer,
    ProfileDiff,
    RecordingTracer,
    RunProfile,
    TeeTracer,
    Timeline,
    Tracer,
    build_profile,
    chrome_trace,
    diff_profiles,
    duplicate_service_split,
    load_profile,
    render_pipeview,
    replay,
    save_profile,
    validate_chrome_trace,
)
from repro.telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_PORT_STARVED,
    IRB_REUSE_HIT,
    STAGE_COMMIT,
    STAGE_COMPLETE,
    STAGE_DISPATCH,
    STAGE_FETCH,
    STAGE_ISSUE,
)

N = 3_000


def traced_run(model="die-irb", workload="gzip", n=N, **kwargs):
    recorder = RecordingTracer()
    collector = MetricsCollector()
    result = run_workload(
        workload, model=model, n_insts=n,
        tracer=TeeTracer(recorder, collector), **kwargs
    )
    return result, recorder, collector


@pytest.fixture(scope="module")
def die_irb_run():
    return traced_run("die-irb")


@pytest.fixture(scope="module")
def sie_run():
    return traced_run("sie")


# ----------------------------------------------------------------------
# Tracer protocol
# ----------------------------------------------------------------------


class TestTracerProtocol:
    def test_null_tracer_is_falsy(self):
        assert not NULL_TRACER
        assert not NullTracer()

    def test_real_tracers_are_truthy(self):
        assert RecordingTracer()
        assert MetricsCollector()
        assert TeeTracer()

    def test_base_tracer_emit_abstract(self):
        with pytest.raises(NotImplementedError):
            Tracer().emit(CycleEvent(0, 0, 0))

    @pytest.mark.parametrize(
        "method, args, expected",
        [
            (
                "emit_inst",
                (STAGE_ISSUE, 7, 3, 0x40, Opcode.ADD, 1, FUClass.INT_ALU),
                InstEvent(STAGE_ISSUE, 7, 3, 0x40, Opcode.ADD, 1, FUClass.INT_ALU),
            ),
            (
                "emit_irb",
                (IRB_LOOKUP, 5, 0x40, Opcode.ADD),
                IRBEvent(IRB_LOOKUP, 5, 0x40, Opcode.ADD),
            ),
            (
                "emit_irb",
                (IRB_PORT_STARVED, 5, 0x40),
                IRBEvent(IRB_PORT_STARVED, 5, 0x40),
            ),
            ("emit_check", (9, 3, False), CheckEvent(9, 3, False)),
            ("emit_cycle", (4, 12, 2), CycleEvent(4, 12, 2)),
        ],
    )
    def test_typed_defaults_hand_emit_the_event(self, method, args, expected):
        """Each typed method's default builds the event once for emit."""
        recorder = RecordingTracer()
        getattr(recorder, method)(*args)
        [event] = recorder.events
        assert type(event) is type(expected)
        assert dataclasses.astuple(event) == dataclasses.astuple(expected)

    def test_tee_builds_each_typed_event_once(self):
        a, b = RecordingTracer(), RecordingTracer()
        TeeTracer(a, b).emit_check(9, 3, True)
        assert a.events == b.events == [CheckEvent(9, 3, True)]
        assert a.events[0] is b.events[0]

    def test_recording_limit_drops_not_raises(self):
        tracer = RecordingTracer(limit=3)
        for cycle in range(5):
            tracer.emit(CycleEvent(cycle, 0, 0))
        assert len(tracer.events) == 3
        assert tracer.dropped == 2

    def test_tee_fans_out_and_skips_falsy(self):
        a, b = RecordingTracer(), RecordingTracer()
        tee = TeeTracer(a, NULL_TRACER, b)
        assert len(tee.tracers) == 2  # null tracer filtered out
        tee.emit(CycleEvent(1, 2, 3))
        assert a.events == b.events == [CycleEvent(1, 2, 3)]

    def test_replay_rebuilds_metrics(self, die_irb_run):
        _, recorder, collector = die_irb_run
        rebuilt = MetricsCollector()
        replay(recorder.events, rebuilt)
        assert rebuilt.snapshot() == collector.snapshot()


# ----------------------------------------------------------------------
# Identity invariant: observation never steers
# ----------------------------------------------------------------------


class TestIdentityInvariant:
    @pytest.mark.parametrize("model", ["sie", "die", "die-irb", "sie-irb"])
    def test_tracer_does_not_change_timing(self, model):
        bare = run_workload("gzip", model=model, n_insts=N)
        traced, _, _ = traced_run(model)
        assert traced.stats.to_dict() == bare.stats.to_dict()


# ----------------------------------------------------------------------
# Event streams from real runs
# ----------------------------------------------------------------------


class TestEventStream:
    def test_lifecycle_stages_all_present(self, die_irb_run):
        _, recorder, _ = die_irb_run
        kinds = {e.kind for e in recorder.events if isinstance(e, InstEvent)}
        for stage in (STAGE_FETCH, STAGE_DISPATCH, STAGE_ISSUE,
                      STAGE_COMPLETE, STAGE_COMMIT):
            assert stage in kinds

    @pytest.mark.parametrize("model", MODELS)
    def test_one_issue_event_per_issued_entry(self, model):
        """Sampled ``issued`` is binned from these events, so every issue
        (an SIE-IRB reuse hit included) must emit exactly one."""
        result, recorder, _ = traced_run(model, n=500)
        issues = [
            e for e in recorder.events
            if isinstance(e, InstEvent) and e.kind == STAGE_ISSUE
        ]
        assert len(issues) == result.stats.issued

    def test_one_cycle_event_per_cycle(self, die_irb_run):
        result, recorder, _ = die_irb_run
        cycles = [e.cycle for e in recorder.events if isinstance(e, CycleEvent)]
        assert len(cycles) == result.stats.cycles
        assert cycles == sorted(cycles)

    def test_die_emits_both_streams_and_checks(self, die_irb_run):
        result, recorder, _ = die_irb_run
        streams = {e.stream for e in recorder.events if isinstance(e, InstEvent)}
        assert streams == {0, 1}
        checks = [e for e in recorder.events if isinstance(e, CheckEvent)]
        assert len(checks) == result.stats.pairs_checked
        assert all(c.ok for c in checks)  # no faults injected

    def test_irb_funnel_is_ordered(self, die_irb_run):
        result, recorder, _ = die_irb_run
        irb = [e for e in recorder.events if isinstance(e, IRBEvent)]
        by_kind = {}
        for e in irb:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        assert by_kind[IRB_LOOKUP] == result.stats.irb_lookups
        assert by_kind[IRB_PC_HIT] == result.stats.irb_pc_hits
        assert by_kind[IRB_REUSE_HIT] == result.stats.irb_reuse_hits
        # The funnel narrows: lookups >= pc hits >= reuse hits > 0.
        assert (by_kind[IRB_LOOKUP] >= by_kind[IRB_PC_HIT]
                >= by_kind[IRB_REUSE_HIT] > 0)

    def test_sie_has_single_stream_no_checks(self, sie_run):
        _, recorder, _ = sie_run
        streams = {e.stream for e in recorder.events if isinstance(e, InstEvent)}
        assert streams == {0}
        assert not any(isinstance(e, CheckEvent) for e in recorder.events)

    def test_events_are_frozen(self):
        event = CycleEvent(1, 2, 3)
        with pytest.raises(Exception):
            event.cycle = 9


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.mean == 0.0 and h.min == 0 and h.max == 0
        assert h.percentile(0.5) == 0
        assert h.summary()["count"] == 0

    def test_moments_and_percentiles(self):
        h = Histogram()
        for v in (1, 2, 2, 3, 10):
            h.add(v)
        assert h.total == 5
        assert h.mean == pytest.approx(3.6)
        assert (h.min, h.max) == (1, 10)
        assert h.percentile(0.5) == 2
        assert h.percentile(0.99) == 10

    def test_weighted_add_and_round_trip(self):
        h = Histogram()
        h.add(4, weight=3)
        assert h.total == 3 and h.mean == 4.0
        assert h.to_dict()["counts"] == {"4": 3}


class TestTimeline:
    def test_stride_keeps_every_kth_but_exact_stats(self):
        t = Timeline(stride=4)
        for cycle in range(10):
            t.sample(cycle, cycle)
        assert [c for c, _ in t.samples] == [0, 4, 8]
        assert t.mean == pytest.approx(4.5)  # over all 10, not the kept 3
        assert t.peak == 9

    def test_series_decimates_to_max_points(self):
        t = Timeline()
        for cycle in range(1000):
            t.sample(cycle, 1)
        assert len(t.series(max_points=64)) == 64
        assert len(t.summary(64)["series"]) == 64

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            Timeline(stride=0)


class TestMetricsCollector:
    def test_occupancy_tracks_every_cycle(self, die_irb_run):
        result, _, collector = die_irb_run
        assert collector.cycles_observed == result.stats.cycles
        assert collector.ruu_occupancy.mean > 0
        assert collector.ruu_occupancy.peak <= result.pipeline.config.ruu_size

    def test_issue_bandwidth_split_covers_all_cycles(self, die_irb_run):
        result, _, collector = die_irb_run
        assert collector.issue_bw_primary.total == result.stats.cycles
        assert collector.issue_bw_duplicate.total == result.stats.cycles
        # Reuse hits bypass issue, so the duplicate stream issues less.
        assert (collector.issue_bw_duplicate.mean
                < collector.issue_bw_primary.mean)

    def test_reuse_distance_positive(self, die_irb_run):
        _, _, collector = die_irb_run
        assert collector.reuse_distance.total > 0
        assert collector.reuse_distance.min >= 1

    def test_opcode_breakdown_narrows(self, die_irb_run):
        _, _, collector = die_irb_run
        assert collector.opcode_reuse
        for bucket in collector.opcode_reuse.values():
            assert bucket["lookups"] >= bucket["pc_hits"] >= bucket["reuse_hits"]

    def test_check_latency_measured_for_die(self, die_irb_run):
        result, _, collector = die_irb_run
        assert collector.check_latency.total > 0
        assert collector.check_latency.min >= 1
        assert collector.checks_ok == result.stats.pairs_checked

    def test_sie_has_no_duplicate_activity(self, sie_run):
        _, _, collector = sie_run
        assert collector.issue_bw_duplicate.mean == 0.0
        assert collector.check_latency.total == 0
        assert duplicate_service_split(collector) is None

    def test_duplicate_service_split(self, die_irb_run):
        _, _, collector = die_irb_run
        split = duplicate_service_split(collector)
        assert split is not None
        assert split["irb_reused"] > 0
        assert 0.0 < split["reused_fraction"] < 1.0

    def test_snapshot_is_json_ready(self, die_irb_run):
        _, _, collector = die_irb_run
        snap = collector.snapshot(max_points=32)
        assert json.loads(json.dumps(snap)) == snap
        assert len(snap["ruu_occupancy"]["series"]) <= 32


# ----------------------------------------------------------------------
# Export: Chrome trace + pipeview
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_document_validates(self, die_irb_run):
        _, recorder, _ = die_irb_run
        doc = chrome_trace(recorder.events, {"workload": "gzip"})
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["workload"] == "gzip"

    def test_tracks_per_stream_and_fu(self, die_irb_run):
        _, recorder, _ = die_irb_run
        doc = chrome_trace(recorder.events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {0, 1}
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metas}
        assert {"primary stream", "duplicate stream"} <= names
        assert FUClass.INT_ALU.name in names

    def test_slice_args_carry_stage_cycles(self, die_irb_run):
        _, recorder, _ = die_irb_run
        doc = chrome_trace(recorder.events)
        committed = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and STAGE_COMMIT in e["args"]
        ]
        assert committed
        args = committed[0]["args"]
        assert args[STAGE_FETCH] <= args[STAGE_ISSUE] <= args[STAGE_COMMIT]

    def test_reuse_hits_become_instants(self, die_irb_run):
        result, recorder, _ = die_irb_run
        doc = chrome_trace(recorder.events)
        reuse = [e for e in doc["traceEvents"] if e["name"] == "irb-reuse"]
        assert len(reuse) == result.stats.irb_reuse_hits

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) == ["top level must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents is empty"
        ]
        bad_phase = {"traceEvents": [{"ph": "Q", "name": "x"}]}
        assert any("unknown phase" in e for e in validate_chrome_trace(bad_phase))
        no_dur = {"traceEvents": [
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1}
        ]}
        assert any("dur" in e for e in validate_chrome_trace(no_dur))

    def test_validator_truncates_error_flood(self):
        doc = {"traceEvents": [{"ph": "Q"}] * 100}
        errors = validate_chrome_trace(doc)
        assert errors[-1] == "... (truncated)"
        assert len(errors) <= 21


class TestPipeview:
    def test_renders_rows_with_stage_marks(self, die_irb_run):
        _, recorder, _ = die_irb_run
        view = render_pipeview(recorder.events, max_insts=32)
        lines = view.splitlines()
        assert lines[0].startswith("cycles ")
        rows = [line for line in lines if "|" in line]
        assert len(rows) == 32
        assert any("P " in row for row in rows)
        assert any("D " in row for row in rows)
        for mark in "FDIR":
            assert any(mark in row.split("|")[1] for row in rows)

    def test_empty_stream(self):
        assert "no instruction events" in render_pipeview([])

    def test_start_seq_offsets_the_window(self, die_irb_run):
        _, recorder, _ = die_irb_run
        view = render_pipeview(recorder.events, max_insts=4, start_seq=100)
        assert "   100P" in view or "   100D" in view


# ----------------------------------------------------------------------
# Profiles: build / persist / diff
# ----------------------------------------------------------------------


def make_profile(result, collector, **overrides):
    profile = build_profile(
        result.stats.to_dict(), collector,
        result.workload, result.model,
        overrides.pop("n_insts", N), overrides.pop("seed", 1),
    )
    profile.stats.update(overrides)
    return profile


class TestRunProfile:
    def test_round_trip(self, die_irb_run, tmp_path):
        result, _, collector = die_irb_run
        profile = make_profile(result, collector)
        path = tmp_path / "p.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.label == profile.label == "gzip/die-irb/n3000/s1"
        assert loaded.stats == profile.stats
        assert loaded.metrics == profile.metrics

    def test_rejects_wrong_kind_and_format(self):
        with pytest.raises(ValueError):
            RunProfile.from_dict({"kind": "nonsense", "format": 1})
        with pytest.raises(ValueError):
            RunProfile.from_dict({"kind": "repro-run-profile", "format": 99})

    def test_diff_self_is_clean(self, die_irb_run):
        result, _, collector = die_irb_run
        profile = make_profile(result, collector)
        diff = diff_profiles(profile, profile)
        assert isinstance(diff, ProfileDiff)
        assert not diff.regressed
        assert all(e.verdict in ("ok", "info") for e in diff.entries)
        assert "0 degradation(s)" in diff.render()

    def test_injected_ipc_regression_is_flagged(self, die_irb_run):
        result, _, collector = die_irb_run
        base = make_profile(result, collector)
        worse = make_profile(
            result, collector,
            ipc=base.stats["ipc"] * 0.8,
            cycles=int(base.stats["cycles"] * 1.25),
        )
        diff = diff_profiles(base, worse, threshold_pct=5.0)
        assert diff.regressed
        flagged = {e.metric for e in diff.degradations}
        assert {"ipc", "cycles"} <= flagged

    def test_improvement_is_optimization_not_regression(self, die_irb_run):
        result, _, collector = die_irb_run
        base = make_profile(result, collector)
        better = make_profile(result, collector, ipc=base.stats["ipc"] * 1.5)
        diff = diff_profiles(base, better)
        assert not diff.regressed
        assert any(
            e.metric == "ipc" and e.verdict == "optimization"
            for e in diff.entries
        )

    def test_threshold_suppresses_noise(self, die_irb_run):
        result, _, collector = die_irb_run
        base = make_profile(result, collector)
        slightly = make_profile(result, collector, ipc=base.stats["ipc"] * 0.99)
        assert not diff_profiles(base, slightly, threshold_pct=5.0).regressed
        assert diff_profiles(base, slightly, threshold_pct=0.5).regressed

    def test_bad_threshold_rejected(self, die_irb_run):
        result, _, collector = die_irb_run
        profile = make_profile(result, collector)
        with pytest.raises(ValueError):
            diff_profiles(profile, profile, threshold_pct=-1)

    def test_diff_to_dict_is_json_ready(self, die_irb_run):
        result, _, collector = die_irb_run
        profile = make_profile(result, collector)
        payload = diff_profiles(profile, profile).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["regressed"] is False


# ----------------------------------------------------------------------
# CLI: repro trace / repro profile diff
# ----------------------------------------------------------------------


class TestTraceCommand:
    def test_trace_writes_valid_perfetto_json(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "gzip", "--model", "die-irb", "--n", "2000",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["model"] == "die-irb"

    def test_trace_pipeview_and_profile(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        prof = tmp_path / "run.profile.json"
        code = main([
            "trace", "gzip", "--model", "die", "--n", "2000",
            "--out", str(out), "--pipeview", "6", "--profile", str(prof),
        ])
        assert code == 0
        view = capsys.readouterr().out
        assert "cycles " in view and "|" in view
        assert load_profile(prof).model == "die"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "gzip", "--store-profile"],
            ["trace", "gzip", "--store-dir", "store"],
            ["profile", "diff", "a.json", "b.json", "--store-dir", "store"],
        ],
        ids=["trace-store-profile", "trace-store-dir", "diff-store-dir"],
    )
    def test_store_options_are_usage_errors(self, capsys, argv):
        # Profiles are files: no command files them in the result store.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestProfileDiffCommand:
    def _write_profiles(self, tmp_path):
        base = tmp_path / "base.json"
        target = tmp_path / "target.json"
        for model, path in (("sie", base), ("die", target)):
            assert main([
                "trace", "gzip", "--model", model, "--n", "2000",
                "--out", str(tmp_path / f"{model}.trace.json"),
                "--profile", str(path),
            ]) == 0
        return base, target

    def test_same_profile_exits_zero(self, capsys, tmp_path):
        base, _ = self._write_profiles(tmp_path)
        assert main(["profile", "diff", str(base), str(base)]) == 0
        assert "0 degradation(s)" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        base, target = self._write_profiles(tmp_path)
        # DIE pays an IPC penalty vs SIE: the diff must flag it.
        assert main(["profile", "diff", str(base), str(target)]) == 1
        out = capsys.readouterr().out
        assert "degradation" in out

    def test_json_output(self, capsys, tmp_path):
        base, _ = self._write_profiles(tmp_path)
        assert main(["profile", "diff", str(base), str(base), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is False

    def test_missing_profile_fails_cleanly(self, capsys, tmp_path):
        assert main(["profile", "diff", "nope", "nada"]) == 2
        assert "nope" in capsys.readouterr().err
