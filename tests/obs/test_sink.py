"""JSONL sink, telemetry_run lifecycle, summary writer, stream validation."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.sink import SCHEMA, JsonlSink, _jsonable


class TestJsonable:
    def test_native_types_pass_through(self):
        record = {"a": 1, "b": 1.5, "c": "s", "d": None, "e": True}
        assert _jsonable(record) == record

    def test_numpy_scalars_coerced(self):
        assert _jsonable(np.int64(3)) == 3
        assert isinstance(_jsonable(np.int64(3)), int)
        assert _jsonable(np.float32(1.5)) == pytest.approx(1.5)

    def test_containers_recursed(self):
        out = _jsonable({"xs": (np.int64(1), [np.float64(2.0)])})
        assert json.dumps(out) == '{"xs": [1, [2.0]]}'

    def test_unserializable_falls_back_to_str(self):
        class Opaque:
            def __str__(self):
                return "opaque"

        assert _jsonable(Opaque()) == "opaque"


class TestJsonlSink:
    def test_header_and_records(self, tmp_path):
        path = tmp_path / "run.telemetry.jsonl"
        sink = JsonlSink(path, run="test")
        sink.write({"event": "step", "loss": np.float64(1.25)})
        sink.close()
        records = obs.read_telemetry(path)
        assert len(records) == 2
        header = records[0]
        assert header["event"] == "telemetry_start"
        assert header["schema"] == SCHEMA
        assert header["run"] == "test"
        assert records[1] == {"event": "step", "loss": 1.25}
        assert sink.records_written == 2

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "run.jsonl"
        JsonlSink(path).close()
        assert path.exists()

    def test_close_idempotent_and_write_after_close_ignored(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()
        sink.write({"event": "ignored"})
        assert sink.records_written == 1  # just the header

    def test_flushed_per_record(self, tmp_path):
        """A crashed run's stream must be readable without close()."""
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.write({"event": "step"})
        records = obs.read_telemetry(path)  # file handle still open
        assert [r["event"] for r in records] == ["telemetry_start", "step"]
        sink.close()


class TestReadTelemetry:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "telemetry_start"}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSONL"):
            obs.read_telemetry(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"event": "step"}\n')
        with pytest.raises(ValueError, match="telemetry_start"):
            obs.read_telemetry(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="telemetry_start"):
            obs.read_telemetry(path)


class TestTelemetryRun:
    def test_stream_and_summary(self, tmp_path):
        path = tmp_path / "run.telemetry.jsonl"
        with obs.telemetry_run(path, run="unit"):
            assert obs.telemetry_enabled()
            obs.counter("work.items").inc(3)
            with obs.profile("work"):
                obs.emit("work_done", items=3)
        assert not obs.telemetry_enabled()

        records = obs.read_telemetry(path)
        events = [r["event"] for r in records]
        assert events == ["telemetry_start", "work_done", "run_summary"]
        summary_record = records[-1]
        assert summary_record["metrics"]["work.items"]["value"] == 3
        assert "work" in summary_record["profile"]

        summary = json.loads(path.with_suffix(".summary.json").read_text())
        assert summary["schema"] == SCHEMA + "/summary"
        assert summary["run"] == "unit"
        assert summary["metrics"]["work.items"]["value"] == 3

    def test_fresh_registry_per_run_and_restored_after(self, tmp_path):
        outer = obs.get_registry()
        outer_counter = outer.counter("outer.count")
        outer_counter.inc()
        with obs.telemetry_run(tmp_path / "run.jsonl"):
            inner = obs.get_registry()
            assert inner is not outer
            assert inner.snapshot() == {}
        assert obs.get_registry() is outer
        assert outer.counter("outer.count").value == 1

    def test_restores_state_on_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        outer = obs.get_registry()
        with pytest.raises(RuntimeError):
            with obs.telemetry_run(path):
                obs.emit("before_crash")
                raise RuntimeError("boom")
        assert not obs.telemetry_enabled()
        assert obs.get_registry() is outer
        # The stream is still valid JSONL including the partial run's events.
        events = [r["event"] for r in obs.read_telemetry(path)]
        assert "before_crash" in events and "run_summary" in events

    def test_summary_false_skips_sibling_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.telemetry_run(path, summary=False):
            pass
        assert not path.with_suffix(".summary.json").exists()

    def test_disabled_mode_emits_nothing(self, tmp_path):
        """With telemetry off, a sink attached to the global registry sees
        no events from the module-level instrumentation helpers."""
        sink = JsonlSink(tmp_path / "off.jsonl")
        registry = obs.get_registry()
        registry.attach(sink)
        try:
            obs.emit("ignored")
            with obs.timer("ignored.timer"):
                pass
            obs.counter("ignored.counter").inc()
        finally:
            registry.detach(sink)
            sink.close()
        assert sink.records_written == 1  # header only


class TestReportCli:
    def test_renders_stream(self, tmp_path, capsys):
        from repro.obs import report

        path = tmp_path / "run.telemetry.jsonl"
        with obs.telemetry_run(path, run="cli"):
            obs.emit("train_step", epoch=0, step=0, loss=1.5, grad_norm=0.5,
                     lr=1e-3, seq_per_s=100.0, tok_per_s=1000.0)
            obs.emit("eval", stage="valid", model="SASRec", num_users=10,
                     candidates=101, seconds=0.01, candidates_per_s=1e5,
                     hr10=0.5)
        report.main([str(path)])
        out = capsys.readouterr().out
        assert "cli" in out
        assert "train_step" in out
        assert "eval" in out
