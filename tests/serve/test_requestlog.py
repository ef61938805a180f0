"""Tests for the replayable serving request log."""

import json

import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner
from repro.serve import (
    ModelRegistry,
    PredictionEngine,
    PredictRequest,
    RequestLog,
    read_request_log,
    replay_log,
)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

COND = OperatingCondition(0.90, 25.0)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    reg = ModelRegistry(tmp_path_factory.mktemp("log_registry"))
    fu = build_functional_unit("int_add", width=8)
    stream = random_stream(60, operand_width=8, seed=0)
    stream.name = "log_train"
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, [COND])])[0]
    model = TEVoT(operand_width=8)
    X, y = build_training_set(stream, [COND], trace.delays, spec=model.spec)
    model.fit(X, y)
    reg.publish(model, fu=fu, conditions=[COND], train_stream=stream)
    return reg


def _requests(n, seed=21):
    stream = random_stream(n, operand_width=8, seed=seed)
    return [PredictRequest(
        fu="int_add", a=int(stream.a[i]), b=int(stream.b[i]),
        voltage=COND.voltage, temperature=COND.temperature,
        stream_id=f"s{i % 2}",
        clock_period=520.0 if i % 3 == 0 else None) for i in range(n)]


def _record(registry, path, n=24, batch=8):
    """Drive a fresh engine and log every executed batch."""
    engine = PredictionEngine(registry=registry, sim_fallback=False)
    reqs = _requests(n)
    with RequestLog(path, config={"workers": 1}) as log:
        for lo in range(0, n, batch):
            chunk = reqs[lo:lo + batch]
            log.append_batch(chunk, engine.predict_batch(list(chunk)))
    return reqs


class TestRoundTrip:
    def test_log_preserves_batches_and_requests(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        reqs = _record(registry, path, n=24, batch=8)
        records = list(read_request_log(path))
        assert records[0]["kind"] == "header"
        assert records[0]["config"] == {"workers": 1}
        batches = [r for r in records if r["kind"] == "batch"]
        assert [len(b["requests"]) for b in batches] == [8, 8, 8]
        rebuilt = [PredictRequest.from_dict(r)
                   for b in batches for r in b["requests"]]
        assert rebuilt == reqs

    def test_corrupt_line_fails_loudly(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["predictions"][0]["delay_ps"] = 1.0  # tamper under the seal
        lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="fingerprint"):
            list(read_request_log(path))

    def test_unparsable_line_names_position(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        with open(path, "a") as fh:
            fh.write("{truncated\n")
        with pytest.raises(ValueError, match=r"req\.jsonl:5"):
            list(read_request_log(path))


class TestTornFinalLine:
    def _tear_last_line(self, path):
        """Truncate the file mid last record — what a crash during the
        buffered line+newline write leaves behind."""
        data = path.read_bytes()
        assert data.endswith(b"\n")
        start = data[:-1].rfind(b"\n") + 1
        cut = start + (len(data) - start) // 2
        path.write_bytes(data[:cut])

    def test_torn_tail_skipped_with_warning(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path, n=24, batch=8)
        self._tear_last_line(path)
        with pytest.warns(RuntimeWarning, match="torn final log line"):
            records = list(read_request_log(path))
        # the sealed prefix survives: header + first two batches
        assert [r["kind"] for r in records] == ["header", "batch", "batch"]

    def test_sealed_prefix_still_replays(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path, n=24, batch=8)
        self._tear_last_line(path)
        fresh = PredictionEngine(registry=registry, sim_fallback=False)
        with pytest.warns(RuntimeWarning, match="torn final"):
            report = replay_log(path, fresh.predict_batch)
        assert report.ok
        assert (report.batches, report.requests) == (2, 16)

    def test_complete_final_line_still_fails_loudly(self, registry,
                                                    tmp_path):
        # a newline-terminated final line that fails its seal is
        # hand-editing or bit-rot, not a crash artifact: must raise
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["predictions"][0]["delay_ps"] = -1.0  # tamper under the seal
        lines[-1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="fingerprint"):
            list(read_request_log(path))

    def test_torn_interior_line_still_fails_loudly(self, registry,
                                                   tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path, n=24, batch=8)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear a middle record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"req\.jsonl:3"):
            list(read_request_log(path))

    def test_crashed_writer_leaves_replayable_log(self, registry,
                                                  tmp_path, monkeypatch):
        # end-to-end: the log's own torn-write fault (crash mid-append)
        # produces exactly the artifact the reader tolerates
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.testing import faults

        src = str(Path(next(iter(repro.__path__))).resolve().parent)
        path = tmp_path / "req.jsonl"
        code = (
            "from repro.serve import PredictRequest, RequestLog\n"
            "from repro.serve.engine import Prediction\n"
            "reqs = [PredictRequest(fu='int_add', a=i, b=i, voltage=0.9,"
            " temperature=25.0) for i in range(4)]\n"
            "preds = [Prediction(ok=True, delay_ps=1.0) for _ in range(4)]\n"
            f"with RequestLog({str(path)!r}) as log:\n"
            "    log.append_batch(reqs[:2], preds[:2])\n"
            "    log.append_batch(reqs[2:], preds[2:])\n")
        env = dict(os.environ, PYTHONPATH=src)
        env[faults.PLAN_ENV] = "requestlog.append:torn-write:3"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == faults.TORN_EXIT_CODE, proc.stderr
        assert not path.read_bytes().endswith(b"\n")  # torn tail on disk
        with pytest.warns(RuntimeWarning, match="torn final log line"):
            records = list(read_request_log(path))
        assert [r["kind"] for r in records] == ["header", "batch"]
        assert [q["a"] for q in records[1]["requests"]] == [0, 1]


class TestReplay:
    def test_single_process_replay_is_bit_exact(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        fresh = PredictionEngine(registry=registry, sim_fallback=False)
        report = replay_log(path, fresh.predict_batch)
        assert report.ok
        assert (report.batches, report.requests) == (3, 24)
        assert "bit-exact" in report.summary()

    def test_header_with_worker_count_replays(self, registry, tmp_path):
        """Logs recorded when the server header still named a worker
        count replay unchanged through ``Workspace.replay``."""
        from repro.api import ServeSpec, Workspace

        path = tmp_path / "req.jsonl"
        engine = PredictionEngine(registry=registry, sim_fallback=False)
        reqs = _requests(16)
        with RequestLog(path, config={"kind": "tevot", "workers": 2,
                                      "fallback": False,
                                      "registry": str(registry.root)}) as log:
            for lo in range(0, 16, 4):
                chunk = reqs[lo:lo + 4]
                log.append_batch(chunk, engine.predict_batch(chunk))
        assert next(read_request_log(path))["config"]["workers"] == 2
        spec = ServeSpec(registry=str(registry.root), fallback=False)
        report = Workspace().replay(spec, path)
        assert report.ok
        assert (report.batches, report.requests) == (4, 16)

    def test_tampered_prediction_is_reported(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        lines = path.read_text().splitlines()
        # re-seal a falsified record so only replay (not the seal
        # check) can catch it — models a recording made by a buggy or
        # differently-configured server
        from repro.flow.manifest import check_record, seal_record
        from repro.serve.requestlog import LOG_TAG
        doc = check_record(json.loads(lines[2]), tag=LOG_TAG)
        doc["predictions"][1]["delay_ps"] += 1.5
        lines[2] = json.dumps(seal_record(doc, tag=LOG_TAG),
                              sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        fresh = PredictionEngine(registry=registry, sim_fallback=False)
        report = replay_log(path, fresh.predict_batch)
        assert not report.ok
        (mismatch,) = report.mismatches
        assert (mismatch.batch, mismatch.index) == (2, 1)
        assert "recorded" in mismatch.describe()

    def test_dropped_records_are_skipped_and_replay_stays_bit_exact(
            self, registry, tmp_path):
        """Shed/expired requests are logged as ``dropped`` records that
        replay skips: they never advanced per-stream history live, so
        re-driving only the executed batches reproduces the recording
        bit-exactly even with drops interleaved mid-stream."""
        path = tmp_path / "req.jsonl"
        engine = PredictionEngine(registry=registry, sim_fallback=False)
        reqs = _requests(24)
        with RequestLog(path, config={"workers": 1}) as log:
            chunk = reqs[:8]
            log.append_batch(chunk, engine.predict_batch(list(chunk)))
            # overload strikes: same streams, but these never execute
            log.append_dropped(reqs[8:12], "shed")
            log.append_dropped(reqs[12:14], "expired")
            chunk = reqs[14:]
            log.append_batch(chunk, engine.predict_batch(list(chunk)))

        records = list(read_request_log(path))
        dropped = [r for r in records if r["kind"] == "dropped"]
        assert [(d["reason"], len(d["requests"])) for d in dropped] == \
            [("shed", 4), ("expired", 2)]

        fresh = PredictionEngine(registry=registry, sim_fallback=False)
        report = replay_log(path, fresh.predict_batch)
        assert report.ok
        assert (report.batches, report.requests) == (2, 18)
        assert report.dropped == 6
        assert "skipped 6 dropped" in report.summary()

    def test_append_dropped_empty_is_a_noop(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        with RequestLog(path, config={}) as log:
            log.append_dropped([], "shed")
        records = list(read_request_log(path))
        assert [r["kind"] for r in records] == ["header"]

    def test_multi_session_log_is_rejected(self, registry, tmp_path):
        path = tmp_path / "req.jsonl"
        _record(registry, path)
        _record(registry, path)  # append mode: second header
        fresh = PredictionEngine(registry=registry, sim_fallback=False)
        with pytest.raises(ValueError, match="2 recording sessions"):
            replay_log(path, fresh.predict_batch)
