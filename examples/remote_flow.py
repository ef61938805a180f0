#!/usr/bin/env python
"""Remote workspace + push rollout, end to end across real processes.

The two-terminal story from the README, automated:

- terminal 1: ``repro store serve --root DIR`` — one process owns the
  TraceStore + ModelRegistry;
- terminal 2: ``Workspace("http://host:port")`` runs the whole
  characterize → train → publish flow over the wire, then a
  ``repro serve`` process dials the same URL for its registry.

The drill asserts the subsystem's promises:

- trace cache keys and the published model key are byte-identical to
  the same flow against a local directory root;
- publishing v2 through the remote workspace reaches the running
  server by *push* (event-feed subscription) — with zero
  ``POST /models/refresh`` calls — and predictions flip to v2,
  bit-exact with a fresh local engine over the service's own root;
- SIGTERM drains both processes cleanly (exit code 0);
- a restarted store service still serves every published model.

CI runs this as the remote-store smoke step::

    PYTHONPATH=src python examples/remote_flow.py

Exit status is non-zero if any promise is broken.
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.api import CampaignSpec, TrainSpec, Workspace
from repro.remote import RemoteModelRegistry
from repro.serve import PredictionEngine, PredictRequest, ServeClient
from repro.timing import OperatingCondition
from repro.workloads import random_stream

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)
COND = OperatingCondition(0.9, 25.0)
CYCLES = 200


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def campaign_spec() -> CampaignSpec:
    spec = CampaignSpec(fus=["int_add"])
    return spec.replace(stream=spec.stream.replace(cycles=CYCLES))


def train_spec(seed: int) -> TrainSpec:
    spec = TrainSpec(fu="int_add", publish=True)
    return spec.replace(stream=spec.stream.replace(cycles=CYCLES,
                                                   seed=seed))


def spawn(args, log_path: Path, env=None) -> subprocess.Popen:
    log_fh = open(log_path, "w")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env or dict(os.environ, PYTHONPATH=SRC),
        stdout=log_fh, stderr=subprocess.STDOUT, text=True)


def wait_for(predicate, what: str, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except Exception:
            pass
        time.sleep(0.2)
    raise RuntimeError(f"timed out waiting for {what}")


def sigterm_and_reap(proc: subprocess.Popen, what: str) -> None:
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    assert code == 0, f"{what} exited {code} on SIGTERM (want 0)"


def predictions(host: str, port: int, stream_id: str, n: int = 8):
    # engines chain per-stream operand history, so every probe uses a
    # fresh stream_id to stay comparable with a fresh local engine
    stream = random_stream(n, operand_width=8, seed=77)
    client = ServeClient(host, port)
    return client.predict_many([
        {"fu": "int_add", "a": int(stream.a[i]), "b": int(stream.b[i]),
         "voltage": COND.voltage, "temperature": COND.temperature,
         "stream_id": stream_id} for i in range(n)])


def local_reference(registry_root: Path, stream_id: str, n: int = 8):
    engine = PredictionEngine(registry=registry_root, sim_fallback=False)
    stream = random_stream(n, operand_width=8, seed=77)
    reqs = [PredictRequest(
        fu="int_add", a=int(stream.a[i]), b=int(stream.b[i]),
        voltage=COND.voltage, temperature=COND.temperature,
        stream_id=stream_id) for i in range(n)]
    return [p.delay_ps for p in engine.predict_batch(reqs)]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="remote-flow-"))
    print(f"[remote] workspace {tmp}")
    store_root = tmp / "svc"
    store_port = free_port()
    url = f"http://127.0.0.1:{store_port}"

    store_proc = spawn(["store", "serve", "--root", str(store_root),
                        "--port", str(store_port)], tmp / "store.log")
    serve_proc = None
    try:
        wait_for(lambda: RemoteModelRegistry(
            url, retries=0, timeout=2.0).manifest_fingerprint(),
            "store service")
        print(f"[remote] store service up at {url}")

        # -- remote flow vs local flow: byte-identical identity -------
        local = Workspace(tmp / "local")
        local.characterize(campaign_spec())
        v1_local = local.train(train_spec(seed=0))

        remote = Workspace(url)
        remote.characterize(campaign_spec())
        v1 = remote.train(train_spec(seed=0))

        local_keys = sorted(local.store.entries())
        remote_keys = sorted(remote.store.entries())
        assert local_keys == remote_keys, \
            f"trace keys diverged: {local_keys} != {remote_keys}"
        assert v1.record.key == v1_local.record.key, "model keys diverged"
        assert v1.record.model_id == "int_add/tevot/v1"
        print(f"[remote] local and remote flows agree: "
              f"trace {remote_keys[0][:12]}…, model {v1.record.key}")

        # -- push rollout to a running server -------------------------
        serve_port = free_port()
        serve_proc = spawn(["serve", "--registry", url,
                            "--port", str(serve_port), "--no-fallback"],
                           tmp / "serve.log")
        client = ServeClient("127.0.0.1", serve_port)
        wait_for(lambda: client.health()["status"] == "healthy",
                 "prediction server")
        got = predictions("127.0.0.1", serve_port, "probe-v1")
        assert all(p["model_id"] == "int_add/tevot/v1" for p in got)

        v2 = remote.train(train_spec(seed=5))  # publish v2 at the store
        assert v2.record.model_id == "int_add/tevot/v2"
        probe = iter(range(10_000))
        wait_for(lambda: all(
            p["model_id"] == "int_add/tevot/v2"
            for p in predictions("127.0.0.1", serve_port,
                                 f"probe-{next(probe)}")),
            "v2 push rollout")
        stats = client.stats()
        assert stats["refresh_calls"] == 0, \
            f"manual refresh polled {stats['refresh_calls']}x (want push)"
        push = stats["engine"]["push"]
        assert push["refreshes"] >= 1, f"no push refresh recorded: {push}"
        got = [p["delay_ps"]
               for p in predictions("127.0.0.1", serve_port, "final")]
        want = local_reference(store_root / "registry", "final")
        assert got == want, "server diverged from the local engine"
        print(f"[remote] v2 reached the server by push "
              f"(refresh_calls=0, push refreshes={push['refreshes']}), "
              f"bit-exact with the local engine")

        # -- graceful drain + durability ------------------------------
        sigterm_and_reap(serve_proc, "repro serve")
        serve_proc = None
        sigterm_and_reap(store_proc, "repro store serve")
        print("[remote] both processes drained cleanly on SIGTERM")

        store_proc2 = spawn(["store", "serve", "--root", str(store_root),
                             "--port", str(store_port)], tmp / "store2.log")
        try:
            wait_for(lambda: len(RemoteModelRegistry(
                url, retries=0, timeout=2.0).list_models()) == 2,
                "restarted store service")
            print("[remote] restarted service still serves both models")
        finally:
            sigterm_and_reap(store_proc2, "restarted store serve")
        print("[remote] PASS")
        return 0
    finally:
        for proc in (serve_proc, store_proc):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
