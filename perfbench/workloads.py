"""The benchmark's workloads: characterize, train, serve one request at
a time.

Each workload makes its inputs from the run's seed with its own random
generator, so the program only ever sees generated operand streams and
requests.  A workload is set up (possibly several times: only the last
set-up is kept), runs a closed loop for a fixed time, checks every output
it produced, and closes everything it opened.  A closed loop issues the
next operation only when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro.api import ServeSpec, ShardSpec, SimSpec, Workspace
from repro.core import features
from repro.core.model import TEVoT
from repro.flow.campaign import CampaignJob, error_free_clocks
from repro.serve import ServeClient, ServeError
from repro.timing.corners import (
    OperatingCondition,
    sped_up_clock,
    temperature_points,
    voltage_points,
)
from repro.workloads.streams import OperandStream

#: The full 100-corner Table I grid.
TABLE1 = [OperatingCondition(v, t)
          for v in voltage_points() for t in temperature_points()]
#: The 9 Fig.-3 corners models are trained on.
FIG3 = [OperatingCondition(v, t)
        for v in (0.81, 0.90, 1.00) for t in (0.0, 50.0, 100.0)]

#: Campaign delay-matrix digests recorded per seed (see record_digests.py).
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: One served request, as the serving workload records it: operands,
#: corner index, and delay_ps (NaN when the request failed).
SENT = np.dtype([("a", "u8"), ("b", "u8"), ("corner", "u1"),
                 ("delay", "f8")])


def operand_stream(fu_name: str, cycles: int, seed, name: str
                   ) -> OperandStream:
    """Random operands: uniform 32-bit words, or for float units values
    uniform in [-64, 64) (uniform bit patterns would be mostly huge)."""
    rng = np.random.default_rng(seed)
    if fu_name.startswith("fp"):
        values = rng.uniform(-64.0, 64.0, (2, cycles + 1)).astype(np.float32)
        words = values.view(np.uint32).astype(np.uint64)
    else:
        words = rng.integers(0, 1 << 32, (2, cycles + 1), dtype=np.uint64)
    return OperandStream(name, words[0], words[1])


def array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def tree_digest(model: TEVoT) -> str:
    """Digest of every fitted tree's arrays: equal digests, equal forests."""
    return array_digest(
        a for tree in model.regressor.estimators_
        for a in (tree.feature_, tree.threshold_, tree.left_, tree.right_,
                  tree.value_))


def recorded_digests() -> Dict:
    return json.loads(DIGESTS_PATH.read_text())


def closed_loop(op: Callable, inputs: Iterator, consume: Callable,
                seconds: float) -> List[float]:
    """Run ``op`` back to back until ``seconds`` have passed and return
    the per-call latencies.  Each call takes the next item of ``inputs``,
    made before its timer starts; ``consume(item, output)`` handles the
    output after the timer stops.  Keep only what the checks need, or a
    faster program would run more operations, hold more outputs and read
    as a peak-memory regression."""
    deadline = time.perf_counter() + seconds
    latencies = []
    for item in inputs:
        t0 = time.perf_counter()
        out = op(item)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        consume(item, out)
        if t1 >= deadline:
            break
    return latencies


@dataclass
class Loop:
    """One measured loop: per-operation latencies (s), wall time (s) and
    the work done, in the workload's work unit."""

    latencies: List[float]
    elapsed: float
    work: float


class Workload:
    name = ""
    #: what one unit of ``Loop.work`` is, and how many one operation does.
    work_unit = ""
    work_per_op = 1

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self._dirs = itertools.count()
        self.attempted = 0
        self.failures: Counter = Counter()

    def fresh_dir(self) -> Path:
        path = self.root / f"{self.name}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> Iterator:
        """The operations' inputs, one item per operation."""
        raise NotImplementedError

    def op(self, item):
        """One operation of the program: the timed call."""
        raise NotImplementedError

    def consume(self, item, output) -> None:
        """Keep what :meth:`check` needs from one operation's output."""
        raise NotImplementedError

    def run(self, seconds: float) -> Loop:
        start = time.perf_counter()
        latencies = closed_loop(self.op, self.inputs(), self.consume,
                                seconds)
        elapsed = time.perf_counter() - start
        self.attempted += len(latencies)
        return Loop(latencies, elapsed, len(latencies) * self.work_per_op)

    def check(self) -> Dict:
        """Verify every output so far; fill ``failures``; return details."""
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer figures read from the program rather than spans."""
        return {}

    def close(self) -> None:
        pass


class Campaign(Workload):
    """int_mul + fp_mul over the 100-corner grid on a warm 2-worker pool
    with the cache off: the time goes to the sim kernels and shard
    planning, and the ml and serve layers do nothing."""

    name = "campaign"
    work_unit = "simulated cycle-corners"

    FUS = ("int_mul", "fp_mul")
    CYCLES = 1000
    work_per_op = len(FUS) * CYCLES * len(TABLE1)
    WORKERS = 2
    #: corners re-simulated in-process, unsharded, to check the pool's
    #: stitched matrices (first and last row of the grid).
    SPOT_ROWS = (0, len(TABLE1) - 1)

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.streams = self.streams_for(seed)
        self.warmup_streams = self.streams_for(seed, warmup=True)
        self.ws = None
        self.digests: List[str] = []
        self.first = None  # the first measured campaign's traces

    @classmethod
    def streams_for(cls, seed: int, warmup: bool = False):
        tag = "warmup" if warmup else "campaign"
        return {fu: operand_stream(fu, cls.CYCLES, (seed, int(warmup)),
                                   f"{fu}_{tag}")
                for fu in cls.FUS}

    def setup(self) -> None:
        self.ws = Workspace(self.fresh_dir())
        self.fus = [self.ws.functional_unit(name) for name in self.FUS]
        self.ws.pool(self.WORKERS)
        self.op(self.warmup_streams)

    def op(self, streams):
        runner = self.ws.runner(SimSpec(), ShardSpec(workers=self.WORKERS),
                                cache=False)
        return runner.run([CampaignJob(fu, streams[fu.name], TABLE1)
                           for fu in self.fus])

    def inputs(self) -> Iterator:
        return itertools.repeat(self.streams)

    def consume(self, streams, traces) -> None:
        if self.first is None:
            self.first = traces
        self.digests.append(array_digest(t.delays for t in traces))

    def check(self) -> Dict:
        digests = self.digests
        recorded = recorded_digests()["campaign"].get(str(self.seed))
        reference = recorded if recorded is not None else digests[0]
        # the pool's result against an unsharded in-process run
        spot = [TABLE1[k] for k in self.SPOT_ROWS]
        inline = self.ws.runner(SimSpec(), ShardSpec(workers=1),
                                cache=False).run(
            [CampaignJob(fu, self.streams[fu.name], spot) for fu in self.fus])
        spot_ok = all(
            np.array_equal(ref.delays, got.delays[list(self.SPOT_ROWS)])
            for ref, got in zip(inline, self.first))
        for digest in digests:
            if digest != reference or not spot_ok:
                self.failures["digest_mismatch"] += 1
        return {"digest": digests[0], "digest_recorded": recorded is not None,
                "digests_distinct": len(set(digests)),
                "spot_check_ok": spot_ok}

    def close(self) -> None:
        if self.ws is not None:
            self.ws.close()
            self.ws = None


class Train(Workload):
    """One int_mul flow: characterize 1000 cycles x 9 corners into a fresh
    store, build features, fit the forest, publish.  The fit dominates;
    the sim layer runs inline, with a trace-store write."""

    name = "train"
    work_unit = "training rows"

    FU = "int_mul"
    CYCLES = 1000
    work_per_op = CYCLES * len(FIG3)
    #: the training stream is fixed, so the fitted trees (and their
    #: digest) are the same on every run; the seed picks the held-out
    #: stream the TER error is measured on.
    STREAM_SEED = 0
    SPEEDUP = 0.10

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.stream = operand_stream(self.FU, self.CYCLES, self.STREAM_SEED,
                                     "train")
        self.eval_stream = operand_stream(self.FU, self.CYCLES, (seed, 2),
                                          "heldout")
        self.eval_trace = None
        self.digests: List[str] = []
        self.last = None

    def setup(self) -> None:
        # the held-out ground truth the TER error is scored against
        with Workspace(self.fresh_dir()) as ws:
            fu = ws.functional_unit(self.FU)
            self.eval_trace = ws.runner().run(
                [CampaignJob(fu, self.eval_stream, FIG3)])[0]

    def inputs(self) -> Iterator:
        # a fresh, empty store for every flow
        while True:
            yield self.fresh_dir()

    def op(self, path):
        with Workspace(path) as ws:
            fu = ws.functional_unit(self.FU)
            trace = ws.runner().run([CampaignJob(fu, self.stream, FIG3)])[0]
            X, y = features.build_training_set(self.stream, FIG3,
                                               trace.delays)
            model = TEVoT().fit(X, y)
            ws.registry.publish(model, fu=fu, conditions=FIG3,
                                train_stream=self.stream)
        return model, trace

    def consume(self, path, output) -> None:
        shutil.rmtree(path)
        self.digests.append(tree_digest(output[0]))
        self.last = output

    def ter_mae(self) -> float:
        """Mean absolute TER error at a 10% sped-up clock over the 9
        corners: model estimate vs simulated held-out delays."""
        model, trace = self.last
        clocks = error_free_clocks(trace)
        errors = []
        for k, cond in enumerate(FIG3):
            tclk = sped_up_clock(clocks[cond], self.SPEEDUP)
            true_ter = float((self.eval_trace.delays[k] > tclk).mean())
            errors.append(abs(model.timing_error_rate(
                self.eval_stream, cond, tclk) - true_ter))
        return float(np.mean(errors))

    def check(self) -> Dict:
        recorded = recorded_digests()["train_tree"]
        for digest in self.digests:
            if digest != recorded:
                self.failures["tree_digest_mismatch"] += 1
        return {"tree_digest": self.digests[0],
                "digests_distinct": len(set(self.digests)),
                "ter_mae": self.ter_mae()}


class ServeSeq(Workload):
    """One closed-loop client, one request per POST on one chained stream:
    the cost is per-request overhead (connection, handler thread, the
    batcher's window, a single-row forest descent).  Set-up fits an
    int_mul model on 500 cycles x 9 corners, publishes it and starts the
    HTTP server on an ephemeral port."""

    name = "serve_seq"
    work_unit = "requests"

    FU = "int_mul"
    MODEL_CYCLES = 500
    MODEL_STREAM_SEED = 1
    STREAM_ID = "seq"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.model_stream = operand_stream(
            self.FU, self.MODEL_CYCLES, self.MODEL_STREAM_SEED, "serve_model")
        self.ws = self.server = self.thread = self.client = None
        # the failure kinds always reported, even at zero
        self.failures.update(dict.fromkeys(
            ("http_422", "http_429", "http_504", "transport"), 0))
        #: every request sent on the chained stream, as packed SENT rows
        #: in send order
        self._sent = bytearray()
        self.mean_batch = 0.0

    def setup(self) -> None:
        self.ws = Workspace(self.fresh_dir())
        fu = self.ws.functional_unit(self.FU)
        trace = self.ws.runner().run(
            [CampaignJob(fu, self.model_stream, FIG3)])[0]
        X, y = features.build_training_set(self.model_stream, FIG3,
                                           trace.delays)
        self.model = TEVoT().fit(X, y)
        self.ws.registry.publish(self.model, fu=fu, conditions=FIG3,
                                 train_stream=self.model_stream)
        self.server = self.ws.serve(ServeSpec(port=0, fallback=False))
        self.thread = self.server.start_background()
        host, port = self.server.address
        self.client = ServeClient(host, port, retries=0)
        # first request resolves the model into the engine's hot cache
        self.client.predict_many([self._request("warmup", 0, 0, 0)])

    def _request(self, stream_id: str, a, b, corner) -> Dict:
        cond = FIG3[corner]
        return {"fu": self.FU, "a": int(a), "b": int(b),
                "voltage": cond.voltage, "temperature": cond.temperature,
                "stream_id": stream_id}

    def inputs(self) -> Iterator:
        rng = np.random.default_rng((self.seed, 3))
        while True:
            a, b = rng.integers(0, 1 << 32, 2, dtype=np.uint64)
            corner = int(rng.integers(0, len(FIG3)))
            yield a, b, corner, [self._request(self.STREAM_ID, a, b, corner)]

    def op(self, item):
        try:
            return self.client.predict_many(item[3])
        except ServeError as exc:
            return exc

    def consume(self, item, output) -> None:
        """Record the request and its answer; count failures by HTTP
        status."""
        a, b, corner, _ = item
        delay = np.nan
        if isinstance(output, ServeError):
            self.failures[f"http_{output.status}" if output.status
                          else "transport"] += 1
        elif output[0]["ok"]:
            delay = output[0]["delay_ps"]
        else:
            self.failures["http_422"] += 1
        self._sent += np.array([(a, b, corner, delay)], dtype=SENT).tobytes()

    def _batching(self):
        stats = self.client.stats()["batching"]
        return stats["requests"], stats["batches"]

    def run(self, seconds: float) -> Loop:
        requests0, batches0 = self._batching()
        loop = super().run(seconds)
        requests1, batches1 = self._batching()
        self.mean_batch = ((requests1 - requests0)
                           / max(1, batches1 - batches0))
        return loop

    def check(self) -> Dict:
        """Served delay_ps == offline ``TEVoT.predict_delay`` on the same
        feature rows, bit for bit.  Offline rows come from
        ``build_feature_matrix`` over the stream's operand sequence (its
        first request has itself as history)."""
        chain = np.frombuffer(self._sent, dtype=SENT)
        a, b = chain["a"], chain["b"]
        stream = OperandStream("check", np.concatenate((a[:1], a)),
                               np.concatenate((b[:1], b)))
        X = np.empty((len(chain), self.model.spec.n_features),
                     dtype=np.float32)
        for k in np.unique(chain["corner"]):
            pick = chain["corner"] == k
            X[pick] = features.build_feature_matrix(
                stream, FIG3[k], self.model.spec)[pick]
        answered = ~np.isnan(chain["delay"])
        offline = self.model.predict_delay(X)
        mismatches = int(np.count_nonzero(
            offline[answered] != chain["delay"][answered]))
        if mismatches:
            self.failures["served_offline_mismatch"] += mismatches
        return {"checked": int(answered.sum()), "mismatches": mismatches}

    def layer_extras(self) -> Dict[str, float]:
        return {"serve.batcher.mean_batch": self.mean_batch}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.thread.join()
        if self.ws is not None:
            self.ws.close()
        self.ws = self.server = self.thread = self.client = None


WORKLOADS = {cls.name: cls for cls in (Campaign, Train, ServeSeq)}
