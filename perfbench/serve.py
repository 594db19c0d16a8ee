"""The serving process: one Clipper application behind the binary HTTP edge.

Started by ``run.py``.  It reads one length-prefixed pickle from stdin (the
workload name, the trained models and the tracing switch), deploys the
models, binds the HTTP server on a free loopback port and prints
``{"port": ...}``.  From then on it answers JSON commands, one per stdin
line, with one JSON line on stdout:

* ``stats``: CPU seconds used by this process, peak RSS, layer metrics;
* ``trace``: turn the layer wrappers on or off;
* ``engine``: run one open-loop window of in-process
  ``QueryFrontend.predict`` calls (the ``engine-batch`` workload);
* ``engine_update``: send ``QueryFrontend.update`` for inputs predicted in
  the last engine window;
* ``settle``: wait until the models have no backlog left;
* ``quit``: stop the server and exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import resource
import struct
import sys
import time
from functools import partial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (sets the math-library thread count first)
import numpy as np  # noqa: E402

from repro.api.http import create_server  # noqa: E402
from repro.containers.adapters import ClassifierContainer  # noqa: E402
from repro.core.clipper import Clipper  # noqa: E402
from repro.core.config import ClipperConfig, ModelDeployment  # noqa: E402
from repro.core.frontend import QueryFrontend  # noqa: E402

from loadgen import open_loop, poisson_arrivals  # noqa: E402
from stats import check_answer  # noqa: E402

APP = "bench"
#: The application's own SLO.  It only sets the straggler deadline and the
#: AIMD latency budget; the benchmark judges latency against each
#: workload's ``slo_ms``.  At 1 s a host stall at the nominal rate never
#: turns into a refused request.
APP_SLO_MS = 1000.0
#: A settle query answered within this time found no backlog.
SETTLED_S = 0.02
#: Settling gives up after this long, so a run always ends in time.
SETTLE_TIMEOUT_S = 10.0


def _read_exact(n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(0, n)
        if not chunk:
            raise EOFError("stdin closed during the configuration")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def build_frontend(workload: workloads.Workload, models: dict) -> QueryFrontend:
    clipper = Clipper(
        ClipperConfig(
            app_name=APP,
            latency_slo_ms=APP_SLO_MS,
            selection_policy=workload.selection_policy,
            input_type="floats",
            input_shape=(workload.dim,),
            output_type="ints",
        )
    )
    for name, model in models.items():
        clipper.deploy_model(
            ModelDeployment(name, container_factory=partial(ClassifierContainer, model))
        )
    frontend = QueryFrontend()
    frontend.register_application(clipper)
    return frontend


async def settle(
    frontend: QueryFrontend, mixture: "workloads.Mixture", rng: np.random.Generator
) -> dict:
    """Wait until the models have worked off every query sent so far.

    A query that missed the application's deadline is still evaluated
    afterwards (its result fills the cache), so an overloaded probe leaves
    work behind that would slow the next one.  Each settle query is a fresh
    input; it queues behind that work, and once one is answered quickly
    with every model, nothing is left.
    """
    loop = asyncio.get_running_loop()
    give_up = loop.time() + SETTLE_TIMEOUT_S
    attempt = 0
    while loop.time() < give_up:
        attempt += 1
        x, _ = mixture.sample(rng, 1)
        start = loop.time()
        try:
            prediction = await frontend.predict(APP, x[0])
        except Exception:  # noqa: BLE001 — a refused settle query just retries
            continue
        if not prediction.models_missing and loop.time() - start < SETTLED_S:
            return {"settle_queries": attempt}
    return {"settle_queries": -1}


class EngineLoad:
    """Open-loop ``QueryFrontend.predict`` calls inside this process.

    Inputs are drawn in small chunks while the window runs, from a random
    stream of their own, so the serving process never holds more than the
    inputs in flight.  The answers are checked after the window: the
    inputs are drawn again from the same stream and the model is called
    directly on them, so the check costs the measured path nothing.
    """

    CHUNK = 16

    def __init__(self, frontend: QueryFrontend, workload, models: dict) -> None:
        self.frontend = frontend
        self.mixture = workloads.Mixture(workload)
        self.models = models
        self.recent: list = []

    def _chunks(self, seed: int, n: int):
        """The window's inputs and labels, ``CHUNK`` at a time."""
        rng = np.random.default_rng((seed, 1))
        for _ in range(0, n, self.CHUNK):
            yield self.mixture.sample(rng, self.CHUNK)

    async def window(self, cmd: dict) -> dict:
        arrivals = poisson_arrivals(
            np.random.default_rng(cmd["seed"]), cmd["rate"], cmd["duration"]
        )
        n = len(arrivals)
        latencies = [0.0] * n
        answers: list = [None] * n
        errors: list = [None] * n
        tasks = []
        chunks = self._chunks(cmd["seed"], n)
        chunk: list = [None]
        loop = asyncio.get_running_loop()
        frontend = self.frontend

        async def one(i: int, due: float, x) -> None:
            try:
                prediction = await frontend.predict(APP, x)
            except Exception as exc:  # noqa: BLE001 — every failure is counted
                errors[i] = type(exc).__name__
                return
            latencies[i] = (loop.time() - due) * 1e3
            answers[i] = {
                "output": prediction.output,
                "default_used": prediction.default_used,
                "models_missing": prediction.models_missing,
            }

        def issue(i: int, due: float) -> None:
            j = i % self.CHUNK
            if j == 0:
                chunk[0] = next(chunks)
            inputs, labels = chunk[0]
            tasks.append(loop.create_task(one(i, due, inputs[j])))
            if len(self.recent) < 64:
                self.recent.append((inputs[j], int(labels[j])))

        cpu0 = time.process_time()
        late = await open_loop(arrivals, issue)
        if tasks:
            await asyncio.wait(tasks)
        cpu = time.process_time() - cpu0

        failures: list = []
        correct = 0
        for base, (inputs, labels) in zip(range(0, n, self.CHUNK), self._chunks(cmd["seed"], n)):
            expected = next(iter(workloads.direct_labels(self.models, inputs).values()))
            for j in range(min(self.CHUNK, n - base)):
                i = base + j
                reason = errors[i] or check_answer(answers[i], {int(expected[j])})
                failures.append(reason)
                correct += int(reason is None and answers[i]["output"] == int(labels[j]))
        return {
            "latencies_ms": latencies,
            "failures": failures,
            "correct": correct,
            "late_ms": late,
            "cpu_s": cpu,
        }

    async def updates(self, cmd: dict) -> dict:
        rng = np.random.default_rng(cmd["seed"])
        arrivals = poisson_arrivals(rng, cmd["rate"], cmd["duration"])
        loop = asyncio.get_running_loop()
        latencies: list = []
        failures: list = []
        tasks = []
        recent = self.recent or [(np.zeros(self.mixture.dim, np.float32), 0)]

        async def one(i: int, due: float) -> None:
            x, label = recent[i % len(recent)]
            try:
                await self.frontend.update(APP, x, label)
            except Exception as exc:  # noqa: BLE001
                failures.append(type(exc).__name__)
                return
            latencies.append((loop.time() - due) * 1e3)

        late = await open_loop(
            arrivals, lambda i, due: tasks.append(loop.create_task(one(i, due)))
        )
        if tasks:
            await asyncio.wait(tasks)
        self.recent = []
        return {"latencies_ms": latencies, "failures": failures, "late_ms": late}


async def serve(config: dict) -> None:
    workload = workloads.WORKLOADS[config["workload"]]
    models = config["models"]
    frontend = build_frontend(workload, models)
    server = create_server(query=frontend, port=0)
    trace = None
    if config["trace"]:
        from layers import LayerTrace

        trace = LayerTrace(server)
        trace.install()
    await server.start()
    out = sys.stdout
    out.write(json.dumps({"port": server.port}) + "\n")
    out.flush()

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=1 << 24)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), os.fdopen(0, "rb", buffering=0)
    )
    engine = EngineLoad(frontend, workload, models)
    settle_rng = np.random.default_rng((workloads.DATA_SEED, 2))
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            cmd = json.loads(line)
            op = cmd["cmd"]
            if op == "quit":
                break
            if op == "stats":
                reply = {
                    "cpu_s": time.process_time(),
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "layers": trace.snapshot() if trace is not None else None,
                }
            elif op == "trace":
                if cmd["on"]:
                    trace.install()
                else:
                    trace.uninstall()
                reply = {"ok": True}
            elif op == "engine":
                reply = await engine.window(cmd)
            elif op == "engine_update":
                reply = await engine.updates(cmd)
            elif op == "settle":
                reply = await settle(frontend, engine.mixture, settle_rng)
            else:
                reply = {"error": f"unknown command {op!r}"}
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        if trace is not None:
            trace.uninstall()
        await server.stop()


def main() -> None:
    (length,) = struct.unpack("<Q", _read_exact(8))
    config = pickle.loads(_read_exact(length))
    if config["cpu"] is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    asyncio.run(serve(config))


if __name__ == "__main__":
    main()
