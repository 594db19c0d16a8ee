"""Per-layer tracing for the serving process, from outside the program.

:class:`LayerTrace` wraps public functions of each serving-path layer with
timers and counters.  It edits nothing under ``src/``: the wrappers are
installed by assignment at run time and removed again by
:meth:`LayerTrace.uninstall`, so one process can measure with and without
them and report the tracing overhead.

Layers and the functions wrapped:

* ``api``: ``RouteTable.dispatch`` (handler time) and the columnar codec
  registered on the server (``decode_columnar``/``encode_columnar``).
* ``core``: ``Clipper.predict`` (minus the time it waits on model futures),
  ``Clipper.feedback`` and ``repro.core.types.hash_input``.
* ``cache``: ``PredictionCache.fetch_by_hash``.
* ``selection``: ``SelectionStateManager.select_with_state`` and ``observe``.
* ``batching``: ``BatchingQueue.get_batch`` (queue wait per query) and
  ``BatchingQueue.put_nowait`` (which futures a predict waits on).
* ``rpc``: the transport's ``serialize_buffers``/``deserialize`` and
  ``RpcClient.predict`` (round trip minus container time).
* ``containers``: ``ClassifierContainer.predict_batch``.
* the event loop: a probe task that measures how late its timer fires.
"""

from __future__ import annotations

import asyncio
import contextvars
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from repro.api import columnar
from repro.api.routes import RouteTable
from repro.batching.queue import BatchingQueue
from repro.cache.prediction_cache import PredictionCache
from repro.containers.adapters import ClassifierContainer
from repro.core import types as core_types
from repro.core.clipper import Clipper
from repro.rpc import transport as rpc_transport
from repro.rpc.client import RpcClient
from repro.rpc.serialization import COLUMNAR_CONTENT_TYPE
from repro.selection.manager import SelectionStateManager

#: The predict call (if any) the running task is inside, for attributing
#: enqueued model futures to it.
_current_predict: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_predict", default=None
)

_LOOP_PROBE_INTERVAL_S = 0.005


class _Timer:
    """Accumulated seconds and calls of one timed function."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1

    def mean_us(self) -> float:
        return self.seconds / self.calls * 1e6 if self.calls else 0.0


class LayerTrace:
    """Installs layer wrappers and turns what they saw into metrics."""

    def __init__(self, server: Any = None) -> None:
        self._server = server
        self._patches: List[tuple] = []
        self._loop_probe: Optional[asyncio.Task] = None
        self.reset()

    def reset(self) -> None:
        self.timers: Dict[str, _Timer] = {
            name: _Timer()
            for name in (
                "api.handler", "api.codec", "core.predict_self", "core.hash",
                "core.feedback", "cache.lookup", "selection.select",
                "selection.observe", "rpc.encode", "rpc.decode",
                "rpc.overhead", "containers.eval",
            )
        }
        self.cache_hits = 0
        self.rpc_bytes = 0
        self.batch_sizes: List[int] = []
        self.queue_wait_s = 0.0
        self.queue_waited = 0
        self.loop_lag_s: List[float] = []

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        if self._patches:
            return
        timers = self.timers
        trace = self

        def timed(key: str):
            def make(original):
                def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        timers[key].add(time.perf_counter() - t0)
                return wrapper
            return make

        def timed_async(key: str):
            def make(original):
                async def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return await original(*args, **kwargs)
                    finally:
                        timers[key].add(time.perf_counter() - t0)
                return wrapper
            return make

        self._patch(RouteTable, "dispatch", timed_async("api.handler"))
        self._patch(core_types, "hash_input", timed("core.hash"))
        self._patch(Clipper, "feedback", timed_async("core.feedback"))
        self._patch(
            SelectionStateManager, "select_with_state", timed("selection.select")
        )
        self._patch(SelectionStateManager, "observe", timed("selection.observe"))
        self._patch(rpc_transport, "deserialize", timed("rpc.decode"))

        def make_lookup(original):
            def fetch_by_hash(self, *args, **kwargs):
                t0 = time.perf_counter()
                result = original(self, *args, **kwargs)
                timers["cache.lookup"].add(time.perf_counter() - t0)
                if result is not None:
                    trace.cache_hits += 1
                return result
            return fetch_by_hash

        self._patch(PredictionCache, "fetch_by_hash", make_lookup)

        def make_encode(original):
            def serialize_buffers(value):
                t0 = time.perf_counter()
                segments = original(value)
                timers["rpc.encode"].add(time.perf_counter() - t0)
                trace.rpc_bytes += sum(len(segment) for segment in segments)
                return segments
            return serialize_buffers

        self._patch(rpc_transport, "serialize_buffers", make_encode)

        def make_predict(original):
            async def predict(self, query):
                record = [0.0, 0.0]  # last enqueue time, last future done time
                token = _current_predict.set(record)
                t0 = time.perf_counter()
                try:
                    return await original(self, query)
                finally:
                    elapsed = time.perf_counter() - t0
                    _current_predict.reset(token)
                    waited = record[1] - record[0] if record[0] else 0.0
                    timers["core.predict_self"].add(elapsed - max(0.0, waited))
            return predict

        self._patch(Clipper, "predict", make_predict)

        def make_put(original):
            def put_nowait(self, item):
                record = _current_predict.get()
                if record is not None:
                    record[0] = time.perf_counter()

                    def done(_future, record=record):
                        record[1] = max(record[1], time.perf_counter())

                    item.future.add_done_callback(done)
                return original(self, item)
            return put_nowait

        self._patch(BatchingQueue, "put_nowait", make_put)

        def make_get_batch(original):
            async def get_batch(self, *args, **kwargs):
                batch = await original(self, *args, **kwargs)
                now = time.monotonic()
                trace.queue_wait_s += sum(now - item.enqueue_time for item in batch)
                trace.queue_waited += len(batch)
                return batch
            return get_batch

        self._patch(BatchingQueue, "get_batch", make_get_batch)

        def make_rpc(original):
            async def predict(self, *args, **kwargs):
                t0 = time.perf_counter()
                response = await original(self, *args, **kwargs)
                round_trip = time.perf_counter() - t0
                timers["rpc.overhead"].add(
                    round_trip - response.container_latency_ms / 1000.0
                )
                return response
            return predict

        self._patch(RpcClient, "predict", make_rpc)

        def make_eval(original):
            # Runs on executor threads: list.append and the GIL keep the
            # per-batch records whole.
            def predict_batch(self, inputs):
                t0 = time.perf_counter()
                outputs = original(self, inputs)
                trace.batch_sizes.append(len(inputs))
                timers["containers.eval"].add(time.perf_counter() - t0)
                return outputs
            return predict_batch

        self._patch(ClassifierContainer, "predict_batch", make_eval)

        if self._server is not None:
            self._server.register_content_type(
                COLUMNAR_CONTENT_TYPE,
                encoder=timed("api.codec")(columnar.encode_columnar),
                decoder=timed("api.codec")(columnar.decode_columnar),
            )
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is not None:
            self._loop_probe = loop.create_task(self._probe_loop())

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
        if self._server is not None:
            self._server.register_content_type(
                COLUMNAR_CONTENT_TYPE,
                encoder=columnar.encode_columnar,
                decoder=columnar.decode_columnar,
            )
        if self._loop_probe is not None:
            self._loop_probe.cancel()
            self._loop_probe = None

    async def _probe_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + _LOOP_PROBE_INTERVAL_S
            await asyncio.sleep(_LOOP_PROBE_INTERVAL_S)
            self.loop_lag_s.append(loop.time() - due)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Per-layer metrics over everything seen since the last reset."""
        t = self.timers
        lookups = t["cache.lookup"].calls
        batches = t["containers.eval"].calls
        inputs = sum(self.batch_sizes)
        rpc_batches = t["rpc.overhead"].calls
        return {
            "api.requests": t["api.handler"].calls,
            "api.handler_s": t["api.handler"].seconds,
            "api.handler_us": t["api.handler"].mean_us(),
            "api.codec_us": (
                t["api.codec"].seconds / t["api.handler"].calls * 1e6
                if t["api.handler"].calls else 0.0
            ),
            "core.predict_self_us": t["core.predict_self"].mean_us(),
            "core.hash_us": t["core.hash"].mean_us(),
            "core.feedback_us": t["core.feedback"].mean_us(),
            "cache.hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "cache.lookup_us": t["cache.lookup"].mean_us(),
            "selection.select_us": t["selection.select"].mean_us(),
            "selection.observe_us": t["selection.observe"].mean_us(),
            "batching.batches": batches,
            "batching.batch_size": inputs / batches if batches else 0.0,
            "batching.batch_size_p50": (
                float(statistics.median(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            "batching.queue_wait_ms": (
                self.queue_wait_s / self.queue_waited * 1e3 if self.queue_waited else 0.0
            ),
            "rpc.encode_us": (
                t["rpc.encode"].seconds / rpc_batches * 1e6 if rpc_batches else 0.0
            ),
            "rpc.decode_us": (
                t["rpc.decode"].seconds / rpc_batches * 1e6 if rpc_batches else 0.0
            ),
            "rpc.bytes_per_req": self.rpc_bytes / inputs if inputs else 0.0,
            "rpc.overhead_ms": t["rpc.overhead"].mean_us() / 1e3,
            "containers.eval_ms": t["containers.eval"].mean_us() / 1e3,
            "containers.eval_us_per_input": (
                t["containers.eval"].seconds / inputs * 1e6 if inputs else 0.0
            ),
            "loop.lag_ms": (
                statistics.fmean(self.loop_lag_s) * 1e3 if self.loop_lag_s else 0.0
            ),
        }
