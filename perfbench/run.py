"""Serving benchmark: one run of one workload.

    python3 perfbench/run.py --workload rest-hit --seed 1 --seconds 24 --trace 0

Builds the serving stack from the source tree next to this directory
(``src/``), runs the workload open-loop, checks every answer against the
models called directly, and prints a human-readable report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
serving process runs with the layer wrappers of ``layers.py`` and the
metrics are the per-layer ones.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import statistics
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (sets the math-library thread count first)
import numpy as np  # noqa: E402

from repro.rpc.serialization import (  # noqa: E402
    COLUMNAR_CONTENT_TYPE,
    deserialize,
    serialize,
)

from loadgen import ConnectionPool, http_request, open_loop, poisson_arrivals  # noqa: E402
from stats import (  # noqa: E402
    beyond,
    check_answer,
    percentile,
    search_ladder,
    summarize_failures,
)
from workloads import TAIL_PCT, WORKLOADS, Workload  # noqa: E402

#: Serving-stack launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Measurement windows at the nominal rate, one before each step of the
#: capacity search's staircase; latency and CPU figures are medians over
#: windows.
NOMINAL_WINDOWS = 10
#: Connections the HTTP generator uses (the host has two cores).
CONNECTIONS = 2
#: Rate (1/s) and length (s) of the update phase of workloads whose traffic
#: has no updates of its own.
UPDATE_RATE = 100.0
UPDATE_SECONDS = 2.0
#: A phase whose requests are not all answered this long after the last
#: one was due is abandoned (its connections are reopened).
DRAIN_TIMEOUT_S = 5.0

PREDICT_PATH = "/api/v1/bench/predict"
UPDATE_PATH = "/api/v1/bench/update"

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps_at_slo": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "cpu_us_per_req": "us",
    "rss_mb": "MiB",
    "update_p50_ms": "ms",
    "accuracy": "share",
}


def host_steal_s() -> float:
    """CPU time the host has withheld from this machine so far (s).

    The ``steal`` column of ``/proc/stat`` counts time a CPU of this
    machine was ready to run while the hypervisor ran something else.
    0 where there is no such column.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Phase:
    """What one stretch of load saw (latencies in ms from the due time)."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.update_latencies: List[float] = []
        self.failures: List[Optional[str]] = []
        self.correct = 0
        self.answered = 0
        self.late: List[float] = []
        self.cpu_s = 0.0
        self.wrong = 0
        # Client round trips (from the send, not the due time) and the
        # server's handler time over the same requests, for ``api.edge_us``.
        self.rtt_s = 0.0
        self.handler_s = 0.0
        self.handled = 0
        self.steal_s = 0.0

    @property
    def operations(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.failures)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.mixture = workloads.Mixture(workload)
        self.models = workloads.train_models(workload)
        # One core for the serving process, another for this generator:
        # they never compete for a core, and the serving process's threads
        # hand work to each other on one core instead of waking another.
        cpus = sorted(os.sched_getaffinity(0))
        server_cpu = cpus[0] if len(cpus) > 1 else None
        if server_cpu is not None:
            os.sched_setaffinity(0, {cpus[1]})
        # The CPUs the run uses, which awake.py keeps from halting.
        self.cpus = cpus[:2]
        self.payload = pickle.dumps({
            "workload": workload.name, "models": self.models, "trace": trace,
            "cpu": server_cpu,
        })
        self.proc = None
        self.pool: Optional[ConnectionPool] = None
        self._on_reply = None
        self.attempted = 0
        self.failed = 0
        self.failure_kinds: Dict[str, int] = {}
        self.wrong_answers = 0
        self.trace_on = trace
        self._phase_tag = 0
        probe_x, _ = self.mixture.sample(
            np.random.default_rng((workloads.DATA_SEED, 99)), 1
        )
        self._probe_expected = self._allowed(probe_x)[0]
        self._probe_request = http_request(
            PREDICT_PATH, serialize({"input": probe_x[0]}), COLUMNAR_CONTENT_TYPE
        )

    # -- bookkeeping -------------------------------------------------------------

    def _allowed(self, inputs: np.ndarray) -> List[frozenset]:
        direct = workloads.direct_labels(self.models, inputs)
        columns = list(direct.values())
        return [
            frozenset(int(column[i]) for column in columns) for i in range(len(inputs))
        ]

    def _count(self, phase: Phase) -> None:
        self.attempted += phase.operations
        self.failed += phase.failed
        for reason, count in summarize_failures(phase.failures).items():
            self.failure_kinds[reason] = self.failure_kinds.get(reason, 0) + count
        self.wrong_answers += phase.wrong

    def _next_rng(self) -> np.random.Generator:
        self._phase_tag += 1
        return np.random.default_rng((self.seed, self._phase_tag))

    # -- the serving process -------------------------------------------------------

    async def _command(self, **cmd) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        await self.proc.stdin.drain()
        line = await self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited during {cmd['cmd']!r}")
        return json.loads(line)

    async def _launch(self) -> float:
        """Start a serving process; seconds until its first correct answer."""
        env = dict(os.environ)
        env.update(workloads.THREAD_ENV)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        t0 = time.monotonic()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "serve.py"),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE, env=env,
            limit=1 << 26,
        )
        self.proc.stdin.write(struct.pack("<Q", len(self.payload)) + self.payload)
        await self.proc.stdin.drain()
        line = await self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serving process exited before binding")
        self.port = json.loads(line)["port"]
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            sent = time.monotonic()
            writer.write(self._probe_request)
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.split(b"Content-Length:")[1].split(b"\r\n")[0])
            body = await reader.readexactly(length)
            done = time.monotonic()
        finally:
            writer.close()
            await writer.wait_closed()
        answer = deserialize(body) if head[9:12] == b"200" else None
        probe = Phase()
        probe.failures = [check_answer(answer, self._probe_expected)]
        probe.wrong = int(probe.failures[0] == "wrong label")
        self._count(probe)
        self._setup_rtt = done - sent
        return done - t0

    async def _stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write(b'{"cmd": "quit"}\n')
                await self.proc.stdin.drain()
                await asyncio.wait_for(self.proc.wait(), timeout=10)
            except (asyncio.TimeoutError, ConnectionError):
                self.proc.kill()
                await self.proc.wait()
        self.proc = None

    async def _set_trace(self, on: bool) -> None:
        if self.trace and on != self.trace_on:
            await self._command(cmd="trace", on=on)
            self.trace_on = on

    # -- HTTP load -------------------------------------------------------------------

    def _dispatch_reply(self, reply) -> None:
        self._on_reply(reply)

    async def _open_pool(self) -> None:
        if self.pool is not None:
            await self.pool.close()
        self.pool = await ConnectionPool.open(self.port, CONNECTIONS, self._dispatch_reply)

    async def http_phase(
        self, rate: float, duration: float, updates_only: bool = False,
        warm_all: bool = False,
    ) -> Phase:
        rng = self._next_rng()
        phase = Phase()
        if warm_all:
            offsets = np.arange(self.w.hot_set) / rate
        else:
            offsets = poisson_arrivals(rng, rate, duration)
        n = len(offsets)
        feedback = self.w.feedback and not updates_only
        if self.w.hot_set:
            keys = np.arange(n) if warm_all else rng.integers(0, self.w.hot_set, n)
            table = self.hot_updates if updates_only else self.hot_requests
            requests = [table[k] for k in keys]
            allowed = [self.hot_allowed[k] for k in keys]
            labels = self.hot_labels[keys]
            users = None
        else:
            inputs, labels = self.mixture.sample(rng, n)
            allowed = self._allowed(inputs)
            users = rng.integers(0, self.w.users, n)
            requests = [
                http_request(
                    PREDICT_PATH,
                    serialize({"input": inputs[i], "user_id": f"user-{users[i]}"}),
                    COLUMNAR_CONTENT_TYPE,
                )
                for i in range(n)
            ]
        update_requests = None
        if feedback:
            update_requests = [
                http_request(
                    UPDATE_PATH,
                    serialize({
                        "input": inputs[i], "label": int(labels[i]),
                        "user_id": f"user-{users[i]}",
                    }),
                    COLUMNAR_CONTENT_TYPE,
                )
                for i in range(n)
            ]
        replies = []
        pool = self.pool
        loop = asyncio.get_running_loop()

        def on_reply(reply) -> None:
            replies.append(reply)
            if update_requests is not None and reply.tag >= 0:
                now = loop.time()
                pool.send(update_requests[reply.tag], -1 - reply.tag, now)

        self._on_reply = on_reply
        phase.late = await open_loop(
            offsets, lambda i, due: pool.send(requests[i], i, due)
        )
        if not await pool.drain(DRAIN_TIMEOUT_S):
            await self._open_pool()
        failures: List[Optional[str]] = [None] * n
        answered = [False] * n
        update_failures: List[Optional[str]] = (
            ["no answer"] * n if feedback else []
        )
        for reply in replies:
            latency = (reply.done - reply.due) * 1e3
            phase.rtt_s += reply.done - reply.sent
            if reply.tag < 0:
                i = -1 - reply.tag
                if reply.status == 200:
                    update_failures[i] = None
                    phase.update_latencies.append(latency)
                else:
                    update_failures[i] = f"HTTP {reply.status}"
                continue
            i = reply.tag
            answered[i] = True
            if updates_only:
                if reply.status == 200:
                    phase.update_latencies.append(latency)
                else:
                    failures[i] = f"HTTP {reply.status}"
                continue
            if reply.status != 200:
                failures[i] = f"HTTP {reply.status}"
                continue
            answer = deserialize(reply.body)
            reason = check_answer(answer, allowed[i])
            failures[i] = reason
            if reason == "wrong label":
                phase.wrong += 1
            if reason is None:
                phase.latencies.append(latency)
                phase.correct += int(answer["output"] == int(labels[i]))
        for i in range(n):
            if not answered[i]:
                failures[i] = "no answer"
        phase.failures = failures + update_failures
        phase.answered = sum(answered) + (
            sum(reason is None for reason in update_failures) if feedback else 0
        )
        return phase

    # -- engine load ---------------------------------------------------------------------

    async def engine_phase(self, rate: float, duration: float, updates_only: bool = False) -> Phase:
        rng = self._next_rng()
        seed = int(rng.integers(0, 2**63 - 1))
        cmd = "engine_update" if updates_only else "engine"
        reply = await self._command(cmd=cmd, rate=rate, duration=duration, seed=seed)
        phase = Phase()
        phase.late = reply["late_ms"]
        if updates_only:
            phase.update_latencies = reply["latencies_ms"]
            phase.failures = reply["failures"] + [None] * len(reply["latencies_ms"])
            return phase
        phase.failures = reply["failures"]
        phase.latencies = [
            latency for latency, reason in zip(reply["latencies_ms"], phase.failures)
            if reason is None
        ]
        phase.wrong = sum(reason == "wrong label" for reason in phase.failures)
        phase.correct = reply["correct"]
        phase.answered = len(phase.latencies)
        phase.cpu_s = reply["cpu_s"]
        return phase

    async def phase(self, rate: float, duration: float, **kwargs) -> Phase:
        steal = host_steal_s()
        if self.w.kind == "engine":
            phase = await self.engine_phase(rate, duration, **kwargs)
            phase.steal_s = host_steal_s() - steal
            return phase
        before = await self._command(cmd="stats")
        phase = await self.http_phase(rate, duration, **kwargs)
        after = await self._command(cmd="stats")
        phase.steal_s = host_steal_s() - steal
        phase.cpu_s = after["cpu_s"] - before["cpu_s"]
        if self.trace_on:
            phase.handler_s = after["layers"]["api.handler_s"] - before["layers"]["api.handler_s"]
            phase.handled = after["layers"]["api.requests"] - before["layers"]["api.requests"]
        return phase

    # -- the run -------------------------------------------------------------------------

    def _prepare_hot_set(self) -> None:
        rng = np.random.default_rng((self.seed, 0))
        inputs, labels = self.mixture.sample(rng, self.w.hot_set)
        self.hot_labels = labels
        self.hot_allowed = self._allowed(inputs)
        self.hot_requests = [
            http_request(PREDICT_PATH, serialize({"input": x}), COLUMNAR_CONTENT_TYPE)
            for x in inputs
        ]
        self.hot_updates = [
            http_request(
                UPDATE_PATH, serialize({"input": x, "label": int(y)}), COLUMNAR_CONTENT_TYPE
            )
            for x, y in zip(inputs, labels)
        ]

    async def load(self, rate: float, duration: float) -> Phase:
        """Predict load for the capacity search (not counted in ``attempted``)."""
        if self.w.kind == "engine":
            return await self.engine_phase(rate, duration)
        return await self.http_phase(rate, duration)

    async def probe(self, rate: float) -> bool:
        """One capacity probe: every answer right and the tail within the SLO."""
        phase = await self.load(rate, self.seconds / 24.0)
        # Work an overloaded probe left behind must not count against the
        # next one.
        await self._command(cmd="settle")
        self.wrong_answers += phase.wrong
        verdict = self._verdict(phase)
        self.probes.append((rate, verdict, phase))
        return verdict == "pass"

    def _verdict(self, phase: Phase) -> str:
        if phase.failed:
            return f"{phase.failed} failed"
        if len(phase.latencies) < 20:
            return "too few answers"
        if percentile(phase.latencies, TAIL_PCT) > self.w.slo_ms:
            return "tail over SLO"
        # No backlog: the last quarter of the probe meets the SLO too.
        # Latencies are in answer order, which pipelining keeps close to
        # arrival order.
        last = phase.latencies[-(len(phase.latencies) // 4):]
        if percentile(last, TAIL_PCT) > self.w.slo_ms:
            return "backlog"
        return "pass"

    def _mark(self, name: str) -> None:
        now = time.monotonic()
        self.phase_s[name] = now - self._t_mark
        self._t_mark = now

    async def run(self) -> dict:
        self.phase_s: Dict[str, float] = {}
        self._t_mark = time.monotonic()
        # Keep the CPUs in use from halting for the whole run (awake.py);
        # set-up starts once every spinner has dropped its priority.
        spinners = [
            subprocess.Popen(
                [sys.executable, os.path.join(HERE, "awake.py"), str(cpu)],
                stdout=subprocess.PIPE,
            )
            for cpu in self.cpus
        ]
        try:
            for spinner in spinners:
                spinner.stdout.readline()
            setups = []
            for i in range(SETUP_REPEATS):
                if i:
                    await self._stop()
                setups.append(await self._launch())
            self._mark("set-up")
            return await self._measure(statistics.median(setups), setups)
        finally:
            if self.pool is not None:
                await self.pool.close()
            await self._stop()
            for spinner in spinners:
                spinner.terminate()
                spinner.wait()
                spinner.stdout.close()

    async def _measure(self, setup_s: float, setups: List[float]) -> dict:
        w = self.w
        if self.trace:
            # The first request (the set-up probe) is the only HTTP traffic
            # of the engine workload; it counts towards ``api.edge_us``.
            layers = (await self._command(cmd="stats"))["layers"]
            self.edge = Phase()
            self.edge.rtt_s = self._setup_rtt
            self.edge.handler_s = layers["api.handler_s"]
            self.edge.handled = layers["api.requests"]
        if w.kind == "http":
            await self._open_pool()
        if w.hot_set:
            self._prepare_hot_set()
            self._count(await self.phase(w.nominal_rate, 0.0, warm_all=True))
        self._count(await self.phase(w.nominal_rate, 1.0))
        self._mark("warm-up")

        if not w.feedback:
            upd = await self.phase(UPDATE_RATE, UPDATE_SECONDS, updates_only=True)
            self._count(upd)
        stats = await self._command(cmd="stats")
        rss_mb = stats["rss_mb"]
        self._mark("updates")

        ladder = workloads.ladder(w)
        # The first burst at a high rate grows buffers and queues once;
        # let that happen before any probe is judged.
        await self.load(ladder[w.ladder_start], 0.5)
        await self._command(cmd="settle")

        # One nominal window before each step of the capacity search's
        # staircase, so the latency, CPU and capacity figures all sample
        # the same stretch of the run instead of one half of it each.
        window_s = self.seconds / 24.0
        windows = []
        traced_windows = []

        async def nominal_window() -> None:
            # Traced runs alternate windows without and with the layer
            # wrappers, which prices the tracing itself.
            on = self.trace and len(windows + traced_windows) % 2 == 1
            await self._set_trace(on)
            phase = await self.phase(w.nominal_rate, window_s)
            self._count(phase)
            (traced_windows if on else windows).append(phase)
            await self._set_trace(True)

        self.probes = []
        rung = await search_ladder(
            len(ladder), w.ladder_start, lambda k: self.probe(ladder[k]),
            NOMINAL_WINDOWS, between=nominal_window,
        )
        # The rate at the search's fractional rung, between the ladder's
        # rates: the ladder is geometric, so ``base * ratio ** rung``.
        qps = w.ladder_base * workloads.LADDER_RATIO**rung if rung >= 0 else 0.0
        final = await self._command(cmd="stats")
        nominal = windows + traced_windows
        if w.feedback:
            update_latencies = [x for p in nominal for x in p.update_latencies]
        else:
            update_latencies = upd.update_latencies
        self._mark("nominal windows and capacity search")

        def cpu_per_req(phases):
            return statistics.median(p.cpu_s / max(1, p.answered) * 1e6 for p in phases)

        metrics = {
            "setup_s": setup_s,
            "qps_at_slo": qps,
            "p50_ms": statistics.median(percentile(p.latencies, 50) for p in windows),
            "tail_ms": statistics.median(percentile(p.latencies, TAIL_PCT) for p in windows),
            "cpu_us_per_req": cpu_per_req(windows),
            "rss_mb": rss_mb,
            "update_p50_ms": percentile(update_latencies, 50),
            "accuracy": (
                sum(p.correct for p in nominal)
                / max(1, sum(len(p.latencies) for p in nominal))
            ),
        }
        late = [x for p in nominal for x in p.late]
        gen_late_ms = statistics.fmean(late) if late else 0.0
        samples = sum(len(p.latencies) for p in windows)
        report = {
            "workload": w.name,
            "setup_runs_s": [round(s, 4) for s in setups],
            "nominal_rate": w.nominal_rate,
            "nominal_samples": samples,
            "samples_beyond_tail_per_window": [
                beyond(len(p.latencies), TAIL_PCT) for p in windows
            ],
            "tail_per_window": [percentile(p.latencies, TAIL_PCT) for p in windows],
            "steal_per_window": [p.steal_s * 1e3 for p in windows],
            "probes": [
                (rate, verdict, percentile(p.latencies, TAIL_PCT) if p.latencies else None)
                for rate, verdict, p in self.probes
            ],
            "gen.late_ms": gen_late_ms,
            "percentiles_ms": {
                pct: statistics.median(percentile(p.latencies, pct) for p in windows)
                for pct in (50, 75, 90, 95, 99)
            },
            "failures": self.failure_kinds,
            "phase_s": self.phase_s,
        }
        if self.trace:
            layers = dict(final["layers"])
            edge = [self.edge] + traced_windows
            handled = sum(p.handled for p in edge)
            layers["api.edge_us"] = (
                sum(p.rtt_s - p.handler_s for p in edge) / handled * 1e6 if handled else 0.0
            )
            layers["gen.late_ms"] = gen_late_ms
            layers["trace.overhead_pct"] = (
                cpu_per_req(traced_windows) / cpu_per_req(windows) - 1.0
            ) * 100.0
            report["layers"] = layers
            out_metrics = layers
        else:
            out_metrics = metrics
        report["metrics"] = metrics
        return {"report": report, "metrics": out_metrics}


PER_LAYER_UNITS = {
    "api.handler_us": "us",
    "api.codec_us": "us",
    "api.edge_us": "us",
    "core.predict_self_us": "us",
    "core.hash_us": "us",
    "core.feedback_us": "us",
    "cache.hit_ratio": "share",
    "cache.lookup_us": "us",
    "selection.select_us": "us",
    "selection.observe_us": "us",
    "batching.batch_size": "inputs",
    "batching.batch_size_p50": "inputs",
    "batching.queue_wait_ms": "ms",
    "rpc.encode_us": "us",
    "rpc.decode_us": "us",
    "rpc.bytes_per_req": "bytes",
    "rpc.overhead_ms": "ms",
    "containers.eval_ms": "ms",
    "containers.eval_us_per_input": "us",
    "loop.lag_ms": "ms",
    "gen.late_ms": "ms",
    "trace.overhead_pct": "%",
}


def format_report(report: dict) -> str:
    """The human-readable part of a run's output."""
    lines = [
        f"workload {report['workload']}: nominal rate {report['nominal_rate']:g}/s, "
        f"{report['nominal_samples']} latency samples in the untraced nominal windows, "
        f"p{TAIL_PCT:g} with {report['samples_beyond_tail_per_window']} samples beyond it "
        "per window",
        "set-up launches (s): " + " ".join(f"{s:.3f}" for s in report["setup_runs_s"]),
        f"capacity probes (rate/s: verdict, p{TAIL_PCT:g} ms): "
        + "; ".join(
            f"{rate:g}: {verdict}, " + (f"{tail:.2f}" if tail is not None else "-")
            for rate, verdict, tail in report["probes"]
        ),
        f"generator lateness (gen.late_ms): {report['gen.late_ms']:.4f}",
        f"p{TAIL_PCT:g} per nominal window (ms): "
        + " ".join(f"{v:.3f}" for v in report["tail_per_window"]),
        "host steal per nominal window, all CPUs (ms): "
        + " ".join(f"{v:.0f}" for v in report["steal_per_window"]),
        "nominal latency percentiles, median over windows (ms): "
        + ", ".join(f"p{pct} {v:.3f}" for pct, v in report["percentiles_ms"].items()),
        "phase wall times (s): "
        + ", ".join(f"{name} {secs:.1f}" for name, secs in report["phase_s"].items()),
        f"failed operations by reason: {report['failures'] or 'none'}",
    ]
    lines.append("end-to-end metrics:")
    for name, value in report["metrics"].items():
        lines.append(f"  {name:<24} {value:14.4f} {END_TO_END_UNITS[name]}")
    if "layers" in report:
        lines.append("per-layer metrics (traced run):")
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {name:<30} {report['layers'][name]:14.4f} {unit}")
        lines.append(
            f"  counts: {report['layers']['api.requests']} HTTP requests handled, "
            f"{report['layers']['batching.batches']} container batches"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = asyncio.run(bench.run())
    print(format_report(result["report"]))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    line = {
        "correct": bench.wrong_answers == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
