"""The measured process of one benchmark run; started by ``run.py``.

``--cold`` performs one cold start -- ``import repro``, the plans compiled by
``api.Engine(...)``, the first ``engine.open()`` and, on the feed, the server
listening and the resume frame received -- prints ``ready`` and then the
times of those steps as JSON.  Otherwise the process sets up the same way
and measures passes over the generated inputs for ``--seconds``, checking
every output against the reference digests, and prints one JSON object.

Every workload runs on one thread in this one process; no worker pool is
started (on two shared vCPUs a ``jobs=2`` run would measure the scheduler).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

from probe import Meter
from spans import Tracer

_now = time.perf_counter_ns

#: Probe after this much work inside a pass; the machine's speed phases last
#: one to fifteen seconds, so this samples each phase several times.
SEGMENT_NS = 150_000_000
FEED_PASS_RECORDS = 20
FEED_END_TAG = b"</MedlineCitationSet>"
MEDLINE_SEARCH = ("M1", "M2", "M3", "M4", "M5")
MEDLINE_FEED = ("M2", "M3", "M4", "M5")
#: Traced passes kept in memory (XMark emits ~0.9 M sink spans per pass).
MAX_TRACED_PASSES = 2
SCAN_LAYERS = ("sources.read", "session.open", "session.feed",
               "session.finish", "sink.write")
FEED_LAYERS = ("aio.record", "session.open", "session.feed",
               "session.finish", "checkpoint.write")


# ----------------------------------------------------------------------
# Set-up (timed by the cold starts)
# ----------------------------------------------------------------------
def setup(workload: str) -> tuple:
    times = {}
    started = _now()
    from repro import api
    times["import.repro_s"] = (_now() - started) / 1e9
    started = _now()
    if workload == "xmark-shared":
        from repro.workloads.xmark import XMARK_QUERIES, XMARK_QUERY_ORDER
        from repro.workloads.xmark import xmark_dtd
        dtd = xmark_dtd()
        engines = [api.Engine([api.Query.from_spec(dtd, XMARK_QUERIES[name])
                               for name in XMARK_QUERY_ORDER], mode="shared")]
    else:
        from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
        dtd = medline_dtd()
        if workload == "medline-search":
            engines = [
                api.Engine(api.Query.from_spec(dtd, MEDLINE_QUERIES[name]),
                           mode="search")
                for name in MEDLINE_SEARCH
            ]
        else:
            engines = [api.Engine([api.Query.from_spec(dtd, MEDLINE_QUERIES[n])
                                   for n in MEDLINE_FEED], mode="shared")]
    times["compile.plans_s"] = (_now() - started) / 1e9
    times["compile.plans"] = sum(len(engine.plans) for engine in engines)
    started = _now()
    engines[0].open(binary=True).close()
    times["compile.shared_s"] = (_now() - started) / 1e9
    return api, engines, times


async def _start_feed(engine, checkpoint: str):
    from repro import aio
    server = await aio.serve_records(engine, end_tag=FEED_END_TAG,
                                     checkpoint=checkpoint)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    frame = await aio.read_frame(reader)
    if frame is None or frame[0] != aio.FRAME_RESUME or frame[2] != b"0":
        raise RuntimeError(f"expected a fresh resume frame, got {frame!r}")
    return server, reader, writer


async def _stop_feed(server, reader, writer) -> None:
    """Close the client side, drain the end frames, shut the server down."""
    from repro import aio
    writer.write_eof()
    while await aio.read_frame(reader) is not None:
        pass
    writer.close()
    await writer.wait_closed()
    await aio.shutdown(server, timeout=10)


def cold(workload: str, checkpoint: str) -> None:
    api, engines, times = setup(workload)
    if workload == "medline-feed":
        async def start_and_stop():
            started = _now()
            connection = await _start_feed(engines[0], checkpoint)
            times["aio.start_s"] = (_now() - started) / 1e9
            print("ready", flush=True)
            await _stop_feed(*connection)
        asyncio.run(start_and_stop())
    else:
        print("ready", flush=True)
    print(json.dumps(times), flush=True)


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
class DigestSink:
    """Hashes and counts what a query emits.

    ``plant`` is a list shared by the sinks of one pass: while it holds an
    item, the first non-empty fragment any of them receives gets one byte
    flipped (the self-check that the digest comparison bites).
    """

    def __init__(self, plant: list) -> None:
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.plant = plant

    def write(self, fragment) -> None:
        if self.plant and fragment:
            self.plant.pop()
            fragment = bytes([fragment[0] ^ 1]) + bytes(fragment[1:])
        self.hash.update(fragment)
        self.bytes += len(fragment)

    def matches(self, expected: dict) -> bool:
        return (self.bytes == expected["bytes"]
                and self.hash.hexdigest() == expected["sha256"])


def new_counters() -> dict:
    return {"tokens_matched": 0, "char_comparisons": 0,
            "initial_jump_chars": 0, "regions_copied": 0, "input_bytes": 0}


def add_scan_counters(counters: dict, stats) -> None:
    """Add the matcher counters of one ``RunStatistics``."""
    counters["tokens_matched"] += stats.tokens_matched
    counters["char_comparisons"] += stats.total_comparisons
    counters["initial_jump_chars"] += stats.initial_jump_chars
    counters["input_bytes"] += stats.input_size


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Scan workloads: medline-search and xmark-shared
# ----------------------------------------------------------------------
class ScanBench:
    def __init__(self, api, engines, oracle, path, tracer, plant) -> None:
        self.api = api
        self.engines = engines
        self.oracle = oracle
        self.file_source = api.Source.from_file(path)
        self.tracer = tracer
        self.plant = plant
        self.meter = Meter()
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.counters: dict = {}
        self._read_id = tracer.name_id("sources.read") if tracer else None

    def _chunks(self, chunks, traced: bool):
        meter = self.meter
        iterator = iter(chunks)
        while True:
            started = _now()
            chunk = next(iterator, None)
            if chunk is None:
                return
            if traced:
                self.tracer.leaf(self._read_id, started, _now())
            yield chunk
            meter.sample(_now() - started)
            if meter.elapsed_ns() >= SEGMENT_NS:
                meter.mark()

    def _source(self, traced: bool):
        @contextlib.contextmanager
        def opener():
            with self.file_source.open() as chunks:
                yield self._chunks(chunks, traced)
        return self.api.Source(opener, kind="file", repeatable=True)

    def _instrument(self, engine, traced: bool) -> None:
        if not traced:
            engine.__dict__.pop("open", None)
            return
        tracer = self.tracer
        opened = tracer.wrap("session.open", type(engine).open.__get__(engine))

        def open_(*args, **kwargs):
            session = opened(*args, **kwargs)
            session.feed = tracer.wrap("session.feed", session.feed)
            session.finish = tracer.wrap("session.finish", session.finish)
            return session
        engine.open = open_

    def one_pass(self, index: int, traced: bool) -> dict:
        tracer = self.tracer
        if tracer is not None:
            tracer.on = traced
            tracer.trace_id = index
        counters = new_counters()
        output = 0
        plant = [True] if self.plant else []
        meter = self.meter
        meter.reset()
        first = meter.count
        for engine in self.engines:
            self._instrument(engine, traced)
            sinks = [DigestSink(plant) for _ in engine.labels]
            writes = [tracer.wrap_leaf("sink.write", sink.write) if traced
                      else sink.write for sink in sinks]
            self.attempted += len(sinks)
            try:
                run = engine.run(
                    self._source(traced),
                    sinks=[self.api.CallbackSink(write, binary=True)
                           for write in writes],
                    binary=True,
                )
            except Exception as error:  # noqa: BLE001 -- counted, reported
                print(f"run failed: {error!r}", file=sys.stderr)
                self.failed += len(sinks)
                continue
            for label, sink in zip(engine.labels, sinks):
                if not sink.matches(self.oracle["queries"][label]):
                    print(f"digest mismatch: {label}", file=sys.stderr)
                    self.failed += 1
                output += sink.bytes
            scan = run.scan_stats
            for result in run.results:
                stats = result.stats
                self.degraded += stats.accel_degraded
                counters["regions_copied"] += stats.regions_copied
                if scan is None:
                    add_scan_counters(counters, stats)
            if scan is not None:
                self.degraded += scan.accel_degraded
                add_scan_counters(counters, scan)
        meter.mark()
        self.counters = counters
        return {"index": index, "traced": traced, "raw_ns": meter.raw_ns,
                "norm_ns": meter.norm_ns, "bytes": counters["input_bytes"],
                "output": output, "samples": (first, meter.count)}



def run_passes(bench, seconds: float, traced_run: bool) -> list[dict]:
    """A warm-up pass, then passes until ``seconds`` have elapsed.  A traced
    run alternates untraced and traced passes."""
    bench.one_pass(0, False)
    passes = []
    deadline = _now() + int(seconds * 1e9)
    index = 1
    traced_count = 0
    while _now() < deadline or len(passes) < (2 if traced_run else 1):
        traced = (traced_run and index % 2 == 0
                  and traced_count < MAX_TRACED_PASSES)
        traced_count += traced
        passes.append(bench.one_pass(index, traced))
        index += 1
    return passes


# ----------------------------------------------------------------------
# Feed workload: closed-loop client against aio.serve_records
# ----------------------------------------------------------------------
class FeedBench:
    def __init__(self, engine, oracle, data_dir, tracer, plant) -> None:
        self.engine = engine
        self.oracle = oracle
        self.tracer = tracer
        self.plant = [True] if plant else []
        with open(os.path.join(data_dir, oracle["input"]), "rb") as handle:
            blob = handle.read()
        self.records = []
        offset = 0
        for length in oracle["record_bytes"]:
            self.records.append(blob[offset:offset + length])
            offset += length
        self.meter = None
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.counters: dict = {}
        self.output_bytes = 0
        self.frames = 0
        self.sent = 0
        self.sessions: list = []
        self.broken = False
        if tracer is not None:
            self._record_id = tracer.name_id("aio.record")

    def instrument(self) -> None:
        """Span wrappers for the traced passes: checkpoint writes (patched
        before the server binds them) and the engine's ``open``."""
        import repro.checkpoint
        tracer = self.tracer
        repro.checkpoint.write_checkpoint = tracer.wrap(
            "checkpoint.write", repro.checkpoint.write_checkpoint)
        engine = self.engine
        opened = tracer.wrap("session.open", type(engine).open.__get__(engine))

        def open_(*args, **kwargs):
            session = opened(*args, **kwargs)
            if tracer.on:
                session.feed = tracer.wrap("session.feed", session.feed)
                session.finish = tracer.wrap("session.finish", session.finish)
                self.sessions.append(session)
            return session
        engine.open = open_

    async def one_record(self, reader, writer, traced: bool) -> None:
        from repro import aio
        index = self.sent
        record = self.records[index % len(self.records)]
        expected = self.oracle["records"][index % len(self.records)]
        self.sent += 1
        self.attempted += 1
        tracer = self.tracer
        started = _now()
        span = tracer.begin(self._record_id) if traced else None
        writer.write(record)
        await writer.drain()
        parts: dict[bytes, list[bytes]] = {}
        while True:
            frame = await aio.read_frame(reader)
            if frame is None:
                raise RuntimeError(f"no ack for record {index}")
            kind, label, payload = frame
            self.frames += 1
            if kind == aio.FRAME_DATA:
                parts.setdefault(label, []).append(payload)
            elif kind == aio.FRAME_RECORD:
                if payload != b"%d" % index:
                    raise RuntimeError(f"ack {payload!r} for record {index}")
                break
            else:
                raise RuntimeError(f"frame {kind} ({payload[:200]!r}) on "
                                   f"record {index}")
        if span is not None:
            tracer.close(span)
        self.meter.sample(_now() - started)
        for label, want in expected.items():
            sink = DigestSink(self.plant)
            for payload in parts.get(label.encode(), ()):
                sink.write(payload)
            self.output_bytes += sink.bytes
            if not sink.matches(want):
                print(f"digest mismatch: record {index} {label}",
                      file=sys.stderr)
                self.failed += 1

    async def one_pass(self, reader, writer, index: int, traced: bool) -> dict:
        tracer = self.tracer
        if tracer is not None:
            tracer.on = traced
            tracer.trace_id = index
        self.sessions = []
        self.output_bytes = 0
        meter = self.meter
        meter.reset()
        first = meter.count
        sent = 0
        for _ in range(FEED_PASS_RECORDS):
            if self.broken:
                break
            sent += len(self.records[self.sent % len(self.records)])
            try:
                await self.one_record(reader, writer, traced)
            except (RuntimeError, ConnectionError, asyncio.IncompleteReadError,
                    OSError) as error:
                print(f"feed failed: {error}", file=sys.stderr)
                self.failed += 1
                self.broken = True
        meter.mark()
        counters = new_counters()
        for session in self.sessions:
            scan = session.scan_stats
            self.degraded += scan.accel_degraded
            add_scan_counters(counters, scan)
            for stats in session.stats:
                self.degraded += stats.accel_degraded
                counters["regions_copied"] += stats.regions_copied
        if self.sessions:
            self.counters = counters
        return {"index": index, "traced": traced, "raw_ns": meter.raw_ns,
                "norm_ns": meter.norm_ns, "bytes": sent,
                "output": self.output_bytes, "samples": (first, meter.count)}

    async def run(self, checkpoint: str, seconds: float,
                  traced_run: bool) -> list[dict]:
        from repro import aio
        if traced_run:
            self.instrument()
        server, reader, writer = await _start_feed(self.engine, checkpoint)
        self.meter = Meter()
        passes = []
        async with asyncio.timeout(seconds + 120):
            await self.one_pass(reader, writer, 0, False)
            deadline = _now() + int(seconds * 1e9)
            index = 1
            while not self.broken and (
                    _now() < deadline or len(passes) < (2 if traced_run else 1)):
                passes.append(await self.one_pass(
                    reader, writer, index, traced_run and index % 2 == 0))
                index += 1
            if self.broken:
                writer.close()
                await aio.shutdown(server, timeout=10)
            else:
                await _stop_feed(server, reader, writer)
        return passes


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def summarize(passes: list[dict], meter: Meter) -> dict:
    """End-to-end figures of the untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    latencies = [value for p in plain
                 for value in meter.latencies_ms[slice(*p["samples"])]]
    return {
        "throughput_mbps": statistics.median(
            p["bytes"] / p["norm_ns"] * 1e3 for p in plain),
        "raw_throughput_mbps": statistics.median(
            p["bytes"] / p["raw_ns"] * 1e3 for p in plain),
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "samples": len(latencies),
        "passes": len(plain),
    }


def layer_report(bench, passes: list[dict], feed: bool) -> dict:
    """Per-layer figures of the traced passes (times probe-normalized)."""
    tracer = bench.tracer
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = FEED_LAYERS if feed else SCAN_LAYERS
    spans = tracer.by_trace(set(layers))
    scaled: dict[str, list[float]] = {name: [] for name in layers}
    megabytes = 0.0
    unaccounted = []
    for p in traced:
        factor = p["norm_ns"] / p["raw_ns"]
        megabytes += p["bytes"] / 1e6
        own = spans.get(p["index"], {})
        for name in layers:
            scaled[name].extend(ns * factor / 1e6 for ns in own.get(name, ()))
        covered = sum(sum(values) for values in own.values())
        unaccounted.append(100.0 * (p["raw_ns"] - covered) / p["raw_ns"])
    counters = bench.counters
    per_mb = counters["input_bytes"] / 1e6

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    def p99_or_zero(values):
        return percentile(values, 0.99) if values else 0.0

    report = {
        "sources.read_ms_per_mb": sum(scaled.get("sources.read", ())) / megabytes,
        "sources.chunks": len(spans.get(traced[-1]["index"], {}).get(
            "sources.read", ())),
        "session.feed_self_ms_per_mb": sum(scaled["session.feed"]) / megabytes,
        "session.finish_ms": median_or_zero(scaled["session.finish"]),
        "session.open_ms": median_or_zero(scaled["session.open"]),
        "runtime.tokens_matched_per_mb": counters["tokens_matched"] / per_mb,
        "runtime.char_comparisons_per_mb":
            counters["char_comparisons"] / per_mb,
        "runtime.initial_jump_pct":
            100.0 * counters["initial_jump_chars"] / counters["input_bytes"],
        "runtime.regions_copied": counters["regions_copied"],
        "sink.writes_per_mb": len(scaled.get("sink.write", ())) / megabytes,
        "sink.write_ms_per_mb": sum(scaled.get("sink.write", ())) / megabytes,
        "sink.output_ratio":
            sum(p["output"] for p in traced) / sum(p["bytes"] for p in traced),
        "checkpoint.writes": len(scaled.get("checkpoint.write", ())),
        "checkpoint.write_ms_p50":
            median_or_zero(scaled.get("checkpoint.write", [])),
        "checkpoint.write_ms_p99":
            p99_or_zero(scaled.get("checkpoint.write", [])),
        "aio.overhead_ms_p50": median_or_zero(scaled.get("aio.record", [])),
        "aio.frames_per_record":
            bench.frames / bench.sent if feed and bench.sent else 0.0,
        "trace.unaccounted_pct": statistics.median(unaccounted),
        "trace.overhead_pct": 100.0 * (
            statistics.median(p["norm_ns"] / p["bytes"] for p in traced)
            / statistics.median(p["norm_ns"] / p["bytes"] for p in plain)
            - 1.0),
    }
    return report


def environment(degraded: int) -> dict:
    import platform
    from repro.accel import load_accel
    from repro.core.runtime import resolve_delivery
    accel = load_accel()
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "accel": getattr(accel, "__file__", None),
        "delivery": resolve_delivery(None),
        "accel_degraded": degraded,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out")
    parser.add_argument("--plant-byte", action="store_true")
    parser.add_argument("--cold", action="store_true")
    args = parser.parse_args(argv)
    checkpoint = os.path.join(args.data, "feed.ckpt")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(checkpoint)
    if args.cold:
        cold(args.workload, checkpoint)
        return 0
    api, engines, _ = setup(args.workload)
    if environment(0)["delivery"] != "accel":
        print("repro._accel is not in use; refusing to measure the pure "
              "tier", file=sys.stderr)
        return 2
    with open(os.path.join(args.data, "oracle.json")) as handle:
        oracle = json.load(handle)
    tracer = Tracer() if args.trace_out else None
    feed = args.workload == "medline-feed"
    if feed:
        bench = FeedBench(engines[0], oracle, args.data, tracer,
                          args.plant_byte)
        passes = asyncio.run(bench.run(checkpoint, args.seconds,
                                       tracer is not None))
    else:
        path = os.path.join(args.data, oracle["input"])
        bench = ScanBench(api, engines, oracle, path, tracer, args.plant_byte)
        passes = run_passes(bench, args.seconds, tracer is not None)
    result = {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "probe_ms": statistics.median(bench.meter.probes),
        "env": environment(bench.degraded),
    }
    if passes:
        result.update(summarize(passes, bench.meter))
    if tracer is not None and passes:
        result["layers"] = layer_report(bench, passes, feed)
        tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
