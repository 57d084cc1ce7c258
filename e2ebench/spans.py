"""Span recording for the traced repetition, from outside the program.

:func:`install` wraps the public entry point of each layer the async
engine runs through, from the benchmark's side (the program's modules
are patched in the traced process only; nothing in ``src/`` knows about
tracing). Each call records a span -- layer, start, end, parent span,
thread -- in memory, plus the counts the layer's return value carries.
:meth:`SpanRecorder.write` saves the spans when the repetition ends.

A layer's self time is its spans' durations minus the part covered by
their child spans. The queue coroutines (``AsyncBuffer.put`` /
``get_many``) suspend while they wait, so they are recorded as waits
off the call stack: they never parent a span and are not busy time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional


class SpanRecorder:
    """Spans kept in memory: ``(layer, start, end, parent, thread)``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[tuple]] = []
        self.waits: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.buffers: Dict[int, object] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span of ``layer``."""
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(None)
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans[index] = (layer, start, end, parent, threading.get_ident())

    async def wait(self, layer: str, coro):
        start = self.clock()
        try:
            return await coro
        finally:
            self.waits.append((layer, start, self.clock()))

    def self_times(self) -> Dict[str, List[float]]:
        """Per-layer self times of each call, in call order.

        A call's self time is its span's duration minus its child spans'.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, List[float]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span is not None:
                out[span[0]].append(span[2] - span[1] - child[i])
        return out

    def wait_time(self) -> float:
        return sum(end - start for _layer, start, end in self.waits)

    def write(self, path: str, origin: float) -> None:
        """Save every span as CSV, times in seconds from ``origin``."""
        threads: Dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,layer,start_s,end_s,parent,thread\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, thread = span
                tid = threads.setdefault(thread, len(threads))
                handle.write(
                    f"{i},{layer},{start - origin!r},{end - origin!r},{parent},{tid}\n"
                )
            for layer, start, end in self.waits:
                handle.write(f"-1,{layer},{start - origin!r},{end - origin!r},-1,0\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry point to record into ``recorder``."""
    from repro.core import async_engine, fillup, lookup, pipeline, writer
    from repro.netflow import collector
    from repro.replay import source

    call = recorder.call
    counts = recorder.counts

    # replay: ReplaySource iteration, one span per item handed out.
    replay_iter = source.ReplaySource.__iter__

    def traced_replay_iter(self):
        items = replay_iter(self)
        step = items.__next__
        while True:
            try:
                item = call("replay", step)
            except StopIteration:
                return
            counts["replay.frames"] += 1
            payload = item[1] if type(item) is tuple else item
            counts["replay.bytes"] += len(payload)
            yield item

    source.ReplaySource.__iter__ = traced_replay_iter

    # netflow: FlowCollector.ingest_columns, one span per datagram.
    ingest_columns = collector.FlowCollector.ingest_columns

    def traced_ingest_columns(self, datagram):
        batch = call("netflow", ingest_columns, self, datagram)
        counts["netflow.flows"] += len(batch)
        return batch

    collector.FlowCollector.ingest_columns = traced_ingest_columns

    # dns: the columnar fill decode, as the fill lane calls it.
    decode_fill_columns = pipeline.decode_fill_columns

    def traced_decode(payloads, ts):
        batch = call("dns", decode_fill_columns, payloads, ts)
        counts["dns.messages"] += batch.messages
        counts["dns.records"] += len(batch)
        counts["dns.invalid"] += batch.invalid
        return batch

    pipeline.decode_fill_columns = traced_decode

    # storage: FillUp's columnar store.
    process_columns = fillup.FillUpProcessor.process_columns

    def traced_process_columns(self, batch):
        stored = call("storage", process_columns, self, batch)
        counts["storage.rows"] += stored
        return stored

    fillup.FillUpProcessor.process_columns = traced_process_columns

    # lookup: LookUp's columnar correlation.
    correlate = lookup.LookUpProcessor.correlate_batch_columns

    def traced_correlate(self, flows):
        batch = call("lookup", correlate, self, flows)
        counts["lookup.flows"] += len(batch)
        counts["lookup.matched"] += batch.matched
        return batch

    lookup.LookUpProcessor.correlate_batch_columns = traced_correlate

    # writer: row formatting, as WriteWorker.write_batch calls it.
    format_batch = writer.format_batch

    def traced_format(batch):
        rows = call("writer", format_batch, batch)
        counts["writer.rows"] += len(rows)
        return rows

    writer.format_batch = traced_format

    # queue: the engine's bounded buffers (waits, off the call stack).
    buffer_cls = async_engine.AsyncBuffer
    put = buffer_cls.put
    get_many = buffer_cls.get_many

    async def traced_put(self, item):
        recorder.buffers[id(self)] = self
        await recorder.wait("queue.put", put(self, item))

    async def traced_get_many(self, max_items):
        recorder.buffers[id(self)] = self
        items = await recorder.wait("queue.get", get_many(self, max_items))
        if items:
            counts["engine.batches"] += 1
            counts["engine.batch_items"] += len(items)
        return items

    buffer_cls.put = traced_put
    buffer_cls.get_many = traced_get_many

    # ingest: the UDP readiness callback (it drains the socket without
    # going through on_datagram) and the TCP chunk reassembly.
    on_readable = async_engine.UdpFlowIngest._on_readable

    def traced_on_readable(self):
        return call("ingest", on_readable, self)

    async_engine.UdpFlowIngest._on_readable = traced_on_readable

    feed_chunk = async_engine.TcpDnsIngest.feed_chunk

    def traced_feed_chunk(self, decoder, chunk):
        return call("ingest", feed_chunk, self, decoder, chunk)

    async_engine.TcpDnsIngest.feed_chunk = traced_feed_chunk
