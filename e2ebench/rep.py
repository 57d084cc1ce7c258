"""One repetition of a workload, in a fresh process.

Run by ``run.py``; prints one JSON object as its last stdout line.

``--mode timed`` measures with tracing off. ``--mode traced`` records
spans around every layer (see ``spans.py``) and reports the per-layer
table. ``--mode verify`` is the untimed correctness pass: its sink parses
every output row and checks each correlated row's service against the
capture's reference DNS map.

Replay workloads run the capture through ``AsyncEngine`` from
``ReplaySource`` lanes with the DNS-first barrier, as ``flowdns replay
--engine async`` does. ``live-paced`` builds what ``flowdns serve``
builds -- ``AsyncEngine`` with ``UdpFlowIngest`` + ``TcpDnsIngest`` on
loopback -- and a separate sender process (``sender.py``) offers the
capture open loop, on its own schedule sped up to a fixed rate.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import sys
import time
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

clock = time.monotonic
cpu_clock = time.process_time

#: Progress marks per lane: the segments ``run.py`` takes minima over.
SEGMENTS = 64


def mark_every(items: int) -> int:
    """Items between two progress marks of a lane of ``items`` items."""
    return max(1, -(-items // SEGMENTS))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True, help="capture cache directory")
    parser.add_argument("--mode", choices=("timed", "traced", "verify"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="monotonic time the parent started this process")
    parser.add_argument("--spans-out", default=None,
                        help="traced mode: file the spans are written to")
    return parser.parse_args(argv)


class CountingSink(io.TextIOBase):
    """The output sink: counts rows and bytes, keeps a CRC of the text.

    Every ``every`` rows it appends a progress mark, ``(wall, cpu)``, to
    ``marks``. With ``due`` (``live-paced`` only) it also times each flow
    datagram: rows arrive in flow-datagram order, so the running row
    count tells which datagrams are complete, and a completed datagram's
    latency is the time now minus when it was due to be sent.
    """

    def __init__(self, marks, every, recorder=None, datagram_flows=(), due=None):
        self.rows = 0
        self.bytes = 0
        self.crc = 0
        self.last_write = None
        self.marks = marks
        self._every = every
        self._next_mark = every
        self.due = due
        self.latencies = []
        self._ends = []
        total = 0
        for n in datagram_flows:
            total += n
            self._ends.append(total)
        self._weights = datagram_flows
        self._next = 0
        self._recorder = recorder

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if self._recorder is not None:
            return self._recorder.call("sink", self._write, text)
        return self._write(text)

    def _write(self, text: str) -> int:
        now = clock()
        if text.startswith("#"):  # the TSV header, written once per run
            return len(text)
        self.rows += text.count("\n")
        self.bytes += len(text)
        self.crc = zlib.crc32(text.encode(), self.crc)
        self.last_write = now
        rows = self.rows
        while rows >= self._next_mark:
            self.marks.append((now, cpu_clock()))
            self._next_mark += self._every
        if self.due is not None:
            ends = self._ends
            due = self.due
            latencies = self.latencies
            i = self._next
            while i < len(ends) and ends[i] <= rows:
                latencies.append(now - due[i])
                i += 1
            self._next = i
        self.check(text)
        return len(text)

    def check(self, text: str) -> None:
        """Per-row checks; only the verify sink does any."""

    def latency_ms(self):
        """Flow-weighted (p50, p99) latency in ms and the flow count."""
        pairs = sorted(zip(self.latencies, self._weights))
        total = sum(w for _, w in pairs)
        if not total:
            return 0.0, 0.0, 0
        out = []
        for q in (0.50, 0.99):
            target = q * total
            acc = 0
            for value, weight in pairs:
                acc += weight
                if acc >= target:
                    out.append(value * 1000.0)
                    break
        return out[0], out[1], total


class VerifyingSink(CountingSink):
    """Also checks every correlated row's service against the capture.

    A service is valid for a source address when the capture's DNS lane
    reaches it from that address: an A/AAAA record naming the address,
    then any number of CNAME records backwards.
    """

    def __init__(self, reference, marks, every, **kwargs):
        super().__init__(marks, every, **kwargs)
        self.a_owners = reference["a_owners"]
        self.cname_rev = reference["cname_rev"]
        self._valid = {}
        self._ancestors = {}
        self.matched = 0
        self.bad = []

    def _names_above(self, name):
        found = self._ancestors.get(name)
        if found is None:
            found = {name}
            todo = [name]
            while todo:
                for owner in self.cname_rev.get(todo.pop(), ()):
                    if owner not in found:
                        found.add(owner)
                        todo.append(owner)
            self._ancestors[name] = found
        return found

    def valid_services(self, ip):
        found = self._valid.get(ip)
        if found is None:
            found = set()
            for owner in self.a_owners.get(ip, ()):
                found |= self._names_above(owner)
            self._valid[ip] = found
        return found

    def check(self, text: str) -> None:
        for line in text.splitlines():
            parts = line.split("\t")
            service = parts[6]
            if service == "-":
                continue
            self.matched += 1
            if service not in self.valid_services(parts[1]) and len(self.bad) < 5:
                self.bad.append(f"row {line!r}: service not mapped to {parts[1]}")


class MarkedSource:
    """A replay source that appends a progress mark every ``every`` items."""

    def __init__(self, inner, marks, every):
        self.inner = inner
        self.marks = marks
        self.every = every
        self.ingest_stats = inner.ingest_stats

    def close(self) -> None:
        self.inner.close()

    def __iter__(self):
        marks = self.marks
        every = self.every
        for i, item in enumerate(self.inner, 1):
            if i % every == 0:
                marks.append((clock(), cpu_clock()))
            yield item


def run_replay(cache, manifest, sink_factory):
    """One replay; returns (report, sink, ready, start, sender stats).

    Progress marks: every 1/SEGMENTS of the DNS messages as the DNS lane
    hands them to the engine, then every 1/SEGMENTS of the flows as their
    rows reach the sink. The DNS-first barrier drains the DNS lane before
    any flow is read, so the marks of every repetition line up.
    """
    from repro.core.async_engine import AsyncEngine
    from repro.replay.source import replay_sources

    marks = []
    sink = sink_factory(marks, None)
    engine = AsyncEngine(sink=sink)
    dns_sources, flow_sources = replay_sources(os.path.join(cache, "capture.fdc"))
    dns_sources = [MarkedSource(dns_sources[0], marks, mark_every(manifest["dns_messages"]))]
    gc.collect()
    start = clock()
    marks.append((start, cpu_clock()))
    report = engine.run(dns_sources, flow_sources, dns_first=True)
    return report, sink, start, start, {}


def pin_elsewhere() -> None:
    """Move the calling (sender) process off this process's CPU."""
    others = set(range(os.cpu_count() or 1)) - os.sched_getaffinity(0)
    if others:
        os.sched_setaffinity(0, others)


def run_live(cache, manifest, sink_factory):
    """One live session; returns (report, sink, ready, start, sender stats).

    ``ready`` is when both listeners are bound, ``start`` when the first
    frame is due. Progress marks come from the sink alone.
    """
    import asyncio

    from captures import live_speed
    from repro.core.async_engine import AsyncEngine, TcpDnsIngest, UdpFlowIngest

    speed = live_speed(manifest)
    first_ts = manifest["first_ts"]
    offsets = [(ts - first_ts) / speed for ts in manifest["datagram_ts"]]
    due = []
    marks = []
    sink = sink_factory(marks, due)
    origin = [None]

    def capture_clock():
        # DNS arrival stamps in the capture's time base, like the flows'.
        return first_ts + (clock() - origin[0]) * speed

    udp = UdpFlowIngest(host="127.0.0.1", port=0)
    tcp = TcpDnsIngest(host="127.0.0.1", port=0, clock=capture_clock)
    engine = AsyncEngine(sink=sink)
    expected = manifest["flows"]

    async def session():
        run = asyncio.get_running_loop().create_task(engine.run_async([tcp], [udp]))
        while udp.address is None or tcp.address is None:
            if run.done():
                await run  # raises the bind error
                raise RuntimeError("live listeners failed to bind")
            await asyncio.sleep(0.001)
        ready = clock()
        sender = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "sender.py"),
            os.path.join(cache, "capture.fdc"),
            udp.address[0], str(udp.address[1]),
            tcp.address[0], str(tcp.address[1]),
            repr(first_ts), repr(speed),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            preexec_fn=pin_elsewhere,
        )
        try:
            line = await asyncio.wait_for(sender.stdout.readline(), 60)
            if line.strip() != b"ready":
                raise RuntimeError(f"sender failed to start: {line!r}")
            gc.collect()
            start = clock() + 0.05
            origin[0] = start
            due.extend(start + off for off in offsets)
            marks.append((start, cpu_clock()))
            sender.stdin.write(f"{start!r}\n".encode())
            await sender.stdin.drain()
            out = await asyncio.wait_for(sender.stdout.read(), 120)
            await sender.wait()
        except BaseException:
            sender.kill()
            await sender.wait()
            raise
        stats = json.loads(out.decode().strip().splitlines()[-1])
        deadline = clock() + 10.0
        while sink.rows < expected and clock() < deadline:
            await asyncio.sleep(0.005)
        engine.request_stop()
        return await run, sink, ready, start, stats

    return asyncio.run(session())


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    recorder = None
    if args.mode == "traced":
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    # The program's modules load here, inside setup_s.
    import repro.core.async_engine  # noqa: F401
    import repro.replay.source  # noqa: F401
    from repro.core.invariants import check_report

    from captures import WORKLOADS, load_manifest

    manifest = load_manifest(args.cache)
    live = WORKLOADS[args.workload].live
    flows = manifest["datagram_flows"]
    every = mark_every(manifest["flows"])
    if args.mode == "verify":
        with open(os.path.join(args.cache, "dnsref.json"), encoding="utf-8") as handle:
            reference = json.load(handle)

        def sink_factory(marks, due):
            return VerifyingSink(reference, marks, every, datagram_flows=flows, due=due)
    else:
        def sink_factory(marks, due):
            return CountingSink(marks, every, recorder, datagram_flows=flows, due=due)

    if live:
        report, sink, ready, start, sender = run_live(args.cache, manifest, sink_factory)
    else:
        report, sink, ready, start, sender = run_replay(args.cache, manifest, sink_factory)
    wall = sink.last_write - start
    marks = sink.marks + [(sink.last_write, cpu_clock())]

    problems = list(check_report(report, rows=sink.rows))
    if sink.rows != manifest["flows"]:
        problems.append(f"sink has {sink.rows} rows for {manifest['flows']} flows offered")
    if report.dns_invalid != manifest["dns_invalid"]:
        problems.append(
            f"dns_invalid={report.dns_invalid}, capture has {manifest['dns_invalid']} "
            f"undecodable DNS messages"
        )
    if report.dns_records != manifest["dns_records"]:
        problems.append(
            f"dns_records={report.dns_records}, capture has {manifest['dns_records']}"
        )
    if isinstance(sink, VerifyingSink):
        problems.extend(sink.bad)
        if sink.matched != report.matched_flows:
            problems.append(
                f"{sink.matched} correlated rows, report says {report.matched_flows}"
            )

    result = {
        "mode": args.mode,
        "setup_s": ready - args.spawned_at,
        "wall_s": wall,
        "rows": sink.rows,
        "offered": manifest["flows"],
        "flows_per_s": sink.rows / wall,
        "wall_segments": [b[0] - a[0] for a, b in zip(marks, marks[1:])],
        "cpu_segments": [b[1] - a[1] for a, b in zip(marks, marks[1:])],
        "match_rate": report.matched_flows / report.flow_records,
        "correlation_rate": report.correlation_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "crc32": sink.crc,
        "problems": problems,
        "sender": sender,
    }
    if live:
        result["latency_p50_ms"], result["latency_p99_ms"], result["latency_samples"] = (
            sink.latency_ms()
        )
    if recorder is not None:
        result["layers"] = layer_table(recorder, report, sink, sender, wall)
        if args.spans_out:
            recorder.write(args.spans_out, start)
    print(json.dumps(result))
    return 0


def layer_table(recorder, report, sink, sender, wall) -> dict:
    """Per-layer numbers of one traced repetition."""
    per_call = recorder.self_times()
    busy = {layer: sum(times) for layer, times in per_call.items()}
    calls = {layer: len(times) for layer, times in per_call.items()}
    counts = recorder.counts
    chain_flows = sum(report.chain_lengths.values())
    chain_total = sum(length * n for length, n in report.chain_lengths.items())
    live_ingest = [
        stats for name, stats in report.ingest.items() if not name.startswith("replay")
    ]
    buffers = list(recorder.buffers.values())
    batches = counts["engine.batches"]
    return {
        "replay.busy_s": busy.get("replay", 0.0),
        "replay.frames": counts["replay.frames"],
        "replay.bytes": counts["replay.bytes"],
        "netflow.busy_s": busy.get("netflow", 0.0),
        "netflow.datagrams": calls.get("netflow", 0),
        "netflow.flows": counts["netflow.flows"],
        "netflow.decode_errors": report.flow_decode_errors
        + sum(s.malformed for s in live_ingest if s.name.startswith("udp")),
        "dns.busy_s": busy.get("dns", 0.0),
        "dns.calls": calls.get("dns", 0),
        "dns.messages": counts["dns.messages"],
        "dns.records": counts["dns.records"],
        "dns.invalid": counts["dns.invalid"],
        "dns.records_per_msg": counts["dns.records"] / max(counts["dns.messages"], 1),
        "storage.busy_s": busy.get("storage", 0.0),
        "storage.calls": calls.get("storage", 0),
        "storage.rows": counts["storage.rows"],
        "storage.entries": report.final_map_entries,
        "storage.overwrites": report.overwrites,
        "storage.evictions": report.evictions,
        "lookup.busy_s": busy.get("lookup", 0.0),
        "lookup.calls": calls.get("lookup", 0),
        "lookup.flows": counts["lookup.flows"],
        "lookup.matched": counts["lookup.matched"],
        "lookup.match_ratio": counts["lookup.matched"] / max(counts["lookup.flows"], 1),
        "lookup.chain_len_mean": chain_total / max(chain_flows, 1),
        "writer.format_busy_s": busy.get("writer", 0.0),
        "writer.calls": calls.get("writer", 0),
        "writer.sink_s": busy.get("sink", 0.0),
        "writer.rows": counts["writer.rows"],
        "writer.bytes": sink.bytes,
        "queue.puts": sum(b.stats.offered for b in buffers),
        "queue.wait_s": recorder.wait_time(),
        "queue.max_depth": max((b.stats.high_watermark for b in buffers), default=0),
        "engine.batches": batches,
        "engine.mean_batch": counts["engine.batch_items"] / max(batches, 1),
        "ingest.busy_s": busy.get("ingest", 0.0),
        "ingest.calls": calls.get("ingest", 0),
        "ingest.received": sum(s.received for s in live_ingest),
        "ingest.dropped": sum(s.dropped for s in live_ingest),
        "ingest.recv_buffer_bytes": sum(s.recv_buffer_bytes for s in live_ingest),
        "sender.late_ms": sender.get("late_p99_ms", 0.0),
        "self_sum_s": sum(busy.values()),
        "wall_s": wall,
        "spans": len(recorder.spans) + len(recorder.waits),
        "self_chunks": {layer: chunk_sums(times) for layer, times in per_call.items()},
    }


def chunk_sums(times) -> list:
    """``times`` summed over SEGMENTS runs of consecutive calls."""
    n = len(times)
    cuts = [n * i // SEGMENTS for i in range(SEGMENTS + 1)]
    return [sum(times[a:b]) for a, b in zip(cuts, cuts[1:])]


if __name__ == "__main__":
    sys.exit(main())
