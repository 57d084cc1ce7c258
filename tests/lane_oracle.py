"""Record-object reference oracles for the parity suites and ratio gates.

Each production lane runs one batched columnar path:
``LookUpProcessor.correlate_batch_columns`` over a ``FlowBatch`` and
``FillLane.process_items`` decoding wire runs with
``decode_fill_columns``. The differential suites and the benchmark ratio
gates compare those paths against the record-object implementations
kept here, so every comparison uses the same reference code. Importable
from ``tests/`` and ``benchmarks/`` alike (pytest puts ``tests`` on
``pythonpath``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.pipeline import dns_item_records
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowDirection, FlowRecord
from repro.util.interning import intern_string


class ReferenceLookUpProcessor(LookUpProcessor):
    """LookUp plus the record-list batch path: the flow lane's oracle."""

    #: Cap on the address→text memo; cleared wholesale when exceeded.
    _IP_TEXT_CACHE_MAX = 1 << 16

    def __init__(self, storage, config):
        super().__init__(storage, config)
        # address object -> interned text, persistent across batches so a
        # hot IP is stringified and hashed once per processor lifetime,
        # and the text object is the same one FillUp interned as map key.
        self._ip_text_cache: dict = {}

    def correlate_batch(self, flows: Sequence[FlowRecord]) -> List[CorrelationResult]:
        """Batched steps 4–7: correlate many flows in one storage round-trip.

        Produces the same results and flow-level counters as calling
        :meth:`process` per record, with two batch-level differences:

        * each distinct lookup IP is resolved once per batch and its chain
          shared across the batch's flows, so the chain-walk counters
          (``cname_steps``, ``chains_memoized``) count unique resolutions,
          and a multi-hop chain memoised mid-batch shortens later *batches*
          rather than later flows of the same batch;
        * the exact-TTL store's expiry depends on each flow's own
          timestamp, which makes sharing resolutions unsound — that
          configuration transparently falls back to per-record processing.
        """
        batch = flows if isinstance(flows, list) else list(flows)
        if not batch:
            return []
        if self.config.exact_ttl:
            return [self.process(flow) for flow in batch]

        direction = self.config.direction
        both = direction is FlowDirection.BOTH
        use_src = both or direction is FlowDirection.SOURCE
        now = batch[0].ts

        # Pass 1: validity filter + primary lookup key per flow. The str()
        # conversion is cached per distinct address object (persistently,
        # across batches) and the text is interned.
        primaries: List[Optional[str]] = [None] * len(batch)
        if len(self._ip_text_cache) > self._IP_TEXT_CACHE_MAX:
            self._ip_text_cache.clear()
        str_cache = self._ip_text_cache
        cache_get = str_cache.get
        invalid = 0
        for i, flow in enumerate(batch):
            if flow.bytes_ < 0 or flow.packets < 0:  # is_valid(), inlined
                invalid += 1
                continue
            ip = flow.src_ip if use_src else flow.dst_ip
            text = cache_get(ip)
            if text is None:
                text = intern_string(str(ip))
                str_cache[ip] = text
            primaries[i] = text

        # Pass 2: one batched deepLookUp for the unique IPs, then one
        # chain walk per unique hit. First-appearance order (not a set):
        # chain memoisation makes walk results order-sensitive, and the
        # per-record path resolves in flow order.
        unique = dict.fromkeys(text for text in primaries if text is not None)
        names = self.storage.lookup_ips(unique, now)
        chains: dict = {}
        for text in unique:
            name = names.get(text)
            chains[text] = tuple(self._walk_chain(name, now)) if name else ()

        if both:
            # Destination fallback for flows whose source IP missed.
            fallbacks: List[Optional[str]] = [None] * len(batch)
            fb_unique: dict = {}
            for i, flow in enumerate(batch):
                text = primaries[i]
                if text is None or chains[text]:
                    continue
                dst = str_cache.get(flow.dst_ip)
                if dst is None:
                    dst = intern_string(str(flow.dst_ip))
                    str_cache[flow.dst_ip] = dst
                fallbacks[i] = dst
                if dst not in chains:
                    fb_unique[dst] = None
            fb_names = self.storage.lookup_ips(fb_unique, now)
            for text in fb_unique:
                name = fb_names.get(text)
                chains[text] = tuple(self._walk_chain(name, now)) if name else ()

        # Pass 3: per-flow results and counters, flushed to stats once.
        stats = self.stats
        results: List[CorrelationResult] = []
        append = results.append
        length_counts: dict = {}
        matched = unmatched = bytes_matched = bytes_in = 0
        for i, flow in enumerate(batch):
            bytes_in += flow.bytes_
            text = primaries[i]
            if text is None:
                append(CorrelationResult(flow, (), flow.ts))
                continue
            chain = chains[text]
            if both and not chain and fallbacks[i] is not None:
                chain = chains[fallbacks[i]]
            if chain:
                matched += 1
                bytes_matched += flow.bytes_
                length = len(chain)
                length_counts[length] = length_counts.get(length, 0) + 1
            else:
                unmatched += 1
            append(CorrelationResult(flow, chain, flow.ts))
        stats.flows_in += len(batch)
        stats.bytes_in += bytes_in
        stats.invalid += invalid
        stats.matched += matched
        stats.unmatched += unmatched
        stats.bytes_matched += bytes_matched
        chain_lengths = stats.chain_lengths
        for length, count in length_counts.items():
            chain_lengths[length] = chain_lengths.get(length, 0) + count
        return results


def reference_fill(
    processor: FillUpProcessor, items: Iterable, exact_ttl: bool = False
) -> None:
    """The fill lane's oracle: the FillUp filter, then record storage.

    Every item normalises to records through ``dns_item_records``
    (``filter_message`` for ``(ts, payload)`` tuples). The records then
    store in one ``process_batch`` call or, under exact-TTL, one
    ``process`` plus one ``storage.tick`` each — the A.8 cadence.
    """
    records: List[DnsRecord] = []
    for item in items:
        records.extend(dns_item_records(item, processor))
    if exact_ttl:
        for record in records:
            processor.process(record)
            processor.storage.tick(record.ts)
    else:
        processor.process_batch(records)
