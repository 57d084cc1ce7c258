"""DnsStorage: one facade over the rotating store and the exact-TTL store.

The FillUp and LookUp workers don't care which expiry policy is in force;
they fill and query "the internal shared storage" (Section 3.1). This
adapter owns the IP-NAME and NAME-CNAME banks for whichever policy the
config selects, so the workers and both engines share one code path and
the Appendix-A.8 exact-TTL experiment swaps in without touching them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.config import FlowDNSConfig
from repro.core.labeler import ip_label, name_label
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.storage.exact_ttl import ExactTtlStore
from repro.storage.rotating import StoreBank

#: The raw wire value the columnar rtype column stores for CNAME rows.
_CNAME_TYPE = int(RRType.CNAME)


class DnsStorage:
    """The internal shared storage both worker kinds touch."""

    def __init__(self, config: FlowDNSConfig):
        self.config = config
        splits = config.effective_num_split
        if config.exact_ttl:
            self._ip_exact = ExactTtlStore(
                num_splits=splits,
                shard_count=config.map_shard_count,
                sweep_interval=config.exact_ttl_sweep_interval,
                max_entries=config.max_entries_per_map,
            )
            self._cname_exact = ExactTtlStore(
                num_splits=splits,
                shard_count=config.map_shard_count,
                sweep_interval=config.exact_ttl_sweep_interval,
                max_entries=config.max_entries_per_map,
            )
            self._ip_bank = None
            self._cname_bank = None
        else:
            self._ip_bank = StoreBank(
                clear_up_interval=config.a_clear_up_interval,
                num_splits=splits,
                shard_count=config.map_shard_count,
                rotation_enabled=config.rotation_enabled,
                clear_up_enabled=config.clear_up_enabled,
                long_enabled=config.long_enabled,
                max_entries=config.max_entries_per_map,
            )
            self._cname_bank = StoreBank(
                clear_up_interval=config.c_clear_up_interval,
                num_splits=splits,
                shard_count=config.map_shard_count,
                rotation_enabled=config.rotation_enabled,
                clear_up_enabled=config.clear_up_enabled,
                long_enabled=config.long_enabled,
                max_entries=config.max_entries_per_map,
            )
            self._ip_exact = None
            self._cname_exact = None

    # --- fill side -----------------------------------------------------------

    def add_record(self, record: DnsRecord) -> None:
        """Insert one DNS stream record (Algorithm 1's body)."""
        if record.is_address:
            label = ip_label(record.answer)
            if self._ip_exact is not None:
                self._ip_exact.put(label, record.answer, record.query, record.ttl, record.ts)
            else:
                self._ip_bank.put(label, record.answer, record.query, record.ttl, record.ts)
        elif record.is_cname:
            label = name_label(record.answer)
            if self._cname_exact is not None:
                self._cname_exact.put(label, record.answer, record.query, record.ttl, record.ts)
            else:
                self._cname_bank.put(label, record.answer, record.query, record.ttl, record.ts)
        # Other record types were filtered before the FillUp queue.

    def add_many_columns(self, batch) -> None:
        """Batched Algorithm-1 insert straight from DnsBatch columns.

        Every batched fill lands here. For the rotating store this costs
        one rotation check per bank and one lock acquisition per touched
        map shard for the whole batch; the exact-TTL store batches the
        same way (its expiry sweeps are timestamp-driven through
        :meth:`tick`, never by puts). Labels come from the cached FNV
        hashers, and because the decoder interned every name and IP
        text, the label caches and map-key hashing share objects with
        :meth:`add_record`.
        """
        names = batch.name
        rtypes = batch.rtype
        ttls = batch.ttl
        answers = batch.rdata_text
        stamps = batch.ts
        cname_type = _CNAME_TYPE
        ip_entries = []
        cname_entries = []
        for i in range(len(names)):
            answer = answers[i]
            if rtypes[i] == cname_type:
                cname_entries.append(
                    (name_label(answer), answer, names[i], ttls[i], stamps[i])
                )
            else:
                ip_entries.append(
                    (ip_label(answer), answer, names[i], ttls[i], stamps[i])
                )
        if self._ip_exact is not None:
            if ip_entries:
                self._ip_exact.put_many(ip_entries)
            if cname_entries:
                self._cname_exact.put_many(cname_entries)
            return
        if ip_entries:
            self._ip_bank.put_many(ip_entries)
        if cname_entries:
            self._cname_bank.put_many(cname_entries)

    # --- lookup side ----------------------------------------------------------

    def lookup_ips(self, ip_texts: Iterable[str], now: float) -> Dict[str, str]:
        """Batched first stage of Algorithm 2 over unique IPs.

        Returns ``{ip: queried name}`` for the hits; missing IPs are
        absent. One lock acquisition per map shard per tier instead of one
        per IP.
        """
        if self._ip_exact is not None:
            out: Dict[str, str] = {}
            for ip_text in ip_texts:
                name = self.lookup_ip(ip_text, now)
                if name is not None:
                    out[ip_text] = name
            return out
        return self._ip_bank.deep_lookup_many(
            (ip_label(ip_text), ip_text) for ip_text in ip_texts
        )

    def lookup_ip(self, ip_text: str, now: float) -> Optional[str]:
        """IP → queried name (first stage of Algorithm 2)."""
        label = ip_label(ip_text)
        if self._ip_exact is not None:
            return self._ip_exact.lookup(label, ip_text, now)
        value, _tier = self._ip_bank.deep_lookup(label, ip_text)
        return value

    def lookup_cname(self, name: str, now: float) -> Optional[str]:
        """Name → the name that aliased to it (one CNAME chain step)."""
        label = name_label(name)
        if self._cname_exact is not None:
            return self._cname_exact.lookup(label, name, now)
        value, _tier = self._cname_bank.deep_lookup(label, name)
        return value

    def memoize_chain(self, name: str, final: str) -> None:
        """Step 7: cache a multi-hop chain result for later lookups."""
        if self._cname_exact is not None:
            return  # the exact-TTL variant has no safe TTL for a synthetic entry
        self._cname_bank.put_active(name_label(name), name, final)

    # --- maintenance ------------------------------------------------------------

    def tick(self, ts: float) -> int:
        """Time-driven maintenance; returns entries scanned (cost driver).

        For the rotating store this is the record-timestamp clear-up check
        (cheap); for the exact-TTL store it is the periodic full-map sweep
        whose cost Appendix A.8 blames for the meltdown.
        """
        if self._ip_exact is not None:
            scanned = self._ip_exact.maybe_sweep(ts)
            scanned += self._cname_exact.maybe_sweep(ts)
            return scanned
        self._ip_bank.maybe_clear_up(ts)
        self._cname_bank.maybe_clear_up(ts)
        return 0

    # --- accounting ---------------------------------------------------------------

    def total_entries(self) -> int:
        if self._ip_exact is not None:
            return self._ip_exact.total_entries() + self._cname_exact.total_entries()
        return self._ip_bank.total_entries() + self._cname_bank.total_entries()

    def entry_counts(self) -> Dict[str, Dict[str, int]]:
        if self._ip_exact is not None:
            return {
                "ip_name": self._ip_exact.entry_counts(),
                "name_cname": self._cname_exact.entry_counts(),
            }
        return {
            "ip_name": self._ip_bank.entry_counts(),
            "name_cname": self._cname_bank.entry_counts(),
        }

    def contended_acquisitions(self) -> int:
        if self._ip_exact is not None:
            return (
                self._ip_exact.contended_acquisitions()
                + self._cname_exact.contended_acquisitions()
            )
        return (
            self._ip_bank.contended_acquisitions()
            + self._cname_bank.contended_acquisitions()
        )

    def evictions(self) -> int:
        """Entries dropped by the max_entries memory bound, both banks."""
        if self._ip_exact is not None:
            return self._ip_exact.stats.evictions + self._cname_exact.stats.evictions
        return self._ip_bank.stats.evictions + self._cname_bank.stats.evictions

    def overwrites(self) -> int:
        """IP-key overwrites (accuracy-relevant events; 0 for exact-TTL)."""
        if self._ip_bank is not None:
            return self._ip_bank.stats.overwrites
        return 0

    @property
    def ip_bank(self) -> Optional[StoreBank]:
        return self._ip_bank

    @property
    def cname_bank(self) -> Optional[StoreBank]:
        return self._cname_bank
