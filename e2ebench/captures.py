"""Workload table and the seeded capture cache of the end-to-end benchmark.

Every workload is a :class:`repro.workloads.generator.GeneratorParams`
built from the benchmark's ``--seed``; the program under test only ever
sees the generated capture bytes. A capture is generated once per
``(seed, params)`` into ``.bench_cache/`` at the checkout root and reused
by later runs with the same seed. Next to it the cache keeps a manifest
of the capture's measured properties and a reference DNS map, both
derived from the capture with the public decoders (never from the
engine), which the repetitions check the engine's output against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict, List, Set

from repro.dns.rr import RRType
from repro.dns.wire import decode_message
from repro.netflow.collector import FlowCollector
from repro.replay.capture import LANE_FLOW, read_capture
from repro.util.errors import ParseError
from repro.util.interning import INTERN_TABLE_MAX
from repro.workloads.generator import GeneratorParams, WorkloadGenerator

#: Mean offered flow rate of ``live-paced``, fixed so that the schedule
#: does not depend on the machine the benchmark runs on. On a 2-core x86
#: VM the engine keeps up using 0.6 to 0.7 of a CPU; bursts queue in the
#: socket buffers and drain in larger, cheaper batches, without loss.
LIVE_OFFERED_FLOWS_PER_S = 50_000.0


def paper_mix_params(seed: int) -> GeneratorParams:
    """The paper's ~13 flow records per DNS record, 1M-client population.

    Nine resolutions in ten go through resolvers FlowDNS does not see
    (``public_resolver_fraction``): their flows still happen, from
    addresses other clients' visible answers announced. That is what
    lifts the flow:DNS-record ratio to the paper's ~13 while each
    resolution still brings a fresh client, so the distinct client
    addresses (~77K) exceed the program's 64K-entry caches.
    """
    return GeneratorParams(
        seed=seed,
        clients=1_000_000,
        duration=20.0,
        base_rate=4000.0,
        public_resolver_fraction=0.9,
    )


def dns_heavy_params(seed: int) -> GeneratorParams:
    """The generator's default mix (~1.3 flows per DNS record).

    200K clients at the default per-client rate for 10 s: ~40K
    resolutions, so the ~36K distinct clients fit inside the 64K caches.
    """
    return GeneratorParams(seed=seed, clients=200_000, duration=10.0)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    params: Callable[[int], GeneratorParams]
    live: bool
    #: Inclusive bounds on the capture's flow:DNS-record ratio.
    ratio: tuple
    #: True when the distinct client addresses must exceed the program's
    #: intern/ip-text/label caches, False when they must fit inside.
    clients_exceed_caches: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-mix", paper_mix_params, False, (10.0, 17.0), True),
        Workload("dns-heavy", dns_heavy_params, False, (1.0, 1.8), False),
        Workload("live-paced", paper_mix_params, True, (10.0, 17.0), True),
    )
}


class WorkloadDrift(RuntimeError):
    """A generated capture no longer has the property its workload is for."""


def _params_key(params: GeneratorParams) -> str:
    text = json.dumps(dataclasses.asdict(params), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _analyse(path: str) -> tuple:
    """Measure a capture with the public decoders.

    Returns the manifest fields and the reference DNS map: for every
    answer address the names whose A/AAAA record carried it, and for
    every CNAME target the owners that aliased to it. A correlated
    flow's service must be reachable from its source address through
    these relations.
    """
    collector = FlowCollector()
    datagram_flows: List[int] = []
    datagram_ts: List[float] = []
    clients: Set[str] = set()
    dns_messages = dns_records = dns_invalid = 0
    a_owners: Dict[str, Set[str]] = {}
    cname_rev: Dict[str, Set[str]] = {}
    names: Set[str] = set()
    first_ts = None
    address_types = (RRType.A, RRType.AAAA)
    for frame in read_capture(path):
        if first_ts is None or frame.ts < first_ts:
            first_ts = frame.ts
        if frame.lane == LANE_FLOW:
            batch = collector.ingest_columns(frame.payload)
            datagram_flows.append(len(batch))
            datagram_ts.append(frame.ts)
            clients.update(batch.dst_ip_text)
            continue
        dns_messages += 1
        try:
            msg = decode_message(frame.payload)
        except ParseError:
            dns_invalid += 1
            continue
        stored = 0
        if msg.header.qr and int(msg.header.rcode) == 0:
            for rr in msg.answers:
                if rr.rtype in address_types:
                    a_owners.setdefault(str(rr.rdata), set()).add(rr.name)
                elif rr.rtype == RRType.CNAME:
                    cname_rev.setdefault(rr.rdata, set()).add(rr.name)
                    names.add(rr.rdata)
                else:
                    continue
                names.add(rr.name)
                stored += 1
        if stored:
            dns_records += stored
        else:
            dns_invalid += 1
    flows = sum(datagram_flows)
    manifest = {
        "flows": flows,
        "flow_datagrams": len(datagram_flows),
        "flow_decode_errors": collector.stats.malformed + collector.stats.unknown_version,
        "dns_messages": dns_messages,
        "dns_records": dns_records,
        "dns_invalid": dns_invalid,
        "flow_dns_ratio": flows / dns_records if dns_records else float("inf"),
        "distinct_clients": len(clients),
        "distinct_names": len(names),
        "first_ts": first_ts,
        "datagram_flows": datagram_flows,
        "datagram_ts": datagram_ts,
    }
    reference = {
        "a_owners": {ip: sorted(owners) for ip, owners in a_owners.items()},
        "cname_rev": {name: sorted(owners) for name, owners in cname_rev.items()},
    }
    return manifest, reference


def ensure_capture(root: str, workload: Workload, seed: int) -> str:
    """Generate (or reuse) the workload's capture; returns its cache dir.

    The manifest is written last and renamed into place, so a directory
    with a manifest always holds a complete capture and reference map.
    """
    params = workload.params(seed)
    cache = os.path.join(root, ".bench_cache", f"s{seed}-{_params_key(params)}")
    manifest_path = os.path.join(cache, "manifest.json")
    if os.path.exists(manifest_path):
        return cache
    os.makedirs(cache, exist_ok=True)
    capture = os.path.join(cache, "capture.fdc")
    report = WorkloadGenerator(params).write(capture)
    manifest, reference = _analyse(capture)
    manifest["seed"] = seed
    manifest["params"] = dataclasses.asdict(params)
    manifest["generator"] = {
        "flows": report.flows,
        "resolutions": report.resolutions,
        "invisible_resolutions": report.invisible_resolutions,
        "malformed_dns_frames": report.malformed_dns_frames,
    }
    with open(os.path.join(cache, "dnsref.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    tmp = manifest_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    os.replace(tmp, manifest_path)
    return cache


def load_manifest(cache: str) -> dict:
    with open(os.path.join(cache, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


def describe(workload: Workload, manifest: dict) -> str:
    """One line of the capture's measured properties."""
    gen = manifest["generator"]
    return (
        f"capture {workload.name} seed={manifest['seed']}: "
        f"flows={manifest['flows']} datagrams={manifest['flow_datagrams']} "
        f"dns_messages={manifest['dns_messages']} dns_records={manifest['dns_records']} "
        f"flow:dns_record={manifest['flow_dns_ratio']:.2f} "
        f"clients={manifest['distinct_clients']} (caches hold {INTERN_TABLE_MAX}) "
        f"names={manifest['distinct_names']} dns_invalid={manifest['dns_invalid']} "
        f"(generator: resolutions={gen['resolutions']} unseen by FlowDNS="
        f"{gen['invisible_resolutions']} malformed answers={gen['malformed_dns_frames']})"
    )


def check_properties(workload: Workload, manifest: dict) -> None:
    """Raise :class:`WorkloadDrift` when the capture lost its reason."""
    problems = []
    low, high = workload.ratio
    ratio = manifest["flow_dns_ratio"]
    if not low <= ratio <= high:
        problems.append(f"flow:DNS-record ratio {ratio:.2f} outside [{low}, {high}]")
    clients = manifest["distinct_clients"]
    if workload.clients_exceed_caches and clients <= INTERN_TABLE_MAX:
        problems.append(
            f"{clients} distinct clients fit the {INTERN_TABLE_MAX}-entry caches"
        )
    if not workload.clients_exceed_caches and clients > INTERN_TABLE_MAX:
        problems.append(
            f"{clients} distinct clients overflow the {INTERN_TABLE_MAX}-entry caches"
        )
    if manifest["flow_decode_errors"]:
        problems.append(f"{manifest['flow_decode_errors']} flow datagrams fail to decode")
    if manifest["flows"] != manifest["generator"]["flows"]:
        problems.append(
            f"capture decodes to {manifest['flows']} flows, generator wrote "
            f"{manifest['generator']['flows']}"
        )
    if manifest["dns_invalid"] < manifest["generator"]["malformed_dns_frames"]:
        problems.append(
            f"{manifest['dns_invalid']} undecodable DNS frames, fewer than the "
            f"generator's {manifest['generator']['malformed_dns_frames']} malformed answers"
        )
    if problems:
        raise WorkloadDrift(f"workload {workload.name}: " + "; ".join(problems))


def live_speed(manifest: dict) -> float:
    """Capture-time to wall-time speed-up giving the fixed offered rate.

    Measured on the capture: its flows over the time from its first frame
    to its last flow datagram, which includes the generator's tail of
    late flow starts. Sped up by this factor, every seed's flows are
    offered at :data:`LIVE_OFFERED_FLOWS_PER_S` on average.
    """
    span = max(manifest["datagram_ts"]) - manifest["first_ts"]
    return LIVE_OFFERED_FLOWS_PER_S * span / manifest["flows"]
