"""End-to-end FlowDNS benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper-mix --seed 7 --seconds 20 --trace 0

Set-up generates the workload's capture from ``--seed`` (cached under
``.bench_cache/``), prints its measured properties and fails if they no
longer give the workload its reason. Then every repetition runs in a
fresh process (``rep.py``): first one untimed verification pass that
checks every output row, then timed repetitions until ``--seconds`` have
passed. ``--trace 0`` reports the end-to-end metrics over the timed
repetitions (times as segment minima, see :func:`segment_minima`);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer table, writing the spans of the last traced repetition to
``.bench_out/``. Metric names and units come from ``BENCHMARK.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``
(flows offered over the measured repetitions), ``failed`` (flows that
produced no output row) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_REPS = 5
MAX_REPS = 40
REP_TIMEOUT_S = 120


def load_metric_units() -> tuple:
    """``(end_to_end, per_layer)`` as ordered ``{name: unit}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


#: Per-layer values that are times; on ``live-paced`` the table reports
#: their median over the traced repetitions.
_TIMED_LAYER_KEYS = ("busy_s", "wait_s", "sink_s", "late_ms", "self_sum_s", "wall_s")

#: Per-layer busy-time metrics and the span layer each sums.
BUSY_LAYERS = {
    "replay.busy_s": "replay",
    "netflow.busy_s": "netflow",
    "dns.busy_s": "dns",
    "storage.busy_s": "storage",
    "lookup.busy_s": "lookup",
    "writer.format_busy_s": "writer",
    "writer.sink_s": "sink",
    "ingest.busy_s": "ingest",
}

#: Busy times of the layers each kind of workload runs through; each
#: must be above 0 in every traced repetition.
_REPLAY_BUSY = [name for name in BUSY_LAYERS if name != "ingest.busy_s"]
_LIVE_BUSY = [name for name in BUSY_LAYERS if name != "replay.busy_s"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="End-to-end FlowDNS benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def run_rep(workload: str, seed: int, cache: str, mode: str, k: int,
            spans_out=None) -> dict:
    """Run repetition ``k`` in a fresh process; returns its JSON result.

    Output speed depends on where the process's string hashes put keys
    in the program's dicts, by ~±15% between processes, so repetition
    ``k`` of every run uses ``PYTHONHASHSEED=k``: every run's minima and
    medians are taken over the same hash layouts. The two CPUs of the 2-core host
    it was tuned on also differ in speed, so repetitions alternate
    between the CPUs instead of landing where the scheduler puts them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[k % len(cpus)]
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--cache", cache, "--mode", mode,
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        env=dict(os.environ, PYTHONHASHSEED=str(k)),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} repetition of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no program sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from captures import (
        WORKLOADS,
        WorkloadDrift,
        check_properties,
        describe,
        ensure_capture,
        load_manifest,
    )

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = load_metric_units()

    # Set-up: capture (cached per seed and params), properties, checks.
    cache = ensure_capture(ROOT, workload, args.seed)
    manifest = load_manifest(cache)
    print(describe(workload, manifest), flush=True)
    try:
        check_properties(workload, manifest)
    except WorkloadDrift as exc:
        log(str(exc))
        return 1

    verify = run_rep(args.workload, args.seed, cache, "verify", 0)
    problems = [f"verify: {p}" for p in verify["problems"]]
    log(f"verify: rows={verify['rows']} crc32={verify['crc32']:08x} "
        f"problems={len(verify['problems'])}")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    reps, traced = [], []
    deadline = time.monotonic() + args.seconds
    while len(reps) < MAX_REPS and (len(reps) < MIN_REPS or time.monotonic() < deadline):
        k = len(reps) + 1
        reps.append(run_rep(args.workload, args.seed, cache, "timed", k))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, cache, "traced", k,
                                  spans_out=stem + ".spans.csv"))
        for rep in (reps[-1], traced[-1]) if args.trace else (reps[-1],):
            latency = (f" p50={rep['latency_p50_ms']:.1f}ms p99={rep['latency_p99_ms']:.1f}ms"
                       if workload.live else "")
            log(f"{rep['mode']} rep {len(reps)}: wall={rep['wall_s']:.3f}s "
                f"flows/s={rep['flows_per_s']:.0f} setup={rep['setup_s']:.3f}s "
                f"rss={rep['peak_rss_mb']:.1f}MiB{latency}")
            problems += [f"{rep['mode']}: {p}" for p in rep["problems"]]
    measured = traced if args.trace else reps
    attempted = sum(r["offered"] for r in measured)
    failed = sum(r["offered"] - r["rows"] for r in measured)

    print(f"workload={args.workload} seed={args.seed} repetitions={len(measured)} "
          f"verified_crc32={verify['crc32']:08x}")
    if args.trace:
        units = per_layer_units
        metrics = layer_metrics(reps, traced, units, workload.live, problems)
        problems += layer_checks(traced, manifest, workload.live)
        with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": metrics}, handle, indent=1)
    else:
        units = end_to_end_units
        metrics = end_to_end_metrics(reps, manifest["flows"], workload.live, problems)
        if workload.live:
            print(f"latency (no bound; see README): p50="
                  f"{median([r['latency_p50_ms'] for r in reps]):.3f} ms p99="
                  f"{median([r['latency_p99_ms'] for r in reps]):.3f} ms over "
                  f"{reps[-1]['latency_samples']} flows per repetition")
            late = [r["sender"]["late_p99_ms"] for r in reps]
            print(f"sender lateness p99 (median over repetitions): {median(late):.3f} ms")
    for name, value in metrics.items():
        print(f"  {name:<26s} {value:>16.6f} {units[name]}")
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def segment_minima(reps, key: str, problems) -> float:
    """Sum over progress segments of the fastest repetition's time for it.

    Every repetition records the same progress marks (see ``rep.py``), so
    segment ``j`` is the same work in each. The host switches between a
    fast and a much slower speed every few seconds (another tenant on
    the CPU), so a whole repetition's time is a mix of the two; per
    segment, the minimum over repetitions keeps the fast speed and drops
    the interference.
    """
    lengths = {len(r[key]) for r in reps}
    if len(lengths) != 1:
        problems.append(f"repetitions recorded different numbers of {key}: {sorted(lengths)}")
        return median([sum(r[key]) for r in reps])
    return sum(min(column) for column in zip(*(r[key] for r in reps)))


def end_to_end_metrics(reps, flows: int, live: bool, problems) -> dict:
    """The end-to-end table of the timed repetitions.

    On ``live-paced`` the wall time follows the sender's fixed schedule,
    so ``flows_per_s`` there is the median delivered rate, which falls
    only when the engine cannot keep up; ``cpu_us_per_flow``, the
    engine's CPU time in its fastest repetition, is what the engine's
    own speed moves.
    """
    if live:
        flows_per_s = median([r["flows_per_s"] for r in reps])
        # Arrival timing shapes the batches, so segments of different
        # repetitions are not the same work: take the fastest whole one.
        cpu_s = min(sum(r["cpu_segments"]) for r in reps)
    else:
        flows_per_s = flows / segment_minima(reps, "wall_segments", problems)
        cpu_s = segment_minima(reps, "cpu_segments", problems)
    return {
        "flows_per_s": flows_per_s,
        "cpu_us_per_flow": 1e6 * cpu_s / flows,
        # Best of the repetitions: set-up is shorter than the host's slow
        # phases, so some repetitions always fall in a fast one.
        "setup_s": min(r["setup_s"] for r in reps),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "match_rate": median([r["match_rate"] for r in reps]),
        "correlation_rate": median([r["correlation_rate"] for r in reps]),
        "delivered_ratio": median([r["rows"] / r["offered"] for r in reps]),
    }


def layer_metrics(untraced, traced, units, live: bool, problems) -> dict:
    """The per-layer table.

    Counts come from the last traced repetition. On the replay workloads
    every repetition makes the same calls in the same order, so times
    use the estimator of ``flows_per_s``: a layer's busy time is the sum,
    over runs of consecutive calls, of the fastest repetition's self time
    for that run; the untraced and traced wall times are the segment
    minima of their repetitions. On ``live-paced`` arrival timing shapes
    the batches, so times are medians over the repetitions.
    """
    last = traced[-1]["layers"]
    metrics = {name: last[name] for name in units if name in last}
    if live:
        for name in last:
            if name in units and name.endswith(_TIMED_LAYER_KEYS):
                metrics[name] = median([r["layers"][name] for r in traced])
        # Latency is end to end, from the untraced repetitions, and too
        # noisy on a shared host to carry a bound (see README).
        for name in ("latency_p50_ms", "latency_p99_ms", "latency_samples"):
            metrics[name] = median([r[name] for r in untraced])
        untraced_wall = median([r["wall_s"] for r in untraced])
    else:
        for name, layer in BUSY_LAYERS.items():
            chunks = [r["layers"]["self_chunks"].get(layer, [0.0]) for r in traced]
            metrics[name] = sum(min(column) for column in zip(*chunks))
        metrics["self_sum_s"] = sum(metrics[name] for name in BUSY_LAYERS)
        metrics["wall_s"] = segment_minima(traced, "wall_segments", problems)
        for name in ("latency_p50_ms", "latency_p99_ms", "latency_samples"):
            metrics[name] = 0
        untraced_wall = segment_minima(untraced, "wall_segments", problems)
        metrics["queue.wait_s"] = median([r["layers"]["queue.wait_s"] for r in traced])
    metrics["untraced_wall_s"] = untraced_wall
    metrics["trace_overhead_s"] = metrics["wall_s"] - untraced_wall
    metrics["orchestration_s"] = untraced_wall - metrics["self_sum_s"]
    return {name: metrics[name] for name in units}


def layer_checks(traced, manifest, live: bool) -> list:
    """The instrument's own gate: every span present, none counted twice.

    Each traced repetition's layer counts must equal the capture's (a
    layer wrapper that is missing or applied twice changes them), and
    every layer the workload runs through must show busy time.
    """
    flows = manifest["flows"]
    expected = {
        "netflow.datagrams": manifest["flow_datagrams"],
        "netflow.flows": flows,
        "lookup.flows": flows,
        "writer.rows": flows,
        "dns.messages": manifest["dns_messages"],
    }
    if not live:
        expected["replay.frames"] = manifest["flow_datagrams"] + manifest["dns_messages"]
    problems = []
    for i, rep in enumerate(traced):
        layers = rep["layers"]
        for name, want in expected.items():
            if layers[name] != want:
                problems.append(f"traced rep {i}: {name}={layers[name]}, capture has {want}")
        for name in _LIVE_BUSY if live else _REPLAY_BUSY:
            if not layers[name] > 0:
                problems.append(f"traced rep {i}: {name}={layers[name]}, layer not traced")
    return problems


if __name__ == "__main__":
    sys.exit(main())
