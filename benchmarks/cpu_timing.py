"""CPU-time measurement for the single-threaded ratio gates.

The columnar-vs-reference gates time two single-threaded code paths over
one corpus and assert on the ratio of their best trials. Three things
keep that ratio steady on a shared box:

* process CPU time, not wall time, so a neighbour that deschedules the
  process does not land in one path's sample;
* a collected-then-paused garbage collector around each timed region, so
  a collection triggered by one path's garbage is never charged to the
  other;
* trials of at least :data:`MIN_TRIAL_SECONDS` of work (a path repeats
  inside one trial until it gets there), so per-call jitter and timer
  granularity shrink against the work measured.

Trials of the two paths alternate, so a machine-wide noise burst hits
adjacent samples of both paths instead of only one side of the ratio.
A shared host also has slow spells of a few seconds that slow the
columnar paths more than the object paths (DNS gate: ~59 against ~29
ms columnar, ~156 against ~104 ms object). Fifteen trials per path
span ~4 s, twice the window seven did, so the best trial of each path
is less likely to come from inside one spell.

Both paths label names and addresses through process-wide bounded LRU
caches (``ip_label``, ``name_label``, ``fnv1a_cached``; 64K entries
each). Late in a full test run those caches are full of earlier tests'
keys, and lookups into the large tables run slower (most likely CPU
cache misses). There the DNS fill gate's columnar side took ~40 ms per
corpus against ~30 ms in a fresh interpreter, and the object side ~115
ms against ~105 ms, so the ratio fell from ~3.5× to ~3.0×. Emptying the
three caches in that same process brought the sides back to ~33 and
~110 ms (2-core box). A gate calls :func:`reset_process_caches` before
its warmup pass, so it measures with warm caches that hold only its own
corpus's keys, whatever ran before it.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, Tuple

from repro.core.labeler import ip_label, name_label
from repro.storage.concurrent_map import fnv1a_cached
from repro.util.interning import clear_intern_tables

#: Least CPU time one trial of one path runs for.
MIN_TRIAL_SECONDS = 0.1


def reset_process_caches() -> None:
    """Empty the process-wide label, shard-hash and intern caches."""
    ip_label.cache_clear()
    name_label.cache_clear()
    fnv1a_cached.cache_clear()
    clear_intern_tables()


def cpu_seconds(fn: Callable[[], object], loops: int = 1) -> float:
    """Process CPU seconds for ``loops`` calls of ``fn``, GC paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(loops):
            fn()
        return time.process_time() - start
    finally:
        gc.enable()


def loops_for(fn: Callable[[], object], min_seconds: float = MIN_TRIAL_SECONDS) -> int:
    """Calls of ``fn`` one trial needs to run for at least ``min_seconds``."""
    once = max(cpu_seconds(fn), 1e-6)
    return max(1, math.ceil(min_seconds / once))


def best_pair(
    reference: Callable[[], object], candidate: Callable[[], object], trials: int = 15
) -> Tuple[float, float]:
    """Best CPU seconds per call of each path over ``trials`` alternating trials."""
    ref_loops = loops_for(reference)
    cand_loops = loops_for(candidate)
    t_ref = t_cand = float("inf")
    for _ in range(trials):
        t_ref = min(t_ref, cpu_seconds(reference, ref_loops) / ref_loops)
        t_cand = min(t_cand, cpu_seconds(candidate, cand_loops) / cand_loops)
    return t_ref, t_cand
