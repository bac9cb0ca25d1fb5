"""E17: worker pool — rendezvous routing vs blind round-robin, plus a kill.

The :class:`~repro.serving.pool.AnnotationPool` dispatcher puts N annotation
processes, each with its own in-memory
:class:`~repro.serving.profile_store.ProfileStore`, behind one admission
layer and routes each table by rendezvous hashing on its smallest column
content hash.  This experiment pins the three properties that make the pool
deployable:

* **affinity** — on a repeat-heavy tenant mix (the paper's serving shape:
  the same customer tables re-annotated many times) the workers' store
  misses, summed over the pool, equal the misses of one process on the same
  mix: each column's derived state is computed once across the pool.  The
  blind round-robin count is reported beside it;
* **parity** — pool predictions are bit-identical to the serial path, for
  rendezvous routing, for the blind round-robin baseline, and across a
  worker death;
* **supervision** — a SIGKILLed worker's in-flight requests are re-dispatched
  to its replacement with zero lost requests.

Wall-clock (rendezvous vs round-robin columns/s) is reported always and
*gated* only when ≥4 usable CPUs are present: on a 1- or 2-CPU machine the
two configurations are scheduling noise (canonical caveat in
docs/SERVING.md).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path

from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.serving import AnnotationPool, PoolSpec, ProfileStore, available_workers
from repro.serving.pool import _rendezvous_slot

#: Machine-readable E17 results, committed at the repo root alongside the
#: other benchmark artifacts.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_pool_routing.json"

#: Repeat-heavy mix: a small set of customer tables annotated over and over —
#: round r of table t re-requests the exact bytes of round r-1, so warmth is
#: real (the LRU namespace is hot) rather than incidental.
POOL_TABLES = 8
ROUNDS = 12
POOL_WORKERS = 2
#: Heartbeat period of the measured legs: the workers' store counters ride
#: back on heartbeat pongs.
HEARTBEAT_SECONDS = 0.05


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


def _comparable(predictions):
    """Prediction content without wall-clock timings (bit-exact floats)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


async def _worker_store_misses(pool: AnnotationPool, timeout: float = 10.0) -> int:
    """Store misses summed over the pool's workers, read from pongs that
    arrive after every worker's last result (frames arrive in order)."""
    for worker in pool._workers:
        worker.last_pong = None
    deadline = time.monotonic() + timeout
    while any(w.last_pong is None for w in pool._workers if not w.retired):
        assert time.monotonic() < deadline, "workers stopped answering heartbeats"
        await asyncio.sleep(HEARTBEAT_SECONDS)
    per_worker = pool.summary()["pool"]["per_worker"]
    return sum(info["store"]["misses"] for info in per_worker.values())


def test_pool_routing(benchmark, sigmatyper, record_result):
    tables = GitTablesGenerator(
        GitTablesConfig(num_tables=POOL_TABLES, seed=424242)
    ).generate_corpus().tables
    num_columns = sum(table.num_columns for table in tables)

    # Warm the model-level caches once so every configuration faces the same
    # model state; per-column caches stay cold per configuration.
    sigmatyper.annotate_corpus(_fresh(tables))
    reference = _comparable([sigmatyper.annotate(t) for t in _fresh(tables)])

    # Each round visits the tables rotated by one position, so the arrival
    # order never lines up with the worker count: a blind round-robin cannot
    # stay accidentally sticky, while rendezvous routing is order-insensitive.
    mix = []
    expected = []
    for offset in range(ROUNDS):
        shift = offset % len(tables)
        mix.extend(tables[shift:] + tables[:shift])
        expected.extend(reference[shift:] + reference[:shift])

    # The affinity yardstick: one process with one store on the same mix
    # computes each distinct column's derived state exactly once.
    single_store = ProfileStore()
    with single_store.activated():
        for table in mix:
            sigmatyper.annotate(table.copy())
    single_process_misses = single_store.misses

    async def run_leg(routing: str):
        spec = PoolSpec(
            workers=POOL_WORKERS, routing=routing, heartbeat_interval=HEARTBEAT_SECONDS
        )
        async with AnnotationPool(sigmatyper, spec) as pool:
            started = time.perf_counter()
            results = []
            for table in mix:
                results.append(await pool.annotate(table.copy()))
            elapsed = time.perf_counter() - started
            misses = await _worker_store_misses(pool)
            stats = pool.stats
        assert _comparable(results) == expected, (
            f"pool routing={routing} diverged from the serial path"
        )
        return elapsed, stats, misses

    rows = []

    def add_row(label, elapsed, stats, misses, columns):
        rows.append(
            {
                "configuration": label,
                "seconds_total": round(elapsed, 3),
                "columns_per_second": round(columns / elapsed, 1),
                "worker_store_misses": misses,
                "escapes": stats.escapes,
                "redispatches": stats.redispatches,
                "worker_deaths": stats.worker_deaths,
            }
        )

    # ---- leg 1: rendezvous routing (the default dispatcher) -----------------
    rdv_elapsed, rdv_stats, rdv_misses = asyncio.run(run_leg("rendezvous"))
    add_row(
        f"pool:{POOL_WORKERS} (rendezvous)", rdv_elapsed, rdv_stats, rdv_misses,
        num_columns * ROUNDS,
    )
    assert rdv_misses == single_process_misses, (
        f"rendezvous leg computed {rdv_misses} column states across the pool; "
        f"one process computes {single_process_misses}"
    )
    assert rdv_stats.errors_total == 0

    # ---- leg 2: blind round-robin baseline ----------------------------------
    rr_elapsed, rr_stats, rr_misses = asyncio.run(run_leg("round-robin"))
    add_row(
        f"pool:{POOL_WORKERS} (round-robin)", rr_elapsed, rr_stats, rr_misses,
        num_columns * ROUNDS,
    )
    assert rr_stats.errors_total == 0

    speedup = rr_elapsed / rdv_elapsed
    usable_cpus = available_workers()
    speedup_gate_armed = usable_cpus >= 4
    if speedup_gate_armed:
        assert speedup >= 1.0, (
            f"rendezvous routing slower than round-robin on {usable_cpus} CPUs "
            f"(speedup {speedup:.2f})"
        )

    # ---- leg 3: the supervision drill (SIGKILL mid-flight) ------------------
    async def kill_drill():
        spec = PoolSpec(workers=POOL_WORKERS, heartbeat_interval=0.05)
        async with AnnotationPool(sigmatyper, spec) as pool:
            batch = _fresh(tables) + _fresh(tables)
            futures = [asyncio.ensure_future(pool.annotate(t)) for t in batch]
            await asyncio.sleep(0.01)  # requests are now dispatched
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            started = time.perf_counter()
            results = await asyncio.gather(*futures)
            elapsed = time.perf_counter() - started
            return results, elapsed, pool.stats

    drill_results, drill_elapsed, drill_stats = asyncio.run(kill_drill())
    assert _comparable(drill_results) == reference * 2, (
        "predictions diverged across the worker death"
    )
    lost_requests = (2 * len(tables)) - drill_stats.completed_total
    assert lost_requests == 0, drill_stats.to_dict()
    assert drill_stats.worker_deaths >= 1
    assert drill_stats.restarts >= 1
    assert drill_stats.redispatches >= 1
    # The drill's worker stores die with the SIGKILL, so no miss count.
    add_row(
        f"pool:{POOL_WORKERS} (SIGKILL drill)", drill_elapsed, drill_stats, None,
        num_columns * 2,
    )

    record_result(
        "E17_pool_routing",
        format_table(
            rows,
            title=(
                f"E17 — pool routing over {len(tables)} tables / {num_columns} "
                f"columns × {ROUNDS} rounds, {POOL_WORKERS} workers, "
                f"{usable_cpus} usable CPUs (worker-store misses: rendezvous "
                f"{rdv_misses} = one process {single_process_misses}, round-robin "
                f"{rr_misses}; kill drill: {drill_stats.redispatches} "
                f"re-dispatched, 0 lost, parity held)"
            ),
        ),
    )
    BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E17_pool_routing",
                "usable_cpus": usable_cpus,
                "num_tables": len(tables),
                "num_columns": num_columns,
                "rounds": ROUNDS,
                "workers": POOL_WORKERS,
                "configurations": rows,
                "worker_store_misses": {
                    "single_process": single_process_misses,
                    "rendezvous": rdv_misses,
                    "round_robin": rr_misses,
                },
                "rendezvous_vs_round_robin_speedup": round(speedup, 3),
                "speedup_gate_armed": speedup_gate_armed,
                "parity": "bit-identical to serial on every leg",
                "kill_drill": {
                    "worker_deaths": drill_stats.worker_deaths,
                    "restarts": drill_stats.restarts,
                    "redispatches": drill_stats.redispatches,
                    "lost_requests": lost_requests,
                    "errors_total": drill_stats.errors_total,
                },
                "rendezvous_stats": rdv_stats.to_dict(),
                "round_robin_stats": rr_stats.to_dict(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Representative operation for pytest-benchmark: the per-request routing
    # decision — rendezvous hashing a table's smallest column hash over the
    # worker slots (the pure-CPU cost the dispatcher adds to every request).
    hashes = [column.content_hash() for column in tables[0].columns]
    slots = list(range(POOL_WORKERS))

    def route_once():
        return _rendezvous_slot(min(hashes), slots)

    benchmark(route_once)
