"""E17: worker pool — rendezvous affinity, parity, and a kill drill.

The :class:`~repro.serving.pool.AnnotationPool` dispatcher puts N annotation
processes behind one admission layer and routes each table by rendezvous
hashing on its smallest column content hash.  This experiment pins the three
properties that make the pool deployable:

* **affinity** — on a repeat-heavy tenant mix (the paper's serving shape:
  the same customer tables re-annotated many times) every worker serves
  exactly the requests ``_rendezvous_slot`` predicts for the mix, read from
  the workers' own heartbeat pongs, and no request escapes its slot;
* **parity** — pool predictions are bit-identical to the serial path, on the
  routed leg and across a worker death;
* **supervision** — a SIGKILLed worker's in-flight requests are re-dispatched
  to its replacement with zero lost requests.

Wall-clock (columns/s) is reported, not gated: on a 1- or 2-CPU machine it
is scheduling noise (canonical caveat in docs/SERVING.md).
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
from repro.serving import AnnotationPool, PoolSpec, available_workers
from repro.serving.pool import _rendezvous_slot

#: Machine-readable E17 results, committed at the repo root alongside the
#: other benchmark artifacts.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_pool_routing.json"

#: Repeat-heavy mix: a small set of customer tables annotated over and over,
#: each round re-requesting the exact bytes of the previous one.
POOL_TABLES = 8
ROUNDS = 12
POOL_WORKERS = 2
#: Heartbeat period of the routed leg: the workers' service counters ride
#: back on heartbeat pongs.
HEARTBEAT_SECONDS = 0.05


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


def _comparable(predictions):
    """Prediction content without wall-clock timings (bit-exact floats)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


async def _worker_requests(pool: AnnotationPool, timeout: float = 10.0) -> list[int]:
    """Requests each worker slot served, read from pongs that arrive after
    every worker's last result (frames arrive in order)."""
    for worker in pool._workers:
        worker.last_pong = None
    deadline = time.monotonic() + timeout
    while any(w.last_pong is None for w in pool._workers if not w.retired):
        assert time.monotonic() < deadline, "workers stopped answering heartbeats"
        await asyncio.sleep(HEARTBEAT_SECONDS)
    per_worker = pool.summary()["pool"]["per_worker"]
    return [per_worker[slot]["service"]["requests_total"] for slot in sorted(per_worker)]


def test_pool_routing(benchmark, sigmatyper, record_result):
    tables = GitTablesGenerator(
        GitTablesConfig(num_tables=POOL_TABLES, seed=424242)
    ).generate_corpus().tables
    num_columns = sum(table.num_columns for table in tables)

    # Warm the model-level caches once so both legs face the same model
    # state; per-column caches stay cold because every request is a copy.
    sigmatyper.annotate_corpus(_fresh(tables))
    reference = _comparable([sigmatyper.annotate(t) for t in _fresh(tables)])
    mix = tables * ROUNDS
    expected = reference * ROUNDS

    # The affinity prediction: the slot rendezvous hashing picks for each
    # table's smallest column content hash, counted over the mix.
    slots = list(range(POOL_WORKERS))
    predicted = [0] * POOL_WORKERS
    for table in mix:
        key = min(column.content_hash() for column in table.columns)
        predicted[_rendezvous_slot(key, slots)] += 1

    rows = []

    def add_row(label, elapsed, stats, columns):
        rows.append(
            {
                "configuration": label,
                "seconds_total": round(elapsed, 3),
                "columns_per_second": round(columns / elapsed, 1),
                "escapes": stats.escapes,
                "redispatches": stats.redispatches,
                "worker_deaths": stats.worker_deaths,
            }
        )

    # ---- leg 1: rendezvous routing over the repeat-heavy mix ----------------
    async def routed_leg():
        spec = PoolSpec(workers=POOL_WORKERS, heartbeat_interval=HEARTBEAT_SECONDS)
        async with AnnotationPool(sigmatyper, spec) as pool:
            started = time.perf_counter()
            results = []
            for table in mix:
                results.append(await pool.annotate(table.copy()))
            elapsed = time.perf_counter() - started
            observed = await _worker_requests(pool)
            return results, elapsed, observed, pool.stats

    results, elapsed, observed, stats = asyncio.run(routed_leg())
    assert _comparable(results) == expected, "pool routing diverged from the serial path"
    assert stats.errors_total == 0
    assert stats.escapes == 0, stats.to_dict()
    assert observed == predicted, (
        f"workers served {observed} requests; rendezvous predicts {predicted}"
    )
    add_row(f"pool:{POOL_WORKERS} (rendezvous)", elapsed, stats, num_columns * ROUNDS)

    # ---- leg 2: the supervision drill (SIGKILL mid-flight) ------------------
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
    add_row(f"pool:{POOL_WORKERS} (SIGKILL drill)", drill_elapsed, drill_stats, num_columns * 2)

    usable_cpus = available_workers()
    record_result(
        "E17_pool_routing",
        format_table(
            rows,
            title=(
                f"E17 — pool routing over {len(tables)} tables / {num_columns} "
                f"columns × {ROUNDS} rounds, {POOL_WORKERS} workers, "
                f"{usable_cpus} usable CPUs (requests per worker: {observed} = "
                f"rendezvous prediction {predicted}, {stats.escapes} escapes; "
                f"kill drill: {drill_stats.redispatches} re-dispatched, 0 lost, "
                f"parity held)"
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
                "requests_per_worker": {"predicted": predicted, "observed": observed},
                "escapes": stats.escapes,
                "parity": "bit-identical to serial on every leg",
                "kill_drill": {
                    "worker_deaths": drill_stats.worker_deaths,
                    "restarts": drill_stats.restarts,
                    "redispatches": drill_stats.redispatches,
                    "lost_requests": lost_requests,
                    "errors_total": drill_stats.errors_total,
                },
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

    def route_once():
        return _rendezvous_slot(min(hashes), slots)

    benchmark(route_once)
