"""E17: worker pool — least-loaded routing, parity, and a kill drill.

The :class:`~repro.serving.pool.AnnotationPool` dispatcher puts N annotation
processes behind one admission layer and sends each request to the live
worker with the fewest requests in flight, ties going to the lowest slot.
This experiment pins the properties that make the pool deployable:

* **routing** — sent one request at a time, every request lands on slot 0
  (an idle pool keeps one worker warm); sent all at once, the requests split
  evenly (per-worker counts within 10% of the burst).  Counts are read from
  the workers' own heartbeat pongs.  Both hold on a repeat-heavy mix (the
  same customer tables re-annotated many times) and on a mix of distinct
  tables with mostly dirty, never-seen headers;
* **parity** — pool predictions are bit-identical to the serial path, on
  every leg and across a worker death;
* **supervision** — a SIGKILLed worker's in-flight requests are
  re-dispatched with zero lost requests.

One in-process :class:`~repro.serving.service.AnnotationService` serves the
same requests beside each routing leg.  Wall-clock (columns/s) is reported
for every run and gated for none: on a 1- or 2-CPU machine it is scheduling
noise (canonical caveat in docs/SERVING.md).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import time
from pathlib import Path

from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.serving import AnnotationPool, AnnotationService, PoolSpec, available_workers
from repro.serving.pool import MSG_POOL_REQUEST, _pack_message

#: Machine-readable E17 results, committed at the repo root alongside the
#: other benchmark artifacts.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_pool_routing.json"

#: Repeat-heavy mix: a small set of customer tables annotated over and over,
#: each round re-requesting the exact bytes of the previous one.
POOL_TABLES = 8
ROUNDS = 12
#: Distinct mix: as many requests, every table different, nine in ten with
#: dirty headers the pretrained matcher has never seen.
DISTINCT_TABLES = POOL_TABLES * ROUNDS
DIRTY_HEADER_PROBABILITY = 0.9
POOL_WORKERS = 2
#: Heartbeat period of the routing legs: the workers' service counters ride
#: back on heartbeat pongs.
HEARTBEAT_SECONDS = 0.05
#: The all-in-flight gate: per-worker counts differ by at most this share
#: of the burst.
BALANCE_TOLERANCE = 0.10


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


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


async def _drive(server, mix, all_in_flight: bool):
    """Send *mix* one request at a time, or all at once; (results, seconds)."""
    started = time.perf_counter()
    if all_in_flight:
        results = await asyncio.gather(*[server.annotate(t) for t in _fresh(mix)])
    else:
        results = [await server.annotate(t) for t in _fresh(mix)]
    return list(results), time.perf_counter() - started


def _pool_leg(typer, mix, all_in_flight: bool):
    """One pool:2 run; (results, seconds, per-worker requests, stats)."""

    async def run():
        spec = PoolSpec(workers=POOL_WORKERS, heartbeat_interval=HEARTBEAT_SECONDS)
        async with AnnotationPool(typer, spec) as pool:
            results, elapsed = await _drive(pool, mix, all_in_flight)
            return results, elapsed, await _worker_requests(pool), pool.stats

    return asyncio.run(run())


def _service_leg(typer, mix, all_in_flight: bool):
    """The same requests through one in-process service; (results, seconds)."""

    async def run():
        async with AnnotationService(typer) as service:
            return await _drive(service, mix, all_in_flight)

    return asyncio.run(run())


def test_pool_routing(benchmark, sigmatyper, record_result, record_json):
    tables = GitTablesGenerator(
        GitTablesConfig(num_tables=POOL_TABLES, seed=424242)
    ).generate_corpus().tables
    distinct = GitTablesGenerator(
        GitTablesConfig(
            num_tables=DISTINCT_TABLES,
            seed=171717,
            dirty_header_probability=DIRTY_HEADER_PROBABILITY,
        )
    ).generate_corpus().tables
    repeat_columns = sum(table.num_columns for table in tables) * ROUNDS
    distinct_columns = sum(table.num_columns for table in distinct)

    # Repeat mix: warm the model-level caches once so every leg faces the
    # same model state; per-column caches stay cold because every request is
    # a copy.
    sigmatyper.annotate_corpus(_fresh(tables))
    repeat_mix = tables * ROUNDS
    repeat_reference = [sigmatyper.annotate(t) for t in _fresh(tables)] * ROUNDS
    # Distinct mix: each run gets its own unpickled copy of the typer, whose
    # header caches have never seen these tables.  The serial reference runs
    # last, so no run inherits its warmth.
    snapshot = pickle.dumps(sigmatyper)

    rows = []
    legs = {}

    def add_row(label, elapsed, columns, observed=None, stats=None):
        rows.append(
            {
                "configuration": label,
                "seconds_total": round(elapsed, 3),
                "columns_per_second": round(columns / elapsed, 1),
                "requests_per_worker": observed if observed is not None else "-",
                "redispatches": stats.redispatches if stats is not None else "-",
                "worker_deaths": stats.worker_deaths if stats is not None else "-",
            }
        )

    runs = []
    for mix_name, mix, columns in (
        ("repeat", repeat_mix, repeat_columns),
        ("distinct", distinct, distinct_columns),
    ):
        for all_in_flight in (False, True):
            shape = "all in flight" if all_in_flight else "one at a time"
            typer = sigmatyper if mix_name == "repeat" else pickle.loads(snapshot)
            results, elapsed, observed, stats = _pool_leg(typer, mix, all_in_flight)
            assert stats.errors_total == 0, stats.to_dict()
            if all_in_flight:
                spread = max(observed) - min(observed)
                assert spread <= BALANCE_TOLERANCE * len(mix), (
                    f"{mix_name} burst split {observed}: spread {spread} exceeds "
                    f"{BALANCE_TOLERANCE:.0%} of {len(mix)}"
                )
            else:
                assert observed[0] == len(mix) and not any(observed[1:]), (
                    f"{mix_name} mix one at a time: workers served {observed}; an idle "
                    "pool must keep every request on slot 0"
                )
            legs[f"{mix_name}, {shape}"] = observed
            add_row(f"pool:{POOL_WORKERS}, {mix_name}, {shape}", elapsed, columns, observed, stats)
            runs.append((mix_name, results))

            typer = sigmatyper if mix_name == "repeat" else pickle.loads(snapshot)
            service_results, service_elapsed = _service_leg(typer, mix, all_in_flight)
            add_row(f"service, {mix_name}, {shape}", service_elapsed, columns)
            runs.append((mix_name, service_results))

    distinct_reference = [pickle.loads(snapshot).annotate(t) for t in _fresh(distinct)]
    references = {"repeat": repeat_reference, "distinct": distinct_reference}
    for mix_name, results in runs:
        assert results == references[mix_name], (
            f"a {mix_name}-mix run diverged from the serial path"
        )

    # ---- the supervision drill (SIGKILL mid-flight) -------------------------
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
    assert drill_results == repeat_reference[: 2 * len(tables)], (
        "predictions diverged across the worker death"
    )
    lost_requests = (2 * len(tables)) - drill_stats.completed_total
    assert lost_requests == 0, drill_stats.to_dict()
    assert drill_stats.worker_deaths >= 1
    assert drill_stats.restarts >= 1
    assert drill_stats.redispatches >= 1
    add_row(
        f"pool:{POOL_WORKERS}, SIGKILL drill",
        drill_elapsed,
        repeat_columns // ROUNDS * 2,
        stats=drill_stats,
    )

    usable_cpus = available_workers()
    record_result(
        "E17_pool_routing",
        format_table(
            rows,
            title=(
                f"E17 — least-loaded pool routing, {POOL_WORKERS} workers, "
                f"{usable_cpus} usable CPUs; repeat mix {len(tables)} tables × {ROUNDS} "
                f"rounds ({repeat_columns} columns), distinct mix {len(distinct)} "
                f"tables ({distinct_columns} columns); requests per worker "
                + "; ".join(f"{leg}: {observed}" for leg, observed in legs.items())
                + f"; kill drill: {drill_stats.redispatches} re-dispatched, 0 lost, "
                "parity held on every run"
            ),
        ),
    )
    record_json(
        BENCH_JSON_PATH,
        {
            "experiment": "E17_pool_routing",
            "usable_cpus": usable_cpus,
            "num_tables": len(tables),
            "rounds": ROUNDS,
            "num_columns": repeat_columns // ROUNDS,
            "distinct_tables": len(distinct),
            "distinct_columns": distinct_columns,
            "workers": POOL_WORKERS,
            "configurations": rows,
            "requests_per_worker": legs,
            "balance_tolerance": BALANCE_TOLERANCE,
            "parity": "bit-identical to serial on every run",
            "kill_drill": {
                "worker_deaths": drill_stats.worker_deaths,
                "restarts": drill_stats.restarts,
                "redispatches": drill_stats.redispatches,
                "lost_requests": lost_requests,
                "errors_total": drill_stats.errors_total,
            },
        },
    )

    # Representative operation for pytest-benchmark: the per-request work the
    # dispatcher adds — pickling and framing one table for a worker (the
    # least-loaded choice itself is a min over the worker slots).
    message = {"id": 1, "table": tables[0], "customer_id": None, "deadline_at": None}

    def frame_once():
        return _pack_message(MSG_POOL_REQUEST, message)

    benchmark(frame_once)
