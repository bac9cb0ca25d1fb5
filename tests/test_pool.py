"""The worker pool, the typed spec layer, and the unified stats.

The acceptance gates pinned here:

* **Spec round-trip** — ``str(ServingSpec.parse(s)) == s`` for every backend
  spec string documented in docs/SERVING.md (scraped from the doc, so the
  table and the parser cannot drift) plus the pool forms.
* **One grammar** — ``BackendSpec.parse`` and ``resolve_backend`` accept and
  reject exactly the same strings.
* **Rendezvous affinity** — on a repeat-heavy tenant mix the workers' store
  misses, summed over the pool, equal one process's misses: each column's
  derived state is computed once across the pool.
* **Parity** — pool predictions bit-identical to calling the typer
  directly, including across a worker death.
* **Supervision drill** — SIGKILL a worker mid-flight: the pool detects the
  death, restarts the slot, re-dispatches the in-flight requests, and no
  request is lost (faultnet-style fault injection, process edition).
* **Clean shutdown** — a pool that served requests shuts down in well under
  a second and every worker exits 0.
* **Stats vocabulary** — every ``summary()`` shares the
  :func:`repro.serving.stats.render_stats` sections.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError, ServingError
from repro.serving import (
    AnnotationFrontend,
    AnnotationPool,
    AnnotationService,
    BackendSpec,
    FrontendSpec,
    PoolSpec,
    ProfileStore,
    ServingSpec,
    StoreSpec,
    TransportSpec,
    resolve_backend,
    resolve_transport,
)
from repro.serving.stats import render_stats

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every spec form the serving layer has ever documented.  The scrape test
#: below proves docs/SERVING.md stays inside this grammar; this literal list
#: keeps the round-trip gate meaningful even if the doc's phrasing changes.
DOCUMENTED_SPECS = [
    "serial",
    "threaded",
    "threaded:4",
    "multiprocess",
    "multiprocess:8",
    "multiprocess:8+shm",
    "multiprocess+pickle",
    "multiprocess:8+tcp://worker-a:7071,worker-b:7071",
    "multiprocess:8+tcp",
    "pool:4",
    "pool:4@multiprocess:2+shm",
]

#: Canonical spec-string shapes as they appear in inline code spans in the
#: serving doc.  Matches full tokens only, so prose words that merely start
#: with a backend name ("serialization") never trip the gate.
_CANONICAL_SPEC = re.compile(
    r"^(?:pool:\d+(?:@\S+)?|(?:serial|threaded|multiprocess)(?:[:+]\S+)?)$"
)


def _comparable(predictions):
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


#: Spec strings the one grammar must reject, whichever entry point reads them.
MALFORMED_SPECS = [
    "",
    "warp",
    "pool:4",
    "serial+shm",
    "threaded:2+shm",
    "threaded:x",
    "multiprocess:0",
    "multiprocess:2+arrow",
    "multiprocess:2+tcp://",
    "multiprocess:2+tcp://nohost",
    "multiprocess:2+tcp://h:not-a-port",
    "multiprocess:2+tcp://a:1,,b:2",
    "multiprocess:2+tcp://a:1,",
]


@pytest.fixture()
def tables(eval_corpus):
    return [table.copy() for table in eval_corpus.tables[:6]]


async def _settled_per_worker(pool: AnnotationPool, timeout: float = 10.0) -> dict:
    """Per-worker report once every live worker has ponged after the last
    result: frames arrive in order, so a pong read after a worker's last
    result carries its final service and store stats."""
    for worker in pool._workers:
        worker.last_pong = None
    deadline = time.monotonic() + timeout
    while any(w.last_pong is None for w in pool._workers if not w.retired):
        assert time.monotonic() < deadline, "workers stopped answering heartbeats"
        await asyncio.sleep(pool.pool_spec.heartbeat_interval)
    return pool.summary()["pool"]["per_worker"]


def _single_process_misses(typer, tables, rounds: int) -> int:
    """Store misses of one process annotating the same mix."""
    store = ProfileStore()
    with store.activated():
        for _ in range(rounds):
            for table in tables:
                typer.annotate(table.copy())
    return store.misses


# ------------------------------------------------------------ spec round-trip
class TestServingSpec:
    def test_round_trips_every_documented_spec_string(self):
        for spec_string in DOCUMENTED_SPECS:
            spec = ServingSpec.parse(spec_string)
            assert str(spec) == spec_string

    def test_round_trips_every_spec_string_in_the_serving_doc(self):
        """Scrape docs/SERVING.md so the doc and the parser cannot drift."""
        text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
        found = set()
        for match in re.finditer(r"`\"?([^`\s]+?)\"?`", text):
            candidate = match.group(1)
            if not _CANONICAL_SPEC.match(candidate):
                continue
            try:
                spec = ServingSpec.parse(candidate)
            except ConfigurationError:
                continue  # a grammar placeholder like `multiprocess:N`
            assert str(spec) == candidate, candidate
            found.add(candidate)
        # The scrape actually saw the documented tables, not an empty page.
        assert {"serial", "multiprocess:8+shm", "pool:4"} <= found

    def test_component_parsers(self):
        backend = BackendSpec.parse("multiprocess:4+tcp://h:7071")
        assert backend.workers == 4
        assert backend.transport == TransportSpec(name="tcp", peers=(("h", 7071),))
        assert str(backend) == "multiprocess:4+tcp://h:7071"
        assert str(PoolSpec.parse("pool:3")) == "pool:3"
        assert str(PoolSpec.parse("pool")) == "pool:2"  # default worker count
        assert StoreSpec.parse("memory:128").max_columns == 128
        assert str(StoreSpec.parse("memory:64")) == "memory:64"
        assert str(StoreSpec.parse("memory")) == "memory"

    def test_invalid_specs_raise_configuration_error(self):
        for bad in ("", "warp", "serial+shm", "threaded:x", "pool:0", "pool:2@"):
            with pytest.raises(ConfigurationError):
                ServingSpec.parse(bad)
        for bad in ("tape:/dev/nst0", "disk:/var/lib/repro", "memory:x"):
            with pytest.raises(ConfigurationError):
                StoreSpec.parse(bad)
        with pytest.raises(ConfigurationError):
            TransportSpec.parse("tcp://missing-port")
        with pytest.raises(ConfigurationError):
            PoolSpec(routing="warm")

    def test_parse_and_resolve_accept_the_same_strings(self, monkeypatch):
        """One grammar: the typed parser and ``resolve_backend`` agree on
        every documented spec and every malformed one."""
        monkeypatch.setenv("REPRO_NET_PEERS", "127.0.0.1:9001")

        def accepts(entry_point, spec_string) -> bool:
            try:
                entry_point(spec_string)
            except ConfigurationError:
                return False
            return True

        for spec_string in DOCUMENTED_SPECS + MALFORMED_SPECS:
            parsed = accepts(BackendSpec.parse, spec_string)
            resolved = accepts(resolve_backend, spec_string)
            assert parsed == resolved, spec_string
            if not spec_string.startswith("pool"):
                assert parsed == (spec_string not in MALFORMED_SPECS), spec_string

    def test_typed_specs_resolve_like_their_strings(self):
        assert ServingSpec.parse("threaded:2").resolve_backend().name == "threaded"
        assert resolve_backend(BackendSpec.parse("threaded:2")).name == "threaded"
        assert resolve_backend(ServingSpec.parse("serial")).name == "serial"
        assert resolve_transport(TransportSpec.parse("shm")).name == "shm"

    def test_frontend_spec_builds_a_validated_config(self):
        config = FrontendSpec(tenant_rate=None, default_deadline=None).to_config()
        assert config.tenant_rate is None
        with pytest.raises(ConfigurationError):
            FrontendSpec(tenant_burst=-1.0).to_config()

    def test_service_accepts_a_typed_backend_spec(self, pretrained_typer):
        service = AnnotationService(pretrained_typer, backend=BackendSpec.parse("serial"))
        assert service.summary()["backend"] == "serial"


# ------------------------------------------------------------------ the pool
class TestAnnotationPool:
    def test_parity_and_affinity_on_repeat_heavy_mix(self, pretrained_typer, tables):
        """Each column's derived state is computed once across the pool,
        and results are bit-identical."""
        serial = _comparable([pretrained_typer.annotate(t) for t in tables])
        rounds = 4

        async def drive():
            spec = PoolSpec(workers=3, heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                results = []
                for _ in range(rounds):
                    for table in tables:
                        results.append(await pool.annotate(table.copy()))
                return results, pool.stats, await _settled_per_worker(pool)

        results, stats, per_worker = asyncio.run(drive())
        assert _comparable(results) == serial * rounds
        pool_misses = sum(info["store"]["misses"] for info in per_worker.values())
        assert pool_misses == _single_process_misses(pretrained_typer, tables, rounds)
        assert stats.completed_total == len(tables) * rounds
        assert stats.errors_total == 0

    def test_routing_is_sticky_for_a_repeated_table(self, pretrained_typer, tables):
        async def drive():
            spec = PoolSpec(workers=3, heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                for _ in range(5):
                    await pool.annotate(tables[0].copy())
                return await _settled_per_worker(pool)

        per_worker = asyncio.run(drive())
        served = sorted(info["service"]["requests_total"] for info in per_worker.values())
        # Every repeat lands on the worker that first saw the table, warm.
        assert served == [0, 0, 5]
        store = next(info["store"] for info in per_worker.values() if info["store"]["hits"])
        assert store["misses"] == tables[0].num_columns

    def test_sigkill_worker_redispatches_in_flight_requests(self, pretrained_typer, tables):
        """The supervision drill: kill -9 a worker, lose zero requests."""
        serial = _comparable([pretrained_typer.annotate(t) for t in tables])

        async def drive():
            async with AnnotationPool(
                pretrained_typer, PoolSpec(workers=2, heartbeat_interval=0.05)
            ) as pool:
                futures = [
                    asyncio.ensure_future(pool.annotate(t.copy())) for t in tables
                ]
                await asyncio.sleep(0.01)  # requests are now dispatched
                victim = pool._workers[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                results = await asyncio.gather(*futures)
                follow_up = await pool.annotate(tables[0].copy())
                return results, follow_up, pool.stats

        results, follow_up, stats = asyncio.run(drive())
        assert _comparable(results) == serial
        assert _comparable([follow_up]) == serial[:1]
        assert stats.worker_deaths >= 1
        assert stats.restarts >= 1
        assert stats.redispatches >= 1
        assert stats.errors_total == 0

    def test_round_robin_routing_is_blind(self, pretrained_typer, tables):
        async def drive():
            spec = PoolSpec(workers=2, routing="round-robin", heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                for _ in range(5):
                    await pool.annotate(tables[0].copy())
                return await _settled_per_worker(pool)

        per_worker = asyncio.run(drive())
        # Alternating slots: both workers compute the table's derived state;
        # rendezvous routing in the same scenario computes it once.
        served = sorted(info["service"]["requests_total"] for info in per_worker.values())
        assert served == [2, 3]
        misses = [info["store"]["misses"] for info in per_worker.values()]
        assert misses == [tables[0].num_columns] * 2

    def test_shutdown_is_clean_and_fast(self, pretrained_typer, tables):
        """Regression: shutting down a pool that served requests takes well
        under a second, and every worker exits 0 (no terminate escalation,
        no error status from the fork child's exit hooks)."""

        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            await pool.start()
            for table in tables:
                await pool.annotate(table.copy())
            started = time.monotonic()
            await pool.shutdown()
            return time.monotonic() - started, [w.exitcode for w in pool._workers]

        elapsed, exitcodes = asyncio.run(drive())
        assert exitcodes == [0, 0]
        assert elapsed < 1.0, f"shutdown took {elapsed:.2f}s"

    def test_spec_forms_and_rejections(self, pretrained_typer):
        pool = AnnotationPool(pretrained_typer, "pool:3")
        assert pool.pool_spec.workers == 3
        pool = AnnotationPool(pretrained_typer, ServingSpec.parse("pool:2@threaded:2"))
        assert str(pool.spec) == "pool:2@threaded:2"
        pool = AnnotationPool(pretrained_typer, PoolSpec(workers=1))
        assert pool.pool_spec.workers == 1
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, "multiprocess:4")  # no pool section
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, 0)
        with pytest.raises(ConfigurationError):
            AnnotationPool(pretrained_typer, 2, slo=object())

    def test_rejects_requests_before_start_and_after_shutdown(
        self, pretrained_typer, tables
    ):
        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            with pytest.raises(ServingError):
                await pool.annotate(tables[0])
            await pool.start()
            try:
                await pool.annotate(tables[0].copy())
            finally:
                await pool.shutdown()
            with pytest.raises(ServingError):
                await pool.annotate(tables[0])
            return pool.stats

        stats = asyncio.run(drive())
        assert stats.rejected_total == 2
        assert stats.completed_total == 1


# ------------------------------------------------------------- frontend mode
class TestFrontendPoolMode:
    def test_frontend_drives_a_pool(self, pretrained_typer, tables):
        serial = _comparable([pretrained_typer.annotate(tables[0])])

        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            frontend = AnnotationFrontend(
                pool=pool, config=FrontendSpec(tenant_rate=None, default_deadline=None)
            )
            async with frontend:
                prediction = await frontend.submit(tables[0].copy())
                report = frontend.summary()
            return prediction, report

        prediction, report = asyncio.run(drive())
        assert _comparable([prediction]) == serial
        assert report["frontend"]["admitted"] == 1
        assert report["pool"]["completed_total"] == 1
        assert report["service"]["pool"] is report["pool"]

    def test_frontend_requires_exactly_one_of_service_or_pool(self, pretrained_typer):
        with pytest.raises(ConfigurationError):
            AnnotationFrontend()
        service = AnnotationService(pretrained_typer)
        pool = AnnotationPool(pretrained_typer, 2)
        with pytest.raises(ConfigurationError):
            AnnotationFrontend(service=service, pool=pool)


# ------------------------------------------------------------ stats contract
class TestUnifiedStats:
    def test_summaries_share_the_render_stats_sections(self, pretrained_typer, tables):
        async def drive():
            service = AnnotationService(pretrained_typer)
            async with service:
                await service.annotate(tables[0].copy())
            return service.summary()

        report = asyncio.run(drive())
        typer_report = pretrained_typer.summary()
        assert "stats" not in report
        assert report["service"]["requests_total"] == 1
        assert "columnar_kernels" in report
        assert "columnar_kernels" in typer_report
        assert "timings" in typer_report

    def test_render_stats_composes_caller_sections(self, pretrained_typer):
        report = render_stats(typer=pretrained_typer)
        assert "columnar_kernels" in report and "timings" in report
        assert "service" not in report and "pool" not in report
