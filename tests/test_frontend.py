"""Front end & SLOs: admission control, deadlines, cancellation, drain.

These tests pin the robustness contract of the serving front end: overload
is shed with explicit, typed rejections (never an unbounded queue), request
deadlines propagate end-to-end and expired work is discarded before its
cascade runs, client-side cancellation can never poison the worker loop or
skew the AIMD controller's latency observations, the SLO controller steps
the cascade confidence threshold c down under breach and recovers it as
load drains, and shutdown is bounded — past the drain deadline every
pending caller gets a typed error, not a hang.

Most tests drive the service with a stub typer whose latency/failures are
controlled explicitly, so they are deterministic on a 1-CPU container; the
HTTP round-trip parity tests use the real pretrained system.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ShutdownError,
)
from repro.core.prediction import TablePrediction
from repro.core.table import Table
from repro.serving import (
    AnnotationFrontend,
    AnnotationService,
    FrontendConfig,
    SloConfig,
    SloController,
    TokenBucket,
)
from repro.serving.service import _Request  # noqa: PLC2701 - white-box deadline test


def _table(name: str = "t") -> Table:
    return Table.from_columns_dict({"City": ["Berlin", "Paris"]}, name=name)


class _StubTyper:
    """A typer stand-in with controllable latency, failures, and threshold c."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.fail = False
        self.confidence_threshold = 0.85
        self.calls = 0
        self.annotated_tables = 0

    def set_confidence_threshold(self, confidence_threshold: float) -> None:
        self.confidence_threshold = confidence_threshold

    def annotate_corpus(self, tables, customer_id=None, backend=None):
        self.calls += 1
        self.annotated_tables += len(tables)
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("injected fault")
        return [TablePrediction(table_name=table.name) for table in tables]


# ----------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.acquire(0.0) == 0.0
        assert bucket.acquire(0.0) == 0.0
        wait = bucket.acquire(0.0)
        assert wait == pytest.approx(0.1)
        # One token refills after 1/rate seconds.
        assert bucket.acquire(0.1) == 0.0
        assert bucket.acquire(0.1) > 0.0

    def test_refill_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        bucket.acquire(0.0)
        assert bucket.tokens == pytest.approx(2.0)
        bucket.acquire(1000.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.5)


# ------------------------------------------------------------------- SLO control
class TestSloController:
    def _controller(self, **overrides) -> tuple[_StubTyper, SloController]:
        config = SloConfig(
            latency_budget=0.1,
            window=16,
            min_samples=4,
            cooldown=1.0,
            step=0.05,
            min_confidence_threshold=0.70,
            recover_ratio=0.5,
            **overrides,
        )
        typer = _StubTyper()
        return typer, SloController(typer, config)

    def test_degrades_on_breach_and_journals(self):
        typer, controller = self._controller()
        for _ in range(4):
            controller.observe(0.5)
        assert controller.maybe_adjust(now=0.0) == "degrade"
        assert typer.confidence_threshold == pytest.approx(0.80)
        assert controller.is_degraded
        assert controller.degrade_steps == 1
        (entry,) = controller.journal
        assert entry["action"] == "degrade"
        assert entry["from"] == pytest.approx(0.85)
        assert entry["to"] == pytest.approx(0.80)
        assert entry["observed_percentile_seconds"] == pytest.approx(0.5)

    def test_needs_fresh_samples_and_cooldown(self):
        typer, controller = self._controller()
        for _ in range(3):
            controller.observe(0.5)
        # Not enough samples yet.
        assert controller.maybe_adjust(now=0.0) is None
        controller.observe(0.5)
        assert controller.maybe_adjust(now=0.0) == "degrade"
        # The adjustment reset the sample counter: re-measure before acting.
        assert controller.maybe_adjust(now=10.0) is None
        for _ in range(4):
            controller.observe(0.5)
        # Fresh samples but still inside the cooldown window.
        assert controller.maybe_adjust(now=0.5) is None
        assert controller.maybe_adjust(now=10.0) == "degrade"
        assert typer.confidence_threshold == pytest.approx(0.75)

    def test_floor_is_hard(self):
        typer, controller = self._controller()
        for round_index in range(10):
            for _ in range(4):
                controller.observe(0.5)
            controller.maybe_adjust(now=100.0 * (round_index + 1))
        assert typer.confidence_threshold == pytest.approx(0.70)
        # At the floor with a still-breaching tail: no action, no journal spam.
        for _ in range(4):
            controller.observe(0.5)
        assert controller.maybe_adjust(now=1e6) is None

    def test_recovers_to_baseline_and_not_past_it(self):
        typer, controller = self._controller()
        for _ in range(4):
            controller.observe(0.5)
        controller.maybe_adjust(now=0.0)
        assert controller.is_degraded
        for round_index in range(10):
            for _ in range(4):
                controller.observe(0.01)
            controller.maybe_adjust(now=100.0 * (round_index + 1))
        assert typer.confidence_threshold == pytest.approx(controller.baseline)
        assert not controller.is_degraded
        assert controller.recover_steps >= 1
        actions = [entry["action"] for entry in controller.journal]
        # Old breach samples age out of the sliding window before recovery
        # starts, so there may be several degrade steps — but every one of
        # them is undone and the journal ends on a recovery.
        assert actions[0] == "degrade"
        assert actions[-1] == "recover"
        assert actions.count("degrade") == actions.count("recover")

    def test_breach_during_cooldown_waits_then_fires(self):
        # A second breach arriving *inside* the cooldown window must not be
        # lost: the controller holds (None, threshold untouched) and then
        # fires the moment the cooldown expires, without needing yet another
        # batch of fresh samples.
        typer, controller = self._controller()
        for _ in range(4):
            controller.observe(0.5)
        assert controller.maybe_adjust(now=0.0) == "degrade"
        for _ in range(4):
            controller.observe(0.5)  # fresh breaching samples, still hot
        assert controller.maybe_adjust(now=0.5) is None  # inside cooldown=1.0
        assert typer.confidence_threshold == pytest.approx(0.80)
        assert controller.maybe_adjust(now=1.0) == "degrade"  # cooldown over
        assert typer.confidence_threshold == pytest.approx(0.75)
        assert [entry["action"] for entry in controller.journal] == [
            "degrade",
            "degrade",
        ]
        assert [(entry["from"], entry["to"]) for entry in controller.journal] == [
            (pytest.approx(0.85), pytest.approx(0.80)),
            (pytest.approx(0.80), pytest.approx(0.75)),
        ]

    def test_recovery_while_still_loaded_is_stepwise_and_journaled(self):
        # Latency dropping below the recover line while traffic keeps flowing:
        # the controller steps back up once per cooldown, never overshoots the
        # baseline, and the journal pins the exact degrade/recover sequence.
        typer, controller = self._controller()
        for _ in range(4):
            controller.observe(0.5)
        assert controller.maybe_adjust(now=0.0) == "degrade"
        assert controller.maybe_adjust(now=2.0) is None  # no fresh samples yet
        # Sustained fast traffic flushes the breach samples out of the
        # sliding window (window=16) while requests are still being served.
        for _ in range(16):
            controller.observe(0.01)
        assert controller.maybe_adjust(now=2.0) == "recover"
        assert typer.confidence_threshold == pytest.approx(0.85)
        assert not controller.is_degraded
        # Still loaded and still fast: at the baseline there is nothing to
        # recover to, so the controller idles instead of overshooting.
        for _ in range(4):
            controller.observe(0.01)
        assert controller.maybe_adjust(now=4.0) is None
        assert typer.confidence_threshold == pytest.approx(controller.baseline)
        assert [entry["action"] for entry in controller.journal] == [
            "degrade",
            "recover",
        ]
        (_, recovery) = controller.journal
        assert recovery["from"] == pytest.approx(0.80)
        assert recovery["to"] == pytest.approx(0.85)
        assert recovery["observed_percentile_seconds"] == pytest.approx(0.01)

    def test_no_action_between_budget_and_recover_band(self):
        typer, controller = self._controller()
        # 0.06 is under the 0.1 budget but above the 0.05 recover line.
        for _ in range(4):
            controller.observe(0.06)
        assert controller.maybe_adjust(now=0.0) is None
        assert typer.confidence_threshold == pytest.approx(0.85)

    def test_snapshot_shape(self):
        _, controller = self._controller()
        controller.observe(0.2)
        snapshot = controller.snapshot()
        assert snapshot["confidence_threshold"] == pytest.approx(0.85)
        assert snapshot["baseline"] == pytest.approx(0.85)
        assert snapshot["degraded"] is False
        assert snapshot["observed_percentile_seconds"] == pytest.approx(0.2)
        assert snapshot["transitions"] == []

    def test_invalid_configs(self):
        typer = _StubTyper()
        for kwargs in (
            {"latency_budget": 0.0},
            {"percentile": 1.5},
            {"min_samples": 0},
            {"min_samples": 99, "window": 16},
            {"step": 0.0},
            {"recover_ratio": 1.0},
            {"min_confidence_threshold": 1.5},
        ):
            with pytest.raises(ConfigurationError):
                SloController(typer, SloConfig(**kwargs))
        # A baseline already below the floor has nothing to degrade to.
        typer.confidence_threshold = 0.5
        with pytest.raises(ConfigurationError):
            SloController(typer, SloConfig(min_confidence_threshold=0.7))


# ----------------------------------------------------------- service: deadlines
class TestServiceDeadlines:
    def test_deadline_expires_while_queued(self):
        typer = _StubTyper(delay=0.15)

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                blocker = asyncio.ensure_future(service.annotate(_table("blocker")))
                await asyncio.sleep(0.02)  # the blocker batch is now in flight
                with pytest.raises(DeadlineExceededError):
                    await service.annotate(_table("doomed"), deadline=0.05)
                await blocker
                # The worker survived: later requests are served normally.
                follow_up = await service.annotate(_table("after"))
                return service.stats, follow_up

        stats, follow_up = asyncio.run(drive())
        assert stats.timed_out_total == 1
        assert stats.cancelled_total == 0
        assert follow_up.table_name == "after"
        # The doomed request's cascade never ran.
        assert typer.annotated_tables == 2

    def test_worker_discards_already_expired_request(self):
        """A request that aged out in the queue is failed before its group runs."""
        typer = _StubTyper()

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                now = time.monotonic()
                expired: asyncio.Future = asyncio.get_running_loop().create_future()
                await service._queue.put(  # noqa: SLF001 - deterministic worker-side expiry
                    _Request(_table("expired"), None, expired, now - 1.0, now - 0.5)
                )
                live = await service.annotate(_table("live"))
                assert isinstance(expired.exception(), DeadlineExceededError)
                return service.stats, live

        stats, live = asyncio.run(drive())
        assert stats.timed_out_total == 1
        assert live.table_name == "live"
        assert typer.annotated_tables == 1

    def test_zero_deadline_times_out_immediately(self):
        typer = _StubTyper()

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                with pytest.raises(DeadlineExceededError):
                    await service.annotate(_table(), deadline=0.0)
                return service.stats.timed_out_total

        assert asyncio.run(drive()) == 1

    def test_negative_deadline_rejected(self):
        typer = _StubTyper()

        async def drive():
            async with AnnotationService(typer) as service:
                with pytest.raises(ConfigurationError):
                    await service.annotate(_table(), deadline=-1.0)

        asyncio.run(drive())

    def test_generous_deadline_serves_normally(self):
        typer = _StubTyper(delay=0.02)

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                prediction = await service.annotate(_table("fine"), deadline=5.0)
                return prediction, service.stats

        prediction, stats = asyncio.run(drive())
        assert prediction.table_name == "fine"
        assert stats.timed_out_total == 0


# -------------------------------------------------------- service: cancellation
class TestServiceCancellation:
    def test_cancelled_while_queued_does_not_poison_worker(self):
        typer = _StubTyper(delay=0.12)

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                blocker = asyncio.ensure_future(service.annotate(_table("blocker")))
                await asyncio.sleep(0.02)
                doomed = [
                    asyncio.ensure_future(service.annotate(_table(f"c{i}"), customer_id="t1"))
                    for i in range(2)
                ]
                await asyncio.sleep(0.02)  # both are queued behind the blocker
                for task in doomed:
                    task.cancel()
                await blocker
                results = await asyncio.gather(*doomed, return_exceptions=True)
                assert all(isinstance(r, asyncio.CancelledError) for r in results)
                follow_up = await service.annotate(_table("after"))
                return service.stats, follow_up

        stats, follow_up = asyncio.run(drive())
        assert stats.cancelled_total == 2
        assert follow_up.table_name == "after"
        # The cancelled group was never annotated, and never counted as served.
        assert typer.annotated_tables == 2
        assert stats.requests_total == 2

    def test_fully_cancelled_group_skips_aimd_observation(self):
        """A group whose every request was cancelled must not feed the AIMD
        controller a latency observation it never incurred."""
        typer = _StubTyper(delay=0.12)

        async def drive():
            async with AnnotationService(
                typer, max_batch_delay=0.0, adaptive=True
            ) as service:
                blocker = asyncio.ensure_future(service.annotate(_table("blocker")))
                await asyncio.sleep(0.02)
                doomed = asyncio.ensure_future(
                    service.annotate(_table("doomed"), customer_id="t1")
                )
                await asyncio.sleep(0.02)
                doomed.cancel()
                await blocker
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return service.stats

        stats = asyncio.run(drive())
        # The cancelled tenant's controller never observed a batch.
        assert "t1" not in stats.controllers
        assert stats.controllers["<global>"]["batches"] == 1

    def test_cancelled_mid_executor_is_harmless(self):
        typer = _StubTyper(delay=0.1)

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                task = asyncio.ensure_future(service.annotate(_table("midflight")))
                await asyncio.sleep(0.03)  # the cascade is running on the executor
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                follow_up = await service.annotate(_table("after"))
                return follow_up

        assert asyncio.run(drive()).table_name == "after"

    def test_injected_fault_fails_requests_not_worker(self):
        typer = _StubTyper()

        async def drive():
            async with AnnotationService(typer, max_batch_delay=0.0) as service:
                typer.fail = True
                with pytest.raises(ServingError):
                    await service.annotate(_table("boom"))
                typer.fail = False
                recovered = await service.annotate(_table("after"))
                return service.stats, recovered

        stats, recovered = asyncio.run(drive())
        assert stats.errors_total == 1
        assert recovered.table_name == "after"


# ------------------------------------------------------- service: bounded drain
class TestServiceDrain:
    def test_bounded_drain_hard_cancels_with_typed_errors(self):
        typer = _StubTyper(delay=0.4)

        async def drive():
            service = await AnnotationService(typer, max_batch_delay=0.0).start()
            in_flight = asyncio.ensure_future(service.annotate(_table("inflight")))
            await asyncio.sleep(0.05)  # now running on the executor
            queued = asyncio.ensure_future(service.annotate(_table("queued")))
            await asyncio.sleep(0)
            started = time.monotonic()
            await service.shutdown(drain_timeout=0.1)
            drain_seconds = time.monotonic() - started
            results = await asyncio.gather(in_flight, queued, return_exceptions=True)
            return drain_seconds, results, service.is_running

        drain_seconds, results, running = asyncio.run(drive())
        assert drain_seconds < 0.3  # nowhere near the 0.4 s cascade
        assert all(isinstance(result, ShutdownError) for result in results)
        assert not running

    def test_unbounded_drain_still_serves_everything(self):
        typer = _StubTyper(delay=0.02)

        async def drive():
            service = await AnnotationService(typer, max_batch_delay=0.0).start()
            pending = [asyncio.ensure_future(service.annotate(_table(f"t{i}"))) for i in range(3)]
            await asyncio.sleep(0)
            await service.shutdown()
            return await asyncio.gather(*pending)

        results = asyncio.run(drive())
        assert [prediction.table_name for prediction in results] == ["t0", "t1", "t2"]

    def test_drain_of_idle_service_is_fast(self):
        typer = _StubTyper()

        async def drive():
            service = await AnnotationService(typer).start()
            started = time.monotonic()
            await service.shutdown(drain_timeout=5.0)
            return time.monotonic() - started

        assert asyncio.run(drive()) < 1.0

    def test_invalid_drain_timeout(self):
        typer = _StubTyper()

        async def drive():
            service = await AnnotationService(typer).start()
            try:
                with pytest.raises(ConfigurationError):
                    await service.shutdown(drain_timeout=-1.0)
            finally:
                await service.shutdown()

        asyncio.run(drive())


# ----------------------------------------------------------- service: SLO wiring
class TestServiceSloIntegration:
    def test_breach_degrades_then_recovery_restores(self):
        typer = _StubTyper(delay=0.05)
        config = SloConfig(
            latency_budget=0.02,
            window=8,
            min_samples=3,
            cooldown=0.0,
            step=0.05,
            min_confidence_threshold=0.70,
            recover_ratio=0.5,
        )

        async def drive():
            async with AnnotationService(
                typer, max_batch_delay=0.0, slo=SloConfig(**vars(config))
            ) as service:
                for index in range(4):
                    await service.annotate(_table(f"slow{index}"))
                degraded_c = typer.confidence_threshold
                degraded_batches = service.stats.degraded_batches
                typer.delay = 0.0
                # Enough fast traffic for the breach samples to age out of
                # the sliding window and for every degrade step to be undone.
                for index in range(24):
                    await service.annotate(_table(f"fast{index}"))
                summary = service.summary()
                return degraded_c, degraded_batches, summary

        degraded_c, degraded_batches, summary = asyncio.run(drive())
        assert degraded_c == pytest.approx(0.80)
        stats = summary["service"]
        slo = summary["slo"]
        assert slo["transitions"][0]["action"] == "degrade"
        assert any(entry["action"] == "recover" for entry in slo["transitions"])
        assert typer.confidence_threshold == pytest.approx(0.85)
        # Batches annotated while degraded were counted as such.
        assert stats["degraded_batches"] >= 1
        assert degraded_batches >= 1
        assert stats["confidence_threshold"] == pytest.approx(0.85)

    def test_unloaded_service_never_degrades(self):
        typer = _StubTyper()

        async def drive():
            async with AnnotationService(
                typer, max_batch_delay=0.0, slo=SloConfig(latency_budget=0.5, min_samples=2)
            ) as service:
                for index in range(8):
                    await service.annotate(_table(f"t{index}"))
                return service.stats

        stats = asyncio.run(drive())
        assert typer.confidence_threshold == pytest.approx(0.85)
        assert stats.degraded_batches == 0

    def test_invalid_slo_argument(self):
        with pytest.raises(ConfigurationError):
            AnnotationService(_StubTyper(), slo="fast-please")


# ------------------------------------------------------------ frontend admission
class TestFrontendAdmission:
    def _frontend(self, typer, **config) -> AnnotationFrontend:
        service = AnnotationService(typer, max_batch_delay=0.0)
        return AnnotationFrontend(service, FrontendConfig(**config))

    def test_rate_limit_sheds_with_retry_after(self):
        typer = _StubTyper()
        frontend = self._frontend(typer, tenant_rate=0.001, tenant_burst=1)

        async def drive():
            async with frontend:
                await frontend.submit(_table(), customer_id="t1")
                with pytest.raises(OverloadedError) as excinfo:
                    await frontend.submit(_table(), customer_id="t1")
                # A different tenant has its own bucket.
                await frontend.submit(_table(), customer_id="t2")
                return excinfo.value

        shed = asyncio.run(drive())
        assert shed.retry_after > 0.0
        assert frontend.stats.shed_rate_limited == 1
        assert frontend.stats.admitted == 2
        assert frontend.service.stats.shed_total == 1

    def test_tenant_pending_bound_sheds(self):
        typer = _StubTyper(delay=0.15)
        frontend = self._frontend(typer, max_pending_per_tenant=1, max_pending_total=10)

        async def drive():
            async with frontend:
                first = asyncio.ensure_future(frontend.submit(_table("a"), customer_id="t1"))
                await asyncio.sleep(0.02)
                with pytest.raises(OverloadedError):
                    await frontend.submit(_table("b"), customer_id="t1")
                # Another tenant is not starved by t1's full queue.
                other = asyncio.ensure_future(frontend.submit(_table("c"), customer_id="t2"))
                await asyncio.gather(first, other)

        asyncio.run(drive())
        assert frontend.stats.shed_queue_full == 1
        assert frontend.stats.completed == 2

    def test_global_pending_bound_sheds(self):
        typer = _StubTyper(delay=0.15)
        frontend = self._frontend(typer, max_pending_total=1)

        async def drive():
            async with frontend:
                first = asyncio.ensure_future(frontend.submit(_table("a"), customer_id="t1"))
                await asyncio.sleep(0.02)
                with pytest.raises(OverloadedError) as excinfo:
                    await frontend.submit(_table("b"), customer_id="t2")
                await first
                return excinfo.value

        shed = asyncio.run(drive())
        assert shed.retry_after > 0.0
        assert frontend.stats.shed_queue_full == 1

    def test_pending_slots_are_released(self):
        typer = _StubTyper()
        frontend = self._frontend(typer, max_pending_per_tenant=1)

        async def drive():
            async with frontend:
                for index in range(5):
                    await frontend.submit(_table(f"t{index}"), customer_id="t1")

        asyncio.run(drive())
        assert frontend.stats.admitted == 5
        assert frontend.stats.shed_total == 0

    def test_draining_frontend_rejects(self):
        typer = _StubTyper()
        frontend = self._frontend(typer)

        async def drive():
            await frontend.start()
            await frontend.shutdown()
            with pytest.raises(ServingError):
                await frontend.submit(_table())

        asyncio.run(drive())
        assert frontend.stats.rejected_draining == 1

    def test_default_deadline_applies(self):
        typer = _StubTyper(delay=0.2)
        frontend = self._frontend(typer, default_deadline=0.05)

        async def drive():
            async with frontend:
                # An explicit per-request deadline overrides the default.
                blocker = asyncio.ensure_future(
                    frontend.submit(_table("blocker"), deadline=5.0)
                )
                await asyncio.sleep(0.02)
                with pytest.raises(DeadlineExceededError):
                    await frontend.submit(_table("doomed"))
                await blocker

        asyncio.run(drive())
        assert frontend.stats.timed_out == 1
        assert frontend.stats.completed == 1


# ------------------------------------------------------------------ frontend HTTP
async def _http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    connection: tuple | None = None,
    close: bool = False,
):
    """Minimal HTTP/1.1 client; returns (status, headers, body_json, connection)."""
    if connection is None:
        connection = await asyncio.open_connection(host, port)
    reader, writer = connection
    body = json.dumps(payload).encode() if payload is not None else b""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}", f"Content-Length: {len(body)}"]
    if close:
        lines.append("Connection: close")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    content = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, json.loads(content) if content else None, connection


def _comparable(prediction_dict: dict) -> dict:
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return {key: value for key, value in prediction_dict.items() if key != "step_seconds"}


class TestFrontendHttp:
    def test_annotate_round_trip_is_bit_identical(self, pretrained_typer, fig3_table):
        expected = json.loads(json.dumps(pretrained_typer.annotate(fig3_table).to_dict()))
        service = AnnotationService(pretrained_typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service)

        async def drive():
            async with frontend:
                host, port = frontend.address
                status, _, body, connection = await _http_request(
                    host, port, "POST", "/annotate", {"table": fig3_table.to_dict()}
                )
                connection[1].close()
                return status, body

        status, body = asyncio.run(drive())
        assert status == 200
        assert _comparable(body) == _comparable(expected)
        assert frontend.stats.completed == 1

    def test_keep_alive_serves_sequential_requests(self, pretrained_typer, fig3_table):
        service = AnnotationService(pretrained_typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service)

        async def drive():
            async with frontend:
                host, port = frontend.address
                payload = {"table": fig3_table.to_dict()}
                status1, _, body1, connection = await _http_request(
                    host, port, "POST", "/annotate", payload
                )
                status2, _, body2, connection = await _http_request(
                    host, port, "POST", "/annotate", payload, connection=connection
                )
                connection[1].close()
                return status1, status2, body1, body2

        status1, status2, body1, body2 = asyncio.run(drive())
        assert status1 == status2 == 200
        assert _comparable(body1) == _comparable(body2)
        assert frontend.stats.connections == 1

    def test_healthz_stats_and_errors(self, pretrained_typer):
        service = AnnotationService(pretrained_typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service, FrontendConfig(tenant_rate=1000.0))

        async def drive():
            async with frontend:
                host, port = frontend.address
                health, _, health_body, c1 = await _http_request(host, port, "GET", "/healthz")
                c1[1].close()
                stats, _, stats_body, c2 = await _http_request(host, port, "GET", "/stats")
                c2[1].close()
                missing, _, _, c3 = await _http_request(host, port, "GET", "/nope")
                c3[1].close()
                wrong_method, _, _, c4 = await _http_request(host, port, "GET", "/annotate")
                c4[1].close()
                bad_json, _, _, c5 = await _http_request(
                    host, port, "POST", "/annotate", {"not_a_table": 1}
                )
                c5[1].close()
                bad_deadline, _, _, c6 = await _http_request(
                    host, port, "POST", "/annotate",
                    {"table": _table().to_dict(), "deadline_ms": -5},
                )
                c6[1].close()
                return health, health_body, stats, stats_body, missing, wrong_method, bad_json, bad_deadline

        health, health_body, stats, stats_body, missing, wrong_method, bad_json, bad_deadline = (
            asyncio.run(drive())
        )
        assert health == 200 and health_body == {"status": "ok", "accepting": True}
        assert stats == 200
        assert stats_body["frontend"]["admitted"] == 0
        service_stats = stats_body["service"]["service"]
        for key in ("shed_total", "timed_out_total", "degraded_batches", "confidence_threshold"):
            assert key in service_stats
        assert missing == 404
        assert wrong_method == 405
        assert bad_json == 400
        assert bad_deadline == 400

    def test_shed_maps_to_429_with_retry_after(self, pretrained_typer):
        service = AnnotationService(pretrained_typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(
            service, FrontendConfig(tenant_rate=0.001, tenant_burst=1)
        )

        async def drive():
            async with frontend:
                host, port = frontend.address
                payload = {"table": _table().to_dict()}
                first, _, _, connection = await _http_request(
                    host, port, "POST", "/annotate", payload
                )
                second, headers, body, connection = await _http_request(
                    host, port, "POST", "/annotate", payload, connection=connection
                )
                connection[1].close()
                return first, second, headers, body

        first, second, headers, body = asyncio.run(drive())
        assert first == 200
        assert second == 429
        assert float(headers["retry-after"]) > 0.0
        assert body["error"] == "overloaded"
        assert body["retry_after_seconds"] > 0.0

    def test_deadline_maps_to_504(self):
        typer = _StubTyper(delay=0.2)
        service = AnnotationService(typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service)

        async def drive():
            async with frontend:
                host, port = frontend.address
                blocker = asyncio.ensure_future(frontend.submit(_table("blocker")))
                await asyncio.sleep(0.02)
                status, _, body, connection = await _http_request(
                    host, port, "POST", "/annotate",
                    {"table": _table("doomed").to_dict(), "deadline_ms": 50},
                )
                connection[1].close()
                await blocker
                return status, body

        status, body = asyncio.run(drive())
        assert status == 504
        assert body["error"] == "deadline_exceeded"

    def test_sigterm_drains_within_deadline_without_leaks(self):
        typer = _StubTyper(delay=0.05)
        service = AnnotationService(typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service, FrontendConfig(drain_timeout=2.0))

        async def drive():
            await frontend.start()
            frontend.install_signal_handlers()
            host, port = frontend.address
            status, _, _, connection = await _http_request(
                host, port, "POST", "/annotate", {"table": _table().to_dict()}
            )
            assert status == 200
            # The keep-alive connection is now idle; SIGTERM must still drain.
            os.kill(os.getpid(), signal.SIGTERM)
            await frontend.wait_drained(timeout=5.0)
            connection[1].close()
            # A new connection is refused: the listener is gone.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            leaked = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            return leaked

        leaked = asyncio.run(drive())
        assert leaked == []
        assert frontend.last_drain_seconds is not None
        assert frontend.last_drain_seconds <= 2.0
        assert not frontend.is_running
        assert not frontend.service.is_running

    def test_drain_with_inflight_requests_is_bounded(self):
        typer = _StubTyper(delay=0.5)
        service = AnnotationService(typer, max_batch_delay=0.0)
        frontend = AnnotationFrontend(service, FrontendConfig(drain_timeout=0.15))

        async def drive():
            await frontend.start()
            host, port = frontend.address

            async def client():
                try:
                    return await _http_request(
                        host, port, "POST", "/annotate", {"table": _table().to_dict()}
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    return None

            request = asyncio.ensure_future(client())
            await asyncio.sleep(0.1)  # in flight on the executor
            started = time.monotonic()
            await frontend.shutdown()
            drain_seconds = time.monotonic() - started
            request.cancel()
            await asyncio.gather(request, return_exceptions=True)
            return drain_seconds

        drain_seconds = asyncio.run(drive())
        # Bounded by the 0.15 s drain budget, not the 0.5 s cascade.
        assert drain_seconds < 0.45
        assert frontend.last_drain_seconds <= 0.45

    def test_double_start_and_restart_rejected(self):
        typer = _StubTyper()
        service = AnnotationService(typer)
        frontend = AnnotationFrontend(service)

        async def drive():
            await frontend.start()
            with pytest.raises(ServingError):
                await frontend.start()
            await frontend.shutdown()
            with pytest.raises(ServingError):
                await frontend.start()

        asyncio.run(drive())

    def test_invalid_frontend_config(self):
        for kwargs in (
            {"tenant_rate": 0.0},
            {"tenant_burst": 0.0},
            {"max_pending_total": 0},
            {"default_deadline": 0.0},
            {"drain_timeout": -1.0},
        ):
            with pytest.raises(ConfigurationError):
                FrontendConfig(**kwargs).validate()
