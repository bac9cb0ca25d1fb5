"""Async annotation facade: request queue, micro-batching, per-customer routing.

The deployment the paper targets is a multi-tenant product annotating customer
tables online.  :class:`AnnotationService` is that serving shell around a
:class:`~repro.core.sigmatyper.SigmaTyper`: callers ``await
service.annotate(table, customer_id=...)`` concurrently, and a single worker
task drains the request queue.  The worker is work-conserving: it starts a
batch as soon as it is free, with whatever has already queued (up to
``max_batch_size``), and never waits for more.  It splits each batch into
per-customer groups and runs each group serially through ``annotate_corpus``
off the event loop.  Per-request results are identical to calling
``SigmaTyper.annotate`` directly — micro-batching only amortises shared work
(warm caches, one cascade pass per group), it never mixes customers: each
group is annotated with exactly the requester's ``customer_id``, so one
tenant's local model can never leak into another's predictions.

Requests may carry a **deadline**: ``annotate(table, deadline=0.25)`` gives
the request a 250 ms end-to-end budget.  A request that ages out while queued
is discarded by the worker *before* its group's cascade runs (expired work is
never computed), and the caller gets a typed
:class:`~repro.core.errors.DeadlineExceededError` the moment the budget
expires — not when the worker happens to reach it.  Client-side cancellation
(``asyncio.CancelledError`` in the awaiting task) is equally safe at any
point: the worker skips requests whose future is already settled, never
counts skipped work into batching or SLO latency statistics, and a group
whose every request was cancelled is not annotated at all.

Shutdown is graceful: :meth:`shutdown` stops accepting new requests, lets the
worker drain everything already enqueued, and fails any stragglers with
:class:`~repro.core.errors.ServingError`.  Pass ``drain_timeout`` to bound
the drain — past the deadline the worker is hard-cancelled and every still-
pending request fails with a typed
:class:`~repro.core.errors.ShutdownError` instead of hanging forever.

With an :class:`~repro.serving.slo.SloController` attached, the service also
feeds every served request's queue+batch latency to the controller, which
steps the cascade confidence threshold c down when the observed tail
breaches its budget (shallower, faster cascade) and recovers it as the queue
drains — see :mod:`repro.serving.slo` for the semantics and the explicit
parity caveat.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServingError,
    ShutdownError,
)
from repro.core.prediction import TablePrediction
from repro.core.table import Table
from repro.serving.slo import SloConfig, SloController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.sigmatyper import SigmaTyper

__all__ = ["AnnotationService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Aggregate counters describing the service's batching behaviour.

    Besides the request/batch totals, the stats carry per-batch wall-clock
    and per-request queue seconds.  Kernel and transport counters live in
    their own :func:`~repro.serving.stats.shared_sections`.
    """

    requests_total: int = 0
    batches_total: int = 0
    largest_batch: int = 0
    errors_total: int = 0
    rejected_total: int = 0
    #: Requests refused up front by admission control (front-end shedding);
    #: the front end mirrors its shed counters here so one summary() shows
    #: overload being managed.
    shed_total: int = 0
    #: Requests whose deadline expired before their group ran (discarded
    #: unexecuted) or whose caller stopped waiting past the budget.
    timed_out_total: int = 0
    #: Requests whose caller cancelled while they were queued or in flight.
    cancelled_total: int = 0
    #: Batches annotated while the SLO controller held the cascade threshold
    #: c below its baseline — the windows in which results may be shallower.
    degraded_batches: int = 0
    #: Current cascade confidence threshold c (None until a batch ran with an
    #: SLO controller attached; mirrors the controller's actuator state).
    confidence_threshold: float | None = None
    requests_by_customer: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent inside annotate calls, summed over batches.
    batch_seconds_total: float = 0.0
    #: Seconds requests spent queued (enqueue → their group's annotate call),
    #: summed over requests — the latency cost of coalescing.
    queue_seconds_total: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per cascade invocation."""
        return self.requests_total / self.batches_total if self.batches_total else 0.0

    @property
    def mean_batch_seconds(self) -> float:
        """Average annotate-call latency per batch."""
        return self.batch_seconds_total / self.batches_total if self.batches_total else 0.0

    @property
    def mean_queue_seconds(self) -> float:
        """Average time one request waited between enqueue and execution."""
        return self.queue_seconds_total / self.requests_total if self.requests_total else 0.0

    def record_batch(self, batch_size: int, customers: dict[str, int]) -> None:
        self.requests_total += batch_size
        self.batches_total += 1
        self.largest_batch = max(self.largest_batch, batch_size)
        for customer, count in customers.items():
            self.requests_by_customer[customer] = (
                self.requests_by_customer.get(customer, 0) + count
            )

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation for logs and benchmarks."""
        return {
            "requests_total": self.requests_total,
            "batches_total": self.batches_total,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "largest_batch": self.largest_batch,
            "errors_total": self.errors_total,
            "rejected_total": self.rejected_total,
            "shed_total": self.shed_total,
            "timed_out_total": self.timed_out_total,
            "cancelled_total": self.cancelled_total,
            "degraded_batches": self.degraded_batches,
            "confidence_threshold": self.confidence_threshold,
            "requests_by_customer": dict(self.requests_by_customer),
            "batch_seconds_total": round(self.batch_seconds_total, 4),
            "mean_batch_seconds": round(self.mean_batch_seconds, 4),
            "queue_seconds_total": round(self.queue_seconds_total, 4),
            "mean_queue_seconds": round(self.mean_queue_seconds, 4),
        }


class _Request:
    """One enqueued annotation request and the future its caller awaits."""

    __slots__ = ("table", "customer_id", "future", "enqueued_at", "deadline_at")

    def __init__(
        self,
        table: Table,
        customer_id: str | None,
        future: asyncio.Future,
        enqueued_at: float,
        deadline_at: float | None = None,
    ) -> None:
        self.table = table
        self.customer_id = customer_id
        self.future = future
        self.enqueued_at = enqueued_at
        #: Absolute ``time.monotonic()`` deadline, or None for no budget.
        self.deadline_at = deadline_at


#: Queue sentinel that tells the worker to finish draining and exit.
_STOP = object()

#: Stats key for requests without a customer (the shared global model).
_GLOBAL = "<global>"


class AnnotationService:
    """Asyncio serving facade over a :class:`SigmaTyper`.

    Parameters
    ----------
    typer:
        The (pretrained) system to serve.  Customer registration and feedback
        still go through the ``SigmaTyper`` API directly.
    max_batch_size:
        Upper bound on requests coalesced into one queue drain.  The worker
        takes only what has already queued when it becomes free; it never
        waits for a batch to fill.
    slo:
        Optional SLO control of the cascade confidence threshold c: pass an
        :class:`~repro.serving.slo.SloController` (or a
        :class:`~repro.serving.slo.SloConfig`, from which one is built around
        *typer*) and the service feeds it every served request's queue+batch
        latency; the controller steps c down when the observed tail breaches
        its budget and recovers it as load drains.  Degradation changes
        predictions (shallower cascade) — see :mod:`repro.serving.slo`.
    """

    def __init__(
        self,
        typer: "SigmaTyper",
        max_batch_size: int = 32,
        slo: "SloController | SloConfig | None" = None,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        self.typer = typer
        self.max_batch_size = max_batch_size
        if isinstance(slo, SloConfig):
            slo = SloController(typer, slo)
        if slo is not None and not isinstance(slo, SloController):
            raise ConfigurationError("slo must be an SloController, an SloConfig, or None")
        self.slo: SloController | None = slo
        self.stats = ServiceStats()
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._accepting = False

    # ---------------------------------------------------------------- lifecycle
    @property
    def is_running(self) -> bool:
        """Whether the worker task is up and the service accepts requests."""
        return self._accepting and self._worker is not None

    async def start(self) -> "AnnotationService":
        """Start the queue worker (idempotent only before :meth:`shutdown`)."""
        if self._worker is not None:
            raise ServingError("AnnotationService is already running")
        self._queue = asyncio.Queue()
        self._accepting = True
        self._worker = asyncio.get_running_loop().create_task(self._worker_loop())
        return self

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Stop accepting requests, drain everything enqueued, stop the worker.

        With ``drain_timeout=None`` (the default) the drain is unbounded: the
        worker finishes every batch already enqueued, however long that
        takes.  With a timeout, the drain is given that many seconds and then
        **hard-cancelled**: the worker task is cancelled (an in-flight
        cascade finishes on its executor thread but its results are
        dropped), and every request still pending — in flight or queued —
        fails with a typed :class:`ShutdownError` instead of hanging on a
        future nobody will resolve.  Either way the call returns with the
        worker stopped and the queue empty.
        """
        if self._worker is None:
            return
        if drain_timeout is not None and drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be non-negative")
        self._accepting = False
        assert self._queue is not None
        await self._queue.put(_STOP)
        try:
            if drain_timeout is None:
                await self._worker
            else:
                try:
                    # wait_for cancels the worker on timeout and awaits its
                    # cancellation handler (_process_batch fails the in-flight
                    # group's futures with ShutdownError before re-raising).
                    await asyncio.wait_for(self._worker, drain_timeout)
                except asyncio.TimeoutError:
                    pass
        finally:
            self._worker = None
            # Anything that raced past the accepting flag after the sentinel
            # was enqueued — or was abandoned by a hard-cancelled drain — can
            # no longer be served.
            while not self._queue.empty():
                leftover = self._queue.get_nowait()
                if leftover is _STOP:
                    continue
                if not leftover.future.done():
                    leftover.future.set_exception(
                        ShutdownError("AnnotationService shut down before serving this request")
                    )
                self.stats.rejected_total += 1
            self._queue = None

    async def __aenter__(self) -> "AnnotationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # ----------------------------------------------------------------- requests
    async def annotate(
        self,
        table: Table,
        customer_id: str | None = None,
        deadline: float | None = None,
    ) -> TablePrediction:
        """Annotate one table; identical to ``SigmaTyper.annotate`` per request.

        *deadline* is the request's end-to-end latency budget in seconds
        (``None`` = unbounded, the default).  When the budget expires the
        caller gets a :class:`DeadlineExceededError` immediately and the
        worker discards the request before (or without) running its cascade;
        a result is never silently computed past its deadline.
        """
        if not self._accepting or self._queue is None:
            self.stats.rejected_total += 1
            raise ServingError("AnnotationService is not accepting requests")
        if deadline is not None and deadline < 0:
            raise ConfigurationError("deadline must be non-negative")
        now = time.monotonic()
        deadline_at = now + deadline if deadline is not None else None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Request(table, customer_id, future, now, deadline_at))
        if deadline_at is None:
            return await future
        try:
            return await asyncio.wait_for(future, max(0.0, deadline_at - time.monotonic()))
        except asyncio.TimeoutError:
            # wait_for already cancelled the future, so the worker will skip
            # the request when it reaches it (counted there as cancelled, not
            # here — this is the one place the timeout is accounted).
            self.stats.timed_out_total += 1
            raise DeadlineExceededError(
                f"request exceeded its {deadline:.3f}s latency budget"
            ) from None

    # ------------------------------------------------------------------- worker
    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            request = await self._queue.get()
            if request is _STOP:
                break
            # Work-conserving: coalesce only what already queued, never wait.
            batch = [request]
            stop_after_batch = False
            while len(batch) < self.max_batch_size:
                try:
                    next_request = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if next_request is _STOP:
                    stop_after_batch = True
                    break
                batch.append(next_request)
            await self._process_batch(batch)
            if stop_after_batch:
                break

    def _discard_settled(self, requests: list[_Request], now: float) -> list[_Request]:
        """Drop requests that can no longer be served, settling their futures.

        A request whose future is already done was cancelled (or timed out)
        client-side; one whose deadline has passed is failed with a typed
        :class:`DeadlineExceededError` *without* running the cascade.  Either
        way the request never reaches annotate, never contributes queue time,
        and never feeds the SLO controller — cancellations cannot skew
        latency observations.
        """
        live: list[_Request] = []
        for request in requests:
            if request.future.done():
                # Count client-side timeouts where they were raised (annotate);
                # everything else settled early is a genuine cancellation.
                if request.deadline_at is None or now < request.deadline_at:
                    self.stats.cancelled_total += 1
                continue
            if request.deadline_at is not None and now >= request.deadline_at:
                request.future.set_exception(
                    DeadlineExceededError("request expired while queued")
                )
                self.stats.timed_out_total += 1
                continue
            live.append(request)
        return live

    async def _process_batch(self, batch: list[_Request]) -> None:
        loop = asyncio.get_running_loop()
        batch = self._discard_settled(batch, time.monotonic())
        if not batch:
            return
        groups: dict[str | None, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.customer_id, []).append(request)
        self.stats.record_batch(
            len(batch),
            {customer_id if customer_id is not None else _GLOBAL: len(requests)
             for customer_id, requests in groups.items()},
        )
        for customer_id, requests in groups.items():
            # Re-check right before dispatch: earlier groups' annotate calls
            # consumed wall-clock this group's stragglers may not have had.
            requests = self._discard_settled(requests, time.monotonic())
            if not requests:
                continue
            tables = [request.table for request in requests]
            annotate = partial(self.typer.annotate_corpus, tables, customer_id=customer_id)
            degraded = self.slo is not None and self.slo.is_degraded
            started = time.monotonic()
            for request in requests:
                self.stats.queue_seconds_total += started - request.enqueued_at
            try:
                predictions = await loop.run_in_executor(None, annotate)
            except asyncio.CancelledError:
                # Hard-cancelled mid-flight (bounded shutdown drain): fail the
                # group's callers with a typed error instead of leaving them
                # awaiting futures nobody will resolve.  The executor thread
                # finishes its cascade in the background; its result is
                # dropped.
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(
                            ShutdownError("request cancelled by shutdown drain deadline")
                        )
                raise
            except Exception as exc:  # noqa: BLE001 - surfaced per request
                self.stats.errors_total += len(requests)
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(
                            ServingError(f"annotation failed: {exc}")
                        )
                continue
            finally:
                elapsed = time.monotonic() - started
                self.stats.batch_seconds_total += elapsed
                if degraded:
                    self.stats.degraded_batches += 1
                if self.slo is not None:
                    for request in requests:
                        self.slo.observe((started - request.enqueued_at) + elapsed)
                    self.slo.maybe_adjust()
                    self.stats.confidence_threshold = self.slo.current
            for request, prediction in zip(requests, predictions):
                if not request.future.done():
                    request.future.set_result(prediction)

    # ------------------------------------------------------------------- report
    def summary(self) -> dict[str, object]:
        """Service-level report: running state, batch size cap, stats.

        ``service`` holds this component's own counters, ``slo`` the attached
        controller's snapshot, and :func:`~repro.serving.stats.shared_sections`
        the process-wide ones (docs/SERVING.md#stats-vocabulary).
        """
        from repro.serving.stats import shared_sections

        report: dict[str, object] = {
            "running": self.is_running,
            "max_batch_size": self.max_batch_size,
            "service": self.stats.to_dict(),
        }
        if self.slo is not None:
            report["slo"] = self.slo.snapshot()
        report.update(shared_sections())
        return report
