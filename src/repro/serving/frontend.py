"""SLO-aware serving front end: the service boundary that manages overload.

:class:`AnnotationFrontend` puts a real network edge — a dependency-free
asyncio HTTP/1.1 server — in front of an
:class:`~repro.serving.service.AnnotationService`, and makes overload a
*managed* state instead of an unbounded queue:

* **Admission control.**  Every request passes a per-tenant token bucket
  (sustained rate + burst) and bounded pending counters (per tenant and
  global) *before* it may enqueue.  Excess load is shed immediately with a
  typed :class:`~repro.core.errors.OverloadedError` carrying a concrete
  ``retry_after`` — over HTTP, a ``429`` with a ``Retry-After`` header —
  so one hot tenant saturates its own budget, never the shared queue.
* **Deadline propagation.**  A request may carry an end-to-end latency
  budget (``deadline_ms`` in the JSON body, the ``X-Latency-Budget-Ms``
  header, or the configured default); it rides into
  ``AnnotationService.annotate(deadline=...)``, where expired requests are
  discarded before their cascade runs and callers get a typed
  :class:`~repro.core.errors.DeadlineExceededError` (HTTP ``504``).
* **Graceful drain.**  :meth:`shutdown` (or SIGTERM via
  :meth:`install_signal_handlers`) stops accepting new work, gives in-flight
  requests a bounded drain deadline, and hard-cancels past it — idle
  keep-alive connections are closed immediately, busy ones finish their
  current response, and the wrapped service's own bounded drain fails any
  survivor with a typed :class:`~repro.core.errors.ShutdownError`.

Pair the front end with an :class:`~repro.serving.slo.SloController` on the
service and the whole edge closes the loop the E10 experiment measured:
shedding keeps the queue bounded, the controller trades cascade depth for
latency while the breach lasts, and stats journal both so operators can see
overload being managed (see docs/SERVING.md, "Front end & SLOs").

The admission path is usable without sockets — :meth:`submit` applies the
same token bucket, pending bounds, and deadline plumbing for in-process
callers and tests; the HTTP layer is a thin codec over it.
"""

from __future__ import annotations

import asyncio
import json
import signal as signal_module
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ShutdownError,
)
from repro.core.prediction import TablePrediction
from repro.core.table import Table
from repro.serving.service import AnnotationService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.pool import AnnotationPool

__all__ = ["AnnotationFrontend", "FrontendConfig", "FrontendStats", "TokenBucket"]

#: Admission-state key for requests without a customer id.
_GLOBAL = "<global>"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class TokenBucket:
    """A per-tenant token bucket: sustained ``rate``/s with ``burst`` headroom.

    Refill happens lazily on acquisition from the injected monotonic clock,
    so an idle bucket costs nothing and tests can drive time explicitly.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst < 1:
            raise ConfigurationError("token bucket burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated: float | None = None

    def acquire(self, now: float) -> float:
        """Take one token; 0.0 on success, else seconds until one is available."""
        if self.updated is not None:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class FrontendConfig:
    """Network, admission, deadline, and drain knobs of the front end."""

    host: str = "127.0.0.1"
    #: Port to bind (0 = ephemeral; the bound port is in ``frontend.address``).
    port: int = 0
    #: Sustained per-tenant request rate (requests/second); None = unlimited.
    tenant_rate: float | None = None
    #: Per-tenant burst headroom on top of the sustained rate.
    tenant_burst: float = 8.0
    #: Pending (admitted, unfinished) requests allowed per tenant.
    max_pending_per_tenant: int = 64
    #: Pending requests allowed across all tenants — the global queue bound.
    max_pending_total: int = 256
    #: Latency budget (seconds) applied when a request carries none;
    #: None = unbounded requests by default.
    default_deadline: float | None = None
    #: Seconds :meth:`AnnotationFrontend.shutdown` gives the drain before
    #: hard-cancelling in-flight work.
    drain_timeout: float = 5.0
    #: Per-read socket timeout while parsing one request (slow-client guard).
    request_timeout: float = 30.0
    #: Seconds an idle keep-alive connection may wait for its next request.
    keepalive_timeout: float = 30.0
    #: Largest accepted request body.
    max_body_bytes: int = 8 << 20

    def validate(self) -> "FrontendConfig":
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ConfigurationError("tenant_rate must be positive (or None)")
        if self.tenant_burst < 1:
            raise ConfigurationError("tenant_burst must be at least 1")
        if self.max_pending_per_tenant < 1 or self.max_pending_total < 1:
            raise ConfigurationError("pending bounds must be at least 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError("default_deadline must be positive (or None)")
        if self.drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be non-negative")
        if self.request_timeout <= 0 or self.keepalive_timeout <= 0:
            raise ConfigurationError("timeouts must be positive")
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be positive")
        return self


@dataclass
class FrontendStats:
    """Edge-level counters: what was admitted, shed, timed out, or refused."""

    connections: int = 0
    #: Requests that passed admission control.
    admitted: int = 0
    #: Admitted requests that returned a prediction.
    completed: int = 0
    #: Requests shed by a tenant's token bucket.
    shed_rate_limited: int = 0
    #: Requests shed because a pending bound (tenant or global) was full.
    shed_queue_full: int = 0
    #: Requests refused because the front end was draining or stopped.
    rejected_draining: int = 0
    #: Admitted requests whose latency budget expired.
    timed_out: int = 0
    #: Admitted requests that failed for any other reason.
    failed: int = 0
    responses_by_status: dict[int, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return self.shed_rate_limited + self.shed_queue_full

    def record_response(self, status: int) -> None:
        self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1

    def to_dict(self) -> dict[str, object]:
        return {
            "connections": self.connections,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed_total": self.shed_total,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_queue_full": self.shed_queue_full,
            "rejected_draining": self.rejected_draining,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "responses_by_status": {
                str(status): count for status, count in sorted(self.responses_by_status.items())
            },
        }


class AnnotationFrontend:
    """Asyncio HTTP front end over an :class:`AnnotationService` (or pool).

    The frontend owns the network edge and the admission state; the wrapped
    service owns batching and execution.  If the service is not yet running,
    :meth:`start` starts it.  :meth:`shutdown` always propagates its bounded
    drain to the service — a drained edge over a still-queueing service
    would recreate exactly the unbounded queue this class exists to remove.

    ``pool=`` swaps the single in-process service for an
    :class:`~repro.serving.pool.AnnotationPool` — the same token-bucket,
    queue-bound, deadline, and drain edge then feeds N worker processes
    with least-loaded routing, and the pool's stats section rides into
    ``/stats`` and :meth:`summary`.

    Endpoints: ``POST /annotate`` (JSON ``{"table": <Table.to_dict()>,
    "customer_id": ..., "deadline_ms": ...}`` → ``TablePrediction.to_dict()``),
    ``GET /healthz``, ``GET /stats``.
    """

    def __init__(
        self,
        service: "AnnotationService | None" = None,
        config: "FrontendConfig | None" = None,
        *,
        pool: "AnnotationPool | None" = None,
    ) -> None:
        if (service is None) == (pool is None):
            raise ConfigurationError(
                "AnnotationFrontend drives exactly one of service= or pool="
            )
        # The pool duck-types the service surface the edge relies on
        # (is_running/start/annotate/shutdown/stats/summary), so the whole
        # admission, deadline, and drain machinery below drives either.
        self._service = service if service is not None else pool
        self.config = (config or FrontendConfig()).validate()
        self.stats = FrontendStats()
        self._server: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self._draining = False
        self._buckets: dict[str, TokenBucket] = {}
        self._pending: dict[str, int] = {}
        self._pending_total = 0
        self._handlers: set[asyncio.Task] = set()
        self._idle_writers: set[asyncio.StreamWriter] = set()
        self._installed_signals: list[int] = []
        self._drain_task: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None
        #: Wall-clock seconds the last completed drain took (for benchmarks).
        self.last_drain_seconds: float | None = None

    # ---------------------------------------------------------------- lifecycle
    @property
    def service(self) -> "AnnotationService | AnnotationPool":
        """The wrapped component (the pool, in ``pool=`` mode)."""
        return self._service

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises until :meth:`start` has run."""
        if self._port is None:
            raise ServingError("AnnotationFrontend is not running")
        return self.config.host, self._port

    @property
    def is_running(self) -> bool:
        return self._server is not None and not self._draining

    async def start(self) -> "AnnotationFrontend":
        if self._server is not None:
            raise ServingError("AnnotationFrontend is already running")
        if self._draining:
            raise ServingError("AnnotationFrontend cannot restart after draining")
        if not self._service.is_running:
            await self._service.start()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal_module.SIGTERM, signal_module.SIGINT)
    ) -> None:
        """Drain on SIGTERM/SIGINT: the Unix stop signal becomes a bounded drain."""
        loop = asyncio.get_running_loop()
        for signum in signals:
            loop.add_signal_handler(signum, self._drain_from_signal)
            self._installed_signals.append(signum)

    def _drain_from_signal(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(self.shutdown())

    async def wait_drained(self, timeout: float | None = None) -> None:
        """Block until a (signal-initiated or direct) shutdown has completed."""
        if self._drained is None:
            raise ServingError("AnnotationFrontend was never started")
        await asyncio.wait_for(self._drained.wait(), timeout)

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Stop accepting, drain in-flight work, hard-cancel past the deadline.

        The drain budget (*drain_timeout*, default ``config.drain_timeout``)
        covers the whole sequence: close the listener, let busy connections
        finish their current request, cancel whatever is still running at
        the deadline, and give the wrapped service the remaining budget for
        its own bounded drain.  Idempotent; concurrent calls coalesce.
        """
        if self._draining:
            if self._drained is not None:
                await self._drained.wait()
            return
        self._draining = True
        budget = self.config.drain_timeout if drain_timeout is None else drain_timeout
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + budget
        try:
            server, self._server = self._server, None
            if server is not None:
                server.close()
                await server.wait_closed()
            # Idle keep-alive connections are parked in readline; closing the
            # transport EOFs them out immediately so an empty frontend drains
            # in milliseconds, not in drain_timeout.
            for writer in list(self._idle_writers):
                writer.close()
            current = asyncio.current_task()
            pending = [t for t in self._handlers if not t.done() and t is not current]
            if pending:
                _, unfinished = await asyncio.wait(
                    pending, timeout=max(0.0, deadline - loop.time())
                )
                for task in unfinished:
                    task.cancel()
                if unfinished:
                    await asyncio.gather(*unfinished, return_exceptions=True)
            await self._service.shutdown(
                drain_timeout=max(0.0, deadline - loop.time())
            )
        finally:
            for signum in self._installed_signals:
                try:
                    loop.remove_signal_handler(signum)
                except (ValueError, RuntimeError):  # pragma: no cover - teardown race
                    pass
            self._installed_signals.clear()
            self.last_drain_seconds = loop.time() - started
            if self._drained is not None:
                self._drained.set()

    async def __aenter__(self) -> "AnnotationFrontend":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # ---------------------------------------------------------------- admission
    def _retry_hint(self) -> float:
        """Back-off hint for queue-full sheds: about one batch's latency."""
        return max(0.05, self._service.stats.mean_batch_seconds)

    def _admit(self, customer_id: str | None) -> str:
        """Pass admission control or raise; returns the tenant's pending key."""
        if self._draining or not self._service.is_running:
            self.stats.rejected_draining += 1
            raise ServingError("front end is draining")
        key = customer_id if customer_id is not None else _GLOBAL
        if self._pending_total >= self.config.max_pending_total:
            self.stats.shed_queue_full += 1
            self._service.stats.shed_total += 1
            raise OverloadedError(
                "service pending queue is full", retry_after=self._retry_hint()
            )
        if self._pending.get(key, 0) >= self.config.max_pending_per_tenant:
            self.stats.shed_queue_full += 1
            self._service.stats.shed_total += 1
            raise OverloadedError(
                f"tenant {key!r} pending queue is full", retry_after=self._retry_hint()
            )
        if self.config.tenant_rate is not None:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = TokenBucket(
                    self.config.tenant_rate, self.config.tenant_burst
                )
            wait = bucket.acquire(time.monotonic())
            if wait > 0.0:
                self.stats.shed_rate_limited += 1
                self._service.stats.shed_total += 1
                # Floor the hint at 1ms so it survives the header's 3-decimal
                # rendering as a positive backoff.
                raise OverloadedError(
                    f"tenant {key!r} exceeded its request rate",
                    retry_after=max(wait, 0.001),
                )
        return key

    async def submit(
        self,
        table: Table,
        customer_id: str | None = None,
        deadline: float | None = None,
    ) -> TablePrediction:
        """Admission-controlled annotate: the HTTP path without the HTTP.

        Applies the same shedding, pending bounds, and deadline default as
        ``POST /annotate`` and forwards to the wrapped service.  Raises
        :class:`OverloadedError` (shed — retry later),
        :class:`DeadlineExceededError` (accepted but out of time), or
        :class:`ServingError` (draining / failed).
        """
        key = self._admit(customer_id)
        if deadline is None:
            deadline = self.config.default_deadline
        self.stats.admitted += 1
        self._pending_total += 1
        self._pending[key] = self._pending.get(key, 0) + 1
        try:
            prediction = await self._service.annotate(
                table, customer_id=customer_id, deadline=deadline
            )
        except DeadlineExceededError:
            self.stats.timed_out += 1
            raise
        except Exception:
            self.stats.failed += 1
            raise
        else:
            self.stats.completed += 1
            return prediction
        finally:
            self._pending_total -= 1
            remaining = self._pending.get(key, 1) - 1
            if remaining > 0:
                self._pending[key] = remaining
            else:
                self._pending.pop(key, None)

    # -------------------------------------------------------------------- HTTP
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        self.stats.connections += 1
        try:
            while not self._draining:
                self._idle_writers.add(writer)
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), self.config.keepalive_timeout
                    )
                except asyncio.TimeoutError:
                    break
                except ValueError:  # longer than the stream limit
                    await self._respond(writer, 400, {"error": "request line too long"})
                    break
                finally:
                    self._idle_writers.discard(writer)
                if not request_line or self._draining:
                    break
                keep_alive = await self._handle_request(request_line, reader, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._idle_writers.discard(writer)
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client race
                pass

    async def _handle_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Parse and serve one HTTP request; returns keep-alive eligibility."""
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return False
        method, path, _version = parts
        headers: dict[str, str] = {}
        try:
            while True:
                line = await asyncio.wait_for(reader.readline(), self.config.request_timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # a header line longer than the stream limit
            await self._respond(writer, 400, {"error": "header line too long"})
            return False
        except asyncio.TimeoutError:
            await self._respond(writer, 408, {"error": "request headers timed out"})
            return False
        try:
            content_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            content_length = -1
        if content_length < 0:
            await self._respond(writer, 400, {"error": "invalid Content-Length"})
            return False
        if content_length > self.config.max_body_bytes:
            await self._respond(writer, 413, {"error": "request body too large"})
            return False
        body = b""
        if content_length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(content_length), self.config.request_timeout
                )
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "request body timed out"})
                return False
        status, payload, extra = await self._route(method, path, headers, body)
        keep_alive = headers.get("connection", "").lower() != "close" and not self._draining
        await self._respond(writer, status, payload, extra, keep_alive=keep_alive)
        return keep_alive

    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, {
                "status": "draining" if self._draining else "ok",
                "accepting": self.is_running and self._service.is_running,
            }, {}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, self.summary(), {}
        if path == "/annotate":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return await self._route_annotate(headers, body)
        return 404, {"error": f"no such endpoint: {path}"}, {}

    async def _route_annotate(
        self, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return 400, {"error": "request body is not valid JSON"}, {}
        if not isinstance(payload, dict) or not isinstance(payload.get("table"), dict):
            return 400, {"error": 'request JSON must carry a "table" object'}, {}
        customer_id = payload.get("customer_id")
        if customer_id is not None and not isinstance(customer_id, str):
            return 400, {"error": "customer_id must be a string"}, {}
        deadline_ms = payload.get("deadline_ms", headers.get("x-latency-budget-ms"))
        deadline: float | None = None
        if deadline_ms is not None:
            try:
                deadline = float(deadline_ms) / 1000.0
            except (TypeError, ValueError):
                return 400, {"error": "deadline_ms must be a number"}, {}
            if deadline <= 0:
                return 400, {"error": "deadline_ms must be positive"}, {}
        try:
            table = Table.from_dict(payload["table"])
        except Exception as exc:  # noqa: BLE001 - malformed client payloads
            return 400, {"error": f"invalid table payload: {exc}"}, {}
        try:
            prediction = await self.submit(table, customer_id=customer_id, deadline=deadline)
        except OverloadedError as exc:
            return 429, {
                "error": "overloaded",
                "detail": str(exc),
                "retry_after_seconds": round(exc.retry_after, 4),
            }, {"Retry-After": f"{exc.retry_after:.3f}"}
        except DeadlineExceededError as exc:
            return 504, {"error": "deadline_exceeded", "detail": str(exc)}, {}
        except ShutdownError as exc:
            return 503, {"error": "shutting_down", "detail": str(exc)}, {}
        except ServingError as exc:
            if self._draining or not self._service.is_running:
                return 503, {"error": "draining", "detail": str(exc)}, {}
            return 500, {"error": "annotation_failed", "detail": str(exc)}, {}
        return 200, prediction.to_dict(), {}

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = False,
    ) -> None:
        self.stats.record_response(status)
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------- report
    def summary(self) -> dict[str, object]:
        """Edge + service report: admission counters, drain state, SLO, stats.

        ``frontend`` is the edge's own section; ``service`` nests the wrapped
        component's own ``summary()`` (a pool's, in ``pool=`` mode — its
        dispatcher section then also appears under ``pool``).
        """
        report: dict[str, object] = {
            "running": self.is_running,
            "draining": self._draining,
            "address": list(self.address) if self._port is not None else None,
            "pending_total": self._pending_total,
            "pending_by_tenant": dict(self._pending),
            "frontend": self.stats.to_dict(),
            "service": self._service.summary(),
        }
        pool_section = report["service"].get("pool") if isinstance(report["service"], dict) else None
        if pool_section is not None:
            report["pool"] = pool_section
        return report
