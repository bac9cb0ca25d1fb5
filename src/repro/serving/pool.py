"""Worker pool: N annotation processes behind one stateless dispatcher.

:class:`AnnotationPool` is the multi-process sibling of
:class:`~repro.serving.service.AnnotationService` — same request surface
(``start`` / ``annotate`` / ``shutdown`` / ``summary``), so
:class:`~repro.serving.frontend.AnnotationFrontend` drives either one
unchanged (its ``pool=`` mode).  Underneath, the pool forks N worker
processes, each hosting its own :class:`AnnotationService` over its own
in-memory :class:`~repro.serving.profile_store.ProfileStore` (built from the
pool's :class:`~repro.serving.spec.StoreSpec`), and routes every request
with **content affinity**:

* **Rendezvous routing.**  Each table is keyed by its smallest
  ``Column.content_hash()`` and placed by rendezvous (highest-random-weight)
  hashing over the live worker slots, so the same content always lands on
  the same worker — and finds its derived state warm there — with no
  routing state to keep or recover.
* **Load-balance escape hatch.**  When the chosen worker's queue depth
  reaches ``queue_depth_bound`` the request escapes to the least-loaded
  worker — affinity is a preference, not a hostage situation.
* **Supervision.**  A heartbeat task pings every worker and watches process
  liveness; a dead worker (crash, SIGKILL) is detected, its exit code
  collected, a replacement forked into the same slot, and every request
  that was in flight on it re-dispatched — callers never observe the death,
  and results stay bit-identical to a single-process run (derived state is
  deterministic; a cold store only costs recomputation).

Workers speak the SGN1 frame protocol of :mod:`repro.serving.net`
(``MSG_POOL_*`` messages, pickled payloads) over inherited socketpairs; the
``fork`` start method ships the typer by inheritance, so nothing is pickled
at spawn time.  Deadlines travel as absolute ``time.monotonic()`` values —
``CLOCK_MONOTONIC`` is system-wide on Linux, so parent and workers compare
against the same clock.

Configuration is the typed :class:`~repro.serving.spec.PoolSpec` /
:class:`~repro.serving.spec.ServingSpec` (or their string forms,
``"pool:4"`` / ``"pool:4@serial"``).  See docs/SERVING.md#worker-pool for
the operator guide and restart runbook.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import count
from typing import TYPE_CHECKING

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServingError,
    ShutdownError,
)
from repro.serving.net import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MSG_POOL_ERROR,
    MSG_POOL_PING,
    MSG_POOL_PONG,
    MSG_POOL_REQUEST,
    MSG_POOL_RESULT,
    FrameError,
)
from repro.serving.spec import PoolSpec, ServingSpec, StoreSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sigmatyper import SigmaTyper
    from repro.core.table import Table, TablePrediction
    from repro.serving.slo import SloConfig

__all__ = ["AnnotationPool", "PoolStats"]

#: Upper bound on one dispatcher<->worker frame (tables and predictions are
#: small; this is a corruption guard, not a quota).
_MAX_POOL_MESSAGE_BYTES = 64 << 20

#: Seconds a clean shutdown waits for one worker process to exit after its
#: socket EOF before escalating to terminate().
_JOIN_TIMEOUT = 5.0


# -------------------------------------------------------------------- routing
def _rendezvous_slot(key: str, slots: list[int]) -> int:
    """Highest-random-weight choice: same key → same slot, no coordination."""
    best_slot = slots[0]
    best_score = -1
    for slot in slots:
        digest = blake2b(f"{key}|{slot}".encode("utf-8"), digest_size=8).digest()
        score = int.from_bytes(digest, "big")
        if score > best_score:
            best_slot, best_score = slot, score
    return best_slot


# ----------------------------------------------------------------- pool stats
@dataclass
class PoolStats:
    """Aggregate dispatcher counters (the ``pool`` section of every report)."""

    requests_total: int = 0
    completed_total: int = 0
    errors_total: int = 0
    rejected_total: int = 0
    #: Requests refused up front by the front end's admission control; the
    #: front end mirrors its shed counters here (same contract as
    #: :class:`~repro.serving.service.ServiceStats`).
    shed_total: int = 0
    timed_out_total: int = 0
    #: Rendezvous routings overridden by the load-balance hatch (queue too
    #: deep).
    escapes: int = 0
    #: In-flight requests re-sent to a replacement after a worker died.
    redispatches: int = 0
    #: Replacement workers forked into a dead worker's slot.
    restarts: int = 0
    worker_deaths: int = 0
    #: Wall-clock seconds from dispatch to completion, summed over requests.
    request_seconds_total: float = 0.0
    #: Per-slot snapshot (pid, liveness, queue depth, exit code, and the
    #: worker's own service and store stats from its last heartbeat pong)
    #: refreshed by the heartbeat loop and ``summary()``.
    per_worker: dict[int, dict] = field(default_factory=dict)

    @property
    def mean_request_seconds(self) -> float:
        return (
            self.request_seconds_total / self.completed_total if self.completed_total else 0.0
        )

    @property
    def mean_batch_seconds(self) -> float:
        """Alias the front end's retry hint reads (per-request latency here)."""
        return self.mean_request_seconds

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation for logs and benchmarks."""
        return {
            "requests_total": self.requests_total,
            "completed_total": self.completed_total,
            "errors_total": self.errors_total,
            "rejected_total": self.rejected_total,
            "shed_total": self.shed_total,
            "timed_out_total": self.timed_out_total,
            "escapes": self.escapes,
            "redispatches": self.redispatches,
            "restarts": self.restarts,
            "worker_deaths": self.worker_deaths,
            "request_seconds_total": round(self.request_seconds_total, 4),
            "mean_request_seconds": round(self.mean_request_seconds, 4),
            "per_worker": {slot: dict(info) for slot, info in sorted(self.per_worker.items())},
        }


# -------------------------------------------------------------- frame helpers
async def _read_frame_async(
    reader: asyncio.StreamReader, max_message_bytes: int = _MAX_POOL_MESSAGE_BYTES
):
    """One SGN1 frame from a stream; ``None`` on clean EOF between frames."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("torn frame header") from exc
    try:
        magic, msg_type, length, crc = FRAME_HEADER.unpack(header)
    except struct.error as exc:  # pragma: no cover - size is exact
        raise FrameError("unreadable frame header") from exc
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > max_message_bytes:
        raise FrameError(f"frame of {length} bytes exceeds max_message_bytes")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("torn frame payload") from exc
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame crc mismatch (corrupt payload)")
    return msg_type, payload


async def _write_message(
    writer: asyncio.StreamWriter, lock: asyncio.Lock, msg_type: int, message: dict
) -> None:
    """Frame and send one pickled message (writes serialized per stream)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = FRAME_HEADER.pack(
        FRAME_MAGIC, msg_type, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    async with lock:
        writer.write(header + payload)
        await writer.drain()


# ----------------------------------------------------------------- child side
def _pool_worker_main(
    child_sock: socket.socket,
    slot: int,
    typer: "SigmaTyper",
    service_kwargs: dict,
    store_spec: StoreSpec,
    close_fds: list[int],
) -> None:
    """Forked worker entry point: drop inherited fds, serve until EOF."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        asyncio.run(_worker_serve(child_sock, slot, typer, service_kwargs, store_spec))
    finally:
        try:
            child_sock.close()
        except OSError:
            pass


async def _worker_serve(
    child_sock: socket.socket,
    slot: int,
    typer: "SigmaTyper",
    service_kwargs: dict,
    store_spec: StoreSpec,
) -> None:
    """Host one :class:`AnnotationService` behind the pool frame protocol."""
    from repro.serving.service import AnnotationService

    store = store_spec.build().activate()
    service = AnnotationService(typer, **service_kwargs)
    await service.start()
    reader, writer = await asyncio.open_connection(sock=child_sock)
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    try:
        while True:
            try:
                frame = await _read_frame_async(reader)
            except (FrameError, ConnectionError, OSError):
                break
            if frame is None:
                break
            msg_type, payload = frame
            if msg_type == MSG_POOL_PING:
                pong = {
                    "slot": slot,
                    "pid": os.getpid(),
                    "service": service.stats.to_dict(),
                    "store": store.stats(),
                }
                await _write_message(writer, write_lock, MSG_POOL_PONG, pong)
            elif msg_type == MSG_POOL_REQUEST:
                request = pickle.loads(payload)
                task = asyncio.get_running_loop().create_task(
                    _serve_one(service, request, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
    finally:
        # EOF from the dispatcher is the drain signal: the parent only closes
        # its end once every in-flight request is settled, so normally there
        # is nothing left to await here — the gather is crash-path defence.
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            writer.close()
        except OSError:
            pass
        await service.shutdown()


async def _serve_one(
    service, request: dict, writer: asyncio.StreamWriter, lock: asyncio.Lock
) -> None:
    """Run one dispatched request and ship its result (or typed error) back."""
    request_id = request["id"]
    deadline_at = request.get("deadline_at")
    deadline = None
    if deadline_at is not None:
        deadline = max(0.0, deadline_at - time.monotonic())
    try:
        prediction = await service.annotate(
            request["table"], customer_id=request.get("customer_id"), deadline=deadline
        )
    except DeadlineExceededError as exc:
        reply = (MSG_POOL_ERROR, {"id": request_id, "kind": "deadline", "message": str(exc)})
    except ShutdownError as exc:
        reply = (MSG_POOL_ERROR, {"id": request_id, "kind": "shutdown", "message": str(exc)})
    except Exception as exc:  # noqa: BLE001 - surfaced to the dispatcher per request
        reply = (MSG_POOL_ERROR, {"id": request_id, "kind": "serving", "message": str(exc)})
    else:
        reply = (MSG_POOL_RESULT, {"id": request_id, "prediction": prediction})
    try:
        await _write_message(writer, lock, *reply)
    except (ConnectionError, OSError):
        pass  # dispatcher gone; its death handling owns the request now


# ---------------------------------------------------------------- parent side
class _PoolRequest:
    """One dispatched request and the future its caller awaits."""

    __slots__ = ("id", "table", "customer_id", "deadline_at", "future", "enqueued_at")

    def __init__(self, request_id, table, customer_id, deadline_at, future, enqueued_at):
        self.id = request_id
        self.table = table
        self.customer_id = customer_id
        self.deadline_at = deadline_at
        self.future = future
        self.enqueued_at = enqueued_at

    def payload(self) -> dict:
        return {
            "id": self.id,
            "table": self.table,
            "customer_id": self.customer_id,
            "deadline_at": self.deadline_at,
        }


class _Worker:
    """Parent-side handle for one worker process."""

    def __init__(self, slot, process, parent_sock, reader, writer, write_lock):
        self.slot = slot
        self.process = process
        self.parent_sock = parent_sock
        self.reader = reader
        self.writer = writer
        self.write_lock = write_lock
        self.reader_task: asyncio.Task | None = None
        #: request id → in-flight :class:`_PoolRequest` (the queue depth).
        self.inflight: dict[int, _PoolRequest] = {}
        #: Set once the worker is being retired (clean shutdown or death);
        #: makes the EOF path and the heartbeat path race-free.
        self.retired = False
        self.last_pong: dict | None = None
        self.exitcode: int | None = None


class AnnotationPool:
    """N forked :class:`AnnotationService` workers behind one dispatcher.

    Same request surface as the service it multiplies —
    :attr:`is_running` / :meth:`start` / :meth:`annotate` / :meth:`shutdown`
    / :meth:`summary` — so :class:`~repro.serving.frontend.AnnotationFrontend`
    accepts one via its ``pool=`` keyword.  See the module docstring for the
    routing and supervision design.

    Parameters
    ----------
    typer:
        The (pretrained) system every worker serves, shipped by fork
        inheritance — workers produce bit-identical predictions to calling
        ``typer.annotate`` directly.
    workers:
        Worker count, or the typed/string spec forms: a
        :class:`~repro.serving.spec.PoolSpec` (routing knobs), a
        :class:`~repro.serving.spec.ServingSpec` or string (``"pool:4"``,
        ``"pool:4@serial"`` — the backend part becomes each worker's
        in-process execution backend).
    store:
        Optional :class:`~repro.serving.spec.StoreSpec` sizing each worker's
        in-memory profile store (default: ``StoreSpec()``).
    max_batch_size / max_batch_delay / backend:
        Forwarded to each worker's :class:`AnnotationService`.
    slo:
        Optional :class:`~repro.serving.slo.SloConfig` — each worker builds
        its own controller from it (a live controller cannot span
        processes).
    """

    def __init__(
        self,
        typer: "SigmaTyper",
        workers: "int | str | PoolSpec | ServingSpec" = 2,
        *,
        store: StoreSpec | None = None,
        max_batch_size: int = 32,
        max_batch_delay: float = 0.005,
        backend=None,
        slo: "SloConfig | None" = None,
    ) -> None:
        spec = self._normalise(workers)
        if backend is not None:
            from dataclasses import replace

            from repro.serving.spec import BackendSpec

            if isinstance(backend, str):
                backend = BackendSpec.parse(backend)
            if isinstance(backend, BackendSpec):
                spec = replace(spec, backend=backend)
            else:
                raise ConfigurationError(
                    "pool backend must be a spec string or BackendSpec (worker "
                    "processes cannot inherit a live backend instance)"
                )
        if slo is not None:
            from repro.serving.slo import SloConfig

            if not isinstance(slo, SloConfig):
                raise ConfigurationError(
                    "pool slo must be an SloConfig (each worker builds its own "
                    "controller; a live SloController cannot span processes)"
                )
        self.typer = typer
        self.spec = spec
        self.pool_spec: PoolSpec = spec.pool  # type: ignore[assignment]
        self.stats = PoolStats()
        self._store_spec = store if store is not None else StoreSpec()
        self._service_kwargs = {
            "max_batch_size": max_batch_size,
            "max_batch_delay": max_batch_delay,
            "backend": str(spec.backend) if spec.backend.name != "serial" else None,
            "slo": slo,
        }
        self._workers: list[_Worker] = []
        self._heartbeat_task: asyncio.Task | None = None
        self._accepting = False
        self._started = False
        self._draining = False
        self._ids = count(1)
        self._rr_next = 0

    @staticmethod
    def _normalise(workers) -> ServingSpec:
        if isinstance(workers, int):
            return ServingSpec(pool=PoolSpec(workers=workers))
        if isinstance(workers, PoolSpec):
            return ServingSpec(pool=workers)
        if isinstance(workers, str):
            workers = ServingSpec.parse(workers)
        if isinstance(workers, ServingSpec):
            if workers.pool is None:
                raise ConfigurationError(
                    f"serving spec {str(workers)!r} names no pool section; "
                    "use 'pool:N' or 'pool:N@<backend>'"
                )
            return workers
        raise ConfigurationError(
            "workers must be an int, a PoolSpec, a ServingSpec, or a spec string"
        )

    # ---------------------------------------------------------------- lifecycle
    @property
    def is_running(self) -> bool:
        """Whether the dispatcher is up and accepting requests."""
        return self._accepting

    async def start(self) -> "AnnotationPool":
        """Fork the workers and start supervision."""
        if self._started:
            raise ServingError("AnnotationPool is already running")
        self._started = True
        for slot in range(self.pool_spec.workers):
            self._workers.append(await self._spawn(slot))
        self._accepting = True
        self._heartbeat_task = asyncio.get_running_loop().create_task(self._heartbeat_loop())
        return self

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Drain in-flight requests, EOF every worker, reap the processes.

        Same drain contract as the service: ``None`` waits out everything in
        flight; a bounded drain fails whatever remains past the budget with
        a typed :class:`ShutdownError`.  Idempotent.
        """
        if not self._started or self._draining:
            return
        if drain_timeout is not None and drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be non-negative")
        self._accepting = False
        self._draining = True
        loop = asyncio.get_running_loop()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        futures = [
            pending.future
            for worker in self._workers
            for pending in worker.inflight.values()
            if not pending.future.done()
        ]
        if futures:
            await asyncio.wait(futures, timeout=drain_timeout)
        for worker in self._workers:
            worker.retired = True
            for pending in list(worker.inflight.values()):
                if not pending.future.done():
                    pending.future.set_exception(
                        ShutdownError("AnnotationPool shut down before serving this request")
                    )
                    self.stats.rejected_total += 1
            worker.inflight.clear()
            try:
                worker.writer.close()
            except OSError:
                pass
        for worker in self._workers:
            await loop.run_in_executor(None, self._reap, worker)
            worker.exitcode = worker.process.exitcode
            if worker.reader_task is not None:
                worker.reader_task.cancel()
                try:
                    await worker.reader_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Join one worker process, escalating to terminate if it lingers."""
        worker.process.join(_JOIN_TIMEOUT)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(_JOIN_TIMEOUT)

    async def __aenter__(self) -> "AnnotationPool":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # ----------------------------------------------------------------- spawning
    def _fork_worker(self, slot: int, sibling_fds: list[int]):
        """Fork one worker (runs on a short-lived plain thread, see
        :meth:`_spawn`)."""
        parent_sock, child_sock = socket.socketpair()
        try:
            context = multiprocessing.get_context("fork")
            process = context.Process(
                target=_pool_worker_main,
                args=(
                    child_sock,
                    slot,
                    self.typer,
                    self._service_kwargs,
                    self._store_spec,
                    sibling_fds + [parent_sock.fileno()],
                ),
                daemon=True,
            )
            process.start()
        except BaseException:
            parent_sock.close()
            child_sock.close()
            raise
        child_sock.close()
        return process, parent_sock

    def _sibling_fds(self) -> list[int]:
        """Parent-side socket fds a new child must close after fork — its
        copies would otherwise keep dead siblings' EOFs from ever firing."""
        fds = []
        for worker in self._workers:
            if worker is None or worker.retired:
                continue
            try:
                fd = worker.parent_sock.fileno()
            except OSError:
                continue
            if fd >= 0:
                fds.append(fd)
        return fds

    async def _spawn(self, slot: int) -> _Worker:
        """Fork a worker into *slot* from a short-lived plain thread.

        Not the event-loop thread: the child's main thread must not hold a
        running loop.  Not an executor thread either: the fork child's
        ``threading._shutdown()`` runs the ``concurrent.futures`` exit hook,
        which joins every executor thread — including the forking one, now
        the child's own main thread — and the child exits 1.
        """
        loop = asyncio.get_running_loop()
        forked: asyncio.Future = loop.create_future()
        sibling_fds = self._sibling_fds()

        def settle(result, error) -> None:
            if forked.done():  # the awaiting task was cancelled
                return
            if error is not None:
                forked.set_exception(error)
            else:
                forked.set_result(result)

        def fork() -> None:
            try:
                outcome = (self._fork_worker(slot, sibling_fds), None)
            except BaseException as exc:  # noqa: BLE001 - re-raised by the awaiting task
                outcome = (None, exc)
            loop.call_soon_threadsafe(settle, *outcome)

        threading.Thread(target=fork, name=f"pool-fork-{slot}", daemon=True).start()
        process, parent_sock = await forked
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        worker = _Worker(slot, process, parent_sock, reader, writer, asyncio.Lock())
        worker.reader_task = loop.create_task(self._reader_loop(worker))
        return worker

    # ------------------------------------------------------------------ routing
    def _alive_workers(self) -> list[_Worker]:
        return [worker for worker in self._workers if not worker.retired]

    def _route(self, table: "Table") -> _Worker:
        """Pick the worker for one request."""
        alive = self._alive_workers()
        if not alive:
            raise ServingError("AnnotationPool has no live workers")
        if self.pool_spec.routing == "round-robin":
            worker = alive[self._rr_next % len(alive)]
            self._rr_next += 1
            return worker
        by_slot = {worker.slot: worker for worker in alive}
        key = min((column.content_hash() for column in table.columns), default="")
        worker = by_slot[_rendezvous_slot(key, sorted(by_slot))]
        if len(worker.inflight) >= self.pool_spec.queue_depth_bound:
            least = min(alive, key=lambda w: (len(w.inflight), w.slot))
            if least is not worker:
                worker = least
                self.stats.escapes += 1
        return worker

    # ----------------------------------------------------------------- requests
    async def annotate(
        self,
        table: "Table",
        customer_id: str | None = None,
        deadline: float | None = None,
    ) -> "TablePrediction":
        """Annotate one table on the worker its content routes to.

        Identical results to ``SigmaTyper.annotate`` per request — same
        typer, same deterministic pipeline, whichever worker runs it.  The
        deadline contract matches the service's: the budget covers dispatch,
        the worker's queue, and its cascade.
        """
        if not self._accepting:
            self.stats.rejected_total += 1
            raise ServingError("AnnotationPool is not accepting requests")
        if deadline is not None and deadline < 0:
            raise ConfigurationError("deadline must be non-negative")
        now = time.monotonic()
        deadline_at = now + deadline if deadline is not None else None
        worker = self._route(table)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _PoolRequest(next(self._ids), table, customer_id, deadline_at, future, now)
        worker.inflight[pending.id] = pending
        self.stats.requests_total += 1
        await self._send(worker, MSG_POOL_REQUEST, pending.payload())
        try:
            if deadline_at is None:
                return await future
            try:
                return await asyncio.wait_for(future, max(0.0, deadline_at - time.monotonic()))
            except asyncio.TimeoutError:
                self.stats.timed_out_total += 1
                raise DeadlineExceededError(
                    f"request exceeded its {deadline:.3f}s latency budget"
                ) from None
        finally:
            self._forget(pending)

    def _forget(self, pending: _PoolRequest) -> None:
        """Drop a settled request from whichever worker currently holds it."""
        for worker in self._workers:
            if worker.inflight.get(pending.id) is pending:
                del worker.inflight[pending.id]
                return

    async def _send(self, worker: _Worker, msg_type: int, message: dict) -> None:
        try:
            await _write_message(worker.writer, worker.write_lock, msg_type, message)
        except (ConnectionError, OSError):
            # The worker just died mid-write: its reader loop observes the
            # EOF and the death path re-dispatches everything in flight.
            pass

    # -------------------------------------------------------------- supervision
    async def _reader_loop(self, worker: _Worker) -> None:
        try:
            while True:
                try:
                    frame = await _read_frame_async(worker.reader)
                except (FrameError, ConnectionError, OSError):
                    break
                if frame is None:
                    break
                msg_type, payload = frame
                message = pickle.loads(payload)
                if msg_type == MSG_POOL_RESULT:
                    pending = worker.inflight.pop(message["id"], None)
                    if pending is not None and not pending.future.done():
                        pending.future.set_result(message["prediction"])
                        self.stats.completed_total += 1
                        self.stats.request_seconds_total += (
                            time.monotonic() - pending.enqueued_at
                        )
                elif msg_type == MSG_POOL_ERROR:
                    pending = worker.inflight.pop(message["id"], None)
                    if pending is not None and not pending.future.done():
                        pending.future.set_exception(self._error_for(message))
                elif msg_type == MSG_POOL_PONG:
                    worker.last_pong = message
        finally:
            await self._on_worker_exit(worker)

    def _error_for(self, message: dict) -> ServingError:
        kind = message.get("kind", "serving")
        text = message.get("message", "annotation failed")
        if kind == "deadline":
            return DeadlineExceededError(text)
        if kind == "shutdown":
            return ShutdownError(text)
        self.stats.errors_total += 1
        return ServingError(text)

    async def _heartbeat_loop(self) -> None:
        interval = self.pool_spec.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            for worker in list(self._workers):
                if worker.retired:
                    continue
                if not worker.process.is_alive():
                    await self._on_worker_exit(worker)
                    continue
                await self._send(worker, MSG_POOL_PING, {})
            self._refresh_per_worker()

    async def _on_worker_exit(self, worker: _Worker) -> None:
        """Death path: reap, optionally restart in place, re-dispatch."""
        if worker.retired:
            return
        worker.retired = True
        loop = asyncio.get_running_loop()
        try:
            worker.writer.close()
        except OSError:
            pass
        if worker.reader_task is not None and worker.reader_task is not asyncio.current_task():
            worker.reader_task.cancel()
        await loop.run_in_executor(None, self._reap, worker)
        worker.exitcode = worker.process.exitcode
        captured = [
            pending for pending in worker.inflight.values() if not pending.future.done()
        ]
        worker.inflight.clear()
        if self._draining or not self._started:
            self._fail_all(captured)
            return
        self.stats.worker_deaths += 1
        if not self.pool_spec.restart:
            self._fail_all(captured)
            return
        replacement = await self._spawn(worker.slot)
        self._workers[worker.slot] = replacement
        self.stats.restarts += 1
        for pending in captured:
            replacement.inflight[pending.id] = pending
            self.stats.redispatches += 1
            await self._send(replacement, MSG_POOL_REQUEST, pending.payload())

    def _fail_all(self, captured: list[_PoolRequest]) -> None:
        for pending in captured:
            if not pending.future.done():
                pending.future.set_exception(
                    ShutdownError("worker died and the pool is not restarting it")
                )
                self.stats.errors_total += 1

    # ------------------------------------------------------------------- report
    def _refresh_per_worker(self) -> None:
        snapshot: dict[int, dict] = {}
        for worker in self._workers:
            info: dict[str, object] = {
                "pid": worker.process.pid,
                "alive": not worker.retired,
                "inflight": len(worker.inflight),
                "exitcode": worker.exitcode,
            }
            if worker.last_pong is not None:
                info["store"] = worker.last_pong.get("store")
                info["service"] = worker.last_pong.get("service")
            snapshot[worker.slot] = info
        self.stats.per_worker = snapshot

    def summary(self) -> dict[str, object]:
        """Pool-level report in the unified :func:`render_stats` shape
        (``pool`` is this component's section; docs/SERVING.md#stats-vocabulary).
        """
        from repro.serving.stats import render_stats

        self._refresh_per_worker()
        report: dict[str, object] = {
            "running": self.is_running,
            "workers": self.pool_spec.workers,
            "routing": self.pool_spec.routing,
            "spec": str(self.spec),
        }
        report.update(render_stats(pool=self))
        return report
