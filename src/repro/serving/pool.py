"""Worker pool: N annotation processes behind one stateless dispatcher.

:class:`AnnotationPool` is the multi-process sibling of
:class:`~repro.serving.service.AnnotationService` — same request surface
(``start`` / ``annotate`` / ``shutdown`` / ``summary``), so
:class:`~repro.serving.frontend.AnnotationFrontend` drives either one
unchanged (its ``pool=`` mode).  Underneath, the pool forks N worker
processes, each hosting its own :class:`AnnotationService`:

* **Least-loaded routing.**  Each request goes to the live worker with the
  fewest requests in flight, ties going to the lowest slot
  (join-shortest-queue).  An idle pool therefore keeps serving from one
  warm worker, and a burst spreads evenly.  The only routing state is the
  in-flight count the dispatcher already keeps.
* **Supervision.**  A heartbeat task pings every worker and watches process
  liveness; a dead worker (crash, SIGKILL) is detected, its exit code
  collected, a replacement forked into the same slot, and every request
  that was in flight on it re-dispatched by the same least-loaded rule —
  callers never observe the death, and results stay bit-identical to a
  single-process run (derived state is deterministic; a cold replacement
  only costs recomputation).  If the replacement cannot be forked, the slot
  stays retired and its requests go to the survivors, or fail with
  :class:`ServingError` when none is left.

Workers speak the SGN1 frame protocol defined here (``MSG_POOL_*``
messages, pickled payloads, crc-checked frames) over inherited socketpairs;
the ``fork`` start method ships the typer by inheritance, so nothing is
pickled at spawn time.  Every message is checked against the frame bound
where it is packed: an oversized request fails on its own with a
:class:`ServingError`, and an oversized result comes back as that
request's error, so neither can kill the worker that would read it.
Deadlines travel as absolute ``time.monotonic()`` values —
``CLOCK_MONOTONIC`` is system-wide on Linux, so parent and workers compare
against the same clock.

Configuration is the typed :class:`~repro.serving.spec.PoolSpec` (or its
string form, ``"pool:4"``).  See docs/SERVING.md#worker-pool for the
operator guide and restart runbook.
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
from itertools import count
from typing import TYPE_CHECKING

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServingError,
    ShutdownError,
)
from repro.serving.spec import PoolSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sigmatyper import SigmaTyper
    from repro.core.table import Table, TablePrediction
    from repro.serving.slo import SloConfig

__all__ = ["AnnotationPool", "PoolStats"]

#: Upper bound on one dispatcher<->worker frame payload.  Readers reject a
#: larger frame from its header alone; writers check it when they pack.
_MAX_POOL_MESSAGE_BYTES = 64 << 20

#: Seconds a clean shutdown waits for one worker process to exit after its
#: socket EOF before escalating to terminate().
_JOIN_TIMEOUT = 5.0


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
    #: In-flight requests of a dead worker re-sent to a live one.
    redispatches: int = 0
    #: Replacement workers forked into a dead worker's slot.
    restarts: int = 0
    worker_deaths: int = 0
    #: Wall-clock seconds from dispatch to completion, summed over requests.
    request_seconds_total: float = 0.0
    #: Per-slot snapshot (pid, liveness, queue depth, exit code, and the
    #: worker's own service stats from its last heartbeat pong) refreshed by
    #: the heartbeat loop and ``summary()``.
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
            "redispatches": self.redispatches,
            "restarts": self.restarts,
            "worker_deaths": self.worker_deaths,
            "request_seconds_total": round(self.request_seconds_total, 4),
            "mean_request_seconds": round(self.mean_request_seconds, 4),
            "per_worker": {slot: dict(info) for slot, info in sorted(self.per_worker.items())},
        }


# -------------------------------------------------------------------- framing
#
# Frame layout (network byte order)::
#
#     magic "SGN1" | u8 msg_type | u32 payload_len | u32 crc32(payload)
#     payload_len bytes of payload

FRAME_MAGIC = b"SGN1"
#: ``magic | u8 msg_type | u32 payload_len | u32 crc32`` — 13 bytes.
FRAME_HEADER = struct.Struct("!4sBII")

#: Dispatcher <-> worker messages: a dispatched request, its result/error,
#: and the heartbeat ping/pong pair (types 1-4 are unassigned).
MSG_POOL_REQUEST = 5
MSG_POOL_RESULT = 6
MSG_POOL_ERROR = 7
MSG_POOL_PING = 8
MSG_POOL_PONG = 9

_KNOWN_MESSAGES = frozenset(
    {MSG_POOL_REQUEST, MSG_POOL_RESULT, MSG_POOL_ERROR, MSG_POOL_PING, MSG_POOL_PONG}
)


class FrameError(ServingError):
    """Torn, oversized, or corrupt frame (bad magic / type / length / crc)."""


def pack_frame(msg_type: int, payload) -> bytes:
    """One complete frame: header followed by *payload*."""
    payload = bytes(payload)
    return FRAME_HEADER.pack(
        FRAME_MAGIC, msg_type, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


async def read_frame_async(
    reader: asyncio.StreamReader, max_message_bytes: int, *, eof_ok: bool = False
):
    """Read one frame; returns ``(msg_type, payload, frame_bytes)``.

    ``None`` on clean EOF before the first header byte when *eof_ok*.
    Raises :class:`FrameError` for a bad magic, an unknown message type, a
    payload over *max_message_bytes* (rejected from the header, before the
    payload is read), a crc mismatch, or a torn frame.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and eof_ok:
            return None
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{FRAME_HEADER.size} bytes)"
        ) from exc
    magic, msg_type, length, crc = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if msg_type not in _KNOWN_MESSAGES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > max_message_bytes:
        raise FrameError(f"frame of {length} bytes exceeds max_message_bytes")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame crc mismatch (corrupt payload)")
    return msg_type, payload, FRAME_HEADER.size + length


def _pack_message(msg_type: int, message: dict) -> bytes:
    """Pickle and frame one message; :class:`ServingError` when the payload
    exceeds the bound every reader enforces (a frame the reader would reject
    must never be sent: the reader exits on it)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > _MAX_POOL_MESSAGE_BYTES:
        raise ServingError(
            f"pool message of {len(payload)} bytes exceeds the "
            f"{_MAX_POOL_MESSAGE_BYTES}-byte frame bound"
        )
    return pack_frame(msg_type, payload)


async def _read_message(reader: asyncio.StreamReader):
    """``(msg_type, message)`` of one frame; ``None`` on clean EOF between frames."""
    frame = await read_frame_async(reader, _MAX_POOL_MESSAGE_BYTES, eof_ok=True)
    if frame is None:
        return None
    return frame[0], pickle.loads(frame[1])


async def _write_frame(writer: asyncio.StreamWriter, lock: asyncio.Lock, frame: bytes) -> None:
    """Send one packed frame (writes serialized per stream)."""
    async with lock:
        writer.write(frame)
        await writer.drain()


# ----------------------------------------------------------------- child side
def _pool_worker_main(
    child_sock: socket.socket,
    slot: int,
    typer: "SigmaTyper",
    service_kwargs: dict,
    close_fds: list[int],
) -> None:
    """Forked worker entry point: drop inherited fds, serve until EOF."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        asyncio.run(_worker_serve(child_sock, slot, typer, service_kwargs))
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
) -> None:
    """Host one :class:`AnnotationService` behind the pool frame protocol."""
    from repro.serving.service import AnnotationService

    service = AnnotationService(typer, **service_kwargs)
    await service.start()
    reader, writer = await asyncio.open_connection(sock=child_sock)
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    try:
        while True:
            try:
                frame = await _read_message(reader)
            except (FrameError, ConnectionError, OSError):
                break
            if frame is None:
                break
            msg_type, message = frame
            if msg_type == MSG_POOL_PING:
                pong = {
                    "slot": slot,
                    "pid": os.getpid(),
                    "service": service.stats.to_dict(),
                }
                await _write_frame(writer, write_lock, _pack_message(MSG_POOL_PONG, pong))
            elif msg_type == MSG_POOL_REQUEST:
                task = asyncio.get_running_loop().create_task(
                    _serve_one(service, message, writer, write_lock)
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
        frame = _pack_message(*reply)
    except ServingError as exc:  # the result is too large for one frame
        frame = _pack_message(
            MSG_POOL_ERROR, {"id": request_id, "kind": "serving", "message": str(exc)}
        )
    try:
        await _write_frame(writer, lock, frame)
    except (ConnectionError, OSError):
        pass  # dispatcher gone; its death handling owns the request now


# ---------------------------------------------------------------- parent side
class _PoolRequest:
    """One dispatched request: its packed frame (re-sent unchanged on
    re-dispatch) and the future its caller awaits."""

    __slots__ = ("id", "frame", "future", "enqueued_at")

    def __init__(self, request_id, frame, future, enqueued_at):
        self.id = request_id
        self.frame = frame
        self.future = future
        self.enqueued_at = enqueued_at


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
        #: Why no replacement could be forked into this (retired) slot.
        self.restart_error: str | None = None


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
        Worker count, a :class:`~repro.serving.spec.PoolSpec` (which also
        sets the heartbeat interval), or its string form ``"pool:N"``.
    max_batch_size:
        Forwarded to each worker's :class:`AnnotationService`.
    slo:
        Optional :class:`~repro.serving.slo.SloConfig` — each worker builds
        its own controller from it (a live controller cannot span
        processes).
    """

    def __init__(
        self,
        typer: "SigmaTyper",
        workers: "int | str | PoolSpec" = 2,
        *,
        max_batch_size: int = 32,
        slo: "SloConfig | None" = None,
    ) -> None:
        if isinstance(workers, int):
            workers = PoolSpec(workers=workers)
        elif isinstance(workers, str):
            workers = PoolSpec.parse(workers)
        elif not isinstance(workers, PoolSpec):
            raise ConfigurationError("workers must be an int, a PoolSpec, or a spec string")
        if slo is not None:
            from repro.serving.slo import SloConfig

            if not isinstance(slo, SloConfig):
                raise ConfigurationError(
                    "pool slo must be an SloConfig (each worker builds its own "
                    "controller; a live SloController cannot span processes)"
                )
        self.typer = typer
        self.pool_spec = workers
        self.stats = PoolStats()
        self._service_kwargs = {"max_batch_size": max_batch_size, "slo": slo}
        self._workers: list[_Worker] = []
        self._heartbeat_task: asyncio.Task | None = None
        self._accepting = False
        self._started = False
        self._draining = False
        self._ids = count(1)

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

    def _route(self) -> _Worker:
        """The live worker with the fewest requests in flight (lowest slot
        on a tie)."""
        alive = self._alive_workers()
        if not alive:
            raise ServingError("AnnotationPool has no live workers")
        return min(alive, key=lambda worker: (len(worker.inflight), worker.slot))

    # ----------------------------------------------------------------- requests
    async def annotate(
        self,
        table: "Table",
        customer_id: str | None = None,
        deadline: float | None = None,
    ) -> "TablePrediction":
        """Annotate one table on the least-loaded live worker.

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
        request_id = next(self._ids)
        message = {
            "id": request_id,
            "table": table,
            "customer_id": customer_id,
            "deadline_at": deadline_at,
        }
        try:
            frame = _pack_message(MSG_POOL_REQUEST, message)
            worker = self._route()
        except ServingError:
            self.stats.errors_total += 1
            raise
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _PoolRequest(request_id, frame, future, now)
        worker.inflight[pending.id] = pending
        self.stats.requests_total += 1
        await self._send(worker, pending.frame)
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

    async def _send(self, worker: _Worker, frame: bytes) -> None:
        try:
            await _write_frame(worker.writer, worker.write_lock, frame)
        except (ConnectionError, OSError):
            # The worker just died mid-write: its reader loop observes the
            # EOF and the death path re-dispatches everything in flight.
            pass

    # -------------------------------------------------------------- supervision
    async def _reader_loop(self, worker: _Worker) -> None:
        try:
            while True:
                try:
                    frame = await _read_message(worker.reader)
                except (FrameError, ConnectionError, OSError):
                    break
                if frame is None:
                    break
                msg_type, message = frame
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
                await self._send(worker, _pack_message(MSG_POOL_PING, {}))
            self._refresh_per_worker()

    async def _on_worker_exit(self, worker: _Worker) -> None:
        """Death path: reap, restart in place, re-dispatch least-loaded.

        A replacement that cannot be forked (an ``OSError`` is likely right
        after an OOM kill) leaves the slot retired: its requests go to the
        survivors, or fail with :class:`ServingError` when none is left.
        """
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
            for pending in captured:
                pending.future.set_exception(
                    ShutdownError("worker died while the pool was shutting down")
                )
                self.stats.errors_total += 1
            return
        self.stats.worker_deaths += 1
        try:
            replacement = await self._spawn(worker.slot)
        except Exception as exc:  # noqa: BLE001 - the slot stays retired; survivors serve
            worker.restart_error = f"{type(exc).__name__}: {exc}"
        else:
            self._workers[worker.slot] = replacement
            self.stats.restarts += 1
        for pending in captured:
            if pending.future.done():
                continue
            try:
                target = self._route()
            except ServingError as exc:
                pending.future.set_exception(exc)
                self.stats.errors_total += 1
                continue
            target.inflight[pending.id] = pending
            self.stats.redispatches += 1
            await self._send(target, pending.frame)

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
                info["service"] = worker.last_pong.get("service")
            if worker.restart_error is not None:
                info["restart_error"] = worker.restart_error
            snapshot[worker.slot] = info
        self.stats.per_worker = snapshot

    def summary(self) -> dict[str, object]:
        """Pool-level report: ``pool`` is this component's section, followed
        by :func:`~repro.serving.stats.shared_sections`
        (docs/SERVING.md#stats-vocabulary).
        """
        from repro.serving.stats import shared_sections

        self._refresh_per_worker()
        report: dict[str, object] = {
            "running": self.is_running,
            "workers": self.pool_spec.workers,
            "spec": str(self.pool_spec),
            "pool": self.stats.to_dict(),
        }
        report.update(shared_sections())
        return report
