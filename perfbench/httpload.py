"""Forked HTTP server and open-loop asyncio client for ``online_http``.

The server is an ``AnnotationFrontend`` over an ``AnnotationService`` with
default settings, running in a forked child that inherits the warmed typer.
The client runs in this process: request *i* is due at ``start + i / rate``
whatever happened before it, is sent on the first free keep-alive connection
and is timed from its due time, so a stall delays and is charged to every
request queued behind it.  How late the generator itself woke is reported
separately.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing

from harness import percentile

#: Seconds the child may take to come up or to drain and report back.
STARTUP_TIMEOUT = 30.0
DRAIN_TIMEOUT = 5.0


def _serve(typer, conn, recorder) -> None:
    """Child process: serve until the parent sends anything on *conn*."""
    from repro.serving import AnnotationFrontend, AnnotationService

    async def main() -> dict:
        loop = asyncio.get_running_loop()
        service = AnnotationService(typer)
        frontend = AnnotationFrontend(service)
        await frontend.start()
        stop = asyncio.Event()
        loop.add_reader(conn.fileno(), stop.set)
        conn.send(frontend.address)
        await stop.wait()
        loop.remove_reader(conn.fileno())
        conn.recv()
        await frontend.shutdown(drain_timeout=DRAIN_TIMEOUT)
        stats = service.stats
        return {
            "service.queue_s": stats.mean_queue_seconds,
            "service.batch_s": stats.mean_batch_seconds,
            "service.batch_size": stats.mean_batch_size,
            "frontend.shed": frontend.stats.shed_total,
            "frontend.failed": frontend.stats.failed,
        }

    layers = asyncio.run(main())
    conn.send({"layers": layers, "trace": recorder.take() if recorder is not None else None})
    conn.close()


async def _post(connection, body: bytes, request_id: int):
    reader, writer = connection
    writer.write(
        b"POST /annotate HTTP/1.1\r\nHost: bench\r\nX-Request-Id: "
        + str(request_id).encode()
        + b"\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = await reader.readexactly(length)
    return status, json.loads(payload) if payload else None


async def _drive(address, bodies, rate: float, count: int, connections: int):
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        free.put_nowait(await asyncio.open_connection(*address))
    responses: list = [None] * count
    lateness: list[float] = []
    tasks = []

    async def one(index: int, due: float, connection) -> None:
        try:
            status, payload = await _post(connection, bodies[index % len(bodies)], index)
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            connection[1].close()
            responses[index] = ("transport_error", None, loop.time() - due)
            connection = await asyncio.open_connection(*address)
        else:
            responses[index] = (status, payload, loop.time() - due)
        free.put_nowait(connection)

    start = loop.time() + 0.05
    for index in range(count):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(loop.time() - due)
        connection = await free.get()
        tasks.append(asyncio.ensure_future(one(index, due, connection)))
    await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    while not free.empty():
        free.get_nowait()[1].close()
    return responses, lateness, elapsed


def run(typer, bodies, rate: float, count: int, connections: int, recorder=None) -> dict:
    """Fork the server, offer *count* requests at *rate*, stop the server."""
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    server = context.Process(target=_serve, args=(typer, child_conn, recorder), daemon=True)
    server.start()
    child_conn.close()
    try:
        if not parent_conn.poll(STARTUP_TIMEOUT):
            raise RuntimeError("annotation server did not start")
        address = parent_conn.recv()
        responses, lateness, elapsed = asyncio.run(
            asyncio.wait_for(
                _drive(address, bodies, rate, count, connections),
                timeout=count / rate + 60.0,
            )
        )
        parent_conn.send("stop")
        if not parent_conn.poll(STARTUP_TIMEOUT):
            raise RuntimeError("annotation server did not report back")
        report = parent_conn.recv()
    finally:
        server.join(timeout=DRAIN_TIMEOUT + 5.0)
        if server.is_alive():
            server.terminate()
            server.join()
        parent_conn.close()
    layers = dict(report["layers"])
    layers["client.lateness_ms"] = percentile(lateness, 0.99) * 1e3
    return {"responses": responses, "elapsed": elapsed, "layers": layers,
            "trace": report["trace"]}

