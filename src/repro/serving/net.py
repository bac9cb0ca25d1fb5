"""Multi-node shard transport: the block wire format over TCP.

PR 7 made the typed column block the system's native representation — the
profiling/featurization kernels run directly over its tag/offset/blob
buffers — so the block format *is* the wire format.  This module cashes that
in behind the existing :class:`~repro.serving.transport.Transport` seam:

* :class:`NetTransport` ships each shard as the exact
  :class:`~repro.serving.transport.ColumnBlockCodec` byte layout inside one
  length-prefixed crc-framed TCP message, and receives predictions back as
  the :class:`~repro.serving.transport.PredictionBlockCodec` layout.  Spec
  strings select it like any other transport: ``"multiprocess:4+tcp"``
  (peers from ``$REPRO_NET_PEERS``) or
  ``"multiprocess:4+tcp://host:port,host2:port2"``.
* :class:`BlockWorkerServer` is the peer: it receives a segment into an
  anonymous ``mmap`` and runs the columnar kernels over the received buffer
  exactly as multiprocess workers run them over a local shm segment —
  :meth:`Table.from_block` attaches the same zero-copy views either way.

Robustness is first-class, not best-effort:

* every connection carries explicit deadlines (``NetConfig.connect_timeout``
  for the dial, ``NetConfig.io_timeout`` for each framed read/write), so a
  slow or wedged peer can never stall the dispatcher indefinitely;
* connects retry with bounded exponential backoff
  (``connect_retries`` / ``backoff_base`` / ``backoff_max``), counted in
  ``stats.reconnects``;
* **any** network failure — unreachable peer, torn frame, crc mismatch,
  deadline, remote shard error — degrades to running that one shard locally
  over the same decoded block (``stats.local_fallbacks``, with the reason in
  ``last_fallback_reason``).  Results are bit-identical either way, so a
  chaos run and a clean run produce the same predictions;
* lifecycle is airtight: the transport owns no named segments (payload bytes
  travel inside the frame; the server's receive buffer is an anonymous mmap
  freed on close), so a killed peer cannot leak a segment, and one
  connection serves exactly one shard, so there is no pooled socket to wedge.

Frame layout (network byte order)::

    magic "SGN1" | u8 msg_type | u32 payload_len | u32 crc32(payload)
    payload_len bytes of payload

Message types: ``MSG_SHARD`` (ColumnBlockCodec blob), ``MSG_RESULT``
(PredictionBlockCodec blob), ``MSG_RESULT_PICKLE`` (pickled results — the
result leg's own fallback for unsupported prediction shapes) and
``MSG_ERROR`` (UTF-8 description of a shard-function error; the client
reruns the shard locally so deterministic errors propagate with a real
traceback).

The E16 benchmark (``benchmarks/test_bench_net_transport.py``) pins parity
for the loopback and chaos legs; ``tests/test_net_transport.py`` drives the
full fault-injection matrix through ``tests/faultnet.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import mmap
import os
import pickle
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from repro.core.errors import ConfigurationError, ServingError
from repro.serving.spec import TransportSpec
from repro.serving.transport import (
    _PICKLE_PROTOCOL,
    PredictionBlockCodec,
    Transport,
    encode_result_records,
    encode_shard_block,
    open_block,
)

__all__ = [
    "NetTransport",
    "BlockWorkerServer",
    "NetConfig",
    "NetError",
    "FrameError",
    "PeerUnavailableError",
    "NetTimeoutError",
    "MSG_SHARD",
    "MSG_RESULT",
    "MSG_RESULT_PICKLE",
    "MSG_ERROR",
    "MSG_POOL_REQUEST",
    "MSG_POOL_RESULT",
    "MSG_POOL_ERROR",
    "MSG_POOL_PING",
    "MSG_POOL_PONG",
    "FRAME_MAGIC",
    "FRAME_HEADER",
    "pack_frame",
    "read_frame",
    "read_frame_async",
    "write_frame",
]


class NetError(ServingError):
    """Base class for network-transport failures (all degrade to local)."""


class FrameError(NetError):
    """Torn, oversized, or corrupt frame (bad magic / length / crc)."""


class PeerUnavailableError(NetError):
    """Peer unreachable after the bounded reconnect budget."""


class NetTimeoutError(NetError):
    """A framed read/write missed its per-connection deadline."""


FRAME_MAGIC = b"SGN1"
#: ``magic | u8 msg_type | u32 payload_len | u32 crc32`` — 13 bytes.
FRAME_HEADER = struct.Struct("!4sBII")

MSG_SHARD = 1
MSG_RESULT = 2
MSG_RESULT_PICKLE = 3
MSG_ERROR = 4
#: Pool dispatcher <-> worker messages (see :mod:`repro.serving.pool`): a
#: dispatched request, its result/error, and the heartbeat ping/pong pair.
#: They share the SGN1 framing, so :func:`read_frame_async` applies the same
#: magic/type/size/crc guards to the pool protocol.
MSG_POOL_REQUEST = 5
MSG_POOL_RESULT = 6
MSG_POOL_ERROR = 7
MSG_POOL_PING = 8
MSG_POOL_PONG = 9

_KNOWN_MESSAGES = frozenset(
    {
        MSG_SHARD,
        MSG_RESULT,
        MSG_RESULT_PICKLE,
        MSG_ERROR,
        MSG_POOL_REQUEST,
        MSG_POOL_RESULT,
        MSG_POOL_ERROR,
        MSG_POOL_PING,
        MSG_POOL_PONG,
    }
)


@dataclass
class NetConfig:
    """Deadline/backoff knobs for one transport or server.

    Every field has an environment override (``REPRO_NET_<FIELD>``, upper
    case) read by :meth:`from_env`, which is what spec-string resolution
    uses — operators tune deadlines without touching code.
    """

    #: Deadline for one TCP dial.
    connect_timeout: float = 2.0
    #: Deadline for each framed read/write on an established connection.
    io_timeout: float = 30.0
    #: Additional connect attempts after the first (0 = dial once).
    connect_retries: int = 2
    #: First retry sleeps this long; each later retry doubles it...
    backoff_base: float = 0.05
    #: ...capped here.
    backoff_max: float = 1.0
    #: Reject frames larger than this on both sides (default 256 MB).
    max_message_bytes: int = 256 << 20

    _ENV_FIELDS = (
        ("connect_timeout", float),
        ("io_timeout", float),
        ("connect_retries", int),
        ("backoff_base", float),
        ("backoff_max", float),
        ("max_message_bytes", int),
    )

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0 or self.io_timeout <= 0:
            raise ConfigurationError("net timeouts must be positive")
        if self.connect_retries < 0:
            raise ConfigurationError("connect_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ConfigurationError("backoff must satisfy 0 <= base <= max")
        if self.max_message_bytes < 1:
            raise ConfigurationError("max_message_bytes must be positive")

    @classmethod
    def from_env(cls, env=None) -> "NetConfig":
        env = os.environ if env is None else env
        kwargs = {}
        for name, cast in cls._ENV_FIELDS:
            raw = env.get(f"REPRO_NET_{name.upper()}")
            if raw is None:
                continue
            try:
                kwargs[name] = cast(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad REPRO_NET_{name.upper()}={raw!r}: {exc}") from exc
        return cls(**kwargs)


# --------------------------------------------------------------------- framing
def _read_exact(sock: socket.socket, n: int, *, eof_ok: bool = False):
    """Read exactly *n* bytes; ``None`` on clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except socket.timeout as exc:
            raise NetTimeoutError(f"read deadline after {got}/{n} bytes") from exc
        except OSError as exc:
            raise FrameError(f"connection lost after {got}/{n} bytes: {exc}") from exc
        if not chunk:
            if got == 0 and eof_ok:
                return None
            raise FrameError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _check_header(header: bytes, max_message_bytes: int) -> tuple:
    """``(msg_type, payload_len, crc)`` of a valid header; :class:`FrameError`
    for a bad magic, an unknown message type or an oversized payload."""
    magic, msg_type, length, crc = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if msg_type not in _KNOWN_MESSAGES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > max_message_bytes:
        raise FrameError(f"frame of {length} bytes exceeds max_message_bytes")
    return msg_type, length, crc


def _check_crc(payload: bytes, crc: int) -> None:
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame crc mismatch (corrupt payload)")


def pack_frame(msg_type: int, payload) -> bytes:
    """One complete frame: header followed by *payload*."""
    payload = bytes(payload)
    return FRAME_HEADER.pack(
        FRAME_MAGIC, msg_type, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def read_frame(sock: socket.socket, max_message_bytes: int, *, eof_ok: bool = False):
    """Read one frame; returns ``(msg_type, payload, frame_bytes)``.

    ``None`` on clean EOF before the first header byte when *eof_ok*.
    Raises :class:`FrameError` for bad magic/type/length/crc and torn frames,
    :class:`NetTimeoutError` when the read deadline fires.
    """
    header = _read_exact(sock, FRAME_HEADER.size, eof_ok=eof_ok)
    if header is None:
        return None
    msg_type, length, crc = _check_header(header, max_message_bytes)
    payload = _read_exact(sock, length)
    _check_crc(payload, crc)
    return msg_type, payload, FRAME_HEADER.size + length


async def read_frame_async(
    reader: asyncio.StreamReader, max_message_bytes: int, *, eof_ok: bool = False
):
    """:func:`read_frame` over an asyncio stream (no deadline of its own)."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and eof_ok:
            return None
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{FRAME_HEADER.size} bytes)"
        ) from exc
    msg_type, length, crc = _check_header(header, max_message_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    _check_crc(payload, crc)
    return msg_type, payload, FRAME_HEADER.size + length


def write_frame(sock: socket.socket, msg_type: int, payload) -> int:
    """Write one frame; returns the bytes put on the wire."""
    frame = pack_frame(msg_type, payload)
    try:
        sock.sendall(frame)
    except socket.timeout as exc:
        raise NetTimeoutError("write deadline fired") from exc
    except OSError as exc:
        raise FrameError(f"connection lost while writing: {exc}") from exc
    return len(frame)


# ------------------------------------------------------------------- transport
class NetTransport(Transport):
    """Socket-backed segment shipping behind the :class:`Transport` seam.

    ``encode_shard`` produces either a ``("net", uid, blob, peer)`` payload —
    the ColumnBlockCodec bytes plus the round-robin-assigned peer — or the
    standard ``("pickle", uid, data)`` fallback for shards the codec cannot
    represent.  The worker-side :meth:`run_in_worker` performs the framed
    exchange; every network failure reruns that shard locally over the same
    block, so parity is unconditional.  Worker-side accounting rides back to
    the parent as a small meta dict (a fork's counters die with the fork) and
    is folded into :attr:`stats` by :meth:`decode_results`.
    """

    name = "tcp"

    def __init__(self, peers, config: NetConfig | None = None) -> None:
        super().__init__()
        self.peers = [(str(host), int(port)) for host, port in peers]
        if not self.peers:
            raise ConfigurationError("NetTransport needs at least one peer")
        self.config = config if config is not None else NetConfig()
        self._peer_counter = itertools.count()

    @classmethod
    def from_spec(
        cls, spec: str | TransportSpec, config: NetConfig | None = None
    ) -> "NetTransport":
        """Build from ``"tcp"`` (peers from ``$REPRO_NET_PEERS``) or
        ``"tcp://host:port[,host2:port2]"``, as a string or a parsed
        :class:`~repro.serving.spec.TransportSpec`."""
        if isinstance(spec, str):
            spec = TransportSpec.parse(spec)
        if spec.name != "tcp":
            raise ConfigurationError(f"not a tcp transport spec: {str(spec)!r}")
        if config is None:
            config = NetConfig.from_env()
        peers = spec.peers
        if not peers:
            raw = os.environ.get("REPRO_NET_PEERS", "")
            if not raw.strip():
                raise ConfigurationError(
                    "transport 'tcp' needs peers: set REPRO_NET_PEERS=host:port[,host:port] "
                    "or use an explicit tcp://host:port spec"
                )
            peers = TransportSpec.parse(f"tcp://{raw}").peers
        return cls(peers, config)

    # ------------------------------------------------------------- parent side
    def _pick_peer(self) -> tuple:
        with self._lock:
            return self.peers[next(self._peer_counter) % len(self.peers)]

    def encode_shard(self, items: list) -> tuple:
        uid = self._next_uid()
        self._count(shards=1)
        blob, reason = encode_shard_block(items, self.config.max_message_bytes, "max_message_bytes")
        if blob is None:
            self._fallback(reason)
            payload = ("pickle", uid, pickle.dumps(items, _PICKLE_PROTOCOL))
        else:
            payload = ("net", uid, bytes(blob), self._pick_peer())
        self._count_shipped(payload)
        return payload

    def decode_results(self, payload: tuple) -> list:
        self._count_shipped(payload[:2])
        kind, data, meta = payload
        self._count(
            meta["reason"],
            remote_shards=meta["remote"],
            local_fallbacks=meta["local_fallback"],
            net_bytes_out=meta["bytes_out"],
            net_bytes_in=meta["bytes_in"],
            reconnects=meta["reconnects"],
            # The peer ran the shard but had to pickle the reply.
            result_pickle_fallbacks=int(kind == "pickle" and meta["remote"] > 0),
        )
        if kind == "net":
            return PredictionBlockCodec.decode_predictions(memoryview(data))
        if kind != "pickle":  # pragma: no cover - worker/parent version skew
            raise ServingError(f"unknown result payload kind {kind!r}")
        return pickle.loads(data)

    def release(self, payload: tuple) -> None:
        # Payload bytes live inside the tuple; nothing named to unlink, which
        # is exactly why a killed peer cannot leak a segment.
        pass

    # ------------------------------------------------------------- worker side
    def open_shard(self, payload: tuple):
        kind, _, data, *_rest = payload
        if kind == "pickle":
            return pickle.loads(data), lambda: None
        tables, block = open_block(memoryview(data))
        return tables, block.close

    def encode_results(self, results: list, payload: tuple) -> tuple:
        blob = encode_result_records(results, self.config.max_message_bytes)
        if blob is None:
            return ("pickle", pickle.dumps(results, _PICKLE_PROTOCOL))
        return ("net", bytes(blob))

    def _connect(self, peer: tuple, meta: dict) -> socket.socket:
        config = self.config
        delay = config.backoff_base
        last_error: Exception | None = None
        for attempt in range(config.connect_retries + 1):
            if attempt:
                meta["reconnects"] += 1
                time.sleep(min(delay, config.backoff_max))
                delay *= 2
            try:
                sock = socket.create_connection(peer, timeout=config.connect_timeout)
                sock.settimeout(config.io_timeout)
                return sock
            except OSError as exc:
                last_error = exc
        raise PeerUnavailableError(
            f"peer {peer[0]}:{peer[1]} unreachable after "
            f"{config.connect_retries + 1} attempts: {last_error}"
        )

    def _exchange(self, peer: tuple, blob: bytes, meta: dict):
        """One connection, one shard: frame out, reply in, always closed."""
        sock = self._connect(peer, meta)
        try:
            meta["bytes_out"] += write_frame(sock, MSG_SHARD, blob)
            reply = read_frame(sock, self.config.max_message_bytes)
            msg_type, payload, frame_bytes = reply
            meta["bytes_in"] += frame_bytes
            return msg_type, payload
        finally:
            sock.close()

    def run_in_worker(self, fn, payload: tuple) -> tuple:
        meta = {
            "remote": 0,
            "local_fallback": 0,
            "reason": "",
            "bytes_out": 0,
            "bytes_in": 0,
            "reconnects": 0,
        }
        if payload[0] == "net":
            _, _, blob, peer = payload
            try:
                msg_type, reply = self._exchange(peer, blob, meta)
                if msg_type == MSG_RESULT:
                    meta["remote"] = 1
                    return ("net", reply, meta)
                if msg_type == MSG_RESULT_PICKLE:
                    meta["remote"] = 1
                    return ("pickle", reply, meta)
                if msg_type == MSG_ERROR:
                    # The peer's shard function raised.  Rerun locally: a
                    # deterministic error propagates with a real traceback,
                    # and parity holds if the remote failure was environmental.
                    meta["reason"] = "remote shard error: " + reply.decode("utf-8", "replace")
                else:  # pragma: no cover - server/client version skew
                    meta["reason"] = f"unexpected reply type {msg_type}"
            except NetError as exc:
                meta["reason"] = f"{type(exc).__name__}: {exc}"
            meta["local_fallback"] = 1
        return super().run_in_worker(fn, payload) + (meta,)


# ---------------------------------------------------------------------- server
class BlockWorkerServer:
    """A remote annotation worker speaking the framed block protocol.

    Each received shard lands in an **anonymous mmap** and is decoded in
    place — :meth:`Table.from_block` attaches the columnar-kernel views over
    the received buffer exactly as multiprocess workers attach them over a
    local shm segment, so the remote cascade is the same code on the same
    bytes.  A shard-function error is reported as ``MSG_ERROR`` (the server
    survives); a torn or corrupt frame closes only that connection.

    Thread-per-connection; :meth:`stop` closes the listener and every live
    connection, so no reader thread can outlive the server.
    """

    def __init__(self, shard_fn, host: str = "127.0.0.1", port: int = 0,
                 config: NetConfig | None = None) -> None:
        self.shard_fn = shard_fn
        self.config = config if config is not None else NetConfig()
        self._requested = (host, port)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list = []
        self._conns: set = set()
        self._lock = threading.Lock()
        self._running = False
        self.stats = {
            "connections": 0,
            "shards_served": 0,
            "fn_errors": 0,
            "frame_errors": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }

    @classmethod
    def for_typer(cls, typer, **kwargs) -> "BlockWorkerServer":
        """Serve a :class:`SigmaTyper`'s global cascade — the same bound
        ``annotate_many`` that ``annotate_corpus`` dispatches to local
        workers, so remote results are bit-identical by construction."""
        return cls(typer.global_model.pipeline.annotate_many, **kwargs)

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        if self._listener is None:
            raise ServingError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def spec(self) -> str:
        """The ``tcp://host:port`` string selecting this server."""
        host, port = self.address
        return f"tcp://{host}:{port}"

    def open_connections(self) -> int:
        with self._lock:
            return len(self._conns)

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Wait until no connection is open (a client close is observed by
        the connection thread a beat after the client returns); True when
        idle, False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.open_connections() == 0:
                return True
            time.sleep(0.01)
        return self.open_connections() == 0

    def start(self) -> "BlockWorkerServer":
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._requested)
        listener.listen(64)
        # A closed listener does not wake a thread already blocked in
        # accept(); a short accept timeout lets the loop observe shutdown.
        listener.settimeout(0.25)
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="block-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()  # unblocks accept()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        with self._lock:
            self._conns.clear()

    def __enter__(self) -> "BlockWorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ serving
    def _accept_loop(self) -> None:
        listener = self._listener
        while self._running and listener is not None:
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed by stop()
                break
            conn.settimeout(self.config.io_timeout)
            with self._lock:
                if not self._running:
                    conn.close()
                    break
                self._conns.add(conn)
                self.stats["connections"] += 1
                self._threads = [t for t in self._threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name="block-worker-conn", daemon=True,
                )
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        # io_timeout (set at accept) bounds every read: a torn frame (or a
        # client that connected and went silent) can never pin this thread —
        # clients use one connection per shard, so there are no long idle
        # gaps to honor.
        try:
            while self._running:
                try:
                    frame = read_frame(conn, self.config.max_message_bytes, eof_ok=True)
                except NetError:
                    with self._lock:
                        self.stats["frame_errors"] += 1
                    return
                if frame is None:  # client done
                    return
                msg_type, payload, frame_bytes = frame
                with self._lock:
                    self.stats["bytes_in"] += frame_bytes
                if msg_type != MSG_SHARD:
                    reply_type, reply = MSG_ERROR, f"unexpected message type {msg_type}".encode()
                else:
                    reply_type, reply = self._run_shard(payload)
                try:
                    sent = write_frame(conn, reply_type, reply)
                except NetError:
                    with self._lock:
                        self.stats["frame_errors"] += 1
                    return
                with self._lock:
                    self.stats["bytes_out"] += sent
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _run_shard(self, payload: bytes):
        # Anonymous mmap: same buffer discipline as a shm segment (the
        # kernels view it in place), nothing named, freed on close.
        buf = mmap.mmap(-1, max(len(payload), 1))
        try:
            buf[: len(payload)] = payload
            tables, block = open_block(memoryview(buf)[: len(payload)])
            try:
                results = list(self.shard_fn(tables))
                # Encode before closing the block: results may alias the
                # view-backed tables (same contract as Transport.run_in_worker).
                blob = encode_result_records(results, self.config.max_message_bytes)
                if blob is None:
                    reply = (MSG_RESULT_PICKLE, pickle.dumps(results, _PICKLE_PROTOCOL))
                else:
                    reply = (MSG_RESULT, bytes(blob))
            finally:
                block.close()
            with self._lock:
                self.stats["shards_served"] += 1
            return reply
        except Exception as exc:  # shard fn / decode error: report, survive
            with self._lock:
                self.stats["fn_errors"] += 1
            return (MSG_ERROR, f"{type(exc).__name__}: {exc}".encode("utf-8", "replace"))
        finally:
            buf.close()
