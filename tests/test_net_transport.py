"""Multi-node block transport: framing, specs, parity, and the fault matrix.

Contracts pinned here:

* **framing** — every malformed frame (bad magic, unknown type, oversize,
  torn, corrupt payload) is rejected as :class:`FrameError`, never decoded;
* **parity** — remote annotation over loopback TCP is bit-identical to the
  local path, and *stays* bit-identical under every injected fault (torn
  frames, corrupt bytes, dead peers, slow peers): network failures degrade
  to running the shard locally, counted with a reason, never to a changed
  or missing prediction;
* **lifecycle** — a killed or wedged peer never leaks a ``/dev/shm``
  segment or a socket, and never wedges the dispatcher (the next clean run
  succeeds on the same transport).

The faults come from :mod:`faultnet`'s frame-aware proxy, so the same
machinery is reusable by the E16 chaos benchmark leg.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time

import pytest

from datagen import mixed_table, random_corpus
from faultnet import C2S, S2C, FaultProxy, Rule
from repro.core.errors import ConfigurationError, ServingError
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.table import Table
from repro.serving import MultiprocessBackend, resolve_backend, resolve_transport
from repro.serving.net import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MSG_RESULT,
    MSG_SHARD,
    BlockWorkerServer,
    FrameError,
    NetConfig,
    NetTimeoutError,
    NetTransport,
    PeerUnavailableError,
    pack_frame,
    read_frame,
    read_frame_async,
    write_frame,
)
from repro.serving.transport import (
    RESULT_SEGMENT_PREFIX,
    SHARD_SEGMENT_PREFIX,
    reset_transport_stats,
    transport_stats,
)

SHM_DIR = "/dev/shm"


def _our_segments() -> list[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith((SHARD_SEGMENT_PREFIX, RESULT_SEGMENT_PREFIX))
    )


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """The net transport must never materialize a /dev/shm segment."""
    before = _our_segments()
    yield
    assert _our_segments() == before, "net transport leaked shared-memory segments"


#: Fast-failure knobs so fault tests run in milliseconds, not deadlines.
FAST = dict(connect_timeout=0.5, io_timeout=1.0, connect_retries=1, backoff_base=0.01)


def predict_tables(tables):
    """Deterministic module-level shard fn (fork- and pickle-shippable)."""
    return [
        TablePrediction(
            table_name=table.name,
            columns=[
                ColumnPrediction(
                    column_index=index,
                    column_name=column.name,
                    scores=[TypeScore(0.5, "city")],
                    source_step="header_matching",
                )
                for index, column in enumerate(table.columns)
            ],
            step_trace={"header_matching": len(table.columns)},
        )
        for table in tables
    ]


def summarize_tables(tables):
    """A shard fn whose results the prediction codec cannot encode."""
    return [(table.name, len(table.columns)) for table in tables]


def failing_fn(tables):
    raise ValueError(f"boom on {tables[0].name}")


def _tables(n: int = 2) -> list[Table]:
    return [mixed_table() for _ in range(n)]


@pytest.fixture()
def server():
    with BlockWorkerServer(predict_tables, config=NetConfig(**FAST)) as srv:
        yield srv
        assert srv.wait_idle(), "server still had open connections"


def _transport(*specs, **config) -> NetTransport:
    peers = []
    for spec in specs:
        host, _, port = spec.removeprefix("tcp://").rpartition(":")
        peers.append((host, int(port)))
    return NetTransport(peers, NetConfig(**{**FAST, **config}))


def _roundtrip(transport: NetTransport, fn=predict_tables, tables=None):
    """encode → run_in_worker → decode → release, returning the results."""
    payload = transport.encode_shard(tables if tables is not None else _tables())
    try:
        return transport.decode_results(transport.run_in_worker(fn, payload))
    finally:
        transport.release(payload)


# -------------------------------------------------------------------- config
class TestNetConfig:
    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ConfigurationError):
            NetConfig(io_timeout=0)
        with pytest.raises(ConfigurationError):
            NetConfig(connect_timeout=-1)

    def test_rejects_bad_backoff_and_retries(self):
        with pytest.raises(ConfigurationError):
            NetConfig(connect_retries=-1)
        with pytest.raises(ConfigurationError):
            NetConfig(backoff_base=0.5, backoff_max=0.1)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_IO_TIMEOUT", "3.5")
        monkeypatch.setenv("REPRO_NET_CONNECT_RETRIES", "7")
        config = NetConfig.from_env()
        assert config.io_timeout == 3.5
        assert config.connect_retries == 7
        assert config.connect_timeout == NetConfig().connect_timeout

    def test_bad_env_value_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_IO_TIMEOUT", "fast")
        with pytest.raises(ConfigurationError):
            NetConfig.from_env()


# ------------------------------------------------------------------- framing
class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(2)
        right.settimeout(2)
        return left, right

    def test_roundtrip(self):
        left, right = self._pair()
        try:
            sent = write_frame(left, MSG_SHARD, b"payload")
            msg_type, payload, nbytes = read_frame(right, 1 << 20)
            assert (msg_type, payload) == (MSG_SHARD, b"payload")
            assert sent == nbytes == FRAME_HEADER.size + len(b"payload")
        finally:
            left.close()
            right.close()

    def test_empty_payload_roundtrips(self):
        left, right = self._pair()
        try:
            write_frame(left, MSG_RESULT, b"")
            assert read_frame(right, 1 << 20)[:2] == (MSG_RESULT, b"")
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(FRAME_HEADER.pack(b"NOPE", MSG_SHARD, 0, 0))
            with pytest.raises(FrameError, match="magic"):
                read_frame(right, 1 << 20)
        finally:
            left.close()
            right.close()

    def test_unknown_message_type_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(FRAME_HEADER.pack(FRAME_MAGIC, 42, 0, 0))
            with pytest.raises(FrameError, match="message type"):
                read_frame(right, 1 << 20)
        finally:
            left.close()
            right.close()

    def test_oversized_frame_rejected_before_reading_payload(self):
        left, right = self._pair()
        try:
            left.sendall(FRAME_HEADER.pack(FRAME_MAGIC, MSG_SHARD, 1 << 30, 0))
            with pytest.raises(FrameError, match="max_message_bytes"):
                read_frame(right, 1 << 20)
        finally:
            left.close()
            right.close()

    def test_crc_mismatch_rejected(self):
        left, right = self._pair()
        try:
            write_frame(left, MSG_SHARD, b"payload")
            raw = right.recv(FRAME_HEADER.size + 7, socket.MSG_WAITALL)
            mutated = bytearray(raw)
            mutated[-1] ^= 0xFF
            left2, right2 = self._pair()
            try:
                left2.sendall(mutated)
                with pytest.raises(FrameError, match="crc"):
                    read_frame(right2, 1 << 20)
            finally:
                left2.close()
                right2.close()
        finally:
            left.close()
            right.close()

    def test_torn_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(FRAME_HEADER.pack(FRAME_MAGIC, MSG_SHARD, 100, 0))
            left.sendall(b"only-ten-b")
            left.close()
            with pytest.raises(FrameError, match="mid-frame"):
                read_frame(right, 1 << 20)
        finally:
            right.close()

    def test_clean_eof_returns_none_when_allowed(self):
        left, right = self._pair()
        left.close()
        try:
            assert read_frame(right, 1 << 20, eof_ok=True) is None
            with pytest.raises(FrameError):
                read_frame(right, 1 << 20)
        finally:
            right.close()

    def test_read_deadline_fires(self):
        left, right = self._pair()
        right.settimeout(0.05)
        try:
            with pytest.raises(NetTimeoutError):
                read_frame(right, 1 << 20)
        finally:
            left.close()
            right.close()


class TestAsyncFraming:
    """The :class:`TestFraming` cases against :func:`read_frame_async`, the
    reader the worker pool uses: one header check and one crc check serve
    both readers.  (It has no deadline of its own, so no deadline case.)"""

    @staticmethod
    def _read(wire: bytes, *, close: bool = True):
        """Send *wire* down a socketpair, then read one frame from it async."""
        left, right = socket.socketpair()

        async def drive():
            reader, writer = await asyncio.open_connection(sock=right)
            try:
                return await read_frame_async(reader, 1 << 20)
            finally:
                writer.close()

        try:
            left.sendall(wire)
            if close:
                left.close()
            return asyncio.run(drive())
        finally:
            left.close()

    def test_roundtrip(self):
        frame = pack_frame(MSG_SHARD, b"payload")
        msg_type, payload, nbytes = self._read(frame)
        assert (msg_type, payload) == (MSG_SHARD, b"payload")
        assert nbytes == len(frame) == FRAME_HEADER.size + len(b"payload")

    def test_empty_payload_roundtrips(self):
        assert self._read(pack_frame(MSG_RESULT, b""))[:2] == (MSG_RESULT, b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(FrameError, match="magic"):
            self._read(FRAME_HEADER.pack(b"NOPE", MSG_SHARD, 0, 0))

    def test_unknown_message_type_rejected(self):
        with pytest.raises(FrameError, match="message type"):
            self._read(FRAME_HEADER.pack(FRAME_MAGIC, 42, 0, 0))

    def test_oversized_frame_rejected_before_reading_payload(self):
        # The socket stays open: the reader must reject on the header alone.
        with pytest.raises(FrameError, match="max_message_bytes"):
            self._read(FRAME_HEADER.pack(FRAME_MAGIC, MSG_SHARD, 1 << 30, 0), close=False)

    def test_crc_mismatch_rejected(self):
        mutated = bytearray(pack_frame(MSG_SHARD, b"payload"))
        mutated[-1] ^= 0xFF
        with pytest.raises(FrameError, match="crc"):
            self._read(bytes(mutated))

    def test_torn_frame_rejected(self):
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(FRAME_HEADER.pack(FRAME_MAGIC, MSG_SHARD, 100, 0) + b"only-ten-b")

    def test_clean_eof_returns_none_when_allowed(self):
        async def drive(sock):
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                assert await read_frame_async(reader, 1 << 20, eof_ok=True) is None
                with pytest.raises(FrameError):
                    await read_frame_async(reader, 1 << 20)
            finally:
                writer.close()

        left, right = socket.socketpair()
        left.close()
        asyncio.run(drive(right))


# --------------------------------------------------------------------- specs
class TestSpecs:
    def test_explicit_spec_parses_multiple_peers(self):
        transport = NetTransport.from_spec("tcp://127.0.0.1:9001,127.0.0.2:9002")
        assert transport.peers == [("127.0.0.1", 9001), ("127.0.0.2", 9002)]
        assert transport.name == "tcp"

    def test_env_peers(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_PEERS", "127.0.0.1:9001")
        assert NetTransport.from_spec("tcp").peers == [("127.0.0.1", 9001)]

    def test_missing_env_peers_is_a_config_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_PEERS", raising=False)
        with pytest.raises(ConfigurationError, match="REPRO_NET_PEERS"):
            NetTransport.from_spec("tcp")

    @pytest.mark.parametrize("spec", ["tcp://", "tcp://nohost", "tcp://h:not-a-port"])
    def test_malformed_peer_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            NetTransport.from_spec(spec)

    def test_resolve_transport_understands_tcp_specs(self):
        transport = resolve_transport("tcp://127.0.0.1:9001")
        assert isinstance(transport, NetTransport)

    def test_resolve_backend_understands_tcp_suffix(self):
        backend = resolve_backend("multiprocess:2+tcp://127.0.0.1:9001")
        assert isinstance(backend, MultiprocessBackend)
        assert isinstance(backend.transport, NetTransport)
        assert backend.transport.peers == [("127.0.0.1", 9001)]


# ------------------------------------------------------------------ encoding
class TestEncodeShard:
    def test_tables_ride_the_wire_payload(self, server):
        transport = _transport(server.spec)
        payload = transport.encode_shard(_tables())
        assert payload[0] == "net"
        assert isinstance(payload[2], bytes)
        assert payload[3] == server.address
        transport.release(payload)

    def test_non_table_shards_fall_back_to_pickle(self):
        transport = _transport("tcp://127.0.0.1:9001")
        payload = transport.encode_shard(["not-a-table"])
        assert payload[0] == "pickle"
        assert transport.stats.pickle_fallbacks == 1
        assert "not tables" in transport.stats.last_fallback_reason

    def test_unsupported_cells_fall_back_to_pickle(self):
        transport = _transport("tcp://127.0.0.1:9001")
        table = Table.from_columns_dict({"c": [object()]}, name="t")
        payload = transport.encode_shard([table])
        assert payload[0] == "pickle"
        assert transport.stats.pickle_fallbacks == 1

    def test_oversized_shards_fall_back_to_pickle(self):
        transport = _transport("tcp://127.0.0.1:9001", max_message_bytes=64)
        payload = transport.encode_shard(_tables(1))
        assert payload[0] == "pickle"
        assert "max_message_bytes" in transport.stats.last_fallback_reason

    def test_peers_assigned_round_robin(self):
        transport = _transport("tcp://127.0.0.1:9001", "tcp://127.0.0.1:9002")
        picked = [transport.encode_shard(_tables(1))[3] for _ in range(4)]
        assert picked == [("127.0.0.1", 9001), ("127.0.0.1", 9002)] * 2


# ------------------------------------------------------------------ loopback
class TestLoopback:
    def test_remote_results_match_local(self, server):
        transport = _transport(server.spec)
        results = _roundtrip(transport)
        assert results == predict_tables(_tables())
        assert transport.stats.remote_shards == 1
        assert transport.stats.local_fallbacks == 0
        assert transport.stats.net_bytes_out > 0
        assert transport.stats.net_bytes_in > 0
        assert server.stats["shards_served"] == 1

    def test_unsupported_results_come_back_pickled(self):
        with BlockWorkerServer(summarize_tables, config=NetConfig(**FAST)) as srv:
            transport = _transport(srv.spec)
            results = _roundtrip(transport, fn=summarize_tables)
            assert results == summarize_tables(_tables())
            assert transport.stats.remote_shards == 1
            assert transport.stats.result_pickle_fallbacks == 1
            assert srv.wait_idle()

    def test_remote_shard_error_reruns_locally_and_propagates(self):
        with BlockWorkerServer(failing_fn, config=NetConfig(**FAST)) as srv:
            transport = _transport(srv.spec)
            payload = transport.encode_shard(_tables())
            with pytest.raises(ValueError, match="boom"):
                transport.run_in_worker(failing_fn, payload)
            transport.release(payload)
            assert srv.stats["fn_errors"] == 1
            assert srv.wait_idle()

    def test_flaky_remote_error_recovers_via_local_rerun(self):
        # The server's fn fails once (environmental flake), then works: the
        # first shard comes back via the local rerun, the second remotely,
        # and the server survives its own error.
        calls = {"n": 0}

        def flaky(tables):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return predict_tables(tables)

        with BlockWorkerServer(flaky, config=NetConfig(**FAST)) as srv:
            transport = _transport(srv.spec)
            assert _roundtrip(transport, fn=flaky) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert "remote shard error" in transport.stats.last_fallback_reason
            assert _roundtrip(transport, fn=flaky) == predict_tables(_tables())
            assert transport.stats.remote_shards == 1
            assert srv.stats["fn_errors"] == 1
            assert srv.stats["shards_served"] == 1

    def test_pickle_fallback_shards_never_touch_the_wire(self, server):
        transport = _transport(server.spec)
        results = _roundtrip(
            transport,
            fn=lambda items: [item.upper() for item in items],
            tables=["not-a-table", "also-not"],
        )
        assert results == ["NOT-A-TABLE", "ALSO-NOT"]
        assert transport.stats.net_bytes_out == 0
        assert server.stats["connections"] == 0

    def test_two_servers_share_the_load(self):
        with BlockWorkerServer(predict_tables, config=NetConfig(**FAST)) as one:
            with BlockWorkerServer(predict_tables, config=NetConfig(**FAST)) as two:
                transport = _transport(one.spec, two.spec)
                for _ in range(2):
                    assert _roundtrip(transport) == predict_tables(_tables())
                assert one.stats["shards_served"] == 1
                assert two.stats["shards_served"] == 1
                assert one.wait_idle() and two.wait_idle()


# ----------------------------------------------------------------- fallbacks
class TestFallbacks:
    def test_unreachable_peer_runs_locally_with_reconnects_counted(self):
        transport = _transport("tcp://127.0.0.1:1")
        results = _roundtrip(transport)
        assert results == predict_tables(_tables())
        assert transport.stats.local_fallbacks == 1
        assert transport.stats.remote_shards == 0
        assert transport.stats.reconnects == FAST["connect_retries"]
        assert "PeerUnavailableError" in transport.stats.last_fallback_reason

    def test_connect_deadline_bounds_a_black_hole_peer(self):
        # A listener that never accepts: the backlog fills after one
        # connection, making connect_timeout the binding bound.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(0)
        try:
            spec = f"tcp://127.0.0.1:{sink.getsockname()[1]}"
            transport = _transport(spec, connect_timeout=0.2, io_timeout=0.2, connect_retries=0)
            results = _roundtrip(transport)
            assert results == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
        finally:
            sink.close()

    def test_fallback_reason_reaches_global_stats(self):
        transport = _transport("tcp://127.0.0.1:1")
        _roundtrip(transport)
        bucket = transport_stats()["tcp"]
        assert bucket["local_fallbacks"] >= 1
        assert "PeerUnavailableError" in bucket["last_fallback_reason"]


# --------------------------------------------------------------- fault matrix
class TestChaos:
    def _proxied_transport(self, server, rules=(), kill_after_frames=None, **config):
        proxy = FaultProxy(server.address, rules=rules, kill_after_frames=kill_after_frames)
        proxy.start()
        return proxy, _transport(proxy.spec, **config)

    def test_corrupt_shard_payload_is_rejected_and_runs_locally(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(C2S, 0, "corrupt", corrupt_offset=FRAME_HEADER.size + 3)]
        )
        with proxy:
            results = _roundtrip(transport)
            assert results == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert proxy.faults == [(C2S, 0, "corrupt")]
            assert server.stats["frame_errors"] == 1
            assert server.stats["shards_served"] == 0

    def test_corrupt_header_magic_is_rejected(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(C2S, 0, "corrupt", corrupt_offset=0)]
        )
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert server.stats["shards_served"] == 0

    def test_corrupt_result_payload_is_rejected_client_side(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(S2C, 0, "corrupt", corrupt_offset=FRAME_HEADER.size + 1)]
        )
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert "FrameError" in transport.stats.last_fallback_reason
            # The server did serve the shard; the wire lost the result.
            assert server.stats["shards_served"] == 1

    def test_torn_result_frame_runs_locally(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(S2C, 0, "truncate", keep_bytes=FRAME_HEADER.size + 5)]
        )
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert proxy.faults == [(S2C, 0, "truncate")]

    def test_dropped_shard_frame_hits_the_read_deadline(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(C2S, 0, "drop")], io_timeout=0.3
        )
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert "NetTimeoutError" in transport.stats.last_fallback_reason

    def test_slow_result_hits_the_read_deadline(self, server):
        proxy, transport = self._proxied_transport(
            server, rules=[Rule(S2C, 0, "delay", delay_seconds=1.0)], io_timeout=0.2
        )
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert "NetTimeoutError" in transport.stats.last_fallback_reason

    def test_peer_killed_mid_shard_runs_locally(self, server):
        proxy, transport = self._proxied_transport(server, rules=[Rule(C2S, 0, "kill")])
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1

    def test_kill_after_frames_counts_frames_across_directions(self, server):
        # Forward the first full exchange (2 frames), kill during the second.
        proxy, transport = self._proxied_transport(server, kill_after_frames=2)
        with proxy:
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.remote_shards == 1
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.local_fallbacks == 1
            assert proxy.stats["kills"] >= 1

    def test_chaos_never_breaks_parity_or_wedges_the_dispatcher(self, server):
        rules = [
            Rule(C2S, 0, "corrupt", corrupt_offset=FRAME_HEADER.size + 2, conn_index=0),
            Rule(S2C, 0, "truncate", keep_bytes=3, conn_index=1),
            Rule(C2S, 0, "kill", conn_index=2),
        ]
        proxy, transport = self._proxied_transport(server, rules=rules)
        with proxy:
            corpus = random_corpus(4321, 6)
            for start in range(0, 6, 2):
                shard = [t.copy() for t in corpus[start : start + 2]]
                assert _roundtrip(transport, tables=shard) == predict_tables(shard)
            assert transport.stats.local_fallbacks == 3
            # The dispatcher is not wedged: a clean exchange still succeeds.
            assert _roundtrip(transport) == predict_tables(_tables())
            assert transport.stats.remote_shards >= 1


# ------------------------------------------------------------------ lifecycle
class TestServerLifecycle:
    def test_address_requires_start(self):
        server = BlockWorkerServer(predict_tables)
        with pytest.raises(ServingError, match="not started"):
            server.address  # noqa: B018 - the property raises

    def test_stop_unblocks_an_idle_connection(self):
        # Default config: io_timeout is 30s, so only stop() can unblock the
        # reader thread within the test's lifetime.
        server = BlockWorkerServer(predict_tables).start()
        client = socket.create_connection(server.address, timeout=2)
        try:
            deadline = time.monotonic() + 2
            while server.open_connections() == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.open_connections() == 1
        finally:
            server.stop()  # must not hang on the blocked reader thread
            client.close()
        assert server.open_connections() == 0

    def test_start_and_stop_are_idempotent(self):
        server = BlockWorkerServer(predict_tables)
        server.start()
        server.start()
        server.stop()
        server.stop()

    def test_garbage_connection_does_not_kill_the_server(self, server):
        with socket.create_connection(server.address, timeout=2) as client:
            client.sendall(b"GET / HTTP/1.0\r\n\r\n")
            try:
                data = client.recv(1024)
            except ConnectionError:
                data = b""  # closed with unread bytes pending → RST
            assert data == b""  # connection dropped, never a reply
        transport = _transport(server.spec)
        assert _roundtrip(transport) == predict_tables(_tables())


# ---------------------------------------------------------------- integration
class TestCorpusIntegration:
    def test_annotate_corpus_over_loopback_tcp_matches_serial(
        self, pretrained_typer, eval_corpus
    ):
        typer = pretrained_typer

        def comparable(predictions):
            return [(p.table_name, p.step_trace, p.columns) for p in predictions]

        serial = typer.annotate_corpus([t.copy() for t in eval_corpus], backend="serial")
        reset_transport_stats()
        with BlockWorkerServer.for_typer(typer) as srv:
            spec = f"multiprocess:2+{srv.spec}"
            remote = typer.annotate_corpus([t.copy() for t in eval_corpus], backend=spec)
            assert comparable(remote) == comparable(serial)
            assert srv.stats["shards_served"] >= 2
            assert srv.wait_idle()
        summary = typer.summary()["shard_transport"]["tcp"]
        assert summary["remote_shards"] >= 2
        assert summary["local_fallbacks"] == 0

    def test_annotate_corpus_with_dead_peer_falls_back_per_shard(
        self, pretrained_typer, eval_corpus
    ):
        typer = pretrained_typer

        def comparable(predictions):
            return [(p.table_name, p.step_trace, p.columns) for p in predictions]

        serial = typer.annotate_corpus([t.copy() for t in eval_corpus], backend="serial")
        with BlockWorkerServer.for_typer(typer) as srv:
            # One live peer, one black hole: round-robin sends every other
            # shard into the wall, and every one of them must still come back
            # bit-identical via the local fallback.
            transport = NetTransport(
                [srv.address, ("127.0.0.1", 1)],
                NetConfig(**FAST),
            )
            backend = MultiprocessBackend(max_workers=2, transport=transport)
            remote = typer.annotate_corpus([t.copy() for t in eval_corpus], backend=backend)
            assert comparable(remote) == comparable(serial)
            assert transport.stats.local_fallbacks >= 1
            assert srv.wait_idle()
