"""E16: multi-node block transport — loopback TCP vs shm vs serial, plus chaos.

PR 8 pushes the PR 5/7 column blocks across a socket: the ``tcp`` transport
ships the exact ``ColumnBlockCodec`` / ``PredictionBlockCodec`` byte layouts
in crc-framed messages to a :class:`~repro.serving.net.BlockWorkerServer`,
which decodes them into anonymous mmap and runs the block-native kernels over
the received buffers.  This experiment pins the properties that make that
safe to deploy:

* **parity** — annotating through ``multiprocess:4+tcp://127.0.0.1:<port>``
  returns predictions bit-identical to the serial path and to the ``+shm``
  local baseline;
* **chaos parity** — the same run through a fault-injection proxy that
  corrupts, tears, and kills frames mid-shard *still* returns bit-identical
  predictions: every wounded shard is re-run locally and counted as a
  ``local_fallback`` with a reason;
* **lifecycle** — no shared-memory segment and no server/proxy socket
  survives the run; any survivor is printed as ``LEAKED SEGMENT <name>`` /
  ``LEAKED SOCKET <where>`` (the CI smoke job greps the log for exactly
  those markers).

Wall-clock is reported, never gated: on the 1-CPU build container loopback
TCP vs shm is scheduling noise (canonical caveat in ``docs/SERVING.md``).
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from pathlib import Path

import pytest

from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.serving import (
    MultiprocessBackend,
    NetConfig,
    NetTransport,
    ShmTransport,
    available_workers,
    reset_transport_stats,
    transport_stats,
)
from repro.serving.net import MSG_SHARD, read_frame, write_frame
from repro.serving.net import BlockWorkerServer
from repro.serving.transport import RESULT_SEGMENT_PREFIX, SHARD_SEGMENT_PREFIX

# The fault proxy is a test asset, deliberately shared with the chaos suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from faultnet import C2S, S2C, FaultProxy, Rule  # noqa: E402

#: Machine-readable E16 results, committed at the repo root alongside the
#: other benchmark artifacts.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_net_transport.json"

#: Corpus size: distinct seed from every other experiment; small enough for a
#: CI smoke run, large enough that each of the 4 shards carries real payload.
NET_TABLES = 96
WORKERS = 4

#: Deadlines tuned for a loopback chaos run: dropped frames cost one
#: io_timeout, dead peers one connect_timeout — seconds, not minutes.
CHAOS_NET = dict(connect_timeout=0.5, io_timeout=2.0, connect_retries=1, backoff_base=0.01)


def _live_segments() -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        name
        for name in os.listdir(shm_dir)
        if name.startswith((SHARD_SEGMENT_PREFIX, RESULT_SEGMENT_PREFIX))
    )


@pytest.fixture(scope="module")
def net_corpus():
    """A dedicated bulk-annotation corpus (distinct from the training seeds)."""
    return GitTablesGenerator(
        GitTablesConfig(num_tables=NET_TABLES, seed=31337)
    ).generate_corpus()


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


def _comparable(predictions):
    """Prediction content without wall-clock timings (bit-exact floats)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


def test_net_transport(benchmark, sigmatyper, net_corpus, record_result):
    tables = list(net_corpus)
    num_columns = sum(table.num_columns for table in tables)

    # Warm the model-level caches once so every configuration faces the same
    # model state; per-column caches stay cold per configuration.
    sigmatyper.annotate_corpus(_fresh(tables))

    started = time.perf_counter()
    reference = _comparable(sigmatyper.annotate_corpus(_fresh(tables)))
    serial_seconds = time.perf_counter() - started

    rows = [
        {
            "configuration": "(serial reference)",
            "seconds_total": round(serial_seconds, 3),
            "columns_per_second": round(num_columns / serial_seconds, 1),
            "remote_shards": 0,
            "local_fallbacks": 0,
            "net_bytes_out": 0,
            "net_bytes_in": 0,
        }
    ]

    def run_leg(label, transport, extra=()):
        reset_transport_stats()
        backend = MultiprocessBackend(WORKERS, transport=transport)
        batch = _fresh(tables)
        leg_started = time.perf_counter()
        predictions = sigmatyper.annotate_corpus(batch, backend=backend)
        elapsed = time.perf_counter() - leg_started
        assert _comparable(predictions) == reference, (
            f"{label} diverged from the serial path"
        )
        stats = transport.stats
        rows.append(
            {
                "configuration": label,
                "seconds_total": round(elapsed, 3),
                "columns_per_second": round(num_columns / elapsed, 1),
                "remote_shards": getattr(stats, "remote_shards", 0),
                "local_fallbacks": getattr(stats, "local_fallbacks", 0),
                "net_bytes_out": getattr(stats, "net_bytes_out", 0),
                "net_bytes_in": getattr(stats, "net_bytes_in", 0),
            }
        )
        return stats

    # ---- leg 1: the PR 5 local shm baseline ---------------------------------
    run_leg(f"multiprocess:{WORKERS}+shm", ShmTransport())

    # ---- leg 2: loopback TCP to a block worker server -----------------------
    # A healthy peer gets the default deadlines: the in-process server runs
    # the four shards on four threads under one GIL, so every reply waits
    # for all four, and CHAOS_NET's 2 s io_timeout is within reach of that
    # on a slow CPU.
    with BlockWorkerServer.for_typer(sigmatyper) as server:
        tcp_stats = run_leg(
            f"multiprocess:{WORKERS}+tcp (loopback)",
            NetTransport([server.address], NetConfig()),
        )
        assert tcp_stats.remote_shards == WORKERS
        assert tcp_stats.local_fallbacks == 0
        assert tcp_stats.net_bytes_out > 0 and tcp_stats.net_bytes_in > 0
        assert server.stats["shards_served"] == WORKERS
        assert server.wait_idle()
        server_stats = dict(server.stats)

        # ---- leg 3: the same run through a hostile wire ---------------------
        proxy = FaultProxy(
            server.address,
            rules=[
                # Connection 0: the shard frame's magic is flipped — the
                # server rejects the frame and the client sees a dead peer.
                Rule(C2S, 0, "corrupt", corrupt_offset=0, conn_index=0),
                # Connection 1: the result frame is torn mid-payload.
                Rule(S2C, 0, "truncate", keep_bytes=40, conn_index=1),
                # Connection 2: the peer dies the moment the shard arrives.
                Rule(C2S, 0, "kill", conn_index=2),
            ],
        )
        with proxy:
            chaos_stats = run_leg(
                f"multiprocess:{WORKERS}+tcp (chaos proxy)",
                NetTransport(
                    [(proxy.address[0], proxy.address[1])], NetConfig(**CHAOS_NET)
                ),
            )
        assert len(proxy.faults) == 3, proxy.faults
        assert chaos_stats.local_fallbacks == 3
        assert chaos_stats.remote_shards == WORKERS - 3
        assert chaos_stats.last_fallback_reason
        chaos_global = transport_stats()["tcp"]
        assert chaos_global["local_fallbacks"] == 3
        assert server.wait_idle()
        proxy_stats = dict(proxy.stats)

        # Lifecycle: nothing may outlive the legs.  Leaks are printed with
        # stable markers for the CI log grep.
        leaked_segments = _live_segments()
        for name in leaked_segments:
            print(f"LEAKED SEGMENT {name}")
        assert not leaked_segments, f"segments leaked: {leaked_segments}"
        leaked_sockets = []
        if server.open_connections():
            leaked_sockets.append(f"server:{server.open_connections()}")
        if proxy._socks:
            leaked_sockets.append(f"proxy:{len(proxy._socks)}")
        for where in leaked_sockets:
            print(f"LEAKED SOCKET {where}")
        assert not leaked_sockets, f"sockets leaked: {leaked_sockets}"

    usable_cpus = available_workers()
    record_result(
        "E16_net_transport",
        format_table(
            rows,
            title=(
                f"E16 — net transport over {len(tables)} tables / {num_columns} "
                f"columns, {WORKERS} workers, {usable_cpus} usable CPUs "
                f"(chaos: 3 faults, 3 local fallbacks, parity held)"
            ),
        ),
    )
    BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E16_net_transport",
                "usable_cpus": usable_cpus,
                "num_tables": len(tables),
                "num_columns": num_columns,
                "workers": WORKERS,
                "configurations": rows,
                "chaos_faults": [list(fault) for fault in proxy.faults],
                "chaos_fallback_reason": chaos_stats.last_fallback_reason,
                "server_stats": server_stats,
                "proxy_stats": proxy_stats,
                "leaked_segments": leaked_segments,
                "leaked_sockets": leaked_sockets,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Representative operation for pytest-benchmark: framing one shard's
    # block bytes onto a socketpair while a drain thread reads and
    # crc-checks the frames — the per-shard wire cost the tcp transport
    # adds on top of the shm path's codec work.  (The drain thread matters:
    # a shard blob is larger than the kernel's socket buffer, so a
    # single-threaded write-then-read would deadlock in sendall.)
    import threading

    from repro.serving import ColumnBlockCodec

    shard = tables[: max(1, len(tables) // WORKERS)]
    blob = bytes(ColumnBlockCodec.encode_tables(shard))
    left, right = socket.socketpair()

    def drain():
        while True:
            frame = read_frame(right, len(blob) + 1024, eof_ok=True)
            if frame is None:
                return
            assert frame[0] == MSG_SHARD and len(frame[1]) == len(blob)

    drain_thread = threading.Thread(target=drain, daemon=True)
    drain_thread.start()
    try:
        benchmark(write_frame, left, MSG_SHARD, blob)
    finally:
        left.close()
        drain_thread.join(timeout=5)
        right.close()
    assert not drain_thread.is_alive()
