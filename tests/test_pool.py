"""The worker pool, the typed spec layer, and the unified stats.

The acceptance gates pinned here:

* **Spec round-trip** — ``str(BackendSpec.parse(s)) == s`` and
  ``str(PoolSpec.parse(s)) == s`` for every spec string documented in
  docs/SERVING.md (scraped from the doc, so the table and the parser cannot
  drift).
* **One grammar** — ``BackendSpec.parse`` and ``resolve_backend`` accept and
  reject exactly the same strings.
* **Least-loaded routing** — one request at a time, every request lands on
  the lowest slot (an idle pool keeps one worker warm); a burst sent all at
  once splits evenly over the workers.
* **Parity** — pool predictions bit-identical to calling the typer
  directly, including across a worker death.
* **Supervision drill** — SIGKILL a worker mid-flight: the pool detects the
  death, restarts the slot, re-dispatches the in-flight requests, and no
  request is lost.  When the replacement cannot be forked, the slot stays
  retired and its requests go to a survivor, or fail with a
  :class:`ServingError` when none is left.
* **Framing** — the SGN1 reader rejects every malformed frame (bad magic,
  unknown type, oversize, torn, corrupt payload) as :class:`FrameError`.
* **Frame bound** — a request or result too large for one frame fails that
  request alone; it never reaches a reader, so no worker dies for it.
* **Clean shutdown** — a pool that served requests shuts down in well under
  a second and every worker exits 0.
* **Stats vocabulary** — every ``summary()`` carries its own section plus
  :func:`repro.serving.stats.shared_sections`.
"""

from __future__ import annotations

import asyncio
import errno
import os
import pickle
import re
import signal
import socket
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError, ServingError
from repro.core.table import Table
from repro.serving import (
    AnnotationFrontend,
    AnnotationPool,
    AnnotationService,
    BackendSpec,
    FrontendConfig,
    PoolSpec,
    resolve_backend,
    resolve_transport,
)
from repro.serving import pool as pool_module
from repro.serving.pool import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MSG_POOL_ERROR,
    MSG_POOL_REQUEST,
    MSG_POOL_RESULT,
    FrameError,
    _serve_one,
    pack_frame,
    read_frame_async,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every spec form the serving layer has ever documented.  The scrape test
#: below proves docs/SERVING.md stays inside this grammar; this literal list
#: keeps the round-trip gate meaningful even if the doc's phrasing changes.
DOCUMENTED_SPECS = [
    "serial",
    "multiprocess",
    "multiprocess:8",
    "multiprocess:8+shm",
    "multiprocess+pickle",
    "pool:4",
]

#: Canonical spec-string shapes as they appear in inline code spans in the
#: serving doc.  Matches full tokens only, so prose words that merely start
#: with a backend name ("serialization") never trip the gate.
_CANONICAL_SPEC = re.compile(r"^(?:pool:\d+|(?:serial|multiprocess)(?:[:+]\S+)?)$")


def _parse_spec(spec_string: str):
    """A pool spec string parses as :class:`PoolSpec`, any other as
    :class:`BackendSpec`."""
    if spec_string.startswith("pool"):
        return PoolSpec.parse(spec_string)
    return BackendSpec.parse(spec_string)


#: Spec strings the one grammar must reject, whichever entry point reads them.
MALFORMED_SPECS = [
    "",
    "warp",
    "pool:4",
    "pool:4@multiprocess:2+shm",
    "serial+shm",
    "serial:2",
    "threaded",
    "threaded:4",
    "threaded:2+shm",
    "threaded:x",
    "multiprocess:0",
    "multiprocess:2+arrow",
    "multiprocess:8+tcp://worker-a:7071,worker-b:7071",
    "multiprocess:8+tcp",
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
    result carries its final service stats."""
    for worker in pool._workers:
        worker.last_pong = None
    deadline = time.monotonic() + timeout
    while any(w.last_pong is None for w in pool._workers if not w.retired):
        assert time.monotonic() < deadline, "workers stopped answering heartbeats"
        await asyncio.sleep(pool.pool_spec.heartbeat_interval)
    return pool.summary()["pool"]["per_worker"]


# ------------------------------------------------------------ spec round-trip
class TestSpecGrammar:
    def test_round_trips_every_documented_spec_string(self):
        for spec_string in DOCUMENTED_SPECS:
            assert str(_parse_spec(spec_string)) == spec_string

    def test_round_trips_every_spec_string_in_the_serving_doc(self):
        """Scrape docs/SERVING.md so the doc and the parser cannot drift."""
        text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
        found = set()
        for match in re.finditer(r"`\"?([^`\s]+?)\"?`", text):
            candidate = match.group(1)
            if not _CANONICAL_SPEC.match(candidate):
                continue
            try:
                spec = _parse_spec(candidate)
            except ConfigurationError:
                continue  # a grammar placeholder like `multiprocess:N`
            assert str(spec) == candidate, candidate
            found.add(candidate)
        # The scrape actually saw the documented tables, not an empty page.
        assert {"serial", "multiprocess:8+shm", "pool:4"} <= found

    def test_component_parsers(self):
        backend = BackendSpec.parse("multiprocess:4+shm")
        assert backend.workers == 4
        assert backend.transport == "shm"
        assert str(backend) == "multiprocess:4+shm"
        assert str(PoolSpec.parse("pool:3")) == "pool:3"
        assert str(PoolSpec.parse("pool")) == "pool:2"  # default worker count

    def test_invalid_specs_raise_configuration_error(self):
        for bad in ("", "warp", "serial+shm", "threaded:x"):
            with pytest.raises(ConfigurationError):
                BackendSpec.parse(bad)
        for bad in ("pool:0", "pool:2@", "pool:2@serial", "pool:x", "warp:2"):
            with pytest.raises(ConfigurationError):
                PoolSpec.parse(bad)
        with pytest.raises(ConfigurationError):
            BackendSpec(name="multiprocess", transport="arrow")

    def test_parse_and_resolve_accept_the_same_strings(self):
        """One grammar: the typed parser and ``resolve_backend`` agree on
        every documented spec and every malformed one."""

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
        assert resolve_backend(BackendSpec.parse("multiprocess:2")).max_workers == 2
        assert resolve_backend(BackendSpec.parse("multiprocess:2")).name == "multiprocess"
        assert resolve_backend(BackendSpec.parse("serial")).name == "serial"
        assert resolve_transport("shm").name == "shm"

    def test_frontend_config_validates(self):
        config = FrontendConfig(tenant_rate=None, default_deadline=None).validate()
        assert config.tenant_rate is None
        with pytest.raises(ConfigurationError):
            FrontendConfig(tenant_burst=-1.0).validate()


# ------------------------------------------------------------------ the pool
class TestAnnotationPool:
    def test_parity_and_affinity_on_repeat_heavy_mix(self, pretrained_typer, tables):
        """One request at a time, every table lands on the lowest slot — the
        one warm worker of an idle pool — and results are bit-identical."""
        serial = [pretrained_typer.annotate(t) for t in tables]
        rounds = 4
        slots = [0, 1, 2]

        async def drive():
            spec = PoolSpec(workers=len(slots), heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                results = []
                for _ in range(rounds):
                    for table in tables:
                        results.append(await pool.annotate(table.copy()))
                return results, pool.stats, await _settled_per_worker(pool)

        results, stats, per_worker = asyncio.run(drive())
        assert results == serial * rounds
        served = {slot: info["service"]["requests_total"] for slot, info in per_worker.items()}
        assert served == {0: len(tables) * rounds, 1: 0, 2: 0}
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
        # With nothing in flight, every repeat lands on the same (lowest) slot.
        assert served == [0, 0, 5]

    def test_burst_splits_evenly_over_the_workers(self, pretrained_typer, tables):
        """Requests sent all at once join the shortest queue in turn."""
        serial = [pretrained_typer.annotate(t) for t in tables]
        burst = tables * 2

        async def drive():
            spec = PoolSpec(workers=3, heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                results = await asyncio.gather(
                    *[pool.annotate(table.copy()) for table in burst]
                )
                return results, await _settled_per_worker(pool)

        results, per_worker = asyncio.run(drive())
        assert results == serial * 2
        served = [per_worker[slot]["service"]["requests_total"] for slot in sorted(per_worker)]
        assert served == [len(burst) // 3] * 3

    def test_sigkill_worker_redispatches_in_flight_requests(self, pretrained_typer, tables):
        """The supervision drill: kill -9 a worker, lose zero requests."""
        serial = [pretrained_typer.annotate(t) for t in tables]

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
        assert results == serial
        assert follow_up == serial[0]
        assert stats.worker_deaths >= 1
        assert stats.restarts >= 1
        assert stats.redispatches >= 1
        assert stats.errors_total == 0

    @staticmethod
    async def _kill_with_fork_refused(pool, burst, monkeypatch):
        """Send *burst*, refuse every later fork, SIGKILL worker 0 mid-flight,
        gather the outcomes, then send one more request (bounded: a stranded
        request fails the test instead of hanging it)."""
        await pool.start()
        try:

            def refuse_fork(slot, sibling_fds):
                raise OSError(errno.EAGAIN, "fork refused")

            monkeypatch.setattr(pool, "_fork_worker", refuse_fork)
            futures = [asyncio.ensure_future(pool.annotate(t.copy())) for t in burst]
            await asyncio.sleep(0.01)  # requests are now dispatched
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            results = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), 20.0
            )
            follow_up = await asyncio.wait_for(
                asyncio.gather(pool.annotate(burst[0].copy()), return_exceptions=True), 20.0
            )
            return results + follow_up
        finally:
            await pool.shutdown(drain_timeout=1.0)

    def test_failed_replacement_fork_redispatches_to_the_survivor(
        self, pretrained_typer, tables, monkeypatch
    ):
        """Right after an OOM kill, fork itself may fail: the slot stays
        retired and its in-flight requests go to the live worker."""
        serial = [pretrained_typer.annotate(t) for t in tables]
        burst = tables * 4
        pool = AnnotationPool(pretrained_typer, PoolSpec(workers=2, heartbeat_interval=0.05))

        results = asyncio.run(self._kill_with_fork_refused(pool, burst, monkeypatch))
        assert results == serial * 4 + serial[:1]
        # Slot 0 still holds the killed worker; the survivor exited cleanly.
        assert [worker.exitcode for worker in pool._workers] == [-signal.SIGKILL, 0]
        assert "fork refused" in pool.summary()["pool"]["per_worker"][0]["restart_error"]
        stats = pool.stats
        assert (stats.worker_deaths, stats.restarts) == (1, 0)
        assert stats.redispatches >= 1
        assert stats.errors_total == 0
        assert stats.completed_total == len(burst) + 1

    def test_failed_replacement_fork_without_survivors_fails_requests(
        self, pretrained_typer, tables, monkeypatch
    ):
        """With no live worker left, a stranded request — and every later
        one — fails with a typed error (counted in ``errors_total``) instead
        of hanging."""
        serial = [pretrained_typer.annotate(t) for t in tables]
        pool = AnnotationPool(pretrained_typer, PoolSpec(workers=1, heartbeat_interval=0.05))

        results = asyncio.run(self._kill_with_fork_refused(pool, tables, monkeypatch))
        failed = [r for r in results if isinstance(r, Exception)]
        assert isinstance(results[-1], ServingError)  # the request after the death
        assert len(failed) >= 2 and all(isinstance(error, ServingError) for error in failed)
        assert all("no live workers" in str(error) for error in failed)
        for index, result in enumerate(results[:-1]):
            if not isinstance(result, Exception):  # served before the kill
                assert result == serial[index]
        stats = pool.stats
        assert (stats.worker_deaths, stats.restarts) == (1, 0)
        assert stats.errors_total == len(failed)

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
        assert pool.pool_spec == PoolSpec(workers=3)
        pool = AnnotationPool(pretrained_typer, PoolSpec(workers=1))
        assert pool.pool_spec.workers == 1
        for bad in ("multiprocess:4", "pool:2@multiprocess:2", 0):
            with pytest.raises(ConfigurationError):
                AnnotationPool(pretrained_typer, bad)
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


# ------------------------------------------------------------------- framing
class TestAsyncFraming:
    """Every malformed frame is rejected by :func:`read_frame_async`, the
    reader both ends of the pool use, before anything is unpickled."""

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
        frame = pack_frame(MSG_POOL_REQUEST, b"payload")
        msg_type, payload, nbytes = self._read(frame)
        assert (msg_type, payload) == (MSG_POOL_REQUEST, b"payload")
        assert nbytes == len(frame) == FRAME_HEADER.size + len(b"payload")

    def test_empty_payload_roundtrips(self):
        assert self._read(pack_frame(MSG_POOL_RESULT, b""))[:2] == (MSG_POOL_RESULT, b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(FrameError, match="magic"):
            self._read(FRAME_HEADER.pack(b"NOPE", MSG_POOL_REQUEST, 0, 0))

    def test_unknown_message_type_rejected(self):
        with pytest.raises(FrameError, match="message type"):
            self._read(FRAME_HEADER.pack(FRAME_MAGIC, 42, 0, 0))

    def test_oversized_frame_rejected_before_reading_payload(self):
        # The socket stays open: the reader must reject on the header alone.
        with pytest.raises(FrameError, match="max_message_bytes"):
            self._read(
                FRAME_HEADER.pack(FRAME_MAGIC, MSG_POOL_REQUEST, 1 << 30, 0), close=False
            )

    def test_crc_mismatch_rejected(self):
        mutated = bytearray(pack_frame(MSG_POOL_REQUEST, b"payload"))
        mutated[-1] ^= 0xFF
        with pytest.raises(FrameError, match="crc"):
            self._read(bytes(mutated))

    def test_torn_frame_rejected(self):
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(FRAME_HEADER.pack(FRAME_MAGIC, MSG_POOL_REQUEST, 100, 0) + b"only-ten-b")

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


class TestFrameBound:
    """A message over ``_MAX_POOL_MESSAGE_BYTES`` is refused where it is
    packed: the reader on the other end would exit on it."""

    #: Above every small eval table's request, result and pong; far below
    #: the oversized table's request.
    BOUND = 64 << 10

    def test_oversized_request_fails_alone_and_kills_no_worker(
        self, pretrained_typer, tables, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "_MAX_POOL_MESSAGE_BYTES", self.BOUND)
        serial = pretrained_typer.annotate(tables[0])
        oversized = Table.from_rows(
            ["note"], [[f"row {index}"] for index in range(20_000)], name="oversized"
        )

        async def drive():
            spec = PoolSpec(workers=1, heartbeat_interval=0.05)
            async with AnnotationPool(pretrained_typer, spec) as pool:
                started = time.monotonic()
                with pytest.raises(ServingError, match="frame bound") as caught:
                    await asyncio.wait_for(pool.annotate(oversized), 10.0)
                elapsed = time.monotonic() - started
                inflight = [len(worker.inflight) for worker in pool._workers]
                await asyncio.sleep(0.2)  # a few heartbeats: a death would show
                follow_up = await pool.annotate(tables[0].copy())
                return caught.value, elapsed, inflight, follow_up, pool.stats

        error, elapsed, inflight, follow_up, stats = asyncio.run(drive())
        assert str(self.BOUND) in str(error)
        assert elapsed < 1.0, f"oversized request took {elapsed:.2f}s to fail"
        assert inflight == [0]
        assert stats.worker_deaths == stats.restarts == stats.redispatches == 0
        assert stats.errors_total == 1
        assert follow_up == serial

    def test_oversized_result_is_answered_with_an_error_frame(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_MAX_POOL_MESSAGE_BYTES", 1 << 10)

        class HugeResults:
            async def annotate(self, table, customer_id=None, deadline=None):
                return "x" * (4 << 10)

        async def drive():
            left, right = socket.socketpair()
            reader, reader_side = await asyncio.open_connection(sock=left)
            _, writer = await asyncio.open_connection(sock=right)
            request = {"id": 7, "table": None, "customer_id": None, "deadline_at": None}
            try:
                await _serve_one(HugeResults(), request, writer, asyncio.Lock())
                return await read_frame_async(reader, 1 << 10)
            finally:
                writer.close()
                reader_side.close()

        msg_type, payload, _ = asyncio.run(drive())
        assert msg_type == MSG_POOL_ERROR
        message = pickle.loads(payload)
        assert message["id"] == 7 and message["kind"] == "serving"
        assert "frame bound" in message["message"]


# ------------------------------------------------------------- frontend mode
class TestFrontendPoolMode:
    def test_frontend_drives_a_pool(self, pretrained_typer, tables):
        serial = pretrained_typer.annotate(tables[0])

        async def drive():
            pool = AnnotationPool(pretrained_typer, 2)
            frontend = AnnotationFrontend(
                pool=pool, config=FrontendConfig(tenant_rate=None, default_deadline=None)
            )
            async with frontend:
                prediction = await frontend.submit(tables[0].copy())
                report = frontend.summary()
            return prediction, report

        prediction, report = asyncio.run(drive())
        assert prediction == serial
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
    def test_summaries_carry_the_shared_sections(self, pretrained_typer, tables):
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
