"""Fork safety and locked statistics of the in-memory profile store.

A store is shared by every thread of its process and inherited by every
forked child (``multiprocess:N`` shard workers, pool workers).  Two
contracts are pinned here, both extensions of the serving layer's parity
rule:

* **Fork safety** — a child forked at *any* moment (including while another
  thread holds the store lock, the classic inherited-lock deadlock) gets a
  usable store: a fresh lock and a consistent LRU, and fresh module locks.
* **Locked statistics** — ``stats()``, ``len`` and ``in`` take the store
  lock, so they never race a concurrent ``clear`` or eviction sweep.

The multiprocess case runs under ``multiprocess:2`` forked workers even on a
1-CPU CI runner — parity and fork safety, not speedup, are the assertions
there (the canonical caveat in ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time

import pytest

from repro.core.table import Column, get_active_profile_store
from repro.serving import AnnotationService, ProfileStore


def _comparable(predictions):
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


def _fresh(tables):
    """Copies with cold per-column caches, as a new request would carry."""
    return [table.copy() for table in tables]


@pytest.fixture(autouse=True)
def _no_leaked_store():
    yield
    assert get_active_profile_store() is None


@pytest.fixture()
def shared_tables(eval_corpus, fig3_table):
    return [table.copy() for table in eval_corpus] + [fig3_table.copy()]


# ----------------------------------------------------------------- fork safety
class TestForkSafety:
    def test_fork_while_the_store_lock_is_held(self):
        """Deterministic reconstruction of the deadlock: fork while another
        thread holds the store lock.  The child must serve namespaces — never
        block on the inherited lock."""
        ctx = multiprocessing.get_context("fork")
        store = ProfileStore()
        queue = ctx.Queue()

        def child_main():
            try:
                with store.activated():
                    counts = Column("child", ["a", "b"]).value_counts()
                queue.put(("ok", counts == {"a": 1, "b": 1} and len(store) == 1))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                queue.put(("error", repr(exc)))

        entered = threading.Event()
        release = threading.Event()

        def holder():
            with store._lock:  # noqa: SLF001
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(timeout=5)
        try:
            process = ctx.Process(target=child_main)
            process.start()
            process.join(timeout=60)
            if process.is_alive():
                process.terminate()
                pytest.fail("forked child deadlocked on the inherited store lock")
            assert process.exitcode == 0
            status, counts_ok = queue.get(timeout=10)
        finally:
            release.set()
            thread.join(timeout=10)
        assert status == "ok"
        assert counts_ok

    def test_fork_under_sustained_fill_load(self):
        """Fork repeatedly while writer threads keep filling and evicting the
        store; every child must come up and serve a namespace of its own."""
        ctx = multiprocessing.get_context("fork")
        store = ProfileStore(max_columns=64)
        stop = threading.Event()
        errors: list[Exception] = []

        def hammer(worker_id: int) -> None:
            i = 0
            try:
                while not stop.is_set():
                    column = Column(f"w{worker_id}-{i % 96}", [str(worker_id), str(i), "x"])
                    column.value_counts()
                    column.text_values()
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def child_main(queue, round_id: int) -> None:
            try:
                column = Column(f"forked-{round_id}", ["p", "q"])
                counts = column.value_counts()
                queue.put(("ok", counts == {"p": 1, "q": 1} and column.content_hash() in store))
            except Exception as exc:  # noqa: BLE001
                queue.put(("error", repr(exc)))

        with store.activated():
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(3)]
            for thread in threads:
                thread.start()
            try:
                for round_id in range(3):
                    queue = ctx.Queue()
                    process = ctx.Process(target=child_main, args=(queue, round_id))
                    process.start()
                    process.join(timeout=60)
                    if process.is_alive():
                        process.terminate()
                        pytest.fail("forked child deadlocked under fill load")
                    assert process.exitcode == 0
                    status, served = queue.get(timeout=10)
                    assert status == "ok", served
                    assert served
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert not errors

    def test_fork_child_replaces_both_module_locks(self):
        """Regression (repro-lint RL002): the after-fork-in-child handler must
        replace BOTH module-level locks — the fork-state lock the before
        handler holds across the fork, and the install lock another parent
        thread could be holding inside ``install_fork_handlers()`` at fork
        time.  An inherited held lock wedges the child forever."""
        import weakref

        from repro.serving import profile_store as ps

        saved_registry = ps._FORK_REGISTRY  # noqa: SLF001
        state_before, install_before = ps._FORK_STATE_LOCK, ps._INSTALL_LOCK  # noqa: SLF001
        ps._FORK_REGISTRY = weakref.WeakSet()  # noqa: SLF001 - no live stores in the drill
        try:
            ps._fork_before()  # noqa: SLF001 - parent's handler: holds the state lock
            assert ps._FORK_STATE_LOCK.locked()  # noqa: SLF001
            ps._fork_after_in_child()  # noqa: SLF001
            assert ps._FORK_STATE_LOCK is not state_before  # noqa: SLF001
            assert ps._INSTALL_LOCK is not install_before  # noqa: SLF001
            # Both fresh locks are immediately usable in the "child".
            for lock in (ps._FORK_STATE_LOCK, ps._INSTALL_LOCK):  # noqa: SLF001
                acquired = lock.acquire(timeout=1)
                try:
                    assert acquired, "fresh lock arrived held"
                finally:
                    lock.release()
        finally:
            ps._FORK_REGISTRY = saved_registry  # noqa: SLF001
            if state_before.locked():
                state_before.release()

    def test_multiprocess_two_workers_parity_with_active_store(
        self, pretrained_typer, shared_tables
    ):
        """The CI fork-safety smoke: bulk annotation under ``multiprocess:2``
        with an active store is bit-identical to serial — on a 1-CPU runner
        parity, not speedup, is the assertion (canonical caveat in
        docs/SERVING.md)."""
        baseline = _comparable(pretrained_typer.annotate_corpus(_fresh(shared_tables)))
        store = ProfileStore()
        with store.activated():
            result = pretrained_typer.annotate_corpus(
                _fresh(shared_tables), backend="multiprocess:2"
            )
        assert _comparable(result) == baseline


# ------------------------------------------------------------- locked counters
class TestLockedStatisticsReads:
    def test_stats_len_contains_never_race_clear(self):
        """``len``/``in``/``stats()`` take the store lock, so concurrent
        clears, fills, and evictions can never corrupt a statistics snapshot
        (or crash a reader mid-resize)."""
        store = ProfileStore(max_columns=32)
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            probe = "00" * 16
            try:
                while not stop.is_set():
                    snapshot = store.stats()
                    assert snapshot["entries"] >= 0
                    len(store)
                    probe in store
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def filler() -> None:
            i = 0
            try:
                while not stop.is_set():
                    Column(f"r{i % 64}", [str(i), "x"]).value_counts()
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with store.activated():
            threads = [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=filler))
            for thread in threads:
                thread.start()
            for _ in range(25):
                store.clear()
                time.sleep(0.001)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors


# ------------------------------------------------------------ service exposure
class TestServiceExposure:
    def test_service_summary_exposes_the_active_store(self, pretrained_typer, shared_tables):
        store = ProfileStore()

        async def drive():
            async with AnnotationService(pretrained_typer, max_batch_delay=0.0) as service:
                for table in _fresh(shared_tables):
                    await service.annotate(table)
                return service.summary()

        with store.activated():
            summary = asyncio.run(drive())
        assert summary["profile_store"] == store.stats()
        assert summary["profile_store"]["misses"] > 0
