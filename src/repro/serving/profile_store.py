"""A bounded, content-hash-keyed store for derived column state.

PR 1 memoized every derived view of a column (non-null/text/numeric values,
value counts, seeded samples, ``profile_column`` statistics, and — through the
featurizer — the column-local feature vector) on the :class:`Column` object
itself.  That is ideal for batch jobs, but a long-running service wraps many
*short-lived* ``Column`` instances around recurring content: every request
deserialises fresh tables, so the caches die with them.

:class:`ProfileStore` lifts those memo namespaces off the column into a
process-wide LRU keyed by :meth:`Column.content_hash`
(header + cell values), so any two columns with identical content — across
tables, requests, and customers — share one namespace of derived state.
Derived state is a pure function of column content, which is what makes the
sharing safe: a warm entry is byte-for-byte what the cold computation would
have produced, so predictions are unchanged (pinned by
``tests/test_serving.py``).

The store is **fork-safe**: every store registers process-wide
``os.register_at_fork`` handlers (see :func:`install_fork_handlers`).  The
parent's store locks are briefly taken around the fork so the child
snapshots consistent state, and the child re-initialises its lock, so a
forked ``multiprocess:N`` or pool worker inherits a store it can actually
use.

Install a store globally with :meth:`ProfileStore.activate` (a long-running
service does this once at startup) or temporarily with the
:meth:`ProfileStore.activated` context manager.  Sizing: one entry holds the
derived state of one distinct column (roughly the column's values again, plus
a ~200-float feature vector), so ``max_columns`` of a few thousand costs tens
of megabytes; size it to the working set of distinct columns you expect
between repeats, not to total traffic.  After retraining or refitting any
model component, :meth:`clear` the store — entries are keyed by content only
and would otherwise serve features from the old model.  See
``docs/SERVING.md`` for the operator-facing guide.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.core.errors import ConfigurationError
from repro.core.table import get_active_profile_store, set_active_profile_store

__all__ = ["ProfileStore", "install_fork_handlers"]


# ------------------------------------------------------------------ fork safety
#: Seconds the before-fork handler waits per store lock.  A lock that cannot
#: be taken in this window (a wedged or very slow holder) does not block the
#: fork; the child then conservatively drops that store's LRU instead of
#: inheriting a possibly half-mutated one.
_FORK_LOCK_TIMEOUT = 1.0

#: Every live store; at-fork handlers re-initialise each one in the child.
_FORK_REGISTRY: "weakref.WeakSet[ProfileStore]" = weakref.WeakSet()
#: Stores whose lock the before-fork handler managed to take (module state is
#: inherited by the child, which uses it to tell consistent snapshots apart).
_HELD_AT_FORK: list["ProfileStore"] = []
#: Serialises concurrent forks from different threads: held from the before
#: handler to the after-in-parent handler, so two simultaneous forks cannot
#: clobber each other's ``_HELD_AT_FORK`` bookkeeping (which would leave
#: store locks permanently acquired in the parent).
_FORK_STATE_LOCK = threading.Lock()
_INSTALL_LOCK = threading.Lock()
_FORK_HANDLERS_INSTALLED = False


def _fork_before() -> None:
    # repro-lint: disable=RL002 cross-handler ownership: released by _fork_after_in_parent / re-initialised by _fork_after_in_child
    _FORK_STATE_LOCK.acquire()
    del _HELD_AT_FORK[:]
    for store in list(_FORK_REGISTRY):
        try:
            # repro-lint: disable=RL002 cross-handler ownership: released by _fork_after_in_parent; the child replaces the lock outright
            if store._lock.acquire(timeout=_FORK_LOCK_TIMEOUT):
                _HELD_AT_FORK.append(store)
        except Exception:  # noqa: BLE001 - a fork must never fail on a cache
            pass


def _fork_after_in_parent() -> None:
    try:
        for store in _HELD_AT_FORK:
            try:
                store._lock.release()
            except Exception:  # noqa: BLE001
                pass
        del _HELD_AT_FORK[:]
    finally:
        try:
            _FORK_STATE_LOCK.release()
        except RuntimeError:  # pragma: no cover - handler ran without before
            pass


def _fork_after_in_child() -> None:
    global _FORK_STATE_LOCK, _INSTALL_LOCK
    held = set(map(id, _HELD_AT_FORK))
    del _HELD_AT_FORK[:]
    # The inherited fork-state lock is held (the parent's before handler took
    # it); replace it so the child's own future forks are not wedged.  The
    # install lock gets the same treatment: another parent thread could have
    # been inside install_fork_handlers() at fork time, and a child that
    # later constructs a store would wedge on the inherited held lock.
    _FORK_STATE_LOCK = threading.Lock()
    _INSTALL_LOCK = threading.Lock()
    for store in list(_FORK_REGISTRY):
        try:
            store._after_fork_in_child(consistent=id(store) in held)
        except Exception:  # noqa: BLE001
            pass


def install_fork_handlers() -> None:
    """Register the store at-fork handlers process-wide (idempotent).

    Called automatically by every :class:`ProfileStore` constructor and by
    :class:`~repro.serving.backends.MultiprocessBackend`, so forked workers
    always inherit usable stores: the parent's store locks are taken around
    the fork (bounded wait), and the child gets a fresh lock.  Without this,
    a child forked while another parent thread holds the store lock
    deadlocks on its first ``namespace()`` call.
    """
    global _FORK_HANDLERS_INSTALLED
    if not hasattr(os, "register_at_fork"):  # pragma: no cover - non-POSIX
        return
    with _INSTALL_LOCK:
        if _FORK_HANDLERS_INSTALLED:
            return
        os.register_at_fork(
            before=_fork_before,
            after_in_parent=_fork_after_in_parent,
            after_in_child=_fork_after_in_child,
        )
        _FORK_HANDLERS_INSTALLED = True


class ProfileStore:
    """A bounded LRU of per-column derived-state namespaces.

    Thread-safe: concurrent ``annotate_corpus`` calls from several threads
    and the async service hit one shared store concurrently.  Namespace *creation and eviction* are guarded
    by a lock; the namespaces themselves are plain dicts filled by
    :meth:`Column._memo` — concurrent fills of the same key recompute the same
    deterministic value, so last-write-wins is harmless.  The statistics
    readers (:meth:`stats`, ``len``, ``in``) take the same lock, so a snapshot
    can never race a concurrent :meth:`clear` or eviction sweep.

    Fork-safe: constructing any store installs process-wide at-fork handlers
    (:func:`install_fork_handlers`) that hand forked children a usable copy —
    fresh lock, consistent (or conservatively emptied) LRU.
    """

    def __init__(self, max_columns: int = 4096) -> None:
        if max_columns < 1:
            raise ConfigurationError("max_columns must be at least 1")
        self.max_columns = max_columns
        self._lock = threading.RLock()
        self._namespaces: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        install_fork_handlers()
        _FORK_REGISTRY.add(self)

    # ------------------------------------------------------------------ access
    def namespace(self, content_hash: str) -> dict:
        """The shared derived-state dict for a column content hash.

        Creates (and possibly evicts the least recently used entry) on first
        sight; moves the entry to most-recently-used position on every hit.
        """
        with self._lock:
            entry = self._namespaces.get(content_hash)
            if entry is not None:
                self.hits += 1
                self._namespaces.move_to_end(content_hash)
                return entry
            self.misses += 1
            entry = {}
            self._namespaces[content_hash] = entry
            while len(self._namespaces) > self.max_columns:
                self._namespaces.popitem(last=False)
                self.evictions += 1
            return entry

    def invalidate(self, content_hash: str) -> bool:
        """Drop one entry (used by ``Column.invalidate_cache``); True if present."""
        with self._lock:
            return self._namespaces.pop(content_hash, None) is not None

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._namespaces.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._namespaces)

    def __contains__(self, content_hash: str) -> bool:
        with self._lock:
            return content_hash in self._namespaces

    # --------------------------------------------------------------- fork hook
    def _after_fork_in_child(self, consistent: bool = True) -> None:
        """Re-initialise this store inside a freshly forked child.

        The inherited lock may be held by a parent thread that does not exist
        in the child (any thread inside ``namespace()`` at fork time), so it
        is always replaced.  When the before-fork handler could *not* take the lock
        (``consistent=False``), the LRU may have been snapshotted mid-mutation
        and is conservatively dropped — cold, never corrupt.
        """
        self._lock = threading.RLock()
        if not consistent:
            self._namespaces = OrderedDict()

    # ------------------------------------------------------------- installation
    def activate(self) -> "ProfileStore":
        """Install this store process-wide (returns self for chaining)."""
        set_active_profile_store(self)
        return self

    def deactivate(self) -> None:
        """Uninstall this store if it is the active one."""
        if get_active_profile_store() is self:
            set_active_profile_store(None)

    @contextmanager
    def activated(self) -> Iterator["ProfileStore"]:
        """Temporarily install this store, restoring the previous one after."""
        previous = set_active_profile_store(self)
        try:
            yield self
        finally:
            set_active_profile_store(previous)

    # ------------------------------------------------------------------- report
    @property
    def lookups(self) -> int:
        """Total namespace lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of namespace lookups served from a warm entry."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        """Counters for dashboards, benchmarks, and the E11/E17 reports."""
        with self._lock:
            return {
                "entries": len(self._namespaces),
                "max_columns": self.max_columns,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._namespaces)}, "
            f"max_columns={self.max_columns}, hit_rate={self.hit_rate:.2f})"
        )
