"""Execution backends: shard bulk work across worker processes.

Bulk annotation (and pretraining featurization) is embarrassingly parallel at
the table level: every table is annotated independently, and the caches the
cascade relies on are either per-``Column`` memos or process-local (the shared
embedder and shape-mask caches, inherited by forked workers).  An
:class:`ExecutionBackend` exploits that by splitting the work items into
contiguous, near-equal shards, running the same shard function on each, and
reassembling the results in input order — which makes every backend's output
*identical* to the serial path by construction (pinned by
``tests/test_serving.py``).

There are two backends: ``serial`` runs in the calling thread, and
``multiprocess`` forks workers.  Forked workers inherit the (possibly very
large) pretrained model and the shard function through copy-on-write memory
instead of pickling them, so only the table shards and their predictions
cross process boundaries, as pickle bytes.  *How* those bytes travel is
the backend's :class:`~repro.serving.transport.Transport` seam — over the
pool's pipe, or through shared-memory segments (``"multiprocess:4+shm"``;
see :mod:`repro.serving.transport`).  The
``fork`` start method is required: :class:`MultiprocessBackend` raises
:class:`~repro.core.errors.ConfigurationError` where it is unavailable.

Spec strings, selection guidance, and the parity contract all backends obey
are documented operator-side in ``docs/SERVING.md`` and design-side in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import ConfigurationError, ServingError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "available_workers",
    "resolve_backend",
    "shard_items",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: ``fn(shard) -> results``, one result per shard item, in shard order.
ShardFn = Callable[[list], Sequence]


def available_workers() -> int:
    """CPUs usable by this process (respects affinity masks / cgroup pinning)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def shard_items(items: Iterable[ItemT], num_shards: int) -> list[list[ItemT]]:
    """Split *items* into at most *num_shards* contiguous, near-equal shards.

    Contiguous slices (rather than round-robin) keep the columns of
    neighbouring tables together, which lets pickle's memo deduplicate shared
    objects inside one shard payload.  No shard is empty; concatenating the
    shards reproduces *items* exactly.
    """
    items = list(items)
    if num_shards < 1:
        raise ConfigurationError("num_shards must be at least 1")
    count = min(num_shards, len(items))
    if count <= 1:
        return [items] if items else []
    base, extra = divmod(len(items), count)
    shards: list[list[ItemT]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(items[start : start + size])
        start += size
    return shards


class ExecutionBackend(ABC):
    """Strategy for executing a shard function over a list of work items."""

    #: Stable identifier ("serial", "multiprocess").
    name: str = "backend"
    #: Worker count (1 for the serial backend).
    max_workers: int = 1

    @abstractmethod
    def map_shards(self, fn: ShardFn, items: Iterable[ItemT]) -> list:
        """Run *fn* over shards of *items*; return per-item results in order.

        *fn* receives a list of items and must return one result per item,
        preserving order.  Implementations shard, execute, and concatenate —
        they never reorder, drop, or duplicate work.
        """

    def run(self, annotate_many: ShardFn, tables: Iterable[ItemT]) -> list:
        """Alias of :meth:`map_shards` named for the annotation use case."""
        return self.map_shards(annotate_many, tables)

    def describe(self) -> dict[str, object]:
        """Small identification record used in benchmarks and reports."""
        return {"backend": self.name, "workers": self.max_workers}


class SerialBackend(ExecutionBackend):
    """Run everything in the calling thread — the parity reference."""

    name = "serial"
    max_workers = 1

    def map_shards(self, fn: ShardFn, items: Iterable[ItemT]) -> list:
        items = list(items)
        if not items:
            return []
        return list(fn(items))


#: Shard functions + transports handed to forked workers by inheritance
#: (never pickled).
_INHERITED_FNS: dict[int, tuple] = {}
_FN_TOKENS = itertools.count()


def _run_inherited_shard(token: int, payload: tuple) -> tuple:
    entry = _INHERITED_FNS.get(token)
    if entry is None:
        raise ServingError("multiprocess worker is missing its inherited shard function")
    fn, transport = entry
    return transport.run_in_worker(fn, payload)


class MultiprocessBackend(ExecutionBackend):
    """Fan shards out over worker processes.

    Workers are forked and inherit the whole pretrained model copy-on-write,
    so only shards and predictions are pickled; per-process caches stay
    effective because shards are whole tables.  State mutated inside workers (caches, feedback) never propagates
    back — use this backend for read-only inference and featurization.

    Each :meth:`map_shards` call forks a fresh pool.  That is deliberate:
    workers always see the caller's *current* model state (a reused pool
    would keep serving the snapshot from its fork, silently ignoring feedback
    applied since), at the cost of pool spin-up per call.  Suit it to large
    bulk jobs; for online micro-batches prefer serial execution.
    """

    name = "multiprocess"

    def __init__(
        self,
        max_workers: int | None = None,
        transport: "object | str | None" = None,
    ) -> None:
        from repro.serving.transport import resolve_transport

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the multiprocess backend needs the fork start method, "
                "which this platform does not offer"
            )
        self.max_workers = int(max_workers) if max_workers is not None else available_workers()
        if self.max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        #: How shard payloads and results cross the process boundary:
        #: ``"pickle"`` (default) or ``"shm"`` — see
        #: :mod:`repro.serving.transport`.  Spec strings select it inline,
        #: e.g. ``"multiprocess:4+shm"``.
        self.transport = resolve_transport(transport)

    def describe(self) -> dict[str, object]:
        return {
            "backend": self.name,
            "workers": self.max_workers,
            "transport": self.transport.name,
        }

    def map_shards(self, fn: ShardFn, items: Iterable[ItemT]) -> list:
        items = list(items)
        if not items:
            return []
        shards = shard_items(items, self.max_workers)
        if len(shards) == 1:
            return list(fn(items))
        context = multiprocessing.get_context("fork")
        transport = self.transport
        payloads: list = []
        try:
            # Encoding happens inside the try: if shard N's segment creation
            # fails (e.g. /dev/shm exhaustion), shards 0..N-1 are released.
            for shard in shards:
                payloads.append(transport.encode_shard(shard))
            token = next(_FN_TOKENS)
            _INHERITED_FNS[token] = (fn, transport)
            try:
                with ProcessPoolExecutor(max_workers=len(shards), mp_context=context) as pool:
                    raw_results = list(
                        pool.map(_run_inherited_shard, itertools.repeat(token), payloads)
                    )
            finally:
                _INHERITED_FNS.pop(token, None)
            shard_results = [transport.decode_results(raw) for raw in raw_results]
        finally:
            # Lifecycle backstop: every shard segment (and any result segment
            # a crashed worker left behind under its deterministic name) is
            # reclaimed whether the round-trip succeeded or not.
            for payload in payloads:
                transport.release(payload)
        return [result for shard in shard_results for result in shard]


def resolve_backend(
    backend: "ExecutionBackend | str | None",
    default: ExecutionBackend | None = None,
) -> ExecutionBackend:
    """Normalise a backend argument into an :class:`ExecutionBackend`.

    Accepts an instance (returned unchanged), a spec string — ``"serial"``
    or ``"multiprocess"``, the latter optionally with a worker count and a
    shard transport as in ``"multiprocess:4+shm"`` (``+pickle`` | ``+shm``,
    see :mod:`repro.serving.transport`) — a typed
    :class:`~repro.serving.spec.BackendSpec`, or ``None``, which resolves to
    *default* (falling back to a fresh :class:`SerialBackend`).  Strings are
    parsed by :meth:`BackendSpec.parse <repro.serving.spec.BackendSpec.parse>`,
    the one spec grammar.
    """
    if backend is None:
        return default if default is not None else SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    from repro.serving.spec import BackendSpec  # local: spec is leaf-level

    if isinstance(backend, str):
        backend = BackendSpec.parse(backend)
    if isinstance(backend, BackendSpec):
        if backend.name == "serial":
            return SerialBackend()
        return MultiprocessBackend(max_workers=backend.workers, transport=backend.transport)
    raise ConfigurationError(
        f"backend must be an ExecutionBackend, a spec string, or None, got {type(backend).__name__}"
    )
