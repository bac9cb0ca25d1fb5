"""Shard transports for the multiprocess execution backend.

The ``multiprocess`` backend ships every shard — whole :class:`Table` objects
on the way out, whole :class:`TablePrediction` lists on the way back — as one
``pickle.dumps`` of the list.  Pickle is the only wire format for tables and
predictions at a process boundary; a :class:`Transport` decides only how the
pickle bytes travel:

* :class:`PickleTransport` is the default and the accounting reference for
  ``bytes_shipped``: the bytes ride the worker pool's pipe.
* :class:`ShmTransport` writes them into a ``multiprocessing.shared_memory``
  segment and ships only a descriptor (segment name and length).  A pickle
  larger than :attr:`ShmTransport.MAX_SEGMENT_BYTES` rides the pipe
  instead, counted as a fallback.

Kernel views never cross: :class:`~repro.core.table.Column` drops its view
when pickled, and each shard converts its own tables with
:meth:`~repro.core.table.Table.to_block` where it runs.

Spec strings select a transport per backend: ``"multiprocess:4+shm"`` /
``"multiprocess+pickle"`` (see :func:`repro.serving.backends.resolve_backend`).

Lifecycle contract — **no leaked ``/dev/shm`` segments, ever**:

* shard segments are created by the parent and unlinked by the parent in a
  ``finally`` block after the pool round-trip, success or not;
* result segments are created by workers under a *deterministic* name derived
  from the shard id, so the parent can unlink them even when the worker
  crashed mid-shard and never reported the segment back;
* workers close their attachments before returning, and every unlink
  tolerates already-removed segments.

The E13 benchmark (``benchmarks/test_bench_shard_transport.py``) pins the
bytes accounting, parity, and the no-leak property; the CI transport smoke
job additionally scans ``/dev/shm`` after the run.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from typing import Callable

from repro.core.errors import ConfigurationError, ServingError

__all__ = [
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "TransportStats",
    "resolve_transport",
    "transport_stats",
    "reset_transport_stats",
    "SHARD_SEGMENT_PREFIX",
    "RESULT_SEGMENT_PREFIX",
]

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Shared-memory segment name prefixes.  Deterministic and greppable: the CI
#: transport smoke job fails when any name with these prefixes survives a run.
SHARD_SEGMENT_PREFIX = "sigshard-"
RESULT_SEGMENT_PREFIX = "sigres-"


# ------------------------------------------------------------------ transports
@dataclass
class TransportStats:
    """Parent-side accounting for one transport instance.

    ``bytes_shipped`` counts the bytes that crossed the worker pool's pipe
    (the shard payloads out plus the result payloads back) — for the shm
    transport that is just the tiny descriptors.  ``shm_bytes`` counts the
    shard bytes written into segments instead; ``pickle_fallbacks`` /
    ``result_pickle_fallbacks`` count the outbound shards and inbound result
    legs whose pickle was too large for a segment and rode the pipe (the two
    legs fall back independently), with the last reason kept for operators.
    """

    shards: int = 0
    bytes_shipped: int = 0
    shm_bytes: int = 0
    #: Outbound shards that rode the pipe instead of a segment.
    pickle_fallbacks: int = 0
    #: Result legs that rode the pipe while the shard itself may still have
    #: ridden shared memory.
    result_pickle_fallbacks: int = 0
    last_fallback_reason: str = ""
    segments_created: int = 0
    segments_unlinked: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


#: Process-wide counters per transport name, summed by
#: :meth:`Transport._count` under one lock.
_STATS_LOCK = threading.Lock()
_TOTALS: dict[str, TransportStats] = {}


def _add_counts(stats: TransportStats, counts: dict, reason: str) -> None:
    for key, value in counts.items():
        setattr(stats, key, getattr(stats, key) + value)
    if reason:
        stats.last_fallback_reason = reason


def transport_stats() -> dict:
    """Process-wide counters per transport name since the last reset."""
    with _STATS_LOCK:
        snapshots = {name: stats.as_dict() for name, stats in _TOTALS.items()}
    return {
        name: snapshot
        for name, snapshot in snapshots.items()
        if any(type(value) is int and value for value in snapshot.values())
    }


def reset_transport_stats() -> None:
    """Zero the process-wide counters (benchmarks and tests); every
    instance keeps its own ``stats``."""
    with _STATS_LOCK:
        _TOTALS.clear()


def _unlink_segment_name(name: str) -> bool:
    """Best-effort unlink of a segment by name; True when one was removed."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        segment.close()
    finally:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - raced with another cleaner
            return False
    return True


def _write_segment(name: str, data: bytes) -> shared_memory.SharedMemory:
    """A new segment *name* holding *data*, unlinked again if the write fails."""
    segment = shared_memory.SharedMemory(create=True, name=name, size=len(data))
    try:
        segment.buf[: len(data)] = data
    except BaseException:  # pragma: no cover - never leak a half-written segment
        segment.close()
        segment.unlink()
        raise
    return segment


def _unpickle(segment: shared_memory.SharedMemory, length: int) -> list:
    """Unpickle the first *length* bytes of *segment*, then detach from it."""
    try:
        with segment.buf[:length] as data:
            return pickle.loads(data)
    finally:
        segment.close()


class Transport(ABC):
    """How shard payloads and results cross the process boundary.

    The backend calls :meth:`encode_shard` for every shard before submitting,
    ships the (small, picklable) payload to the worker, where
    :meth:`run_in_worker` decodes, runs the shard function, and encodes the
    results; the parent then calls :meth:`decode_results` on what came back
    and :meth:`release` on every payload in a ``finally`` block.
    """

    name: str = "transport"

    def __init__(self) -> None:
        self.stats = TransportStats()
        self._lock = threading.Lock()
        # repro-lint: disable=RL004 uid prefix only names shm segments; never reaches results
        self._uid_prefix = f"{os.getpid()}-{os.urandom(3).hex()}"
        self._uid_counter = itertools.count()

    # ------------------------------------------------------------- parent side
    @abstractmethod
    def encode_shard(self, items: list) -> tuple:
        """Turn *items* into the payload shipped to a worker."""

    @abstractmethod
    def decode_results(self, payload: tuple) -> list:
        """Turn a worker's result payload back into per-item results."""

    @abstractmethod
    def release(self, payload: tuple) -> None:
        """Free every resource behind *payload* (idempotent, never raises
        for already-freed segments); called in a ``finally`` block."""

    # ------------------------------------------------------------- worker side
    @abstractmethod
    def open_shard(self, payload: tuple) -> list:
        """Turn a shard payload back into its items, worker side."""

    @abstractmethod
    def encode_results(self, results: list, payload: tuple) -> tuple:
        """Encode *results* for the trip back to the parent, worker side."""

    def run_in_worker(self, fn: Callable, payload: tuple) -> tuple:
        """Decode the shard, run *fn* on it, and encode its results."""
        return self.encode_results(list(fn(self.open_shard(payload))), payload)

    # -------------------------------------------------------------- accounting
    def _count(self, reason: str = "", **counts: int) -> None:
        """Add *counts* (and a non-empty fallback *reason*) to this
        transport's stats and to the process-wide totals for its name."""
        with _STATS_LOCK:
            _add_counts(self.stats, counts, reason)
            _add_counts(_TOTALS.setdefault(self.name, TransportStats()), counts, reason)

    def _count_shipped(self, payload: tuple) -> None:
        # Size of the payload as the pool will pickle it, computed without
        # re-serializing the (potentially multi-megabyte) data bytes: large
        # ``bytes`` members count by length, the small descriptor fields by
        # their actual pickled size.
        shipped = 0
        descriptor = []
        for part in payload:
            if isinstance(part, (bytes, bytearray)):
                shipped += len(part)
            else:
                descriptor.append(part)
        shipped += len(pickle.dumps(tuple(descriptor), _PICKLE_PROTOCOL))
        self._count(bytes_shipped=shipped)

    def _next_uid(self) -> str:
        with self._lock:
            return f"{self._uid_prefix}-{next(self._uid_counter)}"

    def describe(self) -> dict:
        return {"transport": self.name, **self.stats.as_dict()}


class PickleTransport(Transport):
    """The explicit pickle baseline.

    Serializes the shard itself (one ``pickle.dumps`` — the pool then only
    ships a flat ``bytes`` object), which makes ``bytes_shipped`` an exact
    measurement of the serialization the classic multiprocess path performs.
    """

    name = "pickle"

    def encode_shard(self, items: list) -> tuple:
        payload = ("pickle", None, pickle.dumps(items, _PICKLE_PROTOCOL))
        self._count(shards=1)
        self._count_shipped(payload)
        return payload

    def open_shard(self, payload: tuple) -> list:
        _, _, data = payload
        return pickle.loads(data)

    def encode_results(self, results: list, payload: tuple) -> tuple:
        return ("pickle", pickle.dumps(results, _PICKLE_PROTOCOL))

    def decode_results(self, payload: tuple) -> list:
        self._count_shipped(payload)
        _, data = payload
        return pickle.loads(data)

    def release(self, payload: tuple) -> None:
        pass


class ShmTransport(Transport):
    """Shard transport over ``multiprocessing.shared_memory``.

    The pickled shard goes out in one segment per shard and the pickled
    results come back in another; only the descriptors (name + length) ride
    the pool's pipe.  A pickle over :attr:`MAX_SEGMENT_BYTES` rides the pipe
    itself — an accounting event (``pickle_fallbacks`` out,
    ``result_pickle_fallbacks`` back), never an error.
    """

    name = "shm"

    #: Largest pickle that rides a segment.  One shard of typical enterprise
    #: tables is a few MB, so 256 MB only ever trips on pathological inputs.
    MAX_SEGMENT_BYTES = 256 << 20

    def __init__(self) -> None:
        super().__init__()
        #: Open shard segments owned by this (parent) process, keyed by uid.
        self._segments: dict = {}

    # ------------------------------------------------------------- parent side
    def encode_shard(self, items: list) -> tuple:
        uid = self._next_uid()
        self._count(shards=1)
        data = pickle.dumps(items, _PICKLE_PROTOCOL)
        if len(data) > self.MAX_SEGMENT_BYTES:
            self._count(
                f"pickled shard ({len(data)} bytes) exceeds MAX_SEGMENT_BYTES",
                pickle_fallbacks=1,
            )
            payload = ("pickle", uid, data)
        else:
            segment = _write_segment(f"{SHARD_SEGMENT_PREFIX}{uid}", data)
            with self._lock:
                self._segments[uid] = segment
            self._count(shm_bytes=len(data), segments_created=1)
            payload = ("shm", uid, segment.name, len(data))
        self._count_shipped(payload)
        return payload

    def decode_results(self, payload: tuple) -> list:
        self._count_shipped(payload)
        kind = payload[0]
        if kind == "pickle":
            self._count(result_pickle_fallbacks=1)
            return pickle.loads(payload[1])
        if kind != "shm":  # pragma: no cover - worker/parent version skew
            raise ServingError(f"unknown result payload kind {kind!r}")
        _, name, length = payload
        segment = shared_memory.SharedMemory(name=name)
        try:
            return _unpickle(segment, length)
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - raced with release
                pass
            # The worker created this segment, but its counters died with
            # the fork — account for the segment where it is observed, so
            # created/unlinked balance parent-side.
            self._count(segments_created=1, segments_unlinked=1)

    def release(self, payload: tuple) -> None:
        uid = payload[1]
        with self._lock:
            segment = self._segments.pop(uid, None)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - raced cleanup
                pass
            self._count(segments_unlinked=1)
        # The worker's result segment has a deterministic name, so it can be
        # reclaimed even when the worker died before reporting it back.
        if uid is not None and _unlink_segment_name(f"{RESULT_SEGMENT_PREFIX}{uid}"):
            self._count(segments_created=1, segments_unlinked=1)

    # ------------------------------------------------------------- worker side
    def open_shard(self, payload: tuple) -> list:
        kind, _, *rest = payload
        if kind == "pickle":
            return pickle.loads(rest[0])
        name, length = rest
        segment = shared_memory.SharedMemory(name=name)
        return _unpickle(segment, length)

    def encode_results(self, results: list, payload: tuple) -> tuple:
        data = pickle.dumps(results, _PICKLE_PROTOCOL)
        if len(data) > self.MAX_SEGMENT_BYTES:
            return ("pickle", data)
        segment = _write_segment(f"{RESULT_SEGMENT_PREFIX}{payload[1]}", data)
        segment.close()
        return ("shm", segment.name, len(data))


_TRANSPORTS: dict = {
    PickleTransport.name: PickleTransport,
    ShmTransport.name: ShmTransport,
}


def resolve_transport(transport: "Transport | str | None") -> Transport:
    """Normalise a transport argument into a :class:`Transport` instance.

    Accepts an instance (returned unchanged), a name — ``"pickle"`` or
    ``"shm"``, as carried by :attr:`BackendSpec.transport
    <repro.serving.spec.BackendSpec.transport>` — or ``None`` (the pickle
    baseline).
    """
    if transport is None:
        return PickleTransport()
    if isinstance(transport, Transport):
        return transport
    if isinstance(transport, str):
        if transport not in _TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; expected one of {list(_TRANSPORTS)}"
            )
        return _TRANSPORTS[transport]()
    raise ConfigurationError(
        f"transport must be a Transport, a name, or None, got {type(transport).__name__}"
    )
