"""Zero-copy shard transport for the multiprocess execution backend.

The ``multiprocess`` backend ships every shard — whole :class:`Table` objects
on the way out, whole :class:`TablePrediction` lists on the way back — through
``pickle``.  For small corpora that serialization dominates the run: the
workers spend more time unpickling tables than annotating them.  This module
replaces the pickle round-trip with POSIX shared memory:

* :class:`ColumnBlockCodec` flattens a shard's tables into one contiguous
  block of typed buffers — per-column value bytes plus ``u64`` offsets, a
  per-value tag array, framed headers, and table/column boundary records —
  written once into a ``multiprocessing.shared_memory`` segment.  Workers
  attach the segment and rebuild the tables through the zero-copy
  :meth:`repro.core.table.Table.from_block` view path: no pickling, no
  per-value copies until a value is actually read.
* :class:`PredictionBlockCodec` returns predictions as fixed-width records
  (string-table references + ``f64`` confidences) in a worker-created
  segment, so the result leg avoids pickle as well.
* :class:`Transport` is the seam the backend calls through.
  :class:`PickleTransport` is the explicit baseline (and the accounting
  reference for ``bytes_shipped``); :class:`ShmTransport` is the
  shared-memory path with graceful **pickle fallback** for shards that are
  not lists of tables, contain non-scalar cell values, or exceed
  ``max_segment_bytes``.

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
import struct
import threading
import weakref
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

# Scalar/text cell tags are canonical in repro.core.colblock — the columnar
# kernels interpret the same buffers this codec writes, so sharing the
# constants means the wire format and the kernels can never drift apart.
from repro.core.colblock import (
    TAG_BIGINT as _T_BIGINT,
    TAG_F64 as _T_F64,
    TAG_FALSE as _T_FALSE,
    TAG_I64 as _T_I64,
    TAG_NONE as _T_NONE,
    TAG_STR as _T_STR,
    TAG_TRUE as _T_TRUE,
    view_from_block_buffers,
)
from repro.core.errors import ConfigurationError, ServingError
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.table import Table

__all__ = [
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "TransportStats",
    "ColumnBlockCodec",
    "ColumnBlock",
    "PredictionBlockCodec",
    "UnsupportedPayloadError",
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


class UnsupportedPayloadError(ServingError):
    """A payload the block codecs cannot represent (handled by fallback)."""


# --------------------------------------------------------------------- codecs
#
# Value encoding shared by cell values and metadata: one tag byte selecting a
# fixed-width or length-framed representation.  Only exact builtin scalar
# types round-trip — a subclass (e.g. ``numpy.float64``) must not silently
# decode to its base type, because ``Column.content_hash()`` keys on the
# exact type name.  Anything else raises ``UnsupportedPayloadError`` and the
# transport falls back to pickle for the whole shard.

# _T_NONE.._T_FALSE are imported from repro.core.colblock above.
# _T_LIST/_T_DICT only ever appear in metadata payloads (cell values holding
# containers are rejected into the pickle fallback), so they stay local.
_T_LIST = 7
_T_DICT = 8

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_BLOCK_MAGIC = b"SGB1"
_RESULT_MAGIC = b"SGR1"

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class _Writer:
    """Append-only binary writer over a ``bytearray``."""

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data = bytearray()

    def raw(self, payload: bytes) -> None:
        self.data += payload

    def u8(self, value: int) -> None:
        self.data += _U8.pack(value)

    def u16(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise UnsupportedPayloadError(f"value {value} does not fit in u16")
        self.data += _U16.pack(value)

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise UnsupportedPayloadError(f"value {value} does not fit in u32")
        self.data += _U32.pack(value)

    def u64(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise UnsupportedPayloadError(f"value {value} does not fit in u64")
        self.data += _U64.pack(value)

    def f64(self, value: float) -> None:
        self.data += _F64.pack(value)

    def frame(self, payload: bytes) -> None:
        self.u32(len(payload))
        self.data += payload

    def text(self, value: str) -> None:
        self.frame(value.encode("utf-8", "surrogatepass"))

    def tagged(self, value: object) -> None:
        """Encode one scalar (or flat list/dict of scalars) with a type tag."""
        if value is None:
            self.u8(_T_NONE)
            return
        value_type = type(value)
        if value_type is bool:
            self.u8(_T_TRUE if value else _T_FALSE)
        elif value_type is str:
            self.u8(_T_STR)
            self.text(value)
        elif value_type is int:
            if _I64_MIN <= value <= _I64_MAX:
                self.u8(_T_I64)
                self.data += _I64.pack(value)
            else:
                self.u8(_T_BIGINT)
                self.frame(str(value).encode("ascii"))
        elif value_type is float:
            self.u8(_T_F64)
            self.data += _F64.pack(value)
        elif value_type is list:
            self.u8(_T_LIST)
            self.u32(len(value))
            for item in value:
                self.tagged(item)
        elif value_type is dict:
            self.u8(_T_DICT)
            self.u32(len(value))
            for key, item in value.items():
                if type(key) is not str:
                    raise UnsupportedPayloadError(
                        f"unsupported mapping key type {type(key).__name__}"
                    )
                self.text(key)
                self.tagged(item)
        else:
            raise UnsupportedPayloadError(
                f"unsupported value type {value_type.__name__}"
            )


class _Reader:
    """Sequential binary reader over any buffer."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def u8(self) -> int:
        (value,) = _U8.unpack_from(self.buf, self.pos)
        self.pos += 1
        return value

    def u16(self) -> int:
        (value,) = _U16.unpack_from(self.buf, self.pos)
        self.pos += 2
        return value

    def u32(self) -> int:
        (value,) = _U32.unpack_from(self.buf, self.pos)
        self.pos += 4
        return value

    def u64(self) -> int:
        (value,) = _U64.unpack_from(self.buf, self.pos)
        self.pos += 8
        return value

    def i64(self) -> int:
        (value,) = _I64.unpack_from(self.buf, self.pos)
        self.pos += 8
        return value

    def f64(self) -> float:
        (value,) = _F64.unpack_from(self.buf, self.pos)
        self.pos += 8
        return value

    def frame(self) -> bytes:
        length = self.u32()
        payload = bytes(self.buf[self.pos : self.pos + length])
        self.pos += length
        return payload

    def text(self) -> str:
        return self.frame().decode("utf-8", "surrogatepass")

    def tagged(self) -> object:
        tag = self.u8()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_STR:
            return self.text()
        if tag == _T_I64:
            return self.i64()
        if tag == _T_BIGINT:
            return int(self.frame().decode("ascii"))
        if tag == _T_F64:
            return self.f64()
        if tag == _T_LIST:
            return [self.tagged() for _ in range(self.u32())]
        if tag == _T_DICT:
            return {self.text(): self.tagged() for _ in range(self.u32())}
        raise ServingError(f"corrupt column block: unknown value tag {tag}")


class BlockValues(Sequence):
    """Lazy, immutable view of one column's values inside a column block.

    Decodes values out of the shared buffer on access (and memoizes the full
    list on first iteration, so repeated scans pay decode once).  The view
    raises :class:`ServingError` after :meth:`ColumnBlock.close` — a column
    must never outlive the segment backing it.
    """

    __slots__ = (
        "_block",
        "_count",
        "_tags_off",
        "_offsets_off",
        "_blob_off",
        "_cache",
        "_kview",
    )

    def __init__(self, block: "ColumnBlock", count: int, tags_off: int, offsets_off: int, blob_off: int) -> None:
        self._block = block
        self._count = count
        self._tags_off = tags_off
        self._offsets_off = offsets_off
        self._blob_off = blob_off
        self._cache: list | None = None
        self._kview = None

    def __len__(self) -> int:
        return self._count

    def kernel_view(self):
        """Columnar kernel view (``repro.core.colblock.ColumnView``) of this column.

        The duck-typed hook ``Column._kernel_view`` picks up: multiprocess
        workers rebuilding a shard via ``Table.from_block`` profile straight
        off the received segment.  The view *copies* the three buffers out of
        the block (tags, offsets, blob), so it stays valid — and keeps no
        export on the segment — after ``ColumnBlock.close``.
        """
        if self._kview is None:
            self._kview = view_from_block_buffers(
                self._block.buffer(),
                self._count,
                self._tags_off,
                self._offsets_off,
                self._blob_off,
            )
        return self._kview

    def _decode(self, index: int) -> object:
        buf = self._block.buffer()
        tag = buf[self._tags_off + index]
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        start, end = struct.unpack_from("<2Q", buf, self._offsets_off + 8 * index)
        begin = self._blob_off + start
        stop = self._blob_off + end
        if tag == _T_STR:
            return str(buf[begin:stop], "utf-8", "surrogatepass")
        if tag == _T_I64:
            return _I64.unpack_from(buf, begin)[0]
        if tag == _T_BIGINT:
            return int(bytes(buf[begin:stop]).decode("ascii"))
        if tag == _T_F64:
            return _F64.unpack_from(buf, begin)[0]
        raise ServingError(f"corrupt column block: unknown cell tag {tag}")

    def _materialize(self) -> list:
        if self._cache is None:
            self._cache = [self._decode(i) for i in range(self._count)]
        return self._cache

    def __getitem__(self, index):
        if self._cache is not None:
            return self._cache[index]
        if isinstance(index, slice):
            return [self._decode(i) for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._decode(index)

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, BlockValues)):
            return list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        # A view must never cross a process boundary still pointing at a
        # segment: pickling materializes it into a plain list (raising
        # loudly, not silently, if the block was already closed).
        return (list, (self._materialize(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockValues({self._count} values)"


@dataclass(frozen=True)
class _ColumnEntry:
    """Boundary record for one column inside a :class:`ColumnBlock`."""

    name: str
    semantic_type: str | None
    metadata: dict
    values: BlockValues


@dataclass(frozen=True)
class _TableEntry:
    """Boundary record for one table inside a :class:`ColumnBlock`."""

    name: str
    metadata: dict
    columns: tuple


class ColumnBlock:
    """A decoded shard of tables, viewed in place over a shared buffer.

    The accessor trio (:meth:`table_name`, :meth:`table_metadata`,
    :meth:`table_columns`) is the duck-typed protocol
    :meth:`repro.core.table.Table.from_block` builds zero-copy tables from.
    """

    def __init__(self, buf, entries: list) -> None:
        self._buf = buf
        self._entries = entries
        self._closed = False

    @property
    def num_tables(self) -> int:
        return len(self._entries)

    def buffer(self):
        """The backing buffer; raises once the block was closed."""
        if self._closed:
            raise ServingError("column block used after close (segment detached)")
        return self._buf

    def table_name(self, index: int) -> str:
        return self._entries[index].name

    def table_metadata(self, index: int) -> dict:
        return self._entries[index].metadata

    def table_columns(self, index: int) -> tuple:
        """``(name, semantic_type, metadata, values)`` per column, in order."""
        return tuple(
            (c.name, c.semantic_type, c.metadata, c.values)
            for c in self._entries[index].columns
        )

    def close(self) -> None:
        """Detach from the buffer; any later value access raises."""
        self._closed = True
        self._buf = None


class ColumnBlockCodec:
    """Flatten tables into contiguous typed buffers (and back).

    Layout (little-endian)::

        magic "SGB1" | u32 n_tables
        per table:   framed name | tagged-dict metadata | u32 n_columns
        per column:  framed name | tagged semantic_type | tagged-dict metadata
                     u64 n_values | n tag bytes | (n+1) u64 offsets
                     u64 blob_len | value blob

    Cell values are tagged scalars; variable-width payloads live in the
    column's blob addressed by the offsets array, so a reader never scans —
    it slices.
    """

    @staticmethod
    def encode_tables(tables: Sequence[Table]) -> bytearray:
        writer = _Writer()
        writer.raw(_BLOCK_MAGIC)
        writer.u32(len(tables))
        for table in tables:
            writer.text(table.name)
            writer.tagged(dict(table.metadata))
            writer.u32(len(table.columns))
            for column in table.columns:
                writer.text(column.name)
                writer.tagged(column.semantic_type)
                writer.tagged(dict(column.metadata))
                ColumnBlockCodec._encode_values(writer, column.values)
        return writer.data

    @staticmethod
    def _encode_values(writer: _Writer, values: Sequence[object]) -> None:
        count = len(values)
        tags = bytearray(count)
        offsets = bytearray()
        blob = bytearray()
        offsets += _U64.pack(0)
        for index, value in enumerate(values):
            if value is None:
                tags[index] = _T_NONE
            else:
                value_type = type(value)
                if value_type is bool:
                    tags[index] = _T_TRUE if value else _T_FALSE
                elif value_type is str:
                    tags[index] = _T_STR
                    blob += value.encode("utf-8", "surrogatepass")
                elif value_type is int:
                    if _I64_MIN <= value <= _I64_MAX:
                        tags[index] = _T_I64
                        blob += _I64.pack(value)
                    else:
                        tags[index] = _T_BIGINT
                        blob += str(value).encode("ascii")
                elif value_type is float:
                    tags[index] = _T_F64
                    blob += _F64.pack(value)
                else:
                    raise UnsupportedPayloadError(
                        f"unsupported cell value type {value_type.__name__}"
                    )
            offsets += _U64.pack(len(blob))
        writer.u64(count)
        writer.raw(bytes(tags))
        writer.raw(bytes(offsets))
        writer.u64(len(blob))
        writer.raw(bytes(blob))

    @staticmethod
    def decode(buf) -> ColumnBlock:
        """Parse the boundary structure; values stay lazy views over *buf*."""
        if bytes(buf[: len(_BLOCK_MAGIC)]) != _BLOCK_MAGIC:
            raise ServingError("corrupt column block: bad magic")
        reader = _Reader(buf, len(_BLOCK_MAGIC))
        block = ColumnBlock(buf, [])
        entries = []
        for _ in range(reader.u32()):
            table_name = reader.text()
            table_metadata = reader.tagged()
            columns = []
            for _ in range(reader.u32()):
                column_name = reader.text()
                semantic_type = reader.tagged()
                metadata = reader.tagged()
                count = reader.u64()
                tags_off = reader.pos
                reader.pos += count
                offsets_off = reader.pos
                reader.pos += 8 * (count + 1)
                blob_len = reader.u64()
                blob_off = reader.pos
                reader.pos += blob_len
                columns.append(
                    _ColumnEntry(
                        name=column_name,
                        semantic_type=semantic_type,
                        metadata=metadata,
                        values=BlockValues(block, count, tags_off, offsets_off, blob_off),
                    )
                )
            entries.append(_TableEntry(name=table_name, metadata=table_metadata, columns=tuple(columns)))
        block._entries.extend(entries)
        return block


class PredictionBlockCodec:
    """Predictions as fixed-width records over an interned string table.

    Layout::

        magic "SGR1" | u32 n_strings | framed strings...
        u32 n_tables
        per table:  u32 name_ref | u32 n_columns | u32 n_trace | u32 n_seconds
                    trace records   (u32 step_ref, u64 count)
                    seconds records (u32 step_ref, f64 seconds)
        per column: u32 index | u32 name_ref | u32 source_ref | u8 abstained
                    u16 n_scores | u16 n_step_lists
                    score records (u32 type_ref, f64 confidence)
                    step lists    (u32 step_ref, u16 n, n score records)

    Every record after the string table is fixed width, so the parent decodes
    with pure ``struct`` slicing; confidences are ``f64`` and therefore
    bit-identical to the worker's floats.
    """

    @staticmethod
    def encode_predictions(predictions: Sequence[TablePrediction]) -> bytearray:
        strings: dict[str, int] = {}

        def ref(text: str) -> int:
            if type(text) is not str:
                raise UnsupportedPayloadError(
                    f"unsupported prediction string {type(text).__name__}"
                )
            index = strings.get(text)
            if index is None:
                index = strings[text] = len(strings)
            return index

        body = _Writer()
        body.u32(len(predictions))
        for prediction in predictions:
            if type(prediction) is not TablePrediction:
                raise UnsupportedPayloadError(
                    f"unsupported result type {type(prediction).__name__}"
                )
            body.u32(ref(prediction.table_name))
            body.u32(len(prediction.columns))
            body.u32(len(prediction.step_trace))
            body.u32(len(prediction.step_seconds))
            for step, count in prediction.step_trace.items():
                body.u32(ref(step))
                body.u64(count)
            for step, seconds in prediction.step_seconds.items():
                body.u32(ref(step))
                body.f64(seconds)
            for column in prediction.columns:
                if type(column) is not ColumnPrediction:
                    raise UnsupportedPayloadError("unsupported column prediction type")
                body.u32(column.column_index)
                body.u32(ref(column.column_name))
                body.u32(ref(column.source_step))
                body.u8(1 if column.abstained else 0)
                body.u16(len(column.scores))
                body.u16(len(column.step_scores))
                for score in column.scores:
                    body.u32(ref(score.type_name))
                    body.f64(score.confidence)
                for step, scores in column.step_scores.items():
                    body.u32(ref(step))
                    body.u16(len(scores))
                    for score in scores:
                        body.u32(ref(score.type_name))
                        body.f64(score.confidence)

        writer = _Writer()
        writer.raw(_RESULT_MAGIC)
        writer.u32(len(strings))
        for text in strings:
            writer.text(text)
        writer.raw(bytes(body.data))
        return writer.data

    @staticmethod
    def decode_predictions(buf) -> list:
        if bytes(buf[: len(_RESULT_MAGIC)]) != _RESULT_MAGIC:
            raise ServingError("corrupt prediction block: bad magic")
        reader = _Reader(buf, len(_RESULT_MAGIC))
        strings = [reader.text() for _ in range(reader.u32())]
        predictions = []
        for _ in range(reader.u32()):
            table_name = strings[reader.u32()]
            n_columns = reader.u32()
            n_trace = reader.u32()
            n_seconds = reader.u32()
            step_trace = {strings[reader.u32()]: reader.u64() for _ in range(n_trace)}
            step_seconds = {strings[reader.u32()]: reader.f64() for _ in range(n_seconds)}
            columns = []
            for _ in range(n_columns):
                column_index = reader.u32()
                column_name = strings[reader.u32()]
                source_step = strings[reader.u32()]
                abstained = bool(reader.u8())
                n_scores = reader.u16()
                n_step_lists = reader.u16()
                scores = []
                for _ in range(n_scores):
                    type_ref = reader.u32()
                    confidence = reader.f64()
                    scores.append(TypeScore(confidence=confidence, type_name=strings[type_ref]))
                step_scores: dict[str, list] = {}
                for _ in range(n_step_lists):
                    step = strings[reader.u32()]
                    step_scores[step] = []
                    for _ in range(reader.u16()):
                        type_ref = reader.u32()
                        confidence = reader.f64()
                        step_scores[step].append(
                            TypeScore(confidence=confidence, type_name=strings[type_ref])
                        )
                columns.append(
                    ColumnPrediction(
                        column_index=column_index,
                        column_name=column_name,
                        scores=scores,
                        source_step=source_step,
                        abstained=abstained,
                        step_scores=step_scores,
                    )
                )
            predictions.append(
                TablePrediction(
                    table_name=table_name,
                    columns=columns,
                    step_trace=step_trace,
                    step_seconds=step_seconds,
                )
            )
        return predictions


# ------------------------------------------------------------------ transports
@dataclass
class TransportStats:
    """Parent-side accounting for one transport instance.

    ``bytes_shipped`` counts the pickled bytes that actually crossed a
    process boundary (the shard payloads out plus the result payloads back) —
    for the shm transport that is just the tiny descriptors.  ``shm_bytes``
    counts the shared-memory bytes written instead; ``pickle_fallbacks`` /
    ``result_pickle_fallbacks`` count the outbound shards and inbound result
    legs the shm transport had to pickle after all (the two legs fall back
    independently), with the last reason kept for operators.
    """

    shards: int = 0
    bytes_shipped: int = 0
    shm_bytes: int = 0
    #: Outbound shards that had to be pickled after all.
    pickle_fallbacks: int = 0
    #: Result legs that came back pickled (oversized or non-prediction
    #: results) while the shard itself may still have ridden shared memory.
    result_pickle_fallbacks: int = 0
    last_fallback_reason: str = ""
    segments_created: int = 0
    segments_unlinked: int = 0
    #: Shards whose cascade actually ran on a remote peer (net transport).
    remote_shards: int = 0
    #: Shards that were meant for a peer but ran locally after a network
    #: failure (unreachable peer, torn/corrupt frame, deadline) — the net
    #: transport's per-shard graceful-degradation counter.
    local_fallbacks: int = 0
    #: Framed bytes that actually crossed a socket, per direction.
    net_bytes_out: int = 0
    net_bytes_in: int = 0
    #: Connection attempts beyond the first (bounded reconnect-with-backoff).
    reconnects: int = 0

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "bytes_shipped": self.bytes_shipped,
            "shm_bytes": self.shm_bytes,
            "pickle_fallbacks": self.pickle_fallbacks,
            "result_pickle_fallbacks": self.result_pickle_fallbacks,
            "last_fallback_reason": self.last_fallback_reason,
            "segments_created": self.segments_created,
            "segments_unlinked": self.segments_unlinked,
            "remote_shards": self.remote_shards,
            "local_fallbacks": self.local_fallbacks,
            "net_bytes_out": self.net_bytes_out,
            "net_bytes_in": self.net_bytes_in,
            "reconnects": self.reconnects,
        }


#: Process-wide stats registry.  Keyed by transport *uid* (one entry per
#: live instance), not by name: counters live on the instance's
#: ``TransportStats`` and the aggregate reads them through here, so
#: re-registering the same instance (``resolve_transport`` on a transport
#: that is already in use) is idempotent instead of double counting.
#: Aggregates of garbage-collected instances fold into ``_RETIRED_STATS``
#: (keyed by transport name) via a ``weakref.finalize`` hook, so the
#: process-wide totals survive the instances that produced them.
_STATS_LOCK = threading.Lock()
_LIVE_STATS: dict = {}
_RETIRED_STATS: dict = {}
_UID_COUNTER = itertools.count()


def _next_transport_uid(name: str) -> str:
    return f"{name}-{os.getpid()}-{next(_UID_COUNTER)}"


def _fold_stats(bucket: dict, snapshot: dict) -> None:
    for key, value in snapshot.items():
        if isinstance(value, bool):  # pragma: no cover - no bool fields today
            continue
        if isinstance(value, (int, float)):
            bucket[key] = bucket.get(key, 0) + value
        elif value:  # last_fallback_reason: keep the most recent non-empty
            bucket[key] = value
        else:
            bucket.setdefault(key, value)


def _delta_since(stats: "TransportStats", baseline: dict | None) -> dict:
    snapshot = stats.as_dict()
    if baseline:
        for key, value in baseline.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                snapshot[key] = snapshot.get(key, 0) - value
        if snapshot.get("last_fallback_reason") == baseline.get("last_fallback_reason"):
            snapshot["last_fallback_reason"] = ""
    return snapshot


def _retire_transport(uid: str) -> None:
    with _STATS_LOCK:
        entry = _LIVE_STATS.pop(uid, None)
        if entry is None:
            return
        name, stats, baseline = entry
        _fold_stats(_RETIRED_STATS.setdefault(name, {}), _delta_since(stats, baseline))


def _register_transport(transport: "Transport") -> None:
    """Idempotently enroll *transport* in the process-wide aggregate.

    Keyed by ``transport.uid``: registering the same instance twice (the
    re-resolution path) keeps its existing entry, so its counters contribute
    exactly once to :func:`transport_stats`.
    """
    with _STATS_LOCK:
        already = transport.uid in _LIVE_STATS
        if not already:
            _LIVE_STATS[transport.uid] = (transport.name, transport.stats, None)
    if not already:
        weakref.finalize(transport, _retire_transport, transport.uid)


def transport_stats() -> dict:
    """Process-wide per-transport-name counters (live + retired instances)."""
    with _STATS_LOCK:
        merged: dict = {name: dict(bucket) for name, bucket in _RETIRED_STATS.items()}
        for name, stats, baseline in _LIVE_STATS.values():
            _fold_stats(merged.setdefault(name, {}), _delta_since(stats, baseline))
    return {
        name: bucket
        for name, bucket in merged.items()
        if any(isinstance(value, (int, float)) and value for value in bucket.values())
    }


def reset_transport_stats() -> None:
    """Zero the process-wide counters (benchmarks and tests).

    Live instances keep their own ``stats`` untouched; the aggregate
    remembers a baseline snapshot per instance and reports only activity
    after the reset.
    """
    with _STATS_LOCK:
        _RETIRED_STATS.clear()
        for uid, (name, stats, _) in list(_LIVE_STATS.items()):
            _LIVE_STATS[uid] = (name, stats, stats.as_dict())


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
        #: Stable per-instance identity; the process-wide aggregate is keyed
        #: by it, which is what makes re-resolving an in-use transport safe.
        self.uid = _next_transport_uid(self.name)
        _register_transport(self)

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
    def open_shard(self, payload: tuple):
        """Return ``(items, cleanup)`` for a shard payload, worker side."""

    @abstractmethod
    def encode_results(self, results: list, payload: tuple) -> tuple:
        """Encode *results* for the trip back to the parent, worker side."""

    def run_in_worker(self, fn: Callable, payload: tuple) -> tuple:
        """Decode → run → encode, with the attachment closed on every path.

        Results are encoded *before* the shard attachment is closed: a shard
        function may legitimately return objects that alias the view-backed
        input tables (the identity function, extracted columns, ...), and
        those lazy views must still be readable while the fallback pickles
        them (:meth:`BlockValues.__reduce__` materializes a view into a plain
        list at pickling time, so nothing escaping the worker ever references
        the segment).
        """
        items, cleanup = self.open_shard(payload)
        try:
            results = list(fn(items))
            return self.encode_results(results, payload)
        finally:
            cleanup()

    # -------------------------------------------------------------- accounting
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
        with self._lock:
            self.stats.bytes_shipped += shipped

    def describe(self) -> dict:
        return {"transport": self.name, **self.stats.as_dict()}

    # Transports are shipped to spawn-context workers through the pool
    # initializer; runtime handles (locks, counters) stay parent-side.
    # Subclasses with their own handles extend these, not the base.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["stats"] = TransportStats()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        # A clone is a new stats-owning instance (fresh counters), never an
        # alias of the original's registry entry.
        self.uid = _next_transport_uid(self.name)
        _register_transport(self)


class PickleTransport(Transport):
    """The explicit pickle baseline.

    Serializes the shard itself (one ``pickle.dumps`` — the pool then only
    ships a flat ``bytes`` object), which makes ``bytes_shipped`` an exact
    measurement of the serialization the classic multiprocess path performs.
    """

    name = "pickle"

    def encode_shard(self, items: list) -> tuple:
        payload = ("pickle", None, pickle.dumps(items, _PICKLE_PROTOCOL))
        with self._lock:
            self.stats.shards += 1
        self._count_shipped(payload)
        return payload

    def open_shard(self, payload: tuple):
        _, _, data = payload
        return pickle.loads(data), lambda: None

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

    Tables go out as one :class:`ColumnBlockCodec` segment per shard and come
    back as one :class:`PredictionBlockCodec` segment per shard; only the
    descriptors (name + length) are pickled.  Shards that are not lists of
    tables, contain unsupported values, or whose encoding exceeds
    ``max_segment_bytes`` fall back to pickle transparently — fallback is an
    accounting event (``pickle_fallbacks``), never an error.
    """

    name = "shm"

    #: Default per-segment ceiling; one shard of typical enterprise tables is
    #: a few MB, so 256 MB only ever trips on pathological inputs.
    DEFAULT_MAX_SEGMENT_BYTES = 256 << 20

    def __init__(self, max_segment_bytes: int | None = None) -> None:
        super().__init__()
        self.max_segment_bytes = (
            int(max_segment_bytes) if max_segment_bytes is not None else self.DEFAULT_MAX_SEGMENT_BYTES
        )
        if self.max_segment_bytes < 1:
            raise ConfigurationError("max_segment_bytes must be positive")
        #: Open shard segments owned by this (parent) process, keyed by uid.
        self._segments: dict = {}
        # repro-lint: disable=RL004 uid prefix only names /dev/shm segments; never reaches results
        self._uid_prefix = f"{os.getpid()}-{os.urandom(3).hex()}"
        self._uid_counter = itertools.count()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_segments", None)  # open segment handles stay parent-side
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._segments = {}

    # ------------------------------------------------------------- parent side
    def _next_uid(self) -> str:
        with self._lock:
            return f"{self._uid_prefix}-{next(self._uid_counter)}"

    def _fallback(self, reason: str) -> None:
        with self._lock:
            self.stats.pickle_fallbacks += 1
            self.stats.last_fallback_reason = reason

    def encode_shard(self, items: list) -> tuple:
        uid = self._next_uid()
        with self._lock:
            self.stats.shards += 1
        blob = None
        reason = ""
        if all(isinstance(item, Table) for item in items):
            try:
                blob = ColumnBlockCodec.encode_tables(items)
            except UnsupportedPayloadError as exc:
                reason = str(exc)
        else:
            reason = "shard items are not tables"
        if blob is not None and len(blob) > self.max_segment_bytes:
            reason = f"encoded shard ({len(blob)} bytes) exceeds max_segment_bytes"
            blob = None
        if blob is None:
            self._fallback(reason)
            payload = ("pickle", uid, pickle.dumps(items, _PICKLE_PROTOCOL))
        else:
            segment = shared_memory.SharedMemory(
                create=True, name=f"{SHARD_SEGMENT_PREFIX}{uid}", size=max(len(blob), 1)
            )
            segment.buf[: len(blob)] = blob
            with self._lock:
                self._segments[uid] = segment
                self.stats.shm_bytes += len(blob)
                self.stats.segments_created += 1
            payload = ("shm", uid, segment.name, len(blob))
        self._count_shipped(payload)
        return payload

    def decode_results(self, payload: tuple) -> list:
        self._count_shipped(payload)
        kind = payload[0]
        if kind == "pickle":
            # The worker always attempts the record codec, so a pickled
            # result payload means the result leg itself fell back (oversized
            # or non-prediction results; the exact reason stays worker-side —
            # last_fallback_reason is the shard leg's).
            with self._lock:
                self.stats.result_pickle_fallbacks += 1
            return pickle.loads(payload[1])
        if kind != "shm":  # pragma: no cover - worker/parent version skew
            raise ServingError(f"unknown result payload kind {kind!r}")
        _, name, length = payload
        segment = shared_memory.SharedMemory(name=name)
        try:
            predictions = PredictionBlockCodec.decode_predictions(segment.buf[:length])
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - raced with release
                pass
            with self._lock:
                # The worker created this segment, but its counters died with
                # the fork — account for the segment where it is observed, so
                # created/unlinked balance parent-side.
                self.stats.segments_created += 1
                self.stats.segments_unlinked += 1
        return predictions

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
            with self._lock:
                self.stats.segments_unlinked += 1
        # The worker's result segment has a deterministic name, so it can be
        # reclaimed even when the worker died before reporting it back.
        if uid is not None and _unlink_segment_name(f"{RESULT_SEGMENT_PREFIX}{uid}"):
            with self._lock:
                self.stats.segments_created += 1
                self.stats.segments_unlinked += 1

    # ------------------------------------------------------------- worker side
    def open_shard(self, payload: tuple):
        kind, _, *rest = payload
        if kind == "pickle":
            return pickle.loads(rest[0]), lambda: None
        name, length = rest
        segment = shared_memory.SharedMemory(name=name)
        block = ColumnBlockCodec.decode(segment.buf[:length])
        tables = [Table.from_block(block, index) for index in range(block.num_tables)]

        def cleanup() -> None:
            block.close()
            segment.close()

        return tables, cleanup

    def encode_results(self, results: list, payload: tuple) -> tuple:
        uid = payload[1]
        try:
            blob = PredictionBlockCodec.encode_predictions(results)
        except UnsupportedPayloadError:
            return ("pickle", pickle.dumps(results, _PICKLE_PROTOCOL))
        if len(blob) > self.max_segment_bytes:
            return ("pickle", pickle.dumps(results, _PICKLE_PROTOCOL))
        segment = shared_memory.SharedMemory(
            create=True, name=f"{RESULT_SEGMENT_PREFIX}{uid}", size=max(len(blob), 1)
        )
        try:
            segment.buf[: len(blob)] = blob
        except BaseException:  # pragma: no cover - never leak a half-written segment
            segment.close()
            segment.unlink()
            raise
        segment.close()
        return ("shm", segment.name, len(blob))


_TRANSPORTS: dict = {
    PickleTransport.name: PickleTransport,
    ShmTransport.name: ShmTransport,
}


def resolve_transport(transport: "Transport | str | None") -> Transport:
    """Normalise a transport argument into a :class:`Transport` instance.

    Accepts an instance (returned unchanged), a name — ``"pickle"``,
    ``"shm"`` or ``"tcp"`` (peers from ``$REPRO_NET_PEERS``) — a peer spec
    like ``"tcp://host:port[,host2:port2]"``, a typed
    :class:`~repro.serving.spec.TransportSpec`, or ``None`` (the pickle
    baseline).  Strings are parsed by :meth:`TransportSpec.parse
    <repro.serving.spec.TransportSpec.parse>`, the one spec grammar.
    """
    if transport is None:
        return PickleTransport()
    if isinstance(transport, Transport):
        # Re-resolution of an in-use instance: re-registering is idempotent
        # by uid, so its counters stay counted exactly once process-wide.
        _register_transport(transport)
        return transport
    from repro.serving.spec import TransportSpec  # local: spec is leaf-level

    if isinstance(transport, str):
        transport = TransportSpec.parse(transport)
    if isinstance(transport, TransportSpec):
        if transport.name == "tcp":
            from repro.serving import net  # local import: net imports this module

            return net.NetTransport.from_spec(transport)
        return _TRANSPORTS[transport.name]()
    raise ConfigurationError(
        f"transport must be a Transport, a name, or None, got {type(transport).__name__}"
    )
