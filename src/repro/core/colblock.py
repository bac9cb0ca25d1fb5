"""Block-native columnar kernels over the typed value/offset/tag layout.

:meth:`repro.core.table.Table.to_block` lays each long column out as three
contiguous buffers — one tag byte per cell, ``n+1`` byte offsets, and a
packed value blob (:func:`view_from_values`) — and the profiling and
featurization hot path (null/distinct counting, numeric moments,
text-length statistics, character-class composition, the ``"Aa+9+"``
template, structural type inference, sampling) runs as vectorized numpy
kernels over those buffers instead of walking Python objects cell by cell.

Layout:

- ``tags``: one byte per cell (``TAG_NONE`` .. ``TAG_FALSE``).
- ``offsets``: ``n+1`` monotonically increasing byte offsets into ``blob``;
  cell *i* owns ``blob[offsets[i]:offsets[i+1]]``.
- ``blob``: packed value bytes — UTF-8 text for ``TAG_STR``, 8 little-endian
  bytes for ``TAG_I64``/``TAG_F64``, ASCII decimal for ``TAG_BIGINT``,
  nothing for ``TAG_NONE``/``TAG_TRUE``/``TAG_FALSE``.

Parity contract
---------------
Every kernel is **bit-identical** to the per-value Python path: identical
floats (including ``-0.0`` signs and NaN handling), identical dict insertion
order, identical tie-breaks, identical seeded samples.  Columns the kernels
cannot prove equivalent — non-ASCII text, big integers, mixed text/scalar
cells — fall back to the Python path, and every decision is counted
(:func:`kernel_stats`) so operators can see the fast path being taken.

Two families are kernelized:

- **ascii**: cells are ``None``/``str`` and the blob is pure ASCII.  This is
  the fully vectorized path: stripping, null-token matching, dedupe, numeric
  parsing, character classes, and templates all run on byte arrays without
  materializing a single Python string (only the distinct survivors are
  decoded, lazily).
- **scalar**: cells are ``None``/``bool``/``int64``/``float64``.  Null and
  numeric statistics are vectorized over the tag-masked 8-byte views; text
  statistics run per *distinct* scalar only.

The module deliberately imports nothing above :mod:`repro.core` at module
level (the profiler symbols it needs for constructing results are imported
lazily) so that ``table.py`` can import it.
"""

from __future__ import annotations

import random
import statistics as pystats
import struct
import threading
from typing import Sequence

import numpy as np

from repro.core.datatypes import NULL_TOKENS, DataType, infer_value_type, parse_number

__all__ = [
    "TAG_NONE",
    "TAG_STR",
    "TAG_I64",
    "TAG_BIGINT",
    "TAG_F64",
    "TAG_TRUE",
    "TAG_FALSE",
    "ColumnView",
    "view_from_values",
    "kernel_profile",
    "kernel_data_type",
    "kernel_non_null_indices",
    "kernel_non_null_count",
    "kernel_text_values",
    "kernel_value_counts",
    "kernel_numeric_values",
    "kernel_unique_fraction",
    "kernel_sample_indices",
    "kernel_character_template",
    "MIN_KERNEL_ROWS",
    "kernel_stats",
    "reset_kernel_stats",
    "record_encode_fallback",
]

# --------------------------------------------------------------------- layout

#: Cell tag values.
TAG_NONE = 0
TAG_STR = 1
TAG_I64 = 2
TAG_BIGINT = 3
TAG_F64 = 4
TAG_TRUE = 5
TAG_FALSE = 6

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_I64S = struct.Struct("<q")
_F64S = struct.Struct("<d")

#: Guard bytes appended to every view's blob so fixed-width vector gathers
#: (8-byte null-token packs, 18-digit integer windows, 8-byte scalar loads)
#: never index past the end.  Must cover the widest gather.
_BLOB_PAD = 40

#: Stripped values at most this long are deduped via packed u64 sort keys;
#: longer ones fall back to a per-value dict of ``bytes`` keys.
_PACK_MAX = 32

# ------------------------------------------------------------------- tables

_CLS_DIGIT, _CLS_UPPER, _CLS_LOWER, _CLS_WS, _CLS_OTHER = 0, 1, 2, 3, 4

#: ASCII whitespace exactly as ``str.isspace`` / ``str.strip`` see it:
#: ``\t\n\v\f\r``, the C1 separators FS/GS/RS/US, and the space.
_WS_BYTES = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20)

_CLASS_LUT = np.full(256, _CLS_OTHER, dtype=np.uint8)
_CLASS_LUT[ord("0"): ord("9") + 1] = _CLS_DIGIT
_CLASS_LUT[ord("A"): ord("Z") + 1] = _CLS_UPPER
_CLASS_LUT[ord("a"): ord("z") + 1] = _CLS_LOWER
for _b in _WS_BYTES:
    _CLASS_LUT[_b] = _CLS_WS

_LOWER_LUT = np.arange(256, dtype=np.uint8)
_LOWER_LUT[ord("A"): ord("Z") + 1] += 32

#: Character-class template symbols: digit → ``9``, upper → ``A``,
#: lower → ``a``, everything else verbatim (matches ``character_template``).
_TEMPLATE_LUT = np.arange(256, dtype=np.uint8)
_TEMPLATE_LUT[ord("0"): ord("9") + 1] = ord("9")
_TEMPLATE_LUT[ord("A"): ord("Z") + 1] = ord("A")
_TEMPLATE_LUT[ord("a"): ord("z") + 1] = ord("a")

#: Digit-collapse signature (digits → ``9``, everything else verbatim) used
#: by the structural-type kernel; see :func:`_ascii_type_votes`.
_SIG_LUT = np.arange(256, dtype=np.uint8)
_SIG_LUT[ord("0"): ord("9") + 1] = ord("9")

#: Bytes that may appear in a value `float()` can parse directly.  The
#: alphabet deliberately excludes ``_`` (``float("1_0")`` succeeds but the
#: Python path's regex rejects it) and every letter of inf/nan, so on this
#: alphabet ``float(bytes)`` succeeds iff ``parse_number`` succeeds, with the
#: identical result.
_NUMCAND_LUT = np.zeros(256, dtype=bool)
for _c in b"0123456789+-.eE":
    _NUMCAND_LUT[_c] = True

#: Bytes that may appear in *any* value ``parse_number`` accepts (currency,
#: thousands separators, percent, parens, magnitude suffixes, inner
#: whitespace).  Values containing anything else are non-numeric with zero
#: per-value work; values inside this alphabet but outside the `float()`
#: alphabet get one real ``parse_number`` call each.
_MAYBE_NUM_LUT = _NUMCAND_LUT.copy()
for _c in b",%()$kKmMbB":
    _MAYBE_NUM_LUT[_c] = True
for _b in _WS_BYTES:
    _MAYBE_NUM_LUT[_b] = True

#: Regex ``\s`` bytes — the optional single space the currency pattern
#: ``^[\$€£¥]\s?`` consumes.  Narrower than ``str.strip``'s set (no C1
#: file/group/record/unit separators).
_PCRE_WS_LUT = np.zeros(256, dtype=bool)
for _b in (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x20):
    _PCRE_WS_LUT[_b] = True

#: Bytes whose presence routes a formatted-number span to the real
#: ``parse_number``: the parenthesized-negative shape is rare enough that
#: replicating it vectorized is not worth the parity risk.
_HARDNUM_LUT = np.zeros(256, dtype=bool)
for _c in b"()":
    _HARDNUM_LUT[_c] = True

#: Magnitude suffixes (``5k`` / ``1.2M`` / ``3B``) — also routed to the real
#: ``parse_number`` (the suffix branch re-validates with its own regex).
_MAGNITUDE_BYTES = np.frombuffer(b"kKmMbB", dtype=np.uint8).copy()

_ARANGE8 = np.arange(8, dtype=np.int64)
_SHIFT8 = (np.arange(8, dtype=np.uint64) * np.uint64(8)).astype(np.uint64)
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)

#: Null tokens packed as (lowercased bytes | length << 56) u64 codes.  Every
#: token is ASCII and at most 7 bytes, so the pack is injective.
assert all(len(tok) <= 7 for tok in NULL_TOKENS)
_NULL_CODES = np.array(
    sorted(
        sum(ch << (8 * j) for j, ch in enumerate(tok.encode("ascii")))
        | (len(tok) << 56)
        for tok in NULL_TOKENS
    ),
    dtype=np.uint64,
)

# ------------------------------------------------------------------ routing

#: Shortest column :meth:`repro.core.table.Table.to_block` gives a kernel
#: view.  Building a view and the first ``data_type`` read pay a fixed
#: per-column cost that only long columns win back; shorter columns stay on
#: the per-value path, which the kernels reproduce bit for bit, so the bound
#: moves time only.  Set from E15's crossover table
#: (``benchmarks/test_bench_columnar_kernels.py``).
MIN_KERNEL_ROWS = 100


# ------------------------------------------------------------------ counters

_STATS_LOCK = threading.Lock()


def _fresh_stats() -> dict:
    return {
        "kernel_hits": 0,
        "kernel_fallbacks": 0,
        "encode_fallbacks": 0,
        "by_op": {},
        "fallback_reasons": {},
    }


_STATS = _fresh_stats()


def _record(op: str, hit: bool, reason: str = "") -> None:
    with _STATS_LOCK:
        bucket = _STATS["by_op"].setdefault(op, [0, 0])
        if hit:
            _STATS["kernel_hits"] += 1
            bucket[0] += 1
        else:
            _STATS["kernel_fallbacks"] += 1
            bucket[1] += 1
            reasons = _STATS["fallback_reasons"]
            reasons[reason] = reasons.get(reason, 0) + 1


def record_encode_fallback() -> None:
    """Count a column whose values could not be encoded into a view at all."""

    with _STATS_LOCK:
        _STATS["encode_fallbacks"] += 1


def kernel_stats() -> dict:
    """Snapshot of kernel-vs-fallback counters (hits, fallbacks, reasons)."""

    with _STATS_LOCK:
        return {
            "kernel_hits": _STATS["kernel_hits"],
            "kernel_fallbacks": _STATS["kernel_fallbacks"],
            "encode_fallbacks": _STATS["encode_fallbacks"],
            "by_op": {
                op: {"hits": pair[0], "fallbacks": pair[1]}
                for op, pair in sorted(_STATS["by_op"].items())
            },
            "fallback_reasons": dict(_STATS["fallback_reasons"]),
        }


def reset_kernel_stats() -> None:
    global _STATS
    with _STATS_LOCK:
        _STATS = _fresh_stats()


# ---------------------------------------------------------------------- view


class ColumnView:
    """One column's tag/offset/blob buffers, built by :func:`view_from_values`.

    ``blob`` carries ``_BLOB_PAD`` zero guard bytes past the payload.
    """

    __slots__ = ("tags", "offsets", "blob", "_analysis")

    def __init__(self, tags: np.ndarray, offsets: np.ndarray, blob: np.ndarray) -> None:
        self.tags = tags
        self.offsets = offsets
        self.blob = blob
        self._analysis = None

    def __len__(self) -> int:
        return int(self.tags.shape[0])

    @property
    def blob_len(self) -> int:
        return int(self.offsets[-1]) if self.offsets.shape[0] else 0

    def analysis(self) -> "_Analysis":
        if self._analysis is None:
            self._analysis = _analyze(self)
        return self._analysis

    def decode(self, index: int) -> object:
        """Decode one cell to its Python value."""

        tag = int(self.tags[index])
        if tag == TAG_NONE:
            return None
        if tag == TAG_TRUE:
            return True
        if tag == TAG_FALSE:
            return False
        start = int(self.offsets[index])
        stop = int(self.offsets[index + 1])
        raw = self.blob[start:stop].tobytes()
        if tag == TAG_STR:
            return raw.decode("utf-8", "surrogatepass")
        if tag == TAG_I64:
            return _I64S.unpack(raw)[0]
        if tag == TAG_F64:
            return _F64S.unpack(raw)[0]
        if tag == TAG_BIGINT:
            return int(raw.decode("ascii"))
        raise ValueError(f"unknown tag {tag} at index {index}")


def _pad_blob(raw: bytes) -> np.ndarray:
    blob = np.zeros(len(raw) + _BLOB_PAD, dtype=np.uint8)
    if raw:
        blob[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return blob


#: Cell types of the text fast path in :func:`view_from_values`.
_TEXT_TAGS = {str: TAG_STR, type(None): TAG_NONE}


def view_from_values(values: Sequence[object]) -> ColumnView | None:
    """Encode a Python value sequence into a :class:`ColumnView`.

    Returns ``None`` when a cell falls outside the block vocabulary
    (lists, dicts, arbitrary objects) — the caller keeps the Python path.
    """

    n = len(values)
    # Fast path: every cell is a str or None (the common CSV shape) and the
    # text is ASCII, so character counts are byte offsets; a null gets an
    # empty blob slice.
    try:
        tags = np.fromiter(map(_TEXT_TAGS.__getitem__, map(type, values)), dtype=np.uint8, count=n)
    except KeyError:
        tags = None
    if tags is not None:
        texts = [value or "" for value in values]
        joined = "".join(texts)
        if joined.isascii():
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=n), out=offsets[1:])
            return ColumnView(tags, offsets, _pad_blob(joined.encode("ascii")))

    tags = np.empty(n, dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    chunks: list[bytes] = []
    position = 0
    for index, value in enumerate(values):
        if value is None:
            tags[index] = TAG_NONE
        else:
            value_type = type(value)
            if value_type is str:
                tags[index] = TAG_STR
                data = value.encode("utf-8", "surrogatepass")
                chunks.append(data)
                position += len(data)
            elif value_type is bool:
                tags[index] = TAG_TRUE if value else TAG_FALSE
            elif value_type is int:
                if _I64_MIN <= value <= _I64_MAX:
                    tags[index] = TAG_I64
                    chunks.append(_I64S.pack(value))
                    position += 8
                else:
                    tags[index] = TAG_BIGINT
                    data = str(value).encode("ascii")
                    chunks.append(data)
                    position += len(data)
            elif value_type is float:
                tags[index] = TAG_F64
                chunks.append(_F64S.pack(value))
                position += 8
            else:
                return None
        offsets[index + 1] = position
    return ColumnView(tags, offsets, _pad_blob(b"".join(chunks)))


# ------------------------------------------------------------------ analysis


class _Analysis:
    """Shared intermediate state for one view, computed once and cached."""

    __slots__ = (
        "n",
        "family",  # "ascii" | "scalar" | None (fallback)
        "reason",  # fallback reason when family is None
        "null_mask",
        "nn_idx",  # raw indices of non-null cells, in order
        # ascii family -----------------------------------------------------
        "sstart",  # stripped-span start per non-null cell (blob offset)
        "slen",  # stripped-span length per non-null cell
        # distinct machinery (both families), first-seen order --------------
        "n_distinct",
        "counts",  # occurrences per distinct
        "first_nn",  # non-null position of each distinct's first occurrence
        "inv",  # non-null position -> distinct id
        "dist_start",  # ascii: stripped-span start per distinct
        "dist_len",  # ascii: stripped-span length per distinct
        "texts",  # decoded distinct strings (lazy)
        # scalar family ----------------------------------------------------
        "scalar_numeric_mask",  # over nn: cell is int64/float64
        "scalar_numeric",  # float64 values for those cells
        "scalar_type_counts",  # DataType -> votes
        # numeric leg (ascii, lazy) -----------------------------------------
        "numeric_ready",
        "numeric_mask",  # over nn
        "numeric_vals",  # float64 per nn (garbage where mask is False)
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.family = None
        self.reason = ""
        self.texts = None
        self.numeric_ready = False


def _group_first_seen(sort_keys: tuple, k: int):
    """Group *k* items by the composite key, reported in first-seen order.

    Returns ``(n_distinct, counts, first_positions, inverse)`` where
    ``inverse[i]`` is the distinct id (first-seen order) of item *i* —
    exactly the insertion order a Python dict scan would produce.
    """

    order = np.lexsort(sort_keys)
    boundary = np.zeros(k, dtype=bool)
    boundary[0] = True
    for key in sort_keys:
        key_sorted = key[order]
        boundary[1:] |= key_sorted[1:] != key_sorted[:-1]
    bounds = np.flatnonzero(boundary)
    group_of_sorted = np.cumsum(boundary) - 1
    counts_sorted = np.diff(np.append(bounds, k))
    first_sorted = np.minimum.reduceat(order, bounds)
    rank = np.argsort(first_sorted, kind="stable")
    remap = np.empty(rank.size, dtype=np.int64)
    remap[rank] = np.arange(rank.size)
    inverse = np.empty(k, dtype=np.int64)
    inverse[order] = remap[group_of_sorted]
    return int(rank.size), counts_sorted[rank], first_sorted[rank], inverse


#: Key-width cap (bytes) for the vectorized weighted-unique helper; longer
#: keys take the per-item Python loop.
_UNIQUE_PACK_MAX = 64


def _weighted_unique_bytes(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, weights: np.ndarray
) -> list[tuple[bytes, int]]:
    """Sum *weights* per unique byte-string ``buf[starts[i]:starts[i]+lens[i]]``.

    The aggregation is order-insensitive (callers sort or sum afterwards), so
    short keys are packed into u64 words and grouped with one lexsort instead
    of a per-item dict loop.  Returns ``(key, total_weight)`` pairs.
    """

    m = int(starts.size)
    if m == 0:
        return []
    max_len = int(lens.max())
    if max_len > _UNIQUE_PACK_MAX:
        raw = buf.tobytes()
        out: dict[bytes, int] = {}
        for i in range(m):
            start = int(starts[i])
            key = raw[start: start + int(lens[i])]
            out[key] = out.get(key, 0) + int(weights[i])
        return list(out.items())
    words = max(1, (max_len + 7) // 8)
    span = words * 8
    padded = np.zeros(buf.size + span, dtype=np.uint8)
    padded[: buf.size] = buf
    gather = starts[:, None] + np.arange(span, dtype=np.int64)[None, :]
    raw = padded[gather].astype(np.uint64)
    raw *= np.arange(span, dtype=np.int64)[None, :] < lens[:, None]
    packed = (raw.reshape(m, words, 8) << _SHIFT8[None, None, :]).sum(
        axis=2, dtype=np.uint64
    )
    keys = tuple(packed[:, w] for w in range(words)) + (lens,)
    n_unique, _, first, inverse = _group_first_seen(keys, m)
    # Integer weights sum exactly in float64 at these magnitudes (< 2**53).
    sums = np.bincount(
        inverse, weights=weights.astype(np.float64), minlength=n_unique
    ).astype(np.int64)
    flat = buf.tobytes()
    result: list[tuple[bytes, int]] = []
    for group in range(n_unique):
        i = int(first[group])
        start = int(starts[i])
        result.append((flat[start: start + int(lens[i])], int(sums[group])))
    return result


def _analyze(view: ColumnView) -> _Analysis:
    analysis = _Analysis(len(view))
    tags = view.tags
    present = set(int(t) for t in np.unique(tags)) if analysis.n else set()
    unknown = present - {TAG_NONE, TAG_STR, TAG_I64, TAG_F64, TAG_TRUE, TAG_FALSE}
    if unknown:
        analysis.reason = (
            "bigint cells" if unknown == {TAG_BIGINT} else "unsupported cell tags"
        )
        return analysis
    has_text = TAG_STR in present
    has_scalar = bool(present & {TAG_I64, TAG_F64, TAG_TRUE, TAG_FALSE})
    if has_text and has_scalar:
        analysis.reason = "mixed text and scalar cells"
        return analysis
    if has_text:
        blob_len = view.blob_len
        if blob_len and int(view.blob[:blob_len].max()) >= 0x80:
            analysis.reason = "non-ascii text"
            return analysis
        _analyze_ascii(view, analysis)
    else:
        _analyze_scalar(view, analysis)
    return analysis


def _analyze_ascii(view: ColumnView, analysis: _Analysis) -> None:
    n = analysis.n
    tags = view.tags
    offsets = view.offsets
    starts = offsets[:-1]
    ends = offsets[1:]
    blob_len = view.blob_len
    blob = view.blob

    # Per-cell stripped span [sstart, sstart+slen): first/last non-whitespace
    # byte inside the cell, computed with sentinel-padded reduceat so empty
    # and all-whitespace cells resolve to zero-length spans.
    if n:
        classes = _CLASS_LUT[blob[:blob_len]]
        is_ws = classes == _CLS_WS
        byte_index = np.arange(blob_len, dtype=np.int64)
        pad_first = np.append(np.where(is_ws, blob_len, byte_index), blob_len)
        pad_last = np.append(np.where(is_ws, np.int64(-1), byte_index), np.int64(-1))
        first_nonws = np.minimum.reduceat(pad_first, starts)
        last_nonws = np.maximum.reduceat(pad_last, starts)
        blank = (first_nonws >= ends) | (first_nonws < starts)
        sstart_all = np.where(blank, starts, first_nonws)
        send_all = np.where(blank, starts, last_nonws + 1)
        slen_all = send_all - sstart_all
    else:
        sstart_all = slen_all = np.empty(0, dtype=np.int64)

    # Null detection: TAG_NONE plus strings whose stripped, lowercased text is
    # a null token.  Tokens are ASCII and <= 7 bytes, so each candidate packs
    # into one u64 (bytes | length<<56) compared against the token codes.
    null_mask = tags == TAG_NONE
    short_text = (tags == TAG_STR) & (slen_all <= 7)
    candidates = np.flatnonzero(short_text)
    if candidates.size:
        gather = sstart_all[candidates][:, None] + _ARANGE8[None, :]
        packed_bytes = _LOWER_LUT[blob[gather]].astype(np.uint64)
        within = _ARANGE8[None, :] < slen_all[candidates][:, None]
        packed_bytes *= within
        codes = (packed_bytes << _SHIFT8[None, :]).sum(axis=1, dtype=np.uint64)
        codes |= slen_all[candidates].astype(np.uint64) << np.uint64(56)
        null_mask[candidates[np.isin(codes, _NULL_CODES)]] = True

    analysis.null_mask = null_mask
    nn_idx = np.flatnonzero(~null_mask)
    analysis.nn_idx = nn_idx
    analysis.sstart = sstart_all[nn_idx]
    analysis.slen = slen_all[nn_idx]
    analysis.family = "ascii"

    k = int(nn_idx.size)
    if k == 0:
        analysis.n_distinct = 0
        analysis.counts = np.empty(0, dtype=np.int64)
        analysis.first_nn = np.empty(0, dtype=np.int64)
        analysis.inv = np.empty(0, dtype=np.int64)
        analysis.dist_start = np.empty(0, dtype=np.int64)
        analysis.dist_len = np.empty(0, dtype=np.int64)
        return

    span_start = analysis.sstart
    span_len = analysis.slen
    max_len = int(span_len.max())
    if max_len <= _PACK_MAX:
        words = max(1, (max_len + 7) // 8)
        gather = span_start[:, None] + np.arange(words * 8, dtype=np.int64)[None, :]
        raw = blob[gather].astype(np.uint64)
        raw *= np.arange(words * 8, dtype=np.int64)[None, :] < span_len[:, None]
        packed = (raw.reshape(k, words, 8) << _SHIFT8[None, None, :]).sum(
            axis=2, dtype=np.uint64
        )
        keys = tuple(packed[:, w] for w in range(words)) + (span_len,)
        n_distinct, counts, first_nn, inverse = _group_first_seen(keys, k)
    else:
        seen: dict[bytes, int] = {}
        counts_list: list[int] = []
        first_list: list[int] = []
        inverse = np.empty(k, dtype=np.int64)
        for position in range(k):
            start = int(span_start[position])
            key = blob[start: start + int(span_len[position])].tobytes()
            group = seen.get(key)
            if group is None:
                group = len(seen)
                seen[key] = group
                counts_list.append(1)
                first_list.append(position)
            else:
                counts_list[group] += 1
            inverse[position] = group
        n_distinct = len(seen)
        counts = np.array(counts_list, dtype=np.int64)
        first_nn = np.array(first_list, dtype=np.int64)

    analysis.n_distinct = n_distinct
    analysis.counts = counts
    analysis.first_nn = first_nn
    analysis.inv = inverse
    analysis.dist_start = span_start[first_nn]
    analysis.dist_len = span_len[first_nn]


def _analyze_scalar(view: ColumnView, analysis: _Analysis) -> None:
    tags = view.tags
    starts = view.offsets[:-1]
    blob = view.blob

    def gather_u64(positions: np.ndarray) -> np.ndarray:
        if positions.size == 0:
            return np.empty(0, dtype=np.uint64)
        gathered = blob[starts[positions][:, None] + _ARANGE8[None, :]].astype(np.uint64)
        return (gathered << _SHIFT8[None, :]).sum(axis=1, dtype=np.uint64)

    i64_pos = np.flatnonzero(tags == TAG_I64)
    f64_pos = np.flatnonzero(tags == TAG_F64)
    i64_vals = gather_u64(i64_pos).view(np.int64)
    f64_vals = gather_u64(f64_pos).view(np.float64)

    null_mask = tags == TAG_NONE
    nan_mask = np.isnan(f64_vals)
    null_mask[f64_pos[nan_mask]] = True
    analysis.null_mask = null_mask
    nn_idx = np.flatnonzero(~null_mask)
    analysis.nn_idx = nn_idx
    analysis.family = "scalar"

    n = analysis.n
    bits_all = np.zeros(n, dtype=np.uint64)
    values_all = np.zeros(n, dtype=np.float64)
    bits_all[i64_pos] = i64_vals.view(np.uint64)
    bits_all[f64_pos] = f64_vals.view(np.uint64)
    values_all[i64_pos] = i64_vals.astype(np.float64)
    values_all[f64_pos] = f64_vals

    k = int(nn_idx.size)
    tags_nn = tags[nn_idx]
    if k:
        n_distinct, counts, first_nn, inverse = _group_first_seen(
            (bits_all[nn_idx], tags_nn), k
        )
    else:
        n_distinct = 0
        counts = first_nn = inverse = np.empty(0, dtype=np.int64)
    analysis.n_distinct = n_distinct
    analysis.counts = counts
    analysis.first_nn = first_nn
    analysis.inv = inverse

    numeric_mask = (tags_nn == TAG_I64) | (tags_nn == TAG_F64)
    analysis.scalar_numeric_mask = numeric_mask
    analysis.scalar_numeric = values_all[nn_idx][numeric_mask]

    type_counts: dict[DataType, int] = {}
    integers = int((tags_nn == TAG_I64).sum())
    floats = int((tags_nn == TAG_F64).sum())
    booleans = int(((tags_nn == TAG_TRUE) | (tags_nn == TAG_FALSE)).sum())
    if integers:
        type_counts[DataType.INTEGER] = integers
    if floats:
        type_counts[DataType.FLOAT] = floats
    if booleans:
        type_counts[DataType.BOOLEAN] = booleans
    analysis.scalar_type_counts = type_counts


# ------------------------------------------------------------- ascii numeric


def _numeric_ascii(view: ColumnView, analysis: _Analysis) -> None:
    """Vectorized ``parse_number`` over the distinct stripped spans.

    Three tiers: values on the ``float()``-safe alphabet are parsed with a
    digit-polynomial kernel (<= 18 digits) or one direct ``float(bytes)``
    call; values touching currency/percent/separator bytes get one real
    ``parse_number`` call each; anything else is non-numeric with zero work.
    Parsing is a pure function of the stripped bytes — the dedupe key — so
    each distinct value is parsed once and repeated cells reuse the result.
    """

    if analysis.numeric_ready:
        return
    # Cells sharing stripped bytes parse identically, so every tier runs per
    # *distinct* span and the result is broadcast back over the inverse map.
    span_start = analysis.dist_start
    span_len = analysis.dist_len
    k = int(span_len.size)
    mask = np.zeros(k, dtype=bool)
    vals = np.zeros(k, dtype=np.float64)
    analysis.numeric_ready = True
    if k == 0:
        analysis.numeric_mask = np.zeros(analysis.nn_idx.size, dtype=bool)
        analysis.numeric_vals = np.zeros(analysis.nn_idx.size, dtype=np.float64)
        return

    blob = view.blob
    blob_len = view.blob_len
    nonempty = np.flatnonzero(span_len > 0)
    if nonempty.size == 0:
        analysis.numeric_mask = mask[analysis.inv]
        analysis.numeric_vals = vals[analysis.inv]
        return

    # Map every byte inside a stripped span back to its owning cell: spans are
    # disjoint and ordered, so the running count of span-starts minus one is
    # the rank of the owning (non-empty) span.
    marker = np.zeros(blob_len + 1, dtype=np.int64)
    marker[span_start[nonempty]] = 1
    owner_rank = np.cumsum(marker[:-1]) - 1
    delta = np.zeros(blob_len + 1, dtype=np.int64)
    np.add.at(delta, span_start[nonempty], 1)
    np.add.at(delta, span_start[nonempty] + span_len[nonempty], -1)
    inside_positions = np.flatnonzero(np.cumsum(delta[:-1]) > 0)
    owner = nonempty[owner_rank[inside_positions]]
    inside_bytes = blob[inside_positions]

    non_candidate = np.bincount(owner[~_NUMCAND_LUT[inside_bytes]], minlength=k)
    non_maybe = np.bincount(owner[~_MAYBE_NUM_LUT[inside_bytes]], minlength=k)
    digit_count = np.bincount(
        owner[_CLASS_LUT[inside_bytes] == _CLS_DIGIT], minlength=k
    )
    is_candidate = (non_candidate == 0) & (span_len > 0)
    is_maybe = (non_maybe == 0) & (span_len > 0)

    first_byte = blob[span_start]
    signed = (first_byte == ord("+")) | (first_byte == ord("-"))
    digits_only = (
        is_candidate & (digit_count >= 1) & (digit_count == span_len - signed)
    )
    small_int = digits_only & ((span_len - signed) <= 18)

    int_rows = np.flatnonzero(small_int)
    if int_rows.size:
        digit_start = span_start[int_rows] + signed[int_rows]
        digit_len = span_len[int_rows] - signed[int_rows]
        window = np.arange(18, dtype=np.int64)
        gather = digit_start[:, None] + window[None, :]
        digits = blob[gather].astype(np.int64) - ord("0")
        within = window[None, :] < digit_len[:, None]
        powers = _POW10[np.clip(digit_len[:, None] - 1 - window[None, :], 0, 18)]
        magnitude = (np.where(within, digits, 0) * np.where(within, powers, 0)).sum(
            axis=1
        )
        # Negate in float64 so "-0" parses to -0.0 exactly like float("-0").
        as_float = magnitude.astype(np.float64)
        vals[int_rows] = np.where(
            first_byte[int_rows] == ord("-"), -as_float, as_float
        )
        mask[int_rows] = True

    residual = np.flatnonzero(is_candidate & ~small_int)
    if residual.size:
        payload = blob[:blob_len].tobytes()
        for row in residual.tolist():
            start = int(span_start[row])
            piece = payload[start: start + int(span_len[row])]
            try:
                vals[row] = float(piece)
                mask[row] = True
            except ValueError:
                pass

    slow = np.flatnonzero(is_maybe & ~is_candidate)
    if slow.size:
        payload = blob[:blob_len].tobytes()
        # Replicate parse_number's formatted-number pipeline byte-for-byte on
        # the common shapes (currency prefix, thousands commas, trailing
        # percents), leaving one float() per distinct; parens and magnitude
        # suffixes stay on the real parse_number.  Mirrors datatypes.py:
        #   sub(^[$€£¥]\s?) -> parens -> rstrip("%").strip() -> suffix ->
        #   replace(",", "") -> fullmatch(number) -> float()
        # Only "$" of the currency set is ASCII, the parens branch is routed
        # to Python below, and on the remaining alphabet float(bytes)
        # succeeds iff the fullmatch regex does, with the identical value.
        hard_bytes = np.bincount(
            owner[_HARDNUM_LUT[inside_bytes]], minlength=k
        )
        s_start = span_start[slow].astype(np.int64)
        s_end = s_start + span_len[slow]
        has_cur = blob[s_start] == ord("$")
        s_start = s_start + has_cur
        # ^[$€£¥]\s? — at most one regex-\s byte after the symbol (\s does
        # NOT include the C1 separators str.strip removes).
        skip_ws = has_cur & (s_start < s_end) & _PCRE_WS_LUT[blob[s_start]]
        s_start = s_start + skip_ws
        # rstrip("%"): peel the trailing percent run only.
        while True:
            trim = (s_start < s_end) & (blob[s_end - 1] == ord("%"))
            if not trim.any():
                break
            s_end = s_end - trim
        # .strip(): both ends, full str.strip whitespace set.
        while True:
            trim = (s_start < s_end) & (_CLASS_LUT[blob[s_end - 1]] == _CLS_WS)
            if not trim.any():
                break
            s_end = s_end - trim
        while True:
            trim = (s_start < s_end) & (_CLASS_LUT[blob[s_start]] == _CLS_WS)
            if not trim.any():
                break
            s_start = s_start + trim
        empty_now = s_start >= s_end
        suffix = np.isin(blob[np.maximum(s_end - 1, 0)], _MAGNITUDE_BYTES)
        hard = (hard_bytes[slow] > 0) | (~empty_now & suffix)
        for i, row in enumerate(slow.tolist()):
            if hard[i]:
                start = int(span_start[row])
                text = payload[start: start + int(span_len[row])].decode("ascii")
                number = parse_number(text)
                if number is not None:
                    vals[row] = number
                    mask[row] = True
                continue
            if empty_now[i]:
                continue
            piece = payload[int(s_start[i]): int(s_end[i])]
            if b"," in piece:
                piece = piece.replace(b",", b"")
            try:
                vals[row] = float(piece)
                mask[row] = True
            except ValueError:
                pass

    analysis.numeric_mask = mask[analysis.inv]
    analysis.numeric_vals = vals[analysis.inv]


# ----------------------------------------------------------- decoded strings


def _distinct_texts(view: ColumnView, analysis: _Analysis) -> list[str]:
    """Decoded distinct stripped strings, first-seen order (cached)."""

    if analysis.texts is None:
        if analysis.family == "ascii":
            payload = view.blob[: view.blob_len].tobytes()
            starts = analysis.dist_start
            lens = analysis.dist_len
            analysis.texts = [
                payload[int(starts[d]): int(starts[d]) + int(lens[d])].decode("ascii")
                for d in range(analysis.n_distinct)
            ]
        else:
            nn_idx = analysis.nn_idx
            analysis.texts = [
                str(view.decode(int(nn_idx[int(first)]))).strip()
                for first in analysis.first_nn
            ]
    return analysis.texts


def _most_frequent(view: ColumnView, analysis: _Analysis, k_top: int) -> list[str]:
    """Top-k distinct values ranked by (-count, first appearance)."""

    n_distinct = analysis.n_distinct
    if n_distinct == 0:
        return []
    order = np.lexsort(
        (np.arange(n_distinct, dtype=np.int64), -analysis.counts)
    )
    top = order[: k_top]
    if analysis.texts is not None:
        return [analysis.texts[int(d)] for d in top]
    if analysis.family == "ascii":
        blob = view.blob
        result = []
        for d in top:
            start = int(analysis.dist_start[int(d)])
            length = int(analysis.dist_len[int(d)])
            result.append(blob[start: start + length].tobytes().decode("ascii"))
        return result
    return [_distinct_texts(view, analysis)[int(d)] for d in top]


# ------------------------------------------------------------------ template


def _ascii_templates(
    view: ColumnView, analysis: _Analysis, max_templates: int, max_run: int = 3
) -> list[str]:
    """Per-distinct ``character_template`` via byte LUT + vectorized RLE."""

    n_distinct = analysis.n_distinct
    if n_distinct == 0:
        return []
    dist_start = analysis.dist_start
    dist_len = analysis.dist_len
    counts = analysis.counts
    total = int(dist_len.sum())
    template_counts: dict[bytes, int] = {}
    if total == 0:
        template_counts[b""] = int(counts.sum())
    else:
        seg_offsets = np.zeros(n_distinct + 1, dtype=np.int64)
        np.cumsum(dist_len, out=seg_offsets[1:])
        flat = (
            np.repeat(dist_start - seg_offsets[:-1], dist_len)
            + np.arange(total, dtype=np.int64)
        )
        symbols = _TEMPLATE_LUT[view.blob[flat]]
        seg_id = np.repeat(np.arange(n_distinct, dtype=np.int64), dist_len)
        boundary = np.ones(total, dtype=bool)
        boundary[1:] = (symbols[1:] != symbols[:-1]) | (seg_id[1:] != seg_id[:-1])
        run_start = np.flatnonzero(boundary)
        run_id = np.cumsum(boundary) - 1
        run_offset = np.arange(total, dtype=np.int64) - run_start[run_id]
        keep = run_offset <= max_run
        emitted = np.where(run_offset == max_run, np.uint8(ord("+")), symbols)[keep]
        emitted_seg = seg_id[keep]
        out_len = np.bincount(emitted_seg, minlength=n_distinct)
        out_offsets = np.zeros(n_distinct + 1, dtype=np.int64)
        np.cumsum(out_len, out=out_offsets[1:])
        template_counts = dict(
            _weighted_unique_bytes(emitted, out_offsets[:-1], out_len, counts)
        )
    # ASCII bytes compare exactly like the str they decode to, so the seed's
    # (-count, template) ranking is preserved.
    ranked = sorted(template_counts.items(), key=lambda item: (-item[1], item[0]))
    return [key.decode("ascii") for key, _ in ranked[:max_templates]]


def kernel_character_template(value: str, max_run: int = 3) -> str | None:
    """Byte-level ``character_template`` of one string (``None`` = fallback).

    Exposed for the parity test-suite; production code goes through
    :func:`kernel_profile`, which amortizes the work across all distinct
    values at once.
    """

    if not value.isascii():
        return None
    raw = value.encode("ascii")
    view = ColumnView(
        np.full(1, TAG_STR, dtype=np.uint8),
        np.array([0, len(raw)], dtype=np.int64),
        _pad_blob(raw),
    )
    analysis = _Analysis(1)
    # Template parity is defined over the exact input, not the stripped span.
    analysis.family = "ascii"
    analysis.null_mask = np.zeros(1, dtype=bool)
    analysis.nn_idx = np.zeros(1, dtype=np.int64)
    analysis.n_distinct = 1
    analysis.counts = np.ones(1, dtype=np.int64)
    analysis.first_nn = np.zeros(1, dtype=np.int64)
    analysis.inv = np.zeros(1, dtype=np.int64)
    analysis.dist_start = np.zeros(1, dtype=np.int64)
    analysis.dist_len = np.array([len(raw)], dtype=np.int64)
    templates = _ascii_templates(view, analysis, max_templates=1, max_run=max_run)
    return templates[0] if templates else ""


# ------------------------------------------------------------ structural type


#: Process-wide cache mapping digit-collapsed value signatures to their
#: structural type; cleared wholesale when it outgrows the cap.
_SIG_CACHE: dict[bytes, DataType] = {}
_SIG_CACHE_MAX = 1 << 17


def _sig_type(signature: bytes) -> DataType:
    cached = _SIG_CACHE.get(signature)
    if cached is None:
        if len(_SIG_CACHE) >= _SIG_CACHE_MAX:
            _SIG_CACHE.clear()
        cached = infer_value_type(signature.decode("ascii"))
        _SIG_CACHE[signature] = cached
    return cached


def _ascii_type_votes(view: ColumnView, analysis: _Analysis) -> dict[DataType, int]:
    """Structural-type votes per distinct value via digit-collapse signatures.

    ``infer_value_type`` is invariant under mapping every digit to ``9`` for
    ASCII text: null/bool tokens are digit-free (and ``"0"``/``"1"`` map to
    the same ``parse_bool`` special case as ``"9"``), while the date/number
    grammars only test digit *positions*.  Collapsing makes the per-signature
    cache hit rate enormous (every "123.45" shares one signature).
    """

    signatures = _SIG_LUT[view.blob[: view.blob_len]]
    votes: dict[DataType, int] = {}
    for key, weight in _weighted_unique_bytes(
        signatures, analysis.dist_start, analysis.dist_len, analysis.counts
    ):
        value_type = _sig_type(key)
        if value_type is DataType.EMPTY:  # unreachable: nulls were filtered
            continue
        votes[value_type] = votes.get(value_type, 0) + weight
    return votes


def _decide_column_type(
    counts: dict[DataType, int], total: int, threshold: float = 0.9
) -> DataType:
    """Replica of ``infer_column_type``'s vote cascade (identical arithmetic)."""

    if total == 0:
        return DataType.EMPTY

    def fraction(*types: DataType) -> float:
        return sum(counts.get(t, 0) for t in types) / total

    if fraction(DataType.INTEGER) >= threshold:
        return DataType.INTEGER
    if fraction(DataType.INTEGER, DataType.FLOAT) >= threshold:
        return DataType.FLOAT
    if fraction(DataType.BOOLEAN) >= threshold:
        return DataType.BOOLEAN
    if fraction(DataType.DATETIME) >= threshold:
        return DataType.DATETIME
    if fraction(DataType.DATE, DataType.DATETIME) >= threshold:
        return DataType.DATE
    if fraction(DataType.TEXT) >= threshold:
        return DataType.TEXT
    return DataType.MIXED


# ---------------------------------------------------------------- public ops


def kernel_data_type(view: ColumnView) -> DataType | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("data_type", False, analysis.reason)
        return None
    _record("data_type", True)
    if analysis.family == "ascii":
        votes = _ascii_type_votes(view, analysis)
    else:
        votes = analysis.scalar_type_counts
    return _decide_column_type(votes, sum(votes.values()))


def kernel_non_null_indices(view: ColumnView) -> list[int] | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("non_null", False, analysis.reason)
        return None
    _record("non_null", True)
    return analysis.nn_idx.tolist()


def kernel_non_null_count(view: ColumnView) -> int | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("null_fraction", False, analysis.reason)
        return None
    _record("null_fraction", True)
    return int(analysis.nn_idx.size)


def kernel_text_values(view: ColumnView) -> list[str] | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("text_values", False, analysis.reason)
        return None
    _record("text_values", True)
    texts = _distinct_texts(view, analysis)
    return [texts[g] for g in analysis.inv.tolist()]


def kernel_value_counts(view: ColumnView) -> dict[str, int] | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("value_counts", False, analysis.reason)
        return None
    _record("value_counts", True)
    texts = _distinct_texts(view, analysis)
    counts = analysis.counts
    return {texts[d]: int(counts[d]) for d in range(analysis.n_distinct)}


def kernel_unique_fraction(view: ColumnView) -> float | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("unique_fraction", False, analysis.reason)
        return None
    _record("unique_fraction", True)
    k = int(analysis.nn_idx.size)
    if k == 0:
        return 0.0
    return analysis.n_distinct / k


def kernel_numeric_values(view: ColumnView) -> list[float] | None:
    analysis = view.analysis()
    if analysis.family is None:
        _record("numeric_values", False, analysis.reason)
        return None
    _record("numeric_values", True)
    if analysis.family == "scalar":
        return analysis.scalar_numeric.tolist()
    _numeric_ascii(view, analysis)
    return analysis.numeric_vals[analysis.numeric_mask].tolist()


def kernel_sample_indices(view: ColumnView, k: int, seed: int | None) -> list[int] | None:
    """Raw indices replicating ``rng.sample(non_null, k)`` draw-for-draw."""

    analysis = view.analysis()
    if analysis.family is None:
        _record("sample", False, analysis.reason)
        return None
    _record("sample", True)
    nn_idx = analysis.nn_idx
    if int(nn_idx.size) <= k:
        return nn_idx.tolist()
    rng = random.Random(seed)
    # random.sample draws positions identically for any sequence of the same
    # length, so sampling positions and gathering matches the Python path.
    positions = rng.sample(range(int(nn_idx.size)), k)
    return [int(nn_idx[p]) for p in positions]


def kernel_profile(
    view: ColumnView,
    column_name: str,
    data_type: DataType,
    max_frequent: int,
    max_templates: int,
):
    """Block-native ``ColumnStatistics`` (``None`` = use the Python path)."""

    analysis = view.analysis()
    if analysis.family is None:
        _record("profile", False, analysis.reason)
        return None
    _record("profile", True)
    from repro.profiler.statistics import ColumnStatistics, _quantile

    n = analysis.n
    k = int(analysis.nn_idx.size)
    profile = ColumnStatistics(
        column_name=column_name,
        data_type=data_type,
        row_count=n,
        null_count=n - k,
        distinct_count=analysis.n_distinct,
        most_frequent_values=_most_frequent(view, analysis, max_frequent),
    )

    if analysis.family == "scalar":
        numeric = analysis.scalar_numeric.tolist()
    else:
        _numeric_ascii(view, analysis)
        numeric = analysis.numeric_vals[analysis.numeric_mask].tolist()
    if numeric and len(numeric) >= max(3, int(0.5 * k)):
        # Python's stable sorted() — not np.sort — so bit-distinct equal
        # floats (-0.0/0.0) land exactly where the seed path puts them.
        ordered = sorted(numeric)
        profile.minimum = float(ordered[0])
        profile.maximum = float(ordered[-1])
        profile.mean = float(pystats.fmean(ordered))
        profile.median = float(_quantile(ordered, 0.5))
        profile.quartile_1 = float(_quantile(ordered, 0.25))
        profile.quartile_3 = float(_quantile(ordered, 0.75))
        profile.std_dev = float(pystats.pstdev(ordered)) if len(ordered) > 1 else 0.0

    if k:
        if analysis.family == "ascii":
            _profile_text_ascii(view, analysis, profile, max_templates)
        else:
            _profile_text_scalar(view, analysis, profile, max_templates)
    return profile


def _profile_text_ascii(view, analysis, profile, max_templates: int) -> None:
    k = int(analysis.nn_idx.size)
    profile.min_length = int(analysis.dist_len.min())
    profile.max_length = int(analysis.dist_len.max())
    total_chars = int(analysis.slen.sum())
    profile.mean_length = total_chars / k
    denominator = total_chars or 1

    # Character classes over every byte inside a stripped span, counted via
    # a +1/-1 delta cumsum (duplicates contribute their own spans, so the
    # per-occurrence totals are integer-exact).
    blob_len = view.blob_len
    span_start = analysis.sstart
    span_len = analysis.slen
    nonempty = np.flatnonzero(span_len > 0)
    if nonempty.size:
        delta = np.zeros(blob_len + 1, dtype=np.int64)
        np.add.at(delta, span_start[nonempty], 1)
        np.add.at(delta, span_start[nonempty] + span_len[nonempty], -1)
        inside = np.cumsum(delta[:-1]) > 0
        class_totals = np.bincount(
            _CLASS_LUT[view.blob[:blob_len]][inside], minlength=5
        )
    else:
        class_totals = np.zeros(5, dtype=np.int64)
    digits = int(class_totals[_CLS_DIGIT])
    alphas = int(class_totals[_CLS_UPPER] + class_totals[_CLS_LOWER])
    spaces = int(class_totals[_CLS_WS])
    profile.digit_fraction = digits / denominator
    profile.alpha_fraction = alphas / denominator
    profile.whitespace_fraction = spaces / denominator
    profile.punctuation_fraction = max(
        0.0,
        1.0
        - profile.digit_fraction
        - profile.alpha_fraction
        - profile.whitespace_fraction,
    )
    profile.common_templates = _ascii_templates(view, analysis, max_templates)


def _profile_text_scalar(view, analysis, profile, max_templates: int) -> None:
    from repro.profiler.statistics import character_template

    texts = _distinct_texts(view, analysis)
    counts = analysis.counts
    k = int(analysis.nn_idx.size)
    lengths = [len(text) for text in texts]
    profile.min_length = min(lengths)
    profile.max_length = max(lengths)
    total_chars = sum(
        lengths[d] * int(counts[d]) for d in range(analysis.n_distinct)
    )
    profile.mean_length = total_chars / k
    denominator = total_chars or 1
    digits = alphas = spaces = 0
    template_counts: dict[str, int] = {}
    for d, text in enumerate(texts):
        count = int(counts[d])
        digits += count * sum(char.isdigit() for char in text)
        alphas += count * sum(char.isalpha() for char in text)
        spaces += count * sum(char.isspace() for char in text)
        template = character_template(text)
        template_counts[template] = template_counts.get(template, 0) + count
    profile.digit_fraction = digits / denominator
    profile.alpha_fraction = alphas / denominator
    profile.whitespace_fraction = spaces / denominator
    profile.punctuation_fraction = max(
        0.0,
        1.0
        - profile.digit_fraction
        - profile.alpha_fraction
        - profile.whitespace_fraction,
    )
    ranked = sorted(template_counts.items(), key=lambda item: (-item[1], item[0]))
    profile.common_templates = [template for template, _ in ranked[:max_templates]]
