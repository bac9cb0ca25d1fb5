"""Outside-in span recorder for the traced benchmark run.

Nothing here edits the program: :func:`install` replaces public functions and
methods of the ``repro`` modules with thin wrappers that record a span
(name, start, end, parent, item id) around each call, plus a few pure
counters.  Spans live in memory.  Forked children (multiprocess shard workers,
the HTTP server process) inherit the wrappers, start with an empty buffer and
hand their spans back: shard workers write one pickle per shard into the
trace directory, which the parent merges after every repetition.

A span's *self* time is its duration minus the time its child spans cover
(children run on the same thread, so they never overlap).  Summing self time
per span name over a repetition therefore partitions the repetition's
wall-clock among the layers, with the benchmark's own root span keeping only
what no named layer claimed.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import os
import pickle
import threading
import time
from pathlib import Path

from repro.matching.fuzzy import normalize_header
from repro.matching.header_matcher import HeaderMatcherConfig

#: Span name -> the module (layer) it belongs to.  Every name a wrapper can
#: record is listed here, so the ledger can always group by module.
LAYERS = {
    "bench.rep": "perfbench",
    "api.annotate_corpus": "repro.core.sigmatyper",
    "api.give_feedback": "repro.core.sigmatyper",
    "adaptation.blend": "repro.core.sigmatyper",
    "backend.run": "repro.serving.backends",
    "backend.worker_run": "repro.serving.backends",
    "pipeline.annotate": "repro.core.pipeline",
    "aggregate.combine": "repro.core.aggregation",
    "matching.header": "repro.matching",
    "matching.embed": "repro.matching",
    "profile.data_type": "repro.core.table",
    "profile.to_block": "repro.core.table",
    "profile.stats": "repro.profiler",
    "lookup.step": "repro.lookup",
    "lookup.kb": "repro.lookup",
    "lookup.regex": "repro.lookup",
    "lookup.lf": "repro.lookup",
    "embedding.step": "repro.embedding_model",
    "embedding.featurize": "repro.embedding_model",
    "embedding.forward": "repro.nn",
    "dpbd.relabel": "repro.dpbd",
    "dpbd.lf_inference": "repro.dpbd",
    "dpbd.weak_labels": "repro.dpbd",
    "dpbd.label_model": "repro.dpbd",
    "adaptation.local_scores": "repro.adaptation",
    "transport.encode": "repro.serving.transport",
    "transport.decode": "repro.serving.transport",
    "transport.worker_open": "repro.serving.transport",
    "transport.worker_encode": "repro.serving.transport",
    "frontend.request": "repro.serving.frontend",
    "frontend.parse": "repro.serving.frontend",
    "frontend.encode": "repro.serving.frontend",
}

#: Request id of the HTTP request the current task is serving (server side).
_REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("request_id", default=None)


class Recorder:
    """In-memory spans, counters and distinct-value sets of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.clear()

    def clear(self) -> None:
        #: ``(id, parent, name, start, end, self_seconds, item)``; self is
        #: None for latency spans around coroutines, which may interleave.
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def see(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def span(self, name: str, fn, item=None):
        """Call ``fn()`` inside a span named *name*; returns its result."""
        stack = self._stack()
        parent = stack[-1][1] if stack else None
        frame = [0.0, self.next_id()]
        if item is None:
            item = _REQUEST_ID.get()
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self.spans.append((frame[1], parent, name, start, end, duration - frame[0], item))

    def take(self) -> dict:
        """This process's spans and counters since the last take, then reset."""
        data = {"spans": self.spans, "counts": self.counts, "distinct": self.distinct}
        self.clear()
        return data

    def flush_child(self) -> None:
        """Write a forked worker's buffer to the trace directory."""
        data = self.take()
        path = self.out_dir / f"worker-{self.pid}-{next(self._ids)}.pkl"
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))
        tmp.rename(path)

    def collect(self) -> dict:
        """Take this process's buffer and merge every flushed worker buffer."""
        merged = self.take()
        for path in sorted(self.out_dir.glob("worker-*.pkl")):
            merge_into(merged, pickle.loads(path.read_bytes()))
            path.unlink()
        return merged


def merge_into(target: dict, data: dict) -> None:
    target["spans"].extend(data["spans"])
    for key, value in data["counts"].items():
        target["counts"][key] = target["counts"].get(key, 0) + value
    for key, values in data["distinct"].items():
        target["distinct"].setdefault(key, set()).update(values)


# --------------------------------------------------------------------- hooks
def _table_name(args):
    return getattr(args[1], "name", None)


def _count_columns(key):
    def hook(recorder, args, kwargs):
        indices = args[2] if len(args) > 2 else kwargs.get("column_indices")
        recorder.add(key, args[1].num_columns if indices is None else len(indices))
    return hook


def _header_hook(recorder, args, kwargs):
    table = args[1]
    indices = args[2] if len(args) > 2 else kwargs.get("column_indices")
    for index in range(table.num_columns) if indices is None else indices:
        recorder.see("matching.distinct_headers", normalize_header(table.columns[index].name))


def _label_model_hook(recorder, args, kwargs):
    recorder.add("dpbd.label_model_columns", len(args[2]))


def _bytes_out(recorder, result):
    # ("shm", uid, segment name, length) or ("pickle", uid, data)
    recorder.add("transport.bytes_out", result[3] if result[0] == "shm" else len(result[2]))


def _bytes_back(recorder, args, kwargs):
    payload = args[1]  # ("shm", segment name, length) or ("pickle", data)
    recorder.add("transport.bytes_back", payload[2] if payload[0] == "shm" else len(payload[1]))


# ------------------------------------------------------------------ wrappers
def _span_wrapper(recorder, name, original, item=None, hook=None, result_hook=None,
                  after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(recorder, args, kwargs)
        result = recorder.span(
            name, lambda: original(*args, **kwargs), item(args) if item else None
        )
        if result_hook is not None:
            result_hook(recorder, result)
        if after is not None:
            after()
        return result

    return wrapper


def _async_span_wrapper(recorder, name, original, request_id):
    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        token = _REQUEST_ID.set(request_id(args))
        start = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _REQUEST_ID.reset(token)
            recorder.spans.append(
                (recorder.next_id(), None, name, start, end, None, request_id(args))
            )

    return wrapper


def _similarity_counter(recorder, key, threshold, original):
    @functools.wraps(original)
    def wrapper(first, second):
        result = original(first, second)
        recorder.add(key)
        if threshold is not None and result >= threshold:
            recorder.add(key.replace("_calls", "_hits"))
        return result

    return wrapper


def _call_counter(recorder, key, original, distinct_arg=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.add(key)
        if distinct_arg is not None:
            recorder.see(key, args[distinct_arg])
        return original(*args, **kwargs)

    return wrapper


class _Patcher:
    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Swap ``owner.attr`` for ``make(original_function)``.

        Class attributes are read from the class ``__dict__`` so properties
        and classmethods are re-wrapped as what they were.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, property):
            new = property(make(raw.fget))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    def undo(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def _resolve(path: str):
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


#: ``module:attribute`` -> (span name, options).  Functions imported by name
#: into another module are wrapped where they are looked up.
SPANS = {
    "repro.core.sigmatyper:SigmaTyper.annotate_corpus": ("api.annotate_corpus", {}),
    "repro.core.sigmatyper:SigmaTyper.give_feedback": ("api.give_feedback", {}),
    "repro.core.sigmatyper:SigmaTyper._blend_with_local": ("adaptation.blend", {"item": _table_name}),
    "repro.serving.backends:ExecutionBackend.run": ("backend.run", {}),
    "repro.core.pipeline:TypeDetectionPipeline.annotate": ("pipeline.annotate", {"item": _table_name}),
    "repro.core.aggregation:Aggregator.combine": ("aggregate.combine", {}),
    "repro.matching.header_matcher:HeaderMatcher.predict_columns": (
        "matching.header", {"hook": _header_hook}),
    "repro.matching.embeddings:SubwordEmbedder.embed_text": ("matching.embed", {}),
    "repro.core.table:Column.data_type": ("profile.data_type", {}),
    "repro.core.table:Table.to_block": ("profile.to_block", {}),
    "repro.profiler.statistics:profile_column": ("profile.stats", {}),
    "repro.profiler.expectations:profile_column": ("profile.stats", {}),
    "repro.embedding_model.features:profile_column": ("profile.stats", {}),
    "repro.dpbd.lf_inference:profile_column": ("profile.stats", {}),
    "repro.lookup.value_matcher:ValueLookupStep.predict_columns": (
        "lookup.step", {"hook": _count_columns("lookup.columns")}),
    "repro.lookup.knowledge_base:KnowledgeBase.lookup_column": ("lookup.kb", {}),
    "repro.lookup.regex_library:RegexLibrary.match_column": ("lookup.regex", {}),
    "repro.lookup.labeling_functions:LabelingFunctionStore.score_column": ("lookup.lf", {}),
    "repro.embedding_model.step:TableEmbeddingStep.predict_columns": (
        "embedding.step", {"hook": _count_columns("embedding.columns")}),
    "repro.embedding_model.features:ColumnFeaturizer.extract_many": ("embedding.featurize", {}),
    "repro.embedding_model.classifier:TableEmbeddingClassifier.predict_proba_batch": (
        "embedding.forward", {}),
    "repro.dpbd.session:DPBDSession.relabel": ("dpbd.relabel", {}),
    "repro.dpbd.session:infer_labeling_functions": ("dpbd.lf_inference", {}),
    "repro.dpbd.session:generate_weak_labels": ("dpbd.weak_labels", {}),
    "repro.dpbd.label_model:MajorityVoteLabelModel.label_distributions": (
        "dpbd.label_model", {"hook": _label_model_hook}),
    "repro.dpbd.label_model:AgreementWeightedLabelModel.label_distributions": (
        "dpbd.label_model", {"hook": _label_model_hook}),
    "repro.adaptation.local_model:LocalModel.predict_scores_table": ("adaptation.local_scores", {}),
    "repro.serving.frontend:Table.from_dict": ("frontend.parse", {}),
    "repro.core.prediction:TablePrediction.to_dict": ("frontend.encode", {}),
}

for _transport in ("ShmTransport", "PickleTransport"):
    SPANS.update({
        f"repro.serving.transport:{_transport}.encode_shard": (
            "transport.encode", {"result_hook": _bytes_out}),
        f"repro.serving.transport:{_transport}.decode_results": (
            "transport.decode", {"hook": _bytes_back}),
        f"repro.serving.transport:{_transport}.open_shard": ("transport.worker_open", {}),
        f"repro.serving.transport:{_transport}.encode_results": ("transport.worker_encode", {}),
    })


_FORK_HOOK_RECORDERS: list[Recorder] = []


def _after_fork_in_child() -> None:
    for recorder in _FORK_HOOK_RECORDERS:
        recorder.after_fork_in_child()


def install(recorder: Recorder):
    """Wrap every traced function; returns a callable that undoes it."""
    patcher = _Patcher()
    for path, (name, options) in SPANS.items():
        owner, attr = _resolve(path)
        patcher.replace(
            owner, attr,
            lambda original, name=name, options=options: _span_wrapper(
                recorder, name, original, **options),
        )

    owner, attr = _resolve("repro.serving.transport:Transport.run_in_worker")
    patcher.replace(owner, attr, lambda original: _span_wrapper(
        recorder, "backend.worker_run", original, after=recorder.flush_child))

    owner, attr = _resolve("repro.serving.frontend:AnnotationFrontend._route_annotate")
    patcher.replace(owner, attr, lambda original: _async_span_wrapper(
        recorder, "frontend.request", original,
        lambda args: args[1].get("x-request-id")))

    threshold = HeaderMatcherConfig().syntactic_threshold
    for path, key, hit_threshold in (
        ("repro.matching.header_matcher:combined_similarity", "matching.similarity_calls", threshold),
        ("repro.lookup.labeling_functions:combined_similarity", "lookup.lf_similarity_calls", None),
    ):
        owner, attr = _resolve(path)
        patcher.replace(owner, attr, lambda original, key=key, hit=hit_threshold: (
            _similarity_counter(recorder, key, hit, original)))
    owner, attr = _resolve("repro.matching.fuzzy:levenshtein_distance")
    patcher.replace(owner, attr, lambda original: _call_counter(
        recorder, "fuzzy.levenshtein_calls", original))
    owner, attr = _resolve("repro.lookup.regex_library:RegexLibrary.match_value")
    patcher.replace(owner, attr, lambda original: _call_counter(
        recorder, "lookup.regex_values", original, distinct_arg=1))

    if not _FORK_HOOK_RECORDERS:
        os.register_at_fork(after_in_child=_after_fork_in_child)
    _FORK_HOOK_RECORDERS.append(recorder)

    def uninstall() -> None:
        patcher.undo()
        _FORK_HOOK_RECORDERS.remove(recorder)

    return uninstall


# -------------------------------------------------------------------- ledger
def self_seconds(spans) -> dict[str, float]:
    """Summed self time per span name (latency spans excluded)."""
    totals: dict[str, float] = {}
    for _, _, name, _, _, own, _ in spans:
        if own is not None:
            totals[name] = totals.get(name, 0.0) + own
    return totals


def span_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _, _, name, _, _, _, _ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def inclusive_seconds(spans, name: str) -> float:
    return sum(end - start for _, _, span_name, start, end, _, _ in spans if span_name == name)


def by_layer(self_by_name: dict[str, float]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, seconds in self_by_name.items():
        layer = LAYERS.get(name, "other")
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def write_spans(path: Path, reps: list[dict]) -> None:
    """Write every recorded span as one tab-separated line."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write("rep\tid\tparent\tname\tstart\tend\tself_s\titem\n")
        for index, rep in enumerate(reps):
            for span_id, parent, name, start, end, own, item in rep["spans"]:
                handle.write(
                    f"{index}\t{span_id}\t{parent if parent is not None else ''}\t{name}\t"
                    f"{start:.9f}\t{end:.9f}\t{'' if own is None else f'{own:.9f}'}\t"
                    f"{'' if item is None else item}\n"
                )
