"""The four benchmark workloads.

Each workload has a one-time ``prepare`` (inputs from the seed, a serial
cold-cache reference on its own snapshot, and any warm-up), which counts
toward ``setup_s``, and a ``phase`` that repeats the measured operation until
its time is up.  Every repetition checks its outputs against the reference
bit for bit (``step_seconds`` excepted); a mismatch or an exception counts as
a failed operation.
"""

from __future__ import annotations

import gc
import json
import random
import time
import traceback
from dataclasses import dataclass, field

import harness
import httpload
import tracing
from harness import copies, fresh, num_columns


@dataclass
class Phase:
    """What one measured phase observed."""

    attempted: int = 0
    failed: int = 0
    #: Latency samples of the workload's operation, in ms at the reference
    #: speed; ``raw_latencies_ms`` holds them as measured.
    latencies_ms: list = field(default_factory=list)
    raw_latencies_ms: list = field(default_factory=list)
    #: Columns per second, one sample per timed call, likewise.
    rates: list = field(default_factory=list)
    raw_rates: list = field(default_factory=list)
    #: Speed scale of every sample (see ``harness.measure``).
    scales: list = field(default_factory=list)
    correct: int = 0
    labeled: int = 0
    #: Per repetition: cascade columns per step (from ``step_trace``).
    cascade: list = field(default_factory=list)
    #: Per repetition: the recorder's spans and counters (traced phases only).
    traces: list = field(default_factory=list)
    #: Layer metrics only the workload itself can read (service stats, ...).
    extra: dict = field(default_factory=dict)

    def add_latency(self, seconds: float, scale: float) -> None:
        self.raw_latencies_ms.append(seconds * 1e3)
        self.latencies_ms.append(seconds * 1e3 * scale)
        self.scales.append(scale)

    def add_rate(self, columns: int, seconds: float, scale: float) -> None:
        self.raw_rates.append(columns / seconds)
        self.rates.append(columns / seconds / scale)
        self.scales.append(scale)


def _traced(recorder, call):
    """*call* inside the benchmark's root span when tracing, else *call*."""
    if recorder is None:
        return call
    return lambda: recorder.span("bench.rep", call)


def _pooled(samples: list) -> tuple[float, float]:
    """Total seconds of ``(seconds, scale)`` samples, and their time-weighted scale."""
    total = sum(seconds for seconds, _ in samples)
    return total, sum(seconds * scale for seconds, scale in samples) / total


def _until(seconds: float, min_reps: int, one_rep) -> None:
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < min_reps or time.perf_counter() < deadline:
        if one_rep() is False:
            return
        reps += 1


class ColdBulk:
    """Serial ``annotate_corpus`` of a header-diverse corpus on a fresh typer."""

    name = "cold_bulk"
    CORPUS_SEED = 101
    TABLES = 8
    DIRTY_HEADERS = 0.9
    #: Scale timings by the calibration kernel (the work runs in this process).
    CALIBRATED = True

    def prepare(self, seed: int, snapshot: bytes, seen: set) -> dict:
        self.snapshot = snapshot
        self.tables = harness.corpus(
            self.CORPUS_SEED, self.TABLES, seed, dirty_header_probability=self.DIRTY_HEADERS)
        reference = fresh(snapshot).annotate_corpus(copies(self.tables))
        self.expected = [harness.fingerprint(p) for p in reference]
        self.properties = harness.input_properties(self.tables, seen)
        return self.properties

    def _call(self):
        typer = fresh(self.snapshot)
        tables = copies(self.tables)
        return lambda: typer.annotate_corpus(tables)

    def phase(self, seconds: float, min_reps: int, recorder=None) -> Phase:
        result = Phase()
        columns = num_columns(self.tables)

        def one_rep():
            result.attempted += len(self.tables)
            call = self._call()
            gc.collect()
            if recorder is not None:
                recorder.take()  # drop whatever the preparation recorded
            try:
                predictions, elapsed, scale = harness.measure(
                    _traced(recorder, call), self.CALIBRATED)
            except Exception:  # noqa: BLE001 - counted as failed operations
                traceback.print_exc()
                result.failed += len(self.tables)
                return False
            result.add_latency(elapsed, scale)
            result.add_rate(columns, elapsed, scale)
            result.failed += harness.count_mismatches(predictions, self.expected)
            result.cascade.append(harness.cascade_columns(predictions))
            if recorder is not None:
                result.traces.append(recorder.collect())
            if not result.labeled:
                result.correct, result.labeled = harness.accuracy_counts(
                    self.tables, [p.predicted_types() for p in predictions])
            return None

        _until(seconds, min_reps, one_rep)
        return result


class WarmSharded(ColdBulk):
    """``multiprocess:2+shm`` over fresh copies of tables whose headers are warm."""

    name = "warm_sharded"
    CORPUS_SEED = 202
    TABLES = 48
    BACKEND = "multiprocess:2+shm"
    CALIBRATED = False

    def prepare(self, seed: int, snapshot: bytes, seen: set) -> dict:
        self.tables = harness.corpus(self.CORPUS_SEED, self.TABLES, seed, min_rows=150, max_rows=400)
        # The serial cold reference doubles as the warm-up: it scores every
        # header in this process, and forked workers inherit the caches.
        self.typer = fresh(snapshot)
        reference = self.typer.annotate_corpus(copies(self.tables))
        self.expected = [harness.fingerprint(p) for p in reference]
        self.properties = harness.input_properties(self.tables, seen)
        self.typer.annotate_corpus(copies(self.tables), backend=self.BACKEND)  # first-call costs
        return self.properties

    def _call(self):
        tables = copies(self.tables)
        return lambda: self.typer.annotate_corpus(tables, backend=self.BACKEND)


class AdaptedFeedback:
    """One customer's relabel-then-reannotate script on a fresh typer."""

    name = "adapted_feedback"
    CORPUS_SEED = 303
    CUSTOMER = "acme"
    EVENTS = 3
    FEEDBACK_TABLES = 8
    READ_TABLES = 4

    def prepare(self, seed: int, snapshot: bytes, seen: set) -> dict:
        self.snapshot = snapshot
        # A fixed script on fixed tables: each event corrects one labeled
        # column of a different table to its ground-truth type.  Only the
        # read tables follow the seed, so every seed does the same feedback
        # work (which inputs a relabel mines decides most of its cost).
        feedback_tables = harness.corpus(self.CORPUS_SEED + 1, self.FEEDBACK_TABLES, 0)
        rng = random.Random(self.CORPUS_SEED)
        self.events = []
        for table_index in rng.sample(range(len(feedback_tables)), self.EVENTS):
            table = feedback_tables[table_index]
            column = rng.choice([c for c in table.columns if c.semantic_type is not None])
            self.events.append((table_index, column.name, column.semantic_type))
        self.feedback_tables = feedback_tables
        self.tables = harness.corpus(self.CORPUS_SEED, self.READ_TABLES, seed)
        self.expected = [
            [harness.fingerprint(p) for p in read] for read in self._script(self._start())
        ]
        self.properties = harness.input_properties(self.tables, seen)
        self.properties["relabel_events"] = self.EVENTS
        return self.properties

    def _start(self):
        """A fresh typer with the customer registered, plus fresh inputs."""
        typer = fresh(self.snapshot)
        typer.register_customer(self.CUSTOMER)
        return typer, copies(self.feedback_tables), [copies(self.tables) for _ in self.events]

    def _script(self, state, on_feedback=None, on_read=None):
        """Run the script; returns the predictions of every read."""
        typer, tables, reads = state
        results = []
        for (table_index, column_name, corrected), batch in zip(self.events, reads):
            feedback = lambda: typer.give_feedback(  # noqa: E731
                self.CUSTOMER, tables[table_index], column_name, corrected)
            read = lambda: typer.annotate_corpus(batch, customer_id=self.CUSTOMER)  # noqa: E731
            if on_feedback is None:
                feedback()
                results.append(read())
            else:
                on_feedback(feedback)
                results.append(on_read(read))
        return results

    def phase(self, seconds: float, min_reps: int, recorder=None) -> Phase:
        """One sample per script run: its mean ``give_feedback`` latency and
        its read throughput.  The three events cost different amounts, so a
        median over single events would jump between them."""
        result = Phase()
        columns = num_columns(self.tables)
        timings: dict[str, list] = {"feedback": [], "read": []}

        def on_feedback(call):
            _, elapsed, scale = harness.measure(_traced(recorder, call))
            timings["feedback"].append((elapsed, scale))

        def on_read(call):
            predictions, elapsed, scale = harness.measure(_traced(recorder, call))
            timings["read"].append((elapsed, scale))
            return predictions

        def one_rep():
            result.attempted += self.EVENTS * (1 + len(self.tables))
            timings["feedback"].clear()
            timings["read"].clear()
            try:
                state = self._start()
                gc.collect()
                if recorder is not None:
                    recorder.take()
                reads = self._script(state, on_feedback, on_read)
            except Exception:  # noqa: BLE001 - counted as failed operations
                traceback.print_exc()
                result.failed += self.EVENTS * (1 + len(self.tables))
                return False
            elapsed, scale = _pooled(timings["feedback"])
            result.add_latency(elapsed / self.EVENTS, scale)
            elapsed, scale = _pooled(timings["read"])
            result.add_rate(columns * self.EVENTS, elapsed, scale)
            cascade: dict = {}
            for read, expected in zip(reads, self.expected):
                result.failed += harness.count_mismatches(read, expected)
                for step, count in harness.cascade_columns(read).items():
                    cascade[step] = cascade.get(step, 0) + count
            result.cascade.append(cascade)
            if recorder is not None:
                result.traces.append(recorder.collect())
            if not result.labeled:
                for read in reads:
                    correct, labeled = harness.accuracy_counts(
                        self.tables, [p.predicted_types() for p in read])
                    result.correct += correct
                    result.labeled += labeled
            return None

        _until(seconds, min_reps, one_rep)
        return result


class OnlineHttp:
    """Open-loop HTTP requests against a forked ``AnnotationFrontend``."""

    name = "online_http"
    CORPUS_SEED = 404
    TABLES = 64
    #: Offered load, fixed so that two commits see the same traffic.  At half
    #: the server's capacity a request rarely waits for the one before it:
    #: the service's 5 ms coalescing window plus ~4 ms of annotation take
    #: about 10 ms, so at 100 req/s a slower CPU state let the queue grow.
    RATE = 50.0
    #: Client connections: at most one per CPU of the 2-CPU reference box.
    CONNECTIONS = 2

    def prepare(self, seed: int, snapshot: bytes, seen: set) -> dict:
        self.tables = harness.corpus(
            self.CORPUS_SEED, self.TABLES, seed, min_columns=3, max_columns=6, min_rows=10,
            max_rows=40)
        # The serial cold reference doubles as the server's warm-up.
        self.typer = fresh(snapshot)
        reference = self.typer.annotate_corpus(copies(self.tables))
        self.expected = [harness.wire_form(p) for p in reference]
        self.bodies = [json.dumps({"table": t.to_dict()}).encode() for t in self.tables]
        self.properties = harness.input_properties(self.tables, seen)
        self.properties["offered_rate_per_s"] = self.RATE
        return self.properties

    def phase(self, seconds: float, min_reps: int, recorder=None) -> Phase:
        count = max(1, round(self.RATE * seconds))
        result = Phase(attempted=count)
        if recorder is not None:
            recorder.take()
        outcome = httpload.run(
            self.typer, self.bodies, self.RATE, count, self.CONNECTIONS, recorder)
        columns_served = 0
        cascade: dict = {}
        # Not scaled: the server runs on another CPU than this process, and
        # most of a request's latency is the service's batching window.
        for index, (status, payload, latency) in enumerate(outcome["responses"]):
            result.add_latency(latency, 1.0)
            expected = self.expected[index % len(self.expected)]
            if status != 200:
                result.failed += 1
                continue
            step_seconds = payload.pop("step_seconds", None)
            if payload != expected or step_seconds is None:
                result.failed += 1
                continue
            columns_served += len(payload["columns"])
            for step, used in payload["step_trace"].items():
                cascade[step] = cascade.get(step, 0) + used
        result.add_rate(columns_served, outcome["elapsed"], 1.0)
        result.cascade.append(cascade)
        result.correct, result.labeled = harness.accuracy_counts(
            self.tables, [[c["predicted_type"] for c in e["columns"]] for e in self.expected])
        result.extra = outcome["layers"]
        if recorder is not None:
            trace = recorder.collect()
            tracing.merge_into(trace, outcome["trace"])
            trace["wall"] = outcome["elapsed"]
            result.traces.append(trace)
        return result


WORKLOADS = {cls.name: cls for cls in (ColdBulk, WarmSharded, AdaptedFeedback, OnlineHttp)}
