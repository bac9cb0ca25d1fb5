"""Fixture-driven tests for repro-lint (``repro.analysis``).

Every checker is pinned by at least one positive fixture (the rule fires on
the bug) and one negative fixture (the rule stays quiet on the fix) — the
linter is held to the same discipline as the code it checks.  On top of the
per-rule fixtures: suppression semantics (reason mandatory), the
content-fingerprint baseline, RL000 framework findings, the CLI surface,
and a live run proving the tree itself lints clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.checkers.rl001_async_blocking import AsyncBlockingChecker
from repro.analysis.checkers.rl002_lock_discipline import LockDisciplineChecker
from repro.analysis.checkers.rl003_resource_lifecycle import ResourceLifecycleChecker
from repro.analysis.checkers.rl004_parity import ParityHygieneChecker
from repro.analysis.checkers.rl005_stats_lock import StatsLockChecker
from repro.analysis.checkers.rl006_env_knobs import EnvKnobChecker
from repro.analysis.checkers.rl007_export_audit import ExportAuditChecker
from repro.analysis.cli import main as cli_main
from repro.analysis.knobs import embedded_table_problems, render_knob_table

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint(tmp_path, source, checker=None, scope="src", name="mod.py"):
    """Write *source* under ``<tmp>/<scope>/`` and lint that scope."""
    target = tmp_path / scope / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    checkers = [checker] if checker is not None else None
    return run_lint([scope], root=tmp_path, checkers=checkers)


def _messages(result):
    return [f"{f.check_id}: {f.message}" for f in result.findings]


# ------------------------------------------------------------------- RL001
def test_rl001_flags_blocking_calls_in_async(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import time, socket

        async def handler(lock):
            time.sleep(0.1)
            conn = socket.create_connection(("h", 1))
            fh = open("/tmp/x")
            lock.acquire()
            return conn, fh
        """,
        AsyncBlockingChecker(),
    )
    ids = [f.check_id for f in result.findings]
    assert ids == ["RL001"] * 4, _messages(result)


def test_rl001_quiet_on_async_idioms_and_sync_code(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import asyncio, time

        async def handler(lock):
            await asyncio.sleep(0.1)
            await lock.acquire()
            async with lock:
                pass

        def sync_worker():
            time.sleep(0.1)  # fine outside the event loop
        """,
        AsyncBlockingChecker(),
    )
    assert result.findings == []


# ------------------------------------------------------------------- RL002
def test_rl002_flags_bare_acquire_without_release(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import threading

        _lock = threading.Lock()

        def work():
            _lock.acquire()
            return 1
        """,
        LockDisciplineChecker(),
    )
    assert [f.check_id for f in result.findings] == ["RL002"]


def test_rl002_quiet_on_acquire_with_finally_release(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import threading

        _lock = threading.Lock()

        def work():
            _lock.acquire()
            try:
                return 1
            finally:
                _lock.release()

        def work_with(bucket):
            with _lock:
                pass
            bucket.acquire()  # not lock-ish: a token bucket, not a mutex
        """,
        LockDisciplineChecker(),
    )
    assert result.findings == []


# ------------------------------------------------------------------- RL003
def test_rl003_flags_unclosed_handles(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import json, socket
        from multiprocessing import shared_memory

        def leaky(path, uid):
            seg = shared_memory.SharedMemory(name=uid)
            first = seg.buf[0]
            data = json.load(open(path))
            return data, first
        """,
        ResourceLifecycleChecker(),
    )
    ids = [f.check_id for f in result.findings]
    assert ids == ["RL003", "RL003"], _messages(result)
    assert any("seg" in f.message for f in result.findings)
    assert any("never bound" in f.message for f in result.findings)


def test_rl003_quiet_on_guaranteed_or_transferred_ownership(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import socket
        from contextlib import closing
        from multiprocessing import shared_memory

        def with_block(path):
            with open(path) as fh:
                return fh.read()

        def try_finally(uid):
            seg = shared_memory.SharedMemory(name=uid)
            try:
                return bytes(seg.buf)
            finally:
                seg.close()

        def transfers(registry):
            sock = socket.socket()
            registry.append(sock)

        def returned():
            return socket.create_connection(("h", 1))

        def adapted():
            with closing(socket.socket()) as sock:
                return sock.fileno()

        class Holder:
            def __init__(self):
                self._sock = socket.socket()
        """,
        ResourceLifecycleChecker(),
    )
    assert result.findings == [], _messages(result)


# ------------------------------------------------------------------- RL004
def test_rl004_flags_nondeterminism_on_result_paths(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import random, time, uuid

        def score(columns, a, b):
            jitter = random.random()
            stamp = time.time()
            key = uuid.uuid4()
            bucket = hash(columns[0])
            merged = [c for c in set(a) | set(b)]
            return jitter, stamp, key, bucket, merged
        """,
        ParityHygieneChecker(),
    )
    ids = [f.check_id for f in result.findings]
    assert ids == ["RL004"] * 5, _messages(result)


def test_rl004_quiet_on_seeded_and_ordered_idioms(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import random
        import time

        import numpy as np

        def score(a, b, seed):
            rng = random.Random(seed)
            gen = np.random.default_rng(seed)
            elapsed = time.monotonic()
            merged = [c for c in sorted(set(a) | set(b))]
            width = len(set(a))
            return rng.random(), gen.random(), elapsed, merged, width

        class Key:
            def __hash__(self):
                return hash(("key", 1))
        """,
        ParityHygieneChecker(),
    )
    assert result.findings == [], _messages(result)


def test_rl004_does_not_apply_to_tests_scope(tmp_path):
    result = _lint(
        tmp_path,
        "import time\n\ndef probe():\n    return time.time()\n",
        ParityHygieneChecker(),
        scope="tests",
    )
    assert result.findings == []


# ------------------------------------------------------------------- RL005
def test_rl005_flags_counter_mutation_outside_lock(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record(self):
                self.hits += 1
        """,
        StatsLockChecker(),
    )
    assert [f.check_id for f in result.findings] == ["RL005"]
    assert "self.hits" in result.findings[0].message


def test_rl005_quiet_under_with_lock_or_lock_decorator(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import threading

        def _holding_lock(method):
            def wrapper(self, *a, **k):
                with self._lock:
                    return method(self, *a, **k)
            return wrapper

        class Store:
            def __init__(self):
                self._lock = threading.RLock()
                self.hits = 0
                self.misses = 0

            def record(self):
                with self._lock:
                    self.hits += 1

            @_holding_lock
            def helper(self):
                self.misses += 1

            def _after_fork_in_child(self):
                self.hits += 0  # single-threaded by construction
        """,
        StatsLockChecker(),
    )
    assert result.findings == [], _messages(result)


def test_rl005_sees_lock_inherited_from_same_module_base(tmp_path):
    result = _lint(
        tmp_path,
        """\
        import threading

        class Base:
            def __init__(self):
                self._lock = threading.RLock()
                self.hits = 0

        class Derived(Base):
            def bump(self):
                self.hits += 1
        """,
        StatsLockChecker(),
    )
    assert [f.check_id for f in result.findings] == ["RL005"]
    assert "Derived" in result.findings[0].message


# ------------------------------------------------------------------- RL006
_ALL_KNOB_READS = """\
import os

def configured():
    kernels = os.environ.get("REPRO_COLUMNAR_KERNELS")
    again = os.getenv("REPRO_COLUMNAR_KERNELS")
    return kernels, again

def field(name):
    return os.environ.get(f"REPRO_COLUMNAR_{name.upper()}")
"""


def test_rl006_flags_unregistered_and_too_dynamic_reads(tmp_path):
    result = _lint(
        tmp_path,
        _ALL_KNOB_READS
        + """\

def rogue(suffix):
    a = os.environ.get("REPRO_SECRET_TUNING")
    b = os.environ[f"REPRO_{suffix}"]
    return a, b
""",
        EnvKnobChecker(),
    )
    messages = _messages(result)
    assert len(result.findings) == 2, messages
    assert any("REPRO_SECRET_TUNING" in m for m in messages)
    assert any("too broad" in m for m in messages)


def test_rl006_quiet_when_every_read_is_registered(tmp_path):
    result = _lint(tmp_path, _ALL_KNOB_READS, EnvKnobChecker())
    assert result.findings == [], _messages(result)


def test_rl006_reports_stale_registry_entries(tmp_path):
    """A registered knob nothing reads is flagged against the registry."""
    result = _lint(tmp_path, "import os\n", EnvKnobChecker())
    assert result.findings, "expected stale-registry findings"
    assert all(f.path == "src/repro/analysis/knobs.py" for f in result.findings)
    assert any("REPRO_COLUMNAR_KERNELS" in f.message for f in result.findings)


# ------------------------------------------------------------------- RL007
_SERVING_SUBMODULE = """\
__all__ = ["Widget", "WIRE_CONSTANT", "frame_helper"]

WIRE_CONSTANT = 7


class Widget:
    pass


def frame_helper():
    return WIRE_CONSTANT
"""


def _lint_serving_tree(tmp_path, root_all):
    """A minimal serving package: one submodule class, a configurable root."""
    package = tmp_path / "src" / "repro" / "serving"
    package.mkdir(parents=True)
    package.joinpath("widget.py").write_text(_SERVING_SUBMODULE, encoding="utf-8")
    package.joinpath("__init__.py").write_text(
        f"__all__ = {root_all!r}\n", encoding="utf-8"
    )
    return run_lint(["src"], root=tmp_path, checkers=[ExportAuditChecker()])


def test_rl007_flags_class_missing_from_package_root(tmp_path):
    result = _lint_serving_tree(tmp_path, root_all=["SomethingElse"])
    messages = _messages(result)
    assert len(result.findings) == 1, messages
    assert "Widget" in messages[0]
    # Constants and functions are protocol surface, not audited API classes.
    assert "WIRE_CONSTANT" not in messages[0] and "frame_helper" not in messages[0]
    assert result.findings[0].path == "src/repro/serving/widget.py"


def test_rl007_quiet_when_root_reexports_every_class(tmp_path):
    result = _lint_serving_tree(tmp_path, root_all=["Widget"])
    assert result.findings == [], _messages(result)


def test_rl007_quiet_outside_the_serving_package(tmp_path):
    result = _lint(tmp_path, _SERVING_SUBMODULE, ExportAuditChecker())
    assert result.findings == [], _messages(result)


# ------------------------------------------------- suppressions & baseline
_VIOLATION = "import random\n\ndef roll():\n    return random.random()\n"


def test_suppression_with_reason_silences_the_finding(tmp_path):
    source = _VIOLATION.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=RL004 fixture noise only",
    )
    result = _lint(tmp_path, source, ParityHygieneChecker())
    assert result.findings == []
    assert result.suppressed_count == 1


def test_standalone_suppression_covers_the_next_line(tmp_path):
    source = _VIOLATION.replace(
        "    return random.random()",
        "    # repro-lint: disable=RL004 fixture noise only\n    return random.random()",
    )
    result = _lint(tmp_path, source, ParityHygieneChecker())
    assert result.findings == []
    assert result.suppressed_count == 1


def test_suppression_without_reason_is_rl000_and_does_not_suppress(tmp_path):
    source = _VIOLATION.replace(
        "return random.random()",
        "return random.random()  # repro-lint: disable=RL004",
    )
    result = _lint(tmp_path, source, ParityHygieneChecker())
    ids = sorted(f.check_id for f in result.findings)
    assert ids == ["RL000", "RL004"], _messages(result)


def test_syntax_error_is_an_rl000_finding_not_a_crash(tmp_path):
    result = _lint(tmp_path, "def broken(:\n", ParityHygieneChecker())
    assert [f.check_id for f in result.findings] == ["RL000"]
    assert "syntax error" in result.findings[0].message


def test_baseline_grandfathers_old_findings_only(tmp_path):
    first = _lint(tmp_path, _VIOLATION, ParityHygieneChecker())
    assert len(first.findings) == 1
    fingerprints = frozenset(f.fingerprint for f in first.findings)

    # Same tree + baseline: the old finding no longer fails the gate.
    second = run_lint(
        ["src"],
        root=tmp_path,
        checkers=[ParityHygieneChecker()],
        baseline_fingerprints=fingerprints,
    )
    assert second.findings == [] and len(second.baselined) == 1
    assert second.exit_code == 0

    # A NEW violation fails even with the baseline in place.
    (tmp_path / "src" / "mod.py").write_text(
        _VIOLATION + "\ndef roll_again():\n    return random.random()\n",
        encoding="utf-8",
    )
    third = run_lint(
        ["src"],
        root=tmp_path,
        checkers=[ParityHygieneChecker()],
        baseline_fingerprints=fingerprints,
    )
    assert len(third.findings) == 1 and len(third.baselined) == 1
    assert third.exit_code == 1


def test_fingerprints_survive_line_renumbering(tmp_path):
    first = _lint(tmp_path, _VIOLATION, ParityHygieneChecker())
    # Push the violation down 3 lines; the fingerprint must not move.
    shifted = "# header\n# comment\n# block\n" + _VIOLATION
    second = _lint(tmp_path, shifted, ParityHygieneChecker())
    assert [f.fingerprint for f in first.findings] == [
        f.fingerprint for f in second.findings
    ]
    assert first.findings[0].line != second.findings[0].line


# ------------------------------------------------------------------ the CLI
def test_cli_explain_and_knobs(capsys):
    assert cli_main(["--explain", "rl003"]) == 0
    out = capsys.readouterr().out
    assert "RL003" in out and "docs/ARCHITECTURE.md#static-analysis" in out

    assert cli_main(["--explain", "RL999"]) == 2
    capsys.readouterr()

    assert cli_main(["--knobs"]) == 0
    out = capsys.readouterr().out
    assert embedded_table_problems(out) == []


def test_cli_list_checkers_names_all_seven(capsys):
    assert cli_main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for check_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
        assert check_id in out


def test_cli_json_report_and_exit_codes(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text(_VIOLATION, encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = cli_main(
        ["--root", str(tmp_path), "--json", str(report_path), "--no-baseline", "src"]
    )
    capsys.readouterr()
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"]["new_findings"] >= 1
    rl004 = [f for f in report["findings"] if f["check_id"] == "RL004"]
    assert rl004 and rl004[0]["path"] == "src/bad.py"
    assert rl004[0]["fingerprint"]


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text(_VIOLATION, encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    argv = ["--root", str(tmp_path), "--baseline", str(baseline), "src"]
    assert cli_main(["--write-baseline", *argv]) == 0
    capsys.readouterr()
    assert cli_main(argv) == 0  # grandfathered now
    assert "baselined" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert cli_main(["--root", str(tmp_path), "no-such-dir"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ the live tree
def test_live_tree_lints_clean():
    """The gate CI enforces: the repo's own code passes all six checkers
    (with its committed baseline, which may only ever shrink)."""
    code = cli_main(
        ["--root", str(REPO_ROOT), "src", "tests", "benchmarks", "--json", "-"]
    )
    assert code == 0


def test_committed_baseline_is_small():
    """ISSUE bar: the tree is fixed, not grandfathered — baseline <= 5."""
    baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert len(data["findings"]) <= 5


def test_serving_docs_embed_current_knob_table():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
    assert embedded_table_problems(text) == []
    assert render_knob_table() in text
