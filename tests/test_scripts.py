"""The CI helper scripts are gates — so they get tests like everything else.

Covers ``scripts/check_doc_links.py`` (links, anchors, and the embedded
knob table), ``scripts/bench_summary.py`` (rendering and the ``--check``
staleness gate), and ``scripts/scan_leaks.py`` (log markers, the shm scan,
and the missing-log usage error).  Each script keeps its repo paths in
module-level constants precisely so these tests can point it at a tmp tree.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import knobs
from repro.analysis.knobs import TABLE_BEGIN, TABLE_END, Knob, render_knob_table

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name: str):
    """Import ``scripts/<name>.py`` as a throwaway module instance."""
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- doc links
_TEST_KNOB = Knob(
    name="REPRO_TEST_KNOB",
    default="1",
    knob_type="bool",
    defined_in="src/mod.py",
    description="Registered only by the knob-table tests.",
)


@pytest.fixture()
def doc_repo(tmp_path, monkeypatch):
    """A tiny doc tree + the check_doc_links module pointed at it."""
    mod = _load_script("check_doc_links")
    (tmp_path / "docs").mkdir()
    (tmp_path / "GUIDE.md").write_text(
        "# Guide\n\n## Setup steps\n\ntext\n", encoding="utf-8"
    )
    monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(mod, "DOC_FILES", ["README.md"])
    monkeypatch.setattr(mod, "KNOB_TABLE_FILES", [])
    # The program registers no knob; the knob-table tests need one row.
    monkeypatch.setattr(knobs, "KNOWN_KNOBS", (_TEST_KNOB,))
    return mod, tmp_path


def test_doc_links_happy_path(doc_repo, capsys):
    mod, root = doc_repo
    (root / "README.md").write_text(
        "# Top\n\n## Usage notes\n\n"
        "[guide](GUIDE.md) and [setup](GUIDE.md#setup-steps) "
        "and [here](#usage-notes) and [ext](https://example.com/x#y)\n",
        encoding="utf-8",
    )
    assert mod.main() == 0
    assert "resolve" in capsys.readouterr().out


def test_doc_links_broken_anchor_and_file(doc_repo, capsys):
    mod, root = doc_repo
    (root / "README.md").write_text(
        "[bad anchor](GUIDE.md#no-such-heading)\n[bad file](MISSING.md)\n",
        encoding="utf-8",
    )
    assert mod.main() == 1
    out = capsys.readouterr().out
    assert "broken anchor -> GUIDE.md#no-such-heading" in out
    assert "broken link -> MISSING.md" in out


def test_doc_links_ignores_fenced_examples(doc_repo):
    mod, root = doc_repo
    (root / "README.md").write_text(
        "ok\n\n```\n[example](NOT_A_REAL_FILE.md)\n```\n", encoding="utf-8"
    )
    assert mod.main() == 0


def test_doc_links_knob_table_current(doc_repo):
    mod, root = doc_repo
    (root / "README.md").write_text("no links\n", encoding="utf-8")
    serving = root / "docs" / "SERVING.md"
    serving.write_text(
        f"# Ops\n\n{TABLE_BEGIN}\n{render_knob_table()}\n{TABLE_END}\n",
        encoding="utf-8",
    )
    mod.KNOB_TABLE_FILES = ["docs/SERVING.md"]
    assert mod.main() == 0


def test_doc_links_knob_table_drift_fails(doc_repo, capsys):
    """A hand-edited default in the embedded table fails the docs gate."""
    mod, root = doc_repo
    (root / "README.md").write_text("no links\n", encoding="utf-8")
    doctored = render_knob_table().replace("`1`", "`0`", 1)
    assert doctored != render_knob_table()
    serving = root / "docs" / "SERVING.md"
    serving.write_text(
        f"# Ops\n\n{TABLE_BEGIN}\n{doctored}\n{TABLE_END}\n", encoding="utf-8"
    )
    mod.KNOB_TABLE_FILES = ["docs/SERVING.md"]
    assert mod.main() == 1
    out = capsys.readouterr().out
    assert "knob table" in out


def test_doc_links_knob_table_removed_row_fails(doc_repo, capsys):
    """Acceptance bar: deleting one REPRO_* row from the table fails the gate."""
    mod, root = doc_repo
    (root / "README.md").write_text("no links\n", encoding="utf-8")
    rows = render_knob_table().splitlines()
    removed = [line for line in rows if "REPRO_TEST_KNOB" not in line]
    assert len(removed) == len(rows) - 1
    (root / "docs" / "SERVING.md").write_text(
        f"# Ops\n\n{TABLE_BEGIN}\n" + "\n".join(removed) + f"\n{TABLE_END}\n",
        encoding="utf-8",
    )
    mod.KNOB_TABLE_FILES = ["docs/SERVING.md"]
    assert mod.main() == 1
    out = capsys.readouterr().out
    assert "REPRO_TEST_KNOB" in out


def test_doc_links_knob_table_missing_markers_fails(doc_repo, capsys):
    mod, root = doc_repo
    (root / "README.md").write_text("no links\n", encoding="utf-8")
    (root / "docs" / "SERVING.md").write_text("# Ops\n\nno table\n", encoding="utf-8")
    mod.KNOB_TABLE_FILES = ["docs/SERVING.md"]
    assert mod.main() == 1
    assert "markers missing" in capsys.readouterr().out


# ------------------------------------------------------------- bench summary
@pytest.fixture()
def bench_repo(tmp_path, monkeypatch):
    """A tmp repo root with one known artifact + the bench_summary module."""
    mod = _load_script("bench_summary")
    (tmp_path / "docs").mkdir()
    artifact = {
        "experiment": "E17_pool_routing",
        "num_tables": 40,
        "requests_per_worker": {
            "repeat, one at a time": [96, 0],
            "repeat, all in flight": [48, 48],
        },
        "balance_tolerance": 0.1,
        "kill_drill": {"redispatches": 7, "lost_requests": 0},
    }
    (tmp_path / "BENCH_pool_routing.json").write_text(
        json.dumps(artifact), encoding="utf-8"
    )
    monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(mod, "OUTPUT_PATH", tmp_path / "docs" / "BENCHMARKS.md")
    return mod, tmp_path


def test_bench_summary_writes_table(bench_repo, capsys):
    mod, root = bench_repo
    assert mod.main([]) == 0
    text = (root / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    introduced = mod.EXPERIMENTS["E17_pool_routing"][0]
    assert f"| `E17_pool_routing` | {introduced} |" in text
    assert (
        "per-worker requests: repeat, one at a time [96, 0]; repeat, all in flight "
        "[48, 48] (gates: one at a time all on slot 0, all in flight within 10% of "
        "the burst)"
    ) in text
    assert "40 tables" in text


def test_bench_summary_check_passes_when_current(bench_repo):
    mod, _ = bench_repo
    assert mod.main([]) == 0
    assert mod.main(["--check"]) == 0


def test_bench_summary_check_fails_when_stale(bench_repo, capsys):
    """An artifact changing after the doc was written trips ``--check``."""
    mod, root = bench_repo
    assert mod.main([]) == 0
    artifact = json.loads(
        (root / "BENCH_pool_routing.json").read_text(encoding="utf-8")
    )
    artifact["requests_per_worker"]["repeat, all in flight"] = [49, 47]
    (root / "BENCH_pool_routing.json").write_text(
        json.dumps(artifact), encoding="utf-8"
    )
    assert mod.main(["--check"]) == 1
    assert "stale" in capsys.readouterr().err


def test_bench_summary_unknown_experiment_still_renders(bench_repo):
    """Future artifacts surface their scalar gates without code changes."""
    mod, root = bench_repo
    (root / "BENCH_future_thing.json").write_text(
        json.dumps({"experiment": "E99_future_thing", "speedup": 3.5, "ok": True}),
        encoding="utf-8",
    )
    assert mod.main([]) == 0
    text = (root / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    assert "| `E99_future_thing` | — | (new experiment) |" in text
    assert "speedup=3.5" in text


# ---------------------------------------------------------------- leak scan
@pytest.fixture()
def scan_mod():
    return _load_script("scan_leaks")


def test_scan_leaks_clean_log(scan_mod, tmp_path, capsys):
    log = tmp_path / "run.log"
    log.write_text("all 12 tests passed\n", encoding="utf-8")
    assert scan_mod.main(["--log", str(log), "--no-shm"]) == 0
    assert "no leaks" in capsys.readouterr().out


def test_scan_leaks_marker_hit(scan_mod, tmp_path, capsys):
    log = tmp_path / "run.log"
    log.write_text("ok\nLEAKED SEGMENT sigshard-12-ab\n", encoding="utf-8")
    assert scan_mod.main(["--log", str(log), "--no-shm"]) == 1
    out = capsys.readouterr().out
    assert "::error::" in out and "LEAKED SEGMENT" in out


def test_scan_leaks_regex_hit(scan_mod, tmp_path):
    log = tmp_path / "run.log"
    log.write_text("Task was destroyed but it is pending!\n", encoding="utf-8")
    argv = ["--log", str(log), "--no-shm", "--regex", "Task was destroyed"]
    assert scan_mod.main(argv) == 1


def test_scan_leaks_shm_scan(scan_mod, tmp_path, capsys):
    shm = tmp_path / "shm"
    shm.mkdir()
    (shm / "sigres-7-beef").touch()
    (shm / "unrelated").touch()
    assert scan_mod.main(["--shm-dir", str(shm)]) == 1
    out = capsys.readouterr().out
    assert "sigres-7-beef" in out and "unrelated" not in out


def test_scan_leaks_missing_log_is_usage_error(scan_mod, tmp_path):
    """A vanished log must fail loudly (exit 2), not scan nothing and pass."""
    assert scan_mod.main(["--log", str(tmp_path / "gone.log"), "--no-shm"]) == 2


def test_scan_leaks_custom_markers_replace_defaults(scan_mod, tmp_path):
    log = tmp_path / "run.log"
    log.write_text("UNEXPECTED KERNEL FALLBACK non-ascii\n", encoding="utf-8")
    argv = ["--log", str(log), "--no-shm", "--marker", "UNEXPECTED KERNEL FALLBACK"]
    assert scan_mod.main(argv) == 1
    # ...and with only the default markers this line is not a leak.
    assert scan_mod.main(["--log", str(log), "--no-shm"]) == 0
