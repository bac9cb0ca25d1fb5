"""Shared fixtures for the benchmark/experiment harness.

Each benchmark module reproduces one experiment from DESIGN.md (E1–E11):
it computes the experiment's result rows during setup, times a representative
operation with pytest-benchmark, prints the rows and asserts its gates.

The committed artifacts (``benchmarks/results/*.txt`` and the ``BENCH_*.json``
files at the repository root) are rewritten only when ``REPRO_RECORD_ARTIFACTS``
is ``1``, so an ordinary test run leaves the checkout as it found it.  One
command re-records them all and regenerates ``docs/BENCHMARKS.md``::

    REPRO_RECORD_ARTIFACTS=1 PYTHONPATH=src python -m pytest -q benchmarks/ \
        && python scripts/bench_summary.py

The pretrained system and corpora are session-scoped: they are built once and
shared by all experiments, exactly like the single pretrained global model the
paper deploys across customers.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import pytest

from repro import SigmaTyper, SigmaTyperConfig
from repro.adaptation import GlobalModelConfig
from repro.corpus import GitTablesConfig, GitTablesGenerator, build_ood_corpus
from repro.nn import MLPConfig

RESULTS_DIR = Path(__file__).parent / "results"
#: Set to ``1`` to rewrite the committed artifacts (see the module docstring).
RECORD_ENV = "REPRO_RECORD_ARTIFACTS"

#: Sizes chosen so the full benchmark suite runs in a few minutes on a laptop
#: while still training the learned model on a few hundred columns.
PRETRAIN_TABLES = 90
BACKGROUND_TABLES = 20
TEST_TABLES = 25
MLP_EPOCHS = 30


def _write_artifact(path: Path, text: str) -> None:
    """Rewrite one committed artifact, only when recording is switched on."""
    if os.environ.get(RECORD_ENV) != "1":
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture(scope="session")
def record_result():
    """Print an experiment's rows; record them in benchmarks/results/<name>.txt."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        _write_artifact(RESULTS_DIR / f"{name}.txt", text + "\n")

    return _record


@pytest.fixture(scope="session")
def record_json():
    """Record an experiment's machine-readable artifact at *path*."""

    def _record(path: Path, payload: dict) -> None:
        _write_artifact(path, json.dumps(payload, indent=2) + "\n")

    return _record


@pytest.fixture(scope="session")
def train_corpus():
    """The GitTables-like pretraining corpus shared by every experiment."""
    return GitTablesGenerator(
        GitTablesConfig(num_tables=PRETRAIN_TABLES, seed=2024)
    ).generate_corpus()


@pytest.fixture(scope="session")
def background_corpus():
    """OOD background tables used for the unknown class."""
    return build_ood_corpus(num_tables=BACKGROUND_TABLES, seed=2025)


@pytest.fixture(scope="session")
def test_corpus():
    """Held-out GitTables-like evaluation corpus (different seed)."""
    return GitTablesGenerator(GitTablesConfig(num_tables=TEST_TABLES, seed=7777)).generate_corpus()


@pytest.fixture(scope="session")
def _pretrained(train_corpus, background_corpus) -> tuple[SigmaTyper, bytes]:
    """The pretrained typer, and its pickle taken before anything annotates with it."""
    config = SigmaTyperConfig(
        global_model=GlobalModelConfig(
            mlp=MLPConfig(max_epochs=MLP_EPOCHS, hidden_sizes=(128, 64), seed=3),
            seed=2024,
        )
    )
    typer = SigmaTyper.pretrained(
        training_corpus=train_corpus,
        background_corpus=background_corpus,
        config=config,
    )
    return typer, pickle.dumps(typer)


@pytest.fixture(scope="session")
def sigmatyper(_pretrained) -> SigmaTyper:
    """The pretrained SigmaTyper system (header matching + lookup + learned model)."""
    return _pretrained[0]


@pytest.fixture(scope="session")
def sigmatyper_snapshot(_pretrained) -> bytes:
    """The session typer as pretraining left it: its caches hold nothing that
    an experiment computed, whichever experiments ran first."""
    return _pretrained[1]
