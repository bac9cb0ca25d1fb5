"""repro-lint: AST-based project-invariant checks, enforced in CI.

The serving stack's core invariants — bit-identical parity, airtight
segment/socket lifecycle, fork-safe locking — were historically enforced
only *dynamically* (chaos suites, ``/dev/shm`` scans, log greps).  This
package enforces the same invariants *statically*: a dependency-free
framework over the stdlib :mod:`ast` module running a registry of pluggable
checkers, each grounded in a bug class that actually shipped here (the PR 4
flusher-lock fork deadlock, the PR 8 transport-stats double count, the
E13 segment-leak greps).

Usage (CI runs exactly this, as a hard gate)::

    PYTHONPATH=src python -m repro.analysis src tests benchmarks

See ``python -m repro.analysis --explain RL001`` for per-checker docs and
``docs/ARCHITECTURE.md`` ("Static analysis") for the catalogue, the
suppression policy (``# repro-lint: disable=RL00x <reason>``) and the
baseline policy (grandfathered findings live in ``.repro-lint-baseline.json``;
*new* findings always fail).
"""

from repro.analysis.core import Checker, Finding, Severity, all_checkers
from repro.analysis.engine import LintResult, run_lint

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "Severity",
    "all_checkers",
    "run_lint",
]
