#!/usr/bin/env python3
"""Post-run leak scanner shared by the E13/E14/E15/E17 CI jobs.

One tool instead of four hand-rolled grep steps: scans benchmark run logs
for leak markers (fixed strings via ``--marker``, or one regex via
``--regex``) and ``/dev/shm`` for shared-memory segments the transports
must always unlink (``--shm-prefix``, default ``sigshard-``/``sigres-``).

Exit codes: 0 clean, 1 leak found, 2 usage error (a ``--log`` file does not
exist — in CI that means the step producing it silently changed, which must
fail loudly, not scan nothing and pass).  Findings are emitted both as
plain lines and as GitHub ``::error::`` annotations.

Examples (matching the CI jobs):

    python scripts/scan_leaks.py --log e13-run.log
    python scripts/scan_leaks.py --log e15-run.log \
        --marker "UNEXPECTED KERNEL FALLBACK"
    python scripts/scan_leaks.py --log e14-run.log --no-shm \
        --regex "LEAKED|Task was destroyed but it is pending|unclosed.*socket|ResourceWarning"
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: Fixed string the shard-transport benchmark prints when a segment survives.
DEFAULT_MARKERS = ["LEAKED SEGMENT"]

#: Segment-name prefixes the shm transport owns (transport.py).
DEFAULT_SHM_PREFIXES = ["sigshard-", "sigres-"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--log",
        action="append",
        default=[],
        metavar="FILE",
        help="run log to scan (repeatable); missing file = exit 2",
    )
    parser.add_argument(
        "--marker",
        action="append",
        default=None,
        metavar="STRING",
        help=f"fixed leak marker (repeatable; default: {DEFAULT_MARKERS})",
    )
    parser.add_argument(
        "--regex",
        metavar="PATTERN",
        help="regex leak pattern scanned in addition to the markers",
    )
    parser.add_argument(
        "--shm-prefix",
        action="append",
        default=None,
        metavar="PREFIX",
        help=f"segment-name prefix to scan for (default: {DEFAULT_SHM_PREFIXES})",
    )
    parser.add_argument(
        "--shm-dir",
        default="/dev/shm",
        metavar="DIR",
        help="shared-memory mount to scan (tests point this at a tmpdir)",
    )
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help="skip the shared-memory scan (jobs that never touch segments)",
    )
    return parser


def _error(message: str) -> None:
    print(f"::error::{message}")


def scan_log(path: Path, markers: list, regex) -> list:
    """Leak lines in *path*: ``(lineno, line)`` for each marker/regex hit."""
    hits = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8", errors="replace").splitlines(), 1
    ):
        if any(marker in line for marker in markers) or (regex and regex.search(line)):
            hits.append((lineno, line.strip()))
    return hits


def scan_shm(shm_dir: Path, prefixes: list) -> list:
    """Leaked segment names under *shm_dir* matching any owned prefix."""
    if not shm_dir.is_dir():
        return []
    return sorted(
        entry.name
        for entry in shm_dir.iterdir()
        if any(entry.name.startswith(prefix) for prefix in prefixes)
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    markers = DEFAULT_MARKERS if args.marker is None else args.marker
    prefixes = DEFAULT_SHM_PREFIXES if args.shm_prefix is None else args.shm_prefix
    regex = re.compile(args.regex) if args.regex else None

    leaks = 0
    for name in args.log:
        path = Path(name)
        if not path.is_file():
            _error(f"scan_leaks: log file missing: {name}")
            return 2
        for lineno, line in scan_log(path, markers, regex):
            _error(f"{name}:{lineno}: {line}")
            leaks += 1

    if not args.no_shm:
        for segment in scan_shm(Path(args.shm_dir), prefixes):
            _error(f"leaked shared-memory segment: {args.shm_dir}/{segment}")
            leaks += 1

    if leaks:
        print(f"{leaks} leak(s) found.")
        return 1
    scanned = ", ".join(args.log) if args.log else "no logs"
    shm = "shm skipped" if args.no_shm else f"shm clean ({args.shm_dir})"
    print(f"no leaks ({scanned}; {shm}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
