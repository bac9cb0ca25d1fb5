"""The checked-in registry of every ``REPRO_*`` environment knob.

This is the single source of truth three consumers share:

* **RL006** (env-knob-registry) statically finds every ``os.environ`` read
  of a ``REPRO_*`` name under ``src/`` and fails when the name is not
  registered here — and, inversely, when a registered knob is read nowhere.
* ``python scripts/repro_lint.py --knobs`` renders this registry as the
  markdown table embedded in ``docs/SERVING.md`` between the
  ``knob-table:begin``/``end`` markers.
* ``scripts/check_doc_links.py`` (the CI docs job) re-renders the table and
  fails when the embedded copy drifted — a removed or stale row is a CI
  failure, not silent doc rot.

Adding a knob is therefore one code read + one registry entry + rerunning
``--knobs`` into the doc, and CI holds the three in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Markers delimiting the generated table inside docs/SERVING.md.
TABLE_BEGIN = "<!-- knob-table:begin -->"
TABLE_END = "<!-- knob-table:end -->"


@dataclass(frozen=True)
class Knob:
    name: str  # the environment variable, e.g. "REPRO_COLUMNAR_KERNELS"
    default: str  # rendered default ("unset" when there is none)
    knob_type: str  # operator-facing type, e.g. "float, seconds"
    defined_in: str  # repo-relative module that reads it
    description: str  # one-line operator meaning


KNOWN_KNOBS = (
    Knob(
        name="REPRO_COLUMNAR_KERNELS",
        default="1",
        knob_type="bool (0/false/no/off disable)",
        defined_in="src/repro/core/colblock.py",
        description="Kill switch for the block-native columnar kernels; "
        "disabled processes fall back to per-value profiling.",
    ),
)


def knob_names() -> frozenset:
    return frozenset(knob.name for knob in KNOWN_KNOBS)


def render_knob_table() -> str:
    """The markdown table (no markers) docs/SERVING.md embeds verbatim."""
    lines = [
        "| Knob | Default | Type | Defined in | Meaning |",
        "| --- | --- | --- | --- | --- |",
    ]
    for knob in sorted(KNOWN_KNOBS, key=lambda k: k.name):
        lines.append(
            f"| `{knob.name}` | `{knob.default}` | {knob.knob_type} "
            f"| `{knob.defined_in}` | {knob.description} |"
        )
    return "\n".join(lines)


def embedded_table_problems(markdown_text: str) -> list:
    """Why *markdown_text*'s embedded knob table does not match the registry.

    Returns human-readable problem strings (empty = in sync).  Used by
    ``scripts/check_doc_links.py`` on ``docs/SERVING.md`` and directly by the
    test suite on doctored copies.
    """
    problems = []
    if TABLE_BEGIN not in markdown_text or TABLE_END not in markdown_text:
        return [
            f"knob-table markers missing ({TABLE_BEGIN} / {TABLE_END}) — "
            "regenerate with: python scripts/repro_lint.py --knobs"
        ]
    embedded = markdown_text.split(TABLE_BEGIN, 1)[1].split(TABLE_END, 1)[0].strip()
    expected = render_knob_table()
    if embedded == expected:
        return problems
    embedded_rows = {
        line.split("|")[1].strip() for line in embedded.splitlines() if line.startswith("| `")
    }
    expected_rows = {
        line.split("|")[1].strip() for line in expected.splitlines() if line.startswith("| `")
    }
    for missing in sorted(expected_rows - embedded_rows):
        problems.append(f"knob table: registered knob {missing} has no row")
    for unknown in sorted(embedded_rows - expected_rows):
        problems.append(f"knob table: row {unknown} is not in the registry")
    if not problems:
        problems.append("knob table: rows present but content drifted")
    problems.append("regenerate with: python scripts/repro_lint.py --knobs")
    return problems
