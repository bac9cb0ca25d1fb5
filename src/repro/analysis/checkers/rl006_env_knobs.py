"""RL006: every ``REPRO_*`` env knob read in src/ is registered.

The registry (:mod:`repro.analysis.knobs`) is what the docs tables are
generated from and validated against; an unregistered read is a knob
operators can set but never discover — exactly the silent doc drift the
env-knob satellite ends.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import call_name, dotted_name
from repro.analysis.core import Checker
from repro.analysis.knobs import knob_names

_PREFIX = "REPRO_"


def _literal_head(node: ast.AST) -> tuple | None:
    """(text, is_exact) for a string literal or an f-string's leading
    literal run; None when the expression cannot start with a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, len(node.values) == 1
    return None


class _RegistryLocation:
    """Stand-in module context pointing whole-project findings at the
    registry module, where the fix goes."""

    rel_path = "src/repro/analysis/knobs.py"
    lines: tuple = ()


class _RegistryNode:
    lineno = 1
    col_offset = 0


class EnvKnobChecker(Checker):
    id = "RL006"
    name = "env-knob-registry"
    scopes = ("src",)
    fix_hint = (
        "register the knob in src/repro/analysis/knobs.py and refresh the doc "
        "table: python scripts/repro_lint.py --knobs"
    )
    explain = """\
RL006 env-knob-registry (src/ only)

Every environment read of a `REPRO_*` name — os.environ.get/[...],
os.getenv, or any `.get()` on an environ-like mapping — must resolve to a
knob registered in src/repro/analysis/knobs.py:

  * literal names must be registered exactly;
  * dynamic names (f-strings like f"REPRO_COLUMNAR_{name}") must carry a
    literal prefix longer than "REPRO_" matching at least one registered
    knob;
  * inversely, a registered knob that no src/ code reads is a stale registry
    entry (reported once, against the registry module).

Why: the registry is the single source the docs/SERVING.md knob table is
generated from (scripts/repro_lint.py --knobs) and validated against in the
CI docs job — RL006 is the code-side half of that loop, so a knob cannot
ship readable-but-undocumented, or documented-but-dead.
"""

    def __init__(self) -> None:
        self._read_names: set = set()
        self._read_prefixes: set = set()

    def check_module(self, module):
        registered = knob_names()
        for node in ast.walk(module.tree):
            arg = self._env_read_arg(node)
            if arg is None:
                continue
            head = _literal_head(arg)
            if head is None:
                continue
            text, exact = head
            if not text.startswith(_PREFIX):
                continue
            if exact:
                self._read_names.add(text)
                if text not in registered:
                    yield self.finding(
                        module,
                        node,
                        f"env knob {text} is read here but not registered in "
                        "repro.analysis.knobs",
                    )
            else:
                self._read_prefixes.add(text)
                if text == _PREFIX or not any(
                    name.startswith(text) for name in registered
                ):
                    yield self.finding(
                        module,
                        node,
                        f"dynamic env knob read with prefix {text!r} matches no "
                        "registered knob (and bare REPRO_ is too broad to check)",
                    )

    def finish(self, project):
        registered = knob_names()
        covered = set(self._read_names)
        for prefix in self._read_prefixes:
            covered.update(name for name in registered if name.startswith(prefix))
        for name in sorted(registered - covered):
            yield self.finding(
                _RegistryLocation(),
                _RegistryNode(),
                f"registered knob {name} is read nowhere under src/ — stale "
                "registry entry",
            )

    @staticmethod
    def _env_read_arg(node: ast.AST):
        """The name-expression of an environ read, else None."""
        if isinstance(node, ast.Call):
            name = call_name(node) or ""
            if name == "os.getenv" or name.endswith(("environ.get", "env.get")):
                return node.args[0] if node.args else None
        if isinstance(node, ast.Subscript):
            if dotted_name(node.value) == "os.environ" and isinstance(
                node.slice, ast.expr
            ):
                return node.slice
        return None
