"""RL003: resource lifecycle — close/unlink guaranteed on all paths.

The invariant the E13 ``/dev/shm`` scans and "LEAKED SEGMENT" log greps
probe at *runtime*: every ``SharedMemory`` segment, ``mmap``, socket, and
file handle must be released on every path — context manager, ``finally``,
or an explicit ownership transfer to an object whose lifecycle releases it.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import (
    call_name,
    iter_functions,
    walk_in_function,
)
from repro.analysis.core import Checker

#: Constructors returning a handle that must be closed.
_RESOURCE_CONSTRUCTORS = frozenset(
    {
        "shared_memory.SharedMemory",
        "multiprocessing.shared_memory.SharedMemory",
        "SharedMemory",
        "mmap.mmap",
        "socket.socket",
        "socket.create_connection",
        "open",
    }
)

#: Methods whose presence in a finally/except counts as guaranteed cleanup.
_CLEANUP_METHODS = ("close", "unlink", "release", "shutdown", "stop", "terminate")

#: Callees that adopt a handle passed as an argument: context-manager
#: adapters, cleanup registries, and container inserts (ownership moves to
#: the container, whose owner closes it).
_ADOPTING_CALLEES = frozenset(
    {
        "closing",
        "enter_context",
        "register",
        "callback",
        "push",
        "addCleanup",
        "add",
        "update",
        "append",
        "appendleft",
        "put",
        "put_nowait",
        "insert",
        "setdefault",
    }
)


class ResourceLifecycleChecker(Checker):
    id = "RL003"
    name = "resource-lifecycle"
    fix_hint = (
        "wrap the handle in `with ...:`, close it in a try/finally, or hand "
        "ownership to an object/closure that guarantees the close"
    )
    explain = """\
RL003 resource-lifecycle

Flags SharedMemory / mmap.mmap / socket.socket / socket.create_connection /
open() handles that are not guaranteed to be released, i.e. none of:

  * created as a `with` context (or later used as one);
  * a close/unlink/release/shutdown/stop on the bound name inside ANY
    try/finally or except handler of the same function;
  * ownership transfer: returned, yielded, stored on an attribute or into a
    container, captured by a nested function (cleanup closures), or passed
    to an adopting callee (contextlib.closing, ExitStack.enter_context,
    atexit.register, addCleanup);
  * a bare constructor expression (e.g. `json.load(open(p))`) is always a
    leak: nobody holds the handle.

Why: the transport layer's segments outlive exceptions ONLY because every
path releases them — the transport lifecycle tests and the E13 CI scan check
this dynamically, per run; RL003 checks every path, per commit.
"""

    def check_module(self, module):
        for func in iter_functions(module.tree):
            yield from self._check_function(module, func)

    def _check_function(self, module, func):
        # Names with cleanup guaranteed by a try in this function.
        guaranteed = set()
        for node in walk_in_function(func):
            if isinstance(node, ast.Try):
                blocks = list(node.finalbody)
                for handler in node.handlers:
                    blocks.extend(handler.body)
                for stmt in blocks:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _CLEANUP_METHODS
                            and isinstance(sub.func.value, ast.Name)
                        ):
                            guaranteed.add(sub.func.value.id)

        escaped = self._escaped_names(func)

        for node in walk_in_function(func):
            if not (isinstance(node, ast.Call) and call_name(node) in _RESOURCE_CONSTRUCTORS):
                continue
            parent = module.parent(node)
            if isinstance(parent, ast.withitem):
                continue
            if isinstance(parent, (ast.Return, ast.Yield, ast.Await)):
                continue
            if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                target = parent.targets[0]
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue  # ownership moved to an object/container
                if isinstance(target, ast.Name):
                    name = target.id
                    if name in guaranteed or name in escaped:
                        continue
                    yield self.finding(
                        module,
                        node,
                        f"{call_name(node)}() bound to `{name}` has no guaranteed "
                        "close (no with/finally, never leaves this function)",
                    )
                    continue
            if isinstance(parent, ast.Call) and self._adopting(parent):
                continue
            yield self.finding(
                module,
                node,
                f"{call_name(node)}() result is never bound — the handle "
                "cannot be closed on any path",
            )

    @staticmethod
    def _adopting(call: ast.Call) -> bool:
        name = call_name(call)
        return bool(name) and name.rsplit(".", 1)[-1] in _ADOPTING_CALLEES

    @staticmethod
    def _escaped_names(func) -> set:
        escaped = set()
        for node in walk_in_function(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and node.value:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
            elif isinstance(node, ast.Assign):
                if any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets):
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name and name.rsplit(".", 1)[-1] in _ADOPTING_CALLEES:
                    for arg in node.args:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Name):
                                escaped.add(sub.id)
            elif isinstance(node, ast.With):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
        return escaped
