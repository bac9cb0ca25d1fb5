"""Shared AST helpers for the RL checkers."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything richer."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee."""
    return dotted_name(call.func)


def looks_like_lock(name: str | None) -> bool:
    """Heuristic: the receiver of ``.acquire()`` is a lock, not e.g. a
    token bucket — its dotted name mentions lock/mutex/sem."""
    if not name:
        return False
    last = name.rsplit(".", 1)[-1].lower()
    return any(token in last for token in ("lock", "mutex", "sem"))


def iter_functions(tree: ast.AST):
    """Every function/async function in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_in_function(func: ast.AST):
    """Walk a function body without descending into nested function defs
    (their bodies run on their own call, under their own rules)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def statement_block_of(module, node: ast.stmt):
    """(parent, field-list) containing statement *node*, or (None, None)."""
    parent = module.parent(node)
    while parent is not None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and node in block:
                return parent, block
        node = parent
        parent = module.parent(parent)
    return None, None


def enclosing_function(module, node: ast.AST):
    """Innermost function def lexically containing *node*, or None."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def release_targets(try_node: ast.Try, methods: tuple) -> set:
    """Dotted receivers of ``.X()`` calls (X in *methods*) in a try's
    finally and except blocks — where cleanup is guaranteed/attempted."""
    receivers = set()
    blocks = list(try_node.finalbody)
    for handler in try_node.handlers:
        blocks.extend(handler.body)
    for stmt in blocks:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in methods
            ):
                receiver = dotted_name(sub.func.value)
                if receiver:
                    receivers.add(receiver)
    return receivers
