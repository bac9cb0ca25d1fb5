"""RL002: lock acquire/release discipline.

An explicit ``.acquire()`` must have its ``.release()`` guaranteed by a
``try/finally`` (or be a ``with`` block, which never calls ``.acquire()``
in source): a lock left held on an error path wedges every later caller.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import (
    dotted_name,
    looks_like_lock,
    release_targets,
    statement_block_of,
)
from repro.analysis.core import Checker


class LockDisciplineChecker(Checker):
    id = "RL002"
    name = "lock-discipline"
    fix_hint = (
        "prefer `with lock:`; if acquire must be explicit, pair it with a "
        "try/finally releasing the same lock"
    )
    explain = """\
RL002 lock-discipline

Explicit `.acquire()` on a lock-like receiver must have its `.release()`
guaranteed: either the acquire sits inside a `try` whose `finally` (or
handlers) release the SAME receiver, or a later sibling statement in the
same block is such a `try`.  (`with lock:` is always the preferred form and
never triggers the rule.)  A lock left held on an error path wedges every
later caller; held across fork(), it wedges the child too.

Cross-function ownership transfers (one function acquiring a lock another
releases) are legitimate but unprovable statically: suppress those sites
with the reason naming the releasing function.
"""

    def check_module(self, module):
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                continue
            receiver = dotted_name(node.func.value)
            if not looks_like_lock(receiver):
                continue
            if self._release_guaranteed(module, node, receiver):
                continue
            yield self.finding(
                module,
                node,
                f"{receiver}.acquire() without a try/finally releasing it "
                "on every path — prefer `with {0}:`".format(receiver),
            )

    def _release_guaranteed(self, module, call, receiver: str) -> bool:
        # The acquire's own statement (innermost ast.stmt ancestor).
        statement = None
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, ast.stmt):
                statement = ancestor
                break
        if statement is None:
            return False
        # Inside a try whose finally/except releases the receiver.
        probe = statement
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, ast.Try) and probe not in ancestor.finalbody:
                if receiver in release_targets(ancestor, ("release",)):
                    return True
            if isinstance(ancestor, ast.stmt):
                probe = ancestor
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        # Or immediately followed (same block) by such a try.
        _, block = statement_block_of(module, statement)
        if block is not None:
            index = block.index(statement)
            for sibling in block[index + 1 :]:
                if isinstance(sibling, ast.Try) and receiver in release_targets(
                    sibling, ("release",)
                ):
                    return True
        return False
