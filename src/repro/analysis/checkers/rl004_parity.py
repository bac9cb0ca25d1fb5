"""RL004: parity hygiene — no nondeterminism sources in production code.

The parity contract (docs/ARCHITECTURE.md): every execution shape — serial,
multiprocess, pickle/shm transports, pool, kernel views or per-value — produces
bit-identical predictions.  That contract dies the moment an unseeded RNG,
a wall-clock value, a PYTHONHASHSEED-dependent ``hash()``, or a set
iteration order can reach a result or a codec byte layout.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import call_name, enclosing_function
from repro.analysis.core import Checker

#: Legacy global-RNG entry points are banned outright; seeded constructors
#: (`random.Random(seed)`, `np.random.default_rng(seed)`) are the idiom.
_NP_ALLOWED = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence", "PCG64", "MT19937"}
)

#: Wall-clock / entropy calls whose value must never reach results.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
    }
)

#: Order-insensitive consumers that neutralise set iteration order.
_ORDER_SAFE_CONSUMERS = frozenset({"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"})

#: Consumers that materialise iteration order into a sequence.
_ORDER_MATERIALISERS = frozenset({"list", "tuple", "enumerate", "iter"})


class ParityHygieneChecker(Checker):
    id = "RL004"
    name = "parity-hygiene"
    scopes = ("src",)
    fix_hint = (
        "thread a seeded random.Random / np.random.default_rng(seed) through; "
        "sort sets before iterating; derive ids from content (blake2b), never "
        "from hash()/id()/clocks"
    )
    explain = """\
RL004 parity-hygiene (src/ only)

Flags nondeterminism sources in production code:

  * global-RNG calls: `random.<fn>()` (module-level RNG) and legacy
    `np.random.<fn>()`; `np.random.default_rng()` with NO seed argument;
  * wall-clock/entropy values: time.time, datetime.now/utcnow, uuid.uuid1/4,
    os.urandom (time.monotonic is fine — it is a duration tool, flagged
    nowhere);
  * builtin hash() outside __hash__ (PYTHONHASHSEED-dependent) and id() in
    a return value (address-dependent);
  * iterating a set (set()/frozenset() calls, set literals/comprehensions,
    set-algebra expressions) in a for loop or comprehension, or
    materialising one via list()/tuple()/enumerate() — set order is
    hash-seed-dependent; `sorted(...)` first.  Order-insensitive consumers
    (sorted/len/sum/min/max/any/all) are fine.

Why: the parity contract says serial == multiprocess == +shm == pool,
bit-identical.  Per-column memos, codec byte layouts, and the E10-E17
parity gates all assume it.  Legitimate
process-local uses (e.g. os.urandom in a shm segment NAME that never
reaches results) carry a suppression naming that fact.
"""

    def check_module(self, module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if self._is_set_expr(iterable) and not self._order_safe(module, iterable):
                    yield self.finding(
                        module,
                        iterable,
                        "iterating a set: order is hash-seed-dependent — "
                        "sort (or otherwise canonicalise) first",
                    )

    def _check_call(self, module, node: ast.Call):
        name = call_name(node)
        if not name:
            return
        head, _, tail = name.rpartition(".")
        if head == "random" and tail != "Random":
            yield self.finding(
                module,
                node,
                f"{name}() uses the process-global RNG — thread a seeded "
                "random.Random through instead",
            )
        elif head in ("np.random", "numpy.random"):
            if tail not in _NP_ALLOWED:
                yield self.finding(
                    module,
                    node,
                    f"{name}() uses numpy's legacy global RNG — use "
                    "np.random.default_rng(seed)",
                )
            elif tail == "default_rng" and not node.args:
                yield self.finding(
                    module, node, "np.random.default_rng() without a seed"
                )
        elif name in _NONDETERMINISTIC_CALLS:
            yield self.finding(
                module,
                node,
                f"{name}() is nondeterministic — its value must never reach "
                "results or codec byte layouts",
            )
        elif name == "hash":
            func = enclosing_function(module, node)
            if func is None or func.name != "__hash__":
                yield self.finding(
                    module,
                    node,
                    "builtin hash() is PYTHONHASHSEED-dependent — use a "
                    "content digest (blake2b) instead",
                )
        elif name == "id":
            parent = module.parent(node)
            if isinstance(parent, ast.Return):
                yield self.finding(
                    module,
                    node,
                    "returning id(): address-dependent values must not leave "
                    "the process",
                )
        elif tail in _ORDER_MATERIALISERS and not head:
            if node.args and self._is_set_expr(node.args[0]):
                yield self.finding(
                    module,
                    node.args[0],
                    f"{name}(set(...)) materialises hash-seed-dependent order "
                    "— use sorted(...)",
                )

    # ------------------------------------------------------------- set exprs
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _order_safe(self, module, node: ast.AST) -> bool:
        parent = module.parent(node)
        while isinstance(parent, ast.BinOp):
            parent = module.parent(parent)
        if isinstance(parent, ast.Call):
            name = call_name(parent)
            if name and name.rsplit(".", 1)[-1] in _ORDER_SAFE_CONSUMERS:
                return True
        return False
