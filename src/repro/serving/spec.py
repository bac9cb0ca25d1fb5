"""Typed serving configuration: frozen spec dataclasses over the spec strings.

The serving layer grew up on **spec strings** — ``"multiprocess:8+shm"``,
``"pool:4"`` — because they travel well (CLI flags, env vars, benchmark
JSON).  They stay first-class.  What this module adds is the typed form
underneath: a small family of frozen dataclasses that parse from and print
back to exactly those strings, so programmatic callers stop growing keyword
sprawl and string-assembling code, and the two forms can never drift
(``str(ServingSpec.parse(s)) == s`` for every canonical spec string —
pinned by ``tests/test_pool.py``).

Grammar (canonical forms; every documented spec string in
docs/SERVING.md round-trips)::

    serving   := [ "pool:" N "@" ] backend | "pool:" N
    backend   := "serial" | "multiprocess" [ ":" workers ] [ "+" transport ]
    transport := "pickle" | "shm"

This module is the only parser of that grammar.  Every ``resolve_*`` entry
point and serving constructor accepts either form and parses strings here:
:func:`repro.serving.backends.resolve_backend` takes a
:class:`BackendSpec` (or :class:`ServingSpec`), and
:class:`~repro.serving.pool.AnnotationPool` a :class:`PoolSpec` /
:class:`ServingSpec`.  A transport is a validated name on
:attr:`BackendSpec.transport`, which
:func:`repro.serving.transport.resolve_transport` turns into an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError

__all__ = [
    "BackendSpec",
    "PoolSpec",
    "ServingSpec",
]

_BACKEND_NAMES = ("serial", "multiprocess")
_TRANSPORT_NAMES = ("pickle", "shm")


@dataclass(frozen=True)
class BackendSpec:
    """An execution backend: ``serial`` or ``multiprocess[:workers][+transport]``."""

    name: str = "serial"
    workers: int | None = None
    #: Shard transport name (``"pickle"`` or ``"shm"``); ``None`` is the
    #: pickle default, left out of the string form.
    transport: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {self.name!r}; "
                f"expected one of {list(_BACKEND_NAMES)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("backend workers must be at least 1")
        if self.transport is not None and self.transport not in _TRANSPORT_NAMES:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; expected one of {list(_TRANSPORT_NAMES)}"
            )
        if self.name == "serial" and (self.workers is not None or self.transport is not None):
            raise ConfigurationError(
                "the serial backend runs in the calling thread: it takes no "
                "worker count and no shard transport"
            )

    @classmethod
    def parse(cls, spec: str) -> "BackendSpec":
        base, _, transport_text = spec.partition("+")
        name, _, workers_text = base.partition(":")
        try:
            workers = int(workers_text) if workers_text else None
        except ValueError as exc:
            raise ConfigurationError(f"invalid worker count in backend spec {spec!r}") from exc
        return cls(name=name, workers=workers, transport=transport_text or None)

    def __str__(self) -> str:
        text = self.name
        if self.workers is not None:
            text += f":{self.workers}"
        if self.transport is not None:
            text += f"+{self.transport}"
        return text


@dataclass(frozen=True)
class PoolSpec:
    """A worker pool: N annotation processes behind one dispatcher.

    String form: ``pool:N`` (everything beyond the worker count is
    kwargs-only — the knobs below do not travel in spec strings).
    """

    workers: int = 2
    #: Queue depth above which the table's rendezvous worker is escaped for
    #: the least loaded one (the load-balance hatch).
    queue_depth_bound: int = 4
    #: Seconds between liveness pings (also bounds dead-worker detection).
    heartbeat_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("pool workers must be at least 1")
        if self.queue_depth_bound < 1:
            raise ConfigurationError("queue_depth_bound must be at least 1")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")

    @classmethod
    def parse(cls, spec: str) -> "PoolSpec":
        name, _, workers_text = spec.partition(":")
        if name != "pool":
            raise ConfigurationError(f"invalid pool spec {spec!r}; expected 'pool[:N]'")
        if not workers_text:
            return cls()
        try:
            return cls(workers=int(workers_text))
        except ValueError as exc:
            raise ConfigurationError(f"invalid worker count in pool spec {spec!r}") from exc

    def __str__(self) -> str:
        return f"pool:{self.workers}"


@dataclass(frozen=True)
class ServingSpec:
    """The composite: backend + optional pool section.

    :meth:`parse` accepts every backend spec string docs/SERVING.md
    documents, plus the pool forms (``pool:4``, ``pool:4@multiprocess:2+shm``),
    and ``str()`` reproduces the input exactly (pinned by
    ``tests/test_pool.py``).
    """

    backend: BackendSpec = field(default_factory=BackendSpec)
    pool: PoolSpec | None = None

    @classmethod
    def parse(cls, spec: str) -> "ServingSpec":
        text = spec.strip()
        if not text:
            raise ConfigurationError("empty serving spec")
        if text.startswith("pool"):
            pool_text, sep, backend_text = text.partition("@")
            pool = PoolSpec.parse(pool_text)
            if sep and not backend_text:
                raise ConfigurationError(f"dangling '@' in serving spec {spec!r}")
            backend = BackendSpec.parse(backend_text) if backend_text else BackendSpec()
            return cls(backend=backend, pool=pool)
        return cls(backend=BackendSpec.parse(text))

    def __str__(self) -> str:
        if self.pool is None:
            return str(self.backend)
        if self.backend == BackendSpec():
            return str(self.pool)
        return f"{self.pool}@{self.backend}"
