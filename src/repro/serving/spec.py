"""Typed serving configuration: frozen spec dataclasses over the spec strings.

The serving layer grew up on **spec strings** — ``"multiprocess:8+shm"``,
``"pool:4"`` — because they travel well (CLI flags, env vars, benchmark
JSON).  They stay first-class.  What this module adds is the typed form
underneath: two frozen dataclasses that parse from and print back to
exactly those strings, so the two forms can never drift
(``str(BackendSpec.parse(s)) == s`` and ``str(PoolSpec.parse(s)) == s`` for
every canonical spec string — pinned by ``tests/test_pool.py``).

Grammar (canonical forms; every documented spec string in
docs/SERVING.md round-trips)::

    backend   := "serial" | "multiprocess" [ ":" workers ] [ "+" transport ]
    transport := "pickle" | "shm"
    pool      := "pool" [ ":" N ]

This module is the only parser of that grammar.
:func:`repro.serving.backends.resolve_backend` takes a :class:`BackendSpec`
or its string, and :class:`~repro.serving.pool.AnnotationPool` a
:class:`PoolSpec` or its string.  A transport is a validated name on
:attr:`BackendSpec.transport`, which
:func:`repro.serving.transport.resolve_transport` turns into an instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError

__all__ = [
    "BackendSpec",
    "PoolSpec",
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

    String form: ``pool:N`` (the heartbeat interval is kwargs-only and
    does not travel in spec strings).
    """

    workers: int = 2
    #: Seconds between liveness pings (also bounds dead-worker detection).
    heartbeat_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("pool workers must be at least 1")
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

