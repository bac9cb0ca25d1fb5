"""Serving layer: execution backends, shard transports, async facade, pool.

This package turns the batch-first inference stack into something that can
serve production traffic:

* :mod:`repro.serving.backends` — an :class:`ExecutionBackend` abstraction
  (``serial``, or forked ``multiprocess`` workers) that shards a corpus by
  table and fans bulk annotation (or pretraining featurization) out across
  workers, with results guaranteed identical to the serial path;
* :mod:`repro.serving.transport` — the multiprocess backend's shard
  :class:`Transport` seam: shards and their predictions cross as pickle
  bytes, over the worker pool's pipe (the ``pickle`` default) or through
  shared-memory segments (``"multiprocess:4+shm"``) with an airtight
  segment lifecycle;
* :mod:`repro.serving.service` — an :class:`AnnotationService` wrapping a
  :class:`~repro.core.sigmatyper.SigmaTyper` with an asyncio request queue,
  per-customer routing, work-conserving micro-batching (it coalesces only
  what already queued, up to a size cap), per-request deadlines, and
  graceful (optionally bounded) shutdown;
* :mod:`repro.serving.slo` — an :class:`SloController` that treats the
  cascade confidence threshold c as a control variable, stepping it down
  when the observed tail latency breaches its budget (shallower, faster
  cascade — the E10 trade-off) and recovering it as load drains, with every
  transition journaled;
* :mod:`repro.serving.frontend` — :class:`AnnotationFrontend`, the
  SLO-aware network edge: a dependency-free asyncio HTTP server with
  per-tenant token-bucket admission control, bounded pending queues, load
  shedding with explicit retry-after, deadline propagation, and graceful
  SIGTERM drain;
* :mod:`repro.serving.pool` — :class:`AnnotationPool`, the multi-process
  deployment shape: N forked worker services behind a stateless dispatcher
  that sends each request to the least-loaded live worker, with heartbeat
  supervision and in-place restart + re-dispatch on a worker death, over
  crc-checked SGN1 frames on inherited socketpairs — drivable by the front
  end via ``pool=``;
* :mod:`repro.serving.spec` — the typed configuration layer
  (:class:`BackendSpec` and :class:`PoolSpec`), round-tripping every
  documented spec string;
* :mod:`repro.serving.stats` — the unified stats vocabulary:
  :func:`shared_sections` gives every ``summary()`` in the layer the same
  process-wide sections.

The parity contract below has one explicit, opt-in exception: an attached
:class:`SloController` *degrades* predictions (shallower cascade) while an
overload lasts, and journals every window in which it did.

The package-wide contract is **parity**: every backend, transport, and
pool returns predictions bit-identical to the plain serial path
(see ``docs/ARCHITECTURE.md``).
"""

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ShutdownError,
)
from repro.serving.backends import (
    ExecutionBackend,
    MultiprocessBackend,
    SerialBackend,
    available_workers,
    resolve_backend,
    shard_items,
)
from repro.serving.frontend import (
    AnnotationFrontend,
    FrontendConfig,
    FrontendStats,
    TokenBucket,
)
from repro.serving.pool import AnnotationPool, PoolStats
from repro.serving.spec import BackendSpec, PoolSpec
from repro.serving.stats import shared_sections
from repro.serving.service import AnnotationService, ServiceStats
from repro.serving.slo import SloConfig, SloController
from repro.serving.transport import (
    PickleTransport,
    ShmTransport,
    Transport,
    TransportStats,
    resolve_transport,
    reset_transport_stats,
    transport_stats,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "available_workers",
    "resolve_backend",
    "shard_items",
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "resolve_transport",
    "transport_stats",
    "reset_transport_stats",
    "AnnotationService",
    "ServiceStats",
    "SloConfig",
    "SloController",
    "AnnotationFrontend",
    "FrontendConfig",
    "FrontendStats",
    "TokenBucket",
    "TransportStats",
    "AnnotationPool",
    "PoolStats",
    "BackendSpec",
    "PoolSpec",
    "shared_sections",
    "ServingError",
    "ConfigurationError",
    "OverloadedError",
    "DeadlineExceededError",
    "ShutdownError",
]
