"""Serving layer: execution backends, shared profile store, async facade.

This package turns the batch-first inference stack into something that can
serve production traffic:

* :mod:`repro.serving.backends` — an :class:`ExecutionBackend` abstraction
  (``serial``, ``threaded``, ``multiprocess``) that shards a corpus by table
  and fans bulk annotation (or pretraining featurization) out across workers,
  with results guaranteed identical to the serial path;
* :mod:`repro.serving.transport` — the multiprocess backend's shard
  :class:`Transport` seam: the ``pickle`` baseline, or zero-copy
  shared-memory column blocks (``"multiprocess:4+shm"``) that ship tables
  out and fixed-width prediction records back without serializing either,
  with transparent pickle fallback and airtight segment lifecycle;
* :mod:`repro.serving.net` — the multi-node arm of the same seam:
  :class:`NetTransport` ships the identical block byte layouts over
  length-prefixed crc-framed TCP (``"multiprocess:4+tcp://host:port"``)
  with per-connection deadlines, bounded reconnect backoff, and per-shard
  local fallback on any network failure; :class:`BlockWorkerServer` is the
  remote peer, running the columnar kernels over received buffers;
* :mod:`repro.serving.profile_store` — a bounded, content-hash-keyed LRU
  :class:`ProfileStore` that lifts the per-``Column`` memoized derived state
  (profiles, value views, feature vectors) off short-lived table objects so a
  long-running service reuses warm entries (fork-safe by construction:
  :func:`install_fork_handlers`);
* :mod:`repro.serving.service` — an :class:`AnnotationService` wrapping a
  :class:`~repro.core.sigmatyper.SigmaTyper` with an asyncio request queue,
  per-customer routing, micro-batching (fixed, or adaptive via
  :class:`AdaptiveBatchingConfig`), per-request deadlines, and graceful
  (optionally bounded) shutdown;
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
  deployment shape: N forked worker services, each with its own in-memory
  store, behind a stateless dispatcher (rendezvous hashing on each table's
  smallest column content hash, with a load-balance escape hatch), with
  heartbeat supervision and in-place restart + re-dispatch on a worker
  death — drivable by the front end via ``pool=``;
* :mod:`repro.serving.spec` — the typed configuration layer
  (:class:`ServingSpec` and its :class:`BackendSpec` / :class:`TransportSpec`
  / :class:`StoreSpec` / :class:`PoolSpec` / :class:`FrontendSpec` parts),
  round-tripping every documented spec string;
* :mod:`repro.serving.stats` — the unified stats vocabulary:
  :func:`render_stats` composes every ``summary()`` in the layer from the
  same canonical sections.

The parity contract below has one explicit, opt-in exception: an attached
:class:`SloController` *degrades* predictions (shallower cascade) while an
overload lasts, and journals every window in which it did.

The package-wide contract is **parity**: every backend, cache tier, and
batching mode returns predictions bit-identical to the plain serial path
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
    ThreadedBackend,
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
from repro.serving.profile_store import ProfileStore, install_fork_handlers
from repro.serving.spec import (
    BackendSpec,
    FrontendSpec,
    PoolSpec,
    ServingSpec,
    StoreSpec,
    TransportSpec,
)
from repro.serving.stats import render_stats, shared_sections
from repro.serving.net import (
    BlockWorkerServer,
    FrameError,
    NetConfig,
    NetError,
    NetTimeoutError,
    NetTransport,
    PeerUnavailableError,
)
from repro.serving.service import AdaptiveBatchingConfig, AnnotationService, ServiceStats
from repro.serving.slo import SloConfig, SloController
from repro.serving.transport import (
    ColumnBlock,
    ColumnBlockCodec,
    PickleTransport,
    PredictionBlockCodec,
    ShmTransport,
    Transport,
    TransportStats,
    UnsupportedPayloadError,
    resolve_transport,
    reset_transport_stats,
    transport_stats,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "MultiprocessBackend",
    "available_workers",
    "resolve_backend",
    "shard_items",
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "ColumnBlockCodec",
    "PredictionBlockCodec",
    "resolve_transport",
    "transport_stats",
    "reset_transport_stats",
    "NetTransport",
    "BlockWorkerServer",
    "NetConfig",
    "NetError",
    "FrameError",
    "PeerUnavailableError",
    "NetTimeoutError",
    "ProfileStore",
    "install_fork_handlers",
    "AdaptiveBatchingConfig",
    "AnnotationService",
    "ServiceStats",
    "SloConfig",
    "SloController",
    "AnnotationFrontend",
    "FrontendConfig",
    "FrontendStats",
    "TokenBucket",
    "TransportStats",
    "ColumnBlock",
    "UnsupportedPayloadError",
    "AnnotationPool",
    "PoolStats",
    "ServingSpec",
    "BackendSpec",
    "TransportSpec",
    "StoreSpec",
    "PoolSpec",
    "FrontendSpec",
    "render_stats",
    "shared_sections",
    "ServingError",
    "ConfigurationError",
    "OverloadedError",
    "DeadlineExceededError",
    "ShutdownError",
]
