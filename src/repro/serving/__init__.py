"""Priced inference serving: request streams -> batches -> tail latency.

The training side of this repository models *throughput* (seconds per
iteration); serving cares about *tail latency under load*.  This
package closes that gap with a discrete-event inference simulator built
on the same cost-model machinery:

- :mod:`repro.serving.workload` — Poisson request streams with
  hot-key skew, plus diurnal / flash-crowd / hot-set-churn scenarios;
- :mod:`repro.serving.batcher` — dynamic micro-batching
  (flush-on-full / flush-on-deadline), resumable across pieces of a
  trace;
- :mod:`repro.serving.cache` — LRU embedding cache with hit-rate
  accounting (vectorized fast path + reference implementation);
- :mod:`repro.serving.service` — the :class:`PlacementEngine` that
  prices each served batch through
  :class:`~repro.comm.cost_model.CollectiveCostModel` on a
  :class:`~repro.sim.SimCluster` for colocated vs disaggregated
  embedding placement, and the :class:`ServingReport` of p50/p95/p99
  latency, sustained throughput, and per-phase timeline breakdowns;
- :mod:`repro.serving.fleet` — the :class:`ServingFleet`, the one
  replay engine: N replicas, each with its own batcher and cache,
  fed by a pluggable router (round-robin / consistent-hash /
  power-of-two-choices on recent load, counter-hashed draws) on the
  same priced cluster.  It walks control events (faults, swaps,
  windows, membership) one at a time and replays the event-free
  stretches between them vectorized; a healthy fleet is the same
  engine with no fault events, and the shared-queue pool
  (``shared_queue=True``: one replica whose batcher and cache feed
  every dense host) is its one-replica, all-dense-hosts preset;
- :mod:`repro.serving.tiers` — the tiered storage hierarchy: a
  multi-level :class:`CacheChain` (HBM/DRAM/SSD) over an HBM or
  remote-parameter-server backing, priced per
  :class:`~repro.hardware.MemoryTierSpec`, with the classic single-tier
  path as the bit-identical degenerate preset;
- :mod:`repro.serving.faults` — seeded fault injection (replica
  crash/hang, fetch-tier degradation/outage), client-side
  timeout/retry/backoff, crash recovery priced by an MTTR model, hot
  swaps, and the :class:`FaultReport` every fleet replay returns;
- :mod:`repro.serving.autoscale` — the closed-loop SLO autoscaler
  watching windowed p99/queue depth and scaling the fleet between
  bounds with priced warm-start prefill.
"""

from repro.serving.autoscale import AutoscalePolicy, SLOAutoscaler
from repro.serving.batcher import MicroBatch, MicroBatcher, OpenBatch
from repro.serving.cache import (
    CacheStats,
    LRUEmbeddingCache,
    ReferenceLRUCache,
)
from repro.serving.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultEvent,
    FaultReport,
    RecoveryModel,
    RetryPolicy,
    SwapEvent,
)
from repro.serving.fleet import (
    ConsistentHashRouter,
    FleetReport,
    PowerOfTwoChoicesRouter,
    ROUTER_POLICIES,
    RoundRobinRouter,
    Router,
    ServingFleet,
    make_router,
)
from repro.serving.service import (
    ID_WIRE_BYTES,
    PLACEMENT_STRATEGIES,
    Placement,
    PlacementEngine,
    ServingModel,
    ServingReport,
    build_report,
)
from repro.serving.tiers import (
    CacheChain,
    DEFAULT_AMORTIZATION_S,
    ServingTier,
    TieredPlacementEngine,
    TieredStorage,
    build_storage,
    dollars_per_1k_requests,
    make_tiered_fleet,
    storage_dollars,
)
from repro.serving.workload import (
    Request,
    RequestStream,
    SCENARIOS,
    WorkloadConfig,
)

__all__ = [
    "Request",
    "RequestStream",
    "WorkloadConfig",
    "SCENARIOS",
    "MicroBatch",
    "MicroBatcher",
    "OpenBatch",
    "CacheStats",
    "LRUEmbeddingCache",
    "ReferenceLRUCache",
    "ServingModel",
    "Placement",
    "PlacementEngine",
    "ServingReport",
    "build_report",
    "ServingFleet",
    "FleetReport",
    "Router",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "PowerOfTwoChoicesRouter",
    "make_router",
    "ROUTER_POLICIES",
    "PLACEMENT_STRATEGIES",
    "ID_WIRE_BYTES",
    "CacheChain",
    "ServingTier",
    "TieredStorage",
    "TieredPlacementEngine",
    "build_storage",
    "make_tiered_fleet",
    "storage_dollars",
    "dollars_per_1k_requests",
    "DEFAULT_AMORTIZATION_S",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultConfig",
    "RetryPolicy",
    "RecoveryModel",
    "FaultReport",
    "SwapEvent",
    "AutoscalePolicy",
    "SLOAutoscaler",
]
