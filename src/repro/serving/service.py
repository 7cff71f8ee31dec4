"""Priced inference serving on a simulated cluster: placement and
per-batch pricing.

The replay itself — micro-batcher, LRU embedding cache, routing — is
:class:`~repro.serving.fleet.ServingFleet`, whose shared-queue pool
preset (one batcher and cache feeding every dense host) answers the
placement question alone.  This module holds what that replay prices
each batch with, and the report it returns: tail latency + sustained
throughput.  Two placement strategies are modeled (the DisaggRec
framing, arXiv:2212.00939):

- **colocated** — every host runs both embedding shards and dense
  scoring.  Each served batch's remote rows arrive via an AlltoAll over
  the *global* group: all ranks participate in every batch's exchange,
  so concurrent batches serialize on the shared fabric, and each batch
  pays the large-world launch latency even when the cache leaves only
  a few bytes to move.
- **disaggregated** — the first ``emb_hosts`` hosts form a dedicated
  embedding tier; the remaining hosts serve dense traffic.  A batch's
  cache misses are fetched with a scatter/gather priced as one
  cross-host point-to-point transfer, and the tier's hosts serve
  fetches in parallel — embedding capacity scales independently of
  dense capacity.

Both placements price the same two wire legs per miss row — the id
going up to the shard owner (``ID_WIRE_BYTES``) and the embedding row
coming back — so the comparison between them is purely topological,
not an accounting artifact.

The placement-derived cost terms live in :class:`PlacementEngine`.

Every batch appends to the cluster's :class:`~repro.sim.Timeline`
(``QUEUE`` = batching + queueing wait, ``EMBEDDING_COMM`` = priced
fetch, ``COMPUTE`` = dense forward + cached-row reads, with flops
recorded), so a served run has the same per-phase breakdown story as a
simulated training run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.comm.process_group import global_group
from repro.perf.profiles import ModelProfile
from repro.serving.workload import Request
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase

PLACEMENT_STRATEGIES = ("colocated", "disaggregated")

#: Wire bytes per embedding row id in the fetch request leg.
ID_WIRE_BYTES = 8


@dataclass(frozen=True)
class ServingModel:
    """What serving latency depends on: lookup geometry + dense flops."""

    name: str
    num_lookups: int  # embedding rows per request
    embedding_dim: int
    dense_mflops: float  # forward MFlops per request
    itemsize: int = 4
    num_towers: int = 0

    def __post_init__(self) -> None:
        if self.num_lookups < 1 or self.embedding_dim < 1:
            raise ValueError("lookup geometry must be positive")
        if self.dense_mflops <= 0:
            raise ValueError(
                f"dense_mflops must be positive, got {self.dense_mflops}"
            )

    @property
    def row_bytes(self) -> int:
        return self.embedding_dim * self.itemsize

    @classmethod
    def from_profile(cls, profile: ModelProfile) -> "ServingModel":
        """Serving geometry of a paper-scale training profile."""
        return cls(
            name=profile.name,
            num_lookups=profile.num_sparse * profile.pooling,
            embedding_dim=profile.embedding_dim,
            dense_mflops=profile.total_mflops,
            num_towers=profile.num_towers,
        )

    @classmethod
    def from_trained(cls, model: Any, partition: Any = None) -> "ServingModel":
        """Serving geometry of a trained in-repo model (DLRM/DCN/DMT).

        ``partition`` (a :class:`~repro.core.partition.FeaturePartition`)
        tags the tower count the model was trained under.
        """
        return cls(
            name=type(model).__name__,
            num_lookups=int(model.num_sparse),
            embedding_dim=int(model.embedding_dim),
            dense_mflops=float(model.flops_per_sample()) / 1e6,
            num_towers=partition.num_towers if partition is not None else 0,
        )


@dataclass(frozen=True)
class Placement:
    """Where embedding shards live relative to dense serving."""

    strategy: str = "colocated"
    emb_hosts: int = 1  # disaggregated only: hosts in the embedding tier

    def __post_init__(self) -> None:
        if self.strategy not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement {self.strategy!r}; expected one of "
                f"{PLACEMENT_STRATEGIES}"
            )
        if self.emb_hosts < 1:
            raise ValueError(f"emb_hosts must be >= 1, got {self.emb_hosts}")


class PlacementEngine:
    """Placement-derived cost terms for served batches on a cluster.

    Owns the topology bookkeeping (dense hosts vs embedding tier, the
    representative cross-tier rank pair, the global process group) and
    prices the three per-batch terms: the miss-row fetch, the dense
    forward, and the cached-row HBM reads.  Every replica and lane of
    :class:`~repro.serving.fleet.ServingFleet` prices through it.
    """

    def __init__(
        self, sim: SimCluster, model: ServingModel, placement: Placement
    ):
        cluster = sim.cluster
        if placement.strategy == "disaggregated":
            if placement.emb_hosts >= cluster.num_hosts:
                raise ValueError(
                    f"disaggregated placement needs at least one dense "
                    f"host: emb_hosts={placement.emb_hosts} on a "
                    f"{cluster.num_hosts}-host cluster"
                )
            self.num_dense_hosts = cluster.num_hosts - placement.emb_hosts
            self.num_fetch_servers = placement.emb_hosts
            # Representative cross-tier pair for point-to-point pricing.
            self._fetch_src = cluster.ranks_on_host(0)[0]
            self._fetch_dst = cluster.ranks_on_host(placement.emb_hosts)[0]
        else:
            self.num_dense_hosts = cluster.num_hosts
            self.num_fetch_servers = 1  # the shared global fabric
            self._fetch_src = self._fetch_dst = 0
        self.sim = sim
        self.model = model
        self.placement = placement
        self.world = global_group(cluster)

    def fetch_timing(self, num_miss_rows: int) -> Tuple[float, int, int]:
        """Price moving ``num_miss_rows`` embedding rows to a replica.

        Both placements move the same payload per miss row — the row id
        up to the shard owner plus the embedding row back down — so the
        two arms differ only in *how* the fabric carries it, never in
        how much is billed.

        Returns ``(seconds, priced_nbytes, world)`` where
        ``priced_nbytes`` is the per-rank payload handed to the cost
        model — the same number the timeline event records, per the
        byte-accounting convention in :mod:`repro.sim.cluster`.
        """
        nbytes = num_miss_rows * (self.model.row_bytes + ID_WIRE_BYTES)
        if self.placement.strategy == "colocated":
            # Rows are striped over every rank's shard: a global
            # AlltoAll whose per-rank payload is the striped share of
            # both legs.
            per_rank = max(1, math.ceil(nbytes / self.world.world_size))
            timing = self.sim.cost_model.alltoall(self.world, per_rank)
            return timing.seconds, per_rank, self.world.world_size
        # Disaggregated: ids up + rows down across the tier boundary,
        # one launch latency.  The replica's GPUs each pull their slice
        # of the batch over their own NIC, so the scatter/gather is
        # bounded by the slowest of those parallel cross-host streams.
        streams = self.sim.cluster.gpus_per_host
        per_stream = max(1, math.ceil(nbytes / streams))
        timing = self.sim.cost_model.point_to_point(
            self.world, self._fetch_src, self._fetch_dst, per_stream
        )
        return timing.seconds, per_stream, 2

    def dense_seconds(self, batch_size: int, host_share: float = 1.0) -> float:
        """Forward scoring on one lane owning ``host_share`` of a
        dense host's GPUs (all of them for the shared-queue pool)."""
        spec = self.sim.cluster.spec
        flops = self.model.dense_mflops * 1e6 * batch_size
        gpus = self.sim.cluster.gpus_per_host * host_share
        return flops / (spec.effective_flops * gpus)

    def hit_read_seconds(self, num_hit_rows: int) -> float:
        """Cached rows still cross HBM once (read + concat write)."""
        spec = self.sim.cluster.spec
        return 2.0 * num_hit_rows * self.model.row_bytes / spec.hbm_bytes_per_s

    def chain_extra_seconds(self, cache: Any) -> float:
        """Extra local seconds the last probe spent below the top tier.

        The base engine models a single-level cache: every hit is an
        HBM hit, so there is nothing below the top tier and the term is
        exactly 0.0 — which keeps the classic colocated/disaggregated
        paths bit-identical.  The tiered engine
        (:class:`~repro.serving.tiers.TieredPlacementEngine`) overrides
        this with the DRAM/SSD hop costs of the multi-level chain.
        """
        return 0.0

    def price_batch(
        self,
        batch: Any,
        start_s: float,
        fetch_free: np.ndarray,
        num_hits: int,
        num_misses: int,
        host_share: float = 1.0,
        label_suffix: str = "",
        extra_compute_s: float = 0.0,
        fetch_scale: float = 1.0,
    ) -> Tuple[float, float, float, float]:
        """Price one served batch and append its timeline events.

        This is the whole per-batch replay step of every fleet replica
        and lane — one implementation, so a pricing change can never
        drift between them.  ``start_s`` is when the owning lane picks
        the batch up; ``fetch_free`` (mutated) holds the shared fetch
        servers' busy-until times.  ``extra_compute_s`` is additional
        local time folded into the COMPUTE phase — the tiered cache
        chain's below-HBM hop costs (0.0 for the single-level cache, so
        the classic paths price bit-identically).  ``fetch_scale``
        stretches the fetch seconds — the fault layer's brownout
        multiplier (>= 1.0 slows the tier; 1.0 is an exact IEEE-754
        identity, so healthy paths price bit-identically).

        Returns ``(done_s, fetch_s, compute_s, queue_s)`` — the batch
        completion time and the per-phase seconds just recorded
        (``fetch_s`` is 0.0 on an all-hit batch, which also emits no
        EMBEDDING_COMM event).
        """
        timeline = self.sim.timeline
        if num_misses:
            server = int(np.argmin(fetch_free))
            fetch_start = max(start_s, float(fetch_free[server]))
            t_fetch, priced_nbytes, fetch_world = self.fetch_timing(
                num_misses
            )
            t_fetch = t_fetch * fetch_scale
            fetch_end = fetch_start + t_fetch
            fetch_free[server] = fetch_end
            timeline.add(
                Phase.EMBEDDING_COMM,
                f"fetch/{self.placement.strategy}{label_suffix}",
                t_fetch,
                nbytes=priced_nbytes,
                world_size=fetch_world,
            )
        else:
            t_fetch = 0.0
            fetch_start = fetch_end = start_s
        t_dense = self.dense_seconds(batch.size, host_share)
        t_hit = self.hit_read_seconds(num_hits) + extra_compute_s
        timeline.add(
            Phase.COMPUTE,
            f"dense forward{label_suffix}",
            t_dense + t_hit,
            flops=int(self.model.dense_mflops * 1e6 * batch.size),
        )
        t_queue = batch.batching_delay_s() + (fetch_start - batch.ready_s)
        timeline.add(Phase.QUEUE, "batching+queueing", t_queue)
        return fetch_end + t_dense + t_hit, t_fetch, t_dense + t_hit, t_queue


@dataclass
class ServingReport:
    """Outcome of one served trace."""

    placement: str
    model: str
    num_requests: int
    num_batches: int
    mean_batch_size: float
    offered_qps: Optional[float]  # None for a single-request trace
    throughput_rps: float
    makespan_s: float
    latency_ms: Dict[str, float]  # p50 / p95 / p99 / mean / max
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    breakdown_ms: Dict[str, float]  # timeline phase -> total ms

    @classmethod
    def empty(cls, placement: str, model: str) -> "ServingReport":
        """Explicit zero-traffic marker.

        A drained or just-crashed replica can finish a window having
        served nothing; percentiles and throughput are undefined there,
        and the old path crashed (``max()`` on an empty arrival list,
        division by ``num_batches == 0``).  The marker keeps the report
        shape (all-zero stats, ``offered_qps=None``) and is detectable
        via :attr:`is_empty` — callers must not read latency quantiles
        off an empty report as if they were measurements.
        """
        return cls(
            placement=placement,
            model=model,
            num_requests=0,
            num_batches=0,
            mean_batch_size=0.0,
            offered_qps=None,
            throughput_rps=0.0,
            makespan_s=0.0,
            latency_ms={
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "mean": 0.0,
                "max": 0.0,
            },
            cache_hits=0,
            cache_misses=0,
            cache_hit_rate=0.0,
            breakdown_ms={},
        )

    @property
    def is_empty(self) -> bool:
        """True for the zero-traffic marker (no requests served)."""
        return self.num_requests == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "placement": self.placement,
            "model": self.model,
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "offered_qps": self.offered_qps,
            "throughput_rps": self.throughput_rps,
            "makespan_s": self.makespan_s,
            "latency_ms": dict(self.latency_ms),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "breakdown_ms": dict(self.breakdown_ms),
        }

    def format_row(self) -> str:
        lat = self.latency_ms
        return (
            f"{self.placement:<14} p50={lat['p50']:8.3f}ms "
            f"p95={lat['p95']:8.3f}ms p99={lat['p99']:8.3f}ms "
            f"tput={self.throughput_rps:9.0f}/s "
            f"hit={self.cache_hit_rate * 100.0:5.1f}%"
        )


def build_report(
    placement: str,
    model: str,
    requests: Sequence[Request],
    num_batches: int,
    latencies_s: np.ndarray,
    last_done_s: float,
    hits: int,
    misses: int,
    breakdown_ms: Dict[str, float],
) -> ServingReport:
    """Assemble a :class:`ServingReport` from replay raw material.

    Shared by the fleet's per-replica and aggregate reports, so every
    report computes percentiles, throughput, and offered load the same
    way.  A zero-request trace (a replica drained
    before serving anything) yields the explicit
    :meth:`ServingReport.empty` marker instead of dividing by zero.
    """
    if len(requests) == 0 or num_batches == 0:
        return ServingReport.empty(placement, model)
    arrivals = [r.arrival_s for r in requests]
    span = max(arrivals) - min(arrivals)
    offered = (len(requests) - 1) / span if span > 0 else None
    makespan = last_done_s - min(arrivals)
    lat = np.asarray(latencies_s) * 1e3
    return ServingReport(
        placement=placement,
        model=model,
        num_requests=len(requests),
        num_batches=num_batches,
        mean_batch_size=len(requests) / num_batches,
        offered_qps=None if offered is None else float(offered),
        throughput_rps=float(len(requests) / makespan),
        makespan_s=float(makespan),
        latency_ms={
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "mean": float(lat.mean()),
            "max": float(lat.max()),
        },
        cache_hits=hits,
        cache_misses=misses,
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        breakdown_ms=breakdown_ms,
    )
