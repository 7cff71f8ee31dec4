"""Multi-replica serving: the one replay engine.

A serving tier is a **fleet**: N replicas, each owning its own
micro-batcher and LRU embedding cache, fed by a front-end router
(DisaggRec's provisioning setting, arXiv:2212.00939).  The placement
question alone is answered by the fleet's **shared-queue pool**
preset (``shared_queue=True``): one replica whose single batcher and
cache feed one *lane* per dense host, each batch starting on the
earliest-free lane.  The router policy decides everything the cache
story depends on — which replica's cache learns which keys, and how
evenly bursts spread:

- **round_robin** — perfect spread, zero affinity: every replica's
  cache must learn the whole hot set;
- **hash** — consistent hashing on the request's primary key
  (``keys[0]``), so traffic for the same entity lands on the same
  replica and the fleet's caches partition the hot set between them;
- **p2c** — power-of-two-choices on recent load (requests the router
  sent each replica within the last batching window): near-optimal
  burst spreading with only two probes per request.

:class:`ServingFleet` is the only replay engine.  It walks the
*control* events of a replay one at a time — faults, planned swaps,
observation windows, membership changes, replicas coming online, hangs
ending — and replays every event-free stretch between two of them
vectorized: all arrivals of the stretch (originals plus due retries)
go through one :meth:`Router.route_trace` call at fixed membership,
each replica's share is batched by the resumable
:meth:`~repro.serving.batcher.MicroBatcher.form_batches` (the batch
still open at the boundary carries over), and the closed batches are
priced in ready order through the shared
:class:`~repro.serving.service.PlacementEngine` on one
:class:`~repro.sim.SimCluster`.  A healthy fleet is the same engine
with no fault events; faults, retries, recovery, autoscaling and hot
swaps (:mod:`repro.serving.faults`, :mod:`repro.serving.autoscale`)
are constructor arguments, not separate code paths.

Tie order, fixed so a replay is bit-reproducible: a stretch takes the
arrivals with ``t < T`` where ``T`` is the next control event; open
batches whose deadline is ``<= T`` close before the event at ``T``;
closed batches are priced by ``(ready_s, deadline flush before full
flush, replica)``.  A retry fires at ``now + timeout + backoff``, so a
stretch is routed in pieces no longer than the client timeout and
every retry lands in a later piece — routing is independent of where
a trace is split, so the pieces route exactly as the whole would.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.autoscale import SLOAutoscaler
from repro.serving.batcher import MicroBatch, MicroBatcher, OpenBatch
from repro.serving.cache import LRUEmbeddingCache, _LRUCacheBase
from repro.serving.faults import (
    FaultConfig,
    FaultEvent,
    FaultReport,
    RecoveryModel,
    RetryPolicy,
    SwapEvent,
)
from repro.serving.service import (
    Placement,
    PlacementEngine,
    ServingModel,
    ServingReport,
    build_report,
)
from repro.serving.workload import Request, _splitmix64
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase

#: Router policies the fleet understands.
ROUTER_POLICIES = ("round_robin", "hash", "p2c")


class Router:
    """Assigns every request of a trace to a replica.

    Routers carry a **live-membership mask** so dead or drained
    replicas are never routed to: :meth:`set_live` flips membership
    (the consistent-hash ring rebuilds over the surviving vnodes, the
    other policies filter to live replicas).  Stateful policies reset
    in :meth:`bind` and carry their state across calls, so at fixed
    membership routing a trace in one :meth:`route_trace` call or split
    across several gives the same assignment — the fleet engine routes
    each event-free stretch of a replay in one call and relies on it.
    """

    name = "base"

    def bind(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        self.num_replicas = num_replicas
        self._live = np.ones(num_replicas, dtype=bool)
        self._reset()

    def _reset(self) -> None:  # pragma: no cover - default no-op
        pass

    @property
    def live_replicas(self) -> np.ndarray:
        """Indices of replicas currently accepting traffic (sorted)."""
        return np.flatnonzero(self._live)

    def set_live(self, live: Sequence[bool]) -> None:
        """Update the live-membership mask (length ``num_replicas``).

        No-op when the mask is unchanged; otherwise the policy's
        membership hook runs (ring rebuild for consistent hashing).
        At least one replica must stay live — a router with nowhere to
        send traffic is a caller bug.
        """
        mask = np.asarray(live, dtype=bool)
        if mask.shape != (self.num_replicas,):
            raise ValueError(
                f"live mask must have length {self.num_replicas}, got "
                f"shape {mask.shape}"
            )
        if not mask.any():
            raise ValueError("at least one replica must stay live")
        if np.array_equal(mask, self._live):
            return
        self._live = mask.copy()
        self._on_membership()

    def _on_membership(self) -> None:  # pragma: no cover - default no-op
        pass

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        """Replica index per request (requests are in arrival order);
        ``window_s`` is the batching window load-aware policies count
        recent traffic over."""
        raise NotImplementedError

    def route_one(self, req: Request, window_s: float = 0.0) -> int:
        """Route a single request: a one-request :meth:`route_trace`."""
        return int(self.route_trace([req], window_s)[0])


class RoundRobinRouter(Router):
    """Cycle through replicas in request order (live replicas only)."""

    name = "round_robin"
    # Bound on this class too: perfbench's tracer test reads the
    # attribute off ``RoundRobinRouter.__dict__``.
    route_one = Router.route_one

    def _reset(self) -> None:
        self._cursor = 0

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        live = self.live_replicas
        positions = (self._cursor + np.arange(len(requests))) % len(live)
        self._cursor = int(
            (self._cursor + len(requests)) % len(live)
        )
        return live[positions]


class ConsistentHashRouter(Router):
    """Consistent hashing on the request's primary key (``keys[0]``).

    Each replica owns ``vnodes`` points on a hash ring; a request walks
    clockwise from the hash of its primary key to the next point.  The
    same entity always lands on the same replica (cache affinity), and
    changing the fleet size moves only ~1/N of the key space.
    """

    name = "hash"

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes

    def _reset(self) -> None:
        replicas = np.repeat(
            np.arange(self.num_replicas, dtype=np.int64), self.vnodes
        )
        salts = np.tile(
            np.arange(self.vnodes, dtype=np.int64), self.num_replicas
        )
        points = _splitmix64(
            replicas.astype(np.uint64) * np.uint64(0x51_7C_C1_B7_27_22_0A_95)
            + salts.astype(np.uint64)
        )
        order = np.argsort(points, kind="stable")
        # Full ring over every replica; the live ring below filters it.
        self._all_points = points[order]
        self._all_replicas = replicas[order]
        self._rebuild_ring()

    def _on_membership(self) -> None:
        self._rebuild_ring()

    def _rebuild_ring(self) -> None:
        """Drop dead replicas' vnodes; surviving points keep their
        positions, so only ~1/N of the key space moves per death —
        the consistent-hashing contract, now honored on failure too."""
        keep = self._live[self._all_replicas]
        self._ring_points = self._all_points[keep]
        self._ring_replicas = self._all_replicas[keep]

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        primary = np.fromiter(
            (req.keys[0] for req in requests),
            dtype=np.int64,
            count=len(requests),
        )
        slots = np.searchsorted(self._ring_points, _splitmix64(primary))
        slots[slots == len(self._ring_points)] = 0  # wrap around the ring
        return self._ring_replicas[slots]


class PowerOfTwoChoicesRouter(Router):
    """Power-of-two-choices on recent load.

    Request number ``i`` (counted from :meth:`bind`) probes two
    distinct live replicas drawn from a counter-based hash — splitmix64
    of the seed and ``i`` — and goes to the one the router sent fewer
    requests within the last batching window (ties go to the first
    draw): the classic load-balancing result, two choices remove almost
    all of random routing's imbalance.  The draws and the per-replica
    send log carry across calls and reset in :meth:`bind`, so where a
    trace is split cannot change its routing.  With a zero batching
    window every count reads 0 and the policy degrades to seeded random
    routing.
    """

    name = "p2c"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _reset(self) -> None:
        self._routed = 0
        self._sent: List[Deque[float]] = [
            deque() for _ in range(self.num_replicas)
        ]

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        live = self.live_replicas
        n, num = len(requests), len(live)
        counter = np.arange(self._routed, self._routed + n, dtype=np.uint64)
        self._routed += n
        draws = _splitmix64(counter + _splitmix64([self.seed])[0])
        first = draws % np.uint64(num)
        second = first
        if num > 1:
            offset = (draws >> np.uint64(32)) % np.uint64(num - 1)
            second = (first + np.uint64(1) + offset) % np.uint64(num)
        firsts = live[first.astype(np.int64)].tolist()
        seconds = live[second.astype(np.int64)].tolist()
        assignment = np.empty(n, dtype=np.int64)
        sent = self._sent
        for i, req in enumerate(requests):
            now = req.arrival_s
            a, b = firsts[i], seconds[i]
            for q in (sent[a], sent[b]):
                while q and q[0] <= now - window_s:
                    q.popleft()
            chosen = a if len(sent[a]) <= len(sent[b]) else b
            sent[chosen].append(now)
            assignment[i] = chosen
        return assignment


def make_router(policy: str, seed: int = 0) -> Router:
    """A fresh router for a named policy."""
    if policy == "round_robin":
        return RoundRobinRouter()
    if policy == "hash":
        return ConsistentHashRouter()
    if policy == "p2c":
        return PowerOfTwoChoicesRouter(seed)
    raise ValueError(
        f"unknown router policy {policy!r}; expected one of "
        f"{ROUTER_POLICIES}"
    )


# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Outcome of one fleet-served trace: the aggregate plus the
    replicas that saw traffic."""

    router: str
    num_replicas: int
    fleet: ServingReport
    replicas: Dict[int, ServingReport]
    requests_per_replica: List[int]

    @property
    def load_imbalance(self) -> float:
        """Max over mean requests per replica (1.0 = perfectly even,
        counting idle replicas; 0.0 when nothing was served, the
        all-zero convention of :meth:`ServingReport.empty`)."""
        counts = np.asarray(self.requests_per_replica, dtype=np.float64)
        if not counts.any():
            return 0.0
        return float(counts.max() / counts.mean())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "num_replicas": self.num_replicas,
            "load_imbalance": self.load_imbalance,
            "requests_per_replica": list(self.requests_per_replica),
            "fleet": self.fleet.to_dict(),
            "replicas": {
                str(idx): report.to_dict()
                for idx, report in self.replicas.items()
            },
        }


# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class _Retry(Request):
    """A re-sent attempt of ``origin``: its latency counts from the
    origin's arrival."""

    origin: Request
    attempt: int


class _Slot:
    """One replica slot's mutable replay state."""

    __slots__ = (
        "idx",
        "cache",
        "caches",
        # idle | provisioning | active | dead | hung | drained | swapping
        "state",
        "detect_at",  # when the router learns the slot is down
        "open",  # the batch still filling (an OpenBatch)
        "busy_until",  # per-lane busy-until times
        "batches",
        "reqs",  # requests served here (replica-local arrival times)
        "lats",  # per-request latency from *original* arrival
        "phase_ms",
    )

    def __init__(
        self, idx: int, cache: _LRUCacheBase, state: str, lanes: int
    ):
        self.idx = idx
        self.cache = cache
        self.caches = [cache]
        self.state = state
        self.detect_at = math.inf
        self.open = OpenBatch()
        self.busy_until = [0.0] * lanes
        self.batches = 0
        self.reqs: List[Request] = []
        self.lats: List[float] = []
        self.phase_ms: Dict[str, float] = {}

    @property
    def accepting(self) -> bool:
        """Actually able to take a request."""
        return self.state == "active"

    def routable(self, now_s: float) -> bool:
        """What the router believes: down replicas stay routable until
        the client timeout detects them."""
        if self.accepting:
            return True
        return self.state in ("dead", "hung") and now_s < self.detect_at


class ServingFleet:
    """N serving replicas, each owning a batcher queue and an LRU
    embedding cache, priced on one shared :class:`SimCluster` — with
    optional seeded faults, client retries with backoff, degraded-mode
    serving, crash recovery, SLO autoscaling and planned hot swaps.

    ``num_replicas`` defaults to one replica per dense host; more
    replicas than dense hosts time-share host GPUs, so each replica's
    dense forward slows by the oversubscription factor.  With
    ``shared_queue=True`` each replica instead feeds one *lane* per
    dense host from its single batcher and cache (each batch starts on
    the earliest-free lane), and ``num_replicas`` defaults to 1: the
    shared-queue pool over every dense host.  The fetch path
    — global fabric or embedding tier per the placement — is shared by
    the whole fleet.  ``engine`` injects a PlacementEngine subclass
    (the tiered engine) and ``cache_factory`` may build multi-level
    CacheChains.  Any of ``faults`` / ``retry`` / ``recovery`` /
    ``autoscaler`` / ``swaps`` may be omitted; with all of them omitted
    the fleet is healthy.
    """

    def __init__(
        self,
        sim: SimCluster,
        model: ServingModel,
        placement: Placement,
        batcher: MicroBatcher,
        router: "Router | str" = "round_robin",
        num_replicas: Optional[int] = None,
        cache_rows: int = 0,
        cache_factory: Optional[Callable[[], _LRUCacheBase]] = None,
        router_seed: int = 0,
        engine: Optional[PlacementEngine] = None,
        faults: Optional[FaultConfig] = None,
        retry: Optional[RetryPolicy] = None,
        recovery: Optional[RecoveryModel] = None,
        autoscaler: Optional[SLOAutoscaler] = None,
        degraded_mode: bool = True,
        stale_penalty: float = 0.05,
        swaps: Optional[Sequence[SwapEvent]] = None,
        shared_queue: bool = False,
    ):
        self.engine = (
            engine
            if engine is not None
            else PlacementEngine(sim, model, placement)
        )
        # A shared-queue replica feeds one lane per dense host.
        self.lanes = self.engine.num_dense_hosts if shared_queue else 1
        self.num_replicas = (
            num_replicas
            if num_replicas is not None
            else 1 if shared_queue else self.engine.num_dense_hosts
        )
        if self.num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        if stale_penalty < 0:
            raise ValueError(
                f"stale_penalty must be >= 0, got {stale_penalty}"
            )
        self.sim = sim
        self.model = model
        self.placement = placement
        self.batcher = batcher
        self.faults = faults if faults is not None else FaultConfig()
        self.swaps: Tuple[SwapEvent, ...] = tuple(swaps) if swaps else ()
        for swap in self.swaps:
            if swap.replica >= self.num_replicas:
                raise ValueError(
                    f"swap targets replica {swap.replica}, fleet has "
                    f"{self.num_replicas}"
                )
        self.retry = retry if retry is not None else RetryPolicy()
        self.recovery = recovery
        self.autoscaler = autoscaler
        self.degraded_mode = degraded_mode
        self.stale_penalty = stale_penalty
        # Replicas beyond the dense hosts time-share their GPUs (the
        # initial fleet's share; the replay re-derives it from the
        # replicas actually serving).
        self.host_share = min(
            1.0,
            self.engine.num_dense_hosts / (self.num_replicas * self.lanes),
        )
        # Replica slots: the initial fleet plus headroom the autoscaler
        # may grow into.  The router binds over the full capacity with
        # only the initial replicas live, so scale-up is a membership
        # change, not a rebind.
        self.capacity = self.num_replicas
        if autoscaler is not None:
            self.capacity = max(
                self.capacity, autoscaler.policy.max_replicas
            )
            if autoscaler.policy.min_replicas > self.num_replicas:
                raise ValueError(
                    f"initial fleet ({self.num_replicas} replicas) is "
                    f"below the autoscaler floor "
                    f"({autoscaler.policy.min_replicas})"
                )
        self._cache_factory = cache_factory or (
            lambda: LRUEmbeddingCache(cache_rows)
        )
        self.caches: List[_LRUCacheBase] = [
            self._cache_factory() for _ in range(self.capacity)
        ]
        self.router = (
            router
            if isinstance(router, Router)
            else make_router(router, seed=router_seed)
        )

    # ------------------------------------------------------------------
    def warm_start_from_checkpoint(
        self, path: str, max_rows: Optional[int] = None
    ) -> int:
        """Prefill the *initial* replicas' caches from a checkpoint's
        hottest rows (each replica may see any key, so each gets the
        same hottest-first seed; scale-up slots stay cold on purpose —
        their warm-start is the autoscaler's priced prefill).  Returns
        total rows seeded."""
        initial = self.caches[: self.num_replicas]
        limit = max(cache.capacity_rows for cache in initial)
        if max_rows is not None:
            limit = min(limit, max_rows)
        if limit <= 0:
            return 0
        from repro.checkpoint.state import hottest_rows

        rows = hottest_rows(path, limit)
        return sum(cache.prefill(rows) for cache in initial)

    # ------------------------------------------------------------------
    # Replay internals
    # ------------------------------------------------------------------
    def _accepting_count(self) -> int:
        return sum(1 for s in self._slots if s.accepting)

    def _host_share(self) -> float:
        """Survivors inherit the dense GPUs of dead replicas — the
        share is over the lanes of replicas actually serving right
        now."""
        live = max(1, self._accepting_count()) * self.lanes
        return min(1.0, self.engine.num_dense_hosts / live)

    def _update_membership(self, now_s: float) -> None:
        mask = np.zeros(self.capacity, dtype=bool)
        for slot in self._slots:
            mask[slot.idx] = slot.routable(now_s)
        # If every replica is down the router keeps its stale view —
        # clients keep timing out (and retrying) against it, which is
        # exactly what a real front-end does during a total outage.
        if mask.any():
            self.router.set_live(mask)

    def _push(self, t: float, kind: str, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    def _fetch_scale_at(self, t: float) -> float:
        scale = 1.0
        for lo, hi, factor in self._degrade_windows:
            if lo <= t < hi:
                scale *= factor
        return scale

    def _outage_end_at(self, t: float) -> Optional[float]:
        end = None
        for lo, hi in self._outage_windows:
            if lo <= t < hi:
                end = hi if end is None else max(end, hi)
        return end

    def _window_index(self, t: float) -> int:
        if self._win_s <= 0:
            return 0
        return int((t - self._t0) / self._win_s)

    # ------------------------------------------------------------------
    def _schedule_retry(self, req: Request, now_s: float) -> None:
        """The client's attempt just failed (timeout / crash): back off
        and re-send, or declare the request lost."""
        self._timeouts += 1
        orig = getattr(req, "origin", req)
        attempt = getattr(req, "attempt", 0) + 1
        if attempt > self.retry.max_retries or self._budget_left <= 0:
            self._lost += 1
            return
        self._budget_left -= 1
        self._retries += 1
        self._retried_ids.add(orig.req_id)
        delay = self.retry.timeout_s + self.retry.backoff_s(
            orig.req_id, attempt
        )
        self._seq += 1
        retry = _Retry(orig.req_id, now_s + delay, orig.keys, orig, attempt)
        heapq.heappush(self._due, (retry.arrival_s, self._seq, retry))

    def _route(self, arrivals: List[Request]) -> None:
        """Route and batch one event-free piece of the replay.

        Membership and every replica's accepting state are fixed inside
        the piece; requests routed at a down-but-undetected replica eat
        the client timeout and retry.
        """
        assignment = self.router.route_trace(
            arrivals, self.batcher.max_delay_s
        ).tolist()
        accepting = [slot.accepting for slot in self._slots]
        shares: List[List[Request]] = [[] for _ in self._slots]
        for req, rep in zip(arrivals, assignment):
            if accepting[rep]:
                shares[rep].append(req)
            else:
                self._schedule_retry(req, req.arrival_s)
        full = self.batcher.max_batch_size
        for slot, share in zip(self._slots, shares):
            if share:
                self._closed.extend(
                    (batch.ready_s, batch.size == full, slot.idx, batch)
                    for batch in self.batcher.form_batches(share, slot.open)
                )

    def _price_closed(self, horizon: float) -> None:
        """Close the open batches due by ``horizon`` and price every
        closed batch in ready order (deadline flushes first on a tie,
        then by replica)."""
        for slot in self._slots:
            if slot.open.requests and slot.open.deadline <= horizon:
                batch = slot.open.close()
                self._closed.append((batch.ready_s, False, slot.idx, batch))
        self._closed.sort(key=lambda item: item[:3])
        host_share = self._host_share()  # fixed until the next event
        for _, _, idx, batch in self._closed:
            self._price(self._slots[idx], batch, host_share)
        self._closed = []

    def _price(
        self, slot: _Slot, batch: MicroBatch, host_share: float
    ) -> None:
        """Price one closed batch on its replica."""
        ready_s = batch.ready_s
        lanes = slot.busy_until
        lane = lanes.index(min(lanes)) if len(lanes) > 1 else 0
        start = max(ready_s, lanes[lane])
        hits, miss_keys = slot.cache.probe(batch.keys)
        extra = self.engine.chain_extra_seconds(slot.cache)
        misses = len(miss_keys)
        degraded = False
        if misses:
            outage_end = self._outage_end_at(start)
            if outage_end is not None:
                if self.degraded_mode:
                    # Serve stale/default rows now, price the quality
                    # hit; the miss rows cost a local read, not a fetch.
                    degraded = True
                else:
                    start = outage_end  # stall until the tier returns
        hits_eff, miss_eff = (
            (hits + misses, 0) if degraded else (hits, misses)
        )
        done, t_fetch, t_compute, t_queue = self.engine.price_batch(
            batch,
            start,
            self._fetch_free,
            hits_eff,
            miss_eff,
            host_share=host_share,
            label_suffix=f"/replica{slot.idx}",
            extra_compute_s=extra,
            fetch_scale=self._fetch_scale_at(start),
        )
        mine = slot.phase_ms
        if miss_eff:
            mine["embedding_comm"] = (
                mine.get("embedding_comm", 0.0) + t_fetch * 1e3
            )
        mine["compute"] = mine.get("compute", 0.0) + t_compute * 1e3
        mine["queue"] = mine.get("queue", 0.0) + t_queue * 1e3
        lanes[lane] = done
        slot.batches += 1
        self._num_batches += 1
        if degraded:
            self._degraded += batch.size
            self._degraded_rows += misses
        origins = batch.requests
        if self._retried_ids:
            # A retried copy's latency counts from its origin's arrival.
            origins = [getattr(r, "origin", r) for r in origins]
        lats = [done - orig.arrival_s for orig in origins]
        slot.reqs.extend(batch.requests)
        slot.lats.extend(lats)
        self._served.extend(origins)
        self._win_lat.setdefault(self._window_index(done), []).extend(lats)
        heapq.heappush(self._done, (done, batch.size))

    # ------------------------------------------------------------------
    def _fail_open_batch(self, slot: _Slot, t: float) -> None:
        failed = slot.open.requests
        slot.open = OpenBatch()
        for req in failed:
            self._schedule_retry(req, t)

    def _on_fault(self, t: float, event: FaultEvent) -> None:
        record = dict(event.to_dict())
        record["at_s"] = t  # absolute time in the trace frame
        if event.kind == "replica_crash":
            slot = self._slots[event.replica % self.num_replicas]
            record["replica"] = slot.idx
            record["applied"] = slot.state == "active"
            self._timeline_log.append(record)
            if slot.state != "active":
                return  # already dead/drained: nothing left to kill
            slot.state = "dead"
            slot.detect_at = t + self.retry.timeout_s
            self._push(slot.detect_at, "membership", None)
            self._fail_open_batch(slot, t)
            crash: Dict[str, Any] = {
                "at_s": t,
                "replica": slot.idx,
                "detected_s": slot.detect_at,
                "mttr_s": None,
                "online_s": None,
            }
            if self.recovery is not None:
                mttr = self.recovery.mttr_s()
                crash["mttr_s"] = mttr
                crash["online_s"] = t + mttr
                self._push(
                    t + mttr,
                    "online",
                    (slot.idx, self.recovery.warm_rows, True, None),
                )
            self._crashes.append(crash)
        elif event.kind == "replica_hang":
            slot = self._slots[event.replica % self.num_replicas]
            record["replica"] = slot.idx
            record["applied"] = slot.state == "active"
            self._timeline_log.append(record)
            if slot.state != "active":
                return
            slot.state = "hung"
            hang_until = t + event.duration_s
            slot.detect_at = min(t + self.retry.timeout_s, hang_until)
            self._push(slot.detect_at, "membership", None)
            self._push(hang_until, "hang_end", slot.idx)
            self._fail_open_batch(slot, t)
        elif event.kind == "fetch_degrade":
            record["applied"] = True
            self._timeline_log.append(record)
            self._degrade_windows.append(
                (t, t + event.duration_s, event.factor)
            )
        else:  # fetch_outage
            record["applied"] = True
            self._timeline_log.append(record)
            self._outage_windows.append((t, t + event.duration_s))

    def _on_online(
        self,
        t: float,
        idx: int,
        warm_rows: Any,
        fresh_cache: bool,
        scale_event: Optional[Dict[str, Any]],
    ) -> None:
        slot = self._slots[idx]
        if fresh_cache:
            cache = self._cache_factory()
            slot.cache = cache
            slot.caches.append(cache)
        slot.state = "active"
        slot.detect_at = math.inf
        prefill_s = 0.0
        # ``warm_rows`` is a count (hottest-first, crash recovery and
        # autoscale) or an explicit id array (a delta's touched rows).
        if isinstance(warm_rows, np.ndarray):
            rows_arr = np.asarray(warm_rows, dtype=np.int64)[
                : slot.cache.capacity_rows
            ]
        else:
            rows_arr = np.arange(
                min(int(warm_rows), slot.cache.capacity_rows),
                dtype=np.int64,
            )
        if rows_arr.size > 0:
            # Warm-start prefill: pull the rows over the fetch tier
            # before taking traffic — priced, so coming online is
            # never free.
            slot.cache.prefill(rows_arr)
            server = int(np.argmin(self._fetch_free))
            fetch_start = max(t, float(self._fetch_free[server]))
            prefill_s, nbytes, world = self.engine.fetch_timing(
                int(rows_arr.size)
            )
            self._fetch_free[server] = fetch_start + prefill_s
            self.sim.timeline.add(
                Phase.EMBEDDING_COMM,
                f"warm-prefill/replica{idx}",
                prefill_s,
                nbytes=nbytes,
                world_size=world,
            )
            slot.busy_until = [
                max(free, fetch_start + prefill_s)
                for free in slot.busy_until
            ]
        if scale_event is not None:
            scale_event["online_s"] = t
            scale_event["prefill_s"] = prefill_s
        self._update_membership(t)

    def _on_swap(self, t: float, swap: SwapEvent) -> None:
        """Planned rollout step: drain, restart on the new version,
        warm the cache, rejoin — all priced, none of it a fault."""
        slot = self._slots[swap.replica]
        record = dict(swap.to_dict())
        record["at_s"] = t  # absolute time in the trace frame
        record["applied"] = slot.state == "active"
        record["online_s"] = None
        record["prefill_s"] = 0.0
        self._swap_log.append(record)
        if slot.state != "active":
            return  # dead/hung/drained: the rollout skips this replica
        if swap.swap_s > 0:
            if slot.open.requests:
                # Graceful drain: the open batch is served, not failed.
                self._price(slot, slot.open.close(t), self._host_share())
            slot.state = "swapping"
            self._update_membership(t)
            self._push(
                t + swap.swap_s,
                "online",
                (slot.idx, swap.warm_rows, swap.fresh_cache, record),
            )
        else:
            # Zero-downtime swap: the replica never leaves the router.
            self._on_online(
                t, slot.idx, swap.warm_rows, swap.fresh_cache, record
            )

    def _on_window(self, t: float, k: int) -> None:
        lats = self._win_lat.get(k - 1)
        p99 = (
            float(np.percentile(np.asarray(lats) * 1e3, 99))
            if lats
            else None
        )
        while self._done and self._done[0][0] <= t:
            self._completed += heapq.heappop(self._done)[1]
        queued = sum(len(slot.open.requests) for slot in self._slots)
        inflight = len(self._served) - self._completed + queued
        accepting = self._accepting_count()
        depth = inflight / max(1, accepting)
        policy = self.autoscaler.policy if self.autoscaler else None
        violated = bool(
            policy is not None
            and p99 is not None
            and p99 > policy.slo_p99_ms
        )
        self._windows.append(
            {
                "t0": self._t0 + (k - 1) * self._win_s,
                "t1": self._t0 + k * self._win_s,
                "p99_ms": p99,
                "queue_depth": depth,
                "replicas": accepting,
                "violated": violated,
            }
        )
        if self.autoscaler is None:
            return
        current = sum(
            1
            for slot in self._slots
            if slot.state in ("provisioning", "active", "hung", "swapping")
        )
        target = self.autoscaler.decide(p99, depth, current)
        if target > current:
            added = 0
            evt = {
                "at_s": t,
                "action": "scale_up",
                "from_replicas": current,
                "to_replicas": current,
                "online_s": None,
                "prefill_s": 0.0,
            }
            for slot in self._slots:
                if added >= target - current:
                    break
                if slot.state != "idle":
                    continue
                slot.state = "provisioning"
                self._push(
                    t + policy.provision_s,
                    "online",
                    (slot.idx, policy.warm_rows, False, evt),
                )
                added += 1
            if added:
                evt["to_replicas"] = current + added
                self._scale_events.append(evt)
        elif target < current:
            victims = sorted(
                (slot for slot in self._slots if slot.accepting),
                key=lambda s: (len(s.open.requests), -s.idx),
            )[: current - target]
            for slot in victims:
                if slot.open.requests:
                    self._price(slot, slot.open.close(t), self._host_share())
                slot.state = "drained"
            if victims:
                self._scale_events.append(
                    {
                        "at_s": t,
                        "action": "drain",
                        "from_replicas": current,
                        "to_replicas": current - len(victims),
                        "replicas_drained": [s.idx for s in victims],
                    }
                )
                self._update_membership(t)

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> FaultReport:
        """Replay the trace; returns the fault report (its ``fleet``
        field is the fleet report over the served requests)."""
        if not requests:
            raise ValueError("cannot serve an empty request trace")
        ordered = sorted(requests, key=attrgetter("arrival_s"))
        self._t0 = ordered[0].arrival_s
        span = ordered[-1].arrival_s - self._t0

        self.router.bind(self.capacity)
        self._slots = [
            _Slot(
                i,
                self.caches[i],
                "active" if i < self.num_replicas else "idle",
                self.lanes,
            )
            for i in range(self.capacity)
        ]
        stats_before = [cache.stats for cache in self.caches]
        self.router.set_live(
            np.arange(self.capacity) < self.num_replicas
        )
        if self.autoscaler is not None:
            self.autoscaler.reset()

        self._heap: List[Tuple[float, int, str, Any]] = []
        self._due: List[Tuple[float, int, Request]] = []  # retries
        self._closed: List[Tuple[float, bool, int, MicroBatch]] = []
        self._seq = 0
        self._fetch_free = np.zeros(self.engine.num_fetch_servers)
        self._degrade_windows: List[Tuple[float, float, float]] = []
        self._outage_windows: List[Tuple[float, float]] = []
        self._served: List[Request] = []
        self._done: List[Tuple[float, int]] = []  # (done_s, size) heap
        self._completed = 0
        self._win_lat: Dict[int, List[float]] = {}
        self._windows: List[Dict[str, Any]] = []
        self._scale_events: List[Dict[str, Any]] = []
        self._crashes: List[Dict[str, Any]] = []
        self._timeline_log: List[Dict[str, Any]] = []
        self._swap_log: List[Dict[str, Any]] = []
        self._num_batches = 0
        self._lost = 0
        self._retries = 0
        self._timeouts = 0
        self._degraded = 0
        self._degraded_rows = 0
        self._retried_ids: set = set()
        self._budget_left = int(
            math.ceil(self.retry.retry_budget * len(ordered))
        )

        # Observation windows (autoscaler cadence; also the SLO report
        # granularity when no autoscaler is attached).
        if (
            self.autoscaler is not None
            and self.autoscaler.policy.window_s > 0
        ):
            self._win_s = self.autoscaler.policy.window_s
        else:
            self._win_s = span / 20.0 if span > 0 else 0.0

        # Seed the control-event heap: faults first, then planned
        # swaps, then window boundaries — a deterministic tie order.
        for event in self.faults.schedule(span, self.num_replicas):
            self._push(self._t0 + event.at_s, "fault", event)
        for swap in self.swaps:
            self._push(self._t0 + swap.at_s, "swap", swap)
        if self._win_s > 0:
            num_windows = int(math.ceil(span / self._win_s))
            for k in range(1, num_windows + 1):
                self._push(self._t0 + k * self._win_s, "window", k)

        timeline = self.sim.timeline
        events_before = len(timeline.events)
        self._replay(ordered)
        return self._build_report(
            ordered, stats_before, timeline, events_before
        )

    def _replay(self, ordered: List[Request]) -> None:
        """Walk the control events one at a time; route, batch and price
        the arrivals before each one as event-free pieces."""
        arrivals = [req.arrival_s for req in ordered]
        nxt = 0
        timeout = self.retry.timeout_s
        while True:
            horizon = self._heap[0][0] if self._heap else math.inf
            while True:
                first = min(
                    arrivals[nxt] if nxt < len(ordered) else math.inf,
                    self._due[0][0] if self._due else math.inf,
                )
                if first >= horizon:
                    break
                # No retry born in this piece can land inside it.
                end = min(horizon, first + timeout)
                stop = bisect.bisect_left(arrivals, end, lo=nxt)
                piece = ordered[nxt:stop]
                nxt = stop
                if self._due and self._due[0][0] < end:
                    while self._due and self._due[0][0] < end:
                        piece.append(heapq.heappop(self._due)[2])
                    # Stable: originals before retries on a tie.
                    piece.sort(key=attrgetter("arrival_s"))
                self._route(piece)
            self._price_closed(horizon)
            if not self._heap:
                break
            t, _, kind, payload = heapq.heappop(self._heap)
            if kind == "fault":
                self._on_fault(t, payload)
            elif kind == "membership":
                self._update_membership(t)
            elif kind == "hang_end":
                slot = self._slots[payload]
                if slot.state == "hung":
                    slot.state = "active"
                    slot.detect_at = math.inf
                    self._update_membership(t)
            elif kind == "swap":
                self._on_swap(t, payload)
            elif kind == "online":
                idx, warm_rows, fresh_cache, scale_event = payload
                self._on_online(t, idx, warm_rows, fresh_cache, scale_event)
            else:  # window
                self._on_window(t, payload)

    # ------------------------------------------------------------------
    def _build_report(
        self,
        ordered: Sequence[Request],
        stats_before: List[Any],
        timeline: Any,
        events_before: int,
    ) -> FaultReport:
        strategy = self.placement.strategy
        last_done = max(
            (max(slot.busy_until) for slot in self._slots), default=0.0
        )
        replica_reports: Dict[int, ServingReport] = {}
        all_lats: List[np.ndarray] = []
        total_hits = 0
        total_misses = 0
        for slot in self._slots:
            hits = sum(c.stats.hits for c in slot.caches)
            misses = sum(c.stats.misses for c in slot.caches)
            hits -= stats_before[slot.idx].hits
            misses -= stats_before[slot.idx].misses
            total_hits += hits
            total_misses += misses
            lats = np.asarray(slot.lats)
            all_lats.append(lats)
            if not slot.reqs:
                continue
            replica_reports[slot.idx] = build_report(
                placement=strategy,
                model=self.model.name,
                requests=slot.reqs,
                num_batches=slot.batches,
                latencies_s=lats,
                last_done_s=max(slot.busy_until),
                hits=hits,
                misses=misses,
                breakdown_ms=slot.phase_ms,
            )
        breakdown: Dict[str, float] = {}
        for event in timeline.events[events_before:]:
            breakdown[event.phase.value] = (
                breakdown.get(event.phase.value, 0.0) + event.seconds * 1e3
            )
        fleet_serving = build_report(
            placement=strategy,
            model=self.model.name,
            requests=self._served,  # only count and arrival span matter
            num_batches=self._num_batches,
            latencies_s=np.concatenate(all_lats),
            last_done_s=last_done,
            hits=total_hits,
            misses=total_misses,
            breakdown_ms=breakdown,
        )
        fleet = FleetReport(
            router=self.router.name,
            num_replicas=self.capacity,
            fleet=fleet_serving,
            replicas=replica_reports,
            requests_per_replica=[
                len(slot.reqs) for slot in self._slots
            ],
        )
        # Tail completions past the last scheduled boundary still count
        # toward the SLO story.
        recorded = len(self._windows)
        if self._win_s > 0 and self._win_lat:
            policy = self.autoscaler.policy if self.autoscaler else None
            for k in sorted(self._win_lat):
                if k < recorded:
                    continue
                p99 = float(
                    np.percentile(np.asarray(self._win_lat[k]) * 1e3, 99)
                )
                self._windows.append(
                    {
                        "t0": self._t0 + k * self._win_s,
                        "t1": self._t0 + (k + 1) * self._win_s,
                        "p99_ms": p99,
                        "queue_depth": 0.0,
                        "replicas": self._accepting_count(),
                        "violated": bool(
                            policy is not None
                            and p99 > policy.slo_p99_ms
                        ),
                    }
                )
        traffic_windows = [
            w for w in self._windows if w["p99_ms"] is not None
        ]
        violation_fraction = (
            sum(1 for w in traffic_windows if w["violated"])
            / len(traffic_windows)
            if traffic_windows
            else 0.0
        )
        recovered = [
            c["mttr_s"] for c in self._crashes if c["mttr_s"] is not None
        ]
        num_served = len(self._served)
        return FaultReport(
            fleet=fleet,
            num_offered=len(ordered),
            num_served=num_served,
            num_lost=self._lost,
            num_retried=len(self._retried_ids),
            num_retries=self._retries,
            num_timeouts=self._timeouts,
            num_degraded=self._degraded,
            degraded_rows=self._degraded_rows,
            quality_cost=(
                self.stale_penalty * self._degraded / num_served
                if num_served
                else 0.0
            ),
            slo_p99_ms=(
                self.autoscaler.policy.slo_p99_ms
                if self.autoscaler is not None
                else 0.0
            ),
            slo_violation_fraction=violation_fraction,
            mttr_s=(
                float(np.mean(recovered)) if recovered else 0.0
            ),
            windows=self._windows,
            scale_events=self._scale_events,
            crashes=self._crashes,
            fault_timeline=self._timeline_log,
            swaps=self._swap_log,
        )

