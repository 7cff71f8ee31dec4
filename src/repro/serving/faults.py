"""Seeded fault injection + client-side robustness for the fleet.

The disaggregated embedding plane only pays off in production if the
fleet survives the failures disaggregation introduces — replica death,
fetch-tier brownouts, remote-PS outages (the DisaggRec failure trade
space, arXiv:2212.00939).  This module makes those failures a
first-class, **bit-reproducible** part of the replay:

- :class:`FaultEvent` / :class:`FaultConfig` — a declarative fault
  schedule.  ``FaultConfig.schedule`` expands seeded fault counts into
  a concrete, deterministic timeline of events over the trace span
  (replica crashes and hangs, fetch-tier latency degradation windows,
  full fetch-tier outages), so the same config + seed always injects
  the identical failure sequence;
- :class:`RetryPolicy` — the client-side survival kit: per-request
  timeout, capped exponential backoff whose jitter is a deterministic
  hash of ``(req_id, attempt)``, and a global retry budget (a fraction
  of offered load) so retry storms cannot melt the fleet;
- :class:`RecoveryModel` — the analytic MTTR model for a crashed
  replica: failure detection, checkpoint restore, and delta replay
  proportional to half the checkpoint period (expected staleness), so
  reported MTTR decreases monotonically with checkpoint cadence.
  :meth:`RecoveryModel.from_elastic_plan` prices the restore leg with
  the checkpoint plane's elastic-restore migration timing;
- :class:`SwapEvent` — a planned hot swap of one replica onto a new
  model version.

The one fleet replay engine, :class:`~repro.serving.fleet.ServingFleet`,
takes all of these as constructor arguments and replays them as
control events: requests routed at a dead-but-undetected replica pay
the timeout and retry with backoff; detection flips the router's live
mask so traffic is re-routed away (consistent-hash ring rebuild); a
fetch outage either stalls miss batches until it lifts or — in
degraded mode — serves stale/default rows immediately while pricing
the quality hit; and an optional
:class:`~repro.serving.autoscale.SLOAutoscaler` watches windowed
p99/queue depth and adds (priced warm-start prefill, provisioning
delay) or drains replicas.

The outcome of every fleet replay is a :class:`FaultReport`: the usual
fleet latency report over the requests that were actually served, plus
the robustness ledger — offered/served/lost/retried/degraded counts,
MTTR per crash, SLO-violation windows, and the scale path (all zero
for a healthy fleet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from repro.serving.workload import _splitmix64

if TYPE_CHECKING:  # the engine in fleet.py imports this module
    from repro.serving.fleet import FleetReport

#: Fault kinds the scheduler understands.
FAULT_KINDS = (
    "replica_crash",  # a replica dies (permanently, unless recovered)
    "replica_hang",  # a replica stops serving for duration_s, then resumes
    "fetch_degrade",  # fetch-tier latency multiplied by `factor`
    "fetch_outage",  # fetch tier fully unavailable (remote-PS down)
)


def _hash_unit(req_id: int, attempt: int) -> float:
    """Deterministic uniform in [0, 1) from ``(req_id, attempt)``.

    Backoff jitter must decorrelate retry storms *and* stay
    bit-reproducible without threading a generator through the client
    path — a splitmix64 finalizer over the pair does both.
    """
    mixed = (req_id * 1_000_003 + attempt) & 0xFFFF_FFFF_FFFF_FFFF
    h = _splitmix64(np.asarray([mixed], dtype=np.uint64))[0]
    return float(h) / float(2**64)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, at a time relative to the trace start."""

    kind: str
    at_s: float
    duration_s: float = 0.0
    replica: int = -1  # replica faults only; -1 = not replica-scoped
    factor: float = 1.0  # fetch_degrade only: latency multiplier

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise ValueError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )
        if self.factor < 1.0:
            raise ValueError(
                f"factor must be >= 1 (a slowdown), got {self.factor}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "at_s": self.at_s,
            "duration_s": self.duration_s,
            "replica": self.replica,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault schedule over one served trace.

    Counts expand into concrete :class:`FaultEvent` timestamps inside
    the injection window (default: the middle 90% of the trace span)
    via one seeded generator, so a config is a complete, reproducible
    description of the failure sequence.  Explicit ``events`` are
    merged in unchanged — the escape hatch for hand-placed faults.
    """

    seed: int = 0
    replica_crashes: int = 0
    replica_hangs: int = 0
    hang_duration_s: float = 0.0
    fetch_degrades: int = 0
    degrade_duration_s: float = 0.0
    degrade_factor: float = 4.0
    fetch_outages: int = 0
    outage_duration_s: float = 0.0
    start_s: float = 0.0  # injection window; both 0 = middle 90%
    end_s: float = 0.0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "replica_crashes",
            "replica_hangs",
            "fetch_degrades",
            "fetch_outages",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.replica_hangs > 0 and self.hang_duration_s <= 0:
            raise ValueError(
                "replica_hangs > 0 needs a positive hang_duration_s"
            )
        if self.fetch_degrades > 0 and self.degrade_duration_s <= 0:
            raise ValueError(
                "fetch_degrades > 0 needs a positive degrade_duration_s"
            )
        if self.fetch_outages > 0 and self.outage_duration_s <= 0:
            raise ValueError(
                "fetch_outages > 0 needs a positive outage_duration_s"
            )
        if self.degrade_factor < 1.0:
            raise ValueError(
                f"degrade_factor must be >= 1, got {self.degrade_factor}"
            )
        if self.start_s < 0 or self.end_s < 0:
            raise ValueError("injection window must be >= 0")
        if self.end_s > 0 and self.end_s <= self.start_s:
            raise ValueError(
                f"injection window end ({self.end_s}) must be after its "
                f"start ({self.start_s})"
            )

    @property
    def num_scheduled(self) -> int:
        """Total faults the schedule will contain."""
        return (
            self.replica_crashes
            + self.replica_hangs
            + self.fetch_degrades
            + self.fetch_outages
            + len(self.events)
        )

    def window(self, span_s: float) -> Tuple[float, float]:
        """The injection window over a trace of ``span_s`` seconds."""
        if self.start_s > 0 or self.end_s > 0:
            return self.start_s, self.end_s if self.end_s > 0 else span_s
        return 0.05 * span_s, 0.95 * span_s

    def schedule(
        self, span_s: float, num_replicas: int
    ) -> Tuple[FaultEvent, ...]:
        """Expand the config into a deterministic fault timeline.

        Times are relative to the trace start.  Draw order is fixed
        (crashes, hangs, degrades, outages — each count in sequence
        from one seeded generator), so identical config + seed yields a
        bit-identical timeline on every run.
        """
        lo, hi = self.window(span_s)
        rng = np.random.default_rng(self.seed)
        out: List[FaultEvent] = list(self.events)
        for _ in range(self.replica_crashes):
            out.append(
                FaultEvent(
                    "replica_crash",
                    at_s=float(rng.uniform(lo, hi)),
                    replica=int(rng.integers(0, num_replicas)),
                )
            )
        for _ in range(self.replica_hangs):
            out.append(
                FaultEvent(
                    "replica_hang",
                    at_s=float(rng.uniform(lo, hi)),
                    duration_s=self.hang_duration_s,
                    replica=int(rng.integers(0, num_replicas)),
                )
            )
        for _ in range(self.fetch_degrades):
            out.append(
                FaultEvent(
                    "fetch_degrade",
                    at_s=float(rng.uniform(lo, hi)),
                    duration_s=self.degrade_duration_s,
                    factor=self.degrade_factor,
                )
            )
        for _ in range(self.fetch_outages):
            out.append(
                FaultEvent(
                    "fetch_outage",
                    at_s=float(rng.uniform(lo, hi)),
                    duration_s=self.outage_duration_s,
                )
            )
        out.sort(key=lambda e: (e.at_s, FAULT_KINDS.index(e.kind), e.replica))
        return tuple(out)


@dataclass(frozen=True)
class SwapEvent:
    """One planned hot-swap: roll a replica onto a new model version.

    Unlike a fault, a swap is *coordinated*: the front-end knows the
    replica is going down, so traffic is re-routed immediately (no
    timeout/detection window), any open batch is flushed first
    (graceful drain), and after ``swap_s`` of priced downtime the
    replica comes back — optionally with a fresh cache (the old
    version's cached rows are stale the moment the weights change) and
    a priced warm prefill of ``warm_rows``: either a row *count*
    (hottest-first, like crash recovery) or an explicit array of row
    ids (the delta checkpoint's touched rows).

    A swap with ``swap_s == 0``, no prefill and ``fresh_cache=False``
    is the degenerate zero-change rollout: the replay is bit-identical
    to not swapping at all — the oracle the test suite pins.
    """

    at_s: float  # relative to the trace start
    replica: int
    version: int = 0  # model version rolled in (reporting only)
    swap_s: float = 0.0  # downtime restarting onto the new weights
    warm_rows: Any = 0  # int count, or ndarray of row ids to prefill
    fresh_cache: bool = True  # invalidate the cache (weights changed)

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.replica < 0:
            raise ValueError(
                f"replica must be >= 0, got {self.replica}"
            )
        if self.swap_s < 0:
            raise ValueError(f"swap_s must be >= 0, got {self.swap_s}")

    def to_dict(self) -> Dict[str, Any]:
        rows = self.warm_rows
        return {
            "at_s": self.at_s,
            "replica": self.replica,
            "version": self.version,
            "swap_s": self.swap_s,
            "warm_rows": (
                int(rows.size) if isinstance(rows, np.ndarray) else int(rows)
            ),
            "fresh_cache": self.fresh_cache,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout / retry / backoff discipline.

    A request that lands on a dead or hung replica waits ``timeout_ms``
    before the client gives up on the attempt, then sleeps a capped
    exponential backoff — ``min(base * 2**(attempt-1), cap)`` shrunk by
    up to ``jitter`` of itself via a deterministic per-(request,
    attempt) hash — and re-routes.  ``max_retries`` bounds attempts per
    request; ``retry_budget`` bounds total retries fleet-wide to that
    fraction of offered load (the production guard against retry
    storms amplifying an outage).
    """

    timeout_ms: float = 1.0
    max_retries: int = 3
    backoff_base_ms: float = 0.25
    backoff_cap_ms: float = 2.0
    jitter: float = 0.5  # fraction of the backoff randomized away
    retry_budget: float = 0.25  # max total retries / offered requests

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError(
                f"timeout_ms must be positive, got {self.timeout_ms}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError(
                f"backoff_cap_ms ({self.backoff_cap_ms}) must be >= "
                f"backoff_base_ms ({self.backoff_base_ms})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    @property
    def timeout_s(self) -> float:
        return self.timeout_ms * 1e-3

    def backoff_s(self, req_id: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``req_id``.

        Deterministic: the jitter draw is a hash of the pair, so the
        retry timeline is bit-reproducible without any shared RNG.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_base_ms * float(2 ** (attempt - 1)),
            self.backoff_cap_ms,
        )
        u = _hash_unit(req_id, attempt)
        return base * (1.0 - self.jitter * u) * 1e-3


@dataclass(frozen=True)
class RecoveryModel:
    """Analytic MTTR model for a crashed replica.

    ``MTTR = detection + restore + replay`` where replay covers the
    progress lost since the last checkpoint — in expectation half a
    checkpoint period, replayed at ``replay_rate`` seconds per lost
    second.  Checkpointing more often therefore *monotonically* lowers
    MTTR; with no checkpoints at all (``checkpoint_period_s = 0``) the
    replica pays the full cold rebuild instead.
    """

    detection_s: float = 0.001
    restore_s: float = 0.002  # restart + checkpoint load (+ migration)
    checkpoint_period_s: float = 0.0  # 0 = no checkpoints: cold rebuild
    replay_rate: float = 0.5  # replay seconds per second of lost work
    cold_rebuild_s: float = 0.05  # full rebuild when nothing to restore
    warm_rows: int = 0  # cache rows prefilled into the revived replica

    def __post_init__(self) -> None:
        for name in (
            "detection_s",
            "restore_s",
            "checkpoint_period_s",
            "replay_rate",
            "cold_rebuild_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.warm_rows < 0:
            raise ValueError(f"warm_rows must be >= 0, got {self.warm_rows}")

    def mttr_s(self) -> float:
        """Mean time to restore a crashed replica to serving."""
        if self.checkpoint_period_s <= 0:
            return self.detection_s + self.cold_rebuild_s
        return (
            self.detection_s
            + self.restore_s
            + 0.5 * self.checkpoint_period_s * self.replay_rate
        )

    @classmethod
    def from_elastic_plan(
        cls,
        plan: Any,
        checkpoint_period_s: float,
        detection_s: float = 0.001,
        replay_rate: float = 0.5,
        warm_rows: int = 0,
    ) -> "RecoveryModel":
        """Price the restore leg with an elastic-restore plan.

        ``plan`` is a
        :class:`~repro.checkpoint.elastic.ElasticRestorePlan` — its
        priced shard-migration timing becomes ``restore_s``, so MTTR
        reflects the actual bytes the recovery has to move on this
        cluster rather than a guessed constant.
        """
        return cls(
            detection_s=detection_s,
            restore_s=float(plan.migration.seconds),
            checkpoint_period_s=checkpoint_period_s,
            replay_rate=replay_rate,
            warm_rows=warm_rows,
        )


# ----------------------------------------------------------------------
@dataclass
class FaultReport:
    """Outcome of one fault-injected fleet replay.

    ``fleet`` covers the requests that were actually served (the usual
    latency/throughput story); the remaining fields are the robustness
    ledger.  ``windows`` holds per-observation-window metrics —
    ``p99_ms`` is ``None`` for a window that served nothing — and
    ``slo_violation_fraction`` is the violated share of windows that
    served traffic (0.0 when no SLO was being watched).
    """

    fleet: FleetReport
    num_offered: int
    num_served: int
    num_lost: int
    num_retried: int  # distinct requests that retried at least once
    num_retries: int  # total retry attempts
    num_timeouts: int  # attempts abandoned after the client timeout
    num_degraded: int  # requests served stale during a fetch outage
    degraded_rows: int
    quality_cost: float  # stale_penalty * degraded request fraction
    slo_p99_ms: float  # 0.0 when no autoscaler watched an SLO
    slo_violation_fraction: float
    mttr_s: float  # mean over recovered crashes; 0.0 if none
    windows: List[Dict[str, Any]] = field(default_factory=list)
    scale_events: List[Dict[str, Any]] = field(default_factory=list)
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    fault_timeline: List[Dict[str, Any]] = field(default_factory=list)
    swaps: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def lost_fraction(self) -> float:
        return self.num_lost / self.num_offered if self.num_offered else 0.0

    @property
    def retried_fraction(self) -> float:
        return (
            self.num_retried / self.num_offered if self.num_offered else 0.0
        )

    @property
    def degraded_fraction(self) -> float:
        return (
            self.num_degraded / self.num_served if self.num_served else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fleet": self.fleet.to_dict(),
            "num_offered": self.num_offered,
            "num_served": self.num_served,
            "num_lost": self.num_lost,
            "num_retried": self.num_retried,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "num_degraded": self.num_degraded,
            "degraded_rows": self.degraded_rows,
            "lost_fraction": self.lost_fraction,
            "retried_fraction": self.retried_fraction,
            "degraded_fraction": self.degraded_fraction,
            "quality_cost": self.quality_cost,
            "slo_p99_ms": self.slo_p99_ms,
            "slo_violation_fraction": self.slo_violation_fraction,
            "mttr_s": self.mttr_s,
            "windows": [dict(w) for w in self.windows],
            "scale_events": [dict(e) for e in self.scale_events],
            "crashes": [dict(c) for c in self.crashes],
            "fault_timeline": [dict(e) for e in self.fault_timeline],
            "swaps": [dict(s) for s in self.swaps],
        }

    def summary(self) -> str:
        lat = self.fleet.fleet.latency_ms
        return (
            f"served {self.num_served}/{self.num_offered} "
            f"(lost {self.num_lost}, retried {self.num_retried}, "
            f"degraded {self.num_degraded}) "
            f"p99={lat['p99']:.3f}ms "
            f"slo_viol={self.slo_violation_fraction * 100.0:.1f}% "
            f"mttr={self.mttr_s * 1e3:.2f}ms"
        )


def __getattr__(name: str) -> Any:
    # ``ResilientFleet`` was the fault-replay engine before it and the
    # healthy fleet became one engine.  perfbench/tracer.py still
    # imports the name from here, so it resolves to that one engine —
    # lazily, because fleet.py imports this module at load time.
    if name == "ResilientFleet":
        from repro.serving.fleet import ServingFleet

        return ServingFleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
