"""Declarative run specifications for the :mod:`repro.api` session layer.

A :class:`RunSpec` is a small dataclass tree describing one end-to-end
workflow of the paper's §3.3 pipeline — which cluster to model
(:class:`ClusterSpec`), which synthetic click logs to generate
(:class:`DataSpec`), which model to build (:class:`ModelSpec`), how to
assign features to towers (:class:`PartitionSpec`), how to train
(:class:`TrainSpec`), which paper-scale configuration to price
(:class:`PerfSpec`), and which inference workload to serve
(:class:`ServeSpec`).  Every spec validates on construction and
round-trips through plain dicts / JSON, so a run can be stored next to
its results and re-executed bit-for-bit via ``dmt-repro run-spec``.

The serve, train, faults and autoscale sections are validated by the
runtime objects they map onto: each such section builds them through
their ``from_spec`` constructors (the one place its knobs are copied
and converted to runtime units) and reports a failure as a
:class:`SpecError`.  A section's own checks cover only what no runtime
object sees: cross-field placement rules and knobs that must stay at
their defaults because the run never reads them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.data.criteo import SyntheticCriteoConfig
from repro.hardware.specs import GPUGeneration, get_spec
from repro.serving import (
    ROUTER_POLICIES,
    AutoscalePolicy,
    FaultConfig,
    MicroBatcher,
    RecoveryModel,
    RetryPolicy,
    WorkloadConfig,
)
from repro.training import TrainConfig

__all__ = [
    "ClusterSpec",
    "DataSpec",
    "ModelSpec",
    "PartitionSpec",
    "TrainSpec",
    "PerfSpec",
    "ServeSpec",
    "CheckpointSpec",
    "TierSpec",
    "FaultSpec",
    "AutoscaleSpec",
    "OnlineSpec",
    "ABSpec",
    "RunSpec",
    "SpecError",
]


class SpecError(ValueError):
    """A run specification failed validation or deserialization."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _as_index(value: Any) -> int:
    """A feature index from JSON: integers only, no float truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"feature indices must be integers, got {value!r}"
        )
    return value


class _SpecBase:
    """Shared dict/JSON plumbing for the frozen spec dataclasses."""

    #: Field names whose JSON lists must come back as tuples.
    _TUPLE_FIELDS: Tuple[str, ...] = ()
    #: Field names holding nested tuples (tuple of tuples of int).
    _NESTED_TUPLE_FIELDS: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict (tuples become lists)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif f.name in self._NESTED_TUPLE_FIELDS and value is not None:
                value = [list(g) for g in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_SpecBase":
        _require(
            isinstance(data, dict),
            f"{cls.__name__} expects a mapping, got {type(data).__name__}",
        )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _require(
            not unknown,
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}",
        )
        try:
            kwargs: Dict[str, Any] = {}
            for f in fields(cls):
                if f.name not in data:
                    continue
                value = data[f.name]
                if f.name in cls._NESTED_TUPLE_FIELDS and value is not None:
                    value = tuple(tuple(_as_index(i) for i in g) for g in value)
                elif f.name in cls._TUPLE_FIELDS and value is not None:
                    value = tuple(value)
                kwargs[f.name] = value
            return cls(**kwargs)  # type: ignore[call-arg]
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid {cls.__name__}: {exc}") from exc

    @contextlib.contextmanager
    def _runtime_checks(self) -> Iterator[None]:
        """Report a runtime constructor's ``ValueError`` as a SpecError
        naming this section (the wording ``from_dict`` uses)."""
        try:
            yield
        except ValueError as exc:
            raise SpecError(f"invalid {type(self).__name__}: {exc}") from exc

    def _require_defaults(self, names: Tuple[str, ...], reason: str) -> None:
        """Knobs the run never reads (``reason``) must stay at their
        defaults, so a stored spec never pretends to change a run."""
        defaults = {f.name: f.default for f in fields(self)}
        for name in names:
            _require(
                getattr(self, name) == defaults[name],
                f"{name} has no effect with {reason}; leave it at its "
                f"default ({defaults[name]!r})",
            )

    def replace(self, **changes: Any) -> "_SpecBase":
        """Functional update (mirrors :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]

    def _coerce_tuple_fields(self) -> None:
        """Accept lists at direct construction; store hashable tuples.

        Called first from ``__post_init__`` of specs with tuple fields
        (the lru-cached session stages require hashable specs).
        """
        for name in self._NESTED_TUPLE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, tuple(tuple(g) for g in value)
                )
        for name in self._TUPLE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterSpec(_SpecBase):
    """The modeled datacenter topology (hosts x GPUs, one generation)."""

    num_hosts: int = 2
    gpus_per_host: int = 2
    generation: str = "A100"

    def __post_init__(self) -> None:
        _require(self.num_hosts >= 1, f"num_hosts must be >= 1, got {self.num_hosts}")
        _require(
            self.gpus_per_host >= 1,
            f"gpus_per_host must be >= 1, got {self.gpus_per_host}",
        )
        try:
            get_spec(self.generation)
        except KeyError:
            names = ", ".join(g.value for g in GPUGeneration)
            raise SpecError(
                f"unknown generation {self.generation!r}; "
                f"expected one of {names}"
            ) from None

    @property
    def world_size(self) -> int:
        return self.num_hosts * self.gpus_per_host


@dataclass(frozen=True)
class DataSpec(_SpecBase):
    """Synthetic Criteo-like click logs with planted block structure.

    Generator knobs mirror
    :class:`repro.data.criteo.SyntheticCriteoConfig` (same defaults)
    and map once, through
    :meth:`~repro.data.criteo.SyntheticCriteoConfig.from_spec`, whose
    config validates them; ``num_samples``/``eval_fraction`` describe
    the train/eval split and are checked here.
    The ``cvr_*`` knobs shape the conversion label column and are read
    only when the model's ``tasks`` include ``"cvr"`` (cross-checked
    at the RunSpec level).
    """

    num_dense: int = 13
    num_sparse: int = 26
    cardinality: int = 64
    num_blocks: int = 4
    rho: float = 0.85
    noise: float = 0.4
    cross_strength: float = 0.15
    cvr_correlation: float = 0.7
    cvr_bias: float = -1.0
    cvr_noise: float = 0.3
    num_samples: int = 12000
    eval_fraction: float = 1.0 / 3.0
    dataset_seed: int = 0
    sample_seed: int = 1

    def __post_init__(self) -> None:
        with self._runtime_checks():
            SyntheticCriteoConfig.from_spec(self)
        _require(self.num_samples >= 2, "num_samples must be >= 2")
        _require(
            0.0 < self.eval_fraction < 1.0,
            f"eval_fraction must be in (0, 1), got {self.eval_fraction}",
        )

    #: cvr knobs only matter when some arm's model learns a cvr head.
    _CVR_FIELDS = ("cvr_correlation", "cvr_bias", "cvr_noise")

    @property
    def has_cvr_knobs(self) -> bool:
        """True when any cvr generator knob departs from its default."""
        defaults = {f.name: f.default for f in fields(type(self))}
        return any(
            getattr(self, name) != defaults[name] for name in self._CVR_FIELDS
        )


#: Prediction tasks the model zoo understands.
MODEL_TASKS = ("ctr", "cvr")
#: Multi-task head architectures (see repro.models.multitask).
MODEL_HEADS = ("shared_bottom", "dbmtl")


@dataclass(frozen=True)
class ModelSpec(_SpecBase):
    """One recommendation model: family, variant, and dense sizing.

    ``tasks`` turns the single-logit CTR model into a multi-task one
    sharing the same embedding plane: the first task keeps the base
    model's top MLP, every further task gets its own ``head_mlp``
    tower (:class:`~repro.models.multitask.MultiTaskHead`) in ``head``
    mode — ``"shared_bottom"`` towers only, ``"dbmtl"`` adds a learned
    residual link from the primary logit.  The default
    ``tasks=("ctr",)`` is the bit-identical degenerate preset.
    """

    _TUPLE_FIELDS = ("bottom_mlp", "top_mlp", "tasks", "head_mlp",
                     "task_weights")

    family: str = "dlrm"  # "dlrm" | "dcn"
    variant: str = "dmt"  # "flat" | "dmt"
    embedding_dim: int = 16
    bottom_mlp: Tuple[int, ...] = (32,)
    top_mlp: Tuple[int, ...] = (64, 32)
    cross_layers: int = 0  # DCN only
    tower_dim: int = 8  # DMT only
    c: int = 1  # DMT-DLRM tower module width factor
    p: int = 0  # DMT-DLRM flat-bottleneck term
    pass_through: bool = False
    seed: int = 0
    # Multi-task knobs (no effect with a single task).
    tasks: Tuple[str, ...] = ("ctr",)
    head: str = "shared_bottom"  # "shared_bottom" | "dbmtl"
    head_mlp: Tuple[int, ...] = (32,)
    task_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        self._coerce_tuple_fields()
        _require(
            self.family in ("dlrm", "dcn"),
            f"family must be 'dlrm' or 'dcn', got {self.family!r}",
        )
        _require(
            self.variant in ("flat", "dmt"),
            f"variant must be 'flat' or 'dmt', got {self.variant!r}",
        )
        _require(self.embedding_dim >= 1, "embedding_dim must be >= 1")
        _require(
            all(h >= 1 for h in self.bottom_mlp + self.top_mlp),
            "MLP hidden sizes must be positive",
        )
        _require(
            self.family != "dcn" or self.cross_layers >= 1,
            "DCN models need cross_layers >= 1",
        )
        _require(self.tower_dim >= 1, "tower_dim must be >= 1")
        _require(self.c >= 0 and self.p >= 0, "c and p must be non-negative")
        _require(len(self.tasks) >= 1, "tasks must name at least one task")
        _require(
            all(t in MODEL_TASKS for t in self.tasks),
            f"unknown task(s) in {self.tasks}; expected from {MODEL_TASKS}",
        )
        _require(
            len(set(self.tasks)) == len(self.tasks),
            f"duplicate tasks in {self.tasks}",
        )
        # 'cvr' without 'ctr' constructs (the cvr-without-ctr speccheck
        # owns the diagnosis) but fails at data generation.
        _require(
            self.head in MODEL_HEADS,
            f"head must be one of {MODEL_HEADS}, got {self.head!r}",
        )
        _require(
            all(
                isinstance(h, int) and not isinstance(h, bool) and h >= 1
                for h in self.head_mlp
            ),
            "head_mlp hidden sizes must be positive ints",
        )
        if self.task_weights is not None:
            _require(
                len(self.task_weights) == len(self.tasks),
                f"{len(self.task_weights)} task_weights for "
                f"{len(self.tasks)} tasks",
            )
            _require(
                all(
                    isinstance(w, (int, float))
                    and not isinstance(w, bool)
                    and math.isfinite(w)
                    for w in self.task_weights
                ),
                f"task_weights must be finite numbers, got "
                f"{self.task_weights}",
            )
            # Non-positive weights construct (the task-weight-degenerate
            # speccheck owns that diagnosis).
        if len(self.tasks) == 1:
            # The multi-task knobs are never read on the single-task
            # path.
            self._require_defaults(
                ("head", "head_mlp", "task_weights"), "a single task"
            )


#: Strategies that require the interaction-probe -> TP pipeline.
_PROBE_STRATEGIES = ("probe", "coherent", "diverse")
#: All partition strategies the session layer understands.
PARTITION_STRATEGIES = _PROBE_STRATEGIES + ("naive", "contiguous", "given")


@dataclass(frozen=True)
class PartitionSpec(_SpecBase):
    """How features are assigned to towers.

    ``probe`` (alias ``coherent``) and ``diverse`` run the full §3.3
    pipeline — train a flat probe model, measure the interaction
    matrix, MDS-embed, constrained K-Means — with the named distance
    strategy.  ``naive`` is Table 6's strided baseline, ``contiguous``
    the block-structure oracle, and ``given`` takes explicit groups
    (``num_towers`` is then derived as ``len(groups)``).
    """

    _NESTED_TUPLE_FIELDS = ("groups",)

    strategy: str = "probe"
    #: None resolves to 4 (or, with 'given' groups, to len(groups)).
    num_towers: Optional[int] = None
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    probe_seed: int = 7
    probe_epochs: int = 2
    probe_batch_size: int = 256
    probe_sparse_lr: float = 0.05
    probe_samples: int = 6000
    mds_iterations: int = 800
    kmeans_seed: int = 0

    def __post_init__(self) -> None:
        self._coerce_tuple_fields()
        _require(
            self.strategy in PARTITION_STRATEGIES,
            f"unknown partition strategy {self.strategy!r}; "
            f"expected one of {PARTITION_STRATEGIES}",
        )
        if self.strategy == "given":
            _require(
                self.groups is not None,
                "strategy 'given' requires explicit groups",
            )
            assert self.groups is not None
            _require(
                len(self.groups) >= 1
                and all(len(g) >= 1 for g in self.groups),
                "every tower group must hold at least one feature",
            )
            flat = [f for g in self.groups for f in g]
            _require(
                all(isinstance(f, int) and f >= 0 for f in flat),
                "group entries must be non-negative feature indices",
            )
            _require(
                len(flat) == len(set(flat)),
                "a feature appears in more than one tower group",
            )
            _require(
                set(flat) == set(range(len(flat))),
                f"given groups must cover feature indices "
                f"0..{len(flat) - 1} exactly; got {sorted(flat)}",
            )
            _require(
                self.num_towers is None
                or self.num_towers == len(self.groups),
                f"num_towers={self.num_towers} conflicts with the "
                f"{len(self.groups)} given groups; drop it or make "
                f"them agree",
            )
            # num_towers is derived so cross-checks (one tower per host,
            # num_towers <= num_sparse) validate the real tower count.
            object.__setattr__(self, "num_towers", len(self.groups))
        else:
            _require(
                self.groups is None,
                f"groups are only valid with strategy 'given', "
                f"not {self.strategy!r}",
            )
            if self.num_towers is None:
                object.__setattr__(self, "num_towers", 4)
            _require(self.num_towers >= 1, "num_towers must be >= 1")
        _require(self.probe_epochs >= 1, "probe_epochs must be >= 1")
        _require(self.probe_batch_size >= 1, "probe_batch_size must be >= 1")
        _require(self.probe_sparse_lr > 0, "probe_sparse_lr must be positive")
        _require(self.probe_samples >= 1, "probe_samples must be >= 1")
        _require(self.mds_iterations >= 1, "mds_iterations must be >= 1")
        if not self.needs_probe:
            # No probe runs, so none of its knobs is read.
            self._require_defaults(
                (
                    "probe_seed",
                    "probe_epochs",
                    "probe_batch_size",
                    "probe_sparse_lr",
                    "probe_samples",
                    "mds_iterations",
                    "kmeans_seed",
                ),
                f"strategy={self.strategy!r}",
            )

    @property
    def needs_probe(self) -> bool:
        return self.strategy in _PROBE_STRATEGIES

    @property
    def tp_distance(self) -> str:
        """The TowerPartitioner distance strategy behind ``strategy``."""
        return "diverse" if self.strategy == "diverse" else "coherent"


@dataclass(frozen=True)
class TrainSpec(_SpecBase):
    """Training protocol: single-process quality or simulated cluster.

    ``mode='single'`` wraps :class:`repro.training.Trainer`;
    ``mode='simulated'`` runs the model-parallel
    :class:`repro.core.dmt_pipeline.DistributedDMTTrainer` on a
    :class:`repro.sim.SimCluster` (optionally verifying step losses
    against single-process training on the same global batches).

    The single-process knobs map once, through
    :meth:`repro.training.TrainConfig.from_spec`, which validates them;
    this section checks only ``mode`` and the simulated-mode knobs.
    """

    mode: str = "single"  # "single" | "simulated"
    batch_size: int = 256
    epochs: int = 2
    dense_lr: float = 1e-3
    sparse_lr: float = 0.03
    dense_optimizer: str = "adam"
    #: Embedding gradient path, honored in both modes: "rowwise"
    #: carries compact touched-row gradients (the fast path), "dense"
    #: is the table-sized reference.  Numerically equivalent.
    sparse_grad_mode: str = "rowwise"
    warmup_steps: int = 0
    seed: int = 0
    # simulated-mode knobs
    steps: int = 8
    global_batch: int = 128
    step_seed: int = 100
    verify: bool = True

    def __post_init__(self) -> None:
        _require(
            self.mode in ("single", "simulated"),
            f"mode must be 'single' or 'simulated', got {self.mode!r}",
        )
        with self._runtime_checks():
            TrainConfig.from_spec(self)
        _require(self.steps >= 1, "steps must be >= 1")
        _require(self.global_batch >= 1, "global_batch must be >= 1")
        # Each mode reads only its own knobs (plus the shared dense_lr
        # and sparse_grad_mode).
        self._require_defaults(
            (
                "batch_size",
                "epochs",
                "sparse_lr",
                "dense_optimizer",
                "warmup_steps",
                "seed",
            )
            if self.mode == "simulated"
            else ("steps", "global_batch", "step_seed", "verify"),
            f"mode={self.mode!r}",
        )


#: Placement arms the serving stage understands ("both" runs the
#: comparison on one shared request trace).
SERVE_PLACEMENTS = ("colocated", "disaggregated", "both")


@dataclass(frozen=True)
class ServeSpec(_SpecBase):
    """Priced inference serving: stream, batching, cache, placement.

    ``kind`` picks the paper-scale model profile to serve when the spec
    has no model section; a spec with one serves that model's geometry
    (trained first when a train section is present, freshly built
    otherwise).  ``placement='both'`` replays one
    request trace under colocated and disaggregated embedding
    placement, which is the comparison the ``serving`` experiment
    reports.

    ``scenario`` shapes the arrival process (stationary Poisson,
    diurnal sinusoid, or a flash crowd) and ``churn_keys_per_s`` drifts
    the popularity ranking.  Both modes replay through
    :class:`~repro.serving.fleet.ServingFleet`.  Without
    ``fleet_replicas`` the stage serves the shared-queue pool, the
    fleet's one-replica, all-dense-hosts preset: one batcher and one
    ``cache_rows``-row cache feeding every dense host.  Setting
    ``fleet_replicas`` serves a fleet of that many replicas instead
    (each with its own cache and batcher queue), routed by ``router``.

    The stream and batching knobs map once, through
    :meth:`repro.serving.WorkloadConfig.from_spec` and
    :meth:`repro.serving.MicroBatcher.from_spec`, and those runtime
    objects validate them; this section checks only the model kind,
    the cache against the key space, placement and the fleet.
    """

    kind: str = "dlrm"  # "dlrm" | "dcn" (profile when nothing is trained)
    qps: float = 500_000.0
    num_requests: int = 20_000
    key_space: int = 100_000
    skew: float = 1.0
    max_batch_size: int = 64
    max_queue_delay_ms: float = 1.0
    cache_rows: int = 16_384
    placement: str = "both"
    emb_hosts: Optional[int] = None  # default: max(1, num_hosts // 4)
    seed: int = 0
    # Scenario shaping (see repro.serving.workload).
    scenario: str = "poisson"
    diurnal_period_s: float = 1.0
    diurnal_amplitude: float = 0.5
    flash_start_s: float = 0.0
    flash_duration_s: float = 0.0
    flash_factor: float = 5.0
    churn_keys_per_s: float = 0.0
    # Fleet serving (None = the shared-queue pool over every dense host).
    fleet_replicas: Optional[int] = None
    router: str = "round_robin"

    def __post_init__(self) -> None:
        _require(
            self.kind in ("dlrm", "dcn"),
            f"kind must be 'dlrm' or 'dcn', got {self.kind!r}",
        )
        with self._runtime_checks():
            # The served model fixes num_lookups at serve time.
            WorkloadConfig.from_spec(self, num_lookups=1)
            MicroBatcher.from_spec(self)
        _require(self.cache_rows >= 0, "cache_rows must be >= 0")
        # Bugfix: a cache larger than the key space it fronts used to
        # slip through to the serving stage, where the LRU silently
        # never evicted while the fleet accounted (and priced) the full
        # allocation.  Rows beyond key_space can never be referenced,
        # so reject the overcommit at spec validation time.
        _require(
            self.cache_rows <= self.key_space,
            f"cache_rows={self.cache_rows} exceeds key_space="
            f"{self.key_space}: the cache would reserve rows the "
            f"workload can never reference",
        )
        _require(
            self.placement in SERVE_PLACEMENTS,
            f"unknown placement {self.placement!r}; expected one of "
            f"{SERVE_PLACEMENTS}",
        )
        _require(
            self.emb_hosts is None or self.emb_hosts >= 1,
            "emb_hosts must be >= 1 when given",
        )
        _require(
            self.fleet_replicas is None or self.fleet_replicas >= 1,
            "fleet_replicas must be >= 1 when given",
        )
        _require(
            self.router in ROUTER_POLICIES,
            f"unknown router {self.router!r}; expected one of "
            f"{ROUTER_POLICIES}",
        )
        if self.scenario != "diurnal":
            self._require_defaults(
                ("diurnal_period_s", "diurnal_amplitude"),
                f"scenario={self.scenario!r}",
            )
        if self.scenario != "flash":
            self._require_defaults(
                ("flash_start_s", "flash_duration_s", "flash_factor"),
                f"scenario={self.scenario!r}",
            )
        if self.fleet_replicas is None:
            self._require_defaults(("router",), "fleet_replicas=None")

    @property
    def uses_fleet(self) -> bool:
        return self.fleet_replicas is not None

    @property
    def serves_disaggregated(self) -> bool:
        return self.placement in ("disaggregated", "both")

    def resolved_emb_hosts(self, num_hosts: int) -> int:
        """The embedding-tier size on a given cluster (default: a
        quarter of the hosts, at least one)."""
        if self.emb_hosts is not None:
            return self.emb_hosts
        return max(1, num_hosts // 4)


@dataclass(frozen=True)
class CheckpointSpec(_SpecBase):
    """Fault-tolerance protocol: periodic saves, resume, warm-start.

    ``save_every_steps > 0`` wires periodic auto-save through the
    trainer into ``<directory>/<run name>/step_<n>`` (keeping the
    newest ``keep_last``).  ``resume_from`` names a checkpoint
    directory to restore before training continues — bit-identically
    when the rest of the spec matches the saved run, and with an
    elastic re-placement plan (re-partition + re-shard + priced
    migration) when the spec's cluster differs from the saved one.
    With a serve section, ``warm_start`` prefills each placement arm's
    LRU embedding cache from the checkpoint's hottest saved rows.
    """

    directory: str = "checkpoints"
    save_every_steps: int = 0
    keep_last: int = 2
    resume_from: Optional[str] = None
    warm_start: bool = True

    def __post_init__(self) -> None:
        _require(
            isinstance(self.directory, str) and bool(self.directory),
            "checkpoint directory must be a non-empty path",
        )
        _require(
            self.save_every_steps >= 0,
            f"save_every_steps must be >= 0, got {self.save_every_steps}",
        )
        _require(
            self.keep_last >= 1,
            f"keep_last must be >= 1, got {self.keep_last}",
        )
        _require(
            self.resume_from is None or bool(self.resume_from),
            "resume_from must be None or a non-empty path",
        )


@dataclass(frozen=True)
class PerfSpec(_SpecBase):
    """Paper-scale iteration pricing: hybrid baseline vs DMT."""

    kind: str = "dlrm"  # "dlrm" | "dcn"
    local_batch: int = 16384
    num_towers: Optional[int] = None  # default: one tower per host

    def __post_init__(self) -> None:
        _require(
            self.kind in ("dlrm", "dcn"),
            f"kind must be 'dlrm' or 'dcn', got {self.kind!r}",
        )
        _require(self.local_batch >= 1, "local_batch must be >= 1")
        _require(
            self.num_towers is None or self.num_towers >= 1,
            "num_towers must be >= 1 when given",
        )


#: Below-HBM local chain levels a TierSpec may name, in hierarchy order.
TIER_LEVELS = ("dram", "ssd")

#: Backing stores a TierSpec may name for chain misses.
TIER_BACKINGS = ("remote", "hbm")


@dataclass(frozen=True)
class TierSpec(_SpecBase):
    """Tiered embedding storage for the serving stage.

    Generalizes the single ``serve.cache_rows`` LRU into a multi-level
    chain over the memory hierarchy
    (:class:`repro.serving.TieredStorage`): level 0 stays the HBM cache
    sized by ``serve.cache_rows``; ``levels``/``cache_rows`` add local
    below-HBM levels (host DRAM, then NVMe) in order; ``backing`` says
    where chain misses are served from — ``"remote"`` is a parameter
    server behind the fabric (priced with its RPC latency and device
    bandwidth), ``"hbm"`` is the classic fetch-tier model (chain misses
    pay only the fabric transfer, which makes an empty-``levels`` spec
    bit-identical to not having a tiers section at all).
    """

    levels: Tuple[str, ...] = ("dram",)
    cache_rows: Tuple[int, ...] = (65_536,)
    backing: str = "remote"

    _TUPLE_FIELDS = ("levels", "cache_rows")

    def __post_init__(self) -> None:
        self._coerce_tuple_fields()
        _require(
            len(self.levels) == len(self.cache_rows),
            f"levels and cache_rows must have equal length, got "
            f"{len(self.levels)} and {len(self.cache_rows)}",
        )
        for name in self.levels:
            _require(
                name in TIER_LEVELS,
                f"unknown tier level {name!r}; expected one of {TIER_LEVELS}",
            )
        ranks = [TIER_LEVELS.index(n) for n in self.levels]
        _require(
            len(set(ranks)) == len(ranks) and ranks == sorted(ranks),
            f"levels must be unique and in hierarchy order {TIER_LEVELS}, "
            f"got {self.levels}",
        )
        for rows in self.cache_rows:
            _require(
                isinstance(rows, int) and not isinstance(rows, bool)
                and rows >= 0,
                f"cache_rows entries must be ints >= 0, got {rows!r}",
            )
        _require(
            self.backing in TIER_BACKINGS,
            f"unknown backing {self.backing!r}; expected one of "
            f"{TIER_BACKINGS}",
        )


@dataclass(frozen=True)
class FaultSpec(_SpecBase):
    """Seeded fault injection + client robustness for fleet serving.

    The fault half (``replica_crashes`` .. ``end_s``) expands into a
    deterministic :class:`repro.serving.FaultConfig` schedule over the
    served trace; the client half (``timeout_ms`` .. ``retry_budget``)
    becomes the :class:`repro.serving.RetryPolicy`; ``degraded_mode`` /
    ``stale_penalty`` control stale serving during fetch outages; and
    the recovery knobs (``recover_crashes`` .. ``warm_rows``) build the
    :class:`repro.serving.RecoveryModel` that prices MTTR against
    checkpoint cadence.  Requires ``serve.fleet_replicas`` — faults are
    a fleet story.

    Each half maps once, through the runtime class's ``from_spec``
    (which also converts the ``*_ms`` knobs to seconds), and those
    classes validate it; this section checks only ``stale_penalty``
    (a fleet argument) and that knobs of absent faults stay at their
    defaults.
    """

    seed: int = 0
    # Fault schedule (counts expand via the seed).
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
    # Client-side robustness.
    timeout_ms: float = 1.0
    max_retries: int = 3
    backoff_base_ms: float = 0.25
    backoff_cap_ms: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget: float = 0.25
    degraded_mode: bool = True
    stale_penalty: float = 0.05
    # Crash recovery (MTTR model); only read when replica_crashes > 0.
    recover_crashes: bool = True
    detection_ms: float = 1.0
    restore_ms: float = 2.0
    checkpoint_period_s: float = 0.0  # 0 = no checkpoints (cold rebuild)
    replay_rate: float = 0.5
    cold_rebuild_ms: float = 50.0
    warm_rows: int = 0

    def __post_init__(self) -> None:
        with self._runtime_checks():
            FaultConfig.from_spec(self)
            RetryPolicy.from_spec(self)
            RecoveryModel.from_spec(self)
        _require(
            self.stale_penalty >= 0,
            f"stale_penalty must be >= 0, got {self.stale_penalty}",
        )
        if self.replica_hangs == 0:
            self._require_defaults(("hang_duration_s",), "replica_hangs=0")
        if self.fetch_degrades == 0:
            self._require_defaults(
                ("degrade_duration_s", "degrade_factor"), "fetch_degrades=0"
            )
        if self.fetch_outages == 0:
            self._require_defaults(("outage_duration_s",), "fetch_outages=0")
        if self.replica_crashes == 0:
            self._require_defaults(
                (
                    "recover_crashes",
                    "detection_ms",
                    "restore_ms",
                    "checkpoint_period_s",
                    "replay_rate",
                    "cold_rebuild_ms",
                    "warm_rows",
                ),
                "replica_crashes=0",
            )


@dataclass(frozen=True)
class AutoscaleSpec(_SpecBase):
    """Closed-loop SLO autoscaling over the serving fleet.

    Becomes a :class:`repro.serving.AutoscalePolicy` through
    :meth:`~repro.serving.AutoscalePolicy.from_spec`, which converts
    the ``*_ms`` knobs to seconds and validates them: the fleet starts
    at ``serve.fleet_replicas`` and the controller moves it inside
    ``[min_replicas, max_replicas]`` on windowed p99/queue-depth
    evidence.  ``min_replicas > max_replicas`` is *not* rejected here —
    the ``autoscale-bounds-inverted`` speccheck owns that diagnosis, so
    a stored pathological spec still loads for analysis.
    """

    slo_p99_ms: float = 5.0
    min_replicas: int = 1
    max_replicas: int = 8
    window_ms: float = 0.0  # observation window; 0 = trace span / 20
    scale_step: int = 1
    provision_ms: float = 2.0
    cooldown_windows: int = 1
    queue_high: float = 16.0
    scale_down_margin: float = 0.5
    warm_rows: int = 0

    def __post_init__(self) -> None:
        # The policy checks max_replicas >= min_replicas >= 1; with the
        # bounds allowed to invert, max_replicas needs its own floor.
        _require(
            self.max_replicas >= 1,
            f"max_replicas must be >= 1, got {self.max_replicas}",
        )
        with self._runtime_checks():
            AutoscalePolicy.from_spec(
                self, max_replicas=max(self.min_replicas, self.max_replicas)
            )


@dataclass(frozen=True)
class OnlineSpec(_SpecBase):
    """Online training with delta checkpoints and hot-swap rollout.

    Runs the :mod:`repro.online` freshness loop: the data section's
    click stream is split into ``windows`` windows under **hot-set
    churn** — the live vocabulary (``data.cardinality`` ids) is mapped
    into embedding tables ``table_multiplier``\\ x larger, and every
    window boundary ``churn_fraction`` of the live slots remap to
    fresh rows (new items arriving, old ones going cold).  An
    :class:`~repro.online.OnlineDriver` trains through the stream,
    emitting a delta checkpoint per window (compacted back to a full
    save every ``compact_every`` deltas) and gating each deploy on a
    canary eval; the :class:`~repro.online.RolloutPlanner` turns the
    deploys into staged :class:`~repro.serving.SwapEvent` schedules
    (cumulative replica counts ``rollout_stages``, default canary →
    half → all) that the serving fleet replays against a frozen arm
    at equal provisioned cost.

    ``canary_threshold`` (the tolerated eval-AUC regression before
    automatic rollback) is deliberately *not* range-checked here — the
    ``canary-threshold-invalid`` speccheck owns that diagnosis, so a
    stored pathological spec still loads for analysis.  Likewise
    ``rollout_stages`` vs. the fleet size is cross-field and belongs
    to the ``rollout-exceeds-replicas`` speccheck.
    """

    _TUPLE_FIELDS = ("rollout_stages",)

    windows: int = 6
    window_samples: int = 768
    eval_samples: int = 384
    churn_fraction: float = 0.1
    table_multiplier: int = 16
    compact_every: int = 4
    canary_threshold: float = 0.01
    rollout_stages: Tuple[int, ...] = ()
    swap_downtime_ms: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._coerce_tuple_fields()
        _require(
            self.windows >= 2,
            f"online training needs windows >= 2, got {self.windows}",
        )
        _require(self.window_samples >= 1, "window_samples must be >= 1")
        _require(self.eval_samples >= 1, "eval_samples must be >= 1")
        _require(
            0.0 <= self.churn_fraction < 1.0,
            f"churn_fraction must be in [0, 1), got {self.churn_fraction}",
        )
        _require(
            self.table_multiplier >= 1,
            f"table_multiplier must be >= 1, got {self.table_multiplier}",
        )
        _require(
            self.compact_every >= 1,
            f"compact_every must be >= 1, got {self.compact_every}",
        )
        _require(
            all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 1
                for s in self.rollout_stages
            )
            and list(self.rollout_stages)
            == sorted(set(self.rollout_stages)),
            f"rollout_stages must be strictly increasing positive "
            f"replica counts, got {self.rollout_stages}",
        )
        _require(
            self.swap_downtime_ms >= 0,
            f"swap_downtime_ms must be >= 0, got {self.swap_downtime_ms}",
        )


@dataclass(frozen=True)
class ABSpec(_SpecBase):
    """Paired A/B comparison of two arms under identical seeded data.

    Arm A is the spec's own ``model``/``train`` sections; arm B
    overrides either or both via ``model_b``/``train_b`` (``None``
    inherits arm A's section).  For every seed ``s`` both arms train
    on the *same* generated dataset and batch order (§5.2 protocol:
    ``model.seed = 100 + s``, ``train.seed = s``), so the per-seed
    metric difference is a paired observation; :meth:`Session.ab`
    reports per-task mean deltas with a Student-t confidence interval
    at level ``confidence``.

    Two arms resolving to the identical model+train is the
    ``ab-arms-identical`` speccheck's diagnosis, not a construction
    error — a stored pathological spec still loads for analysis.
    """

    _TUPLE_FIELDS = ("seeds",)

    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    confidence: float = 0.95
    label_a: str = "A"
    label_b: str = "B"
    model_b: Optional[ModelSpec] = None
    train_b: Optional[TrainSpec] = None

    def __post_init__(self) -> None:
        self._coerce_tuple_fields()
        _require(
            len(self.seeds) >= 2,
            f"a paired confidence interval needs >= 2 seeds, got "
            f"{len(self.seeds)}",
        )
        _require(
            all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in self.seeds
            ),
            f"seeds must be non-negative ints, got {self.seeds}",
        )
        _require(
            len(set(self.seeds)) == len(self.seeds),
            f"seeds must be distinct, got {self.seeds}",
        )
        _require(
            0.0 < self.confidence < 1.0,
            f"confidence must be in (0, 1), got {self.confidence}",
        )
        for label in (self.label_a, self.label_b):
            _require(
                isinstance(label, str) and bool(label),
                "arm labels must be non-empty strings",
            )
        _require(
            self.label_a != self.label_b,
            f"arm labels must differ, got {self.label_a!r} twice",
        )
        _require(
            self.model_b is None or isinstance(self.model_b, ModelSpec),
            "model_b must be a ModelSpec or None",
        )
        _require(
            self.train_b is None or isinstance(self.train_b, TrainSpec),
            "train_b must be a TrainSpec or None",
        )
        if self.train_b is not None:
            _require(
                self.train_b.mode == "single",
                "ab arm B trains single-process; set train_b.mode='single'",
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ABSpec":
        _require(
            isinstance(data, dict),
            f"ABSpec expects a mapping, got {type(data).__name__}",
        )
        data = dict(data)
        if isinstance(data.get("model_b"), dict):
            data["model_b"] = ModelSpec.from_dict(data["model_b"])
        if isinstance(data.get("train_b"), dict):
            data["train_b"] = TrainSpec.from_dict(data["train_b"])
        return super().from_dict(data)  # type: ignore[return-value]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One declarative end-to-end run.

    Sections are optional: a pricing-only run needs ``cluster`` +
    ``perf``; a quality run needs ``data`` + ``model`` + ``train``
    (plus ``partition`` for DMT variants).  :class:`repro.api.Session`
    executes whichever stages the spec describes.

    Examples
    --------
    >>> spec = RunSpec(perf=PerfSpec(kind="dcn"))
    >>> RunSpec.from_dict(spec.to_dict()) == spec
    True
    """

    name: str = "run"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    data: Optional[DataSpec] = None
    model: Optional[ModelSpec] = None
    partition: Optional[PartitionSpec] = None
    train: Optional[TrainSpec] = None
    perf: Optional[PerfSpec] = None
    serve: Optional[ServeSpec] = None
    checkpoint: Optional[CheckpointSpec] = None
    tiers: Optional[TierSpec] = None
    faults: Optional[FaultSpec] = None
    autoscale: Optional[AutoscaleSpec] = None
    online: Optional[OnlineSpec] = None
    ab: Optional[ABSpec] = None

    _SECTIONS = {
        "cluster": ClusterSpec,
        "data": DataSpec,
        "model": ModelSpec,
        "partition": PartitionSpec,
        "train": TrainSpec,
        "perf": PerfSpec,
        "serve": ServeSpec,
        "checkpoint": CheckpointSpec,
        "tiers": TierSpec,
        "faults": FaultSpec,
        "autoscale": AutoscaleSpec,
        "online": OnlineSpec,
        "ab": ABSpec,
    }

    def __post_init__(self) -> None:
        _require(bool(self.name), "name must be non-empty")
        # The name doubles as a --save file stem; keep it a single
        # path component.
        _require(
            isinstance(self.name, str)
            and "/" not in self.name
            and "\\" not in self.name
            and self.name not in (".", ".."),
            f"name must be a plain file stem (no path separators), "
            f"got {self.name!r}",
        )
        _require(
            any(
                getattr(self, s) is not None
                for s in ("data", "partition", "train", "perf", "serve")
            ),
            "spec describes no work: set at least one of data, partition, "
            "train, perf, or serve",
        )
        if self.serve is not None:
            if self.serve.serves_disaggregated:
                emb_hosts = self.serve.resolved_emb_hosts(
                    self.cluster.num_hosts
                )
                _require(
                    emb_hosts < self.cluster.num_hosts,
                    f"disaggregated serving needs at least one dense host: "
                    f"emb_hosts={emb_hosts} on a {self.cluster.num_hosts}-"
                    f"host cluster",
                )
            if self.model is not None:
                # Serving a spec model builds it, which needs the same
                # prerequisites training does — fail at construction,
                # not mid-run.
                _require(
                    self.data is not None,
                    "serving the spec's model requires a data section",
                )
                _require(
                    self.model.variant != "dmt" or self.partition is not None,
                    "serving a DMT variant requires a partition section",
                )
        if self.tiers is not None:
            _require(
                self.serve is not None,
                "a tiers section configures serving storage and needs "
                "a serve section to act on",
            )
        if self.faults is not None:
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "a faults section injects failures into fleet serving; "
                "it needs a serve section with fleet_replicas set",
            )
        if self.autoscale is not None:
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "an autoscale section scales the serving fleet; it "
                "needs a serve section with fleet_replicas set",
            )
        if self.online is not None:
            _require(
                self.train is not None and self.train.mode == "single",
                "an online section streams windows through the single-"
                "process trainer; it needs a train section with "
                "mode='single'",
            )
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "an online section hot-swaps fleet replicas; it needs "
                "a serve section with fleet_replicas set",
            )
        if self.ab is not None:
            _require(
                self.train is not None and self.train.mode == "single",
                "an ab section replays two single-process training arms; "
                "it needs data, model, and train sections with "
                "train.mode='single'",
            )
            if self.ab.model_b is not None:
                assert self.model is not None  # train requires a model
                _require(
                    self.ab.model_b.tasks == self.model.tasks,
                    f"paired per-task deltas need aligned task lists: "
                    f"arm A has tasks={self.model.tasks}, arm B has "
                    f"tasks={self.ab.model_b.tasks}",
                )
                _require(
                    self.ab.model_b.variant != "dmt"
                    or self.partition is not None,
                    "ab arm B is a DMT variant and requires a partition "
                    "section",
                )
        if self.data is not None and self.data.has_cvr_knobs:
            _require(
                self.model is not None and "cvr" in self.model.tasks,
                "cvr_* data knobs shape the conversion label column, "
                "which is only generated for a model whose tasks "
                "include 'cvr'; leave them at their defaults or add "
                "'cvr' to model.tasks",
            )
        if self.checkpoint is not None:
            _require(
                self.train is not None or self.serve is not None,
                "a checkpoint section needs a train or serve section "
                "to act on",
            )
            if self.checkpoint.save_every_steps > 0:
                _require(
                    self.train is not None,
                    "checkpoint.save_every_steps requires a train section",
                )
            if self.train is not None and (
                self.checkpoint.save_every_steps > 0
                or self.checkpoint.resume_from is not None
            ):
                _require(
                    self.train.mode == "single",
                    "checkpoint save/resume covers single-process "
                    "training; set train.mode='single'",
                )
        if self.train is not None:
            _require(
                self.data is not None and self.model is not None,
                "train requires data and model sections",
            )
            if self.model.variant == "dmt":
                _require(
                    self.partition is not None,
                    "training a DMT variant requires a partition section",
                )
            if self.train.mode == "simulated":
                _require(
                    self.model.variant == "dmt",
                    "simulated training runs the DMT pipeline; "
                    "set model.variant='dmt'",
                )
                _require(
                    self.partition is not None
                    and self.partition.num_towers == self.cluster.num_hosts,
                    "simulated training pins one tower per host: "
                    "partition.num_towers must equal cluster.num_hosts",
                )
        if self.partition is not None and self.data is not None:
            _require(
                self.partition.num_towers <= self.data.num_sparse,
                f"cannot split {self.data.num_sparse} features into "
                f"{self.partition.num_towers} towers",
            )
            if self.partition.groups is not None:
                covered = {f for g in self.partition.groups for f in g}
                _require(
                    covered == set(range(self.data.num_sparse)),
                    f"given groups must cover features "
                    f"0..{self.data.num_sparse - 1} exactly; got "
                    f"{sorted(covered)}",
                )
        if self.partition is not None:
            if self.partition.needs_probe:
                _require(
                    self.data is not None and self.model is not None,
                    f"partition strategy {self.partition.strategy!r} trains "
                    f"a probe model and requires data and model sections",
                )
            elif self.partition.strategy in ("naive", "contiguous"):
                _require(
                    self.data is not None,
                    f"partition strategy {self.partition.strategy!r} derives "
                    f"the feature count from the data section; add one",
                )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        _require(
            isinstance(data, dict),
            f"RunSpec expects a mapping, got {type(data).__name__}",
        )
        unknown = set(data) - set(cls._SECTIONS) - {"name"}
        _require(
            not unknown,
            f"unknown RunSpec field(s): {', '.join(sorted(unknown))}",
        )
        kwargs: Dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = data["name"]
        for section, spec_cls in cls._SECTIONS.items():
            if section in data and data[section] is not None:
                kwargs[section] = spec_cls.from_dict(data[section])
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        for section in self._SECTIONS:
            value = getattr(self, section)
            if value is not None:
                out[section] = value.to_dict()
        return out

    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        with open(path) as fh:
            return cls.from_json(fh.read())
