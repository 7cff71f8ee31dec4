"""The :class:`Session` facade: lazy, staged execution of a RunSpec.

``Session(RunSpec(...)).run()`` reproduces the paper's full §3.3
workflow — generate click logs, train a probe, learn the tower
partition, build the DMT model, shard the tables, train, and price the
iteration — in one call.  Each stage is also callable on its own
(``build_cluster`` / ``load_data`` / ``build_model`` / ``partition`` /
``plan`` / ``train`` / ``price`` / ``serve``, plus ``save_checkpoint`` /
``resume`` / ``elastic_plan`` when a checkpoint section is present, and
``analyze`` — plan-time static validation that also auto-gates
``train``/``serve`` unless the session is built with
``analyze=False``);
stages compose the existing
subpackages, cache their artifacts on the session, and pull in their
prerequisites lazily, so a pricing-only spec never touches the data
generator and a quality-only spec never builds paper-scale profiles.

Dataset generation and the probe->TP pipeline are additionally cached
*across* sessions (keyed by their spec sections), so seed sweeps that
only vary model/train seeds — the §5.2 protocol — pay for data and
partitioning once.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.api.results import (
    ABArtifact,
    CheckpointArtifact,
    DataArtifact,
    OnlineArtifact,
    PartitionArtifact,
    PlanArtifact,
    PriceArtifact,
    RunResult,
    ServeArtifact,
    TierPlanArtifact,
    TrainArtifact,
)
from repro.api.spec import (
    ABSpec,
    CheckpointSpec,
    DataSpec,
    ModelSpec,
    OnlineSpec,
    PartitionSpec,
    RunSpec,
    ServeSpec,
    SpecError,
)
from repro.checkpoint import (
    CheckpointManager,
    CheckpointMismatchError,
    load_training_checkpoint,
    plan_elastic_restore,
    read_manifest,
    save_training_checkpoint,
)
from repro.core.dmt_pipeline import DistributedDMTTrainer
from repro.core.partition import FeaturePartition
from repro.data import (
    SyntheticCriteoConfig,
    SyntheticCriteoDataset,
    train_eval_split,
)
from repro.hardware import Cluster, tier_topology
from repro.models import (
    DCN,
    DLRM,
    DMTDCN,
    DMTDLRM,
    MultiTaskModel,
    criteo_table_configs,
    tiny_table_configs,
)
from repro.models.configs import DenseArch
from repro.nn import Adam, BCEWithLogitsLoss, TableConfig, set_sparse_grad_mode
from repro.partitioner import TowerPartitioner, interaction_from_activations
from repro.perf.iteration_model import IterationLatencyModel
from repro.perf.profiles import baseline_profile, dmt_profile_for_towers
from repro.planner import AutoPlanner, TierPlanner
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RecoveryModel,
    RequestStream,
    RetryPolicy,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    TieredPlacementEngine,
    WorkloadConfig,
    build_storage,
)
from repro.online import OnlineDriver, RolloutPlanner
from repro.sim import SimCluster
from repro.training import MultiTaskEvalResult, TrainConfig, Trainer

__all__ = ["Session", "spec_auc_sweep"]

#: Probe-arch key: the dense sizing the probe model shares with the spec.
_ArchKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


@functools.lru_cache(maxsize=16)
def _dataset_for(data: DataSpec) -> SyntheticCriteoDataset:
    return SyntheticCriteoDataset(
        SyntheticCriteoConfig.from_spec(data), seed=data.dataset_seed
    )


@functools.lru_cache(maxsize=16)
def _split_for(data: DataSpec):
    dataset = _dataset_for(data)
    return train_eval_split(
        *dataset.sample(data.num_samples, seed=data.sample_seed),
        eval_fraction=data.eval_fraction,
    )


@functools.lru_cache(maxsize=16)
def _task_split_for(data: DataSpec, tasks: Tuple[str, ...]):
    """Multi-task variant of :func:`_split_for` — (n, T) label matrix.

    A separate cache entry per task tuple; the single-task path keeps
    using :func:`_split_for` untouched (its labels stay 1-D and its
    RNG consumption is the bit-identical golden path).
    """
    dataset = _dataset_for(data)
    return train_eval_split(
        *dataset.sample_tasks(
            data.num_samples, tasks=tasks, seed=data.sample_seed
        ),
        eval_fraction=data.eval_fraction,
    )


@functools.lru_cache(maxsize=16)
def _probed_partition(
    data: DataSpec, part: PartitionSpec, arch_key: _ArchKey
):
    """Train a flat probe, measure interactions, run the TP pipeline.

    Returns ``(TPResult, probe EvalResult)``.  Cached across sessions:
    a seed sweep re-partitions once, exactly like the hand-wired
    ``learned_tp_partition`` helper it replaces.
    """
    embedding_dim, bottom_mlp, top_mlp = arch_key
    (td, ti, tl), (ed, ei, el) = _split_for(data)
    tables = tiny_table_configs(data.num_sparse, data.cardinality, embedding_dim)
    arch = DenseArch(
        embedding_dim=embedding_dim, bottom_mlp=bottom_mlp, top_mlp=top_mlp
    )
    probe = DLRM(
        data.num_dense, tables, arch, rng=np.random.default_rng(part.probe_seed)
    )
    trainer = Trainer(
        probe,
        TrainConfig(
            batch_size=part.probe_batch_size,
            epochs=part.probe_epochs,
            seed=part.probe_seed,
            sparse_lr=part.probe_sparse_lr,
        ),
    )
    trainer.fit(td, ti, tl)
    probe_eval = trainer.evaluate(ed, ei, el)
    interaction = interaction_from_activations(
        probe.embeddings(ti[: part.probe_samples]), center=True
    )
    tp = TowerPartitioner(
        part.num_towers,
        strategy=part.tp_distance,
        mds_iterations=part.mds_iterations,
    )
    result = tp.partition_from_interaction(
        interaction, rng=np.random.default_rng(part.kmeans_seed)
    )
    return result, probe_eval


def clear_caches() -> None:
    """Drop the cross-session dataset / probe caches (mainly for tests)."""
    _dataset_for.cache_clear()
    _split_for.cache_clear()
    _task_split_for.cache_clear()
    _probed_partition.cache_clear()


# ----------------------------------------------------------------------
class Session:
    """Staged, cached execution of one :class:`RunSpec`.

    Examples
    --------
    >>> from repro.api import ClusterSpec, PerfSpec, RunSpec, Session
    >>> spec = RunSpec(cluster=ClusterSpec(8, 8, "H100"),
    ...                perf=PerfSpec(kind="dcn", num_towers=8))
    >>> art = Session(spec).price()
    >>> art.speedup > 1.0
    True
    """

    def __init__(
        self, spec: "RunSpec | Dict[str, Any]", analyze: bool = True
    ):
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        if not isinstance(spec, RunSpec):
            raise SpecError(
                f"Session expects a RunSpec or dict, got {type(spec).__name__}"
            )
        self.spec = spec
        #: Auto-run plan-time static validation before train/serve;
        #: ``Session(spec, analyze=False)`` opts out (e.g. to study a
        #: deliberately pathological configuration).
        self.auto_analyze = analyze
        self._artifacts: Dict[str, Any] = {}

    def _stage(self, name: str, builder) -> Any:
        if name not in self._artifacts:
            self._artifacts[name] = builder()
        return self._artifacts[name]

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def analyze(self):
        """Plan-time static validation: every finding, no execution.

        Returns the full ``List[Diagnostic]`` (errors *and* warnings)
        from :func:`repro.analysis.analyze_spec`.  Cached like any
        other stage.  Stages that would execute a misconfigured spec
        (:meth:`train`, :meth:`serve`) call this automatically and
        raise :class:`~repro.analysis.SpecAnalysisError` on ``error``
        findings unless the session was built with ``analyze=False``.
        """
        # Imported lazily: repro.analysis.speccheck imports
        # repro.api.spec, so a module-level import here would cycle
        # through repro.api.__init__ during speccheck's own import.
        from repro.analysis.speccheck import analyze_spec

        return self._stage("analyze", lambda: analyze_spec(self.spec))

    def _ensure_analyzed(self) -> None:
        """Gate executing stages on a clean static analysis."""
        if not self.auto_analyze:
            return
        from repro.analysis.speccheck import SpecAnalysisError

        diagnostics = self.analyze()
        if any(d.severity == "error" for d in diagnostics):
            raise SpecAnalysisError(diagnostics)

    def _need(self, section: str) -> Any:
        value = getattr(self.spec, section)
        if value is None:
            raise SpecError(
                f"spec {self.spec.name!r} has no {section} section, "
                f"required by this stage"
            )
        return value

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def build_cluster(self) -> Cluster:
        """The modeled datacenter topology."""
        return self._stage(
            "cluster",
            lambda: Cluster(
                self.spec.cluster.num_hosts,
                self.spec.cluster.gpus_per_host,
                self.spec.cluster.generation,
            ),
        )

    def load_data(self) -> DataArtifact:
        """Generate click logs and split them (cached across sessions)."""

        def build() -> DataArtifact:
            data = self._need("data")
            # A multi-task model section switches the labels to the
            # (n, T) per-task matrix; everything else (features, split
            # point, CTR column values) is bit-identical to the
            # single-task draw.
            model = self.spec.model
            if model is not None and len(model.tasks) > 1:
                train, evals = _task_split_for(data, model.tasks)
            else:
                train, evals = _split_for(data)
            return DataArtifact(
                dataset=_dataset_for(data), train=train, eval=evals
            )

        return self._stage("data", build)

    def partition(self) -> PartitionArtifact:
        """Assign features to towers per the partition strategy."""

        def build() -> PartitionArtifact:
            part: PartitionSpec = self._need("partition")
            if part.strategy == "given":
                assert part.groups is not None  # enforced by the spec
                return PartitionArtifact(
                    strategy=part.strategy,
                    partition=FeaturePartition.from_groups(part.groups),
                )
            if part.strategy in ("naive", "contiguous"):
                data = self._need("data")
                maker = (
                    FeaturePartition.strided
                    if part.strategy == "naive"
                    else FeaturePartition.contiguous
                )
                return PartitionArtifact(
                    strategy=part.strategy,
                    partition=maker(data.num_sparse, part.num_towers),
                )
            # probe / coherent / diverse: the learned §3.3 pipeline.
            model: ModelSpec = self._need("model")
            arch_key = (model.embedding_dim, model.bottom_mlp, model.top_mlp)
            # Normalize alias strategies ('probe' == 'coherent') so
            # they share one cache entry.
            cache_part = part.replace(strategy=part.tp_distance)
            tp_result, probe_eval = _probed_partition(
                self._need("data"), cache_part, arch_key
            )
            return PartitionArtifact(
                strategy=part.strategy,
                partition=tp_result.partition,
                tp_result=tp_result,
                probe_eval=probe_eval,
            )

        return self._stage("partition", build)

    def _make_model(self, cardinality: Optional[int] = None):
        """A fresh model instance per the model spec (not cached).

        ``cardinality`` overrides the table row count (the online stage
        builds tables larger than the live vocabulary so hot-set churn
        has fresh rows to rotate into).
        """
        data: DataSpec = self._need("data")
        model: ModelSpec = self._need("model")
        tables = tiny_table_configs(
            data.num_sparse,
            cardinality if cardinality is not None else data.cardinality,
            model.embedding_dim,
        )
        arch = DenseArch(
            embedding_dim=model.embedding_dim,
            bottom_mlp=model.bottom_mlp,
            top_mlp=model.top_mlp,
            cross_layers=model.cross_layers,
        )
        rng = np.random.default_rng(model.seed)
        if model.variant == "flat":
            cls = DLRM if model.family == "dlrm" else DCN
            base = cls(data.num_dense, tables, arch, rng=rng)
        elif model.family == "dlrm":
            base = DMTDLRM(
                data.num_dense,
                tables,
                self.partition().partition,
                arch,
                tower_dim=model.tower_dim,
                c=model.c,
                p=model.p,
                pass_through=model.pass_through,
                rng=rng,
            )
        else:
            base = DMTDCN(
                data.num_dense,
                tables,
                self.partition().partition,
                arch,
                tower_dim=model.tower_dim,
                pass_through=model.pass_through,
                rng=rng,
            )
        if len(model.tasks) <= 1:
            # Degenerate preset: the base model itself — same object,
            # same RNG draws, bit-identical to the pre-multi-task path.
            return base
        # The head draws from the same stream *after* the base model,
        # so the shared plane's initialization is unchanged by adding
        # tasks (same model.seed => same base weights either way).
        return MultiTaskModel(
            base,
            tasks=model.tasks,
            head=model.head,
            head_mlp=model.head_mlp,
            task_weights=model.task_weights,
            rng=rng,
        )

    def build_model(self):
        """The spec's model (DMT variants consume the partition stage)."""
        return self._stage("model", self._make_model)

    def plan(self) -> PlanArtifact:
        """Shard the embedding tables across the cluster's ranks.

        Quality specs (with a data section) shard the tiny tables they
        train; pricing-only specs shard the paper-scale Criteo tables
        (§5.1's setting).
        """

        def build() -> PlanArtifact:
            cluster = self.build_cluster()
            if self.spec.data is not None:
                dim = (
                    self.spec.model.embedding_dim
                    if self.spec.model is not None
                    else 16
                )
                tables = tiny_table_configs(
                    self.spec.data.num_sparse, self.spec.data.cardinality, dim
                )
                scale = "tiny"
                train = self.spec.train
                if train is None:
                    batch = 256
                elif train.mode == "single":
                    batch = train.batch_size
                else:
                    batch = train.global_batch
            else:
                tables = criteo_table_configs()
                scale, batch = "paper", (
                    self.spec.perf.local_batch
                    if self.spec.perf is not None
                    else 16384
                )
            plan = AutoPlanner(cluster.world_size).plan(tables)
            return PlanArtifact(plan=plan, scale=scale, batch_size=batch)

        return self._stage("plan", build)

    def train(self) -> TrainArtifact:
        """Run the training stage (single-process or simulated cluster)."""

        def build() -> TrainArtifact:
            train = self._need("train")
            self._ensure_analyzed()
            if train.mode == "single":
                return self._train_single()
            return self._train_simulated()

        return self._stage("train", build)

    def _train_single(self) -> TrainArtifact:
        train = self.spec.train
        art = self.load_data()
        model = self.build_model()
        trainer = Trainer(model, TrainConfig.from_spec(train))
        ck = self.spec.checkpoint
        on_step_end = None
        if ck is not None:
            record = self._checkpoint_record()
            if ck.resume_from is not None:
                metadata = read_manifest(ck.resume_from)["metadata"]
                # The data section must match the saved run exactly:
                # the geometry and train-config checks inside the
                # loader cannot see a changed sample count or seed, and
                # a resumed shuffle over different data would be a
                # silent non-bit-identical "continuation".
                saved_data = (metadata.get("spec") or {}).get("data")
                if saved_data is not None and saved_data != (
                    self.spec.data.to_dict()
                ):
                    diff = sorted(
                        k
                        for k in set(saved_data)
                        | set(self.spec.data.to_dict())
                        if saved_data.get(k)
                        != self.spec.data.to_dict().get(k)
                    )
                    raise CheckpointMismatchError(
                        f"checkpoint {ck.resume_from!r} was saved under "
                        f"a different data section (fields {diff}); "
                        f"resuming on different data cannot be "
                        f"bit-identical"
                    )
                load_training_checkpoint(ck.resume_from, model, trainer)
                record.resumed_from = ck.resume_from
                record.resumed_step = trainer.global_step
                # A different cluster shape than the one the run was
                # saved under triggers the elastic re-placement plan.
                saved = metadata.get("cluster")
                if saved is not None:
                    saved_world = int(saved.get("num_hosts", 1)) * int(
                        saved.get("gpus_per_host", 1)
                    )
                    if saved_world != self.spec.cluster.world_size:
                        record.elastic = self._elastic_plan()
            if ck.save_every_steps > 0:
                manager = CheckpointManager(
                    os.path.join(ck.directory, self.spec.name),
                    every_steps=ck.save_every_steps,
                    keep_last=ck.keep_last,
                )
                # The resumed-from checkpoint stays live (a re-resume,
                # a serve warm-start, a delta chain's base may all
                # still reference it) — exempt it from retention.
                manager.pin(ck.resume_from)
                save_kwargs = self._checkpoint_save_kwargs()

                def on_step_end(tr, _m=manager, _kw=save_kwargs):
                    path = _m.maybe_save(model, tr, **_kw)
                    if path is not None:
                        self._checkpoint_record().saved_path = path

        epoch_losses = trainer.fit(*art.train, on_step_end=on_step_end)
        eval_result = trainer.evaluate(*art.eval)
        return TrainArtifact(
            mode="single",
            model=model,
            trainer=trainer,
            eval_result=eval_result,
            epoch_losses=[float(x) for x in epoch_losses],
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_record(self) -> CheckpointArtifact:
        """The (lazily created) checkpoint artifact this run accretes."""
        return self._stage("checkpoint", CheckpointArtifact)

    def _checkpoint_save_kwargs(self) -> Dict[str, Any]:
        """Partition provenance to embed in saved checkpoints."""
        kwargs: Dict[str, Any] = {"spec": self.spec}
        if self.spec.partition is not None:
            part = self.partition()
            kwargs["partition"] = part.partition
            if part.tp_result is not None:
                kwargs["interaction"] = part.tp_result.interaction
        return kwargs

    def save_checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the trained model + trainer state to ``path``.

        Runs the training stage first if it has not run yet.  The
        default path is ``<checkpoint.directory>/<run name>/final``
        (requiring a checkpoint section only when no explicit path is
        given).  Only single-process training checkpoints.
        """
        train = self._need("train")
        if train.mode != "single":
            raise SpecError(
                "save_checkpoint covers single-process training; "
                f"got train.mode={train.mode!r}"
            )
        if path is None:
            ck: CheckpointSpec = self._need("checkpoint")
            path = os.path.join(ck.directory, self.spec.name, "final")
        art = self.train()
        save_training_checkpoint(
            path, art.model, art.trainer, **self._checkpoint_save_kwargs()
        )
        self._checkpoint_record().saved_path = path
        return path

    def resume(self) -> TrainArtifact:
        """Resume training from ``checkpoint.resume_from``.

        With an unchanged spec the continued run is bit-identical to
        one that never stopped; with a different cluster section the
        elastic re-placement plan is computed alongside (see
        :meth:`elastic_plan`).
        """
        ck: CheckpointSpec = self._need("checkpoint")
        if ck.resume_from is None:
            raise SpecError(
                f"spec {self.spec.name!r} has no checkpoint.resume_from "
                f"to resume"
            )
        return self.train()

    def _elastic_plan(self):
        ck: CheckpointSpec = self._need("checkpoint")
        if ck.resume_from is None:
            raise SpecError(
                "elastic_plan requires checkpoint.resume_from"
            )
        part = self.spec.partition
        return plan_elastic_restore(
            ck.resume_from,
            self.build_cluster(),
            num_towers=part.num_towers if part is not None else None,
        )

    def elastic_plan(self):
        """Re-partition/re-shard/price the resume checkpoint onto this
        spec's cluster (an :class:`repro.checkpoint.ElasticRestorePlan`)."""
        record = self._checkpoint_record()
        if record.elastic is None:
            record.elastic = self._elastic_plan()
        return record.elastic

    def _train_simulated(self) -> TrainArtifact:
        train = self.spec.train
        dataset = _dataset_for(self._need("data"))
        sim = SimCluster(self.build_cluster())
        dist_model = self.build_model()
        # The SPTT exchange scatter-adds into the shared tables; the
        # spec knob decides whether that lands as compact row-wise
        # gradients (densified only at the Adam step below) or as the
        # dense reference.  Either way the update math is identical.
        set_sparse_grad_mode(dist_model, train.sparse_grad_mode)
        dmt_trainer = DistributedDMTTrainer(sim, dist_model)
        opts = [Adam(dist_model.parameters(), lr=train.dense_lr)]
        ref_model = self._make_model() if train.verify else None
        if ref_model is not None:
            set_sparse_grad_mode(ref_model, train.sparse_grad_mode)
        ref_opt = (
            Adam(ref_model.parameters(), lr=train.dense_lr)
            if ref_model is not None
            else None
        )
        loss_mod = BCEWithLogitsLoss()
        losses: List[float] = []
        ref_losses: List[float] = []
        for step in range(train.steps):
            dense, ids, labels = dataset.sample(
                train.global_batch, seed=train.step_seed + step
            )
            losses.append(float(dmt_trainer.fit_step(dense, ids, labels, opts)))
            if ref_model is not None:
                ref_opt.zero_grad()
                ref_losses.append(
                    float(loss_mod(ref_model(dense, ids), labels))
                )
                ref_model.backward(loss_mod.backward())
                ref_opt.step()
        max_drift = None
        if ref_model is not None:
            max_drift = max(
                float(np.abs(p1.data - p2.data).max())
                for p1, p2 in zip(
                    dist_model.parameters(), ref_model.parameters()
                )
            )
        return TrainArtifact(
            mode="simulated",
            model=dist_model,
            trainer=dmt_trainer,
            losses=losses,
            ref_losses=ref_losses,
            max_drift=max_drift,
            timeline=sim.timeline.format_table(),
        )

    def price(self) -> PriceArtifact:
        """Model the per-iteration latency at paper scale."""

        def build() -> PriceArtifact:
            perf = self._need("perf")
            cluster = self.build_cluster()
            towers = (
                perf.num_towers
                if perf.num_towers is not None
                else cluster.num_hosts
            )
            model = IterationLatencyModel()
            baseline = model.hybrid(
                baseline_profile(perf.kind), cluster, perf.local_batch
            )
            dmt = model.dmt(
                dmt_profile_for_towers(perf.kind, towers),
                cluster,
                perf.local_batch,
            )
            return PriceArtifact(baseline=baseline, dmt=dmt)

        return self._stage("price", build)

    def serve(self) -> ServeArtifact:
        """Serve a priced synthetic request stream (one trace, one or
        two placement arms).

        A spec with a model section serves that model's geometry —
        trained first when a train section is present, freshly built
        otherwise (with its tower partition, if any).  Only a spec
        with no model at all serves the paper-scale profile named by
        ``serve.kind``.
        """

        def build() -> ServeArtifact:
            serve: ServeSpec = self._need("serve")
            self._ensure_analyzed()
            cluster = self.build_cluster()
            if self.spec.model is not None:
                model_obj = (
                    self.train().model
                    if self.spec.train is not None
                    else self.build_model()
                )
                partition = (
                    self.partition().partition
                    if self.spec.partition is not None
                    else None
                )
                model = ServingModel.from_trained(model_obj, partition)
            else:
                model = ServingModel.from_profile(
                    baseline_profile(serve.kind)
                )
            requests = RequestStream(
                WorkloadConfig.from_spec(serve, model.num_lookups)
            ).generate()
            placements = (
                ("colocated", "disaggregated")
                if serve.placement == "both"
                else (serve.placement,)
            )
            emb_hosts = serve.resolved_emb_hosts(cluster.num_hosts)
            ck = self.spec.checkpoint
            warm_from = (
                ck.resume_from
                if ck is not None and ck.warm_start
                else None
            )
            tiers = self.spec.tiers
            storage = (
                build_storage(
                    self.spec.cluster.generation,
                    serve.cache_rows,
                    levels=tiers.levels,
                    cache_rows=tiers.cache_rows,
                    backing=tiers.backing,
                )
                if tiers is not None
                else None
            )
            fs = self.spec.faults
            asp = self.spec.autoscale
            fault_cfg: Optional[FaultConfig] = None
            retry_cfg: Optional[RetryPolicy] = None
            recovery_cfg: Optional[RecoveryModel] = None
            if fs is not None:
                fault_cfg = FaultConfig.from_spec(fs)
                retry_cfg = RetryPolicy.from_spec(fs)
                if fs.replica_crashes > 0 and fs.recover_crashes:
                    restore: Dict[str, float] = {}
                    if ck is not None and ck.resume_from is not None:
                        # A resumable checkpoint on this cluster: price
                        # the restore leg with the actual elastic
                        # re-placement migration instead of restore_ms.
                        restore["restore_s"] = float(
                            self.elastic_plan().migration.seconds
                        )
                    recovery_cfg = RecoveryModel.from_spec(fs, **restore)

            def make_autoscaler() -> Optional[SLOAutoscaler]:
                # Fresh controller per placement arm — cooldown state
                # must not leak across arms.
                if asp is None:
                    return None
                return SLOAutoscaler(AutoscalePolicy.from_spec(asp))

            def make_cache() -> Any:
                if storage is not None:
                    return storage.make_chain(LRUEmbeddingCache)
                return LRUEmbeddingCache(serve.cache_rows)

            reports, timelines = {}, {}
            fleet_reports, fault_reports = {}, {}
            for strategy in placements:
                sim = SimCluster(cluster)
                batcher = MicroBatcher.from_spec(serve)
                placement = Placement(strategy, emb_hosts=emb_hosts)
                engine = (
                    TieredPlacementEngine(sim, model, placement, storage)
                    if storage is not None
                    else None
                )

                # Faults, autoscaling and tiers are arguments of the
                # one engine (the spec layer keeps faults and
                # autoscaling on fleets); without fleet_replicas it
                # serves as the shared-queue pool.
                server = ServingFleet(
                    sim,
                    model,
                    placement,
                    batcher,
                    router=serve.router,
                    num_replicas=serve.fleet_replicas,
                    cache_factory=make_cache,
                    router_seed=serve.seed,
                    engine=engine,
                    faults=fault_cfg,
                    retry=retry_cfg,
                    recovery=recovery_cfg,
                    autoscaler=make_autoscaler(),
                    degraded_mode=(
                        fs.degraded_mode if fs is not None else True
                    ),
                    stale_penalty=(
                        fs.stale_penalty if fs is not None else 0.05
                    ),
                    shared_queue=not serve.uses_fleet,
                )
                if warm_from is not None:
                    seeded = server.warm_start_from_checkpoint(warm_from)
                    self._checkpoint_record().warm_start_rows[
                        strategy
                    ] = seeded
                outcome = server.serve(requests)
                if serve.uses_fleet:
                    # Only a faults or autoscale section asks for the
                    # robustness ledger.
                    if fs is not None or asp is not None:
                        fault_reports[strategy] = outcome
                    fleet_reports[strategy] = outcome.fleet
                reports[strategy] = outcome.fleet.fleet
                timelines[strategy] = sim.timeline
            return ServeArtifact(
                model=model,
                reports=reports,
                timelines=timelines,
                fleet_reports=fleet_reports,
                fault_reports=fault_reports,
            )

        return self._stage("serve", build)

    def tier_plan(self) -> TierPlanArtifact:
        """Hotness-driven row placement over the spec's tier hierarchy.

        Plans where the served key space's rows live — HBM cache, DRAM
        / SSD chain levels, remote backing — under the byte budgets the
        tiers section implies, using the analytic Zipf hotness model at
        ``serve.skew`` (the same skew the request sampler draws with).
        """

        def build() -> TierPlanArtifact:
            tiers = self._need("tiers")
            serve: ServeSpec = self._need("serve")
            dim = (
                self.spec.model.embedding_dim
                if self.spec.model is not None
                else 128
            )
            row_bytes = dim * 4
            table = TableConfig(
                name="served_rows",
                num_embeddings=serve.key_space,
                dim=dim,
                pooling=1,
            )
            names = ("hbm",) + tuple(tiers.levels)
            if tiers.backing == "remote":
                names = names + ("remote",)
            topology = tier_topology(
                self.spec.cluster.generation, names=names
            )
            budgets: Dict[str, float] = {
                "hbm": float(serve.cache_rows * row_bytes)
            }
            for name, rows in zip(tiers.levels, tiers.cache_rows):
                budgets[name] = float(rows * row_bytes)
            if tiers.backing == "hbm":
                # HBM itself backs the table: every row is provisioned
                # there, so its budget is unbounded and the chain
                # levels only ever hold inclusive copies.
                budgets["hbm"] = float("inf")
            plan = TierPlanner(topology=topology, budgets=budgets).plan(
                [table], serve.skew
            )
            chain_rows = {"hbm": serve.cache_rows}
            for name, rows in zip(tiers.levels, tiers.cache_rows):
                chain_rows[name] = rows
            return TierPlanArtifact(
                plan=plan, backing=tiers.backing, chain_rows=chain_rows
            )

        return self._stage("tier_plan", build)

    def online(self) -> OnlineArtifact:
        """Run the train→serve freshness loop (online section).

        Streams ``online.windows`` windows of the data section's click
        logs through a fresh trainer under **hot-set churn**: the live
        vocabulary (``data.cardinality`` ids per feature) is embedded
        into tables ``online.table_multiplier``\\ x larger, and every
        window boundary ``online.churn_fraction`` of the live slots
        remap to fresh (untrained) rows.  The
        :class:`~repro.online.OnlineDriver` emits a delta checkpoint
        per window and canary-gates each deploy; the resulting rollout
        schedule is replayed as staged hot swaps on a
        :class:`~repro.serving.ServingFleet` against a frozen arm on
        the *same* request trace — equal provisioned cost, so any AUC
        gap is pure freshness.
        """

        def build() -> OnlineArtifact:
            on: OnlineSpec = self._need("online")
            serve: ServeSpec = self._need("serve")
            train = self._need("train")
            ck: CheckpointSpec = self._need("checkpoint")
            data: DataSpec = self._need("data")
            self._ensure_analyzed()
            cluster = self.build_cluster()
            dataset = _dataset_for(data)

            hot = data.cardinality
            card = hot * on.table_multiplier
            model = self._make_model(cardinality=card)
            trainer = Trainer(model, TrainConfig.from_spec(train))

            # The churned stream: per-feature hot-slot -> table-row
            # maps, re-pointed for a fraction of slots each boundary.
            rng = np.random.default_rng(on.seed)
            num_sparse = data.num_sparse
            maps = np.stack(
                [
                    rng.choice(card, size=hot, replace=False)
                    for _ in range(num_sparse)
                ]
            )
            cols = np.arange(num_sparse)
            windows = []
            for w in range(on.windows):
                if w > 0 and on.churn_fraction > 0:
                    churned = max(1, int(round(on.churn_fraction * hot)))
                    for f in range(num_sparse):
                        slots = rng.choice(hot, size=churned, replace=False)
                        maps[f, slots] = rng.choice(
                            card, size=churned, replace=False
                        )
                td, ti, tl = dataset.sample(
                    on.window_samples, seed=data.sample_seed + 1000 * (w + 1)
                )
                ed, ei, el = dataset.sample(
                    on.eval_samples,
                    seed=data.sample_seed + 1000 * (w + 1) + 500,
                )
                windows.append(
                    ((td, maps[cols, ti], tl), (ed, maps[cols, ei], el))
                )

            driver = OnlineDriver(
                model,
                trainer,
                os.path.join(ck.directory, self.spec.name, "online"),
                compact_every=on.compact_every,
                canary_threshold=on.canary_threshold,
            )
            report = driver.run(windows)

            # Replay one request trace twice at equal provisioned cost:
            # with the planned hot swaps, and frozen.
            strategy = (
                "disaggregated"
                if serve.serves_disaggregated
                else serve.placement
            )
            partition = (
                self.partition().partition
                if self.spec.partition is not None
                else None
            )
            serving_model = ServingModel.from_trained(model, partition)
            requests = RequestStream(
                WorkloadConfig.from_spec(serve, serving_model.num_lookups)
            ).generate()
            span_s = max(
                requests[-1].arrival_s - requests[0].arrival_s, 1e-9
            )
            planner = RolloutPlanner(
                serve.fleet_replicas,
                on.windows,
                span_s,
                stages=on.rollout_stages,
                swap_s=on.swap_downtime_ms * 1e-3,
            )
            swaps = planner.plan(report.rollouts)

            emb_hosts = serve.resolved_emb_hosts(cluster.num_hosts)
            fault_reports = {}
            for arm, arm_swaps in (("online", swaps), ("frozen", ())):
                sim = SimCluster(cluster)
                fleet = ServingFleet(
                    sim,
                    serving_model,
                    Placement(strategy, emb_hosts=emb_hosts),
                    MicroBatcher.from_spec(serve),
                    router=serve.router,
                    num_replicas=serve.fleet_replicas,
                    cache_rows=serve.cache_rows,
                    router_seed=serve.seed,
                    swaps=arm_swaps,
                )
                fault_reports[arm] = fleet.serve(requests)
            return OnlineArtifact(
                report=report,
                swap_events=list(swaps),
                fault_reports=fault_reports,
                placement=strategy,
            )

        return self._stage("online", build)

    def ab(self) -> ABArtifact:
        """Run the paired A/B comparison (ab section).

        For every seed ``s`` both arms train on the *identical*
        generated dataset and batch order (the session-layer data
        cache keys on the data section, which both arms share) under
        the §5.2 protocol — ``model.seed = 100 + s``, ``train.seed =
        s`` — so each seed yields one *paired* observation per task
        and metric.  The artifact reports the per-task mean deltas
        (B − A) with a Student-t confidence interval at the spec's
        ``confidence`` level.
        """

        def build() -> ABArtifact:
            ab: ABSpec = self._need("ab")
            self._need("data")
            model_a: ModelSpec = self._need("model")
            train_a = self._need("train")
            self._ensure_analyzed()
            arms = (
                (ab.label_a, model_a, train_a),
                (
                    ab.label_b,
                    ab.model_b if ab.model_b is not None else model_a,
                    ab.train_b if ab.train_b is not None else train_a,
                ),
            )
            tasks = model_a.tasks
            metric_names = ("auc", "log_loss", "normalized_entropy")
            values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
                label: {t: {m: [] for m in metric_names} for t in tasks}
                for label, _, _ in arms
            }
            for s in ab.seeds:
                for label, model, train in arms:
                    arm_spec = self.spec.replace(
                        name=f"{self.spec.name}-{label}-s{s}",
                        model=model.replace(seed=100 + s),
                        train=train.replace(seed=s),
                        perf=None,
                        serve=None,
                        checkpoint=None,
                        tiers=None,
                        faults=None,
                        autoscale=None,
                        online=None,
                        ab=None,
                    )
                    res = (
                        Session(arm_spec, analyze=self.auto_analyze)
                        .train()
                        .eval_result
                    )
                    by_task = (
                        res.by_task
                        if isinstance(res, MultiTaskEvalResult)
                        else {tasks[0]: res}
                    )
                    for t in tasks:
                        r = by_task[t]
                        values[label][t]["auc"].append(float(r.auc))
                        values[label][t]["log_loss"].append(
                            float(r.log_loss)
                        )
                        values[label][t]["normalized_entropy"].append(
                            float(r.normalized_entropy)
                        )
            n = len(ab.seeds)
            tcrit = float(
                _scipy_stats.t.ppf(0.5 + ab.confidence / 2.0, n - 1)
            )
            metrics: Dict[str, Dict[str, Dict[str, Any]]] = {}
            for t in tasks:
                metrics[t] = {}
                for m in metric_names:
                    a_vals = values[ab.label_a][t][m]
                    b_vals = values[ab.label_b][t][m]
                    deltas = [b - a for a, b in zip(a_vals, b_vals)]
                    mean = float(np.mean(deltas))
                    sd = float(np.std(deltas, ddof=1))
                    half = tcrit * sd / math.sqrt(n)
                    ci_low, ci_high = mean - half, mean + half
                    metrics[t][m] = {
                        "a_values": a_vals,
                        "b_values": b_vals,
                        "deltas": deltas,
                        "mean_delta": mean,
                        "ci_low": float(ci_low),
                        "ci_high": float(ci_high),
                        # NaN endpoints (a skipped gated metric) compare
                        # False on both sides -> never "significant".
                        "excludes_zero": bool(
                            ci_low > 0.0 or ci_high < 0.0
                        ),
                    }
            return ABArtifact(
                label_a=ab.label_a,
                label_b=ab.label_b,
                seeds=tuple(ab.seeds),
                confidence=ab.confidence,
                tasks=tuple(tasks),
                metrics=metrics,
            )

        return self._stage("ab", build)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every stage the spec describes; collect a RunResult."""
        spec = self.spec
        result = RunResult(
            name=spec.name,
            spec=spec.to_dict(),
            cluster=RunResult.cluster_summary(self.build_cluster()),
        )
        if spec.data is not None:
            result.data = self.load_data().summary()
        if spec.partition is not None:
            result.partition = self.partition().summary()
        if spec.model is not None or spec.perf is not None:
            result.plan = self.plan().summary()
        if spec.train is not None:
            result.train = self.train().summary()
        if spec.perf is not None:
            result.price = self.price().summary()
        if spec.serve is not None:
            result.serve = self.serve().summary()
        if spec.tiers is not None:
            result.tier_plan = self.tier_plan().summary()
        if spec.online is not None:
            result.online = self.online().summary()
        if spec.ab is not None:
            result.ab = self.ab().summary()
        if "checkpoint" in self._artifacts:
            summary = self._artifacts["checkpoint"].summary()
            if summary:
                result.checkpoint = summary
        return result


# ----------------------------------------------------------------------
def spec_auc_sweep(
    spec: RunSpec, seeds: Tuple[int, ...]
) -> Tuple[float, float, List[float]]:
    """(median, std, values) of eval AUC across seeds — §5.2's statistic.

    Per the quality protocol, seed ``s`` trains with ``train.seed = s``
    and model initialization ``model.seed = 100 + s``; data and any
    probed partition are shared across the sweep via the session-layer
    caches.
    """
    if spec.train is None or spec.model is None:
        raise SpecError(
            "spec_auc_sweep needs a spec with model and train sections"
        )
    if spec.train.mode != "single":
        raise SpecError(
            "spec_auc_sweep measures eval AUC, which only single-process "
            "training produces; got train.mode="
            f"{spec.train.mode!r}"
        )
    values: List[float] = []
    for s in seeds:
        run = spec.replace(
            model=spec.model.replace(seed=100 + s),
            train=spec.train.replace(seed=s),
        )
        values.append(float(Session(run).train().eval_result.auc))
    return float(np.median(values)), float(np.std(values, ddof=1)), values
