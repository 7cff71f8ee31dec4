"""Tests for the train→serve freshness loop (PR 9).

Covers the three bugfix satellites — the ``train_window`` bookkeeping
path that replaced ``train_epoch``, the splitmix64 per-epoch shuffle
seed (no more ``seed + epoch`` aliasing), and ``CheckpointManager.pin``
protecting live checkpoints from retention pruning — plus the delta
checkpoint equivalence suite, the hot-swap zero-change oracle, the
:class:`~repro.online.OnlineDriver` / :class:`~repro.online.
RolloutPlanner` pair, and the ``Session.online`` acceptance criteria
(strict freshness dominance at equal serving cost, deltas >= 5x
smaller than full saves).
"""

import os
import shutil

import numpy as np
import pytest

from repro.api import Session
from repro.checkpoint import (
    CheckpointChainError,
    CheckpointManager,
    checkpoint_nbytes,
    delta_touched_rows,
    load_delta_checkpoint,
    resolve_delta_chain,
    save_delta_checkpoint,
    save_training_checkpoint,
)
from repro.data import random_batch
from repro.hardware import Cluster
from repro.models import DLRM
from repro.models.configs import DenseArch, tiny_table_configs
from repro.online import OnlineDriver, RolloutPlanner, stacked_touched_ids
from repro.serving import (
    MicroBatcher,
    Placement,
    RequestStream,
    ServingFleet,
    ServingModel,
    SwapEvent,
    WorkloadConfig,
)
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer
from repro.training.loop import _mix_epoch_seed

NUM_DENSE = 4
NUM_TABLES = 4
CARD = 64
DIM = 8


def build(mode="rowwise", init_seed=0):
    """A tiny trainable DLRM + trainer (geometry shared by all tests)."""
    model = DLRM(
        NUM_DENSE,
        tiny_table_configs(NUM_TABLES, CARD, DIM),
        DenseArch(embedding_dim=DIM, bottom_mlp=(16,), top_mlp=(16,)),
        rng=np.random.default_rng(init_seed),
    )
    trainer = Trainer(
        model,
        TrainConfig(batch_size=32, epochs=1, sparse_grad_mode=mode, seed=0),
    )
    return model, trainer


def window(i, n=128):
    """One deterministic stream window of (dense, ids, labels)."""
    return random_batch(
        n, NUM_DENSE, NUM_TABLES, CARD, rng=np.random.default_rng(100 + i)
    )


# ----------------------------------------------------------------------
class TestSeedMixRegression:
    """Bugfix: per-epoch shuffle seeds no longer alias across runs."""

    def test_old_colliding_pairs_now_distinct(self):
        # Under ``seed + epoch`` these replayed identical batch orders.
        assert _mix_epoch_seed(11, 1) != _mix_epoch_seed(12, 0)
        assert _mix_epoch_seed(0, 1) != _mix_epoch_seed(1, 0)

    def test_neighbouring_grid_is_collision_free(self):
        pairs = [(s, e) for s in range(16) for e in range(8)]
        mixed = {_mix_epoch_seed(s, e) for s, e in pairs}
        assert len(mixed) == len(pairs)

    def test_deterministic(self):
        assert _mix_epoch_seed(3, 5) == _mix_epoch_seed(3, 5)


# ----------------------------------------------------------------------
class TestTrainWindowBookkeeping:
    """Bugfix: the stream entry point routes through the bookkept
    epoch internals (the old ``train_epoch`` bypassed them)."""

    def test_train_epoch_is_gone(self):
        assert not hasattr(Trainer, "train_epoch")

    def test_window_advances_all_progress_counters(self):
        model, trainer = build()
        loss = trainer.train_window(*window(0))
        assert trainer.epoch == 1
        assert trainer.epoch_losses == [loss]
        assert trainer.global_step == 4  # 128 samples / batch 32
        assert len(trainer.loss_history) == 4
        state = trainer.state_dict()
        assert state["epoch"] == 1
        assert state["global_step"] == 4
        assert state["epoch_losses"] == [loss]

    def test_snapshot_resumes_bit_identically(self):
        model, trainer = build()
        trainer.train_window(*window(0))
        m2, t2 = build(init_seed=7)
        m2.load_state_dict(model.state_dict())
        t2.load_state_dict(trainer.state_dict())
        w1 = window(1)
        assert trainer.train_window(*w1) == t2.train_window(*w1)
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), m2.named_parameters()
        ):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)


# ----------------------------------------------------------------------
class TestCheckpointManagerPin:
    """Bugfix: retention pruning must not delete live checkpoints."""

    def test_pinned_base_survives_pruning(self, tmp_path):
        model, trainer = build()
        mgr = CheckpointManager(str(tmp_path), keep_last=1)
        trainer.train_window(*window(0))
        base = mgr.save(model, trainer)
        mgr.pin(base)
        trainer.train_window(*window(1))
        mgr.save(model, trainer)
        trainer.train_window(*window(2))
        latest = mgr.save(model, trainer)
        assert os.path.isdir(base)  # pinned: still loadable
        assert os.path.isdir(latest)
        assert len(mgr.saved_steps()) == 2  # pinned + newest only

    def test_unpinned_base_is_pruned(self, tmp_path):
        model, trainer = build()
        mgr = CheckpointManager(str(tmp_path), keep_last=1)
        trainer.train_window(*window(0))
        first = mgr.save(model, trainer)
        trainer.train_window(*window(1))
        mgr.save(model, trainer)
        assert not os.path.isdir(first)

    def test_pin_none_is_noop(self, tmp_path):
        CheckpointManager(str(tmp_path)).pin(None)


# ----------------------------------------------------------------------
class TestDeltaEquivalence:
    """A base + N deltas must restore bit-identically to a full save."""

    def _chain(self, mode, tmp_path, n_deltas=3):
        model, trainer = build(mode)
        trainer.train_window(*window(0))
        base = save_training_checkpoint(
            str(tmp_path / "v1_full"), model, trainer
        )
        last = base
        for i in range(1, n_deltas + 1):
            wi = window(i)
            trainer.train_window(*wi)
            last = save_delta_checkpoint(
                str(tmp_path / f"v{i + 1}_delta"),
                model,
                trainer,
                base=last,
                touched=delta_touched_rows(wi[1], NUM_TABLES),
            )
        return model, trainer, base, last

    @pytest.mark.parametrize("mode", ["rowwise", "dense"])
    def test_base_plus_deltas_bit_identical(self, mode, tmp_path):
        model, trainer, base, tip = self._chain(mode, tmp_path)
        m2, t2 = build(mode, init_seed=7)  # different init: must be overwritten
        load_delta_checkpoint(tip, m2, t2)
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), m2.named_parameters()
        ):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data), n1
        assert t2.global_step == trainer.global_step
        assert t2.epoch == trainer.epoch
        # The restored tip trains on bit-identically.
        w = window(9)
        assert trainer.train_window(*w) == t2.train_window(*w)

    def test_deltas_are_at_least_5x_smaller(self, tmp_path):
        # ISSUE acceptance: when the embedding plane dominates the
        # bytes (tables much larger than the hot set, the online
        # geometry), a touched-rows delta is >= 5x smaller than a full
        # save.
        model = DLRM(
            NUM_DENSE,
            tiny_table_configs(NUM_TABLES, 4096, DIM),
            DenseArch(embedding_dim=DIM, bottom_mlp=(16,), top_mlp=(16,)),
            rng=np.random.default_rng(0),
        )
        trainer = Trainer(model, TrainConfig(batch_size=32, epochs=1))
        w0 = random_batch(
            64, NUM_DENSE, NUM_TABLES, 4096, rng=np.random.default_rng(0)
        )
        trainer.train_window(*w0)
        base = save_training_checkpoint(
            str(tmp_path / "v1_full"), model, trainer
        )
        w1 = random_batch(
            64, NUM_DENSE, NUM_TABLES, 4096, rng=np.random.default_rng(1)
        )
        trainer.train_window(*w1)
        delta = save_delta_checkpoint(
            str(tmp_path / "v2_delta"),
            model,
            trainer,
            base=base,
            touched=delta_touched_rows(w1[1], NUM_TABLES),
        )
        assert checkpoint_nbytes(base) >= 5 * checkpoint_nbytes(delta)

    def test_chain_resolves_base_first(self, tmp_path):
        _, _, base, tip = self._chain("rowwise", tmp_path, n_deltas=2)
        chain = resolve_delta_chain(tip)
        assert len(chain) == 3
        assert chain[0] == base
        assert chain[-1] == tip
        # A bare full checkpoint is its own chain.
        assert resolve_delta_chain(base) == [base]

    def test_orphaned_chain_is_a_typed_error(self, tmp_path):
        _, _, base, tip = self._chain("rowwise", tmp_path)
        shutil.rmtree(base)
        with pytest.raises(CheckpointChainError, match="orphaned"):
            resolve_delta_chain(tip)
        m2, t2 = build()
        with pytest.raises(CheckpointChainError):
            load_delta_checkpoint(tip, m2, t2)

    def test_corrupt_link_is_a_typed_error(self, tmp_path):
        _, _, base, tip = self._chain("rowwise", tmp_path, n_deltas=2)
        middle = resolve_delta_chain(tip)[1]
        with open(os.path.join(middle, "manifest.json"), "w") as fh:
            fh.write("{ not json")
        with pytest.raises(CheckpointChainError):
            resolve_delta_chain(tip)

    def test_empty_delta_restores_base_exactly(self, tmp_path):
        # Zero touched rows: the delta only re-states the dense arch,
        # so the restore equals the base state (the zero-change swap).
        model, trainer = build()
        trainer.train_window(*window(0))
        base = save_training_checkpoint(
            str(tmp_path / "v1_full"), model, trainer
        )
        want = {k: v.copy() for k, v in model.state_dict().items()}
        delta = save_delta_checkpoint(
            str(tmp_path / "v2_delta"),
            model,
            trainer,
            base=base,
            touched={},
        )
        m2, t2 = build(init_seed=7)
        load_delta_checkpoint(delta, m2, t2)
        got = m2.state_dict()
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key


# ----------------------------------------------------------------------
class TestStackedTouchedIds:
    def test_offsets_follow_table_order(self):
        touched = {0: np.array([1, 3]), 2: np.array([0])}
        out = stacked_touched_ids(touched, [4, 4, 4])
        assert out.tolist() == [1, 3, 8]

    def test_empty_is_empty(self):
        out = stacked_touched_ids({}, [4, 4])
        assert out.size == 0
        assert out.dtype == np.int64


# ----------------------------------------------------------------------
class TestOnlineDriver:
    def _windows(self, n):
        return [(window(2 * i), window(2 * i + 1, n=64)) for i in range(n)]

    def test_rejects_bad_knobs(self, tmp_path):
        model, trainer = build()
        with pytest.raises(ValueError, match="compact_every"):
            OnlineDriver(model, trainer, str(tmp_path), compact_every=0)
        with pytest.raises(ValueError, match="canary_threshold"):
            OnlineDriver(model, trainer, str(tmp_path), canary_threshold=0.6)
        driver = OnlineDriver(model, trainer, str(tmp_path))
        with pytest.raises(ValueError, match="windows"):
            driver.run(self._windows(1))

    def test_run_emits_chain_and_gates(self, tmp_path):
        model, trainer = build()
        driver = OnlineDriver(
            model,
            trainer,
            str(tmp_path),
            compact_every=2,
            canary_threshold=0.45,  # wide-open gate: every deploy lands
        )
        report = driver.run(self._windows(4))
        assert len(report.windows) == 4
        assert report.windows[0]["staleness_windows"] == 0
        assert [c["kind"] for c in report.checkpoints] == [
            "full",
            "delta",
            "full",
            "delta",
        ]
        assert report.num_versions + report.num_rollbacks == 4
        assert report.full_nbytes > 0
        assert report.mean_delta_nbytes > 0
        # (No compression bar here: these toy tables are so small the
        # window touches every row — the >= 5x acceptance geometry is
        # pinned in TestDeltaEquivalence and the Session suite below.)
        # With no rollback the deployed version trails by one window.
        if report.num_rollbacks == 0:
            assert all(
                w["staleness_windows"] == 1 for w in report.windows[1:]
            )
            # The final window's deploy is past the trace end.
            assert len(report.rollouts) == 2
        # Every delta tip restores (the chain is well-formed on disk).
        tips = [c["path"] for c in report.checkpoints if c["kind"] == "delta"]
        m2, _ = build(init_seed=7)
        load_delta_checkpoint(tips[-1], m2)
        curve = report.staleness_curve()
        assert [p["window"] for p in curve] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
class TestRolloutPlanner:
    def test_default_stages(self):
        assert RolloutPlanner.default_stages(1) == (1,)
        assert RolloutPlanner.default_stages(2) == (1, 2)
        assert RolloutPlanner.default_stages(4) == (1, 2, 4)
        assert RolloutPlanner.default_stages(5) == (1, 3, 5)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="exceeds"):
            RolloutPlanner(2, 4, 1.0, stages=(1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            RolloutPlanner(4, 4, 1.0, stages=(2, 2, 4))
        with pytest.raises(ValueError, match="num_windows"):
            RolloutPlanner(4, 1, 1.0)

    def _rollout(self, **overrides):
        out = dict(
            deploy_window=1,
            version=2,
            rolled_back=False,
            warm_rows=np.array([3, 17], dtype=np.int64),
        )
        out.update(overrides)
        return out

    def test_staged_deploy_covers_the_fleet(self):
        planner = RolloutPlanner(4, 4, 4.0, swap_s=0.001)
        events = planner.plan([self._rollout()])
        # Stages (1, 2, 4): each replica swaps exactly once.
        assert sorted(e.replica for e in events) == [0, 1, 2, 3]
        assert all(e.version == 2 for e in events)
        assert all(e.swap_s == 0.001 for e in events)
        assert all(np.array_equal(e.warm_rows, [3, 17]) for e in events)
        # Canary first, fleet later; all within the deploy window.
        times = [e.at_s for e in events]
        assert times == sorted(times)
        assert times[0] == pytest.approx(1.0)  # boundary of window 1
        assert times[-1] < 2.0

    def test_rollback_pays_twice_on_the_canary(self):
        planner = RolloutPlanner(4, 4, 4.0)
        events = planner.plan(
            [self._rollout(rolled_back=True, version=3)]
        )
        assert len(events) == 2
        assert [e.replica for e in events] == [0, 0]
        assert [e.version for e in events] == [3, 2]

    def test_deploys_past_trace_end_are_skipped(self):
        planner = RolloutPlanner(4, 4, 4.0)
        assert planner.plan([self._rollout(deploy_window=4)]) == []
        # ... unless rolled back: the canary still briefly served it.
        events = planner.plan(
            [self._rollout(deploy_window=4, rolled_back=True)]
        )
        assert len(events) == 2


# ----------------------------------------------------------------------
class TestZeroChangeSwapOracle:
    """A swap with no downtime, no prefill, and a kept cache must be
    bit-identical to not swapping at all."""

    def _fleet(self, swaps=()):
        sim = SimCluster(
            Cluster(num_hosts=4, gpus_per_host=2, generation="A100")
        )
        return ServingFleet(
            sim,
            ServingModel(
                name="tiny", num_lookups=4, embedding_dim=16, dense_mflops=1.0
            ),
            Placement("disaggregated", emb_hosts=1),
            MicroBatcher(16, 0.001),
            num_replicas=3,
            cache_rows=256,
            swaps=swaps,
        )

    def test_oracle(self):
        requests = RequestStream(
            WorkloadConfig(
                qps=50_000.0,
                num_requests=2000,
                num_lookups=4,
                key_space=2000,
                seed=3,
            )
        ).generate()
        span = requests[-1].arrival_s
        noop = SwapEvent(
            at_s=0.5 * span,
            replica=0,
            version=2,
            swap_s=0.0,
            warm_rows=0,
            fresh_cache=False,
        )
        base = self._fleet().serve(requests).to_dict()
        swapped = self._fleet(swaps=(noop,)).serve(requests).to_dict()
        assert base.pop("swaps") == []
        assert len(swapped.pop("swaps")) == 1
        assert swapped == base


# ----------------------------------------------------------------------
class TestSessionOnlineAcceptance:
    """The ISSUE's acceptance bar, end to end through the facade."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        from repro.experiments.model_freshness import freshness_spec

        tmp = str(tmp_path_factory.mktemp("online"))
        return Session(freshness_spec(fast=True, directory=tmp)).online()

    def test_hot_swapped_arm_strictly_dominates(self, artifact):
        assert artifact.freshness_dominates
        assert artifact.mean_online_auc > artifact.mean_frozen_auc

    def test_deltas_compress_at_least_5x(self, artifact):
        assert artifact.report.delta_compression >= 5.0

    def test_equal_serving_cost(self, artifact):
        online = artifact.fault_reports["online"]
        frozen = artifact.fault_reports["frozen"]
        # Same trace, same replica count: every request served by both.
        assert online.fleet.fleet.num_requests == frozen.fleet.fleet.num_requests
        assert len(online.swaps) == len(artifact.swap_events) > 0
        assert frozen.swaps == []

    def test_summary_shape(self, artifact):
        summary = artifact.summary()
        assert summary["freshness_dominates"] is True
        assert summary["num_swaps"] == len(artifact.swap_events)
        assert set(summary["arms"]) == {"online", "frozen"}
        assert summary["delta_compression"] >= 5.0
