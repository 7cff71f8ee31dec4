"""Spec sections against the runtime configs they build.

The data, serve, train, faults and autoscale sections are validated by
the runtime objects they map onto.  The rejection table pins that every
knob those sections validate still rejects an out-of-range value, from
direct construction and from ``RunSpec.from_dict``, with a message that
names the knob (by its spec name or, where units differ, its runtime
name).  The mapping-equivalence tests pin each ``from_spec`` mapping,
ms→s conversions included, against runtime objects written out by
hand for the experiments' own specs.
"""

import pytest

from repro.api import (
    AutoscaleSpec,
    DataSpec,
    FaultSpec,
    RunSpec,
    ServeSpec,
    SpecError,
    TrainSpec,
)
from repro.experiments.fault_tolerance import cadence_spec, mitigated_spec
from repro.experiments.model_freshness import freshness_spec
from repro.api.presets import train_dmt_criteo_spec
from repro.data import SyntheticCriteoConfig
from repro.experiments.serving_fleet import fleet_spec
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    MicroBatcher,
    RecoveryModel,
    RetryPolicy,
    WorkloadConfig,
)
from repro.training import TrainConfig

_FLASH = dict(scenario="flash", flash_duration_s=0.001)
_DIURNAL = dict(scenario="diurnal")
_SIM = dict(mode="simulated")
_CRASH = dict(replica_crashes=1)

#: (section, spec class, bad kwargs, names any of which the message
#: must contain).
REJECTIONS = [
    # DataSpec
    ("data", DataSpec, dict(num_dense=0), ("num_dense",)),
    ("data", DataSpec, dict(num_sparse=3), ("num_sparse",)),
    ("data", DataSpec, dict(num_blocks=0), ("num_blocks",)),
    ("data", DataSpec, dict(cardinality=1), ("cardinality",)),
    ("data", DataSpec, dict(rho=1.5), ("rho",)),
    ("data", DataSpec, dict(noise=-0.1), ("noise",)),
    ("data", DataSpec, dict(cvr_correlation=-0.1), ("cvr_correlation",)),
    ("data", DataSpec, dict(cvr_bias=float("inf")), ("cvr_bias",)),
    ("data", DataSpec, dict(cvr_noise=-0.1), ("cvr_noise",)),
    ("data", DataSpec, dict(num_samples=1), ("num_samples",)),
    ("data", DataSpec, dict(eval_fraction=1.0), ("eval_fraction",)),
    # ServeSpec
    ("serve", ServeSpec, dict(kind="xlm"), ("kind",)),
    ("serve", ServeSpec, dict(qps=0.0), ("qps",)),
    ("serve", ServeSpec, dict(num_requests=0), ("num_requests",)),
    ("serve", ServeSpec, dict(key_space=0, cache_rows=0), ("key_space",)),
    ("serve", ServeSpec, dict(skew=-0.5), ("skew",)),
    ("serve", ServeSpec, dict(max_batch_size=0), ("max_batch_size",)),
    (
        "serve",
        ServeSpec,
        dict(max_queue_delay_ms=-1.0),
        ("max_queue_delay_ms", "max_delay_s"),
    ),
    ("serve", ServeSpec, dict(cache_rows=-1), ("cache_rows",)),
    ("serve", ServeSpec, dict(cache_rows=100_001), ("cache_rows",)),
    ("serve", ServeSpec, dict(placement="edge"), ("placement",)),
    ("serve", ServeSpec, dict(emb_hosts=0), ("emb_hosts",)),
    ("serve", ServeSpec, dict(scenario="weekend"), ("scenario",)),
    (
        "serve",
        ServeSpec,
        dict(_DIURNAL, diurnal_period_s=0.0),
        ("diurnal_period_s",),
    ),
    (
        "serve",
        ServeSpec,
        dict(_DIURNAL, diurnal_amplitude=1.5),
        ("diurnal_amplitude",),
    ),
    ("serve", ServeSpec, dict(_FLASH, flash_start_s=-1.0), ("flash_start_s",)),
    (
        "serve",
        ServeSpec,
        dict(scenario="flash", flash_duration_s=0.0),
        ("flash_duration_s",),
    ),
    ("serve", ServeSpec, dict(_FLASH, flash_factor=0.5), ("flash_factor",)),
    ("serve", ServeSpec, dict(churn_keys_per_s=-1.0), ("churn_keys_per_s",)),
    ("serve", ServeSpec, dict(fleet_replicas=0), ("fleet_replicas",)),
    ("serve", ServeSpec, dict(fleet_replicas=2, router="random"), ("router",)),
    # TrainSpec
    ("train", TrainSpec, dict(mode="async"), ("mode",)),
    ("train", TrainSpec, dict(batch_size=0), ("batch_size",)),
    ("train", TrainSpec, dict(epochs=0), ("epochs",)),
    ("train", TrainSpec, dict(dense_lr=0.0), ("dense_lr",)),
    ("train", TrainSpec, dict(sparse_lr=-1.0), ("sparse_lr",)),
    (
        "train",
        TrainSpec,
        dict(dense_optimizer="rmsprop"),
        ("dense_optimizer",),
    ),
    ("train", TrainSpec, dict(sparse_grad_mode="csr"), ("sparse_grad_mode",)),
    ("train", TrainSpec, dict(warmup_steps=-1), ("warmup_steps",)),
    ("train", TrainSpec, dict(_SIM, steps=0), ("steps",)),
    ("train", TrainSpec, dict(_SIM, global_batch=0), ("global_batch",)),
    # FaultSpec: schedule
    ("faults", FaultSpec, dict(seed=-1), ("seed",)),
    ("faults", FaultSpec, dict(replica_crashes=-1), ("replica_crashes",)),
    ("faults", FaultSpec, dict(replica_hangs=-1), ("replica_hangs",)),
    (
        "faults",
        FaultSpec,
        dict(replica_hangs=1, hang_duration_s=0.0),
        ("hang_duration_s",),
    ),
    ("faults", FaultSpec, dict(fetch_degrades=-1), ("fetch_degrades",)),
    (
        "faults",
        FaultSpec,
        dict(fetch_degrades=1, degrade_duration_s=0.0),
        ("degrade_duration_s",),
    ),
    (
        "faults",
        FaultSpec,
        dict(fetch_degrades=1, degrade_duration_s=0.001, degrade_factor=0.5),
        ("degrade_factor",),
    ),
    ("faults", FaultSpec, dict(fetch_outages=-1), ("fetch_outages",)),
    (
        "faults",
        FaultSpec,
        dict(fetch_outages=1, outage_duration_s=0.0),
        ("outage_duration_s",),
    ),
    ("faults", FaultSpec, dict(start_s=-1.0), ("start_s",)),
    ("faults", FaultSpec, dict(start_s=0.002, end_s=0.001), ("end_s",)),
    # FaultSpec: client retries
    ("faults", FaultSpec, dict(timeout_ms=0.0), ("timeout_ms",)),
    ("faults", FaultSpec, dict(max_retries=-1), ("max_retries",)),
    ("faults", FaultSpec, dict(backoff_base_ms=-1.0), ("backoff_base_ms",)),
    ("faults", FaultSpec, dict(backoff_cap_ms=0.1), ("backoff_cap_ms",)),
    (
        "faults",
        FaultSpec,
        dict(backoff_jitter=1.5),
        ("backoff_jitter", "jitter"),
    ),
    ("faults", FaultSpec, dict(retry_budget=-0.1), ("retry_budget",)),
    ("faults", FaultSpec, dict(stale_penalty=-0.1), ("stale_penalty",)),
    # FaultSpec: crash recovery
    (
        "faults",
        FaultSpec,
        dict(_CRASH, detection_ms=-1.0),
        ("detection_ms", "detection_s"),
    ),
    (
        "faults",
        FaultSpec,
        dict(_CRASH, restore_ms=-1.0),
        ("restore_ms", "restore_s"),
    ),
    (
        "faults",
        FaultSpec,
        dict(_CRASH, checkpoint_period_s=-1.0),
        ("checkpoint_period_s",),
    ),
    ("faults", FaultSpec, dict(_CRASH, replay_rate=-1.0), ("replay_rate",)),
    (
        "faults",
        FaultSpec,
        dict(_CRASH, cold_rebuild_ms=-1.0),
        ("cold_rebuild_ms", "cold_rebuild_s"),
    ),
    ("faults", FaultSpec, dict(_CRASH, warm_rows=-1), ("warm_rows",)),
    # AutoscaleSpec
    ("autoscale", AutoscaleSpec, dict(slo_p99_ms=0.0), ("slo_p99_ms",)),
    ("autoscale", AutoscaleSpec, dict(min_replicas=0), ("min_replicas",)),
    ("autoscale", AutoscaleSpec, dict(max_replicas=0), ("max_replicas",)),
    (
        "autoscale",
        AutoscaleSpec,
        dict(window_ms=-1.0),
        ("window_ms", "window_s"),
    ),
    ("autoscale", AutoscaleSpec, dict(scale_step=0), ("scale_step",)),
    (
        "autoscale",
        AutoscaleSpec,
        dict(provision_ms=-1.0),
        ("provision_ms", "provision_s"),
    ),
    (
        "autoscale",
        AutoscaleSpec,
        dict(cooldown_windows=-1),
        ("cooldown_windows",),
    ),
    ("autoscale", AutoscaleSpec, dict(queue_high=0.0), ("queue_high",)),
    (
        "autoscale",
        AutoscaleSpec,
        dict(scale_down_margin=1.0),
        ("scale_down_margin",),
    ),
    ("autoscale", AutoscaleSpec, dict(warm_rows=-1), ("warm_rows",)),
]


def _case_id(case):
    section, _, kwargs, _ = case
    return f"{section}-" + "-".join(f"{k}={v}" for k, v in kwargs.items())


def _assert_names_knob(exc: SpecError, names) -> None:
    message = str(exc)
    assert any(name in message for name in names), (
        f"{message!r} names none of {names}"
    )


class TestRejectionTable:
    @pytest.mark.parametrize("case", REJECTIONS, ids=_case_id)
    def test_direct_construction_rejects(self, case):
        _, cls, kwargs, names = case
        with pytest.raises(SpecError) as info:
            cls(**kwargs)
        _assert_names_knob(info.value, names)

    @pytest.mark.parametrize("case", REJECTIONS, ids=_case_id)
    def test_from_dict_rejects(self, case):
        section, _, kwargs, names = case
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict({"name": "bad", section: dict(kwargs)})
        _assert_names_knob(info.value, names)

    def test_every_validated_knob_has_a_case(self):
        # recover_crashes, degraded_mode, verify, cross_strength and the
        # seeds accept any value of their type; every other knob of
        # these sections is range-checked and must appear in the table.
        unchecked = {
            "data": {"cross_strength", "dataset_seed", "sample_seed"},
            "serve": {"seed"},
            "train": {"seed", "step_seed", "verify"},
            "faults": {"recover_crashes", "degraded_mode"},
            "autoscale": set(),
        }
        classes = {
            "data": DataSpec,
            "serve": ServeSpec,
            "train": TrainSpec,
            "faults": FaultSpec,
            "autoscale": AutoscaleSpec,
        }
        for section, cls in classes.items():
            covered = {
                key
                for s, _, kwargs, _ in REJECTIONS
                if s == section
                for key in kwargs
            }
            knobs = set(cls.__dataclass_fields__)
            assert knobs - unchecked[section] <= covered, section

    def test_inverted_autoscale_bounds_still_load(self):
        # The autoscale-bounds-inverted speccheck owns this diagnosis,
        # so a stored pathological spec must still construct.
        spec = AutoscaleSpec(min_replicas=5, max_replicas=2)
        assert (spec.min_replicas, spec.max_replicas) == (5, 2)
        data = {
            "name": "inverted",
            "serve": {"fleet_replicas": 3},
            "autoscale": {"min_replicas": 5, "max_replicas": 2},
        }
        loaded = RunSpec.from_dict(data)
        assert loaded.autoscale == spec
        assert RunSpec.from_json(loaded.to_json()) == loaded


# ----------------------------------------------------------------------
def _batcher_knobs(batcher: MicroBatcher):
    return batcher.max_batch_size, batcher.max_delay_s


class TestMappingEquivalence:
    """``from_spec`` objects equal the hand-built runtime objects."""

    def test_train_dmt_criteo_data(self):
        data = train_dmt_criteo_spec().data
        assert SyntheticCriteoConfig.from_spec(data) == SyntheticCriteoConfig(
            num_dense=13,
            num_sparse=26,
            cardinality=48,
            num_blocks=4,
            rho=0.9,
            noise=0.5,
            cross_strength=0.0,
            cvr_correlation=0.7,
            cvr_bias=-1.0,
            cvr_noise=0.3,
        )

    def test_fault_tolerance_mitigated_arm(self):
        spec = mitigated_spec(150_000, 3)
        span = 150_000 / 4_000_000.0
        assert WorkloadConfig.from_spec(spec.serve, 26) == WorkloadConfig(
            qps=4_000_000.0,
            num_requests=150_000,
            num_lookups=26,
            key_space=20_000,
            skew=1.2,
            seed=0,
            scenario="flash",
            flash_start_s=0.4 * span,
            flash_duration_s=0.3 * span,
            flash_factor=2.5,
        )
        assert _batcher_knobs(MicroBatcher.from_spec(spec.serve)) == (
            64,
            1.0 * 1e-3,
        )
        assert FaultConfig.from_spec(spec.faults) == FaultConfig(
            seed=3,
            replica_crashes=3,
            start_s=0.42 * span,
            end_s=0.65 * span,
        )
        assert RetryPolicy.from_spec(spec.faults) == RetryPolicy(
            timeout_ms=0.5,
            max_retries=3,
            backoff_base_ms=0.25,
            backoff_cap_ms=2.0,
            jitter=0.5,
            retry_budget=0.25,
        )
        assert RecoveryModel.from_spec(spec.faults) == RecoveryModel(
            detection_s=0.3 * 1e-3,
            restore_s=0.3 * 1e-3,
            checkpoint_period_s=0.002,
            replay_rate=0.5,
            cold_rebuild_s=5.0 * 1e-3,
            warm_rows=8192,
        )
        assert AutoscalePolicy.from_spec(spec.autoscale) == AutoscalePolicy(
            slo_p99_ms=1.0,
            min_replicas=3,
            max_replicas=4,
            window_s=0.0 * 1e-3,
            scale_step=1,
            provision_s=0.3 * 1e-3,
            cooldown_windows=1,
            queue_high=16.0,
            scale_down_margin=0.5,
            warm_rows=8192,
        )

    def test_fault_tolerance_cadence_arm(self):
        spec = cadence_spec(0.004, 30_000)
        span = 30_000 / 4_000_000.0
        assert WorkloadConfig.from_spec(spec.serve, 13) == WorkloadConfig(
            qps=4_000_000.0,
            num_requests=30_000,
            num_lookups=13,
            key_space=20_000,
            skew=1.2,
        )
        assert FaultConfig.from_spec(spec.faults) == FaultConfig(
            seed=11,
            replica_crashes=1,
            start_s=0.3 * span,
            end_s=0.5 * span,
        )
        assert RetryPolicy.from_spec(spec.faults) == RetryPolicy(
            timeout_ms=0.5
        )
        assert RecoveryModel.from_spec(spec.faults) == RecoveryModel(
            detection_s=0.3 * 1e-3,
            restore_s=0.3 * 1e-3,
            checkpoint_period_s=0.004,
            replay_rate=0.5,
            cold_rebuild_s=5.0 * 1e-3,
            warm_rows=8192,
        )

    @pytest.mark.parametrize("router", ["round_robin", "hash", "p2c"])
    def test_serving_fleet_arms(self, router):
        spec = fleet_spec(router, 200_000.0, 20_000)
        span = 20_000 / 1_000_000.0
        assert WorkloadConfig.from_spec(spec.serve, 26) == WorkloadConfig(
            qps=1_000_000.0,
            num_requests=20_000,
            num_lookups=26,
            key_space=100_000,
            skew=1.0,
            seed=0,
            scenario="flash",
            flash_start_s=0.4 * span,
            flash_duration_s=0.2 * span,
            flash_factor=5.0,
            churn_keys_per_s=200_000.0,
        )
        assert _batcher_knobs(MicroBatcher.from_spec(spec.serve)) == (
            64,
            1.0 * 1e-3,
        )

    def test_model_freshness_spec(self):
        spec = freshness_spec(fast=True)
        assert TrainConfig.from_spec(spec.train) == TrainConfig(
            batch_size=64,
            epochs=1,
            dense_lr=1e-3,
            sparse_lr=0.03,
            dense_optimizer="adam",
            sparse_grad_mode="rowwise",
            warmup_steps=0,
            seed=0,
        )
        assert WorkloadConfig.from_spec(spec.serve, 6) == WorkloadConfig(
            qps=50_000.0,
            num_requests=3_000,
            num_lookups=6,
            key_space=4_000,
        )
        assert _batcher_knobs(MicroBatcher.from_spec(spec.serve)) == (
            64,
            1.0 * 1e-3,
        )

    def test_every_recovery_knob(self):
        faults = FaultSpec(
            replica_crashes=2,
            recover_crashes=True,
            detection_ms=0.7,
            restore_ms=1.3,
            checkpoint_period_s=0.003,
            replay_rate=0.25,
            cold_rebuild_ms=12.5,
            warm_rows=64,
        )
        expected = RecoveryModel(
            detection_s=0.7 * 1e-3,
            restore_s=1.3 * 1e-3,
            checkpoint_period_s=0.003,
            replay_rate=0.25,
            cold_rebuild_s=12.5 * 1e-3,
            warm_rows=64,
        )
        assert RecoveryModel.from_spec(faults) == expected
        # A resumable checkpoint replaces only the restore leg.
        assert RecoveryModel.from_spec(
            faults, restore_s=0.009
        ) == RecoveryModel(
            detection_s=0.7 * 1e-3,
            restore_s=0.009,
            checkpoint_period_s=0.003,
            replay_rate=0.25,
            cold_rebuild_s=12.5 * 1e-3,
            warm_rows=64,
        )

    def test_every_client_and_schedule_knob(self):
        faults = FaultSpec(
            seed=5,
            replica_hangs=1,
            hang_duration_s=0.002,
            fetch_degrades=2,
            degrade_duration_s=0.003,
            degrade_factor=3.0,
            fetch_outages=1,
            outage_duration_s=0.001,
            start_s=0.001,
            end_s=0.009,
            timeout_ms=0.8,
            max_retries=5,
            backoff_base_ms=0.1,
            backoff_cap_ms=0.9,
            backoff_jitter=0.2,
            retry_budget=0.5,
        )
        assert FaultConfig.from_spec(faults) == FaultConfig(
            seed=5,
            replica_hangs=1,
            hang_duration_s=0.002,
            fetch_degrades=2,
            degrade_duration_s=0.003,
            degrade_factor=3.0,
            fetch_outages=1,
            outage_duration_s=0.001,
            start_s=0.001,
            end_s=0.009,
        )
        assert RetryPolicy.from_spec(faults) == RetryPolicy(
            timeout_ms=0.8,
            max_retries=5,
            backoff_base_ms=0.1,
            backoff_cap_ms=0.9,
            jitter=0.2,
            retry_budget=0.5,
        )
