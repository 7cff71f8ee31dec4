"""Golden replay fixtures: the fleet engine's oracle.

Each entry pins one fleet replay — the healthy fleet under every
router, the tiered degenerate preset, and the round-robin and hash
fleets under faults, stalls, autoscaling, drains, lost requests, a
whole-fleet blackout and hot swaps — by the sha256 (first 16 hex digits) of its canonical-JSON
report and of its priced timeline, plus its served count.  The
round-robin, hash and tiered entries were recorded before the healthy
fleet and the fault-injecting replay were folded into one engine, so
they pin that the fold changed no bit.  The p2c entries were recorded
after p2c moved to counter-hashed draws compared on the router's own
recent-send counts.

The ``pool/*`` and ``pool-tiered/*`` entries pin the shared-queue pool
(one batcher and one cache feeding every dense host), recorded through
the standalone single-service replay before it became the fleet's
``shared_queue=True`` preset, so they pin that the fold changed no bit.
Their report digest is the bare :class:`~repro.serving.ServingReport`
dict and their timeline digest leaves the event labels out: the fleet
labels every event with its replica, the standalone replay did not.
``EXPERIMENT_GOLDEN`` pins the full ``to_json()`` of the fast serving
experiments, which serve through the pool.

Regenerate (only on an intentional pricing change, said in the commit)
with ``PYTHONPATH=src python tests/test_serving_golden.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.registry import get_experiment
from repro.hardware import Cluster
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    FaultEvent,
    MicroBatcher,
    Placement,
    RecoveryModel,
    RequestStream,
    RetryPolicy,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    SwapEvent,
    WorkloadConfig,
    build_storage,
    make_tiered_fleet,
)
from repro.sim import SimCluster

#: name -> (report sha256[:16], timeline sha256[:16], served requests)
GOLDEN = {
    "autoscale-overload/hash": ("f029a775356da93c", "cd1f3901b37adcac", 6000),
    "autoscale-overload/round_robin": ("b101d1072e1f3718", "bd4e24c58dc0e8ac", 6000),
    "autoscale-storm/hash": ("525561196415a32f", "98702a79237b4809", 4000),
    "autoscale-storm/round_robin": ("1f6dcfecb0973005", "13d1a60080dc8a5c", 4000),
    "blackout/hash": ("c0c6cf75bf2e0734", "c49ee191f05d5eac", 167),
    "blackout/round_robin": ("dc3bc51ae4cd8764", "ca72537515906fe5", 167),
    "crash-noretry/hash": ("3a51a498ae1980db", "546c5d317edcffed", 1976),
    "crash-noretry/round_robin": ("acb0b8f90e2df5cc", "c99456e3ae2b43fc", 1987),
    "drain/hash": ("67b21ceea209f7ce", "88fdacbae3474520", 1500),
    "drain/round_robin": ("63455bf0f171536a", "523fc63054a57c9f", 1500),
    "healthy/hash": ("6e8d7a0e302dd70f", "3098ba49090c370d", 1500),
    "healthy/p2c": ("7fb6ce41a18d3381", "6bac897862c2251f", 1500),
    "healthy/round_robin": ("2b821ddd0ebfc25a", "7340af7a04d06030", 1500),
    "pool-tiered/hbm": ("208c268d68e5a004", "023f8378ea02b0d3", 1500),
    "pool-tiered/remote": ("7c19d78e5d861729", "d28ff3376ba841ed", 1500),
    "pool/colocated": ("d013644e9460f11b", "064ee64a7a5a6dcc", 1500),
    "pool/disaggregated": ("02ee52b0cdd9868a", "c05061e504d4e03c", 1500),
    "storm-stall/hash": ("c8e1165685e52e39", "d4c16d50d069cc1b", 1500),
    "storm-stall/round_robin": ("e0fe78d4c20d29b5", "f82f34f8e558bf25", 1500),
    "storm/hash": ("2ba299a7eda41117", "2bb1a21caafa140f", 1500),
    "storm/round_robin": ("fdb09fb2dfda5784", "2faa15f731c8fa36", 1500),
    "swaps/hash": ("842b08b28194deaa", "cc30e331908cee64", 1500),
    "swaps/round_robin": ("5dc7f24c3f66ee26", "3afe4d4121806f16", 1500),
    "tiered/hash": ("95a9e15c0ced052b", "64436d5ba7a52235", 1500),
    "tiered/p2c": ("cb0de5a19983c9d4", "78318de8c47949f7", 1500),
    "tiered/round_robin": ("55f8353905f3d4dd", "deef31b78f80e70e", 1500),
}

#: experiment id -> sha256 of its fast-mode ``to_json()``
EXPERIMENT_GOLDEN = {
    "serving": "1f1077ef39e969aeead8f22951262aaa0207d89779a672a4e7ee5dde5aa4d8a2",
    "tiered_serving": "61a6692bb70c3fd98c2d02244aa7452bec2b2ef318bf218559f0cb652168ecc4",
}

MODEL = ServingModel(
    name="tiny", num_lookups=4, embedding_dim=16, dense_mflops=1.0
)
STORM = dict(
    replica_crashes=2,
    replica_hangs=1,
    hang_duration_s=0.004,
    fetch_degrades=1,
    degrade_duration_s=0.004,
    fetch_outages=1,
    outage_duration_s=0.004,
)


def trace(qps=50_000.0, n=1500, seed=3, lookups=4, key_space=2000, skew=1.0):
    return RequestStream(
        WorkloadConfig(
            qps=qps,
            num_requests=n,
            seed=seed,
            num_lookups=lookups,
            key_space=key_space,
            skew=skew,
        )
    ).generate()


def fault_scenario(name):
    """Fleet keyword arguments and trace of one faulted scenario."""
    kw = dict(num_replicas=3, cache_rows=256)
    reqs = trace()
    recovery = RecoveryModel(checkpoint_period_s=0.002)
    if name == "storm":
        kw.update(faults=FaultConfig(seed=5, **STORM), recovery=recovery)
    elif name == "storm-stall":
        kw.update(
            faults=FaultConfig(seed=5, **STORM),
            recovery=recovery,
            degraded_mode=False,
        )
    elif name == "autoscale-overload":
        kw.update(
            num_replicas=1,
            autoscaler=SLOAutoscaler(
                AutoscalePolicy(
                    slo_p99_ms=0.5,
                    min_replicas=1,
                    max_replicas=5,
                    cooldown_windows=1,
                    queue_high=4.0,
                )
            ),
        )
        reqs = trace(qps=2_000_000.0, n=6000)
    elif name == "autoscale-storm":
        kw.update(
            num_replicas=2,
            faults=FaultConfig(seed=7, **STORM),
            recovery=recovery,
            autoscaler=SLOAutoscaler(
                AutoscalePolicy(
                    slo_p99_ms=2.0,
                    min_replicas=2,
                    max_replicas=5,
                    cooldown_windows=1,
                )
            ),
        )
        reqs = trace(qps=200_000.0, n=4000)
    elif name == "drain":
        kw.update(
            num_replicas=4,
            autoscaler=SLOAutoscaler(
                AutoscalePolicy(
                    slo_p99_ms=50.0,
                    min_replicas=2,
                    max_replicas=5,
                    cooldown_windows=1,
                )
            ),
        )
    elif name == "crash-noretry":
        kw.update(
            faults=FaultConfig(
                events=(FaultEvent("replica_crash", at_s=0.01, replica=0),)
            ),
            retry=RetryPolicy(timeout_ms=0.5, max_retries=0),
        )
        reqs = trace(n=2000)
    elif name == "blackout":
        # Every replica down and detected, windows far apart: retries
        # land before the next control event, inside the same stretch.
        kw.update(
            num_replicas=2,
            faults=FaultConfig(
                events=(
                    FaultEvent("replica_crash", at_s=0.0, replica=0),
                    FaultEvent("replica_crash", at_s=0.0, replica=1),
                )
            ),
            recovery=RecoveryModel(detection_s=0.01, cold_rebuild_s=0.02),
            retry=RetryPolicy(max_retries=5, retry_budget=0.5),
        )
        reqs = trace(qps=1000.0, n=200)
    else:  # swaps
        span = reqs[-1].arrival_s - reqs[0].arrival_s
        kw.update(
            swaps=(
                SwapEvent(
                    at_s=0.2 * span,
                    replica=0,
                    version=1,
                    swap_s=0.002,
                    warm_rows=64,
                ),
                SwapEvent(
                    at_s=0.4 * span,
                    replica=1,
                    version=1,
                    swap_s=0.0,
                    warm_rows=np.arange(32) * 3,
                ),
                SwapEvent(
                    at_s=0.6 * span,
                    replica=2,
                    version=1,
                    swap_s=0.001,
                    fresh_cache=False,
                ),
            )
        )
    return kw, reqs


TIERED_MODEL = ServingModel(
    name="tiny", num_lookups=6, embedding_dim=16, dense_mflops=1.0
)


def tiered_trace(qps=30_000.0):
    return trace(qps=qps, lookups=6, key_space=900, skew=1.1, seed=7)


def pool_replay(name, variant, sim, placement, batcher):
    """Fleet report of one shared-queue pool entry on every dense host.

    The loads keep several dense hosts busy at once: some batches start
    on a free host while another is still busy, and some wait for one.
    """
    if name == "pool":
        placement = Placement(variant, emb_hosts=1)
        return ServingFleet(
            sim, MODEL, placement, batcher, cache_rows=256,
            shared_queue=True,
        ).serve(trace(qps=700_000.0))
    if variant == "hbm":
        storage = build_storage("A100", 256, backing="hbm")
    else:
        storage = build_storage(
            "A100", 64, levels=("dram",), cache_rows=(256,), backing="remote"
        )
    return make_tiered_fleet(
        sim, TIERED_MODEL, placement, batcher, storage, shared_queue=True
    ).serve(tiered_trace(qps=500_000.0))


def replay(key):
    """(report dict, timeline, served count) of one golden entry."""
    name, router = key.split("/")
    sim = SimCluster(Cluster(num_hosts=4, gpus_per_host=2, generation="A100"))
    placement = Placement("disaggregated", emb_hosts=1)
    batcher = MicroBatcher(16, 0.001)
    if name.startswith("pool"):
        report = pool_replay(name, router, sim, placement, batcher)
        return report.fleet.fleet.to_dict(), sim.timeline, report.num_served
    if name == "healthy":
        report = ServingFleet(
            sim, MODEL, placement, batcher,
            router=router, num_replicas=3, cache_rows=256,
        ).serve(trace())
        return report.fleet.to_dict(), sim.timeline, report.num_served
    if name == "tiered":
        report = make_tiered_fleet(
            sim, TIERED_MODEL, placement, batcher,
            build_storage("A100", 256, backing="hbm"),
            router=router, num_replicas=3,
        ).serve(tiered_trace())
        return report.fleet.to_dict(), sim.timeline, report.num_served
    kw, reqs = fault_scenario(name)
    report = ServingFleet(
        sim, MODEL, placement, batcher, router=router, **kw
    ).serve(reqs)
    return report.to_dict(), sim.timeline, report.num_served


def digests(key):
    report, timeline, served = replay(key)
    blob = json.dumps(report, sort_keys=True, allow_nan=False)
    labelled = not key.startswith("pool")
    events = json.dumps(
        [
            (e.phase.value,)
            + ((e.label,) if labelled else ())
            + (repr(e.seconds), e.nbytes, e.world_size, e.flops)
            for e in timeline.events
        ]
    )
    return (
        hashlib.sha256(blob.encode()).hexdigest()[:16],
        hashlib.sha256(events.encode()).hexdigest()[:16],
        served,
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_replay_matches_golden(key):
    assert digests(key) == GOLDEN[key]


def experiment_digest(exp_id):
    result = get_experiment(exp_id)(fast=True)
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_GOLDEN))
def test_experiment_matches_golden(exp_id):
    assert experiment_digest(exp_id) == EXPERIMENT_GOLDEN[exp_id]


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        report_sha, timeline_sha, served = digests(key)
        print(f'    "{key}": ("{report_sha}", "{timeline_sha}", {served}),')
    for exp_id in sorted(EXPERIMENT_GOLDEN):
        print(f'    "{exp_id}": "{experiment_digest(exp_id)}",')
