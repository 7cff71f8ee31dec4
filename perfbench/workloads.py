"""The benchmark's four workloads: specs, timed stages, outputs, checks.

Each workload is a function of the workload seed: its ``build`` maps
the seed onto every seed field of the ``RunSpec`` (trace, faults, data,
model, training), so the program only ever receives the inputs the seed
generates.  Seed 0 (:data:`DEFAULT_SEED`) reproduces the
presets the geometry comes from, and ``reference.json`` holds that
seed's outputs.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.api import (
    ClusterSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    PartitionSpec,
    RunSpec,
    ServeSpec,
    Session,
    TrainSpec,
)
from repro.api.presets import train_dmt_criteo_spec
from repro.api.session import clear_caches

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")
#: Golden-fingerprint tolerance for training losses and AUC.
TRAIN_TOL = 1e-9
#: Multi-rank vs single-process parameter drift allowed by train-sptt.
MAX_DRIFT = 1e-12

SERVE_QPS = 4_000_000.0
SERVE_REQUESTS = 60_000
SPTT_STEPS = 5


# ----------------------------------------------------------------------
# Specs
def _serve_spec(seed: int, tiny: bool, faults: bool) -> RunSpec:
    requests = 3_000 if tiny else SERVE_REQUESTS
    span = requests / SERVE_QPS
    serve = ServeSpec(
        kind="dlrm",
        qps=SERVE_QPS,
        num_requests=requests,
        placement="disaggregated",
        emb_hosts=4,
        fleet_replicas=3,
        router="round_robin",
        cache_rows=16_384,
        key_space=20_000,
        skew=1.2,
        max_batch_size=64,
        max_queue_delay_ms=1.0,
        seed=seed,
    )
    crash_storm = FaultSpec(
        seed=seed + 3,
        replica_crashes=2,
        start_s=0.3 * span,
        end_s=0.6 * span,
        timeout_ms=0.5,
        detection_ms=0.3,
        restore_ms=0.3,
        checkpoint_period_s=0.002,
        cold_rebuild_ms=5.0,
        warm_rows=8192,
    )
    return RunSpec(
        name="serve-faults" if faults else "serve-fleet",
        cluster=ClusterSpec(num_hosts=8, gpus_per_host=4, generation="A100"),
        serve=serve,
        faults=crash_storm if faults else None,
    )


def _dmt_spec(seed: int, tiny: bool) -> RunSpec:
    spec = train_dmt_criteo_spec()
    data = spec.data.replace(dataset_seed=seed, sample_seed=seed + 1)
    partition = spec.partition
    train = spec.train.replace(seed=seed + 11)
    if tiny:
        data = data.replace(num_samples=1_500)
        partition = partition.replace(
            probe_epochs=1, probe_samples=500, mds_iterations=100
        )
        train = train.replace(epochs=1)
    return spec.replace(
        name="train-dmt",
        data=data,
        model=spec.model.replace(seed=seed + 11),
        partition=partition,
        train=train,
    )


def _sptt_spec(seed: int, tiny: bool, verify: bool) -> RunSpec:
    return RunSpec(
        name="train-sptt",
        cluster=ClusterSpec(num_hosts=4, gpus_per_host=2, generation="A100"),
        data=DataSpec(
            num_sparse=26,
            cardinality=64,
            num_samples=2_048,
            dataset_seed=seed,
            sample_seed=seed + 1,
        ),
        model=ModelSpec(
            family="dlrm",
            variant="dmt",
            embedding_dim=16 if tiny else 64,
            bottom_mlp=(64,),
            top_mlp=(64,),
            tower_dim=8,
            seed=seed + 42,
        ),
        partition=PartitionSpec(strategy="contiguous", num_towers=4),
        train=TrainSpec(
            mode="simulated",
            steps=2 if tiny else SPTT_STEPS,
            global_batch=256 if tiny else 2_048,
            step_seed=seed + 100,
            verify=verify,
        ),
    )


# ----------------------------------------------------------------------
# Outputs: a JSON-able fingerprint of everything the iteration priced or
# learned.  Equal seeds must give equal fingerprints.
def _timeline_counts(timelines) -> Dict[str, int]:
    events = [e for tl in timelines for e in tl.events]
    return {
        "sim_events": len(events),
        "sim_bytes": int(sum(e.nbytes for e in events)),
    }


def _serve_outputs(session: Session) -> Dict[str, Any]:
    art = session.serve()
    out: Dict[str, Any] = _timeline_counts(art.timelines.values())
    faults = art.fault_reports.get("disaggregated")
    if faults is not None:
        out.update(
            num_offered=faults.num_offered,
            num_served=faults.num_served,
            num_lost=faults.num_lost,
            num_retries=faults.num_retries,
            report=faults.to_dict(),
        )
    else:
        # The fault-free fleet serves (or raises on) every offered
        # request; it loses none by construction.
        fleet = art.fleet_reports["disaggregated"]
        out.update(
            num_offered=session.spec.serve.num_requests,
            num_served=fleet.fleet.num_requests,
            num_lost=0,
            num_retries=0,
            report={"fleet": fleet.to_dict()},
        )
    return out


def _dmt_outputs(session: Session) -> Dict[str, Any]:
    art = session.train()
    return {
        "groups": [list(g) for g in session.partition().partition.groups],
        "epoch_losses": list(art.epoch_losses),
        "eval_auc": float(art.eval_result.auc),
        "eval_log_loss": float(art.eval_result.log_loss),
        "sim_events": 0,
        "sim_bytes": 0,
    }


def _sptt_outputs(session: Session) -> Dict[str, Any]:
    art = session.train()
    out: Dict[str, Any] = _timeline_counts([art.trainer.sim.timeline])
    out["losses"] = list(art.losses)
    if art.max_drift is not None:
        out["max_drift"] = float(art.max_drift)
    return out


# ----------------------------------------------------------------------
# Checks: each returns the list of failed conditions (empty when good).
def _serve_checks(spec: RunSpec, out: Dict[str, Any],
                  observed: Dict[str, float]) -> List[str]:
    fails = []
    report = out["report"]
    fleet = report["fleet"]
    served_report = fleet["fleet"]
    if out["num_offered"] != spec.serve.num_requests:
        fails.append(f"offered {out['num_offered']} != trace "
                     f"{spec.serve.num_requests}")
    if out["num_served"] + out["num_lost"] != out["num_offered"]:
        fails.append("offered != served + lost")
    if served_report["num_requests"] != out["num_served"]:
        fails.append("fleet report does not cover the served requests")
    if sum(fleet["requests_per_replica"]) != out["num_served"]:
        fails.append("per-replica request counts do not sum to served")
    cache = served_report["cache"]
    replica_keys = sum(
        r["cache"]["hits"] + r["cache"]["misses"]
        for r in fleet["replicas"].values()
    )
    if cache["hits"] + cache["misses"] != replica_keys:
        fails.append("fleet cache hits + misses != sum over replicas")
    if "keys_probed" in observed and cache["hits"] + cache["misses"] != (
        observed["keys_probed"]
    ):
        fails.append(f"cache hits + misses {cache['hits'] + cache['misses']}"
                     f" != keys probed {observed['keys_probed']}")
    lat = served_report["latency_ms"]
    if not all(math.isfinite(v) and v > 0 for v in lat.values()):
        fails.append(f"latency percentiles not finite/positive: {lat}")
    return fails


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _dmt_checks(spec: RunSpec, out: Dict[str, Any],
                observed: Dict[str, float]) -> List[str]:
    fails = []
    if len(out["epoch_losses"]) != spec.train.epochs:
        fails.append("wrong number of epoch losses")
    if not _finite(out["epoch_losses"]):
        fails.append(f"non-finite loss: {out['epoch_losses']}")
    if not 0.5 < out["eval_auc"] <= 1.0:
        fails.append(f"eval AUC {out['eval_auc']} not in (0.5, 1]")
    return fails


def _sptt_checks(spec: RunSpec, out: Dict[str, Any],
                 observed: Dict[str, float]) -> List[str]:
    fails = []
    if len(out["losses"]) != spec.train.steps:
        fails.append("wrong number of step losses")
    if not _finite(out["losses"]):
        fails.append(f"non-finite loss: {out['losses']}")
    drift = out.get("max_drift")
    if spec.train.verify and not (drift is not None and drift <= MAX_DRIFT):
        fails.append(f"multi-rank drift {drift} > {MAX_DRIFT}")
    return fails


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool, bool], RunSpec]  # (seed, tiny, verify)
    stages: Tuple[str, ...]  # Session calls timed, in order
    throughput_stage: str  # the stage items_per_s divides by
    item: str  # what items_per_s counts
    items: Callable[[RunSpec], int]
    outputs: Callable[[Session], Dict[str, Any]]
    #: (spec, outputs, counts the tracer observed) -> failed conditions
    checks: Callable[[RunSpec, Dict[str, Any], Dict[str, float]], List[str]]
    #: reference comparison: exact for priced numbers, else a tolerance
    tolerance: float


def _train_items(spec: RunSpec) -> int:
    split = int(spec.data.num_samples * (1.0 - spec.data.eval_fraction))
    return split * spec.train.epochs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve-fleet",
            build=lambda seed, tiny, verify: _serve_spec(seed, tiny, False),
            stages=("serve",),
            throughput_stage="serve",
            item="req",
            items=lambda spec: spec.serve.num_requests,
            outputs=_serve_outputs,
            checks=_serve_checks,
            tolerance=0.0,
        ),
        Workload(
            name="serve-faults",
            build=lambda seed, tiny, verify: _serve_spec(seed, tiny, True),
            stages=("serve",),
            throughput_stage="serve",
            item="req",
            items=lambda spec: spec.serve.num_requests,
            outputs=_serve_outputs,
            checks=_serve_checks,
            tolerance=0.0,
        ),
        Workload(
            name="train-dmt",
            build=lambda seed, tiny, verify: _dmt_spec(seed, tiny),
            stages=("load_data", "partition", "train", "run"),
            throughput_stage="train",
            item="samples",
            items=_train_items,
            outputs=_dmt_outputs,
            checks=_dmt_checks,
            tolerance=TRAIN_TOL,
        ),
        Workload(
            name="train-sptt",
            build=_sptt_spec,
            stages=("train",),
            throughput_stage="train",
            item="samples",
            items=lambda spec: spec.train.steps * spec.train.global_batch,
            outputs=_sptt_outputs,
            checks=_sptt_checks,
            tolerance=TRAIN_TOL,
        ),
    )
}


def set_up(workload: Workload, seed: int, tiny: bool,
           verify: bool = False) -> Session:
    """Everything before the first stage: spec, session, static
    analysis, cluster.  ``setup_s`` times this from interpreter start."""
    session = Session(workload.build(seed, tiny, verify))
    session.analyze()
    session.build_cluster()
    return session


@dataclass
class Iteration:
    stage_s: Dict[str, float]
    outputs: Dict[str, Any]
    failures: List[str]
    #: host-speed kernel seconds before the first stage and after each
    calib: List[float]

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def run_iteration(workload: Workload, seed: int, tiny: bool,
                  verify: bool = False, tracer: Any = None,
                  calibrate: Callable[[], float] = lambda: 0.0) -> Iteration:
    """One cold iteration: clear the cross-session caches (a
    ``dmt-repro run-spec`` user pays data synthesis and the probe
    partition on every run), set up, time each stage with ``calibrate``
    run around it, check.  With a tracer installed, its count of keys
    probed joins the checks."""
    clear_caches()
    session = set_up(workload, seed, tiny, verify)
    keys_before = tracer.counts.get("serving.cache.keys", 0) if tracer else 0
    stage_s = {}
    calib = [calibrate()]
    for stage in workload.stages:
        start = time.perf_counter()
        getattr(session, stage)()
        stage_s[stage] = time.perf_counter() - start
        calib.append(calibrate())
    outputs = workload.outputs(session)
    observed = {}
    if tracer is not None and workload.stages == ("serve",):
        observed["keys_probed"] = (
            tracer.counts.get("serving.cache.keys", 0) - keys_before
        )
    failures = workload.checks(session.spec, outputs, observed)
    return Iteration(stage_s, outputs, failures, calib)


# ----------------------------------------------------------------------
# Determinism and reference values
def canonical(outputs: Dict[str, Any]) -> str:
    """Exact textual form of a fingerprint (NaN-safe equality)."""
    return json.dumps(outputs, sort_keys=True)


def mismatches(expected: Any, actual: Any, tol: float, path: str = "") -> List[str]:
    """Where ``actual`` departs from ``expected``: exact for ints and
    strings, within ``tol`` (absolute) for floats."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}/{key}: missing on one side")
            else:
                out += mismatches(expected[key], actual[key], tol,
                                  f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(
            actual, (int, float)
        ):
            both_nan = math.isnan(expected) and math.isnan(actual)
            if both_nan or abs(expected - actual) <= tol:
                return []
    elif expected == actual:
        return []
    return [f"{path}: {actual!r} != reference {expected!r}"]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_outputs(outputs: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a fingerprint the reference records (everything but
    the verify-only drift, which is checked against its own bound)."""
    return json.loads(canonical(
        {k: v for k, v in outputs.items() if k != "max_drift"}
    ))


def record_reference() -> None:
    """Re-record ``reference.json`` at :data:`DEFAULT_SEED` (run only
    when a change is meant to move the priced or learned outputs)."""
    reference = {}
    for name, workload in WORKLOADS.items():
        it = run_iteration(workload, DEFAULT_SEED, tiny=False)
        if it.failures:
            raise RuntimeError(f"{name}: {it.failures}")
        reference[name] = reference_outputs(it.outputs)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
