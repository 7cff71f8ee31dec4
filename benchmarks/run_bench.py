#!/usr/bin/env python
"""Benchmark emitters: perf PRs leave a measured trajectory, not claims.

Two targets, selected with ``--bench``:

- ``sparse`` (default) — dense vs rowwise embedding gradients: times
  the single-process train step (forward / backward / optimizer) of a
  DLRM under both ``sparse_grad_mode`` settings and writes
  ``BENCH_sparse_path.json`` (steps/sec, peak transient bytes/step).
  The paper-ish default is the acceptance geometry: 26 tables x 1M rows
  x dim 128 at batch 256.
- ``serving`` — the serving plane: replays a skewed micro-batched
  trace through the vectorized LRU embedding cache vs the per-key
  reference walk (cache-lookup throughput in keys/sec and the
  vectorized-over-reference speedup), then runs the full
  ``ServingFleet`` replay and records simulated requests/sec plus
  wall-clock per 100k requests.  Writes ``BENCH_serving.json``.
  The default 100k-request trace is the acceptance geometry.
- ``tiering`` — the memory hierarchy: sweeps capacity pressure
  (key space over HBM cache rows) and replays one skewed trace per
  point under all-HBM provisioning vs the tiered DRAM/remote chain,
  recording p99 latency, chain hit rate, provisioned dollars, and
  $/1k requests per arm.  Writes ``BENCH_tiering.json``.
- ``faults`` — the robustness plane: replays the same seeded trace
  through a fault-free baseline, a crash storm absorbed by client
  retries, and a fetch-tier outage served degraded from cache, then
  sweeps checkpoint cadence under a fixed crash.  Records the retry
  overhead (p99 vs baseline, retried fraction), the degraded-serve
  fraction, and the MTTR-vs-cadence ladder (with a monotonicity
  verdict).  Writes ``BENCH_faults.json``.
- ``freshness`` — the train->serve loop: runs the online-training
  driver under hot-set churn (delta checkpoints, canary-gated staged
  hot swaps on the fleet engine) against a frozen arm serving the
  identical trace at the same replica count.  Records the per-window
  AUC gap, the mean online-vs-frozen AUC gain, the delta-over-full
  checkpoint compression, and the swap count.  Writes
  ``BENCH_freshness.json``.
- ``ab`` — the multi-task quality plane: runs the paired DBMTL vs
  shared-bottom A/B (``Session.ab``: both arms per seed on identical
  data, §5.2 seed protocol) and records the per-task paired deltas
  with their Student-t confidence intervals, the headline CVR AUC
  delta, and whether its CI excludes zero.  Writes ``BENCH_ab.json``.

``--fast`` shrinks any target for CI smoke.

Run:  PYTHONPATH=src python benchmarks/run_bench.py [--bench serving]
      [--fast] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
import tracemalloc
from datetime import datetime, timezone

import numpy as np

from repro.data import random_batch
from repro.models import DLRM
from repro.models.configs import DenseArch
from repro.nn import TableConfig
from repro.training import TrainConfig, Trainer

BENCH_VERSION = 1


def build_trainer(args, mode: str) -> Trainer:
    tables = [
        TableConfig(f"t{i}", args.rows, args.dim, pooling=args.pooling)
        for i in range(args.tables)
    ]
    arch = DenseArch(
        embedding_dim=args.dim,
        bottom_mlp=(64, args.dim),
        top_mlp=(64,),
    )
    model = DLRM(13, tables, arch, rng=np.random.default_rng(0))
    return Trainer(
        model,
        TrainConfig(
            batch_size=args.batch, sparse_grad_mode=mode, seed=0
        ),
    )


def bench_mode(args, mode: str) -> dict:
    """Measure one mode; returns per-phase seconds and peak step bytes."""
    trainer = build_trainer(args, mode)
    loss_mod = trainer.loss_module
    rng = np.random.default_rng(1)
    batches = [
        random_batch(
            args.batch, 13, args.tables, args.rows,
            pooling=args.pooling, rng=rng,
        )
        for _ in range(max(args.warmup, args.steps))
    ]

    def one_step(batch, timings=None):
        dense_x, ids, labels = batch
        trainer.dense_opt.zero_grad()
        trainer.sparse_opt.zero_grad()
        t0 = time.perf_counter()
        logits = trainer.model(dense_x, ids)
        loss_mod(logits, labels)
        t1 = time.perf_counter()
        trainer.model.backward(loss_mod.backward())
        t2 = time.perf_counter()
        trainer.dense_opt.step()
        trainer.sparse_opt.step()
        t3 = time.perf_counter()
        if timings is not None:
            timings["forward"].append(t1 - t0)
            timings["backward"].append(t2 - t1)
            timings["optimizer"].append(t3 - t2)
            timings["step"].append(t3 - t0)

    for i in range(args.warmup):
        one_step(batches[i])

    timings = {"forward": [], "backward": [], "optimizer": [], "step": []}
    tracemalloc.start(1)
    peak_step_bytes = 0
    for i in range(args.steps):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        one_step(batches[i], timings)
        _, peak = tracemalloc.get_traced_memory()
        peak_step_bytes = max(peak_step_bytes, peak - before)
    tracemalloc.stop()

    sec_per_step = float(np.mean(timings["step"]))
    return {
        "mode": mode,
        "steps_measured": args.steps,
        "sec_per_step": sec_per_step,
        "steps_per_sec": 1.0 / sec_per_step,
        "peak_step_bytes": int(peak_step_bytes),
        "phase_sec": {
            k: float(np.mean(v))
            for k, v in timings.items()
            if k != "step"
        },
    }


def serving_trace(args):
    """The acceptance trace: skewed Poisson stream, micro-batched."""
    from repro.serving import MicroBatcher, RequestStream, WorkloadConfig

    stream = RequestStream(
        WorkloadConfig(
            qps=args.qps,
            num_requests=args.requests,
            num_lookups=args.lookups,
            key_space=args.key_space,
            skew=1.0,
            seed=0,
        )
    )
    requests = stream.generate()
    batches = MicroBatcher(args.serve_batch, 0.001).form_batches(requests)
    return requests, [batch.keys for batch in batches]


def bench_serving_cache(args, key_sets) -> dict:
    """Cache-lookup throughput: vectorized fast path vs reference walk.

    Replays the trace's batch key-sets through ``probe`` (the fused
    lookup + admit-the-misses the serving loop performs per batch);
    best-of-``reps`` wall-clock per implementation.
    """
    from repro.serving import LRUEmbeddingCache, ReferenceLRUCache

    total_keys = sum(len(keys) for keys in key_sets)
    out = {}
    for label, factory in (
        ("vectorized", LRUEmbeddingCache),
        ("reference", ReferenceLRUCache),
    ):
        best = np.inf
        for _ in range(args.reps):
            cache = factory(args.cache_rows)
            start = time.perf_counter()
            for keys in key_sets:
                cache.probe(keys)
            best = min(best, time.perf_counter() - start)
        out[label] = {
            "seconds": best,
            "keys_per_sec": total_keys / best,
            "hit_rate": cache.stats.hit_rate,
        }
        print(f"  cache [{label}]: {best:.3f}s "
              f"({total_keys / best / 1e6:.1f} Mkeys/s)", flush=True)
    out["speedup_vectorized_over_reference"] = (
        out["reference"]["seconds"] / out["vectorized"]["seconds"]
    )
    return out


def bench_serving_fleet(args, requests) -> dict:
    """End-to-end fleet replay: simulated rps + wall-clock/100k reqs."""
    from repro.hardware import Cluster
    from repro.serving import (
        MicroBatcher,
        Placement,
        ServingFleet,
        ServingModel,
    )
    from repro.sim import SimCluster

    cluster = Cluster(num_hosts=8, gpus_per_host=4, generation="A100")
    model = ServingModel(
        name="dlrm-like",
        num_lookups=args.lookups,
        embedding_dim=128,
        dense_mflops=5.0,
    )
    out = {}
    for router in ("round_robin", "hash", "p2c"):
        fleet = ServingFleet(
            SimCluster(cluster),
            model,
            Placement("disaggregated", emb_hosts=2),
            MicroBatcher(args.serve_batch, 0.001),
            router=router,
            cache_rows=args.cache_rows,
        )
        start = time.perf_counter()
        report = fleet.serve(requests).fleet
        wall = time.perf_counter() - start
        out[router] = {
            "wall_clock_s": wall,
            "wall_clock_per_100k_requests_s": wall * 1e5 / len(requests),
            "simulated_rps": report.fleet.throughput_rps,
            "replay_requests_per_sec": len(requests) / wall,
            "p99_ms": report.fleet.latency_ms["p99"],
            "cache_hit_rate": report.fleet.cache_hit_rate,
            "load_imbalance": report.load_imbalance,
        }
        print(f"  fleet [{router}]: {wall:.2f}s wall "
              f"({len(requests) / wall / 1e3:.0f}k req/s replayed, "
              f"simulated {report.fleet.throughput_rps / 1e6:.2f}M rps)",
              flush=True)
    return out


def bench_serving(args) -> dict:
    print(f"benchmarking serving path ({args.requests} requests x "
          f"{args.lookups} lookups, serve batch {args.serve_batch}, "
          f"cache {args.cache_rows} rows) ...", flush=True)
    requests, key_sets = serving_trace(args)
    cache = bench_serving_cache(args, key_sets)
    fleet = bench_serving_fleet(args, requests)
    record = {
        "bench": "serving",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "requests": args.requests,
            "lookups_per_request": args.lookups,
            "key_space": args.key_space,
            "serve_batch": args.serve_batch,
            "cache_rows": args.cache_rows,
            "qps": args.qps,
            "fast": bool(args.fast),
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {"cache": cache, "fleet": fleet},
        "speedup_cache_vectorized_over_reference": (
            cache["speedup_vectorized_over_reference"]
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"cache-lookup speedup (vectorized over reference): "
          f"{record['speedup_cache_vectorized_over_reference']:.1f}x "
          f"-> wrote {args.out}")
    return record


def bench_tiering(args) -> dict:
    """p99 and $/1k requests vs capacity pressure, both storage arms."""
    from repro.hardware import Cluster
    from repro.serving import (
        MicroBatcher,
        Placement,
        RequestStream,
        ServingFleet,
        ServingModel,
        WorkloadConfig,
        build_storage,
        dollars_per_1k_requests,
        make_tiered_fleet,
        storage_dollars,
    )
    from repro.sim import SimCluster

    cluster = Cluster(num_hosts=8, gpus_per_host=4, generation="A100")
    model = ServingModel(
        name="dlrm-like",
        num_lookups=args.lookups,
        embedding_dim=128,
        dense_mflops=5.0,
    )
    row_bytes = model.embedding_dim * 4
    ratios = (4, 16, 64)
    print(f"benchmarking tiering ({args.requests} requests, cache "
          f"{args.cache_rows} rows, pressure {ratios}) ...", flush=True)
    points = {}
    for ratio in ratios:
        key_space = args.cache_rows * ratio
        requests = RequestStream(
            WorkloadConfig(
                qps=args.qps,
                num_requests=args.requests,
                num_lookups=args.lookups,
                key_space=key_space,
                skew=1.05,
                seed=0,
            )
        ).generate()
        point = {}
        for label in ("all-hbm", "tiered"):
            sim = SimCluster(cluster)
            placement = Placement("disaggregated", emb_hosts=2)
            batcher = MicroBatcher(args.serve_batch, 0.001)
            if label == "tiered":
                storage = build_storage(
                    "A100",
                    args.cache_rows,
                    levels=("dram",),
                    cache_rows=(key_space // 2,),
                    backing="remote",
                )
                service = make_tiered_fleet(
                    sim, model, placement, batcher, storage,
                    shared_queue=True,
                )
            else:
                storage = build_storage(
                    "A100", args.cache_rows, backing="hbm"
                )
                service = ServingFleet(
                    sim,
                    model,
                    placement,
                    batcher,
                    cache_rows=args.cache_rows,
                    shared_queue=True,
                )
            start = time.perf_counter()
            report = service.serve(requests).fleet.fleet
            wall = time.perf_counter() - start
            dollars = storage_dollars(
                storage, row_bytes, backing_rows=key_space
            )
            point[label] = {
                "p99_ms": report.latency_ms["p99"],
                "cache_hit_rate": report.cache_hit_rate,
                "dollars": dollars,
                "dollars_per_1k_requests": dollars_per_1k_requests(
                    dollars, report.throughput_rps
                ),
                "wall_clock_s": wall,
            }
        point["p99_ratio_tiered_over_hbm"] = (
            point["tiered"]["p99_ms"] / point["all-hbm"]["p99_ms"]
        )
        point["cost_ratio_tiered_over_hbm"] = (
            point["tiered"]["dollars"] / point["all-hbm"]["dollars"]
        )
        points[f"{ratio}x"] = point
        print(f"  {ratio:3d}x: p99 ratio "
              f"{point['p99_ratio_tiered_over_hbm']:.2f}, cost ratio "
              f"{point['cost_ratio_tiered_over_hbm']:.2f}", flush=True)

    worst_ratio = max(
        p["p99_ratio_tiered_over_hbm"] for p in points.values()
    )
    best_cost = min(
        p["cost_ratio_tiered_over_hbm"] for p in points.values()
    )
    record = {
        "bench": "tiering",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "requests": args.requests,
            "lookups_per_request": args.lookups,
            "cache_rows": args.cache_rows,
            "ratios": list(ratios),
            "qps": args.qps,
            "fast": bool(args.fast),
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": points,
        "worst_p99_ratio_tiered_over_hbm": worst_ratio,
        "best_cost_ratio_tiered_over_hbm": best_cost,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"tiered worst p99 inflation {worst_ratio:.2f}x, best cost "
          f"ratio {best_cost:.2f}x -> wrote {args.out}")
    return record


def bench_faults(args) -> dict:
    """Retry overhead, degraded-serve fraction, MTTR vs cadence."""
    from repro.api import (
        ClusterSpec,
        FaultSpec,
        RunSpec,
        ServeSpec,
        Session,
    )

    qps = 4_000_000.0
    span = args.requests / qps
    cadences_s = (0.0, 0.001, 0.002, 0.004, 0.008)
    cluster = ClusterSpec(num_hosts=8, gpus_per_host=4, generation="A100")

    def serve_section() -> ServeSpec:
        # 4 fetch hosts so replica count (not the shared fetch tier)
        # bounds capacity — same geometry as the fault_tolerance
        # experiment, scaled by --requests.
        return ServeSpec(
            kind="dlrm",
            qps=qps,
            num_requests=args.requests,
            placement="disaggregated",
            emb_hosts=4,
            fleet_replicas=3,
            router="round_robin",
            cache_rows=args.cache_rows,
            key_space=20_000,
            skew=1.2,
        )

    def crash_faults(crashes: int, period_s: float) -> FaultSpec:
        return FaultSpec(
            seed=3,
            replica_crashes=crashes,
            start_s=0.3 * span,
            end_s=0.6 * span,
            timeout_ms=0.5,
            detection_ms=0.3,
            restore_ms=0.3,
            checkpoint_period_s=period_s,
            cold_rebuild_ms=5.0,
            warm_rows=8192,
        )

    print(f"benchmarking fault tolerance ({args.requests} requests, "
          f"3 replicas, cache {args.cache_rows} rows) ...", flush=True)

    base_spec = RunSpec(
        name="bench-faults-baseline", cluster=cluster, serve=serve_section()
    )
    base_p99 = (
        Session(base_spec).serve().reports["disaggregated"].latency_ms["p99"]
    )
    print(f"  baseline (no faults): p99 {base_p99:.3f} ms", flush=True)

    crash_spec = RunSpec(
        name="bench-faults-crash",
        cluster=cluster,
        serve=serve_section(),
        faults=crash_faults(crashes=2, period_s=0.002),
    )
    crash = Session(crash_spec).serve().fault_reports["disaggregated"]
    crash_p99 = crash.fleet.fleet.latency_ms["p99"]
    print(f"  crash storm + retries: p99 {crash_p99:.3f} ms "
          f"({crash_p99 / base_p99:.2f}x baseline), retried "
          f"{crash.retried_fraction * 100.0:.2f}%, lost "
          f"{crash.lost_fraction * 100.0:.2f}%", flush=True)

    outage_spec = RunSpec(
        name="bench-faults-outage",
        cluster=cluster,
        serve=serve_section(),
        faults=FaultSpec(
            seed=7,
            fetch_outages=1,
            outage_duration_s=0.2 * span,
            start_s=0.3 * span,
            end_s=0.6 * span,
            timeout_ms=0.5,
        ),
    )
    outage = Session(outage_spec).serve().fault_reports["disaggregated"]
    print(f"  fetch outage (degraded mode): served degraded "
          f"{outage.degraded_fraction * 100.0:.2f}%, lost "
          f"{outage.lost_fraction * 100.0:.2f}%", flush=True)

    mttr_by_cadence = {}
    mttr_ladder = []
    for period in cadences_s:
        spec = RunSpec(
            name=f"bench-faults-cadence-{period:g}",
            cluster=cluster,
            serve=serve_section(),
            faults=crash_faults(crashes=1, period_s=period),
        )
        report = Session(spec).serve().fault_reports["disaggregated"]
        mttr_ms = report.mttr_s * 1e3
        mttr_ladder.append(mttr_ms)
        label = "cold" if period == 0 else f"{period * 1e3:g}ms"
        mttr_by_cadence[label] = mttr_ms
    # Cold rebuild (index 0) is the ceiling; among real cadences MTTR
    # must rise with the period (replaying a longer tail of traffic).
    monotone = all(
        mttr_ladder[i] < mttr_ladder[i + 1]
        for i in range(1, len(mttr_ladder) - 1)
    ) and all(m < mttr_ladder[0] for m in mttr_ladder[1:])
    print("  MTTR ladder: "
          + ", ".join(f"{k}={v:.2f}ms" for k, v in mttr_by_cadence.items())
          + f" (monotone: {monotone})", flush=True)

    record = {
        "bench": "faults",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "requests": args.requests,
            "qps": qps,
            "cache_rows": args.cache_rows,
            "cadences_s": list(cadences_s),
            "fast": bool(args.fast),
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {
            "baseline": {"p99_ms": base_p99},
            "crash_retry": {
                "spec": crash_spec.to_dict(),
                "p99_ms": crash_p99,
                "retried_fraction": crash.retried_fraction,
                "num_retries": crash.num_retries,
                "lost_fraction": crash.lost_fraction,
                "mttr_ms": crash.mttr_s * 1e3,
            },
            "outage_degraded": {
                "spec": outage_spec.to_dict(),
                "degraded_fraction": outage.degraded_fraction,
                "lost_fraction": outage.lost_fraction,
                "quality_cost": outage.quality_cost,
            },
            "mttr_by_cadence_ms": mttr_by_cadence,
        },
        "retry_overhead_p99_ratio": crash_p99 / base_p99,
        "degraded_serve_fraction": outage.degraded_fraction,
        "mttr_monotone_in_cadence": monotone,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"retry overhead {record['retry_overhead_p99_ratio']:.2f}x p99, "
          f"degraded-serve {outage.degraded_fraction * 100.0:.2f}%, MTTR "
          f"monotone={monotone} -> wrote {args.out}")
    return record


def bench_freshness(args) -> dict:
    """Online-vs-frozen AUC gain and delta-checkpoint compression."""
    import tempfile

    from repro.experiments.model_freshness import freshness_spec
    from repro.api import Session

    fast = bool(args.fast)
    print(f"benchmarking model freshness "
          f"({'fast' if fast else 'full'} geometry) ...", flush=True)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        spec = freshness_spec(fast, directory=tmp)
        if args.requests is not None:
            spec = spec.replace(
                serve=spec.serve.replace(num_requests=args.requests)
            )
        art = Session(spec).online()
    wall = time.perf_counter() - start

    rep = art.report
    summary = art.summary()
    auc_gain = art.mean_online_auc - art.mean_frozen_auc
    for w in rep.windows:
        print(f"  window {w['window']}: frozen {w['frozen_auc']:.4f} "
              f"vs online {w['online_auc']:.4f} "
              f"(serving v{w['deployed_version']}, "
              f"staleness {w['staleness_windows']})", flush=True)

    record = {
        "bench": "freshness",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "spec": spec.to_dict(),
            "fast": fast,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {
            "online": summary,
            "windows": rep.windows,
            "num_swaps": len(art.swap_events),
            "wall_clock_s": wall,
        },
        "mean_auc_gain_online_over_frozen": auc_gain,
        "freshness_dominates": bool(art.freshness_dominates),
        "delta_compression_over_full": rep.delta_compression,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"mean AUC gain (online over frozen): {auc_gain:+.4f} "
          f"(dominates: {record['freshness_dominates']}), deltas "
          f"{rep.delta_compression:.1f}x smaller than full saves "
          f"-> wrote {args.out}")
    return record


def bench_ab(args) -> dict:
    """Paired multi-task A/B: DBMTL-over-shared-bottom per-task deltas."""
    from repro.api import Session
    from repro.experiments.multi_task_ab import ab_spec

    fast = bool(args.fast)
    print(f"benchmarking multi-task A/B "
          f"({'fast' if fast else 'full'} geometry) ...", flush=True)
    start = time.perf_counter()
    spec = ab_spec(fast)
    art = Session(spec).ab()
    wall = time.perf_counter() - start

    for task in art.tasks:
        cell = art.delta(task, "auc")
        print(f"  {task}: AUC delta {cell['mean_delta']:+.4f} "
              f"[{cell['ci_low']:+.4f}, {cell['ci_high']:+.4f}] "
              f"(excludes zero: {cell['excludes_zero']})", flush=True)

    cvr = art.delta("cvr", "auc")
    record = {
        "bench": "ab",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "spec": spec.to_dict(),
            "fast": fast,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {
            "ab": art.summary(),
            "wall_clock_s": wall,
        },
        "cvr_auc_delta_dbmtl_over_shared": cvr["mean_delta"],
        "cvr_auc_ci_excludes_zero": bool(cvr["excludes_zero"]),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"CVR AUC delta (dbmtl over shared_bottom): "
          f"{cvr['mean_delta']:+.4f} "
          f"(CI excludes zero: {record['cvr_auc_ci_excludes_zero']}) "
          f"-> wrote {args.out}")
    return record


def bench_sparse(args) -> dict:
    results = {}
    for mode in ("rowwise", "dense"):
        print(f"benchmarking sparse_grad_mode={mode} "
              f"({args.tables} tables x {args.rows} rows x {args.dim} dim, "
              f"batch {args.batch}) ...", flush=True)
        results[mode] = bench_mode(args, mode)
        print(f"  {results[mode]['sec_per_step']:.4f} s/step, "
              f"peak {results[mode]['peak_step_bytes'] / 1e6:.1f} MB/step",
              flush=True)

    record = {
        "bench": "sparse_path",
        "version": BENCH_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "tables": args.tables,
            "rows": args.rows,
            "dim": args.dim,
            "batch": args.batch,
            "pooling": args.pooling,
            "fast": bool(args.fast),
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "speedup_rowwise_over_dense": (
            results["dense"]["sec_per_step"]
            / results["rowwise"]["sec_per_step"]
        ),
        "memory_ratio_dense_over_rowwise": (
            results["dense"]["peak_step_bytes"]
            / max(results["rowwise"]["peak_step_bytes"], 1)
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"speedup (rowwise over dense): "
          f"{record['speedup_rowwise_over_dense']:.1f}x -> wrote {args.out}")
    return record


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench",
                        choices=("sparse", "serving", "tiering", "faults",
                                 "freshness", "ab"),
                        default="sparse")
    parser.add_argument("--fast", action="store_true",
                        help="CI smoke geometry (seconds, not minutes)")
    parser.add_argument("--tables", type=int, default=None)
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--pooling", type=int, default=1)
    parser.add_argument("--steps", type=int, default=None,
                        help="measured steps (per mode)")
    parser.add_argument("--warmup", type=int, default=None)
    # serving-bench knobs
    parser.add_argument("--requests", type=int, default=None,
                        help="serving trace length (default 100k)")
    parser.add_argument("--lookups", type=int, default=26)
    parser.add_argument("--key-space", type=int, default=100_000)
    parser.add_argument("--serve-batch", type=int, default=256)
    parser.add_argument("--cache-rows", type=int, default=16_384)
    parser.add_argument("--qps", type=float, default=500_000.0)
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions for cache timings")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.out is None:
        args.out = {
            "serving": "BENCH_serving.json",
            "tiering": "BENCH_tiering.json",
            "faults": "BENCH_faults.json",
            "freshness": "BENCH_freshness.json",
            "ab": "BENCH_ab.json",
            "sparse": "BENCH_sparse_path.json",
        }[args.bench]
    if args.bench == "serving":
        if args.requests is None:
            args.requests = 10_000 if args.fast else 100_000
        return bench_serving(args)
    if args.bench == "tiering":
        if args.requests is None:
            args.requests = 4_000 if args.fast else 50_000
        return bench_tiering(args)
    if args.bench == "faults":
        if args.requests is None:
            args.requests = 30_000 if args.fast else 120_000
        return bench_faults(args)
    if args.bench == "freshness":
        # requests default comes from the spec geometry; --requests
        # overrides the serve trace length if given.
        return bench_freshness(args)
    if args.bench == "ab":
        return bench_ab(args)

    if args.fast:
        defaults = dict(tables=8, rows=20_000, dim=32, steps=5, warmup=2)
    else:
        # Acceptance geometry; dense rewrites the full ~26 GB optimizer
        # state each step, so one warmed-up step is all we can afford.
        defaults = dict(tables=26, rows=1_000_000, dim=128, steps=1, warmup=1)
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return bench_sparse(args)


if __name__ == "__main__":
    main()
