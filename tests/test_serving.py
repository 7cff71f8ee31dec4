"""Tests for the serving subsystem (workload, batcher, cache, and the
shared-queue pool preset of the fleet engine)."""

import numpy as np
import pytest

from repro.api import ClusterSpec, RunSpec, ServeSpec, Session, SpecError
from repro.hardware import Cluster
from repro.serving import (
    LRUEmbeddingCache,
    MicroBatch,
    MicroBatcher,
    OpenBatch,
    Placement,
    ReferenceLRUCache,
    Request,
    RequestStream,
    ServingFleet,
    ServingModel,
    ServingReport,
    WorkloadConfig,
    build_report,
)
from repro.serving.service import ID_WIRE_BYTES
from repro.sim import Phase, SimCluster


def req(i: int, t: float, keys=(0,)) -> Request:
    return Request(req_id=i, arrival_s=t, keys=np.asarray(keys, dtype=np.int64))


def tiny_model(**overrides) -> ServingModel:
    kwargs = dict(
        name="tiny",
        num_lookups=4,
        embedding_dim=16,
        dense_mflops=1.0,
    )
    kwargs.update(overrides)
    return ServingModel(**kwargs)


# ----------------------------------------------------------------------
class TestWorkload:
    def test_poisson_stream_is_deterministic_and_sorted(self):
        cfg = WorkloadConfig(qps=500.0, num_requests=200, seed=11)
        a = RequestStream(cfg).generate()
        b = RequestStream(cfg).generate()
        assert a == b
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert all(r.keys.shape == (cfg.num_lookups,) for r in a)

    def test_mean_rate_approximates_qps(self):
        cfg = WorkloadConfig(qps=1000.0, num_requests=5000, seed=0)
        reqs = RequestStream(cfg).generate()
        span = reqs[-1].arrival_s - reqs[0].arrival_s
        rate = (len(reqs) - 1) / span
        assert rate == pytest.approx(1000.0, rel=0.1)

    def test_skew_concentrates_mass_on_hot_keys(self):
        flat = RequestStream(WorkloadConfig(skew=0.0, key_space=1000))
        hot = RequestStream(WorkloadConfig(skew=1.2, key_space=1000))
        assert hot.hot_fraction(10) > flat.hot_fraction(10)
        assert flat.hot_fraction(100) == pytest.approx(0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(qps=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(skew=-0.1)
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0)

    def test_requests_are_hashable_consistently_with_eq(self):
        a = req(0, 0.5, keys=(1, 2))
        b = req(0, 0.5, keys=(1, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, req(1, 0.5, keys=(1, 2))}) == 2


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flush_on_full(self):
        reqs = [req(i, 0.0001 * i) for i in range(10)]
        batches = MicroBatcher(max_batch_size=4, max_delay_s=10.0).form_batches(reqs)
        assert [b.size for b in batches] == [4, 4, 2]
        # A full batch closes the moment its last request arrives.
        assert batches[0].ready_s == pytest.approx(reqs[3].arrival_s)
        assert batches[1].ready_s == pytest.approx(reqs[7].arrival_s)

    def test_flush_on_deadline(self):
        # Two requests 1 ms apart, then a 100 ms gap: the deadline
        # (5 ms after the batch opened) closes the batch long before
        # the third request arrives.
        reqs = [req(0, 0.000), req(1, 0.001), req(2, 0.100)]
        batches = MicroBatcher(max_batch_size=64, max_delay_s=0.005).form_batches(reqs)
        assert [b.size for b in batches] == [2, 1]
        assert batches[0].ready_s == pytest.approx(0.005)
        assert batches[1].ready_s == pytest.approx(0.105)

    def test_zero_delay_serves_singletons(self):
        reqs = [req(i, 0.01 * i) for i in range(3)]
        batches = MicroBatcher(max_batch_size=8, max_delay_s=0.0).form_batches(reqs)
        assert [b.size for b in batches] == [1, 1, 1]
        assert all(b.ready_s == b.requests[0].arrival_s for b in batches)

    def test_zero_delay_identical_arrivals_stay_singletons(self):
        """Regression: with max_delay_s=0 a request arriving exactly at
        the (already expired) deadline used to join the previous batch,
        so simultaneous arrivals glued into one never-delayed batch."""
        reqs = [req(i, 0.005) for i in range(3)]
        batches = MicroBatcher(max_batch_size=8, max_delay_s=0.0).form_batches(reqs)
        assert [b.size for b in batches] == [1, 1, 1]
        assert all(b.ready_s == 0.005 for b in batches)

    def test_arrival_exactly_on_deadline_starts_next_batch(self):
        """The deadline is exclusive: the batch accepts [t, t+delay)."""
        reqs = [req(0, 0.000), req(1, 0.005), req(2, 0.0099)]
        batches = MicroBatcher(max_batch_size=8, max_delay_s=0.005).form_batches(reqs)
        assert [b.size for b in batches] == [1, 2]
        assert batches[0].ready_s == pytest.approx(0.005)
        assert batches[1].ready_s == pytest.approx(0.010)

    def test_no_request_lost_or_duplicated(self):
        stream = RequestStream(WorkloadConfig(qps=2000.0, num_requests=333, seed=5))
        reqs = stream.generate()
        batches = MicroBatcher(max_batch_size=7, max_delay_s=0.002).form_batches(reqs)
        served = [r.req_id for b in batches for r in b.requests]
        assert sorted(served) == list(range(333))

    def test_resumed_batching_matches_whole_trace(self):
        """The fleet engine batches a replica's arrivals in pieces,
        carrying the open batch across each boundary: the batches must
        be exactly those of batching the whole trace at once."""
        stream = RequestStream(WorkloadConfig(qps=20_000.0, num_requests=600, seed=8))
        reqs = stream.generate()
        batcher = MicroBatcher(max_batch_size=5, max_delay_s=0.0004)
        whole = batcher.form_batches(reqs)
        rng = np.random.default_rng(1)
        for _ in range(5):
            cuts = sorted(rng.choice(np.arange(1, 600), size=40, replace=False).tolist())
            carry = OpenBatch()
            pieces = []
            for lo, hi in zip([0, *cuts], [*cuts, 600]):
                pieces.extend(batcher.form_batches(reqs[lo:hi], carry))
            if carry.requests:
                pieces.append(carry.close())
            assert [(b.ready_s, [r.req_id for r in b.requests]) for b in pieces] == [
                (b.ready_s, [r.req_id for r in b.requests]) for b in whole
            ]

    def test_batch_validation(self):
        with pytest.raises(ValueError, match=">= 1 request"):
            MicroBatch(requests=(), ready_s=0.0)
        with pytest.raises(ValueError, match="close"):
            MicroBatch(requests=(req(0, 1.0),), ready_s=0.5)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0, max_delay_s=0.0)


# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hits_and_misses(self):
        cache = LRUEmbeddingCache(capacity_rows=4)
        hits, misses = cache.lookup(np.array([1, 2, 2, 3]))
        assert hits == 0 and list(misses) == [1, 2, 3]  # deduplicated
        cache.admit(misses)
        hits, misses = cache.lookup(np.array([2, 3, 9]))
        assert hits == 2 and list(misses) == [9]
        assert cache.stats.hit_rate == pytest.approx(2 / 6)  # deduped lookups

    def test_lru_eviction_order(self):
        cache = LRUEmbeddingCache(capacity_rows=2)
        cache.admit(np.array([1, 2]))
        cache.lookup(np.array([1]))  # touch 1 -> 2 is now LRU
        cache.admit(np.array([3]))  # evicts 2
        hits, misses = cache.lookup(np.array([1, 2, 3]))
        assert hits == 2 and list(misses) == [2]

    def test_zero_capacity_disables_caching(self):
        cache = LRUEmbeddingCache(capacity_rows=0)
        _, misses = cache.lookup(np.array([1, 2]))
        cache.admit(misses)
        hits, _ = cache.lookup(np.array([1, 2]))
        assert hits == 0 and len(cache) == 0

    def test_prefill_duplicates_neither_counted_nor_seated_twice(self):
        """Regression: prefill used to report len(first-capacity-slice)
        even when duplicate keys collapsed into fewer inserted rows."""
        for cls in (LRUEmbeddingCache, ReferenceLRUCache):
            cache = cls(capacity_rows=4)
            assert cache.prefill(np.array([5, 5, 3, 5, 3])) == 2
            assert len(cache) == 2
            hits, misses = cache.lookup(np.array([3, 5, 9]))
            assert hits == 2 and list(misses) == [9]

    def test_prefill_dedupes_before_truncating_to_capacity(self):
        """A duplicated hot key must not push a distinct key out of the
        capacity window."""
        for cls in (LRUEmbeddingCache, ReferenceLRUCache):
            cache = cls(capacity_rows=2)
            assert cache.prefill(np.array([7, 7, 8, 9])) == 2
            hits, misses = cache.lookup(np.array([7, 8, 9]))
            assert hits == 2 and list(misses) == [9]

    def test_prefill_keeps_hottest_rows_most_recent(self):
        for cls in (LRUEmbeddingCache, ReferenceLRUCache):
            cache = cls(capacity_rows=2)
            cache.prefill(np.array([10, 11]))  # hottest-first order
            cache.admit(np.array([12]))  # evicts the coldest: 11
            hits, misses = cache.lookup(np.array([10, 11, 12]))
            assert hits == 2 and list(misses) == [11]

    def test_probe_equals_lookup_then_admit(self):
        trace = [
            np.array([1, 2, 3]),
            np.array([2, 3, 4, 4]),
            np.array([1, 5]),
        ]
        split, fused = LRUEmbeddingCache(3), LRUEmbeddingCache(3)
        for keys in trace:
            hits, misses = split.lookup(keys)
            split.admit(misses)
            fused_hits, fused_misses = fused.probe(keys)
            assert fused_hits == hits
            assert np.array_equal(fused_misses, misses)
        assert split.stats == fused.stats
        assert np.array_equal(split.contents(), fused.contents())

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_negative_row_ids_rejected_everywhere(self, capacity):
        """Both implementations enforce the same id domain on every
        operation (including the capacity-0 control arm), so a corrupt
        trace fails identically whichever backs the service."""
        for cls in (LRUEmbeddingCache, ReferenceLRUCache):
            cache = cls(capacity)
            for op in (cache.lookup, cache.admit, cache.probe,
                       cache.prefill):
                with pytest.raises(ValueError, match="non-negative"):
                    op(np.array([3, -1]))

    def test_vectorized_matches_reference_fuzz(self):
        """Acceptance: the numpy fast path reproduces the OrderedDict
        reference's hit/miss/eviction accounting bit-for-bit under
        random capacities and dup-heavy batches."""
        rng = np.random.default_rng(123)
        for _ in range(60):
            capacity = int(rng.integers(0, 24))
            fast, ref = (
                LRUEmbeddingCache(capacity),
                ReferenceLRUCache(capacity),
            )
            for _ in range(40):
                op = int(rng.integers(0, 4))
                # a small key universe makes batches duplicate-heavy
                keys = rng.integers(0, 30, size=int(rng.integers(0, 16)))
                if op == 0:
                    got, want = fast.lookup(keys), ref.lookup(keys)
                    assert got[0] == want[0]
                    assert np.array_equal(got[1], want[1])
                elif op == 1:
                    fast.admit(keys)
                    ref.admit(keys)
                elif op == 2:
                    assert fast.prefill(keys) == ref.prefill(keys)
                else:
                    got, want = fast.probe(keys), ref.probe(keys)
                    assert got[0] == want[0]
                    assert np.array_equal(got[1], want[1])
                assert len(fast) == len(ref)
                assert np.array_equal(fast.contents(), ref.contents())
                assert fast.stats == ref.stats

    def test_vectorized_matches_reference_on_served_trace(self):
        """The whole serving report — latencies, breakdowns, cache
        accounting — is identical whichever implementation backs the
        pool's cache."""
        reqs = RequestStream(
            WorkloadConfig(
                qps=30_000.0, num_requests=1200, num_lookups=6,
                key_space=800, skew=1.1, seed=9,
            )
        ).generate()
        reports = {}
        for cls in (LRUEmbeddingCache, ReferenceLRUCache):
            sim = SimCluster(Cluster(4, 2, "A100"))
            svc = ServingFleet(
                sim,
                tiny_model(),
                Placement("disaggregated", emb_hosts=1),
                MicroBatcher(16, 0.001),
                cache_factory=lambda: cls(256),
                shared_queue=True,
            )
            reports[cls.__name__] = svc.serve(reqs).fleet.fleet.to_dict()
        assert (
            reports["LRUEmbeddingCache"] == reports["ReferenceLRUCache"]
        )

    def test_hit_rate_monotone_in_skew(self):
        """Hotter traffic -> better LRU hit rate (the FlexEMR premise)."""
        rates = []
        for skew in (0.0, 0.6, 1.2):
            stream = RequestStream(
                WorkloadConfig(
                    qps=1000.0,
                    num_requests=600,
                    num_lookups=8,
                    key_space=5000,
                    skew=skew,
                    seed=2,
                )
            )
            cache = LRUEmbeddingCache(capacity_rows=256)
            for batch in MicroBatcher(32, 0.01).form_batches(stream.generate()):
                _, misses = cache.lookup(batch.keys)
                cache.admit(misses)
            rates.append(cache.stats.hit_rate)
        assert rates[0] < rates[1] < rates[2]


# ----------------------------------------------------------------------
def make_service(strategy: str, cluster=None, **kw) -> ServingFleet:
    """The shared-queue pool: one batcher and cache over every dense
    host."""
    sim = SimCluster(cluster or Cluster(num_hosts=4, gpus_per_host=2, generation="A100"))
    return ServingFleet(
        sim,
        kw.pop("model", tiny_model()),
        Placement(strategy, emb_hosts=kw.pop("emb_hosts", 1)),
        MicroBatcher(
            kw.pop("max_batch_size", 16), kw.pop("max_delay_s", 0.001)
        ),
        cache_rows=kw.pop("cache_rows", 512),
        shared_queue=True,
    )


def serve(svc: ServingFleet, requests) -> ServingReport:
    return svc.serve(requests).fleet.fleet


# Named after the standalone single-service replay the pool replaced,
# which keeps these tests' ids stable.
class TestInferenceService:
    def _trace(self, qps=20_000.0, n=2000, seed=3, **cfg):
        return RequestStream(
            WorkloadConfig(
                qps=qps, num_requests=n, num_lookups=4, key_space=2000,
                seed=seed, **cfg
            )
        ).generate()

    def test_percentiles_deterministic_under_fixed_seed(self):
        reqs = self._trace()
        a = serve(make_service("colocated"), reqs)
        b = serve(make_service("colocated"), self._trace())
        assert a.to_dict() == b.to_dict()
        assert a.latency_ms["p50"] <= a.latency_ms["p95"] <= a.latency_ms["p99"]

    def test_timeline_has_all_serving_phases(self):
        svc = make_service("colocated")
        svc.serve(self._trace(n=500))
        breakdown = svc.sim.timeline.breakdown()
        assert Phase.QUEUE in breakdown
        assert Phase.EMBEDDING_COMM in breakdown
        assert Phase.COMPUTE in breakdown
        # the dense-forward events carry real flop counts (bugfix)
        assert svc.sim.timeline.total_flops(Phase.COMPUTE) > 0

    def test_report_accounts_every_request(self):
        reqs = self._trace(n=777)
        report = serve(make_service("disaggregated"), reqs)
        assert report.num_requests == 777
        assert report.num_batches >= 777 // 16
        assert report.throughput_rps > 0
        assert 0.0 <= report.cache_hit_rate <= 1.0

    def test_disaggregated_beats_colocated_p99_at_high_qps(self):
        """The acceptance claim: past the colocated arm's fabric
        saturation, the disaggregated tier keeps the tail flat."""
        cluster = Cluster(num_hosts=8, gpus_per_host=4, generation="A100")
        model = ServingModel(
            name="dlrm-like", num_lookups=26, embedding_dim=128,
            dense_mflops=5.0,
        )
        reqs = RequestStream(
            WorkloadConfig(
                qps=3_000_000.0, num_requests=12_000, num_lookups=26,
                key_space=100_000, skew=1.0, seed=7,
            )
        ).generate()
        reports = {}
        for strategy in ("colocated", "disaggregated"):
            svc = make_service(
                strategy, cluster=cluster, model=model, emb_hosts=2,
                max_batch_size=64, cache_rows=16_384,
            )
            reports[strategy] = serve(svc, reqs)
        assert (
            reports["disaggregated"].latency_ms["p99"]
            < reports["colocated"].latency_ms["p99"]
        )
        # the colocated arm is saturated; the disaggregated one is not
        assert (
            reports["disaggregated"].throughput_rps
            > reports["colocated"].throughput_rps
        )

    def test_fetch_events_record_the_priced_payload(self):
        """Each EMBEDDING_COMM event's nbytes must reproduce its
        seconds through the cost model (the per-rank payload
        convention of repro.sim.cluster)."""
        svc = make_service("colocated")
        svc.serve(self._trace(n=400))
        events = [
            e for e in svc.sim.timeline.events
            if e.phase is Phase.EMBEDDING_COMM
        ]
        assert events
        for event in events[:10]:
            repriced = svc.sim.cost_model.alltoall(svc.engine.world, event.nbytes)
            assert event.seconds == pytest.approx(repriced.seconds)
            assert event.world_size == svc.engine.world.world_size

    def test_fetch_prices_id_and_row_legs_symmetrically(self):
        """Regression: the colocated arm used to bill only the row leg
        (disaggregated billed ids + rows), skewing the placement
        comparison toward colocated.  Both arms must price
        row_bytes + ID_WIRE_BYTES per miss row."""
        import math

        model = tiny_model()
        reqs = self._trace(n=300)
        first_misses = len(
            np.unique(
                MicroBatcher(16, 0.001).form_batches(reqs)[0].keys
            )
        )
        per_miss = model.row_bytes + ID_WIRE_BYTES
        svc_c = make_service("colocated", model=model)
        svc_c.serve(reqs)
        event = next(
            e for e in svc_c.sim.timeline.events
            if e.phase is Phase.EMBEDDING_COMM
        )
        world = svc_c.engine.world.world_size
        assert event.nbytes == max(
            1, math.ceil(first_misses * per_miss / world)
        )
        svc_d = make_service("disaggregated", model=model)
        svc_d.serve(reqs)
        event_d = next(
            e for e in svc_d.sim.timeline.events
            if e.phase is Phase.EMBEDDING_COMM
        )
        streams = svc_d.sim.cluster.gpus_per_host
        assert event_d.nbytes == max(
            1, math.ceil(first_misses * per_miss / streams)
        )

    def test_cache_shrinks_fetch_traffic(self):
        svc_cached = make_service("disaggregated", cache_rows=1024)
        svc_cold = make_service("disaggregated", cache_rows=0)
        reqs = self._trace(n=1000, skew=1.2)
        svc_cached.serve(reqs)
        svc_cold.serve(reqs)
        bytes_cached = svc_cached.sim.timeline.bytes_by_phase()[Phase.EMBEDDING_COMM]
        bytes_cold = svc_cold.sim.timeline.bytes_by_phase()[Phase.EMBEDDING_COMM]
        assert bytes_cached < bytes_cold

    def test_report_covers_only_its_own_trace_on_reuse(self):
        """Regression: breakdown and hit rate used to accumulate across
        serve() calls while percentiles stayed per-trace."""
        svc = make_service("colocated")
        first = serve(svc, self._trace(n=600))
        second = serve(svc, self._trace(n=600))
        # Same trace, same dense work: the compute bucket must not double.
        assert second.breakdown_ms["compute"] == pytest.approx(
            first.breakdown_ms["compute"], rel=0.01
        )
        # Per-trace hit accounting (the warm cache makes run 2 better).
        assert second.cache_hits + second.cache_misses == (
            first.cache_hits + first.cache_misses
        )
        assert second.cache_hit_rate > first.cache_hit_rate

    def test_single_request_trace_serializes_to_valid_json(self):
        """Regression: offered_qps was float('inf'), which json.dumps
        emits as the non-standard 'Infinity' token."""
        import json

        report = serve(make_service("colocated"), [req(0, 0.0, keys=(1, 2))])
        payload = json.dumps(report.to_dict())
        assert "Infinity" not in payload
        assert json.loads(payload)["offered_qps"] is None

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="unknown placement"):
            Placement("sharded")
        with pytest.raises(ValueError, match="dense host"):
            make_service("disaggregated", emb_hosts=4)
        with pytest.raises(ValueError, match="empty"):
            serve(make_service("colocated"), [])

    def test_from_profile_geometry(self):
        from repro.perf.profiles import baseline_profile

        profile = baseline_profile("dlrm")
        model = ServingModel.from_profile(profile)
        assert model.num_lookups == profile.num_sparse
        assert model.embedding_dim == profile.embedding_dim
        assert model.row_bytes == profile.embedding_dim * 4
        assert ID_WIRE_BYTES == 8


# ----------------------------------------------------------------------
class TestServeSpec:
    def test_json_round_trip(self):
        spec = RunSpec(
            name="serve",
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            serve=ServeSpec(
                qps=123_456.0,
                num_requests=777,
                skew=0.7,
                cache_rows=99,
                placement="disaggregated",
                emb_hosts=1,
            ),
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert ServeSpec.from_dict(spec.serve.to_dict()) == spec.serve

    def test_validation(self):
        with pytest.raises(SpecError, match="placement"):
            ServeSpec(placement="managed")
        with pytest.raises(SpecError, match="qps"):
            ServeSpec(qps=-1.0)
        with pytest.raises(SpecError, match="dense host"):
            RunSpec(
                cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
                serve=ServeSpec(placement="disaggregated", emb_hosts=2),
            )
        # colocated-only serving never needs a dense host split
        RunSpec(
            cluster=ClusterSpec(num_hosts=1, gpus_per_host=2),
            serve=ServeSpec(placement="colocated"),
        )

    def test_serve_plus_model_validates_eagerly(self):
        """Regression: a serve+model spec with missing prerequisites
        used to construct fine and fail mid-run."""
        from repro.api import DataSpec, ModelSpec, PartitionSpec

        with pytest.raises(SpecError, match="data section"):
            RunSpec(model=ModelSpec(variant="flat"), serve=ServeSpec())
        with pytest.raises(SpecError, match="partition section"):
            RunSpec(
                data=DataSpec(),
                model=ModelSpec(variant="dmt"),
                serve=ServeSpec(),
            )
        # with the prerequisites present it validates
        RunSpec(
            data=DataSpec(),
            model=ModelSpec(variant="dmt"),
            partition=PartitionSpec(strategy="naive"),
            serve=ServeSpec(),
        )

    def test_default_emb_hosts_scales_with_cluster(self):
        spec = ServeSpec()
        assert spec.resolved_emb_hosts(2) == 1
        assert spec.resolved_emb_hosts(8) == 2
        assert ServeSpec(emb_hosts=3).resolved_emb_hosts(8) == 3

    def test_spec_model_is_served_even_without_training(self):
        """A declared model section must never be silently replaced by
        the paper-scale profile named by serve.kind."""
        from repro.api import DataSpec, ModelSpec

        spec = RunSpec(
            name="serve-untrained-model",
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            data=DataSpec(num_samples=500),
            model=ModelSpec(family="dcn", variant="flat", cross_layers=2,
                            embedding_dim=16),
            serve=ServeSpec(kind="dlrm", qps=20_000.0, num_requests=400,
                            emb_hosts=1),
        )
        art = Session(spec).serve()
        assert art.model.name == "DCN"  # the spec's model, not kind's
        assert art.model.embedding_dim == 16
        assert art.model.num_lookups == 26

    def test_session_serve_stage(self):
        spec = RunSpec(
            name="session-serve",
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            serve=ServeSpec(qps=50_000.0, num_requests=1500, emb_hosts=1),
        )
        session = Session(spec)
        art = session.serve()
        assert set(art.reports) == {"colocated", "disaggregated"}
        assert art.p99_speedup is not None
        result = session.run()
        assert result.serve is not None
        assert "p99_speedup_disaggregated" in result.serve
        assert "serve" in result.render()
        # the JSON twin carries cache + per-phase breakdown
        coloc = result.serve["placements"]["colocated"]
        assert "hit_rate" in coloc["cache"]
        assert "embedding_comm" in coloc["breakdown_ms"]


class TestEmptyReportMarker:
    """Regression: a replica can finish a trace (or an autoscaler
    window) having served nothing; the old ``build_report`` crashed on
    ``max()`` over an empty arrival list.  The explicit empty marker
    keeps the report shape and is detectable."""

    def test_empty_marker_shape_and_flag(self):
        report = ServingReport.empty("disaggregated", "tiny")
        assert report.is_empty
        assert report.num_requests == 0
        assert report.offered_qps is None
        assert report.latency_ms["p99"] == 0.0
        # Round-trips through the dict form like any other report.
        assert report.to_dict()["num_requests"] == 0

    def test_build_report_returns_marker_on_zero_traffic(self):
        report = build_report(
            placement="colocated",
            model="tiny",
            requests=[],
            num_batches=0,
            latencies_s=np.asarray([]),
            last_done_s=0.0,
            hits=0,
            misses=0,
            breakdown_ms={},
        )
        assert report.is_empty

    def test_served_report_is_not_empty(self):
        report = build_report(
            placement="colocated",
            model="tiny",
            requests=[req(0, 0.0, keys=(1, 2))],
            num_batches=1,
            latencies_s=np.asarray([0.001]),
            last_done_s=0.002,
            hits=1,
            misses=1,
            breakdown_ms={},
        )
        assert not report.is_empty
