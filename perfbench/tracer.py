"""Span tracer for the benchmark's traced run.

The tracer wraps the public calls into each layer of ``repro`` from the
outside (nothing under ``src/`` changes): :func:`install` replaces the
methods and functions named in ``README.md``'s per-layer table with
timing wrappers and returns a :class:`Patches` handle whose
``restore()`` puts every original back.  Untraced runs never call
:func:`install`, so they execute the program unmodified.

Every wrapped call becomes a span: name, start, end, parent span and
iteration id.  A layer's self time is its span's duration minus the
durations of its child spans (calls are sequential on one thread, so
children never overlap).  A call made while a span of the same name is
already open (a subclass calling ``super()``, a chained cache probing
its levels) is passed through untimed, so no layer counts its own work
twice.  Counts (ids looked up, keys probed, batches formed) are taken in
the same wrappers, at the same boundaries as the times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

#: Spans kept for the Chrome trace file; later spans are still timed
#: and aggregated, only not written out (a serve-faults iteration opens
#: ~10^5 per-request spans).
MAX_KEPT_SPANS = 150_000

NameSpec = Union[str, Callable[[], str]]


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 iteration: int):
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.iteration = iteration
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.iteration = 0
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._stack: List[Span] = []
        self._open: Dict[str, int] = {}
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: NameSpec, fn: Callable,
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` timed as span ``name`` (a string, or a zero-argument
        callable choosing it from the open spans); ``after(tracer, args,
        result)`` records counts once the call returns."""
        tracer = self
        stack = self._stack
        open_names = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name()
            if open_names.get(label):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(label, 0.0, parent, tracer.iteration)
            stack.append(span)
            open_names[label] = 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                open_names[label] = 0
                tracer._close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _close(self, span: Span) -> None:
        duration = span.end - span.start
        if span.parent is not None:
            span.parent.child_s += duration
        agg = self.totals.get(span.name)
        if agg is None:
            agg = self.totals[span.name] = [0, 0.0, 0.0]
            self.durations[span.name] = []
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - span.child_s
        self.durations[span.name].append(duration)
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    # -- reading --------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def percentile_ms(self, name: str, q: float) -> float:
        durations = self.durations.get(name)
        if not durations:
            return 0.0
        return float(np.percentile(durations, q)) * 1e3

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write the kept spans as Chrome trace-event JSON (opens in
        Perfetto / chrome://tracing).  Timestamps are microseconds from
        tracer creation; ``args`` carry span id, parent id, iteration."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        meta = dict(metadata, dropped_spans=self.dropped_spans)
        with open(path, "w") as fh:
            # Streamed one event per line: a traced serve-faults run
            # keeps ~10^5 spans per iteration.
            fh.write('{"displayTimeUnit": "ms", "otherData": '
                     f'{json.dumps(meta)}, "traceEvents": [\n')
            for i, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent else None
                event = {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": i, "parent": parent,
                             "iteration": span.iteration},
                }
                fh.write(("," if i else "") + json.dumps(event) + "\n")
            fh.write("]}\n")


class Patches:
    """Installed wrappers; :meth:`restore` undoes them in reverse."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[tuple] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: NameSpec,
               after: Optional[Callable] = None) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides
        it (properties wrap their getter)."""
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, property):
                wrapped: Any = property(
                    self.tracer.wrap(name, original.fget, after),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            else:
                wrapped = self.tracer.wrap(name, original, after)
            self._set(klass, attr, wrapped)

    def function(self, fn: Callable, name: NameSpec) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (``from x import fn`` copies the name)."""
        wrapped = self.tracer.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Counters recorded after a call returns.
def _count_ids(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add_count("nn.embedding.ids", np.asarray(args[1]).size)


def _count_batches(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add_count("serving.batcher.batches", len(result))
    tracer.add_count("serving.batcher.requests", len(args[1]))


def _count_probe(tracer: Tracer, args: tuple, result: Any) -> None:
    # A probe deduplicates its batch: keys = distinct keys = hits + misses.
    hits, misses = result
    tracer.add_count("serving.cache.keys", int(hits) + len(misses))
    tracer.add_count("serving.cache.hits", int(hits))


def install(tracer: Tracer) -> Patches:
    """Wrap every call in the per-layer table; returns the handle that
    restores the originals."""
    from repro.api.session import Session
    from repro.comm.cost_model import CollectiveCostModel
    from repro.core.dmt_pipeline import DistributedDMTTrainer
    from repro.core.sptt import SPTTEmbeddingExchange
    from repro.data.criteo import SyntheticCriteoDataset
    from repro.models.tower_module import TowerModuleBase
    from repro.nn.embedding import EmbeddingBagCollection, EmbeddingTable
    from repro.nn.interactions import DotInteraction
    from repro.nn.layers import Linear
    from repro.nn.optim import Optimizer
    from repro.partitioner.constrained_kmeans import ConstrainedKMeans
    from repro.partitioner.interaction_probe import (
        interaction_from_activations,
    )
    from repro.partitioner.mds import mds_embed
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import _LRUCacheBase
    from repro.serving.faults import ResilientFleet
    from repro.serving.fleet import Router, ServingFleet
    from repro.serving.service import PlacementEngine, build_report
    from repro.serving.tiers import CacheChain
    from repro.serving.workload import RequestStream
    from repro.training.loop import Trainer

    def probe_or(plain: str) -> Callable[[], str]:
        # Training inside Session.partition is the partitioner's flat
        # probe, not the workload's training stage.
        probe = "partitioner.probe_" + plain.split(".", 1)[1]
        return lambda: probe if tracer.is_open("api.partition") else plain

    p = Patches(tracer)
    p.method(Session, "analyze", "api.analyze")
    p.method(Session, "load_data", "api.data")
    p.method(Session, "partition", "api.partition")
    p.method(Session, "train", "api.train")
    p.method(Session, "serve", "api.serve")
    p.method(SyntheticCriteoDataset, "sample", "data.sample")
    p.method(Trainer, "fit", probe_or("training.fit"))
    p.method(Trainer, "train_batch", probe_or("training.step"))
    p.method(Trainer, "evaluate", probe_or("training.evaluate"))
    p.function(interaction_from_activations, "partitioner.interaction")
    p.function(mds_embed, "partitioner.mds")
    p.method(ConstrainedKMeans, "fit", "partitioner.kmeans")
    p.method(Linear, "forward", "nn.linear.fwd")
    p.method(Linear, "backward", "nn.linear.bwd")
    p.method(DotInteraction, "forward", "nn.interaction.fwd")
    p.method(DotInteraction, "backward", "nn.interaction.bwd")
    for cls in (EmbeddingTable, EmbeddingBagCollection):
        p.method(cls, "forward", "nn.embedding.fwd", after=_count_ids)
        p.method(cls, "backward", "nn.embedding.bwd")
    p.method(Optimizer, "step", "nn.optim.step")
    p.method(TowerModuleBase, "forward", "models.tower_module.fwd")
    p.method(TowerModuleBase, "backward", "models.tower_module.bwd")
    for attr in ("forward_to_towers", "forward"):
        p.method(SPTTEmbeddingExchange, attr, "core.sptt.forward")
    for attr in ("backward_from_towers", "backward"):
        p.method(SPTTEmbeddingExchange, attr, "core.sptt.backward")
    for attr in ("exchange_tower_outputs", "backward_tower_exchange"):
        p.method(SPTTEmbeddingExchange, attr, "core.sptt.tower_exchange")
    p.method(DistributedDMTTrainer, "train_step", "core.dmt.step")
    p.method(DistributedDMTTrainer, "sync_replicas", "core.dmt.sync_replicas")
    for attr in ("alltoall", "allreduce", "reducescatter", "allgather",
                 "point_to_point", "device_shuffle"):
        p.method(CollectiveCostModel, attr, "comm.cost_model")
    p.method(RequestStream, "generate", "serving.workload.generate")
    p.method(Router, "route_trace", "serving.router.route_trace")
    p.method(Router, "route_one", "serving.router.route_one")
    p.method(Router, "live_replicas", "serving.router.live_replicas")
    p.method(MicroBatcher, "form_batches", "serving.batcher.form_batches",
             after=_count_batches)
    for cls in (_LRUCacheBase, CacheChain):
        p.method(cls, "probe", "serving.cache.probe", after=_count_probe)
    p.method(PlacementEngine, "price_batch", "serving.service.price_batch")
    p.function(build_report, "serving.service.build_report")
    p.method(ServingFleet, "serve", "serving.fleet.serve")
    p.method(ResilientFleet, "serve", "serving.faults.serve")
    return p


# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, value(tracer, run)).  ``run``
# supplies the traced iteration count, the priced outputs of a traced
# iteration, the host-speed ``scale`` that turns measured seconds into
# reference-host seconds, and the traced / untraced median walls.
def _total(name: str):
    return lambda t, run: t.total_s(name) * run["scale"] / run["iterations"]


def _self(name: str):
    return lambda t, run: t.self_s(name) * run["scale"] / run["iterations"]


def _pct(name: str, q: float):
    return lambda t, run: t.percentile_ms(name, q) * run["scale"]


def _calls(name: str):
    return lambda t, run: t.calls(name) / run["iterations"]


def _count(name: str):
    return lambda t, run: t.counts.get(name, 0) / run["iterations"]


def _ratio(num: str, den: str):
    return lambda t, run: (
        t.counts.get(num, 0) / t.counts[den] if t.counts.get(den) else 0.0
    )


def _output(key: str):
    return lambda t, run: float(run["outputs"].get(key, 0))


def _overhead(t: Tracer, run: Dict[str, Any]) -> float:
    return run["traced_wall_s"] / run["untraced_wall_s"] - 1.0


def _time_metrics(name: str, metric: str, percentiles: bool = False):
    out = [(f"{metric}_s", "s", "lower", _total(name))]
    if percentiles:
        out += [
            (f"{metric}_p50_ms", "ms", "lower", _pct(name, 50)),
            (f"{metric}_p99_ms", "ms", "lower", _pct(name, 99)),
        ]
    return out


LAYER_METRICS = [
    ("api.import_s", "s", "lower", lambda t, run: run["import_s"]),
    *_time_metrics("api.analyze", "api.analyze"),
    *_time_metrics("api.data", "api.data"),
    *_time_metrics("api.partition", "api.partition"),
    *_time_metrics("api.train", "api.train"),
    *_time_metrics("api.serve", "api.serve"),
    *_time_metrics("data.sample", "data.sample"),
    ("data.sample_calls", "count", "lower", _calls("data.sample")),
    *_time_metrics("partitioner.probe_fit", "partitioner.probe_fit"),
    *_time_metrics("partitioner.interaction", "partitioner.interaction"),
    *_time_metrics("partitioner.mds", "partitioner.mds"),
    *_time_metrics("partitioner.kmeans", "partitioner.kmeans"),
    *_time_metrics("training.fit", "training.fit"),
    ("training.steps", "count", "lower", _calls("training.step")),
    ("training.step_p50_ms", "ms", "lower", _pct("training.step", 50)),
    ("training.step_p99_ms", "ms", "lower", _pct("training.step", 99)),
    *_time_metrics("training.evaluate", "training.evaluate"),
    *_time_metrics("nn.linear.fwd", "nn.linear.fwd", percentiles=True),
    *_time_metrics("nn.linear.bwd", "nn.linear.bwd", percentiles=True),
    *_time_metrics("nn.interaction.fwd", "nn.interaction.fwd"),
    *_time_metrics("nn.interaction.bwd", "nn.interaction.bwd"),
    *_time_metrics("nn.embedding.fwd", "nn.embedding.fwd", percentiles=True),
    *_time_metrics("nn.embedding.bwd", "nn.embedding.bwd"),
    ("nn.embedding.ids", "count", "lower", _count("nn.embedding.ids")),
    *_time_metrics("nn.optim.step", "nn.optim.step"),
    ("nn.optim.steps", "count", "lower", _calls("nn.optim.step")),
    *_time_metrics("models.tower_module.fwd", "models.tower_module.fwd"),
    *_time_metrics("models.tower_module.bwd", "models.tower_module.bwd"),
    *_time_metrics("core.sptt.forward", "core.sptt.forward"),
    *_time_metrics("core.sptt.backward", "core.sptt.backward"),
    *_time_metrics("core.sptt.tower_exchange", "core.sptt.tower_exchange"),
    ("core.dmt.step_self_s", "s", "lower", _self("core.dmt.step")),
    *_time_metrics("core.dmt.sync_replicas", "core.dmt.sync_replicas"),
    ("comm.cost_model_calls", "count", "lower", _calls("comm.cost_model")),
    *_time_metrics("comm.cost_model", "comm.cost_model", percentiles=True),
    ("sim.events", "count", "lower", _output("sim_events")),
    ("sim.bytes", "B", "lower", _output("sim_bytes")),
    *_time_metrics("serving.workload.generate", "serving.workload.generate"),
    *_time_metrics("serving.router.route_trace", "serving.router.route_trace"),
    ("serving.router.route_one_calls", "count", "lower",
     _calls("serving.router.route_one")),
    *_time_metrics("serving.router.route_one", "serving.router.route_one",
                   percentiles=True),
    ("serving.router.live_replicas_calls", "count", "lower",
     _calls("serving.router.live_replicas")),
    *_time_metrics("serving.batcher.form_batches",
                   "serving.batcher.form_batches"),
    ("serving.batcher.batches", "count", "lower",
     _count("serving.batcher.batches")),
    ("serving.batcher.mean_batch", "count", "higher",
     _ratio("serving.batcher.requests", "serving.batcher.batches")),
    *_time_metrics("serving.cache.probe", "serving.cache.probe",
                   percentiles=True),
    ("serving.cache.probe_calls", "count", "lower",
     _calls("serving.cache.probe")),
    ("serving.cache.keys", "count", "lower", _count("serving.cache.keys")),
    ("serving.cache.hit_rate", "fraction", "higher",
     _ratio("serving.cache.hits", "serving.cache.keys")),
    *_time_metrics("serving.service.price_batch",
                   "serving.service.price_batch", percentiles=True),
    ("serving.service.price_batch_calls", "count", "lower",
     _calls("serving.service.price_batch")),
    *_time_metrics("serving.service.build_report",
                   "serving.service.build_report"),
    ("serving.fleet.serve_self_s", "s", "lower",
     _self("serving.fleet.serve")),
    ("serving.faults.serve_self_s", "s", "lower",
     _self("serving.faults.serve")),
    ("serving.faults.retries", "count", "lower", _output("num_retries")),
    ("serving.faults.lost", "count", "lower", _output("num_lost")),
    ("trace.overhead_frac", "fraction", "lower", _overhead),
]


def layer_metrics(tracer: Tracer, run: Dict[str, Any]) -> Dict[str, dict]:
    """Every per-layer metric, per traced iteration (0 for a layer the
    workload does not reach)."""
    return {
        name: {"value": float(fn(tracer, run)), "unit": unit}
        for name, unit, _better, fn in LAYER_METRICS
    }
