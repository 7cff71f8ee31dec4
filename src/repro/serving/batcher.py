"""Dynamic micro-batching: flush on full batch or on queue deadline.

The serving tier amortizes per-batch costs (collective launch latency,
kernel launches) by grouping concurrent requests, at the price of
held-back latency for the requests that arrive first.  The policy here
is the standard dynamic batcher (TorchServe / Triton semantics): a
batch opens when a request arrives into an empty queue and closes at
whichever comes first of

- **flush-on-full** — the ``max_batch_size``-th request arrives, or
- **flush-on-deadline** — ``max_delay_s`` elapses since the batch
  opened.

This is an offline replay over a complete arrival trace, so the
deadline flush needs no timer machinery: a batch whose deadline passes
before the next arrival simply closes at its deadline.  The deadline
is exclusive — a batch opened at ``t`` accepts arrivals in
``[t, t + max_delay_s)``, and a request landing exactly on the
deadline starts the next batch (the timer has already fired).  With
``max_delay_s=0`` this degrades to no batching at all: every request
is served as a singleton, even under simultaneous arrivals.

This file is the only place the rule lives.  The fleet engine replays
a trace in pieces (between fault, swap and window events) by passing
each replica's :class:`OpenBatch` back in, so the batch still open at
a boundary keeps filling in the next piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.workload import Request


@dataclass(frozen=True)
class MicroBatch:
    """A group of requests served as one unit."""

    requests: Tuple[Request, ...]
    ready_s: float  # when the batch closed (full or deadline)

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a micro-batch must contain >= 1 request")
        last_arrival = max(r.arrival_s for r in self.requests)
        if self.ready_s < last_arrival:
            raise ValueError(
                f"batch cannot close ({self.ready_s}) before its last "
                f"request arrives ({last_arrival})"
            )

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def keys(self) -> np.ndarray:
        """All embedding row ids the batch needs (with duplicates)."""
        return np.concatenate([r.keys for r in self.requests])

    def batching_delay_s(self) -> float:
        """Mean time requests spent waiting for the batch to close."""
        return float(
            np.mean([self.ready_s - r.arrival_s for r in self.requests])
        )


class OpenBatch:
    """A batch still accepting requests, carried between resumed
    :meth:`MicroBatcher.form_batches` calls."""

    __slots__ = ("requests", "deadline")

    def __init__(self) -> None:
        self.requests: List[Request] = []
        self.deadline = 0.0

    def close(self, ready_s: Optional[float] = None) -> MicroBatch:
        """Close the batch at ``ready_s`` (default: its deadline)."""
        batch = MicroBatch(
            tuple(self.requests),
            ready_s=self.deadline if ready_s is None else ready_s,
        )
        self.requests = []
        return batch


class MicroBatcher:
    """Groups an arrival-ordered request trace into micro-batches.

    Examples
    --------
    >>> from repro.serving.workload import Request
    >>> import numpy as np
    >>> reqs = [Request(i, 0.001 * i, np.array([i])) for i in range(3)]
    >>> batches = MicroBatcher(max_batch_size=2,
    ...                        max_delay_s=1.0).form_batches(reqs)
    >>> [b.size for b in batches], batches[0].ready_s  # flush on full
    ([2, 1], 0.001)
    """

    def __init__(self, max_batch_size: int, max_delay_s: float):
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch_size = max_batch_size
        self.max_delay_s = max_delay_s

    def form_batches(
        self,
        requests: Sequence[Request],
        carry: Optional[OpenBatch] = None,
    ) -> List[MicroBatch]:
        """The closed batches of ``requests``.

        Offline (no ``carry``) the trailing batch closes at its
        deadline.  With a ``carry`` the batcher resumes: arrivals join
        the carried open batch, and the batch still open at the end is
        left in ``carry`` for the next call — so batching a trace in
        pieces closes exactly the batches of batching it whole.
        """
        open_batch = carry if carry is not None else OpenBatch()
        batches: List[MicroBatch] = []
        pending, deadline = open_batch.requests, open_batch.deadline
        for req in sorted(requests, key=attrgetter("arrival_s")):
            if pending and req.arrival_s >= deadline:
                # Deadline fired at or before this arrival:
                # flush-on-deadline.  The boundary is exclusive — an
                # arrival exactly on the deadline must not join a batch
                # that already closed (with max_delay_s=0 the old
                # strict compare glued simultaneous arrivals into one
                # never-delayed batch).
                batches.append(MicroBatch(tuple(pending), ready_s=deadline))
                pending = []
            if not pending:
                deadline = req.arrival_s + self.max_delay_s
            pending.append(req)
            if len(pending) == self.max_batch_size:
                # Flush-on-full at the closing request's arrival.
                batches.append(
                    MicroBatch(tuple(pending), ready_s=req.arrival_s)
                )
                pending = []
        open_batch.requests, open_batch.deadline = pending, deadline
        if carry is None and pending:
            batches.append(open_batch.close())
        return batches
