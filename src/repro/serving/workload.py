"""Synthetic inference request streams: Poisson arrivals, hot-key skew,
and serving-scenario shapes (diurnal load, flash crowds, hot-set churn).

Recommendation inference traffic has two load-bearing statistical
properties this generator reproduces:

- **Poisson arrivals** at a configurable offered QPS — inter-arrival
  gaps are exponential, so instantaneous load is bursty and queueing
  behaviour (the p99 story) is non-trivial even below saturation;
- **hot-key skew** — embedding-row popularity follows a power law
  (a handful of users/items dominate traffic), which is exactly what
  makes an LRU embedding cache on the dense tier effective (the
  FlexEMR observation, arXiv:2410.12794).

On top of the stationary stream, three scenario knobs model what a
replica fleet actually faces in production (the DisaggRec provisioning
question, arXiv:2212.00939):

- ``scenario="diurnal"`` — the offered rate follows a sinusoid,
  ``qps * (1 + amplitude * sin(2*pi*t / period))``: the fleet must
  ride a peak-to-trough swing instead of a flat average;
- ``scenario="flash"`` — a flash crowd multiplies the rate by
  ``flash_factor`` inside ``[flash_start_s, flash_start_s +
  flash_duration_s)``: a burst the router has to spread;
- ``churn_keys_per_s`` — the popularity *ranking* drifts through the
  id space at a constant speed, so yesterday's hot set goes cold and
  the caches must re-learn it (composable with any scenario).

Non-stationary arrivals are sampled by thinning a homogeneous Poisson
process at the peak rate, so every scenario is driven by one seeded
generator and a stream stays bit-reproducible from its config.

Key popularity is ``p(k) ~ 1 / (k + 1)^skew`` over a ``key_space`` of
embedding rows; ``skew=0`` degenerates to uniform traffic (the
cache-hostile worst case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Arrival-process shapes the generator understands.
SCENARIOS = ("poisson", "diurnal", "flash")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a stable, seed-independent
    integer hash over request ids, keys and counters (Python's ``hash``
    is identity on ints — useless for ring placement)."""
    x = np.asarray(x).astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True, eq=False)
class Request:
    """One inference request: arrival time plus the embedding rows it
    needs (one id per sparse feature lookup)."""

    req_id: int
    arrival_s: float
    keys: np.ndarray  # (num_lookups,) int64 embedding row ids

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival_s}")

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ chokes on ndarray fields.
        if not isinstance(other, Request):
            return NotImplemented
        return (
            self.req_id == other.req_id
            and self.arrival_s == other.arrival_s
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self) -> int:
        # Defining __eq__ suppresses the dataclass hash; restore one
        # consistent with it so requests can key sets/dicts.
        return hash((self.req_id, self.arrival_s, self.keys.tobytes()))


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one synthetic request stream."""

    qps: float = 1000.0
    num_requests: int = 1000
    num_lookups: int = 26  # embedding rows per request (Criteo: 26)
    key_space: int = 100_000  # distinct embedding rows in the universe
    skew: float = 1.0  # power-law exponent; 0 = uniform
    seed: int = 0
    # Scenario shaping (see the module docstring).
    scenario: str = "poisson"
    diurnal_period_s: float = 1.0
    diurnal_amplitude: float = 0.5  # peak swing as a fraction of qps
    flash_start_s: float = 0.0
    flash_duration_s: float = 0.0
    flash_factor: float = 5.0  # rate multiplier inside the burst
    churn_keys_per_s: float = 0.0  # popularity-ranking drift speed

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.num_lookups < 1:
            raise ValueError("num_lookups must be >= 1")
        if self.key_space < 1:
            raise ValueError("key_space must be >= 1")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{SCENARIOS}"
            )
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1], got "
                f"{self.diurnal_amplitude}"
            )
        if self.flash_start_s < 0 or self.flash_duration_s < 0:
            raise ValueError("flash window must be non-negative")
        if self.flash_factor < 1.0:
            raise ValueError(
                f"flash_factor must be >= 1, got {self.flash_factor}"
            )
        if self.scenario == "flash" and self.flash_duration_s == 0:
            raise ValueError(
                "scenario 'flash' needs flash_duration_s > 0"
            )
        if self.churn_keys_per_s < 0:
            raise ValueError("churn_keys_per_s must be >= 0")


class RequestStream:
    """Seeded generator of one request stream.

    Examples
    --------
    >>> stream = RequestStream(WorkloadConfig(qps=100.0, num_requests=4))
    >>> reqs = stream.generate()
    >>> len(reqs), reqs[0].keys.shape
    (4, (26,))
    >>> reqs == stream.generate()  # deterministic
    True
    """

    def __init__(self, config: WorkloadConfig):
        self.config = config
        # Popularity CDF: rank-ordered power law over the key space.
        weights = 1.0 / np.power(
            np.arange(1, config.key_space + 1, dtype=np.float64), config.skew
        )
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    # ------------------------------------------------------------------
    def rate_at(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous offered rate (requests/s) at time ``t``."""
        cfg = self.config
        t = np.asarray(t, dtype=np.float64)
        if cfg.scenario == "diurnal":
            return cfg.qps * (
                1.0
                + cfg.diurnal_amplitude
                * np.sin(2.0 * np.pi * t / cfg.diurnal_period_s)
            )
        if cfg.scenario == "flash":
            burst = (t >= cfg.flash_start_s) & (
                t < cfg.flash_start_s + cfg.flash_duration_s
            )
            return cfg.qps * np.where(burst, cfg.flash_factor, 1.0)
        return np.full(t.shape, cfg.qps)

    def _peak_rate(self) -> float:
        cfg = self.config
        if cfg.scenario == "diurnal":
            return cfg.qps * (1.0 + cfg.diurnal_amplitude)
        if cfg.scenario == "flash":
            return cfg.qps * cfg.flash_factor
        return cfg.qps

    def _arrivals(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        if cfg.scenario == "poisson":
            gaps = rng.exponential(1.0 / cfg.qps, size=cfg.num_requests)
            return np.cumsum(gaps)
        # Non-stationary: thin a homogeneous process at the peak rate.
        # Chunked so the draw count (hence the output) is a pure
        # function of the seed, independent of platform.
        peak = self._peak_rate()
        out = np.empty(cfg.num_requests)
        filled, now = 0, 0.0
        while filled < cfg.num_requests:
            chunk = max(1024, cfg.num_requests)
            times = now + np.cumsum(
                rng.exponential(1.0 / peak, size=chunk)
            )
            now = float(times[-1])
            accepted = times[rng.random(chunk) * peak < self.rate_at(times)]
            take = min(len(accepted), cfg.num_requests - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
        return out

    def _sample_ranks(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        u = rng.random(count)
        return np.searchsorted(self._cdf, u).astype(np.int64)

    def generate(self) -> List[Request]:
        """The full stream, sorted by arrival time."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        arrivals = self._arrivals(rng)
        ranks = self._sample_ranks(rng, cfg.num_requests * cfg.num_lookups)
        keys = ranks.reshape(cfg.num_requests, cfg.num_lookups)
        if cfg.churn_keys_per_s > 0:
            # The ranking drifts: popularity rank r points at key
            # (r + floor(drift * t)) mod key_space, so the hot set
            # slides through the id space and cached rows go cold.
            shift = np.floor(cfg.churn_keys_per_s * arrivals).astype(np.int64)
            keys = (keys + shift[:, None]) % cfg.key_space
        return [
            Request(req_id=i, arrival_s=float(arrivals[i]), keys=keys[i])
            for i in range(cfg.num_requests)
        ]

    def hot_fraction(self, top_keys: int) -> float:
        """Probability mass carried by the ``top_keys`` hottest rows
        (the best hit rate an LRU of that capacity can converge to).
        Valid under churn too: drift relabels the ranking but leaves
        the instantaneous top-``top_keys`` mass unchanged."""
        if top_keys <= 0:
            return 0.0
        top = min(top_keys, self.config.key_space)
        return float(self._cdf[top - 1])
