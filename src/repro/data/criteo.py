"""Synthetic Criteo-like click logs with planted interaction structure.

Why planted structure (DESIGN.md §5.4): the paper's quality results
hinge on *meaningful feature groups existing* — TP finds them, coherent
towers preserve them under compression, naive striding splits them.
This generator makes that structure explicit and controllable:

- features are divided into ``num_blocks`` ground-truth blocks;
- each sample draws one latent ``z_b ~ N(0,1)`` per block; a feature in
  block ``b`` emits a categorical id that quantizes a noisy copy of
  ``z_b`` (correlation ``rho``), so same-block features are mutually
  informative and their learned embeddings become similar;
- the label's logit combines **within-block second-order terms**
  (``z_b^2``-like, recoverable only through feature interactions),
  weak cross-block pair terms, a linear dense-feature term, and noise.

A model that captures within-block interactions wins; compressing a
mixed-block tower discards more label-relevant signal than compressing
a coherent one — the mechanism behind the paper's Table 6 gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Tuple

import numpy as np
from scipy.special import ndtri  # inverse normal CDF, vectorized
from scipy.stats import norm

from repro.core.partition import FeaturePartition
from repro.nn.functional import sigmoid


@dataclass(frozen=True)
class SyntheticCriteoConfig:
    """Generator knobs.

    Attributes
    ----------
    num_dense / num_sparse:
        Criteo schema (13 continuous, 26 categorical by default).
    cardinality:
        Rows per categorical feature's vocabulary.
    num_blocks:
        Ground-truth interaction blocks among sparse features.
    rho:
        Correlation between a feature's encoded latent and its block
        latent (1.0 = features in a block are redundant copies).
    block_strength / cross_strength / dense_strength:
        Logit weights of within-block second-order terms, cross-block
        pair terms, and the linear dense term.
    noise:
        Std of Gaussian logit noise (bounds achievable AUC).
    cvr_correlation / cvr_bias / cvr_noise:
        Conversion-label knobs (:meth:`SyntheticCriteoDataset.sample_tasks`
        only): the CVR logit is ``cvr_bias + cvr_correlation * (ctr_logit
        - bias) + cvr_noise * eps`` and conversions are drawn only on
        clicked impressions.  ``cvr_correlation`` controls how much of
        the click structure the conversion task shares.
    """

    num_dense: int = 13
    num_sparse: int = 26
    cardinality: int = 64
    num_blocks: int = 4
    rho: float = 0.85
    block_strength: float = 1.6
    cross_strength: float = 0.15
    dense_strength: float = 0.6
    noise: float = 0.4
    bias: float = -0.5
    cvr_correlation: float = 0.7
    cvr_bias: float = -1.0
    cvr_noise: float = 0.3

    def __post_init__(self) -> None:
        if self.num_dense < 1:
            raise ValueError(f"num_dense must be >= 1, got {self.num_dense}")
        if self.num_blocks < 1:
            raise ValueError(
                f"num_blocks must be >= 1, got {self.num_blocks}"
            )
        if self.num_sparse < self.num_blocks:
            raise ValueError(
                f"num_sparse must be >= num_blocks, got {self.num_sparse} "
                f"< {self.num_blocks}"
            )
        if self.cardinality < 2:
            raise ValueError(
                f"cardinality must be >= 2, got {self.cardinality}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.noise < 0.0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.cvr_correlation <= 1.0:
            raise ValueError(
                f"cvr_correlation must be in [0, 1], got {self.cvr_correlation}"
            )
        if not math.isfinite(self.cvr_bias):
            raise ValueError(f"cvr_bias must be finite, got {self.cvr_bias}")
        if self.cvr_noise < 0.0:
            raise ValueError(f"cvr_noise must be >= 0, got {self.cvr_noise}")

    @classmethod
    def from_spec(cls, data: Any) -> "SyntheticCriteoConfig":
        """The generator a ``data`` spec section describes.

        ``data`` is read duck-typed (this package never imports
        :mod:`repro.api`); this is the only place its generator knobs
        are copied.
        """
        return cls(
            num_dense=data.num_dense,
            num_sparse=data.num_sparse,
            cardinality=data.cardinality,
            num_blocks=data.num_blocks,
            rho=data.rho,
            noise=data.noise,
            cross_strength=data.cross_strength,
            cvr_correlation=data.cvr_correlation,
            cvr_bias=data.cvr_bias,
            cvr_noise=data.cvr_noise,
        )


class SyntheticCriteoDataset:
    """Sampled click logs with known block structure.

    Examples
    --------
    >>> ds = SyntheticCriteoDataset(SyntheticCriteoConfig(num_sparse=8,
    ...     num_blocks=2), seed=0)
    >>> dense, ids, labels = ds.sample(100)
    >>> dense.shape, ids.shape, labels.shape
    ((100, 13), (100, 8), (100,))
    >>> ds.true_partition.num_towers
    2
    """

    def __init__(self, config: SyntheticCriteoConfig, seed: int = 0):
        self.config = config
        self._structure_rng = np.random.default_rng(seed)
        c = config
        # Ground-truth block assignment: contiguous near-equal blocks.
        self.true_partition = FeaturePartition.contiguous(
            c.num_sparse, c.num_blocks
        )
        self.block_of = np.empty(c.num_sparse, dtype=np.int64)
        for b, group in enumerate(self.true_partition.groups):
            self.block_of[list(group)] = b
        # Fixed random weights defining the labeling function.
        self.dense_weights = (
            self._structure_rng.standard_normal(c.num_dense)
            * c.dense_strength
            / np.sqrt(c.num_dense)
        )
        self.block_weights = c.block_strength * (
            0.5 + self._structure_rng.random(c.num_blocks)
        )
        self.cross_weights = c.cross_strength * self._structure_rng.standard_normal(
            (c.num_blocks, c.num_blocks)
        )
        # Per-feature permutation of the quantile bins: ids are NOT
        # ordinal in the raw id space, so models must *learn* the value
        # map through the embedding table (as with real hashed ids).
        self.bin_perm = np.stack(
            [
                self._structure_rng.permutation(c.cardinality)
                for _ in range(c.num_sparse)
            ]
        )
        self.bin_perm_inv = np.argsort(self.bin_perm, axis=1)

    # ------------------------------------------------------------------
    def sample(
        self, n: int, seed: "int | None" = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n`` labeled samples: (dense, sparse ids, labels)."""
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        c = self.config
        rng = (
            np.random.default_rng(seed)
            if seed is not None
            else self._structure_rng
        )
        dense = rng.standard_normal((n, c.num_dense))
        z = rng.standard_normal((n, c.num_blocks))  # block latents
        eps = rng.standard_normal((n, c.num_sparse))
        # Feature latents: correlated copies of their block latent.
        u = c.rho * z[:, self.block_of] + np.sqrt(1 - c.rho**2) * eps
        # Quantize through the normal CDF into cardinality bins, then
        # scramble bin identity per feature.
        bins = np.clip(
            (norm.cdf(u) * c.cardinality).astype(np.int64), 0, c.cardinality - 1
        )
        ids = np.take_along_axis(
            self.bin_perm[None, :, :].repeat(n, axis=0),
            bins[:, :, None],
            axis=2,
        )[:, :, 0]
        labels = rng.binomial(1, sigmoid(self._logits(dense, u, rng))).astype(
            np.float64
        )
        return dense, ids, labels

    def sample_tasks(
        self,
        n: int,
        tasks: Tuple[str, ...] = ("ctr", "cvr"),
        seed: "int | None" = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n`` samples with per-task labels: (dense, ids, (n, T)).

        Label columns follow ``tasks`` order.  The RNG draw sequence
        replays :meth:`sample` exactly through the CTR binomial, so for
        a given seed the features and the ``ctr`` column are
        bit-identical to the single-task path; CVR draws come after.
        Conversion labels are gated on clicks: ``cvr`` is 1 only where
        ``ctr`` is 1.
        """
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        tasks = tuple(tasks)
        unknown = set(tasks) - {"ctr", "cvr"}
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}")
        if len(set(tasks)) != len(tasks):
            raise ValueError(f"duplicate tasks in {tasks}")
        if "cvr" in tasks and "ctr" not in tasks:
            raise ValueError(
                "cvr labels are defined only on clicks; tasks must "
                "include 'ctr'"
            )
        c = self.config
        rng = (
            np.random.default_rng(seed)
            if seed is not None
            else self._structure_rng
        )
        dense = rng.standard_normal((n, c.num_dense))
        z = rng.standard_normal((n, c.num_blocks))
        eps = rng.standard_normal((n, c.num_sparse))
        u = c.rho * z[:, self.block_of] + np.sqrt(1 - c.rho**2) * eps
        bins = np.clip(
            (norm.cdf(u) * c.cardinality).astype(np.int64), 0, c.cardinality - 1
        )
        ids = np.take_along_axis(
            self.bin_perm[None, :, :].repeat(n, axis=0),
            bins[:, :, None],
            axis=2,
        )[:, :, 0]
        ctr_logit = self._logits(dense, u, rng)
        columns = {"ctr": rng.binomial(1, sigmoid(ctr_logit)).astype(np.float64)}
        if "cvr" in tasks:
            # Conversion inherits the click's structural logit (minus
            # the shared bias) scaled by the correlation knob, plus its
            # own noise; only clicked rows can convert.
            cvr_logit = (
                c.cvr_bias
                + c.cvr_correlation * (ctr_logit - c.bias)
                + c.cvr_noise * rng.standard_normal(n)
            )
            conv = rng.binomial(1, sigmoid(cvr_logit)).astype(np.float64)
            columns["cvr"] = conv * columns["ctr"]
        labels = np.stack([columns[t] for t in tasks], axis=1)
        return dense, ids, labels

    def _logits(
        self, dense: np.ndarray, u: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        c = self.config
        n = dense.shape[0]
        logit = np.full(n, c.bias)
        logit += dense @ self.dense_weights
        # Within-block second-order terms: mean pairwise product of the
        # block's feature latents (~ z_b^2, centered).
        block_means = np.stack(
            [
                u[:, list(g)].mean(axis=1)
                for g in self.true_partition.groups
            ],
            axis=1,
        )  # (n, num_blocks)
        logit += (block_means**2 - 1.0) @ self.block_weights
        # Weak cross-block pair terms.
        cross = np.einsum(
            "nb,bc,nc->n", block_means, np.triu(self.cross_weights, 1), block_means
        )
        logit += cross
        logit += c.noise * rng.standard_normal(n)
        return logit

    # ------------------------------------------------------------------
    def decoded_value(self, feature: int, ids: np.ndarray) -> np.ndarray:
        """Ground-truth latent value encoded by raw ids (test helper)."""
        c = self.config
        bins = self.bin_perm_inv[feature][np.asarray(ids)]
        return ndtri((bins + 0.5) / c.cardinality)

    @property
    def num_dense(self) -> int:
        return self.config.num_dense

    @property
    def num_sparse(self) -> int:
        return self.config.num_sparse

    @property
    def cardinality(self) -> int:
        return self.config.cardinality
