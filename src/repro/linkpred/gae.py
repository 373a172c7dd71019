"""Graph Auto-encoder for link prediction (Kipf & Welling 2016).

Encoder: two GCN layers over the normalized adjacency produce node
embeddings Z; decoder: ``σ(z_u · z_v)`` scores the probability of an edge.
Trained with binary cross-entropy on observed edges against an equal number
of sampled non-edges, exactly the non-variational GAE the ExES paper cites
for Pruning Strategy 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.nn.autograd import Tensor
from repro.nn.layers import GCNConv, Module
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam


@dataclass(frozen=True)
class GaeConfig:
    """GAE architecture and training hyperparameters."""

    hidden_dim: int = 32
    embedding_dim: int = 16
    epochs: int = 120
    learning_rate: float = 0.02
    negative_ratio: float = 1.0
    seed: int = 0


class GraphAutoencoder(Module):
    """GCN encoder + inner-product decoder.

    Node input features are the skill incidence rows (so people with similar
    skills embed nearby even before structure is considered), or identity
    features when the network carries no skills.
    """

    def __init__(
        self,
        n_features: int,
        config: GaeConfig,
    ) -> None:
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.conv1 = GCNConv(n_features, config.hidden_dim, rng=rng)
        self.conv2 = GCNConv(config.hidden_dim, config.embedding_dim, rng=rng)
        self._embeddings: Optional[np.ndarray] = None
        self._network: Optional[CollaborationNetwork] = None

    # ------------------------------------------------------------------
    # model
    # ------------------------------------------------------------------
    def encode(self, features: np.ndarray, adj_norm) -> Tensor:
        h = self.conv1(Tensor(features), adj_norm).relu()
        return self.conv2(h, adj_norm)

    @staticmethod
    def _features_for(network: CollaborationNetwork) -> np.ndarray:
        vocab = network.skill_vocabulary()
        if vocab:
            return np.asarray(network.skill_matrix().todense())
        return np.eye(network.n_people)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, network: CollaborationNetwork) -> "GraphAutoencoder":
        """Train on the network's observed edges; caches node embeddings."""
        rng = np.random.default_rng(self.config.seed + 1)
        features = self._features_for(network)
        adj_norm = network.normalized_adjacency()
        edges = list(network.edges())
        if not edges:
            # Nothing to learn from: embeddings from a single forward pass.
            self._embeddings = self.encode(features, adj_norm).numpy().copy()
            self._network = network
            return self

        pos = np.asarray(edges, dtype=np.int64)
        n_neg = max(1, int(round(len(edges) * self.config.negative_ratio)))
        optimizer = Adam(self.parameters(), lr=self.config.learning_rate)

        for _ in range(self.config.epochs):
            neg = _sample_non_edges(network, n_neg, rng)
            us = np.concatenate([pos[:, 0], neg[:, 0]])
            vs = np.concatenate([pos[:, 1], neg[:, 1]])
            labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

            optimizer.zero_grad()
            z = self.encode(features, adj_norm)
            logits = (z.rows(us) * z.rows(vs)).sum(axis=1)
            loss = bce_with_logits(logits, labels)
            loss.backward()
            optimizer.step()

        self._embeddings = self.encode(features, adj_norm).numpy().copy()
        self._network = network
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise RuntimeError("call fit(network) before requesting embeddings")
        return self._embeddings

    def score(self, u: int, v: int) -> float:
        """Edge probability σ(z_u · z_v) on the training network."""
        z = self.embeddings()
        logit = float(z[u] @ z[v])
        return 1.0 / (1.0 + np.exp(-np.clip(logit, -60, 60)))

    def score_pairs(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        return [self.score(u, v) for u, v in pairs]

    def top_candidates(
        self,
        anchor: int,
        pool: Iterable[int],
        topn: int,
    ) -> List[Tuple[Tuple[int, int], float]]:
        """Most likely new collaborations between ``anchor`` and ``pool``.

        Existing edges are excluded — the predictor recommends additions.
        """
        if self._network is None:
            raise RuntimeError("call fit(network) before top_candidates()")
        net = self._network
        scored = [
            ((min(anchor, other), max(anchor, other)), self.score(anchor, other))
            for other in pool
            if other != anchor and not net.has_edge(anchor, other)
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[:topn]


def _sample_non_edges(
    network: CollaborationNetwork, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample ``count`` ordered node pairs that are not edges.

    Draws batches of candidate pairs and keeps the valid ones (no self
    pair, no edge) in draw order, up to ``count``; each batch is tested
    with one membership check of its packed ``u * n + v`` keys against
    the adjacency's."""
    n = network.n_people
    adj = network.adjacency_csr()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    edge_keys = rows * n + adj.indices
    out: List[np.ndarray] = []
    found = 0
    attempts = 0
    max_attempts = 50 * count + 100
    while found < count and attempts < max_attempts:
        batch = max(count - found, 32)
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        valid = (us != vs) & ~np.isin(us * n + vs, edge_keys)
        keep = np.flatnonzero(valid)[: count - found]
        out.append(np.stack((us[keep], vs[keep]), axis=1))
        found += len(keep)
        attempts += batch
    if not found:  # complete graph corner case
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out).astype(np.int64)


def train_gae(
    network: CollaborationNetwork, config: GaeConfig | None = None
) -> GraphAutoencoder:
    """Convenience constructor: build + fit a GAE on ``network``."""
    config = config or GaeConfig()
    n_features = len(network.skill_vocabulary()) or network.n_people
    return GraphAutoencoder(n_features, config).fit(network)
