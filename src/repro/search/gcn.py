"""The GCN-based expert search system under explanation (paper §4.2).

The paper implements "an expert search model that uses Graph Convolutional
Neural Networks and combines ideas from several state-of-the-art solutions
[12, 22, 23]" and pre-trains it per dataset.  This module reproduces that
system on the numpy substrate, borrowing the query-dependent node features
of KS-GNN [23]:

* each node's input features are ``[skill-embedding centroid ‖ exact query
  match fraction ‖ embedding similarity to the query]``,
* two GCN layers propagate those signals along collaboration edges, so a
  node can score well because its *collaborators* match the query
  (expertise propagation, footnote 1 of the paper),
* a linear head turns the final representation into a relevance score,
* weights are trained with a margin ranking loss against a coverage
  oracle: own-skill coverage plus discounted best-neighbor coverage.

The trained ranker is then frozen; ExES probes it with perturbed (q, G)
pairs through :meth:`scores`, which rebuilds features/adjacency for
whatever network it is handed (vocabulary fixed at fit time).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.embeddings.similarity import SkillEmbedding
from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query, as_query
from repro.search.engine import GcnDeltaSession
from repro.nn.autograd import Tensor
from repro.nn.layers import GCNConv, Linear, Module
from repro.nn.losses import margin_ranking_loss
from repro.nn.optim import Adam
from repro.search.base import ExpertSearchSystem


@dataclass(frozen=True)
class GcnRankerConfig:
    """Architecture + training hyperparameters for the GCN ranker."""

    hidden_dim: int = 32
    out_dim: int = 16
    epochs: int = 40
    learning_rate: float = 0.02
    margin: float = 0.3
    n_train_queries: int = 30
    query_terms: Tuple[int, int] = (2, 4)
    pairs_per_query: int = 32
    neighbor_weight: float = 0.5
    seed: int = 0


class _GcnScorer(Module):
    """Two GCN layers + scalar scoring head."""

    def __init__(self, in_dim: int, config: GcnRankerConfig) -> None:
        rng = np.random.default_rng(config.seed)
        self.conv1 = GCNConv(in_dim, config.hidden_dim, rng=rng)
        self.conv2 = GCNConv(config.hidden_dim, config.out_dim, rng=rng)
        self.head = Linear(config.out_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, adj_norm) -> Tensor:
        h = self.conv1(Tensor(features), adj_norm).relu()
        h = self.conv2(h, adj_norm).relu()
        return self.head(h).reshape(-1)


class GcnExpertRanker(ExpertSearchSystem):
    """Trained GCN ranker; the primary system explained in the evaluation."""

    def __init__(
        self,
        embedding: SkillEmbedding,
        config: Optional[GcnRankerConfig] = None,
    ) -> None:
        self.embedding = embedding
        self.config = config or GcnRankerConfig()
        self._scorer: Optional[_GcnScorer] = None
        self._feature_vocab: Optional[Dict[str, int]] = None
        self._feature_matrix: Optional[np.ndarray] = None
        # full_rebuild (escape hatch) and the _session cache come from
        # ExpertSearchSystem.

    def delta_session(self, base: CollaborationNetwork) -> GcnDeltaSession:
        """The GCN delta-scoring session (see ``repro.search.engine``)."""
        return GcnDeltaSession(self, base)

    def memo_survives(self, delta, query: Query) -> bool:
        """GCN scores read the graph (any edge flip propagates) and, per
        person, only ``skills ∩ vocab`` (centroid columns) and ``skills ∩
        query`` (the match feature) — so a commit whose skill flips all
        miss both the training vocabulary and the query leaves every
        feature row, and therefore every score, bit-identical."""
        vocab = self._feature_vocab
        if vocab is None or delta.edge_flips:
            return False
        changed = delta.skills_changed
        if changed & query:
            return False
        return all(s not in vocab for s in changed)

    # ------------------------------------------------------------------
    # feature space
    # ------------------------------------------------------------------
    def _build_feature_space(self, network: CollaborationNetwork) -> None:
        """Fix the skill->feature-row mapping for the ranker's lifetime.

        The vocabulary is the union of the embedding vocabulary and the
        training network's skill universe, so perturbations that add any
        skill from S (or any embedding word to the query) stay in-domain.
        """
        words = set(self.embedding.vocabulary) | set(network.skill_universe())
        vocab = {w: i for i, w in enumerate(sorted(words))}
        dim = self.embedding.dim
        matrix = np.zeros((len(vocab), dim))
        for word, row in vocab.items():
            if word in self.embedding:
                matrix[row] = self.embedding.vector(word)
            else:
                # Deterministic pseudo-random unit vector for skills the
                # corpus never produced (process-stable via crc32).
                rng = np.random.default_rng(zlib.crc32(word.encode()))
                v = rng.normal(size=dim)
                matrix[row] = v / np.linalg.norm(v)
        self._feature_vocab = vocab
        self._feature_matrix = matrix
        self._session = None  # cached probe inputs are tied to the old vocab

    def _query_vector(self, query: Query) -> np.ndarray:
        assert self._feature_vocab is not None and self._feature_matrix is not None
        rows = [self._feature_vocab[t] for t in query if t in self._feature_vocab]
        if not rows:
            return np.zeros(self._feature_matrix.shape[1])
        vec = self._feature_matrix[rows].mean(axis=0)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def _node_features(
        self, query: Query, network: CollaborationNetwork
    ) -> np.ndarray:
        """[centroid ‖ match fraction ‖ centroid·query] per node."""
        assert self._feature_vocab is not None and self._feature_matrix is not None
        backend = get_backend()
        incidence = network.skill_matrix(self._feature_vocab)
        counts = np.asarray(incidence.sum(axis=1)).ravel()
        centroids = backend.spmm(incidence, self._feature_matrix)
        centroids = centroids / np.maximum(counts, 1.0)[:, None]

        n = network.n_people
        match = np.zeros(n)
        if query:
            # In-vocabulary terms come straight off the incidence matrix
            # (one spmv); terms outside the feature vocabulary can still be
            # held as skills, so they fall back to the skill index.
            indicator = np.zeros(incidence.shape[1])
            oov = []
            for term in query:
                col = self._feature_vocab.get(term)
                if col is None:
                    oov.append(term)
                else:
                    indicator[col] = 1.0
            if indicator.any():
                match = backend.spmv(incidence, indicator)
            for term in oov:
                for p in network.people_with_skill(term):
                    match[p] += 1.0
            match /= len(query)

        q_vec = self._query_vector(query)
        centroid_norms = np.linalg.norm(centroids, axis=1)
        sim = backend.matmul(centroids, q_vec) / np.maximum(centroid_norms, 1e-12)

        return np.concatenate(
            [centroids, match[:, None], sim[:, None]], axis=1
        )

    @property
    def _in_dim(self) -> int:
        return self.embedding.dim + 2

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def coverage_oracle(
        self, query: Iterable[str], network: CollaborationNetwork
    ) -> np.ndarray:
        """The supervision signal: own coverage + discounted best-neighbor
        coverage of the query (expertise propagation at depth one)."""
        query = as_query(query)
        n = network.n_people
        if not query or n == 0:
            return np.zeros(n)
        # Own coverage via the network's cached incidence matrix: one spmv
        # against an indicator over the query's columns.  Query terms
        # outside the network's skill universe have no holders, exactly as
        # in the old per-person set-intersection loop.
        vocab_index = network.skill_vocabulary_index()
        indicator = np.zeros(len(vocab_index))
        for term in query:
            col = vocab_index.get(term)
            if col is not None:
                indicator[col] = 1.0
        own = get_backend().spmv(network.skill_matrix(), indicator) / len(query)
        # Best-neighbor coverage: segmented max of own[] over the CSR
        # adjacency rows (reduceat segments collapse over empty rows, which
        # contribute no indices, so non-empty starts index their own rows).
        best_neighbor = np.zeros(n)
        adj = network.adjacency_csr()
        if adj.indices.size:
            nonempty = np.diff(adj.indptr) > 0
            best_neighbor[nonempty] = np.maximum.reduceat(
                own[adj.indices], adj.indptr[:-1][nonempty]
            )
        return own + self.config.neighbor_weight * best_neighbor

    def _sample_training_queries(
        self, network: CollaborationNetwork, rng: np.random.Generator
    ) -> List[Query]:
        skills = sorted(network.skill_universe())
        queries: List[Query] = []
        for _ in range(self.config.n_train_queries):
            lo, hi = self.config.query_terms
            n_terms = min(int(rng.integers(lo, hi + 1)), len(skills))
            picks = rng.choice(len(skills), size=n_terms, replace=False)
            queries.append(frozenset(skills[i] for i in picks))
        return queries

    def fit(self, network: CollaborationNetwork) -> "GcnExpertRanker":
        """Train the ranker on ``network`` with self-generated queries."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 17)
        if not network.skill_universe():
            raise ValueError("cannot train a ranker on a network with no skills")
        self._build_feature_space(network)
        self._scorer = _GcnScorer(self._in_dim, cfg)

        adj_norm = network.normalized_adjacency()
        queries = self._sample_training_queries(network, rng)
        oracles = [self.coverage_oracle(q, network) for q in queries]
        features = [self._node_features(q, network) for q in queries]

        optimizer = Adam(self._scorer.parameters(), lr=cfg.learning_rate)
        n = network.n_people
        for _ in range(cfg.epochs):
            optimizer.zero_grad()
            losses = []
            for feats, oracle in zip(features, oracles):
                pos_pool = np.argsort(-oracle)[: max(10, n // 10)]
                pos = rng.choice(pos_pool, size=cfg.pairs_per_query)
                neg = rng.integers(0, n, size=cfg.pairs_per_query)
                valid = oracle[pos] > oracle[neg]
                if not valid.any():
                    continue
                logits = self._scorer.forward(feats, adj_norm)
                pos_scores = logits.rows(pos[valid])
                neg_scores = logits.rows(neg[valid])
                losses.append(margin_ranking_loss(pos_scores, neg_scores, cfg.margin))
            if not losses:
                continue
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            total = total * (1.0 / len(losses))
            total.backward()
            optimizer.step()
        return self

    # ------------------------------------------------------------------
    # inference (the surface ExES probes)
    # ------------------------------------------------------------------
    def scores(self, query: Iterable[str], network: CollaborationNetwork) -> np.ndarray:
        if self._scorer is None:
            raise RuntimeError("call fit(network) before scoring queries")
        query = as_query(query)
        if not query:
            return np.zeros(network.n_people)
        delta = self._try_delta_scores(query, network)
        if delta is not None:
            return delta
        features = self._node_features(query, network)
        adj_norm = network.normalized_adjacency()
        return get_backend().gcn_forward(self._scorer, features, adj_norm).copy()

    def scores_batch(
        self, query: Iterable[str], networks
    ) -> List[np.ndarray]:
        """Score one query against a *group* of perturbed networks at once.

        Overlay groups over a common frozen base are flushed through the
        delta session's batched multi-probe forward: the per-overlay probe
        feature matrices are stacked into one ``(k·n, d)`` input, the
        (patched) propagation operators into a block-diagonal sparse
        operator, and a single :class:`_GcnScorer` forward scores the
        whole group — mirroring the session-level flush that
        ``ProbeEngine.probe_batch`` performs, for callers holding a
        ranker rather than an engine.  Anything the session cannot serve (plain
        networks, ``full_rebuild``, mixed bases) falls back to per-network
        :meth:`scores`.
        """
        networks = list(networks)
        query = as_query(query)
        if self.full_rebuild or not networks:
            return [self.scores(query, net) for net in networks]
        base = None
        for net in networks:
            if not isinstance(net, NetworkOverlay) or (
                base is not None and net.base is not base
            ):
                return [self.scores(query, net) for net in networks]
            base = net.base
        session = self._session_for(base)
        if session is None:
            return [self.scores(query, net) for net in networks]
        return session.scores_batch(query, networks)
