"""Link-prediction evaluation: edge splits, AUC, and average precision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.network import CollaborationNetwork


@dataclass
class LinkPredictionSplit:
    """A train network plus held-out positive and sampled negative pairs."""

    train_network: CollaborationNetwork
    test_positives: List[Tuple[int, int]]
    test_negatives: List[Tuple[int, int]]


def split_edges(
    network: CollaborationNetwork,
    test_fraction: float = 0.1,
    seed: int = 0,
) -> LinkPredictionSplit:
    """Hold out a fraction of edges (kept nodes intact) plus negatives.

    The returned train network is a copy with test edges removed; negatives
    are uniformly sampled non-edges of the *original* network, one per
    held-out positive.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    edges = list(network.edges())
    if len(edges) < 2:
        raise ValueError("need at least 2 edges to split")
    n_test = max(1, int(round(len(edges) * test_fraction)))
    order = rng.permutation(len(edges))
    test_idx = set(order[:n_test].tolist())

    test_positives = [edges[i] for i in sorted(test_idx)]
    train = network.copy()
    train.apply_delta((), [(u, v, False) for u, v in test_positives])

    negatives: List[Tuple[int, int]] = []
    n = network.n_people
    seen = set(test_positives)
    attempts = 0
    while len(negatives) < len(test_positives) and attempts < 1000 * n_test:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        attempts += 1
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if network.has_edge(*pair) or pair in seen:
            continue
        seen.add(pair)
        negatives.append(pair)
    return LinkPredictionSplit(train, test_positives, negatives)


def auc_score(positive_scores: Sequence[float], negative_scores: Sequence[float]) -> float:
    """Probability a random positive outscores a random negative (ties = 0.5)."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be non-empty")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def average_precision(
    positive_scores: Sequence[float], negative_scores: Sequence[float]
) -> float:
    """Area under the precision-recall curve (step interpolation)."""
    scores = list(positive_scores) + list(negative_scores)
    labels = [1] * len(positive_scores) + [0] * len(negative_scores)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], labels[i]))
    hits = 0
    total_pos = len(positive_scores)
    if total_pos == 0:
        raise ValueError("need at least one positive")
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            ap += hits / rank
    return ap / total_pos


def evaluate_predictor(predictor, split: LinkPredictionSplit) -> Tuple[float, float]:
    """(AUC, AP) of a fitted predictor on a held-out split."""
    pos_scores = predictor.score_pairs(split.test_positives)
    neg_scores = predictor.score_pairs(split.test_negatives)
    return (
        auc_score(pos_scores, neg_scores),
        average_precision(pos_scores, neg_scores),
    )
