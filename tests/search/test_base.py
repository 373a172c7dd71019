"""Ranking interface tests (RankedResults, RelevanceJudge, tie-breaking)."""

import numpy as np
import pytest

from repro.datasets import toy_network
from repro.graph import CollaborationNetwork
from repro.search import ExpertSearchSystem, RelevanceJudge
from repro.search.base import RankedResults, query_match_vector


class FixedScoreRanker(ExpertSearchSystem):
    """Returns a canned score vector (for interface tests)."""

    def __init__(self, score_vector):
        self._scores = np.asarray(score_vector, dtype=float)

    def scores(self, query, network):
        return self._scores


@pytest.fixture
def net4():
    net = CollaborationNetwork()
    for i in range(4):
        net.add_person(f"p{i}", {"a"} if i % 2 == 0 else {"b"})
    return net


class TestRankedResults:
    def test_order_score_descending(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        results = ranker.evaluate(["a"], net4)
        assert list(results.order) == [1, 2, 3, 0]

    def test_ties_break_by_id(self, net4):
        ranker = FixedScoreRanker([0.5, 0.5, 0.9, 0.5])
        results = ranker.evaluate(["a"], net4)
        assert list(results.order) == [2, 0, 1, 3]

    def test_rank_of_one_based(self, net4):
        results = FixedScoreRanker([0.1, 0.9, 0.5, 0.3]).evaluate(["a"], net4)
        assert results.rank_of(1) == 1
        assert results.rank_of(0) == 4

    def test_top_k_and_relevance(self, net4):
        results = FixedScoreRanker([0.1, 0.9, 0.5, 0.3]).evaluate(["a"], net4)
        assert results.top_k(2) == [1, 2]
        assert results.is_relevant(2, 2)
        assert not results.is_relevant(3, 2)

    def test_wrong_shape_rejected(self, net4):
        ranker = FixedScoreRanker([0.1, 0.2])
        with pytest.raises(ValueError, match="shape"):
            ranker.evaluate(["a"], net4)


def _lexsort_ranks(raw):
    """The 1-based ranks of the canonical sort (score descending, id
    ascending, NaN last) — what ``rank_of`` read before it went
    sort-free."""
    order = np.lexsort((np.arange(len(raw)), -raw))
    ranks = np.empty(len(raw), dtype=np.int64)
    ranks[order] = np.arange(1, len(raw) + 1)
    return order, ranks


def _tie_heavy(rng, n):
    """Scores drawn from a tiny pool: many ties, both zeros, NaN, ±inf."""
    pool = np.array([0.0, -0.0, 0.25, -0.25, 1.0, np.nan, np.inf, -np.inf])
    raw = pool[rng.integers(0, len(pool), size=n)]
    if rng.random() < 0.5:
        raw = np.where(rng.random(n) < 0.5, raw, rng.standard_normal(n))
    return raw


class TestSortFreeRanks:
    @pytest.mark.parametrize("seed", range(40))
    def test_rank_of_equals_lexsort_rank(self, seed):
        rng = np.random.default_rng(seed)
        raw = _tie_heavy(rng, int(rng.integers(1, 60)))
        _, ranks = _lexsort_ranks(raw)
        results = RankedResults.from_scores(raw)
        assert [results.rank_of(p) for p in range(len(raw))] == ranks.tolist()
        assert results.rank_of(-1) == ranks[-1]
        assert results._order is None  # nothing was sorted

    @pytest.mark.parametrize("seed", range(10))
    def test_order_and_ranks_on_first_access(self, seed):
        rng = np.random.default_rng(100 + seed)
        raw = _tie_heavy(rng, 50)
        order, ranks = _lexsort_ranks(raw)
        results = RankedResults.from_scores(raw)
        results.rank_of(int(rng.integers(0, 50)))
        assert np.array_equal(results.ranks, ranks)
        assert np.array_equal(results.order, order)
        assert results.top_k(5) == order[:5].tolist()

    def test_signed_zero_ties_break_by_id(self):
        results = RankedResults.from_scores([-0.0, 0.0, -0.0, 1.0])
        assert [results.rank_of(p) for p in range(4)] == [2, 3, 4, 1]

    def test_nan_ranks_last_by_id(self):
        results = RankedResults.from_scores([np.nan, -np.inf, np.nan, 0.5])
        assert [results.rank_of(p) for p in range(4)] == [3, 2, 4, 1]
        assert results.order.tolist() == [3, 1, 0, 2]

    def test_out_of_range_person_raises(self):
        results = RankedResults.from_scores([0.1, 0.2])
        with pytest.raises(IndexError):
            results.rank_of(2)


class TestRelevanceJudge:
    def test_judge_matches_rank(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        judge = RelevanceJudge(ranker, k=2)
        assert judge(1, ["a"], net4) is True
        assert judge(0, ["a"], net4) is False

    def test_with_rank_consistent(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        judge = RelevanceJudge(ranker, k=2)
        relevant, rank = judge.with_rank(2, ["a"], net4)
        assert relevant and rank == 2

    def test_invalid_k(self, net4):
        with pytest.raises(ValueError):
            RelevanceJudge(FixedScoreRanker([1, 2, 3, 4]), k=0)


class TestQueryMatchVector:
    def test_fraction_of_terms(self, net4):
        vec = query_match_vector(frozenset({"a", "b"}), net4)
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.5, 0.5])

    def test_empty_query(self, net4):
        assert query_match_vector(frozenset(), net4).sum() == 0.0

    def test_unknown_terms(self, net4):
        assert query_match_vector(frozenset({"zz"}), net4).sum() == 0.0
