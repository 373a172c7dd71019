"""Decision target tests (relevance and membership)."""

import pytest

from repro.graph import CollaborationNetwork
from repro.explain import MembershipTarget, RelevanceTarget
from repro.search import CoverageExpertRanker
from repro.team import CoverTeamFormer, Team, TeamFormationSystem


class _RankerlessFormer(TeamFormationSystem):
    """A former with no ``.ranker``: the team is the seed member alone."""

    def form(self, query, network, seed_member=None, scores=None):
        members = frozenset() if seed_member is None else frozenset({seed_member})
        return Team(members, seed_member, frozenset(), frozenset(query))


@pytest.fixture
def net():
    net = CollaborationNetwork()
    net.add_person("a", {"graph", "mining"})
    net.add_person("b", {"graph"})
    net.add_person("c", {"vision"})
    net.add_person("d", {"mining"})
    net.add_edge(0, 1)
    net.add_edge(1, 2)
    net.add_edge(2, 3)
    return net


class TestRelevanceTarget:
    def test_decide_matches_topk(self, net):
        target = RelevanceTarget(CoverageExpertRanker(), k=1)
        assert target.decide(0, ["graph", "mining"], net) is True
        assert target.decide(2, ["graph", "mining"], net) is False

    def test_decide_with_order_returns_rank(self, net):
        target = RelevanceTarget(CoverageExpertRanker(), k=2)
        relevant, rank = target.decide_with_order(0, ["graph"], net)
        assert relevant and rank == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RelevanceTarget(CoverageExpertRanker(), k=0)

    def test_ranker_property(self, net):
        ranker = CoverageExpertRanker()
        assert RelevanceTarget(ranker, k=3).ranker is ranker


class TestMembershipTarget:
    def test_decide_matches_team(self, net):
        former = CoverTeamFormer(CoverageExpertRanker())
        target = MembershipTarget(former, seed_member=0)
        assert target.decide(0, ["graph", "vision"], net) is True
        assert target.decide(3, ["graph", "vision"], net) is False

    def test_order_comes_from_ranker(self, net):
        former = CoverTeamFormer(CoverageExpertRanker())
        target = MembershipTarget(former, seed_member=0)
        _, order = target.decide_with_order(0, ["graph"], net)
        assert order == 1.0

    def test_rankerless_former_rejected(self, net):
        target = MembershipTarget(_RankerlessFormer())
        with pytest.raises(AttributeError, match="ranker"):
            _ = target.ranker
