"""Team formation system tests."""

import pytest

from repro.graph import CollaborationNetwork
from repro.search import CoverageExpertRanker
from repro.team import CoverTeamFormer, Team


@pytest.fixture
def net():
    """A path a--b--c--d with complementary skills, plus a far expert e
    connected only to d."""
    net = CollaborationNetwork()
    net.add_person("a", {"graph"})
    net.add_person("b", {"mining"})
    net.add_person("c", {"vision"})
    net.add_person("d", {"privacy"})
    net.add_person("e", {"quantum"})
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        net.add_edge(u, v)
    return net


@pytest.fixture
def former():
    return CoverTeamFormer(CoverageExpertRanker())


class TestCoverTeamFormer:
    def test_grows_until_covered(self, net, former):
        team = former.form(["graph", "mining"], net, seed_member=0)
        assert team.members == {0, 1}
        assert team.covers_query
        assert team.seed == 0

    def test_team_is_connected_chain(self, net, former):
        team = former.form(["graph", "vision"], net, seed_member=0)
        # Must walk through b to reach c.
        assert team.members == {0, 1, 2}
        assert team.covers_query

    def test_seed_defaults_to_top_ranked(self, net, former):
        team = former.form(["graph"], net)
        assert team.seed == 0
        assert 0 in team.members

    def test_max_size_respected(self, net):
        former = CoverTeamFormer(CoverageExpertRanker(), max_size=2)
        team = former.form(["graph", "mining", "vision", "privacy"], net, seed_member=0)
        assert team.size <= 2
        assert not team.covers_query

    def test_uncoverable_terms_reported(self, net, former):
        team = former.form(["graph", "nonexistent"], net, seed_member=0)
        assert "nonexistent" in team.uncovered_terms
        assert "graph" in team.covered_terms

    def test_membership_contract(self, net, former):
        assert former.membership(1, ["graph", "mining"], net, seed_member=0)
        assert not former.membership(4, ["graph", "mining"], net, seed_member=0)

    def test_build_order_starts_with_seed(self, net, former):
        team = former.form(["graph", "privacy"], net, seed_member=0)
        assert team.build_order[0] == 0

    def test_connector_budget_limits_wandering(self, net):
        """With zero connectors allowed, the team cannot bridge through
        non-covering nodes."""
        former = CoverTeamFormer(CoverageExpertRanker(), max_connectors=0)
        team = former.form(["graph", "privacy"], net, seed_member=0)
        assert not team.covers_query

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            CoverTeamFormer(CoverageExpertRanker(), max_size=0)

    def test_team_contains_dunder(self, net, former):
        team = former.form(["graph"], net, seed_member=0)
        assert 0 in team
        assert 4 not in team


class TestTeamOnTrainedStack:
    def test_former_builds_around_expert(
        self, small_dataset, small_former, small_query
    ):
        net = small_dataset.network
        seed = small_former.ranker.top_k(small_query, net, 5)[0]
        team = small_former.form(small_query, net, seed_member=seed)
        assert seed in team.members
        assert team.size >= 1
        # Team members form a connected subgraph around the seed.
        for m in team.members:
            if m != seed:
                assert any(
                    net.has_edge(m, other) for other in team.members if other != m
                )
