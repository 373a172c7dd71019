"""Unit tests for the CollaborationNetwork substrate."""

import numpy as np
import pytest

from repro.graph import CollaborationNetwork


@pytest.fixture
def simple():
    """Path 0-1-2 plus an isolated node 3."""
    net = CollaborationNetwork()
    net.add_person("a", {"x", "y"})
    net.add_person("b", {"y"})
    net.add_person("c", {"z"})
    net.add_person("d")
    net.add_edge(0, 1)
    net.add_edge(1, 2)
    return net


class TestConstruction:
    def test_add_person_returns_sequential_ids(self):
        net = CollaborationNetwork()
        assert net.add_person("a") == 0
        assert net.add_person("b") == 1
        assert net.n_people == 2

    def test_from_parts(self):
        net = CollaborationNetwork.from_parts(
            ["a", "b"], [{"x"}, {"y"}], [(0, 1)]
        )
        assert net.n_people == 2
        assert net.has_edge(0, 1)
        assert net.skills(0) == {"x"}

    def test_from_parts_misaligned_raises(self):
        with pytest.raises(ValueError, match="align"):
            CollaborationNetwork.from_parts(["a"], [{"x"}, {"y"}], [])

    def test_skills_are_copied_on_add(self):
        source = {"x"}
        net = CollaborationNetwork()
        net.add_person("a", source)
        source.add("y")
        assert net.skills(0) == {"x"}


class TestEdges:
    def test_add_edge_is_symmetric(self, simple):
        assert simple.has_edge(0, 1)
        assert simple.has_edge(1, 0)

    def test_add_duplicate_edge_returns_false(self, simple):
        assert simple.add_edge(0, 1) is False
        assert simple.n_edges == 2

    def test_remove_edge(self, simple):
        assert simple.remove_edge(0, 1) is True
        assert not simple.has_edge(0, 1)
        assert simple.n_edges == 1

    def test_remove_absent_edge_returns_false(self, simple):
        assert simple.remove_edge(0, 2) is False

    def test_self_loop_rejected(self, simple):
        with pytest.raises(ValueError, match="self loop"):
            simple.add_edge(1, 1)

    def test_out_of_range_rejected(self, simple):
        with pytest.raises(IndexError):
            simple.add_edge(0, 99)

    def test_edges_iterates_each_once_with_u_lt_v(self, simple):
        assert sorted(simple.edges()) == [(0, 1), (1, 2)]

    def test_degree_and_neighbors(self, simple):
        assert simple.degree(1) == 2
        assert simple.neighbors(1) == {0, 2}
        assert simple.neighbors(3) == frozenset()

    def test_incident_edges_canonical(self, simple):
        assert simple.incident_edges(1) == [(0, 1), (1, 2)]


class TestSkills:
    def test_add_and_remove_skill(self, simple):
        assert simple.add_skill(3, "w") is True
        assert simple.has_skill(3, "w")
        assert simple.remove_skill(3, "w") is True
        assert not simple.has_skill(3, "w")

    def test_add_duplicate_skill_returns_false(self, simple):
        assert simple.add_skill(0, "x") is False

    def test_remove_absent_skill_returns_false(self, simple):
        assert simple.remove_skill(0, "nope") is False

    def test_skill_universe(self, simple):
        assert simple.skill_universe() == {"x", "y", "z"}

    def test_total_skill_assignments(self, simple):
        assert simple.total_skill_assignments() == 4

    def test_people_with_skill(self, simple):
        assert simple.people_with_skill("y") == {0, 1}
        assert simple.people_with_skill("nope") == frozenset()

    def test_skills_returns_immutable_view(self, simple):
        view = simple.skills(0)
        with pytest.raises(AttributeError):
            view.add("q")  # frozenset has no add


class TestNeighborhoods:
    def test_radius_zero_is_self(self, simple):
        assert simple.neighborhood(0, 0) == {0}

    def test_radius_one(self, simple):
        assert simple.neighborhood(0, 1) == {0, 1}

    def test_radius_two(self, simple):
        assert simple.neighborhood(0, 2) == {0, 1, 2}

    def test_radius_beyond_component(self, simple):
        assert simple.neighborhood(0, 10) == {0, 1, 2}

    def test_negative_radius_raises(self, simple):
        with pytest.raises(ValueError):
            simple.neighborhood(0, -1)

    def test_neighborhood_skills(self, simple):
        assert simple.neighborhood_skills(0, 1) == {"x", "y"}
        assert simple.neighborhood_skills(0, 2) == {"x", "y", "z"}

    def test_edges_within(self, simple):
        assert simple.edges_within({0, 1, 2}) == [(0, 1), (1, 2)]
        assert simple.edges_within({0, 2}) == []


class TestDerivedMatrices:
    def test_adjacency_csr_symmetric(self, simple):
        adj = simple.adjacency_csr()
        assert adj.shape == (4, 4)
        assert (adj != adj.T).nnz == 0
        assert adj.sum() == 4  # 2 undirected edges

    def test_normalized_adjacency_rows_bounded(self, simple):
        norm = simple.normalized_adjacency()
        assert norm.shape == (4, 4)
        # Isolated node with self loop normalizes to exactly 1.
        assert norm[3, 3] == pytest.approx(1.0)

    def test_skill_matrix_default_vocab(self, simple):
        mat = simple.skill_matrix()
        vocab = simple.skill_vocabulary()
        assert mat.shape == (4, len(vocab))
        assert mat.sum() == simple.total_skill_assignments()

    def test_skill_matrix_projects_onto_external_vocab(self, simple):
        mat = simple.skill_matrix({"x": 0, "unknown": 1})
        assert mat.shape == (4, 2)
        assert mat[0, 0] == 1.0
        assert mat[:, 1].sum() == 0.0

    def test_caches_invalidated_by_mutation(self, simple):
        before = simple.skill_vocabulary()
        simple.add_skill(3, "new-skill")
        after = simple.skill_vocabulary()
        assert "new-skill" in after
        assert "new-skill" not in before


class TestCopyAndValidate:
    def test_copy_is_deep(self, simple):
        clone = simple.copy()
        clone.add_edge(0, 3)
        clone.add_skill(0, "q")
        assert not simple.has_edge(0, 3)
        assert not simple.has_skill(0, "q")
        assert simple.n_edges == 2

    def test_copy_preserves_content(self, simple):
        clone = simple.copy()
        assert sorted(clone.edges()) == sorted(simple.edges())
        for p in simple.people():
            assert clone.skills(p) == simple.skills(p)
            assert clone.name(p) == simple.name(p)

    def test_validate_ok(self, simple):
        simple.validate()

    def test_validate_detects_asymmetry(self, simple):
        simple._adj[0].add(2)  # corrupt deliberately
        with pytest.raises(ValueError, match="asymmetric"):
            simple.validate()

    def test_find_person(self, simple):
        assert simple.find_person("c") == 2
        with pytest.raises(KeyError):
            simple.find_person("nobody")

    def test_version_increments(self, simple):
        v0 = simple.version
        simple.add_skill(0, "q")
        assert simple.version > v0

    def test_repr_mentions_counts(self, simple):
        assert "n_people=4" in repr(simple)


class TestCompactMode:
    """CSR-compact networks answer every read identically to set mode."""

    def test_compact_preserves_reads(self, simple):
        reference = simple.copy()
        compact = simple.compact()
        assert compact is simple and compact.is_compact
        assert compact.state_digest() == reference.state_digest()
        assert compact.n_people == reference.n_people
        assert compact.n_edges == reference.n_edges
        for p in reference.people():
            assert compact.skills(p) == reference.skills(p)
            assert compact.neighbors(p) == reference.neighbors(p)
            assert compact.degree(p) == reference.degree(p)
            assert compact.neighborhood(p, 2) == reference.neighborhood(p, 2)
            assert compact.neighborhood_skills(
                p, 1
            ) == reference.neighborhood_skills(p, 1)
        assert sorted(compact.edges()) == sorted(reference.edges())
        assert compact.skill_universe() == reference.skill_universe()
        assert compact.has_edge(0, 1) and not compact.has_edge(0, 2)
        assert compact.has_skill(0, "x") and not compact.has_skill(1, "x")
        assert compact.people_with_skill("y") == {0, 1}
        np.testing.assert_array_equal(
            compact.match_counts(["x", "y"]),
            reference.match_counts(["x", "y"]),
        )

    def test_compact_thaws_on_mutation(self, simple):
        simple.compact()
        version = simple.version
        assert simple.add_edge(0, 3)
        assert not simple.is_compact
        assert simple.version > version
        assert simple.has_edge(0, 3)
        assert simple.n_edges == 3

    def test_from_csr_round_trip(self, simple):
        reference = simple.copy()
        compact = simple.compact()
        rebuilt = CollaborationNetwork.from_csr(
            [compact.name(p) for p in compact.people()],
            compact._adj_indptr,
            compact._adj_indices,
            compact._skill_indptr,
            compact._skill_ids,
            compact._skill_vocab,
        )
        assert rebuilt.is_compact
        assert rebuilt.state_digest() == reference.state_digest()

    def test_from_csr_rejects_misaligned(self):
        with pytest.raises(ValueError):
            CollaborationNetwork.from_csr(
                ["a", "b"],
                np.array([0, 1]),  # wrong indptr length
                np.array([1], dtype=np.int32),
                np.zeros(3, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                (),
            )

    def test_derived_matrices_match(self, simple):
        reference = simple.copy()
        compact = simple.compact()
        np.testing.assert_array_equal(
            compact.adjacency_csr().toarray(),
            reference.adjacency_csr().toarray(),
        )
