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

    def test_from_parts_self_loop_raises(self):
        with pytest.raises(ValueError, match="self loop"):
            CollaborationNetwork.from_parts(["a", "b"], [(), ()], [(0, 1), (1, 1)])

    def test_from_parts_out_of_range_raises(self):
        with pytest.raises(IndexError):
            CollaborationNetwork.from_parts(["a", "b"], [(), ()], [(0, 2)])

    def test_from_parts_stores_repeated_edges_once(self):
        net = CollaborationNetwork.from_parts(
            ["a", "b", "c"], [["x", "x"], (), ()], [(0, 1), (1, 0), (0, 1), (2, 1)]
        )
        assert net.n_edges == 2
        assert list(net.edges()) == [(0, 1), (1, 2)]
        assert net.total_skill_assignments() == 1
        net.validate()

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
        # corrupt deliberately: 2 joins row 0 but 0 not row 2
        simple._adj_indptr = np.array([0, 2, 4, 5, 5])
        simple._adj_indices = np.array([1, 2, 0, 2, 1], dtype=np.int32)
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
    """CSR arrays, the only storage, answer every read like a plain
    Python-set model of the same content."""

    def test_compact_preserves_reads(self, simple):
        names = ["a", "b", "c", "d"]
        skills = [{"x", "y"}, {"y"}, {"z"}, set()]
        adj = [{1}, {0, 2}, {1}, set()]
        assert simple.is_compact
        assert simple.n_people == len(names)
        assert simple.n_edges == sum(map(len, adj)) // 2
        for p in simple.people():
            assert simple.name(p) == names[p]
            assert simple.skills(p) == skills[p]
            assert simple.neighbors(p) == adj[p]
            assert simple.degree(p) == len(adj[p])
            assert simple.incident_edges(p) == sorted(
                (min(p, q), max(p, q)) for q in adj[p]
            )
            for q in simple.people():
                if q != p:
                    assert simple.has_edge(p, q) == (q in adj[p])
            for s in ("x", "y", "z", "w"):
                assert simple.has_skill(p, s) == (s in skills[p])
        assert list(simple.edges()) == sorted(
            (u, v) for u in range(4) for v in adj[u] if u < v
        )
        assert simple.skill_universe() == set().union(*skills)
        for s in ("x", "y", "z", "w"):
            holders = {p for p in range(4) if s in skills[p]}
            assert simple.people_with_skill(s) == holders
        assert simple.total_skill_assignments() == sum(map(len, skills))
        np.testing.assert_array_equal(
            simple.match_counts(["x", "y", "w"]),
            [sum(s in held for s in ("x", "y", "w")) for held in skills],
        )
        np.testing.assert_array_equal(
            simple.term_incidence(["y", "w"]),
            [[s in held for s in ("y", "w")] for held in skills],
        )

    def test_from_csr_round_trip(self, simple):
        rebuilt = CollaborationNetwork.from_csr(
            [simple.name(p) for p in simple.people()],
            simple._adj_indptr,
            simple._adj_indices,
            simple._skill_indptr,
            simple._skill_ids,
            simple._skill_vocab,
        )
        assert rebuilt.is_compact
        assert rebuilt.state_digest() == simple.state_digest()

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
        """A network edited one call at a time and a one-pass build of
        the same content derive the same matrices."""
        twin = CollaborationNetwork.from_parts(
            ["a", "b", "c", "d"], [{"y", "x"}, {"y"}, {"z"}, ()], [(2, 1), (0, 1)]
        )
        assert twin.state_digest() == simple.state_digest()
        for got, want in (
            (simple.adjacency_csr(), twin.adjacency_csr()),
            (simple.skill_matrix(), twin.skill_matrix()),
            (simple.normalized_adjacency(), twin.normalized_adjacency()),
        ):
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


class TestApplyDelta:
    def test_flips_land_as_one_bump(self, simple):
        version = simple.version
        delta = simple.apply_delta(
            [(3, "w", True), (0, "x", False)], [(2, 0, True), (1, 0, False)]
        )
        assert simple.version == delta.new_version == version + 1
        assert delta.skill_flips == ((0, "x", False), (3, "w", True))
        assert delta.edge_flips == ((0, 1, False), (0, 2, True))
        assert simple.skills(0) == {"y"} and simple.skills(3) == {"w"}
        assert simple.neighbors(0) == {2} and simple.neighbors(1) == {2}
        assert simple.n_edges == 2
        simple.validate()

    def test_empty_batch_is_a_no_op(self, simple):
        version = simple.version
        delta = simple.apply_delta((), ())
        assert delta.is_empty and simple.version == version

    @pytest.mark.parametrize(
        "skill_flips, edge_flips, match",
        [
            ((), [(0, 3, True), (3, 0, True)], "repeated edge"),
            ((), [(0, 3, True), (0, 3, False)], "repeated edge"),
            ([(3, "w", True), (3, "w", True)], (), "repeated skill"),
            ([(0, "x", True)], (), "inapplicable skill"),
            ([(0, "nope", False)], (), "inapplicable skill"),
            ((), [(1, 0, True)], "inapplicable edge"),
            ([(3, "w", True)], [(0, 2, False)], "inapplicable edge"),
        ],
    )
    def test_rejected_batch_lands_nothing(self, simple, skill_flips, edge_flips, match):
        digest, version = simple.state_digest(), simple.version
        with pytest.raises(ValueError, match=match):
            simple.apply_delta(skill_flips, edge_flips)
        assert simple.state_digest() == digest and simple.version == version
        assert simple.skill_universe() == {"x", "y", "z"}
        simple.validate()

    def test_mirrored_flip_is_canonical(self, simple):
        delta = simple.apply_delta((), [(3, 0, True)])
        assert delta.edge_flips == ((0, 3, True),)
        assert simple.has_edge(0, 3) and simple.n_edges == 3
        simple.validate()
