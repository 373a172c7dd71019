"""Graph auto-encoder tests: learning signal and interface contract."""

import numpy as np
import pytest

from repro.graph import CollaborationNetwork, NetworkRecipe, synthesize_network
from repro.linkpred import GaeConfig, GraphAutoencoder, evaluate_predictor, split_edges, train_gae


@pytest.fixture(scope="module")
def community_net():
    """Two dense communities with sparse cross links: GAE should learn to
    score intra-community pairs above cross-community pairs."""
    rng = np.random.default_rng(7)
    net = CollaborationNetwork()
    for i in range(40):
        net.add_person(f"p{i}", {f"s{i % 8}"})
    for block in (range(0, 20), range(20, 40)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j and rng.random() < 0.3:
                    net.add_edge(i, j)
    net.add_edge(0, 20)
    net.add_edge(5, 30)
    return net


class TestTraining:
    def test_auc_beats_chance(self, community_net):
        split = split_edges(community_net, test_fraction=0.15, seed=0)
        gae = train_gae(split.train_network, GaeConfig(epochs=80, seed=0))
        auc, ap = evaluate_predictor(gae, split)
        assert auc > 0.6, f"GAE AUC {auc:.2f} barely above chance"

    def test_intra_community_scores_higher(self, community_net):
        gae = train_gae(community_net, GaeConfig(epochs=80, seed=1))
        intra, cross = [], []
        for u in range(0, 10):
            for v in range(10, 20):
                if not community_net.has_edge(u, v):
                    intra.append(gae.score(u, v))
            for v in range(20, 30):
                if not community_net.has_edge(u, v):
                    cross.append(gae.score(u, v))
        assert np.mean(intra) > np.mean(cross)

    def test_deterministic(self, community_net):
        a = train_gae(community_net, GaeConfig(epochs=20, seed=3))
        b = train_gae(community_net, GaeConfig(epochs=20, seed=3))
        np.testing.assert_allclose(a.embeddings(), b.embeddings())


class TestInterface:
    def test_embeddings_require_fit(self):
        gae = GraphAutoencoder(4, GaeConfig())
        with pytest.raises(RuntimeError):
            gae.embeddings()

    def test_scores_are_probabilities(self, community_net):
        gae = train_gae(community_net, GaeConfig(epochs=20, seed=4))
        for u, v in [(0, 1), (0, 39), (5, 25)]:
            assert 0.0 <= gae.score(u, v) <= 1.0

    def test_top_candidates_excludes_existing(self, community_net):
        gae = train_gae(community_net, GaeConfig(epochs=20, seed=5))
        existing = community_net.neighbors(0)
        for (u, v), _ in gae.top_candidates(0, range(40), topn=5):
            other = v if u == 0 else u
            assert other not in existing

    def test_edgeless_network_still_embeds(self):
        net = CollaborationNetwork()
        for i in range(5):
            net.add_person(f"p{i}", {"s"})
        gae = train_gae(net, GaeConfig(epochs=5, seed=6))
        assert gae.embeddings().shape[0] == 5


def _sample_non_edges_loop(network, count, rng):
    """The per-pair sampler the vectorized one replaced: one ``has_edge``
    per drawn pair, valid pairs kept in draw order."""
    n = network.n_people
    out = []
    attempts = 0
    max_attempts = 50 * count + 100
    while len(out) < count and attempts < max_attempts:
        batch = max(count - len(out), 32)
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        for u, v in zip(us, vs):
            if len(out) >= count:
                break
            if u == v or network.has_edge(int(u), int(v)):
                continue
            out.append((int(u), int(v)))
        attempts += batch
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


class TestNonEdgeSampling:
    @pytest.mark.parametrize("count", [1, 31, 200, 5000])
    def test_matches_per_pair_loop(self, community_net, count):
        from repro.linkpred.gae import _sample_non_edges

        for seed in range(3):
            got = _sample_non_edges(community_net, count, np.random.default_rng(seed))
            want = _sample_non_edges_loop(community_net, count, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_complete_graph_yields_nothing(self):
        from repro.linkpred.gae import _sample_non_edges

        net = CollaborationNetwork.from_parts(
            ["a", "b", "c"], [(), (), ()], [(0, 1), (0, 2), (1, 2)]
        )
        got = _sample_non_edges(net, 4, np.random.default_rng(0))
        assert got.shape == (0, 2)
