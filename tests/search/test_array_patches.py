"""Bitwise oracles for the array-level probe patches.

Delta sessions patch a probe's inputs on plain arrays: a GCN feature row
is the sum of the person's embedding rows, and an edge-flipped adjacency
is spliced straight into the CSR arrays.  Both must equal, bit for bit,
the scipy products they replace — a 1-row sparse product for the feature
row, ``adj + delta`` for the adjacency — which this module keeps as the
oracles.  Both backends run these tests through the CI matrix.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import toy_network
from repro.graph import NetworkOverlay
from repro.search.engine import _csr_keys, _flip_csr


def _oracle_feature_row(session, skills, query, q_vec):
    """The 1-row scipy product the feature-row patch replaced."""
    fm = session._fm
    cols = sorted(
        col for col in (session._vocab.get(s) for s in skills) if col is not None
    )
    if cols:
        row = sp.csr_matrix(
            (np.ones(len(cols)), ([0] * len(cols), cols)), shape=(1, fm.shape[0])
        )
        centroid = session.backend.spmm(row, fm).ravel() / max(float(len(cols)), 1.0)
    else:
        centroid = np.zeros(fm.shape[1])
    match = len(skills & query) / len(query) if query else 0.0
    norm = float(np.linalg.norm(centroid))
    sim = float(centroid @ q_vec) / max(norm, 1e-12)
    return centroid, match, sim


def _oracle_flip(adj, edge_flips):
    """``adj`` plus the symmetric ±1 delta, through scipy's sparse add."""
    n = adj.shape[0]
    rows, cols, data = [], [], []
    for (u, v), added in edge_flips.items():
        w = 1.0 if added else -1.0
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))
    delta = sp.csr_matrix(
        (np.asarray(data), (rows, cols)), shape=(n, n), dtype=np.float64
    )
    out = (adj + delta).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def _random_flips(adj, rng, kind, size):
    """Up to ``size`` distinct edge flips: removals of stored edges,
    additions of absent pairs, or a mix of both."""
    n = adj.shape[0]
    present = set(zip(*(side.tolist() for side in sp.triu(adj, k=1).nonzero())))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pool = {
        "remove": [(e, False) for e in pairs if e in present],
        "add": [(e, True) for e in pairs if e not in present],
    }
    pool["mixed"] = pool["remove"] + pool["add"]
    candidates = pool[kind]
    picks = rng.choice(len(candidates), size=min(size, len(candidates)), replace=False)
    return dict(candidates[i] for i in picks)


class TestFeatureRowOracle:
    """``GcnDeltaSession._feature_row_values`` against the 1-row scipy
    product, including the zero-centroid case the 1e-9 note guards."""

    @pytest.fixture
    def session(self, small_gcn_ranker, small_dataset):
        return small_gcn_ranker.delta_session(small_dataset.network)

    def test_random_skill_sets(self, session, small_query):
        rng = np.random.default_rng(0)
        vocab = sorted(session._vocab)
        query = frozenset(small_query)
        _, q_vec = session._base_features(query)
        for trial in range(300):
            size = int(rng.integers(0, 12))
            skills = {vocab[i] for i in rng.choice(len(vocab), size=size, replace=False)}
            if trial % 3 == 0:
                skills |= {f"unseen-{trial}", f"unseen-{trial + 1}"}
            if trial % 5 == 0:
                skills |= set(small_query)
            skills = frozenset(skills)
            got = session._feature_row_values(skills, query, q_vec)
            want = _oracle_feature_row(session, skills, query, q_vec)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1] and got[2] == want[2]

    def test_person_without_vocab_skills(self, session, small_dataset, small_query):
        """All in-vocabulary skills removed: a zero centroid, exactly."""
        net = small_dataset.network
        person = max(
            net.people(), key=lambda p: sum(s in session._vocab for s in net.skills(p))
        )
        overlay = NetworkOverlay(net)
        for skill in sorted(net.skills(person)):
            if skill in session._vocab:
                overlay.remove_skill(person, skill)
        overlay.add_skill(person, "unseen-skill")
        query = frozenset(small_query)
        _, q_vec = session._base_features(query)
        skills = overlay.skills(person)
        got = session._feature_row_values(skills, query, q_vec)
        want = _oracle_feature_row(session, skills, query, q_vec)
        assert not got[0].any() and got[2] == 0.0
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[1], got[2]) == (want[1], want[2])


class TestFlipCsrOracle:
    """The CSR flip helper against ``(adj + delta).tocsr()``."""

    @pytest.mark.parametrize("kind", ["remove", "add", "mixed"])
    @pytest.mark.parametrize("self_loops", [False, True], ids=["adj", "a_hat"])
    def test_random_flip_sets(self, kind, self_loops):
        rng = np.random.default_rng(["remove", "add", "mixed"].index(kind) + 3 * self_loops)
        for trial in range(60):
            net = toy_network(n_people=int(rng.integers(4, 30)), seed=trial)
            adj = net.adjacency_csr()
            if self_loops:
                adj = (adj + sp.identity(net.n_people, format="csr")).tocsr()
            flips = _random_flips(adj, rng, kind, int(rng.integers(1, 8)))
            _assert_same_csr(_flip_csr(adj, _csr_keys(adj), flips), _oracle_flip(adj, flips))

    def test_weighted_entries_and_empty_matrix(self):
        """Flips onto weighted entries keep their sums; an edgeless
        matrix takes additions only."""
        rng = np.random.default_rng(7)
        dense = np.triu(rng.random((12, 12)) < 0.4, 1) * rng.integers(1, 4, (12, 12))
        adj = sp.csr_matrix((dense + dense.T).astype(float))
        flips = _random_flips(adj, rng, "mixed", 6)
        # +1 onto stored weights of 1..3: summed in place, never dropped
        flips.update(dict.fromkeys(_random_flips(adj, rng, "remove", 2), True))
        _assert_same_csr(_flip_csr(adj, _csr_keys(adj), flips), _oracle_flip(adj, flips))
        empty = sp.csr_matrix((5, 5))
        flips = {(0, 3): True, (1, 2): True}
        _assert_same_csr(_flip_csr(empty, _csr_keys(empty), flips), _oracle_flip(empty, flips))
