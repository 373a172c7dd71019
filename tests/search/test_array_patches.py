"""Bitwise oracles for the array-level probe patches.

Delta sessions patch a probe's inputs on plain arrays: a GCN feature row
is the sum of the person's embedding rows, and an edge-flipped adjacency
is spliced straight into the CSR arrays.  Both must equal, bit for bit,
the scipy products they replace — a 1-row sparse product for the feature
row, ``adj + delta`` for the adjacency — which this module keeps as the
oracles.  The GCN session assembles a whole flush of such patches in one
pass over a tiled base; every block of that stack must equal its own
overlay's rebuilt operator.  Both backends run these tests through the
CI matrix.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import ReferenceBackend
from repro.datasets import toy_network
from repro.graph import NetworkOverlay
from repro.search import GcnDeltaSession
from repro.search.engine import _BATCH_GROUP, _csr_keys, _edge_flip_arrays, _flip_csr


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


def _flip(adj, edge_flips):
    """``adj`` with ``edge_flips`` applied by the array routine."""
    n = adj.shape[1]
    indptr, indices, data = _flip_csr(
        adj.indptr,
        adj.indices,
        adj.data,
        _csr_keys(adj.indptr, adj.indices, n),
        n,
        _edge_flip_arrays([edge_flips], n),
    )
    return sp.csr_matrix((data, indices, indptr), shape=adj.shape)


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
            _assert_same_csr(_flip(adj, flips), _oracle_flip(adj, flips))

    def test_weighted_entries_and_empty_matrix(self):
        """Flips onto weighted entries keep their sums; an edgeless
        matrix takes additions only."""
        rng = np.random.default_rng(7)
        dense = np.triu(rng.random((12, 12)) < 0.4, 1) * rng.integers(1, 4, (12, 12))
        adj = sp.csr_matrix((dense + dense.T).astype(float))
        flips = _random_flips(adj, rng, "mixed", 6)
        # +1 onto stored weights of 1..3: summed in place, never dropped
        flips.update(dict.fromkeys(_random_flips(adj, rng, "remove", 2), True))
        _assert_same_csr(_flip(adj, flips), _oracle_flip(adj, flips))
        empty = sp.csr_matrix((5, 5))
        flips = {(0, 3): True, (1, 2): True}
        _assert_same_csr(_flip(empty, flips), _oracle_flip(empty, flips))

    @pytest.mark.parametrize("self_loops", [False, True], ids=["adj", "a_hat"])
    def test_tens_of_flips(self, self_loops):
        rng = np.random.default_rng(11 + self_loops)
        for trial in range(20):
            net = toy_network(n_people=int(rng.integers(30, 60)), seed=trial)
            adj = net.adjacency_csr()
            if self_loops:
                adj = (adj + sp.identity(net.n_people, format="csr")).tocsr()
            flips = _random_flips(adj, rng, "mixed", int(rng.integers(20, 80)))
            assert len(flips) >= 20
            _assert_same_csr(_flip(adj, flips), _oracle_flip(adj, flips))

    def test_removals_empty_a_row(self):
        """Every edge of a node removed: its row (and, without self
        loops, the row pointer run) goes empty, and the rows after it
        shift down."""
        net = toy_network(n_people=15, seed=4)
        for self_loops in (False, True):
            adj = net.adjacency_csr()
            if self_loops:
                adj = (adj + sp.identity(net.n_people, format="csr")).tocsr()
            for node in (0, 7, 14):
                flips = {
                    (min(node, v), max(node, v)): False for v in net.neighbors(node)
                }
                got = _flip(adj, flips)
                _assert_same_csr(got, _oracle_flip(adj, flips))
                assert got.indptr[node + 1] - got.indptr[node] == self_loops

    def test_inserts_after_deletions_in_a_row(self):
        """A row that loses stored entries and gains new ones, both
        before and after the dropped positions, in one flip set."""
        net = toy_network(n_people=20, seed=2)
        adj = net.adjacency_csr()
        node = 10
        row = sorted(net.neighbors(node))
        absent = [v for v in range(net.n_people) if v != node and v not in row]
        for drop, add in (
            (row[:1], absent[-2:]),  # delete early, insert late
            (row[-1:], absent[:2]),  # insert early, delete late
            (row, absent[::3]),  # interleaved throughout the row
        ):
            flips = {(min(node, v), max(node, v)): False for v in drop}
            flips.update({(min(node, v), max(node, v)): True for v in add})
            _assert_same_csr(_flip(adj, flips), _oracle_flip(adj, flips))


# ----------------------------------------------------------------------
# one-pass flush assembly (GcnDeltaSession._stacked_inputs)
# ----------------------------------------------------------------------
TOY_SKILLS = ("graph", "social", "mining", "database", "query", "neural")

edge_edit = st.tuples(
    st.sampled_from(["add_edge", "remove_edge", "cancel_edge"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)
skill_edit = st.tuples(
    st.sampled_from(["add_skill", "remove_skill", "cancel_skill"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


def _edited_overlay(net, steps, skills):
    """An overlay over ``net`` after ``steps``; cancel steps flip and
    unflip the same pair, so the overlay can come out empty."""
    overlay = NetworkOverlay(net)
    n = net.n_people
    for kind, a, b in steps:
        if kind.endswith("edge"):
            u, v = a % n, b % n
            if u == v:
                continue
            args = (u, v)
            add, remove = overlay.add_edge, overlay.remove_edge
        else:
            args = (a % n, skills[b % len(skills)])
            add, remove = overlay.add_skill, overlay.remove_skill
        if kind.startswith("add"):
            add(*args)
        elif kind.startswith("remove"):
            remove(*args)
        elif add(*args):
            remove(*args)
        elif remove(*args):
            add(*args)
    return overlay


class TestStackedAssembly:
    """Every block of a flush's stacked operator equals its overlay's
    rebuilt ``normalized_adjacency()`` exactly, a stacked forward equals
    each block scored alone, and both sit within 1e-9 of a rebuild."""

    @given(
        n_people=st.integers(4, 24),
        seed=st.integers(0, 40),
        compact=st.booleans(),
        overlays=st.lists(
            st.lists(st.one_of(edge_edit, skill_edit), max_size=24),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=_BATCH_GROUP),
        queries=st.lists(
            st.sets(st.integers(0, 10_000), min_size=1, max_size=3), min_size=1
        ),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_blocks_equal_rebuilds(
        self, small_gcn_ranker, n_people, seed, compact, overlays, picks, queries
    ):
        net = toy_network(n_people=n_people, seed=seed)
        if compact:
            net.compact()
        vocab = sorted(small_gcn_ranker._feature_vocab)
        # Skill flips inside the GCN vocabulary and outside it.
        skills = list(TOY_SKILLS) + vocab[:4] + ["unseen-a", "unseen-b"]
        pool = [_edited_overlay(net, steps, skills) for steps in overlays]
        terms = list(TOY_SKILLS) + vocab[:3]
        blocks = []
        for j, pick in enumerate(picks):  # repeats share one overlay object
            query = frozenset(terms[t % len(terms)] for t in queries[j % len(queries)])
            blocks.append((query, pool[pick % len(pool)]))

        session = GcnDeltaSession(small_gcn_ranker, net)
        feats, adj = session._stacked_inputs(blocks)
        n = net.n_people
        assert adj.shape == (len(blocks) * n, len(blocks) * n)
        nnz = 0
        for i, (query, overlay) in enumerate(blocks):
            rows = slice(i * n, (i + 1) * n)
            rebuilt = overlay.materialize()
            want = rebuilt.normalized_adjacency()
            got = adj[rows, rows]
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
            nnz += want.nnz
            # Feature rows match a rebuild up to the similarity column's
            # last ulps (a scalar dot there, a matrix product in the
            # rebuild); the 1e-9 score check below is the contract.
            np.testing.assert_allclose(
                feats[rows],
                small_gcn_ranker._node_features(query, rebuilt),
                rtol=0,
                atol=1e-12,
            )
        assert adj.nnz == nnz  # nothing off the diagonal blocks

        # Each block alone (k = 1) against its place in the stack: bit for
        # bit on the reference backend, which scores the diagonal blocks
        # one at a time.  The numpy backend's one stacked forward matches
        # a lone one bit for bit only when every block starts on the BLAS
        # kernels' row grouping (n % 4 == 0 on the OpenBLAS Haswell
        # kernels); otherwise the scorer head's matrix-vector product
        # rounds a row differently at another offset, by ulps.
        exact = isinstance(session.backend, ReferenceBackend)
        stacked = session._forward(blocks)
        for block, vec in zip(blocks, stacked):
            alone = session._forward([block])[0]
            if exact:
                assert np.array_equal(vec, alone)
            else:
                assert np.abs(vec - alone).max() <= 1e-12
            query, overlay = block
            full = small_gcn_ranker.scores(query, overlay.materialize())
            assert np.abs(vec - full).max() <= 1e-9
