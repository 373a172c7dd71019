"""The numeric backend seam.

Three layers under test:

* **conformance** — the fused :class:`NumpyBackend` kernels agree with the
  naive-loop :class:`ReferenceBackend` to the repo-wide 1e-9 band on
  random sparse inputs (the contract any third-party backend must meet);
* **resolution** — ``get_backend``/``set_backend``/``register_backend``
  and ``REPRO_BACKEND`` behave as documented, and sessions capture the
  active backend at construction;
* **cost hints** — the backend-owned break-even thresholds (not module
  constants any more) are what pick the sequential-vs-fused kernel path,
  pinned with a spy backend: small probe-engine flushes still take the
  sequential fallback under the default hints.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import repro.backend as backend_mod
from repro.backend import (
    NumpyBackend,
    ReferenceBackend,
    get_backend,
    register_backend,
    set_backend,
)
from repro.datasets import toy_network
from repro.graph import NetworkOverlay
from repro.search import DocumentExpertRanker, PageRankExpertRanker

ATOL = 1e-9


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    previous = set_backend(None)
    set_backend(previous)
    yield
    set_backend(previous)


def _random_csr(rng, n, m, density=0.3):
    mat = sp.random(
        n, m, density=density, format="csr", random_state=np.random.RandomState(
            int(rng.integers(0, 2**31))
        )
    )
    return mat.astype(np.float64)


def _random_rows(rng, n_rows, n_cols):
    rows = []
    for _ in range(n_rows):
        size = int(rng.integers(0, max(2, n_cols // 3)))
        cols = np.sort(
            rng.choice(n_cols, size=size, replace=False).astype(np.int64)
        )
        rows.append((cols, rng.standard_normal(size)))
    return rows


# ----------------------------------------------------------------------
# conformance: fused kernels vs naive reference loops
# ----------------------------------------------------------------------
class TestBackendConformance:
    """NumpyBackend and ReferenceBackend agree to 1e-9 on every kernel."""

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_kernels(self, seed):
        rng = np.random.default_rng(1000 + seed)
        fused, naive = NumpyBackend(), ReferenceBackend()
        mat = _random_csr(rng, 17, 11)
        vec = rng.standard_normal(11)
        dense = rng.standard_normal((11, 5))
        np.testing.assert_allclose(
            fused.spmv(mat, vec), naive.spmv(mat, vec), rtol=0, atol=ATOL
        )
        np.testing.assert_allclose(
            fused.spmm(mat, dense), naive.spmm(mat, dense), rtol=0, atol=ATOL
        )
        a, b = rng.standard_normal((7, 11)), rng.standard_normal((11, 3))
        np.testing.assert_allclose(
            fused.matmul(a, b), naive.matmul(a, b), rtol=0, atol=ATOL
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_kernels(self, seed):
        rng = np.random.default_rng(2000 + seed)
        fused, naive = NumpyBackend(), ReferenceBackend()
        rows = _random_rows(rng, 9, 30)
        weights = rng.standard_normal(30)
        gathered_f = fused.gather_rows(rows, 30)
        gathered_n = naive.gather_rows(rows, 30)
        np.testing.assert_allclose(
            gathered_f.toarray(), gathered_n.toarray(), rtol=0, atol=ATOL
        )
        np.testing.assert_allclose(
            fused.gather_dots(rows, weights),
            naive.gather_dots(rows, weights),
            rtol=0,
            atol=ATOL,
        )
        for cols, vals in rows:
            assert fused.row_dot(vals, weights[cols]) == pytest.approx(
                naive.row_dot(vals, weights[cols]), abs=ATOL
            )

    def test_gather_rows_edge_shapes(self):
        fused, naive = NumpyBackend(), ReferenceBackend()
        for backend in (fused, naive):
            empty = backend.gather_rows([], 7)
            assert empty.shape == (0, 7)
            hollow = backend.gather_rows(
                [(np.zeros(0, np.int64), np.zeros(0))] * 3, 7
            )
            assert hollow.shape == (3, 7)
            assert hollow.nnz == 0
        assert fused.row_dot(np.zeros(0), np.zeros(0)) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_power_iteration_kernels(self, seed):
        rng = np.random.default_rng(3000 + seed)
        fused, naive = NumpyBackend(), ReferenceBackend()
        n, k = 13, 4
        adj = _random_csr(rng, n, n, density=0.25)
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        restarts = np.abs(rng.standard_normal((n, k))) + 1e-3
        restarts /= restarts.sum(axis=0)
        kwargs = dict(damping=0.5, max_iterations=50, tolerance=1e-10)
        sol_f, conv_f = fused.power_iteration_stacked(
            restarts, adj, out_degree, **kwargs
        )
        sol_n, conv_n = naive.power_iteration_stacked(
            restarts, adj, out_degree, **kwargs
        )
        np.testing.assert_array_equal(conv_f, conv_n)
        np.testing.assert_allclose(sol_f, sol_n, rtol=0, atol=ATOL)
        # Composition insensitivity: each stacked column is bitwise the
        # lone power iteration over its restart.
        for j in range(k):
            lone, lone_conv = fused.power_iteration(
                restarts[:, j], adj, out_degree, **kwargs
            )
            assert lone_conv == bool(conv_f[j])
            np.testing.assert_array_equal(lone, sol_f[:, j])

    @pytest.mark.parametrize("seed", range(3))
    def test_ppr_delta_push(self, seed):
        """Fused and reference push kernels agree on delta, residual, and
        solve-set size — and the certified l1 bound actually holds
        against the dense exact solve of the correction system."""
        rng = np.random.default_rng(6000 + seed)
        fused, naive = NumpyBackend(), ReferenceBackend()
        n = 30
        adj = _random_csr(rng, n, n, density=0.2)
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        seed_idx = np.sort(
            rng.choice(n, size=5, replace=False).astype(np.int64)
        )
        seed_vals = rng.standard_normal(5) * 1e-3
        restart = np.abs(rng.standard_normal(n)) + 1e-3
        restart /= restart.sum()
        r_idx = np.arange(n, dtype=np.int64)
        damping, epsilon = 0.5, 1e-8
        kwargs = dict(
            damping=damping, epsilon=epsilon, max_sweeps=500, max_nodes=n
        )
        out_f = fused.ppr_delta_push(
            seed_idx, seed_vals, adj, out_degree, r_idx, restart, **kwargs
        )
        out_n = naive.ppr_delta_push(
            seed_idx, seed_vals, adj, out_degree, r_idx, restart, **kwargs
        )
        assert out_f is not None and out_n is not None
        delta_f, l1_f, cone_f = out_f
        delta_n, l1_n, cone_n = out_n
        assert cone_f == cone_n
        assert l1_f == pytest.approx(l1_n, abs=ATOL)
        np.testing.assert_allclose(delta_f, delta_n, rtol=0, atol=ATOL)
        # Certificate vs the dense exact solve: delta = s + d * M @ delta
        # with M x = adj.T @ (x / deg) + dangling_mass(x) * restart.
        inv_deg = np.divide(
            1.0,
            out_degree,
            out=np.zeros_like(out_degree),
            where=out_degree > 0,
        )
        m = adj.toarray().T * inv_deg[None, :]
        m[:, out_degree == 0] += restart[:, None]
        s = np.zeros(n)
        s[seed_idx] = seed_vals
        exact = np.linalg.solve(np.eye(n) - damping * m, s)
        assert np.abs(exact - delta_f).sum() <= l1_f / (1 - damping) + ATOL
        assert l1_f / (1 - damping) <= epsilon

    @pytest.mark.parametrize("seed", range(3))
    def test_ppr_delta_push_row_overrides(self, seed):
        """Per-row overrides answer exactly like a fully materialized
        patched CSR, on both backends — the O(Δ) operator view the
        localized PageRank path relies on."""
        rng = np.random.default_rng(7000 + seed)
        n = 30
        base = _random_csr(rng, n, n, density=0.2)
        patched = base.copy().tolil()
        touched = sorted(
            int(i) for i in rng.choice(n, size=3, replace=False)
        )
        for u in touched:
            v = int(rng.integers(0, n))
            patched[u, v] = patched[u, v] + 1.0
        patched = patched.tocsr()
        overrides = {
            u: (
                patched.indices[
                    patched.indptr[u] : patched.indptr[u + 1]
                ].astype(np.int64),
                patched.data[patched.indptr[u] : patched.indptr[u + 1]],
            )
            for u in touched
        }
        out_degree = np.asarray(patched.sum(axis=1)).ravel()
        seed_idx = np.sort(
            rng.choice(n, size=4, replace=False).astype(np.int64)
        )
        seed_vals = rng.standard_normal(4) * 1e-3
        restart = np.abs(rng.standard_normal(n)) + 1e-3
        restart /= restart.sum()
        r_idx = np.arange(n, dtype=np.int64)
        kwargs = dict(
            damping=0.5, epsilon=1e-8, max_sweeps=500, max_nodes=n
        )
        for backend in (NumpyBackend(), ReferenceBackend()):
            full = backend.ppr_delta_push(
                seed_idx, seed_vals, patched, out_degree, r_idx, restart,
                **kwargs,
            )
            view = backend.ppr_delta_push(
                seed_idx, seed_vals, base, out_degree, r_idx, restart,
                row_overrides=overrides, **kwargs,
            )
            assert full is not None and view is not None
            np.testing.assert_allclose(
                view[0], full[0], rtol=0, atol=ATOL
            )
            assert view[2] == full[2]

    def test_ppr_delta_push_solve_set_cap(self):
        """A seed whose decay needs more nodes than ``max_nodes`` makes
        both backends report None — the caller's global-fallback signal."""
        rng = np.random.default_rng(8000)
        n = 40
        adj = _random_csr(rng, n, n, density=0.3)
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        seed_idx = np.arange(8, dtype=np.int64)
        seed_vals = np.full(8, 0.1)
        restart = np.full(n, 1.0 / n)
        r_idx = np.arange(n, dtype=np.int64)
        kwargs = dict(
            damping=0.5, epsilon=1e-10, max_sweeps=500, max_nodes=2
        )
        for backend in (NumpyBackend(), ReferenceBackend()):
            assert (
                backend.ppr_delta_push(
                    seed_idx, seed_vals, adj, out_degree, r_idx, restart,
                    **kwargs,
                )
                is None
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_authority_iteration(self, seed):
        rng = np.random.default_rng(4000 + seed)
        fused, naive = NumpyBackend(), ReferenceBackend()
        adj = _random_csr(rng, 12, 9, density=0.3)
        np.testing.assert_allclose(
            fused.authority_iteration(adj, 9, max_iterations=60, tolerance=1e-12),
            naive.authority_iteration(adj, 9, max_iterations=60, tolerance=1e-12),
            rtol=0,
            atol=ATOL,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_gcn_forward_blocks(self, seed):
        """Block-diag stacked forwards equal per-block forwards — bitwise,
        through a linear stand-in scorer (adj @ features @ w)."""
        rng = np.random.default_rng(5000 + seed)

        class _Out:
            def __init__(self, arr):
                self._arr = arr

            def numpy(self):
                return self._arr

        class _LinearScorer:
            def __init__(self, w):
                self.w = w

            def forward(self, features, adj):
                return _Out(np.asarray(adj @ (features @ self.w)).ravel())

        scorer = _LinearScorer(rng.standard_normal(6))
        n = 10
        feats = [rng.standard_normal((n, 6)) for _ in range(3)]
        adjs = [_random_csr(rng, n, n, density=0.3) for _ in range(3)]
        fused, naive = NumpyBackend(), ReferenceBackend()
        out_f = fused.gcn_forward_blocks(scorer, feats, adjs)
        out_n = naive.gcn_forward_blocks(scorer, feats, adjs)
        for block_f, block_n, f, a in zip(out_f, out_n, feats, adjs):
            np.testing.assert_array_equal(block_f, block_n)
            np.testing.assert_array_equal(
                block_f, fused.gcn_forward(scorer, f, a)
            )
        np.testing.assert_allclose(
            fused.block_diag_csr([a.tocsr() for a in adjs]).toarray(),
            naive.block_diag_csr([a.tocsr() for a in adjs]).toarray(),
            rtol=0,
            atol=0,
        )


# ----------------------------------------------------------------------
# resolution: get/set/register + REPRO_BACKEND
# ----------------------------------------------------------------------
def _per_iteration_transpose_walk(
    restart, adj, out_degree, *, damping, max_iterations, tolerance,
    warm_start=None,
):
    """``NumpyBackend.power_iteration`` as written before its loop
    invariants were hoisted: ``adj.T`` and the dangling mask rebuilt on
    every iteration (the bitwise oracle)."""
    inv_deg = np.divide(
        1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
    )
    scores = (restart if warm_start is None else warm_start).copy()
    converged = False
    for _ in range(max_iterations):
        spread = adj.T @ (scores * inv_deg)
        dangling = scores[out_degree == 0].sum()
        new = (1 - damping) * restart + damping * (spread + dangling * restart)
        if np.abs(new - scores).sum() < tolerance:
            scores = new
            converged = True
            break
        scores = new
    return scores, converged


def _per_iteration_transpose_walks(
    restarts, adj, out_degree, *, damping, max_iterations, tolerance,
    starts=None,
):
    """``NumpyBackend.power_iteration_stacked`` with ``adj.T`` rebuilt on
    every iteration (the bitwise oracle)."""
    n, k = restarts.shape
    inv_deg = np.divide(
        1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
    )
    dangling_mask = out_degree == 0
    scores = (restarts if starts is None else starts).copy()
    solutions = np.empty((n, k))
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    active_restarts = restarts.copy()
    for _ in range(max_iterations):
        spread = adj.T @ (scores * inv_deg[:, None])
        dangling = scores[dangling_mask].sum(axis=0)
        new = (1 - damping) * active_restarts + damping * (
            spread + dangling[None, :] * active_restarts
        )
        done = np.abs(new - scores).sum(axis=0) < tolerance
        if done.any():
            solutions[:, active[done]] = new[:, done]
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            active_restarts = active_restarts[:, keep]
            new = new[:, keep]
            if active.size == 0:
                return solutions, converged
        scores = new
    solutions[:, active] = scores
    return solutions, converged


class TestPowerIterationHoist:
    """The fused walks compute ``adj.T`` and the dangling mask once per
    call; every iterate must stay bitwise the per-iteration loop's."""

    @staticmethod
    def _walk_inputs(seed, n=40, k=5):
        rng = np.random.default_rng(7000 + seed)
        adj = _random_csr(rng, n, n, density=0.12)
        adj = sp.csr_matrix(adj.multiply(rng.random((n, 1)) > 0.2))  # dangling rows
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        assert (out_degree == 0).any()
        restarts = np.abs(rng.standard_normal((n, k))) + 1e-3
        restarts /= restarts.sum(axis=0)
        starts = np.abs(rng.standard_normal((n, k)))
        starts /= starts.sum(axis=0)
        return adj, out_degree, restarts, starts

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_iterations", [1, 7, 200])
    def test_power_iteration_bitwise(self, seed, max_iterations):
        adj, out_degree, restarts, starts = self._walk_inputs(seed)
        kwargs = dict(damping=0.85, max_iterations=max_iterations, tolerance=1e-12)
        for j in range(restarts.shape[1]):
            for warm in (None, starts[:, j]):
                got, got_conv = NumpyBackend().power_iteration(
                    restarts[:, j], adj, out_degree, warm_start=warm, **kwargs
                )
                want, want_conv = _per_iteration_transpose_walk(
                    restarts[:, j], adj, out_degree, warm_start=warm, **kwargs
                )
                assert got_conv == want_conv
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_iterations", [1, 7, 200])
    def test_power_iteration_stacked_bitwise(self, seed, max_iterations):
        adj, out_degree, restarts, starts = self._walk_inputs(seed)
        kwargs = dict(damping=0.85, max_iterations=max_iterations, tolerance=1e-12)
        for warm in (None, starts):
            got, got_conv = NumpyBackend().power_iteration_stacked(
                restarts, adj, out_degree, starts=warm, **kwargs
            )
            want, want_conv = _per_iteration_transpose_walks(
                restarts, adj, out_degree, starts=warm, **kwargs
            )
            assert np.array_equal(got_conv, want_conv)
            assert np.array_equal(got, want)

    def test_pagerank_network_walks_bitwise(self, toy_net):
        adj = toy_net.adjacency_csr()
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        restart = np.full(toy_net.n_people, 1.0 / toy_net.n_people)
        kwargs = dict(damping=0.85, max_iterations=100, tolerance=1e-10)
        got = NumpyBackend().power_iteration(restart, adj, out_degree, **kwargs)
        want = _per_iteration_transpose_walk(restart, adj, out_degree, **kwargs)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])


class TestBackendResolution:
    def test_set_backend_by_name_and_instance(self):
        previous = set_backend("reference")
        assert get_backend().name == "reference"
        instance = NumpyBackend()
        assert isinstance(set_backend(instance), ReferenceBackend)
        assert get_backend() is instance
        set_backend(previous)

    def test_unknown_name_raises_and_lists_known(self):
        with pytest.raises(ValueError, match="reference"):
            set_backend("no-such-backend")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(backend_mod._ENV_VAR, "reference")
        previous = set_backend(None)  # force re-resolution
        try:
            assert get_backend().name == "reference"
            monkeypatch.setenv(backend_mod._ENV_VAR, "bogus")
            set_backend(None)
            with pytest.raises(ValueError, match="bogus"):
                get_backend()
        finally:
            set_backend(previous)

    def test_register_backend(self):
        class _Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", _Custom)
        try:
            previous = set_backend("custom-test")
            assert get_backend().name == "custom-test"
            set_backend(previous)
        finally:
            backend_mod._registry.pop("custom-test", None)

    def test_sessions_capture_backend_at_construction(self, toy_net):
        marked = NumpyBackend()
        previous = set_backend(marked)
        try:
            session = DocumentExpertRanker().delta_session(toy_net)
            assert session.backend is marked
            set_backend(NumpyBackend())
            assert session.backend is marked  # swap does not retarget it
        finally:
            set_backend(previous)


# ----------------------------------------------------------------------
# cost hints: backend-owned thresholds drive the kernel-path choice
# ----------------------------------------------------------------------
class _SpyBackend(NumpyBackend):
    """Counts kernel calls; hints overridable per instance."""

    name = "spy"

    def __init__(self, **hints):
        self.calls = Counter()
        for hint, value in hints.items():
            setattr(self, hint, value)

    def row_dot(self, vals, weights):
        self.calls["row_dot"] += 1
        return super().row_dot(vals, weights)

    def gather_dots(self, rows, weights):
        self.calls["gather_dots"] += 1
        return super().gather_dots(rows, weights)

    def power_iteration(self, *args, **kwargs):
        self.calls["power_iteration"] += 1
        return super().power_iteration(*args, **kwargs)

    def power_iteration_stacked(self, *args, **kwargs):
        self.calls["power_iteration_stacked"] += 1
        return super().power_iteration_stacked(*args, **kwargs)


def _skill_flip_overlays(net, rng, n_overlays):
    skills = sorted(net.skill_universe())
    overlays = []
    for _ in range(n_overlays):
        overlay = NetworkOverlay(net)
        p = int(rng.integers(0, net.n_people))
        s = skills[int(rng.integers(0, len(skills)))]
        if not overlay.add_skill(p, s):
            overlay.remove_skill(p, s)
        overlays.append(overlay)
    return overlays


class TestCostHints:
    """The former module constants live on the backend now; the spy pins
    that the *hint value* is what routes a flush, and that the default
    hints keep small probe-engine flushes on the sequential fallback."""

    def test_default_hint_values(self):
        assert NumpyBackend().tfidf_gather_min_rows == 96
        assert NumpyBackend().pagerank_stack_min_people == 192
        # The constants really are gone from the engine module.
        import repro.search.engine as engine_mod

        assert not hasattr(engine_mod, "_TFIDF_GATHER_MIN_ROWS")
        assert not hasattr(engine_mod, "_PAGERANK_STACK_MIN_PEOPLE")

    def test_tfidf_small_flush_takes_sequential_fallback(self, toy_net):
        rng = np.random.default_rng(7)
        query = frozenset(sorted(toy_net.skill_universe())[:3])
        overlays = _skill_flip_overlays(toy_net, rng, 6)

        spy = _SpyBackend()  # default hints: 6 rows < 96 -> sequential
        previous = set_backend(spy)
        try:
            session = DocumentExpertRanker().delta_session(toy_net)
            sequential = session.scores_batch(query, overlays)
        finally:
            set_backend(previous)
        assert spy.calls["gather_dots"] == 0
        assert spy.calls["row_dot"] > 0

        fused_spy = _SpyBackend(tfidf_gather_min_rows=1)
        previous = set_backend(fused_spy)
        try:
            session = DocumentExpertRanker().delta_session(toy_net)
            fused = session.scores_batch(query, overlays)
        finally:
            set_backend(previous)
        assert fused_spy.calls["gather_dots"] == 1
        # Both routes produce bitwise-identical flush results.
        for seq_vec, fused_vec in zip(sequential, fused):
            np.testing.assert_array_equal(seq_vec, fused_vec)

    def test_pagerank_small_network_stays_sequential(self, toy_net):
        rng = np.random.default_rng(11)
        query = frozenset(sorted(toy_net.skill_universe())[:3])
        overlays = _skill_flip_overlays(toy_net, rng, 4)

        spy = _SpyBackend()  # 12 people < 192 -> sequential walks
        previous = set_backend(spy)
        try:
            session = PageRankExpertRanker().delta_session(toy_net)
            sequential = session.scores_batch(query, overlays)
        finally:
            set_backend(previous)
        assert spy.calls["power_iteration"] > 0
        assert spy.calls["power_iteration_stacked"] == 0

        stacked_spy = _SpyBackend(pagerank_stack_min_people=1)
        previous = set_backend(stacked_spy)
        try:
            session = PageRankExpertRanker().delta_session(toy_net)
            stacked = session.scores_batch(query, overlays)
        finally:
            set_backend(previous)
        assert stacked_spy.calls["power_iteration_stacked"] > 0
        for seq_vec, stacked_vec in zip(sequential, stacked):
            np.testing.assert_array_equal(seq_vec, stacked_vec)
