"""The default numpy/scipy backend: fused batched kernels.

The kernel bodies here are the profiled hot paths the delta sessions ran
inline before the backend seam existed: the warm-started (and stacked)
PageRank power iterations, the HITS authority iteration, the hand-rolled
block-diagonal CSR stack feeding batched GCN forwards, and the TF-IDF
multi-row gathers.

Bit-stability notes (load-bearing for the composition-insensitivity
contract in :mod:`repro.backend.base`):

* ``row_dot``/``gather_dots`` accumulate through ``np.add.reduceat``,
  which reduces each segment *strictly sequentially* — the same
  accumulation order scipy's CSR matvec/matvecs kernels use — so a
  per-row dot, a fused gather, and a sparse product over the gathered
  CSR all produce bitwise-identical values.  ``np.sum``/BLAS ``dot``
  would not (pairwise summation / vectorized reordering).
* ``power_iteration_stacked`` keeps every column's arithmetic
  independent of ``k``: the spmm is per-column independent and the
  axis-0 reductions accumulate row-by-row per column, so a walk's
  solution does not depend on which other walks shared its stack.
* ``gcn_forward_blocks`` stacks blocks through one block-diagonal
  forward; CSR row independence and the dgemm's fixed K-pass keep each
  block's rows identical to a standalone forward.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend.base import NumericBackend, SparseRow


class NumpyBackend(NumericBackend):
    """Fused numpy/scipy kernels — the default backend."""

    name = "numpy"

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def spmv(self, matrix: sp.spmatrix, vec: np.ndarray) -> np.ndarray:
        return np.asarray(matrix @ vec).ravel()

    def spmm(self, matrix: sp.spmatrix, mat: np.ndarray) -> np.ndarray:
        return np.asarray(matrix @ mat)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # ------------------------------------------------------------------
    # stacked power iteration (PageRank)
    # ------------------------------------------------------------------
    def power_iteration(
        self,
        restart: np.ndarray,
        adj: sp.spmatrix,
        out_degree: np.ndarray,
        *,
        damping: float,
        max_iterations: int,
        tolerance: float,
        warm_start: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        # Column-stochastic transition; dangling nodes teleport.
        inv_deg = np.divide(
            1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
        )
        # Built once per call: each iteration would build an equal
        # transpose and run the same scipy kernel on it, so every iterate
        # is unchanged.
        adj_t = adj.T
        dangling_mask = out_degree == 0
        scores = (restart if warm_start is None else warm_start).copy()
        converged = False
        for _ in range(max_iterations):
            spread = adj_t @ (scores * inv_deg)
            dangling = scores[dangling_mask].sum()
            new = (1 - damping) * restart + damping * (
                spread + dangling * restart
            )
            if np.abs(new - scores).sum() < tolerance:
                scores = new
                converged = True
                break
            scores = new
        return scores, converged

    def power_iteration_stacked(
        self,
        restarts: np.ndarray,
        adj: sp.spmatrix,
        out_degree: np.ndarray,
        *,
        damping: float,
        max_iterations: int,
        tolerance: float,
        starts: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Columns are fully independent, so each one performs the exact
        # per-iteration arithmetic of a lone stacked column; a column that
        # meets the tolerance *freezes* at that iterate while the rest
        # keep iterating.
        n, k = restarts.shape
        inv_deg = np.divide(
            1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
        )
        dangling_mask = out_degree == 0
        adj_t = adj.T
        scores = (restarts if starts is None else starts).copy()
        solutions = np.empty((n, k))
        converged = np.zeros(k, dtype=bool)
        active = np.arange(k)
        active_restarts = restarts.copy()
        for _ in range(max_iterations):
            spread = adj_t @ (scores * inv_deg[:, None])
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

    def ppr_delta_push(
        self,
        seed_indices: np.ndarray,
        seed_values: np.ndarray,
        adj: sp.csr_matrix,
        out_degree: np.ndarray,
        restart_indices: np.ndarray,
        restart_values: np.ndarray,
        *,
        damping: float,
        epsilon: float,
        max_sweeps: int,
        max_nodes: int,
        row_overrides=None,
    ) -> Optional[Tuple[np.ndarray, float, int]]:
        n = adj.shape[0]
        indptr, indices, data = adj.indptr, adj.indices, adj.data
        override_ids = (
            np.asarray(sorted(row_overrides), dtype=np.int64)
            if row_overrides
            else np.empty(0, dtype=np.int64)
        )
        inv_deg = np.divide(
            1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
        )
        dangling = out_degree == 0
        delta = np.zeros(n)
        res = np.zeros(n)
        member = np.zeros(n, dtype=bool)
        support = np.asarray(seed_indices, dtype=np.int64)
        if support.size == 0:
            return delta, 0.0, 0
        # Members start empty: the admission rule below picks the heavy
        # seed nodes too, so a flipped hub's row — thousands of entries
        # holding negligible rescale mass — stays on the boundary instead
        # of recruiting the whole neighborhood into the solve.
        res[support] = seed_values
        solve_set = 0
        target = epsilon * (1.0 - damping)
        half = 0.5 * target
        in_support = np.zeros(n, dtype=bool)
        in_support[support] = True
        l1 = 0.0
        sweeps = 0

        def absorb(cand: np.ndarray) -> np.ndarray:
            """Append the (deduplicated) fresh nodes of ``cand`` to the
            support — O(new) per sweep instead of re-uniquing the whole
            support every hop."""
            fresh = cand[~in_support[cand]]
            if fresh.size:
                fresh = np.unique(fresh)
                in_support[fresh] = True
                return np.concatenate([support, fresh])
            return support

        while True:
            l1 = float(np.abs(res[support]).sum())
            if l1 <= target:
                break
            internal = support[member[support]]
            internal = internal[res[internal] != 0.0]
            internal_l1 = float(np.abs(res[internal]).sum())
            if internal_l1 > half:
                # One hop of damping * M' over the *solve set* only:
                # scatter each member's mass along its out-row (CSR
                # data-weighted — patched operators carry explicit
                # zeros), then teleport member dangling mass onto the
                # restart.  Boundary residual accumulates in place and
                # never propagates, so a hub inside the cone spreads
                # mass onto its neighbors without recruiting them.
                if sweeps >= max_sweeps:
                    return None
                sweeps += 1
                vals = res[internal].copy()
                delta[internal] += vals
                res[internal] = 0.0
                if override_ids.size:
                    # Patched rows (a handful of flipped-edge endpoints)
                    # scatter through their override rows; every other
                    # member reads the shared base CSR unmodified.
                    is_ov = np.isin(internal, override_ids)
                    plain = internal[~is_ov]
                    plain_vals = vals[~is_ov]
                    for u, mass in zip(
                        internal[is_ov].tolist(), vals[is_ov].tolist()
                    ):
                        if out_degree[u] <= 0:
                            continue  # dangling mass teleports below
                        cols_u, vals_u = row_overrides[u]
                        if cols_u.size:
                            res[cols_u] += (
                                damping * mass * inv_deg[u]
                            ) * vals_u
                            support = absorb(cols_u.astype(np.int64))
                else:
                    plain = internal
                    plain_vals = vals
                starts = indptr[plain]
                lens = (indptr[plain + 1] - starts).astype(np.int64)
                total = int(lens.sum())
                if total:
                    shifts = np.cumsum(lens)
                    pos = np.repeat(
                        starts.astype(np.int64)
                        - np.concatenate(([0], shifts[:-1])),
                        lens,
                    ) + np.arange(total, dtype=np.int64)
                    cols = indices[pos]
                    contrib = data[pos] * np.repeat(
                        plain_vals * inv_deg[plain], lens
                    )
                    res += np.bincount(
                        cols, weights=damping * contrib, minlength=n
                    )
                    support = absorb(cols.astype(np.int64))
                dangling_mass = float(vals[dangling[internal]].sum())
                if dangling_mass != 0.0 and restart_indices.size:
                    res[restart_indices] += (
                        damping * dangling_mass
                    ) * restart_values
                    support = absorb(
                        np.asarray(restart_indices, dtype=np.int64)
                    )
                continue
            # Member mass is converged below half the target, so the
            # excess lives on the boundary: admit the heaviest external
            # residuals, leaving out the widest tail that still fits in
            # the other half of the budget.
            external = support[~member[support]]
            mags = np.abs(res[external])
            order = np.argsort(-mags, kind="stable")
            tail = np.cumsum(mags[order][::-1])[::-1]
            fits = tail <= half
            cut = int(np.argmax(fits)) if fits.any() else int(external.size)
            promote = external[order[: max(cut, 1)]]
            member[promote] = True
            solve_set += int(promote.size)
            if solve_set > max_nodes:
                return None
        delta[support] += res[support]
        return delta, l1, solve_set

    # ------------------------------------------------------------------
    # authority iteration (HITS)
    # ------------------------------------------------------------------
    def authority_iteration(
        self,
        adj: sp.spmatrix,
        m: int,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> np.ndarray:
        authority = np.ones(m) / m
        for _ in range(max_iterations):
            hub = adj @ authority
            hub_norm = np.linalg.norm(hub)
            hub = hub / hub_norm if hub_norm > 0 else hub
            new_authority = adj.T @ hub
            norm = np.linalg.norm(new_authority)
            new_authority = new_authority / norm if norm > 0 else new_authority
            if np.abs(new_authority - authority).sum() < tolerance:
                authority = new_authority
                break
            authority = new_authority
        return authority

    # ------------------------------------------------------------------
    # block-diagonal GCN forward
    # ------------------------------------------------------------------
    def gcn_forward(
        self, scorer, features: np.ndarray, adj: sp.spmatrix
    ) -> np.ndarray:
        return scorer.forward(features, adj).numpy()

    def gcn_forward_blocks(
        self,
        scorer,
        feats_blocks: Sequence[np.ndarray],
        adj_blocks: Sequence[sp.spmatrix],
    ) -> List[np.ndarray]:
        feats_blocks = list(feats_blocks)
        adj_blocks = list(adj_blocks)
        if len(feats_blocks) == 1:
            return [self.gcn_forward(scorer, feats_blocks[0], adj_blocks[0]).copy()]
        stacked = np.concatenate(feats_blocks, axis=0)
        big_adj = self.block_diag_csr([a.tocsr() for a in adj_blocks])
        out = self.gcn_forward(scorer, stacked, big_adj)
        n = feats_blocks[0].shape[0]
        return [out[j * n : (j + 1) * n].copy() for j in range(len(feats_blocks))]

    def block_diag_csr(self, mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
        # Hand-rolled index arithmetic; the generic ``sp.block_diag``
        # round-trips through COO and costs more than the batched forward
        # it feeds.
        mats = list(mats)
        n = mats[0].shape[0]
        nnz_offsets = np.cumsum([0] + [m.nnz for m in mats])
        data = np.concatenate([m.data for m in mats])
        indices = np.concatenate(
            [m.indices + np.int64(i * n) for i, m in enumerate(mats)]
        )
        indptr = np.concatenate(
            [mats[0].indptr]
            + [m.indptr[1:] + nnz_offsets[i] for i, m in enumerate(mats) if i > 0]
        )
        return sp.csr_matrix(
            (data, indices, indptr), shape=(len(mats) * n, len(mats) * n)
        )

    # ------------------------------------------------------------------
    # CSR multi-row gather (TF-IDF)
    # ------------------------------------------------------------------
    def gather_rows(
        self, rows: Sequence[SparseRow], n_cols: int
    ) -> sp.csr_matrix:
        rows = list(rows)
        if not rows:
            return sp.csr_matrix((0, n_cols), dtype=np.float64)
        indptr = np.cumsum([0] + [cols.size for cols, _ in rows])
        if indptr[-1] == 0:
            return sp.csr_matrix((len(rows), n_cols), dtype=np.float64)
        indices = np.concatenate([cols for cols, _ in rows])
        data = np.concatenate([vals for _, vals in rows])
        return sp.csr_matrix(
            (data, indices, indptr), shape=(len(rows), n_cols)
        )

    def row_dot(self, vals: np.ndarray, weights: np.ndarray) -> float:
        if vals.size == 0:
            return 0.0
        return float(np.add.reduceat(vals * weights, [0])[0])

    def gather_dots(
        self, rows: Sequence[SparseRow], weights: np.ndarray
    ) -> np.ndarray:
        rows = list(rows)
        out = np.zeros(len(rows))
        sizes = np.fromiter(
            (cols.size for cols, _ in rows), dtype=np.int64, count=len(rows)
        )
        nonempty = np.flatnonzero(sizes)
        if nonempty.size == 0:
            return out
        prods = np.concatenate(
            [rows[i][1] * weights[rows[i][0]] for i in nonempty]
        )
        starts = np.zeros(nonempty.size, dtype=np.int64)
        np.cumsum(sizes[nonempty][:-1], out=starts[1:])
        out[nonempty] = np.add.reduceat(prods, starts)
        return out
