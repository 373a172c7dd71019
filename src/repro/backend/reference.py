"""The conformance shim backend: every batched kernel as a naive loop.

``ReferenceBackend`` answers each batched protocol op by looping its
single-item counterpart — stacked power iterations become one sequential
walk per column, block-diagonal GCN forwards become one forward per
block, multi-row gathers become one dot per row, spmm becomes one spmv
per column.  It exists to *prove* the protocol: CI runs the tier-1 suite
with ``REPRO_BACKEND=reference``, so any session logic that silently
depends on a fused kernel's shape (rather than the protocol's declared
semantics) fails there.

The loops are also trivially composition-insensitive — an item's result
cannot depend on its batch-mates when each item is computed alone —
which makes this backend the executable statement of that contract
(:mod:`repro.backend.base`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend.base import SparseRow
from repro.backend.numpy_backend import NumpyBackend


class ReferenceBackend(NumpyBackend):
    """Naive-loop implementations of every batched kernel."""

    name = "reference"

    def spmm(self, matrix: sp.spmatrix, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat)
        if mat.ndim == 1:
            return self.spmv(matrix, mat)
        out = np.empty((matrix.shape[0], mat.shape[1]))
        for j in range(mat.shape[1]):
            out[:, j] = self.spmv(matrix, mat[:, j])
        return out

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
        n, k = restarts.shape
        solutions = np.empty((n, k))
        converged = np.zeros(k, dtype=bool)
        for j in range(k):
            warm = None if starts is None else starts[:, j]
            solutions[:, j], converged[j] = self.power_iteration(
                restarts[:, j],
                adj,
                out_degree,
                damping=damping,
                max_iterations=max_iterations,
                tolerance=tolerance,
                warm_start=warm,
            )
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
        # Node-at-a-time adaptive solve set in ascending-id order — the
        # same member/boundary semantics as the fused kernel: only
        # admitted nodes propagate, boundary residual accumulates in
        # place, and the set grows by the heaviest external residuals
        # (ties broken ascending-id, matching the stable argsort over
        # the fused kernel's id-ordered support).
        n = adj.shape[0]
        indptr, indices, data = adj.indptr, adj.indices, adj.data
        delta = np.zeros(n)
        res = np.zeros(n)
        for i, v in zip(seed_indices, seed_values):
            res[int(i)] = v
        # Members start empty — the admission rule picks the heavy seed
        # nodes, leaving a flipped hub's diffuse row on the boundary.
        member: set = set()
        support = {int(i) for i in seed_indices}
        if not support:
            return delta, 0.0, 0
        target = epsilon * (1.0 - damping)
        half = 0.5 * target
        l1 = 0.0
        sweeps = 0
        while True:
            support = {u for u in support if res[u] != 0.0}
            l1 = float(sum(abs(res[u]) for u in support))
            if l1 <= target:
                break
            internal = sorted(u for u in support if u in member)
            internal_l1 = float(sum(abs(res[u]) for u in internal))
            if internal_l1 > half:
                if sweeps >= max_sweeps:
                    return None
                sweeps += 1
                vals = {u: float(res[u]) for u in internal}
                for u in internal:
                    delta[u] += res[u]
                    res[u] = 0.0
                dangling_mass = 0.0
                for u in internal:
                    mass = vals[u]
                    deg = out_degree[u]
                    if deg > 0:
                        scale = damping * mass / deg
                        row = (
                            row_overrides.get(u) if row_overrides else None
                        )
                        if row is not None:
                            for v, w in zip(row[0].tolist(), row[1].tolist()):
                                res[int(v)] += w * scale
                                support.add(int(v))
                        else:
                            for pos in range(indptr[u], indptr[u + 1]):
                                v = int(indices[pos])
                                res[v] += data[pos] * scale
                                support.add(v)
                    else:
                        dangling_mass += mass
                if dangling_mass != 0.0:
                    for i, w in zip(restart_indices, restart_values):
                        res[int(i)] += damping * dangling_mass * w
                        support.add(int(i))
                continue
            external = sorted(
                (u for u in support if u not in member),
                key=lambda u: (-abs(res[u]), u),
            )
            tail = float(sum(abs(res[u]) for u in external))
            cut = 0
            while cut < len(external) and tail > half:
                tail -= abs(res[external[cut]])
                cut += 1
            member.update(external[: max(cut, 1)])
            if len(member) > max_nodes:
                return None
        for u in sorted(support):
            delta[u] += res[u]
        return delta, l1, len(member)

    def gcn_forward_blocks(
        self,
        scorer,
        feats_blocks: Sequence[np.ndarray],
        adj_blocks: Sequence[sp.spmatrix],
    ) -> List[np.ndarray]:
        return [
            self.gcn_forward(scorer, feats, adj).copy()
            for feats, adj in zip(feats_blocks, adj_blocks)
        ]

    def block_diag_csr(self, mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
        return sp.block_diag(list(mats), format="csr")

    def gather_rows(
        self, rows: Sequence[SparseRow], n_cols: int
    ) -> sp.csr_matrix:
        rows = list(rows)
        r: List[int] = []
        c: List[int] = []
        data: List[float] = []
        for i, (cols, vals) in enumerate(rows):
            r.extend([i] * cols.size)
            c.extend(cols.tolist())
            data.extend(vals.tolist())
        return sp.csr_matrix(
            (data, (r, c)), shape=(len(rows), n_cols), dtype=np.float64
        )

    def gather_dots(
        self, rows: Sequence[SparseRow], weights: np.ndarray
    ) -> np.ndarray:
        return np.asarray(
            [self.row_dot(vals, weights[cols]) for cols, vals in rows]
        )
