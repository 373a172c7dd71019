"""The numeric backend protocol: every batched probe kernel behind one seam.

The probe engine's throughput story is a handful of dense/sparse kernels —
stacked GCN forwards over block-diagonal operators, stacked warm-started
power iterations, CSR multi-row gathers, spmv/spmm/matmul primitives.
:class:`NumericBackend` is the narrow surface those kernels live behind:
delta sessions and rankers describe *what* to compute (which probes, which
operators, which rows) and the backend decides *how* — so numpy can be
swapped for a numba/torch/GPU backend without touching a line of session
logic.

Backends also own the **cost hints** that used to be hand-tuned module
constants in ``repro.search.engine``: the break-even points below which a
fused kernel loses to the sequential loop depend on the backend's fixed
per-call overhead (a GPU backend amortizes far later than numpy), so they
are backend attributes, not session constants.

Conformance contract: two backends must agree on every kernel to the
probe engine's 1e-9 parity band (:class:`~repro.backend.reference
.ReferenceBackend`, all naive loops, is the conformance shim CI runs the
tier-1 suite against).  Within one backend, the batched kernels must be
**composition-insensitive**: a probe's scores may not depend on which
other probes shared its flush.  The probe engine splits a batch into
``_BATCH_GROUP``-sized chunks, answers lone states through single
``probe`` calls, and serves vectors from a score memo shared across
engines and requests — so the same probe state reaches the kernels in
flushes of every size and mix, and its answer must not depend on which
one computed it first.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

#: ``(column indices, values)`` of one sparse row — the unit the TF-IDF
#: gather kernels consume.
SparseRow = Tuple[np.ndarray, np.ndarray]


class NumericBackend(abc.ABC):
    """The kernel surface the probe engine dispatches through.

    Subclasses implement the kernels; the cost hints below may be
    overridden per backend (class attributes suffice — sessions read them
    through the active backend instance).
    """

    #: Short identifier (``"numpy"``, ``"reference"``, ...) — also the
    #: ``REPRO_BACKEND`` value that selects the backend.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # cost hints (backend-owned break-even thresholds)
    # ------------------------------------------------------------------
    #: Patched-row count below which a TF-IDF flush answers with the
    #: per-row loop instead of the fused multi-row gather: constructing
    #: the gathered product costs more than a handful of tiny dots, which
    #: is exactly the regime probe flushes live in (``_BATCH_GROUP``
    #: overlays x 1-5 flips).  Profiled on the bench network: the numpy
    #: gather only breaks even past ~100 rows.
    tfidf_gather_min_rows: int = 96
    #: Person count below which PageRank walks run sequentially instead
    #: of through the stacked ``(n, k)`` spmm iteration: below it a
    #: warm-started walk is a handful of tiny spmv kernels and the
    #: stacked path's dense bookkeeping (column masking, convergence
    #: compaction, restart stacking) *loses* — profiled 0.6x on a
    #: 106-person network, while the 212-person bench network keeps its
    #: >2x stacked win.
    pagerank_stack_min_people: int = 192

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def spmv(self, matrix: sp.spmatrix, vec: np.ndarray) -> np.ndarray:
        """Sparse @ dense-vector product, returned dense 1-D."""

    @abc.abstractmethod
    def spmm(self, matrix: sp.spmatrix, mat: np.ndarray) -> np.ndarray:
        """Sparse @ dense-matrix product, returned dense 2-D."""

    @abc.abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense @ dense product."""

    # ------------------------------------------------------------------
    # stacked power iteration (PageRank)
    # ------------------------------------------------------------------
    @abc.abstractmethod
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
        """``(solution, converged)`` of one personalized walk over a
        column-stochastic transition with dangling-node teleport."""

    @abc.abstractmethod
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
        """``k`` independent personalized walks advanced together:
        ``restarts``/``starts`` are ``(n, k)``; returns ``(solutions
        (n, k), converged (k,))``.  Each column must perform the exact
        per-iteration arithmetic of :meth:`power_iteration` and freeze at
        the iterate where its sequential loop would break."""

    @abc.abstractmethod
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
        row_overrides: Optional[dict] = None,
    ) -> Optional[Tuple[np.ndarray, float, int]]:
        """Localized forward-push solve of the PageRank *correction* system
        ``delta = seed + damping * M' @ delta`` where ``M' x = adj.T @
        (x / out_degree) + (dangling mass of x) * restart`` — the patched
        walk's propagation, matching :meth:`power_iteration` arithmetic.

        ``seed_indices``/``seed_values`` is the sparse seed (signed);
        ``restart_indices``/``restart_values`` is the sparse restart used
        only to redistribute dangling mass.  ``adj`` rows are a node's
        outgoing edges and may carry explicit zeros (patched operators do
        not eliminate them), so entries must be weighted by ``adj.data``.
        ``row_overrides`` (``{node: (cols, vals)}``) substitutes a
        handful of patched rows over the otherwise-shared base ``adj`` —
        the caller never materializes a full patched CSR for an O(Δ)
        edge-flip probe; ``out_degree`` is always the *patched* degree
        vector.

        The solve maintains an adaptive *solve set*: sweeps push only
        admitted members' residual mass one hop (``delta += res_S; res +=
        damping * M' @ res_S``), while boundary residual accumulates in
        place and never propagates — a hub inside the cone spreads its
        mass thin across its neighbors without recruiting them.  When the
        members' residual converges below half the target but the total
        still exceeds it, the heaviest boundary residuals are admitted
        (the widest tail that fits in the other half of the budget stays
        out).  Total work is O(solve-set edges x sweeps), never O(n)
        beyond the dense output buffers.  Iteration stops once the total
        residual l1 norm drops to ``epsilon * (1 - damping)``, certifying
        ``||delta_exact - delta||_1 <= res_l1 / (1 - damping) <=
        epsilon``.

        Returns ``(delta, residual_l1, cone_nodes)`` — the dense
        correction, the final residual l1 norm, and the solve-set size —
        or None when the solve set exceeded ``max_nodes`` or the sweep
        cap ran out (callers fall back to the exact global kernel)."""

    # ------------------------------------------------------------------
    # authority iteration (HITS)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def authority_iteration(
        self,
        adj: sp.spmatrix,
        m: int,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> np.ndarray:
        """Normalized hub/authority iteration over an ``m x m`` base-set
        adjacency; returns the authority vector."""

    # ------------------------------------------------------------------
    # block-diagonal GCN forward
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gcn_forward(
        self, scorer, features: np.ndarray, adj: sp.spmatrix
    ) -> np.ndarray:
        """One scorer forward pass; returns the raw score vector (callers
        copy when they need ownership)."""

    @abc.abstractmethod
    def gcn_forward_blocks(
        self,
        scorer,
        feats_blocks: Sequence[np.ndarray],
        adj_blocks: Sequence[sp.spmatrix],
    ) -> List[np.ndarray]:
        """Score a group of equally-sized probe blocks — one (features,
        propagation operator) pair per probe — returning one caller-owned
        score vector per block.  The numpy backend fuses the group into a
        single block-diagonal forward; a conforming backend may equally
        loop :meth:`gcn_forward`."""

    @abc.abstractmethod
    def block_diag_csr(self, mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
        """Block-diagonal stack of equally-shaped square CSR operators."""

    # ------------------------------------------------------------------
    # CSR multi-row gather (TF-IDF)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gather_rows(
        self, rows: Sequence[SparseRow], n_cols: int
    ) -> sp.csr_matrix:
        """One CSR over a list of sparse rows (row ``j`` of the result is
        ``rows[j]``; indices within each row must already be sorted)."""

    @abc.abstractmethod
    def row_dot(self, vals: np.ndarray, weights: np.ndarray) -> float:
        """Dot product of one sparse row's values against the weights
        already gathered for its columns.  Must accumulate in the same
        order as :meth:`gather_dots` does per row, so the sequential
        fallback and the fused gather agree bit-for-bit."""

    @abc.abstractmethod
    def gather_dots(
        self, rows: Sequence[SparseRow], weights: np.ndarray
    ) -> np.ndarray:
        """Per-row dot products of many sparse rows against one dense
        weight vector — the fused form of :meth:`row_dot`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
