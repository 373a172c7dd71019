"""Personalized-PageRank expert search baseline [8].

The restart distribution concentrates on individuals whose own skills match
the query; the random walk then spreads relevance along collaboration
edges, so well-connected collaborators of matching experts also rank.

Overlay probes are delta-scored through
:class:`~repro.search.engine.PageRankDeltaSession` (cached transition
operator, O(Δ) restart/degree patches, warm-started power iteration);
``full_rebuild = True`` forces the from-scratch path below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.graph.network import CollaborationNetwork
from repro.graph.perturbations import Query, as_query
from repro.search.base import ExpertSearchSystem, query_match_vector
from repro.search.engine import PageRankDeltaSession


@dataclass
class PageRankExpertRanker(ExpertSearchSystem):
    """Power-iteration personalized PageRank (no training required).

    The damping factor defaults to 0.5 rather than the web-graph 0.85:
    expert search wants relevance anchored near the restart (query-matching)
    nodes — with 0.85 a well-connected broker can outrank the person who
    actually holds the skills.
    """

    damping: float = 0.5
    max_iterations: int = 50
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.damping < 1.0):
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")

    def delta_session(self, base: CollaborationNetwork) -> PageRankDeltaSession:
        return PageRankDeltaSession(self, base)

    def memo_survives(self, delta, query: Query) -> bool:
        """A committed skill flip outside the query's terms leaves every
        restart vector — and so every walk over the unchanged operator —
        untouched, for *any* probe flip set over the new base."""
        return not delta.edge_flips and not (delta.skills_changed & query)

    def scores(self, query: Iterable[str], network: CollaborationNetwork) -> np.ndarray:
        query = as_query(query)
        delta = self._try_delta_scores(query, network)
        if delta is not None:
            return delta
        n = network.n_people
        if n == 0:
            return np.zeros(0)
        restart = query_match_vector(query, network)
        total = restart.sum()
        if total == 0:
            return np.zeros(n)  # no one matches any query term
        restart = restart / total

        adj = network.adjacency_csr()
        out_degree = np.asarray(adj.sum(axis=1)).ravel()
        return self._power_iteration(restart, adj, out_degree)[0]

    def _power_iteration(
        self,
        restart: np.ndarray,
        adj,
        out_degree: np.ndarray,
        warm_start: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        """(solution, converged) of the personalized walk.  A delta session
        warm-starts from the base solution; the plain path starts from the
        restart distribution.  The kernel itself lives on the active
        :class:`~repro.backend.base.NumericBackend`."""
        return get_backend().power_iteration(
            restart,
            adj,
            out_degree,
            damping=self.damping,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            warm_start=warm_start,
        )

    def _power_iteration_multi(
        self,
        restarts: np.ndarray,
        adj,
        out_degree: np.ndarray,
        starts: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked power iterations: ``k`` independent personalized walks
        over one shared transition operator, advanced together through
        the backend's ``(n, k)`` stacked kernel (each column performs the
        exact per-iteration arithmetic of :meth:`_power_iteration` and
        freezes where its sequential loop would break).  Returns
        ``(solutions (n, k), converged (k,))``."""
        return get_backend().power_iteration_stacked(
            restarts,
            adj,
            out_degree,
            damping=self.damping,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            starts=starts,
        )
