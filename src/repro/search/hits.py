"""HITS-based expert search baseline [31].

Kleinberg's HITS run on the subgraph induced by query-relevant nodes: the
root set is everyone holding at least one query term, expanded by one hop
(the classic base-set construction).  Authority scores rank the experts;
nodes outside the base set score zero.

The base-set adjacency is held sparse (sliced from the network's cached
CSR) — the seed allocated a dense m×m matrix, O(m²) memory around
hub-dense query terms.  Overlay probes are delta-scored through
:class:`~repro.search.engine.HitsDeltaSession` (incremental root/base-set
updates under skill and edge flips); ``full_rebuild = True`` forces the
from-scratch path below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

import numpy as np

from repro.backend import get_backend
from repro.graph.network import CollaborationNetwork
from repro.graph.perturbations import Query, as_query
from repro.search.base import ExpertSearchSystem
from repro.search.engine import HitsDeltaSession


@dataclass
class HitsExpertRanker(ExpertSearchSystem):
    """Authority scores of the query-induced base subgraph."""

    max_iterations: int = 60
    tolerance: float = 1e-12
    # Small lexical prior so root-set members outrank pure connectors.
    match_bonus: float = 0.05

    def delta_session(self, base: CollaborationNetwork) -> HitsDeltaSession:
        return HitsDeltaSession(self, base)

    def memo_survives(self, delta, query: Query) -> bool:
        """Root sets, support counts, and the sliced authority runs all
        derive from query-term holdings and the adjacency; a commit that
        touches neither leaves every probe over the query unchanged."""
        return not delta.edge_flips and not (delta.skills_changed & query)

    def scores(self, query: Iterable[str], network: CollaborationNetwork) -> np.ndarray:
        query = as_query(query)
        delta = self._try_delta_scores(query, network)
        if delta is not None:
            return delta
        n = network.n_people
        out = np.zeros(n)
        if n == 0 or not query:
            return out

        root: Set[int] = set()
        for term in query:
            root |= network.people_with_skill(term)
        if not root:
            return out
        base = set(root)
        for p in root:
            base |= network.neighbors(p)
        members = np.asarray(sorted(base), dtype=np.int64)
        m = members.size

        # Adjacency restricted to the base set, sliced sparse from the
        # cached global CSR (undirected -> symmetric submatrix).
        adj = network.adjacency_csr()[members][:, members]
        authority = self._authority_scores(adj, m)

        match = np.zeros(m)
        for i, p in enumerate(members):
            match[i] = len(network.skills(int(p)) & query) / len(query)
        out[members] = authority + self.match_bonus * match
        return out

    def _authority_scores(self, adj, m: int) -> np.ndarray:
        """Normalized hub/authority iteration over a (sparse) base-set
        adjacency — shared by the plain path and the delta session; the
        kernel lives on the active numeric backend."""
        return get_backend().authority_iteration(
            adj, m, max_iterations=self.max_iterations, tolerance=self.tolerance
        )
