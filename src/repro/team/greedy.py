"""Build-around-the-main-member team formation (Hao et al. [23] style).

The method the paper explains in §4.3: "requires the user to input an
expert as the main team member, and constructs a team around the main
member until all the query terms are covered."

Growth is greedy over the frontier of the current team (collaborators of
current members, so the team stays connected):  each step admits the
frontier candidate covering the most still-uncovered query terms, breaking
ties by the associated ranker's score for the query, then by id.  If no
frontier candidate covers anything new, the frontier is widened by the best
connector (highest ranker score adjacent to the team) — this models teams
that must recruit a broker to reach the missing skill — up to ``max_size``.

Every choice the greedy makes is pinned deterministic — seed selection by
(score desc, id asc), cover selection by (cover count desc, score desc,
id asc), connector selection by (score desc, id asc), NaN scores below
every other score — so two runs fed the same scores produce the same team
member-for-member.  That determinism is what lets
:class:`~repro.team.engine.CoverTeamDeltaSession` answer membership probes
from the cached base run whenever a perturbation provably cannot change any
of those comparisons.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.graph.perturbations import as_query
from repro.search.base import ExpertSearchSystem
from repro.team.base import Team, TeamFormationSystem


class CoverTeamFormer(TeamFormationSystem):
    """Greedy connected set-cover around a seed expert."""

    def __init__(
        self,
        ranker: ExpertSearchSystem,
        max_size: int = 8,
        max_connectors: int = 2,
    ) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.ranker = ranker
        self.max_size = max_size
        self.max_connectors = max_connectors

    def delta_session(self, base: CollaborationNetwork):
        """The team delta-formation session (see ``repro.team.engine``)."""
        from repro.team.engine import CoverTeamDeltaSession

        return CoverTeamDeltaSession(self, base)

    def form(
        self,
        query: Iterable[str],
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
    ) -> Team:
        query = as_query(query)
        if network.n_people == 0:
            return Team(frozenset(), None, frozenset(), frozenset(query))
        delta = self._try_delta_form(
            query, network, seed_member=seed_member, scores=scores
        )
        if delta is not None:
            return delta
        return self._form_impl(query, network, seed_member=seed_member, scores=scores)

    def _form_impl(
        self,
        query,
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
        witness: Optional[Set[int]] = None,
    ) -> Team:
        """The greedy run itself — shared verbatim by the plain path and
        the delta session's base/re-formation runs, so the two can never
        drift apart.

        Array-level: one ``(n_people, |q|)`` term table per run
        (:meth:`~repro.graph.network.CollaborationNetwork.term_incidence`,
        overlay flips applied O(Δ)), ``uncovered`` as a column mask, and
        the frontier kept incrementally as a person mask.  Each step
        gathers the frontier's rows once and takes the first entry of one
        ``np.lexsort`` on (cover count desc, score desc, id asc): the best
        cover, or — when it covers nothing — the best connector.  NaN
        scores rank below every other score at equal cover count, as in
        :meth:`_seed_choice`.

        ``witness``, when given, collects every person whose skills or
        score the run consulted (the seed, every frontier examined, and
        thus every member): the exact support set a perturbation must miss
        for the cached base team to stay valid.
        """
        if scores is None:
            scores = self.ranker.scores(query, network)
        scores = np.asarray(scores, dtype=np.float64)
        n = network.n_people
        if seed_member is None:
            seed_member = self._seed_choice(scores)
        elif not 0 <= seed_member < n:
            raise IndexError(f"person id {seed_member} out of range [0, {n})")

        terms = sorted(query)
        holds = network.term_incidence(terms)
        uncovered = ~holds[seed_member]
        build_order: List[int] = [seed_member]
        in_team = np.zeros(n, dtype=bool)
        frontier = np.zeros(n, dtype=bool)
        person = seed_member
        connectors_used = 0
        if witness is not None:
            witness.add(seed_member)

        while uncovered.any() and len(build_order) < self.max_size:
            # The newest member joins the team, their neighbours the frontier.
            in_team[person] = True
            frontier[person] = False
            nbrs = np.fromiter(network.neighbors(person), dtype=np.intp)
            frontier[nbrs[~in_team[nbrs]]] = True
            candidates = frontier.nonzero()[0]
            if witness is not None:
                witness.update(candidates.tolist())
            if not candidates.size:
                break
            counts = (holds[candidates] & uncovered).sum(axis=1)
            best = np.lexsort((candidates, -scores[candidates], -counts))[0]
            if not counts[best]:
                # Nobody adjacent covers anything: recruit the best
                # connector to open a new part of the graph (bounded, to
                # avoid flooding).
                if connectors_used >= self.max_connectors:
                    break
                connectors_used += 1
            person = int(candidates[best])
            build_order.append(person)
            uncovered &= ~holds[person]

        return Team(
            members=frozenset(build_order),
            seed=seed_member,
            covered_terms=frozenset(t for t, u in zip(terms, uncovered) if not u),
            uncovered_terms=frozenset(t for t, u in zip(terms, uncovered) if u),
            build_order=tuple(build_order),
        )

    @staticmethod
    def _seed_choice(scores: np.ndarray) -> int:
        """The auto-selected main member: score descending, id ascending —
        one rule shared by the greedy run and the delta session's seed
        re-derivation check, so the two can never drift."""
        return int(np.lexsort((np.arange(len(scores)), -scores))[0])
