"""Decision targets: the binary classifications ExES explains.

Expert search contributes C_pi(q, G) = [rank <= k]; team formation
contributes M_pi(q, G) = [p_i in F(q, G)] (paper §3.1 and §3.5).  Both are
wrapped behind one protocol so every explainer works unchanged for either
problem.  ``decide_with_order`` additionally returns the beam-search
ordering hint of Algorithm 1 (line 11's newRank) from the same system pass.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from repro.graph.network import CollaborationNetwork
from repro.search.base import ExpertSearchSystem, RankedResults
from repro.team.base import TeamFormationSystem


@lru_cache(maxsize=None)
def _form_accepts_scores(former_type: type) -> bool:
    """Does this former's ``form`` take the precomputed ``scores=`` hook?
    Checked once per type — not per probe, and not via exception control
    flow (which would mask genuine TypeErrors inside ``form``)."""
    try:
        params = inspect.signature(former_type.form).parameters
    except (TypeError, ValueError):
        return False
    return "scores" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


class DecisionTarget(abc.ABC):
    """A binary decision about one individual, probeable under perturbation."""

    @abc.abstractmethod
    def decide(
        self, person: int, query: Iterable[str], network: CollaborationNetwork
    ) -> bool:
        """The binary label (relevance or membership)."""

    @abc.abstractmethod
    def decide_with_order(
        self, person: int, query: Iterable[str], network: CollaborationNetwork
    ) -> Tuple[bool, float]:
        """(label, ordering key) — lower ordering key means closer to the
        top of the ranking; beam search sorts candidate states with it."""

    def decide_with_order_scored(
        self,
        person: int,
        query: Iterable[str],
        network: CollaborationNetwork,
        scores,
    ) -> Tuple[bool, float]:
        """:meth:`decide_with_order` with the ranker's score vector for
        this exact (query, network) state already in hand — the batched
        probe path (``ProbeEngine.probe_batch``) scores a whole group of
        overlays in one forward and decides each through here.  The
        default ignores the hint and re-derives everything."""
        return self.decide_with_order(person, query, network)

    def memo_survives(self, delta, query) -> bool:
        """Are this target's decisions for ``query`` provably unchanged by
        the committed ``delta``, under any probe flip set?  Asked of the
        system that decides; the default retains nothing."""
        return False

    @property
    @abc.abstractmethod
    def ranker(self) -> ExpertSearchSystem:
        """The underlying score-producing system (used by pruning rules)."""


@dataclass(frozen=True)
class RelevanceTarget(DecisionTarget):
    """C_pi(q, G): is the individual ranked inside the top-k?"""

    system: ExpertSearchSystem
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def decide(self, person, query, network) -> bool:
        return self.system.evaluate(query, network).is_relevant(person, self.k)

    def decide_with_order(self, person, query, network) -> Tuple[bool, float]:
        return self._decide(person, self.system.evaluate(query, network))

    def decide_with_order_scored(self, person, query, network, scores):
        return self._decide(person, RankedResults.from_scores(scores))

    def _decide(self, person, results) -> Tuple[bool, float]:
        # One body for the sequential and batched probe paths — they must
        # never drift apart.
        rank = results.rank_of(person)
        return (rank <= self.k, float(rank))

    def memo_survives(self, delta, query) -> bool:
        return self.system.memo_survives(delta, query)

    @property
    def ranker(self) -> ExpertSearchSystem:
        return self.system


@dataclass(frozen=True)
class MembershipTarget(DecisionTarget):
    """M_pi(q, G): is the individual on the formed team?

    ``seed_member`` pins the team's main member (the Hao et al. former
    requires one); when the seed itself is the person being explained,
    membership is trivially true, so explain other members/non-members.
    The ordering hint comes from the former's underlying ranker, mirroring
    §3.5's substitution of T_ranking by T_teamFormation.
    """

    former: TeamFormationSystem
    seed_member: Optional[int] = None

    def decide(self, person, query, network) -> bool:
        return person in self.former.form(query, network, seed_member=self.seed_member)

    def decide_with_order(self, person, query, network) -> Tuple[bool, float]:
        # Single system pass per probe: the ranking that orders the beam and
        # the scores the former consumes come from one evaluate() call
        # (previously this ran team formation AND a second full ranking).
        return self._decide(person, query, network, self.ranker.evaluate(query, network))

    def decide_with_order_scored(self, person, query, network, scores):
        return self._decide(person, query, network, RankedResults.from_scores(scores))

    def _decide(self, person, query, network, results) -> Tuple[bool, float]:
        # One body for the sequential and batched probe paths — they must
        # never drift apart.
        if _form_accepts_scores(type(self.former)):
            team = self.former.form(
                query, network, seed_member=self.seed_member, scores=results.scores
            )
        else:  # former predates the scores= hook
            team = self.former.form(query, network, seed_member=self.seed_member)
        return (person in team, float(results.rank_of(person)))

    def memo_survives(self, delta, query) -> bool:
        return self.former.memo_survives(delta, query)

    @property
    def ranker(self) -> ExpertSearchSystem:
        ranker = getattr(self.former, "ranker", None)
        if ranker is None:
            raise AttributeError(
                f"{self.former.name} exposes no .ranker; MembershipTarget needs "
                "one for beam ordering and candidate pruning"
            )
        return ranker
