"""The team-formation interface ExES probes.

``F(q, G)`` returns a team; the binary label ExES explains is membership
``M_pi(q, G) = [p_i ∈ F(q, G)]`` (paper §3.5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query
from repro.runtime import delta_bypassed


@dataclass(frozen=True)
class Team:
    """A formed team: members, the seed it grew from, and coverage info."""

    members: FrozenSet[int]
    seed: Optional[int]
    covered_terms: FrozenSet[str]
    uncovered_terms: FrozenSet[str]
    build_order: Tuple[int, ...] = field(default=())

    def __contains__(self, person: int) -> bool:
        return person in self.members

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def covers_query(self) -> bool:
        return not self.uncovered_terms


class TeamFormationSystem(abc.ABC):
    """Base class for team formers.

    Formers with a delta path additionally override :meth:`delta_session`;
    :meth:`_try_delta_form` then routes :class:`NetworkOverlay` inputs
    through the cached :class:`~repro.team.engine.TeamDeltaSession` —
    mirroring how :class:`~repro.search.base.ExpertSearchSystem` dispatches
    overlay scoring through its ``DeltaSession`` — so membership probes
    never pay ``materialize()`` on the hot path.  ``full_rebuild = True``
    is the escape hatch: overlays then take the plain formation path (the
    parity reference and the engine-off benchmark mode).
    """

    # Escape hatch: True skips the delta session even for overlay inputs.
    full_rebuild: bool = False

    # Optional registry hook (see ``repro.service.registry``): when an
    # EngineRegistry is installed here, it owns the former's delta
    # sessions, so one ``TeamDeltaSession`` — with its traced base runs —
    # is shared across probe engines and facade instances.
    _session_store = None

    def delta_session(self, base: CollaborationNetwork):
        """Factory for this former's delta-formation session over a frozen
        ``base`` network; None when the former has no delta path."""
        return None

    def memo_survives(self, delta, query: Query) -> bool:
        """Are this former's teams for ``query`` provably unchanged by the
        committed ``delta``, under any probe flip set?  Decides which
        membership decisions cross a commit; the default retains
        nothing."""
        return False

    def _session_for(self, base: CollaborationNetwork):
        """The cached delta session for ``base``, rebuilt on version drift.

        With a registry installed, the lookup is delegated there: traced
        base formation runs live in the registry-owned session and are
        warm for every facade that shares the former."""
        store = self._session_store
        if store is not None:
            return store.team_session(self, base)
        session = getattr(self, "_session", None)
        if session is None or not session.valid_for(base):
            session = self.delta_session(base)
            self._session = session
        return session

    def _try_delta_form(
        self,
        query: Query,
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores=None,
    ) -> Optional["Team"]:
        """Delta-formed overlay result, or None when the plain path must
        run (non-overlay input, ``full_rebuild`` set, the current thread's
        :func:`~repro.runtime.delta_bypass` scope, or no delta path)."""
        if (
            self.full_rebuild
            or delta_bypassed()
            or not isinstance(network, NetworkOverlay)
        ):
            return None
        session = self._session_for(network.base)
        if session is None:
            return None
        return session.form(query, network, seed_member=seed_member, scores=scores)

    @abc.abstractmethod
    def form(
        self,
        query: Iterable[str],
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores=None,
    ) -> Team:
        """Form a team for ``query``; ``seed_member`` pins the main member.

        ``scores`` optionally carries a precomputed per-person relevance
        array from the former's associated ranker, so callers that already
        ranked the query (e.g. ``MembershipTarget.decide_with_order``) don't
        pay a second scoring pass.  Formers without a ranker ignore it.
        """

    @property
    def name(self) -> str:
        return type(self).__name__

    def membership(
        self,
        person: int,
        query: Iterable[str],
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
    ) -> bool:
        """M_pi(q, G): is ``person`` on the formed team?"""
        return person in self.form(query, network, seed_member=seed_member)
