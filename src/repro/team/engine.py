"""The team-formation delta layer: membership probes without re-formation.

ExES's team-formation targets (``M_pi(q, G) = [p_i in F(q, G)]``, paper
§3.5) are the most expensive decisions to probe: the seed implementation
re-ran greedy formation from scratch — on a fully materialized network,
behind a full ranker rebuild — for every single perturbed probe.  PR 1–2
made the *scoring* half incremental for all four rankers; this module makes
the *formation* half incremental too.

:class:`TeamDeltaSession` is the per-(former, frozen base network)
protocol, the team-side sibling of
:class:`~repro.search.engine.DeltaSession`.  Formers open sessions through
:meth:`~repro.team.base.TeamFormationSystem.delta_session`; dispatch
happens inside ``form`` so overlays are delta-formed wherever they appear —
``MembershipTarget`` probes, SHAP value functions, beam search, and
anything routed through ``ExES.probe_engine(team=True)``.

:class:`CoverTeamDeltaSession` serves :class:`~repro.team.greedy
.CoverTeamFormer` probes in two tiers:

* **cached-team fast path** — the base run is traced once per (query,
  seed) with its *witness set*: the seed, every frontier examined, and all
  members — exactly the people whose skills, edges, or scores the greedy
  consulted.  A probe whose flips provably miss that support (no
  query-term skill flip on a witness, no edge flip incident to a member,
  witness scores bit-identical, and the auto-selected seed re-deriving
  unchanged) is answered with the cached base team in O(Δ + |witness|),
  with zero formation work;
* **delta re-formation** — any other probe re-runs the same greedy core
  (:meth:`CoverTeamFormer._form_impl`) directly on the overlay with
  delta-session ranker scores: still no ``materialize()``, just the
  array-level greedy over one term table built O(Δ) past the base's.

How often tier 1 fires depends on the ranker.  The witness-score check is
*bit-exact* (anything looser could fast-path past a tie the re-formed run
would break differently), so rankers whose scores only move with
query-term coverage (coverage, TF-IDF) fast-path every structurally-far
flip, while the GCN — whose scores shift for everyone within two hops of
any flip — almost always re-forms (the benchmark's team row records the
split as ``cached_run_fast_hits`` / ``overlay_reforms``).  The headline
team speedup therefore comes from tier 2: delta scoring plus
materialization-free re-formation.

Contract: the session's team equals from-scratch formation on the
materialized overlay *member for member* (not merely score-parity) — the
fuzz suite (``tests/search/test_parity_fuzz.py``) pins it across randomized
perturbation chains, and ``tests/team/test_team_engine.py`` pins the
deterministic tie-break order that makes the equality exact.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query
from repro.runtime import check_budget, fault_point
from repro.search.engine import _MAX_QUERY_CACHE, _LruCache
from repro.team.base import Team


class TeamDeltaSession(abc.ABC):
    """Per-(former, frozen base network) delta-formation cache.

    Opened once per base-network version through the former's
    :meth:`~repro.team.base.TeamFormationSystem.delta_session` factory,
    then serves every overlay over that base.  ``form(query, overlay)``
    must return the same team as the former's plain path on the
    materialized overlay — the exact-team parity contract.
    """

    #: Cache attributes :meth:`warm_state` snapshots for spill/restore.
    _SPILL_CACHES = ()

    def __init__(self, former, base: CollaborationNetwork) -> None:
        self.former = former
        self.base = base
        self.base_version = base.version

    def valid_for(self, base: CollaborationNetwork) -> bool:
        """Is this session still usable for ``base``?  False once the base
        mutates (version drift)."""
        return base is self.base and base.version == self.base_version

    def rebase(self, delta) -> bool:
        """Carry this session across a committed base edit, re-tracing
        only invalidated runs.  Returns False to decline (→ the caller
        drops the session); the default declines."""
        return False

    def warm_state(self):
        """``{attr: [(key, value), ...]}`` snapshot of the caches named in
        ``_SPILL_CACHES`` — the registry spill payload."""
        return {
            name: getattr(self, name).items() for name in self._SPILL_CACHES
        }

    def load_warm_state(self, state) -> None:
        for name in self._SPILL_CACHES:
            cache = getattr(self, name)
            for key, value in state.get(name, []):
                cache.put(key, value)

    @abc.abstractmethod
    def form(
        self,
        query: Query,
        overlay: NetworkOverlay,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
    ) -> Team:
        """The team for the overlaid network — never through
        ``overlay.materialize()``."""


@dataclass(frozen=True)
class _BaseRun:
    """One traced base-network formation run."""

    team: Team
    witness: FrozenSet[int]  # everyone whose skills/scores the run consulted
    witness_idx: np.ndarray  # the same ids as a sorted index array
    base_scores: np.ndarray  # the ranker scores the run was fed


class CoverTeamDeltaSession(TeamDeltaSession):
    """O(Δ) membership probes for :class:`~repro.team.greedy.CoverTeamFormer`.

    ``fast_hits`` / ``reforms`` count how many probes were answered from
    the cached base team vs. re-formed on the overlay (observability for
    tests and the benchmark).
    """

    def __init__(self, former, base: CollaborationNetwork) -> None:
        super().__init__(former, base)
        # (query, seed_member) -> _BaseRun
        self._run_cache = _LruCache(_MAX_QUERY_CACHE)
        self.fast_hits = 0
        self.reforms = 0

    _SPILL_CACHES = ("_run_cache",)

    # ------------------------------------------------------------------
    # base-commit rebasing
    # ------------------------------------------------------------------
    def rebase(self, delta) -> bool:
        """Keep every traced run whose witness set provably misses the
        committed edit; invalidated runs are simply dropped and re-traced
        on their next probe.

        A run survives when (a) the ranker's delta session certifies the
        committed flips cannot move any score for the run's query
        (:meth:`~repro.search.engine.DeltaSession.memo_survives` — which
        also pins the auto-seed choice, since it reads only scores), (b)
        no committed query-term skill flip lands on a witness, and (c) no
        committed edge flip is incident to a member — exactly the reads
        :meth:`_run_unaffected` enumerates, applied to the commit instead
        of a probe overlay."""
        if (
            self.base.version != delta.new_version
            or self.base_version != delta.old_version
        ):
            return False
        if delta.is_empty:
            self.base_version = delta.new_version
            return True
        try:
            rsession = self.former.ranker._session_for(self.base)
        except AttributeError:
            rsession = None
        for key in self._run_cache.keys():
            query, _seed = key
            run = self._run_cache.get(key)
            if run is None:
                continue
            if (
                rsession is None
                or rsession.base_version != delta.new_version
                or not rsession.memo_survives(delta, query)
            ):
                self._run_cache.pop(key)
                continue
            survives = True
            for p, s, _added in delta.skill_flips:
                if s in query and p in run.witness:
                    survives = False
                    break
            if survives:
                members = run.team.members
                for u, v, _added in delta.edge_flips:
                    if u in members or v in members:
                        survives = False
                        break
            if not survives:
                self._run_cache.pop(key)
        self.base_version = delta.new_version
        return True

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def form(
        self,
        query: Query,
        overlay: NetworkOverlay,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
    ) -> Team:
        check_budget()
        fault_point(
            "team.form",
            key=(tuple(sorted(query)), seed_member),
            engine=self,
        )
        if scores is None:
            # Delta-scored through the ranker's own session (overlay input).
            scores = self.former.ranker.scores(query, overlay)
        scores = np.asarray(scores, dtype=np.float64)
        run = self._base_run(query, seed_member)
        if self._run_unaffected(run, query, overlay, scores, seed_member):
            self.fast_hits += 1
            return run.team
        self.reforms += 1
        return self.former._form_impl(
            query, overlay, seed_member=seed_member, scores=scores
        )

    def warm(self, query: Query, seed_member: Optional[int] = None) -> Team:
        """Trace (or revisit) the base run for ``(query, seed_member)`` and
        return its team.  The explanation service warms membership shards
        through this before probing, and — because the session itself lives
        in the ``EngineRegistry`` — the traced run stays warm for every
        facade and request that shares the former, not just the engine that
        first probed it."""
        return self._base_run(query, seed_member).team

    def _base_run(self, query: Query, seed_member: Optional[int]) -> _BaseRun:
        key = (query, seed_member)
        run = self._run_cache.get(key)
        if run is None:
            base_scores = np.asarray(
                self.former.ranker.scores(query, self.base), dtype=np.float64
            )
            witness: set = set()
            team = self.former._form_impl(
                query,
                self.base,
                seed_member=seed_member,
                scores=base_scores,
                witness=witness,
            )
            run = _BaseRun(
                team=team,
                witness=frozenset(witness),
                witness_idx=np.fromiter(sorted(witness), dtype=np.int64),
                base_scores=base_scores,
            )
            self._run_cache.put(key, run)
        return run

    def _run_unaffected(
        self,
        run: _BaseRun,
        query: Query,
        overlay: NetworkOverlay,
        scores: np.ndarray,
        seed_member: Optional[int],
    ) -> bool:
        """Can no flip in ``overlay`` change any comparison the base run
        made?  Every check is conservative: a False answer merely re-forms.

        The greedy's choices depend on exactly (a) ``skills(p) ∩ query``
        for the seed, every frontier person, and the final members (its
        term table's other rows are never compared), (b) ``neighbors(m)``
        for members, and (c) ``scores[p]`` for the seed choice and every
        frontier person.  So the cached team is reusable iff:
        """
        # (a) no query-term skill flip on a witness (non-query skills are
        #     never read by the greedy; their score effect is check (c)).
        for (p, s), _added in overlay.skill_flips().items():
            if s in query and p in run.witness:
                return False
        # (b) no edge flip incident to a member (only members' neighbor
        #     sets are read, when frontiers are built).
        members = run.team.members
        for (u, v), _added in overlay.edge_flips().items():
            if u in members or v in members:
                return False
        # (c) every consulted score bit-identical — exact equality, so the
        #     fast path can never flip a tie the re-formed run would break
        #     differently.
        if run.witness_idx.size and not np.array_equal(
            scores[run.witness_idx], run.base_scores[run.witness_idx]
        ):
            return False
        # (d) an auto-selected seed must re-derive to the same person under
        #     the probe's scores (seed choice reads *all* scores).
        if seed_member is None and self.former._seed_choice(scores) != run.team.seed:
            return False
        return True
