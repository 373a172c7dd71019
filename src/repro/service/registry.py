"""The shared engine registry: bounded, cross-facade ownership of every
probe cache in the stack.

Before the service layer, each ``ExES`` facade kept its own unbounded
``_engines`` dict — one :class:`~repro.search.engine.ProbeEngine` per
``(team, seed_member)`` target, leaked for the facade's lifetime, invisible
to every other facade — and each ranker/former cached exactly one delta
session in a private slot, thrashing whenever two base networks alternated.

:class:`EngineRegistry` inverts that ownership.  It owns

* **probe engines**, keyed ``(base network, base version, target)`` —
  so a facade explaining the same target twice, or *two facades* wrapping
  the same deployed system, share one engine and its two-level probe memo;
* **search delta sessions**, keyed ``(ranker, base, base version)`` — the
  per-flip-set patch caches, solved-subproblem memos, and cached base
  forwards inside a session outlive any single engine (but not a base
  commit, which drops them: see :meth:`EngineRegistry.rebase`);
* **team delta sessions**, keyed ``(former, base, base version)`` — traced
  base formation runs (the expensive part of membership probing) stay warm
  across targets, queries, and facades, until the next commit;
* **shared score memos**, keyed ``(ranker, base, base version)`` — the
  score-vector level of the probe memo is person- *and* target-
  independent, so the registry injects one memo into every engine over
  the same ranker+base: a forward computed under the relevance target
  serves membership probes of the same ``(query, flips)`` state, across
  every team seed.

All four stores are bounded LRUs (:class:`~repro.search.engine._LruCache`)
— at capacity the least-recently-used entry is dropped, so a service
explaining against many networks or seed members can never grow without
bound (the defect the ``ExES._engines`` dict had).

Keys carry ``id()``s of live objects, so every hit is verified by identity
(``engine.base is network``, ``session.valid_for(base)``) before being
served: a recycled ``id`` after garbage collection can alias a key but can
never alias the identity check, it just forces a rebuild.

The registry is thread-safe (one re-entrant lock around get-or-create);
the engines it hands out are **not** — ``ExplanationService.explain_many``
keeps each engine on a single shard thread, while the sessions below them
are safely shared through :class:`_LruCache`'s internal locking (shards
and the server's dispatch threads may probe one session at once).  Every
probe flush is a direct call on its engine's session; nothing merges
flushes across engines or requests.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.explain.targets import MembershipTarget, RelevanceTarget
from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.search.engine import (
    _MAX_SCORE_MEMO,
    ProbeEngine,
    _LruCache,
    _rekey_memo_entries,
)

#: Default bound on engines / sessions kept per registry.  Engines hold
#: score-vector memos (n floats each) so this is a real memory knob.
DEFAULT_CAPACITY = 32

def _target_key(target) -> Tuple:
    """A hashable identity for the decision target: which system is being
    probed and under which decision parameters."""
    if isinstance(target, RelevanceTarget):
        return ("relevance", id(target.system), target.k)
    if isinstance(target, MembershipTarget):
        return ("membership", id(target.former), target.seed_member)
    return ("target", type(target).__name__, id(target))


class EngineRegistry:
    """Bounded LRU ownership of probe engines and delta sessions.

    Sessions are bound to one base version; on a commit :meth:`rebase`
    drops them and carries only the engines and their memoized answers
    across."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._engines = _LruCache(capacity)
        self._search_sessions = _LruCache(capacity)
        self._team_sessions = _LruCache(capacity)
        # (ranker, base, version) -> the shared score-vector memo injected
        # into every engine probing that pair.  Score vectors are person-
        # AND target-independent, so a vector computed under the relevance
        # target serves a membership probe of the same (query, flips)
        # state — and vice versa — across every team seed.
        self._score_memos = _LruCache(capacity)
        self._lock = threading.RLock()
        self.engine_builds = 0  # observability: cache-miss constructions
        self.session_builds = 0
        self.restored_sessions = 0  # warm states loaded from a spill file
        self.restored_memo_entries = 0

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def engine(self, target, network: CollaborationNetwork) -> ProbeEngine:
        """The shared probe engine for ``(target, network)``, built on the
        first request and reused — across explainers, requests, and facade
        instances — until LRU-evicted or the network's version drifts."""
        if isinstance(network, NetworkOverlay):
            # Engines bind to the overlay's base (probe flip sets are keyed
            # against it); key the same way or every overlay request would
            # look like a distinct network.
            network = network.base
        key = (id(network), network.version, _target_key(target))
        with self._lock:
            engine = self._engines.get(key)
            if (
                engine is None
                or engine.base is not network
                or engine.base_version != network.version
            ):
                ranker = getattr(target, "ranker", None)
                memo = None if ranker is None else self._score_memo_for(ranker, network)
                engine = ProbeEngine(target, network, score_memo=memo)
                self._engines.put(key, engine)
                self.engine_builds += 1
            return engine

    def _score_memo_for(self, ranker, network: CollaborationNetwork) -> _LruCache:
        """The shared (ranker, base, version) score memo, created on first
        use — by engines for targets with a ranker (engines for rankerless
        targets keep a private memo) and by the spill restore.  The stored
        (ranker, network) references double as the identity check: a
        recycled ``id`` after garbage collection may alias the key but
        never the ``is`` comparison, so a stale memo is replaced instead
        of served."""
        key = (id(ranker), id(network), network.version)
        hit = self._score_memos.get(key)
        if hit is not None and hit[0] is ranker and hit[1] is network:
            return hit[2]
        memo = _LruCache(_MAX_SCORE_MEMO)
        self._score_memos.put(key, (ranker, network, memo))
        return memo

    def drop_network(self, network: CollaborationNetwork) -> int:
        """Evict every engine and session bound to ``network`` (any
        version).  ``ExES.set_full_rebuild`` routes through here: an
        engine-off measurement must not be answered from a delta-path
        memo populated while the engine was on."""
        dropped = 0
        with self._lock:
            for key in self._engines.keys():  # (net id, version, target)
                if key[0] == id(network):
                    self._engines.pop(key)
                    dropped += 1
            for store in (
                self._search_sessions, self._team_sessions, self._score_memos
            ):
                for key in store.keys():  # (system id, base id, version)
                    if key[1] == id(network):
                        store.pop(key)
                        dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # base commits
    # ------------------------------------------------------------------
    def rebase(self, network: CollaborationNetwork, delta) -> Dict[str, int]:
        """Carry the engines and shared score memos bound to ``network``
        across a committed :class:`BaseDelta` instead of cold-starting
        them on the version bump.

        Delta sessions do not cross a commit: every search and team
        session bound to the old version is dropped, and the next probe
        builds a fresh one over the committed base, so post-commit scores
        are bit-identical to a from-scratch rebuild.  What crosses is
        memoized answers: each shared score memo keeps the entries its
        ranker's ``memo_survives(delta, query)`` certifies, then every
        engine re-keys its decision memo through its target's predicate
        (:meth:`~repro.search.engine.ProbeEngine.rekey`; its own pass over
        the already-processed shared memo is idempotent).  Returns the
        retention statistics."""
        stats = {
            "dropped_sessions": 0,
            "rebased_engines": 0,
            "dropped_engines": 0,
            "retained_memo_entries": 0,
            "dropped_memo_entries": 0,
        }
        if delta.is_empty:
            return stats
        nid = id(network)
        with self._lock:
            for store in (self._search_sessions, self._team_sessions):
                for key in store.keys():  # (system id, base id, version)
                    if key[1] == nid and key[2] == delta.old_version:
                        store.pop(key)
                        stats["dropped_sessions"] += 1
            for key in self._score_memos.keys():
                rid, bid, version = key
                if bid != nid or version != delta.old_version:
                    continue
                hit = self._score_memos.get(key)
                self._score_memos.pop(key)
                if hit is None:
                    continue
                ranker, net, memo = hit
                if net is not network:
                    continue
                retained, dropped = _rekey_memo_entries(
                    memo, delta, ranker.memo_survives
                )
                stats["retained_memo_entries"] += retained
                stats["dropped_memo_entries"] += dropped
                self._score_memos.put(
                    (rid, bid, delta.new_version), (ranker, network, memo)
                )
            for key in self._engines.keys():
                enet, version, tkey = key
                if enet != nid or version != delta.old_version:
                    continue
                engine = self._engines.get(key)
                self._engines.pop(key)
                if engine is None or engine.base is not network:
                    continue
                try:
                    retained, dropped = engine.rekey(delta)
                except ValueError:
                    stats["dropped_engines"] += 1
                    continue
                stats["retained_memo_entries"] += retained
                stats["dropped_memo_entries"] += dropped
                self._engines.put((nid, delta.new_version, tkey), engine)
                stats["rebased_engines"] += 1
        return stats

    # ------------------------------------------------------------------
    # warm-state spill/restore
    # ------------------------------------------------------------------
    def spill(self, path, network: CollaborationNetwork, systems) -> Dict[str, int]:
        """Serialize the warm sessions and shared score memos bound to
        ``(network, systems)`` to ``path`` — see
        :mod:`repro.service.persistence` for the file format."""
        from repro.service.persistence import spill_registry

        return spill_registry(path, self, network, systems)

    def restore(self, path, network: CollaborationNetwork, systems) -> Dict[str, int]:
        """Reload a spill file into this registry so the first request
        after a restart probes against warm caches instead of
        cold-starting; silently restores nothing when the file does not
        bind to this exact network structure or numeric backend."""
        from repro.service.persistence import restore_registry

        return restore_registry(path, self, network, systems)

    # ------------------------------------------------------------------
    # sessions (the ranker/former ``_session_store`` hook)
    # ------------------------------------------------------------------
    def search_session(self, ranker, base: CollaborationNetwork):
        """The ranker's delta session over ``base`` — registry-owned, so
        its patch caches are shared by every engine probing this pair."""
        return self._session(self._search_sessions, ranker, base)

    def team_session(self, former, base: CollaborationNetwork):
        """The former's team delta session over ``base`` — registry-owned,
        so traced base runs warm-start across engines and facades."""
        return self._session(self._team_sessions, former, base)

    def _session(self, store: _LruCache, system, base: CollaborationNetwork):
        key = (id(system), id(base), base.version)
        with self._lock:
            session = store.get(key)
            if session is None or not session.valid_for(base):
                session = system.delta_session(base)
                store.put(key, session)
                self.session_builds += 1
            return session

    def install(self, *systems) -> "EngineRegistry":
        """Point each system's ``_session_store`` hook at this registry
        (rankers and formers alike; ``None`` entries are skipped)."""
        for system in systems:
            if system is not None:
                system._session_store = self
        return self

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def flush_counters(self) -> Dict[str, int]:
        """Aggregate flush observability across every live engine: how
        many multi-query and batched flushes ran, and how many probe
        states flowed through them."""
        out = {"multi_flushes": 0, "batch_flushes": 0, "flushed_probes": 0}
        for engine in self._engines.values():
            out["multi_flushes"] += engine.multi_flushes
            out["batch_flushes"] += engine.batch_flushes
            out["flushed_probes"] += engine.flushed_probes
        return out

    @property
    def n_engines(self) -> int:
        return len(self._engines)

    @property
    def n_sessions(self) -> int:
        return len(self._search_sessions) + len(self._team_sessions)

    def clear(self) -> None:
        with self._lock:
            self._engines.clear()
            self._search_sessions.clear()
            self._team_sessions.clear()
            self._score_memos.clear()

    def __repr__(self) -> str:
        return (
            f"EngineRegistry(engines={self.n_engines}, "
            f"sessions={self.n_sessions}, "
            f"capacity={self._engines.capacity})"
        )


_default_registry: Optional[EngineRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> EngineRegistry:
    """The process-wide shared registry: facades built without an explicit
    registry all land here, so engines and sessions are reused across
    facade instances — the Figure-2 deployment shape, where one long-lived
    service answers every explanation request."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = EngineRegistry()
        return _default_registry
