"""The incremental probe engine: exact parity, cache invalidation, memo.

The engine's contract (ISSUE 1, extended to every ranker in ISSUE 2) is
that incremental scores match full-rebuild scores to 1e-9 on arbitrary
perturbation sequences — for the GCN ranker and the PageRank/HITS/TF-IDF
baselines alike — that its caches are version-stamped against base-network
mutation and evict LRU-style (no cold-cache cliff), and that probe
memoization is observable through ``CounterfactualExplanation.n_probes``.
"""

import numpy as np
import pytest

from repro.datasets import toy_network
from repro.explain import BeamConfig, RelevanceTarget, beam_search_counterfactuals
from repro.explain.candidates import link_removal_candidates
from repro.graph import NetworkOverlay
from repro.graph.perturbations import (
    AddEdge,
    AddSkill,
    RemoveEdge,
    RemoveSkill,
    apply_perturbations,
)
from repro.search import (
    DocumentExpertRanker,
    GcnDeltaSession,
    HitsExpertRanker,
    PageRankExpertRanker,
    ProbeEngine,
)


def _random_perturbations(net, rng, n):
    """A mixed, applicable skill/edge flip sequence against ``net``."""
    skills = sorted(net.skill_universe())
    edges = sorted(net.edges())
    perts = []
    state = NetworkOverlay(net)
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            p = int(rng.integers(0, net.n_people))
            s = skills[int(rng.integers(0, len(skills)))]
            pert = AddSkill(p, s) if not state.has_skill(p, s) else RemoveSkill(p, s)
        elif kind == 1:
            p = int(rng.integers(0, net.n_people))
            own = sorted(state.skills(p))
            if not own:
                continue
            pert = RemoveSkill(p, own[int(rng.integers(0, len(own)))])
        elif kind == 2:
            u, v = edges[int(rng.integers(0, len(edges)))]
            if not state.has_edge(u, v):
                continue
            pert = RemoveEdge(u, v)
        else:
            u = int(rng.integers(0, net.n_people))
            v = int(rng.integers(0, net.n_people))
            if u == v or state.has_edge(u, v):
                continue
            pert = AddEdge(u, v)
        pert.apply(state, frozenset())
        perts.append(pert)
    return perts


class TestDeltaScoringParity:
    """Engine scores == full-rebuild scores to 1e-9 (the exact-parity
    contract), across random mixed skill/edge perturbation sequences."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences(self, small_gcn_ranker, small_dataset, small_query, seed):
        net = small_dataset.network
        rng = np.random.default_rng(seed)
        perts = _random_perturbations(net, rng, int(rng.integers(1, 6)))
        if not perts:
            pytest.skip("degenerate draw")
        query = frozenset(small_query)
        overlay, q2 = apply_perturbations(net, query, perts)
        assert isinstance(overlay, NetworkOverlay)
        fast = small_gcn_ranker.scores(q2, overlay)
        rebuilt, q3 = apply_perturbations(net, query, perts, full_rebuild=True)
        assert q3 == q2
        slow = small_gcn_ranker.scores(q3, rebuilt)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_skill_only_flips(self, small_gcn_ranker, small_dataset, small_query):
        net = small_dataset.network
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(
            net, small_query, [RemoveSkill(0, skill), AddSkill(3, "never-seen")]
        )
        fast = small_gcn_ranker.scores(q, overlay)
        slow = small_gcn_ranker.scores(q, overlay.materialize())
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_edge_only_flips(self, small_gcn_ranker, small_dataset, small_query):
        net = small_dataset.network
        u, v = sorted(net.edges())[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveEdge(u, v)])
        fast = small_gcn_ranker.scores(q, overlay)
        slow = small_gcn_ranker.scores(q, overlay.materialize())
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_all_skills_removed_stays_exact(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        """Removing every skill a person holds zeroes their centroid; the
        delta path must produce an *exact* zero row, not incremental
        subtraction residue amplified by the sim normalization (a repro of
        a confirmed ~1e-5 parity violation)."""
        net = small_dataset.network
        person = max(net.people(), key=lambda p: -len(net.skills(p)))
        perts = [RemoveSkill(person, s) for s in sorted(net.skills(person))]
        overlay, q = apply_perturbations(net, small_query, perts)
        fast = small_gcn_ranker.scores(q, overlay)
        rebuilt, _ = apply_perturbations(net, small_query, perts, full_rebuild=True)
        slow = small_gcn_ranker.scores(q, rebuilt)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_full_rebuild_escape_hatch(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        fast = small_gcn_ranker.scores(q, overlay)
        small_gcn_ranker.full_rebuild = True
        try:
            slow = small_gcn_ranker.scores(q, overlay)
        finally:
            small_gcn_ranker.full_rebuild = False
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)


class TestSessionInvalidation:
    """GcnDeltaSession and ProbeEngine caches are version-stamped."""

    def test_session_rebuilt_on_base_mutation(self, small_embedding, small_dataset):
        from repro.search import GcnExpertRanker, GcnRankerConfig

        net = small_dataset.network.copy()
        ranker = GcnExpertRanker(
            small_embedding, GcnRankerConfig(epochs=2, n_train_queries=4, seed=0)
        ).fit(net)
        query = frozenset(sorted(net.skill_universe())[:2])
        skill = sorted(net.skills(1))[0]
        overlay, q = apply_perturbations(net, query, [RemoveSkill(1, skill)])
        ranker.scores(q, overlay)
        first_session = ranker._session
        assert isinstance(first_session, GcnDeltaSession)
        assert first_session.valid_for(net)

        # Mutate the base: outstanding sessions must be invalidated and the
        # next overlay probe must rebuild against the new version.
        net.add_skill(2, "post-mutation-skill")
        assert not first_session.valid_for(net)
        overlay2, q2 = apply_perturbations(net, query, [AddSkill(0, "another")])
        fast = ranker.scores(q2, overlay2)
        slow = ranker.scores(q2, overlay2.materialize())
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)
        assert ranker._session is not first_session

    def test_stale_overlay_probe_raises(self, small_embedding, small_dataset):
        """An edge-only overlay whose base mutated must raise, not feed a
        corrupted adjacency delta into the GCN silently."""
        from repro.search import GcnExpertRanker, GcnRankerConfig

        net = small_dataset.network.copy()
        ranker = GcnExpertRanker(
            small_embedding, GcnRankerConfig(epochs=1, n_train_queries=2, seed=0)
        ).fit(net)
        query = frozenset(sorted(net.skill_universe())[:2])
        u, v = sorted(net.edges())[0]
        overlay, q = apply_perturbations(net, query, [RemoveEdge(u, v)])
        ranker.scores(q, overlay)  # fresh overlay: fine
        net.remove_edge(u, v)  # base drifts underneath the overlay
        with pytest.raises(RuntimeError, match="base network mutated"):
            ranker.scores(q, overlay)

    def test_engine_memo_cleared_on_base_mutation(self, small_dataset):
        from repro.search import CoverageExpertRanker

        net = small_dataset.network.copy()
        target = RelevanceTarget(CoverageExpertRanker(), k=5)
        engine = ProbeEngine(target, net)
        query = frozenset(sorted(net.skill_universe())[:2])
        engine.probe(0, query)
        engine.probe(0, query)
        assert (engine.hits, engine.misses) == (1, 1)
        net.add_skill(0, "memo-buster")
        engine.probe(0, query)  # stale memo must not answer this
        assert (engine.hits, engine.misses) == (1, 2)  # a miss, counters cumulative
        assert engine.base_version == net.version


class TestProbeMemoization:
    """Identical probe states are scored once; n_probes counts unique
    system evaluations."""

    @pytest.fixture
    def setup(self, small_dataset):
        from repro.search import CoverageExpertRanker

        net = small_dataset.network
        target = RelevanceTarget(CoverageExpertRanker(), k=5)
        query = sorted(net.skill_universe())[:3]
        return net, target, query

    def test_repeat_search_hits_memo(self, setup):
        net, target, query = setup
        engine = ProbeEngine(target, net)
        skill = sorted(net.skills(0))[0]
        candidates = [RemoveSkill(0, skill), AddSkill(1, "fresh-skill")]
        config = BeamConfig(beam_size=4, n_candidates=2, max_size=2)

        first = beam_search_counterfactuals(
            target, 0, query, net, candidates, config, "skill_removal", engine=engine
        )
        assert first.n_probes > 0
        assert engine.hits == 0  # fresh engine: nothing to hit yet

        second = beam_search_counterfactuals(
            target, 0, query, net, candidates, config, "skill_removal", engine=engine
        )
        assert engine.hits > 0
        assert second.n_probes == 0  # every probe answered from memory
        assert [c.perturbations for c in second.counterfactuals] == [
            c.perturbations for c in first.counterfactuals
        ]

    def test_link_removal_candidates_shared_with_beam(self, setup):
        net, target, query = setup
        engine = ProbeEngine(target, net)
        person = 0
        candidates, probes = link_removal_candidates(
            person, frozenset(query), net, target, t=4, radius=1, engine=engine
        )
        if not candidates:
            pytest.skip("no removable edges around this person")
        assert probes == engine.misses
        # Beam round one re-probes exactly these single-removal states:
        # with the shared engine they are all memo hits.
        hits_before = engine.hits
        beam_search_counterfactuals(
            target, person, query, net, candidates,
            BeamConfig(beam_size=4, n_candidates=4, max_size=1),
            "link_removal", engine=engine,
        )
        assert engine.hits >= hits_before + len(candidates)

    def test_unmemoized_engine_never_hits(self, setup):
        net, target, query = setup
        engine = ProbeEngine(target, net, memoize=False)
        engine.probe(0, query)
        engine.probe(0, query)
        assert engine.hits == 0
        assert engine.misses == 2

    def test_full_rebuild_engine_matches(self, setup):
        net, target, query = setup
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, query, [RemoveSkill(0, skill)])
        fast_engine = ProbeEngine(target, net)
        slow_engine = ProbeEngine(target, net, memoize=False, full_rebuild=True)
        assert fast_engine.probe(0, q, overlay) == slow_engine.probe(0, q, overlay)

    def test_foreign_network_not_memoized(self, setup):
        net, target, query = setup
        engine = ProbeEngine(target, net)
        other = net.copy()
        engine.probe(0, query, other)
        engine.probe(0, query, other)
        assert engine.hits == 0  # foreign base: served, but never cached

    def test_engine_binds_to_overlay_base(self, setup):
        """Explaining *on* a perturbed network (an overlay) must work:
        the engine binds to the overlay's base, and states derived from
        the overlay flatten onto that base with complete flip sets."""
        net, target, query = setup
        skill = sorted(net.skills(2))[0]
        overlay, q = apply_perturbations(net, query, [RemoveSkill(2, skill)])
        engine = ProbeEngine(target, overlay)
        assert engine.base is net
        assert engine.accepts(overlay)
        first = engine.probe(0, q, overlay)
        assert engine.probe(0, q, overlay) == first
        assert engine.hits == 1  # the overlay state itself is memoizable

    def test_explainer_accepts_overlay_network(self, setup, small_dataset):
        """End-to-end: beam search over a network that is itself an
        overlay (e.g. robustness probes on perturbed inputs)."""
        net, target, query = setup
        skill = sorted(net.skills(1))[0]
        overlay, q = apply_perturbations(net, query, [RemoveSkill(1, skill)])
        result = beam_search_counterfactuals(
            target, 0, q, overlay,
            [RemoveSkill(0, sorted(net.skills(0))[0])],
            BeamConfig(beam_size=2, n_candidates=1, max_size=1),
            "skill_removal",
        )
        assert result.n_probes >= 2


@pytest.fixture(params=["gcn", "pagerank", "hits", "tfidf"])
def any_ranker(request, small_gcn_ranker):
    """One instance of each delta-scoring ranker.  The GCN comes from the
    shared session fixture (training is expensive); the baselines are
    training-free and built fresh per test."""
    if request.param == "gcn":
        return small_gcn_ranker
    return {
        "pagerank": PageRankExpertRanker,
        "hits": HitsExpertRanker,
        "tfidf": DocumentExpertRanker,
    }[request.param]()


class TestMultiRankerParity:
    """Every ranker's DeltaSession matches its from-scratch full_rebuild
    scores to 1e-9 — and never materializes the overlay to get there."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences(self, any_ranker, small_dataset, small_query, seed):
        net = small_dataset.network
        rng = np.random.default_rng(1000 + seed)
        perts = _random_perturbations(net, rng, int(rng.integers(1, 6)))
        if not perts:
            pytest.skip("degenerate draw")
        overlay, q2 = apply_perturbations(net, frozenset(small_query), perts)
        fast = any_ranker.scores(q2, overlay)
        assert overlay._mat is None, "delta path materialized the overlay"
        any_ranker.full_rebuild = True
        try:
            slow = any_ranker.scores(q2, overlay)
        finally:
            any_ranker.full_rebuild = False
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_skill_only_flips(self, any_ranker, small_dataset, small_query):
        net = small_dataset.network
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(
            net, small_query, [RemoveSkill(0, skill), AddSkill(3, "never-seen")]
        )
        fast = any_ranker.scores(q, overlay)
        assert overlay._mat is None
        any_ranker.full_rebuild = True
        try:
            slow = any_ranker.scores(q, overlay)
        finally:
            any_ranker.full_rebuild = False
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_edge_only_flips(self, any_ranker, small_dataset, small_query):
        net = small_dataset.network
        u, v = sorted(net.edges())[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveEdge(u, v)])
        fast = any_ranker.scores(q, overlay)
        assert overlay._mat is None
        any_ranker.full_rebuild = True
        try:
            slow = any_ranker.scores(q, overlay)
        finally:
            any_ranker.full_rebuild = False
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_query_term_skill_flip(self, any_ranker, small_dataset, small_query):
        """Flipping a *query-term* skill moves the restart/root/profile
        state every delta path special-cases; parity must survive it."""
        net = small_dataset.network
        term = sorted(small_query)[0]
        holder = sorted(net.people_with_skill(term))
        perts = []
        if holder:
            perts.append(RemoveSkill(holder[0], term))
        non_holder = next(p for p in net.people() if not net.has_skill(p, term))
        perts.append(AddSkill(non_holder, term))
        overlay, q = apply_perturbations(net, small_query, perts)
        fast = any_ranker.scores(q, overlay)
        assert overlay._mat is None
        any_ranker.full_rebuild = True
        try:
            slow = any_ranker.scores(q, overlay)
        finally:
            any_ranker.full_rebuild = False
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)

    def test_session_reused_across_probes(self, any_ranker, small_dataset, small_query):
        """Same base version -> same session object, whether the session
        lives in the ranker's private slot or in an installed registry
        (``_session_for`` is the lookup both paths share)."""
        net = small_dataset.network
        skill = sorted(net.skills(0))[0]
        ov1, q1 = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        any_ranker.scores(q1, ov1)
        first = any_ranker._session_for(net)
        assert first is not None
        ov2, q2 = apply_perturbations(net, small_query, [AddSkill(1, "xyz-skill")])
        any_ranker.scores(q2, ov2)
        assert any_ranker._session_for(net) is first

    def test_engine_probe_never_materializes(
        self, any_ranker, small_dataset, small_query
    ):
        """ExES.probe_engine's hot path — probe an overlay through a
        RelevanceTarget — stays materialization-free for every ranker."""
        net = small_dataset.network
        engine = ProbeEngine(RelevanceTarget(any_ranker, k=10), net)
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        engine.probe(0, q, overlay)
        assert overlay._mat is None
        assert engine.misses == 1


class TestOverlayChainingAcrossRankers:
    """branch() chaining and add-then-remove annihilation must be
    invisible: identical flips() memo keys and identical probe results as
    the equivalent flat overlay, for every ranker."""

    def test_chained_and_cancelled_flips_match_flat(
        self, any_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        q = frozenset(small_query)
        s0 = sorted(net.skills(0))[0]
        u, v = sorted(net.edges())[0]

        flat, qf = apply_perturbations(net, q, [RemoveSkill(0, s0), RemoveEdge(u, v)])

        ov1, _ = apply_perturbations(net, q, [RemoveSkill(0, s0)])
        chained = ov1.branch()
        chained.add_skill(3, "transient-skill")
        chained.remove_edge(u, v)
        chained.remove_skill(3, "transient-skill")  # annihilates the add
        assert chained.flips() == flat.flips()

        engine = ProbeEngine(RelevanceTarget(any_ranker, k=10), net)
        first = engine.probe(0, qf, flat)
        assert engine.probe(0, qf, chained) == first
        assert engine.hits == 1  # identical memo key: answered from memory

        np.testing.assert_allclose(
            any_ranker.scores(qf, chained),
            any_ranker.scores(qf, flat),
            rtol=0,
            atol=1e-9,
        )


class TestBatchedProbes:
    """probe_batch: memo-consistent, chunked through scores_batch, and
    falling back cleanly when batching cannot serve a state."""

    def test_batch_populates_memo_for_later_probes(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        engine = ProbeEngine(RelevanceTarget(small_gcn_ranker, k=10), net)
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        (batched,) = engine.probe_batch([(0, q, overlay)])
        assert engine.misses == 1
        assert engine.probe(0, q, overlay) == batched  # answered from memo
        assert engine.hits == 1

    def test_batch_answers_repeats_from_memo(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        engine = ProbeEngine(RelevanceTarget(small_gcn_ranker, k=10), net)
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        first = engine.probe(0, q, overlay)
        results = engine.probe_batch([(0, q, overlay), (1, q, overlay)])
        assert results[0] == first
        assert engine.hits == 1  # the repeat state cost no evaluation
        # Person 1 probes the same (query, flips) state: the score-vector
        # memo serves it without a second ranker evaluation, so the only
        # miss is the original probe.
        assert engine.misses == 1
        assert engine.score_hits == 1

    def test_large_group_chunked_through_scores_batch(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        """A group bigger than _BATCH_GROUP flushes in chunks and every
        decision matches the sequential path."""
        net = small_dataset.network
        target = RelevanceTarget(small_gcn_ranker, k=10)
        states = []
        for p in range(12):
            skill = sorted(net.skills(p))[0] if net.skills(p) else None
            if skill is None:
                continue
            overlay, q = apply_perturbations(
                net, small_query, [RemoveSkill(p, skill)]
            )
            states.append((p, q, overlay))
        batched = ProbeEngine(target, net).probe_batch(states)
        seq_engine = ProbeEngine(target, net, memoize=False)
        assert batched == [seq_engine.probe(*s) for s in states]
        assert all(ov._mat is None for _, _, ov in states)

    def test_full_rebuild_engine_falls_back_per_state(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        target = RelevanceTarget(small_gcn_ranker, k=10)
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        fast = ProbeEngine(target, net).probe_batch([(0, q, overlay)])
        slow_engine = ProbeEngine(target, net, memoize=False, full_rebuild=True)
        assert slow_engine.probe_batch([(0, q, overlay)]) == fast

    def test_sessionless_ranker_falls_back(self, small_dataset, small_query):
        from repro.search import CoverageExpertRanker

        net = small_dataset.network
        target = RelevanceTarget(CoverageExpertRanker(), k=10)
        engine = ProbeEngine(target, net)
        skill = sorted(net.skills(0))[0]
        overlay, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        results = engine.probe_batch([(0, q, overlay), (0, q, None)])
        assert engine.misses == 2
        assert results[0] == engine.probe(0, q, overlay)  # memoized


class TestGcnBatchedSession:
    """scores_batch == per-probe scores == full rebuild, through both the
    session and the ranker-level dispatch."""

    def test_session_batch_parity(self, small_gcn_ranker, small_dataset, small_query):
        net = small_dataset.network
        overlays = []
        for p in range(6):
            perts = [AddSkill(p, f"batch-skill-{p}")]
            u, v = sorted(net.edges())[p]
            perts.append(RemoveEdge(u, v))
            overlay, q = apply_perturbations(net, small_query, perts)
            overlays.append(overlay)
        small_gcn_ranker.scores(q, overlays[0])  # open the session
        session = small_gcn_ranker._session_for(net)
        batched = session.scores_batch(q, overlays)
        for overlay, scores in zip(overlays, batched):
            np.testing.assert_allclose(
                scores, session.scores(q, overlay), rtol=0, atol=1e-9
            )
            assert overlay._mat is None
        small_gcn_ranker.full_rebuild = True
        try:
            for overlay, scores in zip(overlays, batched):
                np.testing.assert_allclose(
                    scores,
                    small_gcn_ranker.scores(q, overlay),
                    rtol=0,
                    atol=1e-9,
                )
        finally:
            small_gcn_ranker.full_rebuild = False

    def test_ranker_scores_batch_dispatch(
        self, small_gcn_ranker, small_dataset, small_query
    ):
        net = small_dataset.network
        skill = sorted(net.skills(0))[0]
        ov1, q = apply_perturbations(net, small_query, [RemoveSkill(0, skill)])
        ov2, _ = apply_perturbations(net, small_query, [AddSkill(1, "zz")])
        batched = small_gcn_ranker.scores_batch(q, [ov1, ov2])
        np.testing.assert_allclose(
            batched[0], small_gcn_ranker.scores(q, ov1), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            batched[1], small_gcn_ranker.scores(q, ov2), rtol=0, atol=1e-9
        )
        # Plain networks fall back to per-network scoring.
        plain = small_gcn_ranker.scores_batch(q, [net])
        np.testing.assert_allclose(
            plain[0], small_gcn_ranker.scores(q, net), rtol=0, atol=1e-9
        )


class TestLruEviction:
    """Bounded caches evict one least-recently-used entry at capacity —
    the PR-1 wholesale .clear() caused a cold-cache cliff mid-search."""

    def test_lru_cache_hot_key_survives(self):
        from repro.search.engine import _LruCache

        cache = _LruCache(3)
        cache.put("hot", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("hot") == 1  # refreshes recency
        cache.put("d", 4)  # evicts exactly one entry: the LRU ("b")
        assert cache.get("hot") == 1
        assert cache.get("b") is None
        assert len(cache) == 3

    def test_lru_cache_overwrite_does_not_evict(self):
        from repro.search.engine import _LruCache

        cache = _LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite at capacity must not evict "b"
        assert cache.get("b") == 2
        assert cache.get("a") == 10

    def test_engine_memo_hot_key_survives_overflow(self, small_dataset, monkeypatch):
        import repro.search.engine as engine_mod
        from repro.search import CoverageExpertRanker

        monkeypatch.setattr(engine_mod, "_MAX_MEMO", 4)
        net = small_dataset.network
        engine = ProbeEngine(RelevanceTarget(CoverageExpertRanker(), k=5), net)
        queries = [frozenset({s}) for s in sorted(net.skill_universe())[:8]]
        hot = queries[0]
        engine.probe(0, hot)
        for q in queries[1:]:
            engine.probe(0, q)  # repeatedly overflows the capacity-4 memo
            engine.probe(0, hot)  # the hot key stays recent
        hits = engine.hits
        engine.probe(0, hot)
        assert engine.hits == hits + 1  # still memoized after every overflow

    def test_feat_cache_hot_query_survives(
        self, small_gcn_ranker, small_dataset, monkeypatch
    ):
        import repro.search.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_MAX_QUERY_CACHE", 2)
        net = small_dataset.network
        session = GcnDeltaSession(small_gcn_ranker, net)
        skills = sorted(net.skill_universe())
        hot, qa, qb = (frozenset({s}) for s in skills[:3])
        session._base_features(hot)
        session._base_features(qa)  # cache now at capacity 2
        session._base_features(hot)  # refresh the hot query
        session._base_features(qb)  # evicts qa, not the hot query
        assert hot in session._feat_cache
        assert qa not in session._feat_cache


class TestMemoRekey:
    """A commit re-keys each memo level in one pass: survivors keep their
    LRU order, everything else is dropped, and the counts match the
    entries that moved."""

    def test_score_memo_mixed_verdicts(self):
        from repro.graph.network import BaseDelta
        from repro.search.engine import _LruCache, _rekey_memo_entries

        keep, drop = frozenset({"mining"}), frozenset({"graph"})
        flips = frozenset({("e", 0, 1, True)})
        delta = BaseDelta(
            old_version=3,
            new_version=4,
            skill_flips=((0, "graph", True),),
            edge_flips=(),
        )
        memo = _LruCache(16)
        entries = [
            ((keep, frozenset(), 3), "a"),
            ((drop, frozenset(), 3), "b"),
            ((keep, flips, 4), "c"),  # already re-keyed: left alone
            ((keep, flips, 3, "localized", 0.1), "d"),
            ((keep, frozenset(), 2), "e"),  # stale version: dropped
            ((drop, flips, 3, "localized", 0.1), "f"),
        ]
        for key, value in entries:
            memo.put(key, value)
        asked = []

        def survives(d, query):
            assert d is delta
            asked.append(query)
            return query == keep

        assert _rekey_memo_entries(memo, delta, survives) == (2, 3)
        assert memo.items() == [
            ((keep, frozenset(), 4), "a"),
            ((keep, flips, 4), "c"),
            ((keep, flips, 4, "localized", 0.1), "d"),
        ]
        assert sorted(asked, key=sorted) == [drop, keep]  # once per query
        # Idempotent: a second pass over the same delta moves nothing.
        assert _rekey_memo_entries(memo, delta, survives) == (0, 0)
        assert [key for key, _ in memo.items()] == [
            (keep, frozenset(), 4),
            (keep, flips, 4),
            (keep, flips, 4, "localized", 0.1),
        ]

    def test_engine_rekey_mixed_verdicts(self):
        net = toy_network(n_people=12, seed=0)
        engine = ProbeEngine(RelevanceTarget(PageRankExpertRanker(), k=3), net)
        changed = "graph"  # the committed skill: in drop's terms, not keep's
        keep = frozenset({"mining", "query"})
        drop = frozenset({changed, "social"})
        probe = NetworkOverlay(net)
        probe.add_edge(0, 6)
        for person in range(net.n_people):
            for query in (keep, drop):
                engine.probe(person, query)
                engine.probe(person, query, probe)
        decisions = engine._memo.keys()
        person = next(p for p in net.people() if changed not in net.skills(p))
        edit = NetworkOverlay(net)
        edit.add_skill(person, changed)
        delta = edit.commit()

        assert engine.rekey(delta) == (2, 2)
        assert engine._memo.keys() == [key for key in decisions if key[1] == keep]
        score_keys = engine._score_memo.keys()
        assert [key[0] for key in score_keys] == [keep, keep]
        assert {key[2] for key in score_keys} == {delta.new_version}
        hits = engine.hits
        engine.probe(0, keep)
        assert engine.hits == hits + 1  # a surviving decision answers
        misses = engine.misses
        engine.probe(0, drop)
        assert engine.misses == misses + 1  # a dropped one is recomputed


class TestMemoIsolationAcrossBases:
    """Engines (and their two-level score memos) must never cross-serve
    states from a different base network or a mutated base version."""

    @staticmethod
    def _nets():
        net_a = toy_network(n_people=12, seed=0)
        net_b = toy_network(n_people=12, seed=3)
        return net_a, net_b

    def test_foreign_base_probes_are_not_served_from_memo(self):
        net_a, net_b = self._nets()
        ranker = PageRankExpertRanker()
        target = RelevanceTarget(ranker, k=3)
        engine = ProbeEngine(target, net_a)
        query = frozenset(sorted(net_a.skill_universe())[:2])
        person = 0

        # Warm the memos with net_a states (batch + sequential paths).
        ov_a = NetworkOverlay(net_a)
        ov_a.remove_skill(*next(iter((p, s) for p in net_a.people() for s in sorted(net_a.skills(p)))))
        engine.probe(person, query, ov_a)
        engine.probe_batch([(person, query, ov_a.branch())])
        assert len(engine._score_memo) > 0

        # The same-shaped probe over the *other* base must match a fresh
        # reference engine bound to that base, not net_a's cached answer.
        ov_b = NetworkOverlay(net_b)
        reference = ProbeEngine(target, net_b, memoize=False)
        for state_net in (net_b, ov_b):
            got = engine.probe_batch([(person, query, state_net)])[0]
            want = reference.probe(person, query, state_net)
            assert got == want

    def test_injected_engine_is_declined_for_foreign_networks(self):
        """Two explainers sharing one injected engine but explaining
        different base networks never share cached scores — the foreign
        explainer falls back to its own engine."""
        from repro.explain import FactualConfig, FactualExplainer

        net_a, net_b = self._nets()
        ranker = PageRankExpertRanker()
        target = RelevanceTarget(ranker, k=3)
        engine_a = ProbeEngine(target, net_a)
        shared = FactualExplainer(target, FactualConfig(), engine=engine_a)
        independent = FactualExplainer(target, FactualConfig())

        query = frozenset(sorted(net_b.skill_universe())[:3])
        person = 1
        misses_before = engine_a.misses
        got = shared.explain_query(person, query, net_b)
        want = independent.explain_query(person, query, net_b)
        assert engine_a.misses == misses_before  # net_a's engine untouched
        assert [a.value for a in got.attributions] == [
            a.value for a in want.attributions
        ]

    def test_base_version_drift_invalidates_score_memo(self):
        net = toy_network(n_people=12, seed=1).copy()
        ranker = PageRankExpertRanker()
        target = RelevanceTarget(ranker, k=3)
        engine = ProbeEngine(target, net)
        query = frozenset(sorted(net.skill_universe())[:2])

        ov = NetworkOverlay(net)
        p, s = next((p, s) for p in net.people() for s in sorted(net.skills(p)))
        ov.remove_skill(p, s)
        before = engine.probe_batch([(0, query, ov)])[0]
        assert len(engine._score_memo) > 0

        # Mutate the base: version bumps, every cached vector is stale.
        u = next(v for v in range(1, net.n_people) if not net.has_edge(0, v))
        net.add_edge(0, u)
        ov2 = NetworkOverlay(net)
        ov2.remove_skill(p, s)
        got = engine.probe_batch([(0, query, ov2)])[0]
        reference = ProbeEngine(target, net, memoize=False)
        want = reference.probe(0, query, ov2)
        assert got == want
        # The stale pre-mutation entries are gone (key includes version,
        # and _sync_base released them).
        for key in engine._score_memo._data:
            assert key[2] == engine.base_version
