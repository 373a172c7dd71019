"""Randomized parity fuzzing: every delta path vs. the full-rebuild reference.

Decorte et al. (*On the Biased Assessment of Expert Finding Systems*) argue
expert-finding systems need systematic adversarial evaluation, not a
handful of hand-picked cases.  This suite is that evaluation for the probe
engine: a seeded RNG generates random networks and random perturbation
chains — skill add/remove, edge add/remove, chained through ``branch()``
and including annihilating add-then-remove pairs — and asserts

* delta-session scores == full-rebuild scores to 1e-9 for **all four
  rankers** (PageRank / HITS / TF-IDF on fresh random networks, the
  trained GCN on the shared session network),
* the team delta path returns the **exact same team** (members, seed,
  build order, coverage) as greedy re-formation on the materialized
  overlay, and the same membership decisions through ``MembershipTarget``,
* batched probe flushes decide identically to sequential probes,
* random probe *batches* through ``scores_batch`` equal sequential
  ``scores`` calls and full rebuilds to 1e-9 for **every ranker** (the
  PR-4 batched delta forwards), and random multi-*query* sweeps through
  ``scores_multi`` equal per-query scoring and full rebuilds the same way,
* mixed service workloads answer identically across per-call facade
  invocation, deterministic single-thread ``explain_many``, and sharded
  execution,
* randomized *committed* edit chains — ``overlay.commit()`` promoting
  flips into the base, the engine registry dropping its sessions —
  score bit for bit and form exactly as a fresh stack built from
  scratch on the committed network, several epoch boundaries deep, for
  all four rankers, team formation, and registry-owned relevance and
  membership engines with memo retention.

Every case is pinned to a deterministic seed, so green stays green.  The
default run executes a quick subset; the full sweep (500+ chains across
the parametrization grid) is marked ``slow`` and run in CI with
``-m slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExES
from repro.datasets import toy_network
from repro.embeddings import train_ppmi_embedding
from repro.explain import BeamConfig, FactualConfig, MembershipTarget, RelevanceTarget
from repro.graph import NetworkOverlay, network_from_dict, network_to_dict
from repro.linkpred import HeuristicLinkPredictor
from repro.search import (
    DocumentExpertRanker,
    GcnExpertRanker,
    GcnRankerConfig,
    HitsExpertRanker,
    PageRankExpertRanker,
    ProbeEngine,
)
from repro.service import (
    FACADE_METHODS,
    EngineRegistry,
    ExplanationService,
    explanation_signature,
    make_requests,
)
from repro.team import CoverTeamFormer

ATOL = 1e-9

QUICK_SEEDS = range(3)
SLOW_SEEDS = range(3, 25)
CHAIN_LENGTHS = (1, 3, 6)

RANKERS = {
    "pagerank": PageRankExpertRanker,
    "hits": HitsExpertRanker,
    "tfidf": DocumentExpertRanker,
}


# ----------------------------------------------------------------------
# chain generation
# ----------------------------------------------------------------------
def _random_chain(net, rng, length):
    """Apply a random applicable flip chain to a fresh overlay over
    ``net``; returns the overlay.  Chains mix skill and edge flips, are
    split across ``branch()`` stages (so flattening is exercised), and
    sometimes append annihilating add-then-remove pairs."""
    skills = sorted(net.skill_universe())
    overlay = NetworkOverlay(net)
    applied = 0
    stages = 0
    while applied < length and stages < 4 * length:
        stages += 1
        if rng.random() < 0.3:
            overlay = overlay.branch()  # chained overlay-over-overlay
        kind = int(rng.integers(0, 4))
        if kind == 0:
            p = int(rng.integers(0, net.n_people))
            s = skills[int(rng.integers(0, len(skills)))]
            done = (
                overlay.add_skill(p, s)
                if not overlay.has_skill(p, s)
                else overlay.remove_skill(p, s)
            )
        elif kind == 1:
            p = int(rng.integers(0, net.n_people))
            own = sorted(overlay.skills(p))
            if not own:
                continue
            done = overlay.remove_skill(p, own[int(rng.integers(0, len(own)))])
        elif kind == 2:
            u = int(rng.integers(0, net.n_people))
            v = int(rng.integers(0, net.n_people))
            if u == v:
                continue
            done = (
                overlay.add_edge(u, v)
                if not overlay.has_edge(u, v)
                else overlay.remove_edge(u, v)
            )
        else:
            # Annihilating pair: a flip immediately undone; must leave the
            # delta (and every delta-scored result) untouched.
            p = int(rng.integers(0, net.n_people))
            s = f"transient-{stages}"
            overlay.add_skill(p, s)
            overlay.remove_skill(p, s)
            done = True
        if done:
            applied += 1
    return overlay


def _random_query(net, rng, n_terms=3):
    skills = sorted(net.skill_universe())
    n_terms = min(n_terms, len(skills))
    picks = rng.choice(len(skills), size=n_terms, replace=False)
    return frozenset(skills[int(i)] for i in picks)


def _reference_scores(ranker, query, overlay):
    """The from-scratch full-rebuild scores for an overlay state."""
    ranker.full_rebuild = True
    try:
        return ranker.scores(query, overlay)
    finally:
        ranker.full_rebuild = False


# ----------------------------------------------------------------------
# ranker score parity
# ----------------------------------------------------------------------
class TestRankerScoreFuzz:
    """Delta scores == full-rebuild scores to 1e-9 on random networks and
    random chains, for the training-free rankers."""

    @staticmethod
    def _run_chain(ranker_name, chain_length, seed):
        rng = np.random.default_rng(10_000 * chain_length + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        ranker = RANKERS[ranker_name]()
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, chain_length)
        fast = ranker.scores(query, overlay)
        assert overlay._mat is None, "delta path materialized the overlay"
        slow = _reference_scores(ranker, query, overlay)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, chain_length, seed):
        self._run_chain(ranker_name, chain_length, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, chain_length, seed):
        self._run_chain(ranker_name, chain_length, seed)


class TestGcnScoreFuzz:
    """The trained GCN's delta session (including the batched and the
    neighborhood-restricted forward) against full rebuild, on random
    chains over the shared session network."""

    @staticmethod
    def _run_chain(small_gcn_ranker, net, chain_length, seed):
        rng = np.random.default_rng(77_000 * chain_length + seed)
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, chain_length)
        fast = small_gcn_ranker.scores(query, overlay)
        assert overlay._mat is None
        slow = _reference_scores(small_gcn_ranker, query, overlay)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=ATOL)
        # The batched multi-probe forward must agree with both.
        session = small_gcn_ranker._session_for(net)
        (batched,) = session.scores_batch(query, [overlay])
        np.testing.assert_allclose(batched, slow, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, small_gcn_ranker, small_dataset, chain_length, seed):
        self._run_chain(small_gcn_ranker, small_dataset.network, chain_length, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, small_gcn_ranker, small_dataset, chain_length, seed):
        self._run_chain(small_gcn_ranker, small_dataset.network, chain_length, seed)


# ----------------------------------------------------------------------
# localized plans: mode-aware parity against full rebuild
# ----------------------------------------------------------------------
class TestLocalizedScoreFuzz:
    """``scores_localized`` against full rebuild on random chains, with
    the mode-aware contract: exact and global plans match to 1e-9, a
    sampled plan's l1 error stays inside its *certified* residual bound,
    and that bound never exceeds the scope's epsilon (plus the base
    iterate's 1e-9 tolerance slack).  PageRank is the only ranker with a
    localized plan; every other session reports ``global``."""

    N_PROBES = 4

    @classmethod
    def _run_chain(cls, ranker_name, chain_length, seed, epsilon):
        from repro.runtime import LocalizedSpec

        rng = np.random.default_rng(30_000 * chain_length + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        ranker = RANKERS[ranker_name]()
        session = ranker.delta_session(net)
        spec = LocalizedSpec(epsilon=epsilon)
        for _ in range(cls.N_PROBES):
            query = _random_query(net, rng)
            overlay = _random_chain(net, rng, chain_length)
            scores, plan = session.scores_localized(query, overlay, spec)
            spec.record(plan)
            assert overlay._mat is None, "localized path materialized"
            if ranker_name != "pagerank":
                assert plan.mode == "global", (ranker_name, plan)
            slow = _reference_scores(ranker, query, overlay)
            err = float(np.abs(scores - slow).sum())
            if plan.mode == "sampled":
                assert plan.residual_bound is not None
                assert err <= plan.residual_bound, (
                    f"sampled l1 error {err:.2e} above certified bound "
                    f"{plan.residual_bound:.2e}"
                )
                assert plan.residual_bound <= epsilon + 1e-9
                assert 0 <= plan.cone_size <= net.n_people
            else:
                assert err <= ATOL, (
                    f"{plan.mode} plan drifted from full rebuild ({err:.2e})"
                )
        summary = spec.summary()
        assert (
            summary["exact"] + summary["sampled"] + summary["global"]
            == cls.N_PROBES
        )
        assert summary["epsilon"] == epsilon

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, chain_length, seed):
        self._run_chain(ranker_name, chain_length, seed, epsilon=1e-6)

    @pytest.mark.slow
    @pytest.mark.parametrize("epsilon", (1e-5, 1e-6, 1e-8))
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, chain_length, seed, epsilon):
        self._run_chain(ranker_name, chain_length, seed, epsilon=epsilon)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_localized(self, small_gcn_ranker, small_dataset, seed):
        """The GCN has no localized plan: it answers with its global
        forward, reports ``global`` and matches full rebuild."""
        from repro.runtime import LocalizedSpec

        net = small_dataset.network
        rng = np.random.default_rng(888 + seed)
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, 3)
        session = small_gcn_ranker.delta_session(net)
        spec = LocalizedSpec(epsilon=1e-6)
        scores, plan = session.scores_localized(query, overlay, spec)
        assert plan.mode == "global"
        slow = _reference_scores(small_gcn_ranker, query, overlay)
        np.testing.assert_allclose(scores, slow, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_engine_scope_memo_separation(self, seed):
        """Probes under a ``localized_scope`` must never serve (or be
        served by) the plain memo: a sampled vector is only valid within
        its bound, and plain vectors carry no plan accounting."""
        from repro.runtime import LocalizedSpec, localized_scope

        rng = np.random.default_rng(4_400 + seed)
        net = toy_network(n_people=18, seed=seed)
        target = RelevanceTarget(PageRankExpertRanker(), k=5)
        engine = ProbeEngine(target, net)
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, 2)
        person = int(rng.integers(0, net.n_people))
        plain_first = engine.probe(person, query, overlay)
        spec = LocalizedSpec(epsilon=1e-6)
        with localized_scope(spec):
            scoped = engine.probe(person, query, overlay)
            again = engine.probe(person, query, overlay)
        summary = spec.summary()
        assert (
            summary["exact"] + summary["sampled"] + summary["global"] >= 1
        ), "scoped probe bypassed plan accounting (memo crosstalk)"
        assert scoped == again
        assert scoped[0] == plain_first[0]


# ----------------------------------------------------------------------
# batched delta forwards: scores_batch == sequential == full rebuild
# ----------------------------------------------------------------------
class TestBatchedScoreFuzz:
    """Random probe batches through every ranker's ``scores_batch`` must
    equal sequential ``scores`` calls (fresh session, so neither path is
    answered from the other's caches) and full rebuilds to 1e-9."""

    N_PROBES = 6

    @classmethod
    def _run_batch(cls, ranker, net, rng):
        query = _random_query(net, rng)
        overlays = [
            _random_chain(net, rng, int(rng.integers(1, 5)))
            for _ in range(cls.N_PROBES)
        ]
        batched = ranker.delta_session(net).scores_batch(query, overlays)
        fresh = ranker.delta_session(net)
        sequential = [fresh.scores(query, ov) for ov in overlays]
        for fast, seq, ov in zip(batched, sequential, overlays):
            assert ov._mat is None, "batched path materialized an overlay"
            np.testing.assert_allclose(fast, seq, rtol=0, atol=ATOL)
            slow = _reference_scores(ranker, query, ov)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, seed):
        rng = np.random.default_rng(60_000 + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        self._run_batch(RANKERS[ranker_name](), net, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, seed):
        rng = np.random.default_rng(60_000 + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        self._run_batch(RANKERS[ranker_name](), net, rng)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_quick(self, small_gcn_ranker, small_dataset, seed):
        rng = np.random.default_rng(61_000 + seed)
        self._run_batch(small_gcn_ranker, small_dataset.network, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_gcn_full(self, small_gcn_ranker, small_dataset, seed):
        rng = np.random.default_rng(61_000 + seed)
        self._run_batch(small_gcn_ranker, small_dataset.network, rng)


# ----------------------------------------------------------------------
# multi-query flushes: scores_multi == sequential == full rebuild
# ----------------------------------------------------------------------
class TestMultiQueryFuzz:
    """One pinned overlay probed under many random query subsets (the SHAP
    value-function shape) through the session's ``scores_multi`` must
    equal per-query ``scores`` calls and full rebuilds to 1e-9 — including
    the empty query subset."""

    @staticmethod
    def _query_subsets(net, rng, n_subsets=6):
        base_query = _random_query(net, rng, n_terms=4)
        terms = sorted(base_query)
        subsets = [frozenset(), base_query]
        while len(subsets) < n_subsets:
            mask = rng.random(len(terms)) < 0.5
            subsets.append(frozenset(t for t, keep in zip(terms, mask) if keep))
        return subsets

    @classmethod
    def _run_multi(cls, ranker, net, rng, chain_length):
        queries = cls._query_subsets(net, rng)
        overlay = _random_chain(net, rng, chain_length)
        multi = ranker.delta_session(net).scores_multi(queries, overlay)
        fresh = ranker.delta_session(net)
        sequential = [fresh.scores(q, overlay) for q in queries]
        assert overlay._mat is None, "multi-query path materialized the overlay"
        for q, fast, seq in zip(queries, multi, sequential):
            np.testing.assert_allclose(fast, seq, rtol=0, atol=ATOL)
            slow = _reference_scores(ranker, q, overlay)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, seed):
        rng = np.random.default_rng(70_000 + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        self._run_multi(RANKERS[ranker_name](), net, rng, int(rng.integers(1, 5)))

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, chain_length, seed):
        rng = np.random.default_rng(70_000 * chain_length + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        self._run_multi(RANKERS[ranker_name](), net, rng, chain_length)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_quick(self, small_gcn_ranker, small_dataset, seed):
        rng = np.random.default_rng(71_000 + seed)
        self._run_multi(
            small_gcn_ranker, small_dataset.network, rng, int(rng.integers(1, 5))
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_gcn_full(self, small_gcn_ranker, small_dataset, seed):
        rng = np.random.default_rng(71_000 + seed)
        self._run_multi(
            small_gcn_ranker, small_dataset.network, rng, int(rng.integers(1, 5))
        )


# ----------------------------------------------------------------------
# team-formation delta parity (exact teams, not just scores)
# ----------------------------------------------------------------------
class TestTeamFormationFuzz:
    """The team delta path (cached base run + overlay re-formation) must
    return the exact team the plain path forms on the materialized
    overlay, and identical membership decisions."""

    @staticmethod
    def _run_chain(ranker_name, chain_length, seed):
        rng = np.random.default_rng(31_000 * chain_length + seed)
        net = toy_network(n_people=int(rng.integers(10, 25)), seed=seed)
        former = CoverTeamFormer(RANKERS[ranker_name]())
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, chain_length)
        seed_member = (
            None if rng.random() < 0.5 else int(rng.integers(0, net.n_people))
        )

        fast = former.form(query, overlay, seed_member=seed_member)
        assert overlay._mat is None, "team delta path materialized the overlay"
        # The canonical reference: full_rebuild on former AND ranker, with
        # the overlay still visible — exactly the score-parity convention,
        # so base-pinned ranker statistics (TF-IDF idf) stay pinned.
        former.full_rebuild = True
        former.ranker.full_rebuild = True
        try:
            slow = former.form(query, overlay, seed_member=seed_member)
        finally:
            former.full_rebuild = False
            former.ranker.full_rebuild = False

        assert fast.members == slow.members
        assert fast.seed == slow.seed
        assert fast.build_order == slow.build_order
        assert fast.covered_terms == slow.covered_terms
        assert fast.uncovered_terms == slow.uncovered_terms

        # Membership probes through the decision target agree too.
        target = MembershipTarget(former, seed_member=seed_member)
        person = int(rng.integers(0, net.n_people))
        fast_decision = target.decide(person, query, overlay)
        assert fast_decision == (person in slow)

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, chain_length, seed):
        self._run_chain(ranker_name, chain_length, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, chain_length, seed):
        self._run_chain(ranker_name, chain_length, seed)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_team_chain(self, small_gcn_ranker, small_dataset, seed):
        """The paper's actual stack: team formation over the trained GCN."""
        net = small_dataset.network
        former = CoverTeamFormer(small_gcn_ranker)
        rng = np.random.default_rng(909 + seed)
        query = _random_query(net, rng)
        overlay = _random_chain(net, rng, 3)
        fast = former.form(query, overlay, seed_member=None)
        assert overlay._mat is None
        former.full_rebuild = True
        small_gcn_ranker.full_rebuild = True
        try:
            slow = former.form(query, overlay, seed_member=None)
        finally:
            former.full_rebuild = False
            small_gcn_ranker.full_rebuild = False
        assert fast.members == slow.members
        assert fast.build_order == slow.build_order


# ----------------------------------------------------------------------
# batched probe flushes
# ----------------------------------------------------------------------
class TestBatchedProbeFuzz:
    """``ProbeEngine.probe_batch`` must decide exactly as sequential
    ``probe`` calls — for relevance and membership targets alike."""

    @staticmethod
    def _states(net, rng, n_states):
        out = []
        for _ in range(n_states):
            query = _random_query(net, rng)
            overlay = _random_chain(net, rng, int(rng.integers(1, 5)))
            person = int(rng.integers(0, net.n_people))
            out.append((person, query, overlay))
        return out

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_relevance_batch_matches_sequential(
        self, small_gcn_ranker, small_dataset, seed
    ):
        net = small_dataset.network
        rng = np.random.default_rng(4242 + seed)
        states = self._states(net, rng, 12)
        target = RelevanceTarget(small_gcn_ranker, k=10)
        batch_engine = ProbeEngine(target, net)
        seq_engine = ProbeEngine(target, net, memoize=False)
        batched = batch_engine.probe_batch(states)
        sequential = [seq_engine.probe(*state) for state in states]
        assert batched == sequential
        assert all(ov._mat is None for _, _, ov in states)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_team_membership_batch_matches_sequential(
        self, small_gcn_ranker, small_dataset, seed
    ):
        net = small_dataset.network
        former = CoverTeamFormer(small_gcn_ranker)
        rng = np.random.default_rng(8484 + seed)
        states = self._states(net, rng, 8)
        target = MembershipTarget(former)
        batch_engine = ProbeEngine(target, net)
        seq_engine = ProbeEngine(target, net, memoize=False)
        batched = batch_engine.probe_batch(states)
        sequential = [seq_engine.probe(*state) for state in states]
        assert batched == sequential
        assert all(ov._mat is None for _, _, ov in states)


# ----------------------------------------------------------------------
# service axis: explain_many sharded vs single-thread vs per-call facade
# ----------------------------------------------------------------------
_SERVICE_FACTUAL = FactualConfig(
    n_samples=16, max_samples=32, selection_samples=8, exact_limit=4
)
_SERVICE_BEAM = BeamConfig(beam_size=4, n_candidates=3, max_size=2, n_explanations=2)
_SERVICE_KINDS = ("skills", "query", "cf_skills", "cf_query")
class TestServiceFuzz:
    """Randomized mixed request workloads: the deterministic single-thread
    ``explain_many`` must be bit-identical to per-call facade invocation,
    and the sharded (thread-pool) mode must match the deterministic mode —
    relevance and membership requests together, for every ranker."""

    @staticmethod
    def _random_requests(ranker, former, net, rng, k):
        requests = []
        for _ in range(int(rng.integers(1, 3))):
            query = tuple(sorted(_random_query(net, rng)))
            order = ranker.evaluate(query, net).order
            persons = {int(order[0]), int(order[min(k, len(order) - 1)])}
            kinds = [
                _SERVICE_KINDS[int(i)]
                for i in rng.choice(
                    len(_SERVICE_KINDS), size=int(rng.integers(2, 4)), replace=False
                )
            ]
            for person in sorted(persons):
                requests.extend(make_requests(kinds, person, query))
            seed_member = int(order[0])
            team = former.form(query, net, seed_member=seed_member)
            member = sorted(team.members)[0]
            requests.extend(
                make_requests(
                    ("cf_skills",), member, query, team=True, seed_member=seed_member
                )
            )
        return requests

    @classmethod
    def _run_workload(cls, ranker, net, seed, k=3):
        rng = np.random.default_rng(31_000 + seed)
        former = CoverTeamFormer(ranker)
        embedding = train_ppmi_embedding(
            [sorted(net.skills(p)) for p in net.people()] * 2, dim=8, min_count=1
        )
        predictor = HeuristicLinkPredictor("common_neighbors").fit(net)
        requests = cls._random_requests(ranker, former, net, rng, k)

        facade = ExES(
            network=net, ranker=ranker, embedding=embedding,
            link_predictor=predictor, former=former, k=k,
            factual_config=_SERVICE_FACTUAL, beam_config=_SERVICE_BEAM,
            registry=EngineRegistry(),
        )
        reference = [
            explanation_signature(
                request,
                getattr(facade, FACADE_METHODS[request.kind])(
                    request.person, request.query,
                    team=request.team, seed_member=request.seed_member,
                ),
            )
            for request in requests
        ]

        # Two service axes against the per-call reference: deterministic
        # single-thread and sharded.
        for max_workers in (1, 4):
            registry = EngineRegistry()
            service = ExplanationService(
                network=net, ranker=ranker, embedding=embedding,
                link_predictor=predictor, former=former, k=k,
                factual_config=_SERVICE_FACTUAL, beam_config=_SERVICE_BEAM,
                registry=registry,
            )
            responses = service.explain_many(requests, max_workers=max_workers)
            assert all(r.ok for r in responses), [r.error for r in responses]
            got = [
                explanation_signature(r.request, r.explanation) for r in responses
            ]
            assert got == reference, f"max_workers={max_workers} diverged"

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, seed):
        rng = np.random.default_rng(555 + seed)
        net = toy_network(n_people=int(rng.integers(12, 22)), seed=seed)
        self._run_workload(RANKERS[ranker_name](), net, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, seed):
        rng = np.random.default_rng(555 + seed)
        net = toy_network(n_people=int(rng.integers(12, 25)), seed=seed)
        self._run_workload(RANKERS[ranker_name](), net, seed)

    @pytest.mark.parametrize("seed", QUICK_SEEDS[:1])
    def test_gcn_quick(self, small_gcn_ranker, small_dataset, seed):
        self._run_workload(small_gcn_ranker, small_dataset.network, seed, k=10)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", QUICK_SEEDS[1:])
    def test_gcn_full(self, small_gcn_ranker, small_dataset, seed):
        self._run_workload(small_gcn_ranker, small_dataset.network, seed, k=10)


# ----------------------------------------------------------------------
# serving axis: wire responses == direct explain_many, bit-identical
# ----------------------------------------------------------------------
class TestServeParityFuzz:
    """The socket front end adds zero answer drift: deterministic
    single-worker batches served over a live connection must be
    bit-identical (by ``explanation_signature``) to direct
    ``explain_many`` on the same service — for every ranker.  The
    session is stamped client-side so the request objects on both axes
    are *equal*, making the signatures directly comparable."""

    @classmethod
    def _run_wire_parity(cls, ranker, net, seed, k=3):
        import asyncio
        import dataclasses

        from repro.serve import ExplanationServer, ServeClient, ServeConfig

        rng = np.random.default_rng(93_000 + seed)
        former = CoverTeamFormer(ranker)
        embedding = train_ppmi_embedding(
            [sorted(net.skills(p)) for p in net.people()] * 2, dim=8, min_count=1
        )
        predictor = HeuristicLinkPredictor("common_neighbors").fit(net)
        requests = [
            dataclasses.replace(r, session="parity")
            for r in TestServiceFuzz._random_requests(ranker, former, net, rng, k)
        ]
        service = ExplanationService(
            network=net, ranker=ranker, embedding=embedding,
            link_predictor=predictor, former=former, k=k,
            factual_config=_SERVICE_FACTUAL, beam_config=_SERVICE_BEAM,
            registry=EngineRegistry(),
        )
        direct = service.explain_many(requests, max_workers=1)
        assert all(r.ok for r in direct), [r.error for r in direct]
        reference = [
            explanation_signature(r.request, r.explanation) for r in direct
        ]

        async def scenario():
            server = await ExplanationServer(service, ServeConfig(port=0)).start()
            client = await ServeClient.connect(
                "127.0.0.1", server.port, session="parity"
            )
            responses, summary = await client.explain_many(requests, max_workers=1)
            await client.close()
            await server.shutdown()
            return responses, summary

        responses, summary = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        got = [explanation_signature(r.request, r.explanation) for r in responses]
        assert got == reference, "wire responses diverged from direct explain_many"
        assert summary["outcomes"] == {"ok": len(requests)}

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, seed):
        rng = np.random.default_rng(777 + seed)
        net = toy_network(n_people=int(rng.integers(12, 22)), seed=seed)
        self._run_wire_parity(RANKERS[ranker_name](), net, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, seed):
        rng = np.random.default_rng(777 + seed)
        net = toy_network(n_people=int(rng.integers(12, 25)), seed=seed)
        self._run_wire_parity(RANKERS[ranker_name](), net, seed)

    @pytest.mark.parametrize("seed", QUICK_SEEDS[:1])
    def test_gcn_quick(self, small_gcn_ranker, small_dataset, seed):
        self._run_wire_parity(small_gcn_ranker, small_dataset.network, seed, k=10)


# ----------------------------------------------------------------------
# committed edit chains: post-commit sessions vs. from-scratch rebuilds
# ----------------------------------------------------------------------
def _commit_overlay(net, rng, length):
    """A random applicable flip set on a *direct* overlay over ``net`` —
    only a first-level overlay can be promoted into its base, so no
    ``branch()`` stages.  Mixes skill and edge flips and sometimes
    annihilating add-then-remove pairs (which must commit as nothing)."""
    skills = sorted(net.skill_universe())
    overlay = NetworkOverlay(net)
    applied = 0
    stages = 0
    while applied < length and stages < 6 * length:
        stages += 1
        kind = int(rng.integers(0, 4))
        if kind == 0:
            p = int(rng.integers(0, net.n_people))
            s = skills[int(rng.integers(0, len(skills)))]
            done = (
                overlay.add_skill(p, s)
                if not overlay.has_skill(p, s)
                else overlay.remove_skill(p, s)
            )
        elif kind == 1:
            p = int(rng.integers(0, net.n_people))
            own = sorted(overlay.skills(p))
            if not own:
                continue
            done = overlay.remove_skill(p, own[int(rng.integers(0, len(own)))])
        elif kind == 2:
            u = int(rng.integers(0, net.n_people))
            v = int(rng.integers(0, net.n_people))
            if u == v:
                continue
            done = (
                overlay.add_edge(u, v)
                if not overlay.has_edge(u, v)
                else overlay.remove_edge(u, v)
            )
        else:
            p = int(rng.integers(0, net.n_people))
            s = f"transient-{stages}"
            overlay.add_skill(p, s)
            overlay.remove_skill(p, s)
            done = True
        if done:
            applied += 1
    return overlay


def _replay_overlay(overlay, onto):
    """Re-apply a direct overlay's net flips onto a fresh overlay over
    ``onto`` — the rebuilt reference network, structurally identical to
    the overlay's base."""
    out = NetworkOverlay(onto)
    for (p, s), added in sorted(overlay.skill_flips().items()):
        (out.add_skill if added else out.remove_skill)(p, s)
    for (u, v), added in sorted(overlay.edge_flips().items()):
        (out.add_edge if added else out.remove_edge)(u, v)
    return out


class TestCommitFuzz:
    """Randomized *committed* edit chains.

    Each round promotes a random flip set into the live base with
    ``overlay.commit()`` and rebases an installed ``EngineRegistry``
    (the path ``ExplanationService.commit`` takes), which drops every
    delta session bound to the old version.  After every commit the
    ranker and former must serve through *new* sessions, whose scores
    equal the full-rebuild reference on the mutated base to 1e-9 and a
    fresh session stack over a network rebuilt from scratch at the
    committed state (``network_to_dict`` → ``network_from_dict``) bit
    for bit, and whose team is the *exact* reference team.  Chains run
    several commits deep, so every epoch boundary is crossed more than
    once.
    """

    N_COMMITS = 3

    @classmethod
    def _run_commit_chain(cls, ranker, net, chain_length, rng, fresh_ranker_factory):
        former = CoverTeamFormer(ranker)
        registry = EngineRegistry().install(ranker, former)
        rsession = ranker._session_for(net)
        tsession = former._session_for(net)
        assert rsession is not None and tsession is not None
        pinned_query = _random_query(net, rng)
        # Warm the score caches and the base team trace before the first
        # commit, so the sessions a commit drops hold real state.
        ranker.scores(pinned_query, _commit_overlay(net, rng, 2))
        former.form(pinned_query, NetworkOverlay(net))

        for _ in range(cls.N_COMMITS):
            delta = _commit_overlay(net, rng, chain_length).commit()
            assert delta.new_version == net.version
            registry.rebase(net, delta)
            # A commit drops the sessions; the next probe builds fresh
            # ones on the committed base (an empty delta bumps nothing).
            new_rsession = ranker._session_for(net)
            new_tsession = former._session_for(net)
            assert (new_rsession is rsession) == delta.is_empty
            assert (new_tsession is tsession) == delta.is_empty
            rsession, tsession = new_rsession, new_tsession
            assert rsession.valid_for(net) and tsession.valid_for(net)

            fresh_net = network_from_dict(network_to_dict(net))
            assert fresh_net.state_digest() == net.state_digest()
            fresh_ranker = fresh_ranker_factory()
            fresh_session = fresh_ranker.delta_session(fresh_net)

            for query in (pinned_query, _random_query(net, rng)):
                for probe_len in (0, int(rng.integers(1, 4))):
                    probe = (
                        NetworkOverlay(net)
                        if probe_len == 0
                        else _commit_overlay(net, rng, probe_len)
                    )
                    fast = ranker.scores(query, probe)
                    assert probe._mat is None, "delta path materialized the probe"
                    slow = _reference_scores(ranker, query, probe)
                    np.testing.assert_allclose(fast, slow, rtol=0, atol=ATOL)
                    fresh = fresh_session.scores(
                        query, _replay_overlay(probe, fresh_net)
                    )
                    np.testing.assert_array_equal(fast, fresh)

            # Exact-team parity through the fresh team session, against a
            # from-scratch formation on the rebuilt network.
            seed_member = (
                None if rng.random() < 0.5 else int(rng.integers(0, net.n_people))
            )
            team_probe = _commit_overlay(net, rng, 2)
            fast_team = former.form(
                pinned_query, team_probe, seed_member=seed_member
            )
            fresh_former = CoverTeamFormer(fresh_ranker)
            fresh_former.full_rebuild = True
            fresh_ranker.full_rebuild = True
            try:
                ref_team = fresh_former.form(
                    pinned_query,
                    _replay_overlay(team_probe, fresh_net),
                    seed_member=seed_member,
                )
            finally:
                fresh_former.full_rebuild = False
                fresh_ranker.full_rebuild = False
            assert fast_team.members == ref_team.members
            assert fast_team.seed == ref_team.seed
            assert fast_team.build_order == ref_team.build_order
            assert fast_team.covered_terms == ref_team.covered_terms
            assert fast_team.uncovered_terms == ref_team.uncovered_terms

    @staticmethod
    def _run(ranker_name, chain_length, seed):
        rng = np.random.default_rng(88_000 * chain_length + seed)
        net = toy_network(n_people=int(rng.integers(12, 22)), seed=seed)
        TestCommitFuzz._run_commit_chain(
            RANKERS[ranker_name](), net, chain_length, rng,
            lambda: RANKERS[ranker_name](),
        )

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_quick(self, ranker_name, chain_length, seed):
        self._run(ranker_name, chain_length, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_full(self, ranker_name, chain_length, seed):
        self._run(ranker_name, chain_length, seed)

    @staticmethod
    def _tiny_gcn(net, seed):
        """A small trained GCN over a private toy network (the shared
        session ranker cannot be used — commits mutate the base)."""
        embedding = train_ppmi_embedding(
            [sorted(net.skills(p)) for p in net.people()] * 2, dim=8, min_count=1
        )
        config = GcnRankerConfig(epochs=4, n_train_queries=6, seed=seed)
        return GcnExpertRanker(embedding, config).fit(net)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_gcn_quick(self, seed):
        rng = np.random.default_rng(89_000 + seed)
        net = toy_network(n_people=14, seed=seed)
        ranker = self._tiny_gcn(net, seed)
        # Training is fit-time-frozen, so the trained ranker itself is the
        # reference stack: full-rebuild scoring over the rebuilt network
        # shares no session state with the rebased path.
        self._run_commit_chain(ranker, net, 3, rng, lambda: ranker)

    @pytest.mark.slow
    @pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
    @pytest.mark.parametrize("seed", SLOW_SEEDS[:8])
    def test_gcn_full(self, chain_length, seed):
        rng = np.random.default_rng(89_000 * chain_length + seed)
        net = toy_network(n_people=16, seed=seed)
        ranker = self._tiny_gcn(net, seed)
        self._run_commit_chain(ranker, net, chain_length, rng, lambda: ranker)

    @staticmethod
    def _run_registry(ranker_name, seed):
        """Probe decisions after ``EngineRegistry.rebase`` — sessions
        dropped, engines re-keyed, memo entries retained through the
        deciding system's ``memo_survives`` (the ranker's for relevance,
        the former's for membership) — equal a cold engine on a
        from-scratch rebuild of the committed network.  Each target kind
        sees a random mixed commit and an edge-only one."""
        for membership in (False, True):
            for edges_only in (False, True):
                TestCommitFuzz._run_registry_case(
                    ranker_name, seed, membership, edges_only
                )

    @staticmethod
    def _run_registry_case(ranker_name, seed, membership, edges_only):
        rng = np.random.default_rng(91_000 + seed)
        net = toy_network(n_people=int(rng.integers(12, 20)), seed=seed)

        def make_target(ranker):
            if membership:
                return MembershipTarget(CoverTeamFormer(ranker))
            return RelevanceTarget(ranker, k=3)

        def edit(length):
            if not edges_only:
                return _commit_overlay(net, rng, length)
            overlay = NetworkOverlay(net)
            while overlay.n_flips < length:
                u, v = (int(x) for x in rng.choice(net.n_people, 2, replace=False))
                (overlay.remove_edge if overlay.has_edge(u, v) else overlay.add_edge)(u, v)
            return overlay

        ranker = RANKERS[ranker_name]()
        target = make_target(ranker)
        registry = EngineRegistry()
        registry.install(ranker, getattr(target, "former", None))
        engine = registry.engine(target, net)
        queries = [_random_query(net, rng) for _ in range(3)]
        for query in queries:  # warm the decision and score memos
            for person in range(net.n_people):
                engine.probe(person, query)
            for _ in range(3):
                person = int(rng.integers(0, net.n_people))
                engine.probe(
                    person, query, _commit_overlay(net, rng, int(rng.integers(1, 4)))
                )
        delta = edit(4).commit()
        while delta.is_empty:  # all-annihilating chains commit as no-ops
            delta = edit(4).commit()
        stats = registry.rebase(net, delta)
        assert stats["dropped_sessions"] >= 1
        assert stats["rebased_engines"] + stats["dropped_engines"] >= 1
        rebased = registry.engine(target, net)

        fresh_net = network_from_dict(network_to_dict(net))
        fresh_engine = ProbeEngine(
            make_target(RANKERS[ranker_name]()), fresh_net
        )
        for query in queries + [_random_query(net, rng)]:
            for person in range(net.n_people):
                assert rebased.probe(person, query) == fresh_engine.probe(
                    person, query
                )
            for _ in range(3):
                person = int(rng.integers(0, net.n_people))
                probe = _commit_overlay(net, rng, int(rng.integers(1, 4)))
                got = rebased.probe(person, query, probe)
                want = fresh_engine.probe(
                    person, query, _replay_overlay(probe, fresh_net)
                )
                assert got == want

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_registry_rebase_quick(self, ranker_name, seed):
        self._run_registry(ranker_name, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_registry_rebase_full(self, ranker_name, seed):
        self._run_registry(ranker_name, seed)

    def test_membership_decisions_after_edge_commit(self):
        """An edge-only commit moves no TF-IDF score, but it can move a
        cover team: the greedy reads members' edges.  Membership
        decisions memoized before the commit must not answer after it
        (the ranker's score predicate alone retained them all)."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            net = toy_network(n_people=14, seed=seed)
            ranker = DocumentExpertRanker()
            former = CoverTeamFormer(ranker)
            registry = EngineRegistry().install(ranker, former)
            target = MembershipTarget(former)
            query = _random_query(net, rng)
            engine = registry.engine(target, net)
            for person in range(net.n_people):
                engine.probe(person, query)
            u = min(former.form(query, net).members)
            v = int(rng.choice([p for p in range(net.n_people) if p != u]))
            overlay = NetworkOverlay(net)
            (overlay.remove_edge if net.has_edge(u, v) else overlay.add_edge)(u, v)
            registry.rebase(net, overlay.commit())
            engine = registry.engine(target, net)
            fresh_net = network_from_dict(network_to_dict(net))
            cold = ProbeEngine(
                MembershipTarget(CoverTeamFormer(DocumentExpertRanker())), fresh_net
            )
            stale = [
                person
                for person in range(net.n_people)
                if engine.probe(person, query) != cold.probe(person, query)
            ]
            assert not stale, f"seed {seed}, flip {(u, v)}: stale {stale}"
