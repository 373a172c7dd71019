"""SHAP exactness through the multi-query probe flushes.

The biased-assessment literature (Decorte et al.) insists explanation
pipelines be validated against exact references.  This suite does that for
the batched probe machinery: the KernelSHAP estimator, with its value
function routed through one :class:`ProbeEngine` (multi-query
``scores_multi`` flushes + batched delta forwards + the two-level score
memo), must agree
with exhaustive Shapley enumeration on small networks — for **every
ranker** — and every produced :class:`ShapResult` must satisfy the
efficiency axiom.

KernelSHAP recovers exact Shapley values whenever its coalition budget
enumerates every non-trivial coalition and no L1 sparsification is applied
(the constrained weighted regression is then fully determined); the tests
pick feature counts small enough for that regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy_network
from repro.explain import FactualConfig, FactualExplainer, RelevanceTarget
from repro.explain.features import QueryTermFeature
from repro.explain.shap import exact_shap, kernel_shap
from repro.search import (
    DocumentExpertRanker,
    HitsExpertRanker,
    PageRankExpertRanker,
    ProbeEngine,
)

RANKERS = {
    "pagerank": PageRankExpertRanker,
    "hits": HitsExpertRanker,
    "tfidf": DocumentExpertRanker,
}


def _query_for(net, n_terms=4, seed=3):
    skills = sorted(net.skill_universe())
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(skills), size=min(n_terms, len(skills)), replace=False)
    return frozenset(skills[int(i)] for i in picks)


def _explainer(ranker, net, k=5):
    target = RelevanceTarget(ranker, k=k)
    engine = ProbeEngine(target, net)
    return FactualExplainer(target, FactualConfig(), engine=engine), engine


def _subject(ranker, net, query):
    """Someone mid-ranking, so coalitions actually flip the decision."""
    return ranker.rank(query, net)[2]


class TestKernelEqualsExactThroughSharedSessions:
    """``kernel_shap`` (full enumeration budget, no L1) == ``exact_shap``
    when both route through the multi-query probe flushes."""

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    def test_query_features(self, ranker_name):
        net = toy_network(n_people=14, seed=5)
        ranker = RANKERS[ranker_name]()
        query = _query_for(net)
        explainer, engine = _explainer(ranker, net)
        person = _subject(ranker, net, query)
        features = [QueryTermFeature(t) for t in sorted(query)]
        fn = explainer._value_function(person, query, net, features)
        m = len(features)
        exact = exact_shap(fn, m)
        kernel = kernel_shap(fn, m, n_samples=2 ** m + 2 * m, l1_regularization=None)
        np.testing.assert_allclose(kernel.values, exact.values, atol=1e-6)
        assert kernel.base_value == exact.base_value
        assert kernel.full_value == exact.full_value
        # The sweep really went through the shared machinery: the engine
        # served multi-query flushes and/or memoized score vectors.
        assert engine.multi_flushes > 0 or engine.score_hits > 0

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    def test_skill_features(self, ranker_name):
        net = toy_network(n_people=14, seed=7)
        ranker = RANKERS[ranker_name]()
        query = _query_for(net, seed=11)
        explainer, _ = _explainer(ranker, net)
        person = _subject(ranker, net, query)
        features = explainer.skill_features(person, net)[:6]
        if not features:
            pytest.skip("no skill features in the neighborhood")
        fn = explainer._value_function(person, query, net, features)
        m = len(features)
        exact = exact_shap(fn, m)
        kernel = kernel_shap(fn, m, n_samples=2 ** m + 2 * m, l1_regularization=None)
        np.testing.assert_allclose(kernel.values, exact.values, atol=1e-6)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    @pytest.mark.parametrize("seed", range(5))
    def test_query_features_sweep(self, ranker_name, seed):
        net = toy_network(n_people=int(12 + seed), seed=seed)
        ranker = RANKERS[ranker_name]()
        query = _query_for(net, seed=seed + 50)
        explainer, _ = _explainer(ranker, net)
        person = _subject(ranker, net, query)
        features = [QueryTermFeature(t) for t in sorted(query)]
        fn = explainer._value_function(person, query, net, features)
        m = len(features)
        exact = exact_shap(fn, m)
        kernel = kernel_shap(fn, m, n_samples=2 ** m + 2 * m, l1_regularization=None)
        np.testing.assert_allclose(kernel.values, exact.values, atol=1e-6)


class TestEfficiencyAxiomEveryRanker:
    """Σφ == f(full) − f(∅) for every ranker and every factual kind —
    through the full explainer entry points (prefetch + shared engine)."""

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    def test_efficiency_holds(self, ranker_name):
        net = toy_network(n_people=14, seed=5)
        ranker = RANKERS[ranker_name]()
        query = _query_for(net)
        explainer, _ = _explainer(ranker, net)
        person = _subject(ranker, net, query)
        for method in ("explain_query", "explain_skills", "explain_collaborations"):
            result = getattr(explainer, method)(person, query, net)
            if result.method == "empty":
                # No influential edges (e.g. the graph-blind TF-IDF ranker
                # attributes nothing to collaborations): the sentinel
                # explanation carries no SHAP decomposition to check.
                continue
            total = sum(a.value for a in result.attributions)
            assert (
                abs(total - (result.full_value - result.base_value)) < 1e-6
            ), f"{ranker_name}.{method} violated efficiency"

    def test_efficiency_holds_gcn(self, small_gcn_ranker, small_dataset, small_query):
        net = small_dataset.network
        explainer, _ = _explainer(small_gcn_ranker, net, k=10)
        person = _subject(small_gcn_ranker, net, frozenset(small_query))
        result = explainer.explain_query(person, frozenset(small_query), net)
        total = sum(a.value for a in result.attributions)
        assert abs(total - (result.full_value - result.base_value)) < 1e-6


class TestSharedContextConsistency:
    """The value function's bulk (prefetch) path and its scalar path must
    produce identical coalition values — the shared context cannot drift
    from per-probe evaluation."""

    @pytest.mark.parametrize("ranker_name", sorted(RANKERS))
    def test_prefetched_equals_sequential(self, ranker_name):
        net = toy_network(n_people=14, seed=9)
        ranker = RANKERS[ranker_name]()
        query = _query_for(net, seed=21)
        person = _subject(ranker, net, query)
        features = [QueryTermFeature(t) for t in sorted(query)]
        target = RelevanceTarget(ranker, k=5)

        shared_explainer = FactualExplainer(
            target, FactualConfig(), engine=ProbeEngine(target, net)
        )
        shared_fn = shared_explainer._value_function(person, query, net, features)
        plain_engine = ProbeEngine(target, net, memoize=False, full_rebuild=True)
        plain_explainer = FactualExplainer(target, FactualConfig(), engine=plain_engine)
        plain_fn = plain_explainer._value_function(person, query, net, features)

        rng = np.random.default_rng(0)
        masks = [rng.random(len(features)) < 0.5 for _ in range(16)]
        shared_fn.prefetch(masks)  # bulk path first: fills the memos
        for mask in masks:
            assert shared_fn(mask) == plain_fn(mask)
