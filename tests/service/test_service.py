"""The explanation service: typed requests, the engine registry, and the
concurrent ``explain_many`` front door.

Parity contract under test: ``explain_many`` in deterministic single-
thread mode produces **bit-identical** explanations to per-call facade
invocation, and the sharded (thread-pool) mode matches the deterministic
mode — across all four rankers and both decision families.
"""

from __future__ import annotations

import pytest

from repro import ExES
from repro.datasets import toy_network
from repro.embeddings import train_ppmi_embedding
from repro.eval import (
    ExplanationSubjects,
    TeamSubjects,
    run_workload_experiment,
    search_requests,
    team_requests,
)
from repro.explain import BeamConfig, FactualConfig
from repro.explain.explanation import CounterfactualExplanation, FactualExplanation
from repro.linkpred import HeuristicLinkPredictor
from repro.search import (
    DocumentExpertRanker,
    GcnExpertRanker,
    GcnRankerConfig,
    HitsExpertRanker,
    PageRankExpertRanker,
)
from repro.service import (
    EXPLANATION_KINDS,
    FACADE_METHODS,
    EngineRegistry,
    ExplainRequest,
    ExplanationService,
    explanation_signature,
    make_requests,
)
from repro.team import CoverTeamFormer

K = 3
FACTUAL = FactualConfig(
    n_samples=24, max_samples=48, selection_samples=12, exact_limit=5
)
BEAM = BeamConfig(beam_size=4, n_candidates=4, max_size=3, n_explanations=2)


@pytest.fixture(scope="module")
def net():
    return toy_network(n_people=16, seed=3)


@pytest.fixture(scope="module")
def embedding(net):
    profiles = [sorted(net.skills(p)) for p in net.people()] * 2
    return train_ppmi_embedding(profiles, dim=8, min_count=1)


@pytest.fixture(scope="module")
def predictor(net):
    return HeuristicLinkPredictor("common_neighbors").fit(net)


@pytest.fixture(scope="module")
def gcn_ranker(net, embedding):
    return GcnExpertRanker(
        embedding, GcnRankerConfig(epochs=3, n_train_queries=4, seed=0)
    ).fit(net)


def _make_ranker(name, net, embedding, gcn_ranker):
    if name == "gcn":
        return gcn_ranker
    return {
        "pagerank": PageRankExpertRanker,
        "hits": HitsExpertRanker,
        "tfidf": DocumentExpertRanker,
    }[name]()


def _service(net, ranker, embedding, predictor, registry=None):
    return ExplanationService(
        network=net,
        ranker=ranker,
        embedding=embedding,
        link_predictor=predictor,
        former=CoverTeamFormer(ranker),
        k=K,
        factual_config=FACTUAL,
        beam_config=BEAM,
        registry=registry or EngineRegistry(),
    )


def _facade(net, ranker, embedding, predictor, registry=None):
    return ExES(
        network=net,
        ranker=ranker,
        embedding=embedding,
        link_predictor=predictor,
        former=CoverTeamFormer(ranker),
        k=K,
        factual_config=FACTUAL,
        beam_config=BEAM,
        registry=registry or EngineRegistry(),
    )


def _subjects(ranker, net, query):
    """(expert, non-expert) for the query — deterministic, guaranteed
    non-None on the toy network."""
    order = ranker.evaluate(query, net).order
    return int(order[0]), int(order[K])


def _signature(response):
    """A bit-exact digest of one response's explanation content (the
    canonical ``explanation_signature`` contract, after asserting the
    response succeeded)."""
    assert response.ok, response.error
    return explanation_signature(response.request, response.explanation)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


class TestExplainRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown explanation kind"):
            ExplainRequest(kind="nope", person=0, query=("a",))

    def test_negative_person_rejected(self):
        with pytest.raises(ValueError, match="person"):
            ExplainRequest(kind="skills", person=-1, query=("a",))

    def test_seed_member_requires_team(self):
        with pytest.raises(ValueError, match="seed_member"):
            ExplainRequest(kind="skills", person=0, query=("a",), seed_member=1)

    def test_query_canonicalized(self):
        """Order- and duplicate-insensitive: same terms -> equal requests
        (so hot requests coalesce and shard ordering is deterministic)."""
        request = ExplainRequest(kind="skills", person=0, query=["b", "a", "b"])
        assert request.query == ("a", "b")
        assert request.query_key == frozenset({"a", "b"})
        assert request == ExplainRequest(kind="skills", person=0, query={"a", "b"})

    def test_target_key_splits_families(self):
        plain = ExplainRequest(kind="skills", person=0, query=("a",))
        team = ExplainRequest(
            kind="skills", person=0, query=("a",), team=True, seed_member=2
        )
        assert plain.target_key != team.target_key

    def test_make_requests_one_per_kind(self):
        requests = make_requests(EXPLANATION_KINDS, 1, ("a", "b"), tag="x")
        assert len(requests) == len(EXPLANATION_KINDS)
        assert {r.kind for r in requests} == set(EXPLANATION_KINDS)
        assert all(r.tag == "x" for r in requests)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestEngineRegistry:
    def test_engine_reused_for_equal_targets(self, net, embedding, predictor):
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        assert service.engine() is service.engine()
        assert service.registry.engine_builds == 1

    def test_engines_split_by_seed_member(self, net, embedding, predictor):
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        a = service.engine(team=True, seed_member=0)
        b = service.engine(team=True, seed_member=1)
        assert a is not b
        assert service.engine(team=True, seed_member=0) is a

    def test_lru_bound_on_engines(self, net, embedding, predictor):
        """The unbounded ``ExES._engines`` leak is gone: engine count can
        never exceed the registry capacity, whatever the target churn."""
        registry = EngineRegistry(capacity=2)
        service = _service(
            net, PageRankExpertRanker(), embedding, predictor, registry=registry
        )
        for seed in range(6):
            service.engine(team=True, seed_member=seed)
        assert registry.n_engines <= 2

    def test_facades_share_engines_through_registry(
        self, net, embedding, predictor
    ):
        """Two facades wrapping the same deployed system answer from the
        same engine — the cross-facade reuse the service layer exists for."""
        ranker = PageRankExpertRanker()
        registry = EngineRegistry()
        former = CoverTeamFormer(ranker)
        kwargs = dict(
            network=net, ranker=ranker, embedding=embedding,
            link_predictor=predictor, former=former, k=K, registry=registry,
        )
        one, two = ExES(**kwargs), ExES(**kwargs)
        assert one.probe_engine() is two.probe_engine()
        assert one.probe_engine(team=True, seed_member=0) is two.probe_engine(
            team=True, seed_member=0
        )

    def test_drop_network_evicts(self, net, embedding, predictor):
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        engine = service.engine()
        assert service.registry.drop_network(net) >= 1
        assert service.engine() is not engine

    def test_version_drift_rebuilds_engine(self, embedding, predictor):
        mutable = toy_network(n_people=12, seed=1)
        service = _service(mutable, PageRankExpertRanker(), embedding, predictor)
        engine = service.engine()
        mutable.add_skill(0, "fresh-skill")
        fresh = service.engine()
        assert fresh is not engine
        assert fresh.base_version == mutable.version

    def test_registry_owns_ranker_sessions(self, net, embedding, predictor):
        """Installing the registry reroutes ``_session_for``: the session
        is registry-owned and stable across lookups."""
        ranker = PageRankExpertRanker()
        service = _service(net, ranker, embedding, predictor)
        assert ranker._session_store is service.registry
        first = ranker._session_for(net)
        assert first is not None
        assert ranker._session_for(net) is first
        assert service.registry.n_sessions >= 1

    def test_score_memo_shared_across_targets(self, net, embedding, predictor):
        """Score vectors are person- and target-independent: a forward
        computed under the relevance target must serve a membership
        engine's probe of the same (query, flips) state without another
        ranker evaluation."""
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        query = frozenset(sorted(net.skill_universe())[:3])
        relevance = service.engine()
        relevance.probe(0, query, net)  # computes + memoizes the vector
        membership = service.engine(team=True, seed_member=0)
        assert membership is not relevance
        before = membership.score_hits
        membership.probe(1, query, net)
        assert membership.score_hits == before + 1  # served from shared memo

    def test_set_full_rebuild_drops_engines(self, net, embedding, predictor):
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        engine = service.engine()
        service.set_full_rebuild(True)
        try:
            assert service.ranker.full_rebuild
            assert service.former.full_rebuild
            assert service.engine() is not engine
        finally:
            service.set_full_rebuild(False)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class TestDispatch:
    @pytest.fixture(scope="class")
    def service(self, net, embedding, predictor):
        return _service(net, PageRankExpertRanker(), embedding, predictor)

    @pytest.fixture(scope="class")
    def query(self, net):
        return tuple(sorted(net.skill_universe())[:3])

    @pytest.mark.parametrize("kind", EXPLANATION_KINDS)
    def test_every_kind_resolves(self, service, net, query, kind):
        expert, _ = _subjects(service.ranker, net, query)
        response = service.explain(
            ExplainRequest(kind=kind, person=expert, query=query)
        )
        assert response.ok
        expected = (
            FactualExplanation if response.request.is_factual
            else CounterfactualExplanation
        )
        assert isinstance(response.explanation, expected)
        assert response.elapsed_seconds >= 0

    def test_team_request_resolves(self, service, net, query):
        expert, _ = _subjects(service.ranker, net, query)
        team = service.former.form(query, net, seed_member=expert)
        member = sorted(team.members)[0]
        response = service.explain(
            ExplainRequest(
                kind="skills", person=member, query=query,
                team=True, seed_member=expert,
            )
        )
        assert response.ok
        assert isinstance(response.explanation, FactualExplanation)

    def test_localized_request_stamps_summary(self, service, net, query):
        """A ``localized=True`` request runs its probes under a per-request
        scope and stamps the plan summary on the response; the answer
        itself matches the plain request's explanation exactly."""
        expert, _ = _subjects(service.ranker, net, query)
        plain = service.explain(
            ExplainRequest(kind="skills", person=expert, query=query)
        )
        localized = service.explain(
            ExplainRequest(
                kind="skills", person=expert, query=query,
                localized=True, epsilon=1e-6,
            )
        )
        assert plain.ok and localized.ok
        assert plain.localized is None
        summary = localized.localized
        assert summary is not None
        assert summary["epsilon"] == 1e-6
        assert summary["exact"] + summary["sampled"] + summary["global"] > 0
        assert summary["max_residual_bound"] <= 1e-6 + 1e-9
        assert _signature(localized) == _signature(plain)

    def test_localized_epsilon_validation(self):
        with pytest.raises(ValueError, match="localized"):
            ExplainRequest(kind="skills", person=0, query=("a",), epsilon=1e-6)
        with pytest.raises(ValueError, match="epsilon"):
            ExplainRequest(
                kind="skills", person=0, query=("a",),
                localized=True, epsilon=0.0,
            )

    def test_localized_round_trips_the_wire(self, service, net, query):
        from repro.explain.serialize import (
            request_from_dict,
            request_to_dict,
            response_from_dict,
            response_to_dict,
        )

        expert, _ = _subjects(service.ranker, net, query)
        request = ExplainRequest(
            kind="skills", person=expert, query=query,
            localized=True, epsilon=1e-5,
        )
        assert request_from_dict(request_to_dict(request)) == request
        response = service.explain(request)
        revived = response_from_dict(response_to_dict(response))
        assert revived.request == request
        assert revived.localized == response.localized

    def test_explain_raises_without_former(self, net, embedding, predictor):
        service = ExplanationService(
            network=net, ranker=PageRankExpertRanker(), embedding=embedding,
            link_predictor=predictor, former=None, k=K,
            registry=EngineRegistry(),
        )
        with pytest.raises(ValueError, match="team formation"):
            service.explain(
                ExplainRequest(kind="skills", person=0, query=("a",), team=True)
            )

    def test_explain_many_captures_per_request_errors(
        self, net, embedding, predictor, query
    ):
        """One bad request degrades to ``response.error``; the rest of the
        batch still answers."""
        service = ExplanationService(
            network=net, ranker=PageRankExpertRanker(), embedding=embedding,
            link_predictor=predictor, former=None, k=K,
            factual_config=FACTUAL, beam_config=BEAM,
            registry=EngineRegistry(),
        )
        good = ExplainRequest(kind="query", person=0, query=query)
        bad = ExplainRequest(kind="query", person=0, query=query, team=True)
        responses = service.explain_many([good, bad, good], max_workers=1)
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].outcome == "failed"
        assert responses[1].error.kind == "ValueError"
        assert "team formation" in responses[1].error.message
        assert not responses[1].error.retryable  # validation never retries
        with pytest.raises(RuntimeError):
            responses[1].unwrap()

    @pytest.mark.parametrize("kind", ["cf_skills", "skills"])
    def test_out_of_range_seed_member_fails(self, service, net, query, kind):
        """A team request seeded by a person id outside the network
        answers ``failed`` with the network's IndexError — never a team
        grown around the last person."""
        request = ExplainRequest(
            kind=kind, person=1, query=query, team=True, seed_member=-1
        )
        (response,) = service.explain_many([request], max_workers=1)
        assert response.outcome == "failed"
        assert response.error.kind == "IndexError"
        assert "out of range" in response.error.message

    def test_responses_in_request_order(self, service, net, query):
        expert, nonexpert = _subjects(service.ranker, net, query)
        requests = [
            ExplainRequest(kind="query", person=nonexpert, query=query),
            ExplainRequest(kind="skills", person=expert, query=query),
            ExplainRequest(kind="query", person=expert, query=query),
        ]
        responses = service.explain_many(requests, max_workers=2)
        assert [r.request for r in responses] == requests

    def test_empty_batch(self, service):
        assert service.explain_many([]) == []

    def test_identical_requests_coalesced(self, service, net, query):
        """Hot (repeated) requests are answered once per batch and
        re-served bit-identically; ``coalesce=False`` recomputes."""
        expert, _ = _subjects(service.ranker, net, query)
        request = ExplainRequest(kind="skills", person=expert, query=query)
        first, second = service.explain_many([request, request], max_workers=1)
        assert not first.coalesced and second.coalesced
        assert second.explanation is first.explanation
        assert _signature(first) == _signature(second)
        plain = service.explain_many([request, request], coalesce=False)
        assert not any(r.coalesced for r in plain)
        assert plain[0].explanation is not plain[1].explanation
        assert _signature(plain[0]) == _signature(first)


# ---------------------------------------------------------------------------
# explain_many parity: per-call facade == single-thread == sharded
# ---------------------------------------------------------------------------

def _per_call_responses(facade, requests):
    """The seed-facade reference: one method call per request."""
    out = []
    for request in requests:
        explanation = getattr(facade, FACADE_METHODS[request.kind])(
            request.person,
            request.query,
            team=request.team,
            seed_member=request.seed_member,
        )
        out.append(
            type("R", (), {
                "request": request, "explanation": explanation,
                "ok": True, "error": None,
            })()
        )
    return out


def _parity_requests(ranker, former, net):
    query = tuple(sorted(net.skill_universe())[:3])
    expert, nonexpert = _subjects(ranker, net, query)
    kinds = ("skills", "query", "cf_skills", "cf_query")
    requests = list(
        make_requests(kinds, expert, query)
        + make_requests(kinds, nonexpert, query)
    )
    team = former.form(query, net, seed_member=expert)
    member = sorted(team.members)[0]
    requests += make_requests(
        ("skills", "cf_skills"), member, query, team=True, seed_member=expert
    )
    outside = sorted(set(net.people()) - team.members)[0]
    requests += make_requests(
        ("cf_skills",), outside, query, team=True, seed_member=expert
    )
    return requests


@pytest.mark.parametrize("ranker_name", ["pagerank", "hits", "tfidf", "gcn"])
def test_explain_many_parity(
    ranker_name, net, embedding, predictor, gcn_ranker
):
    """Deterministic service mode == per-call facade, bit for bit; the
    sharded mode == the deterministic mode — for every ranker, over mixed
    relevance + membership requests."""
    ranker = _make_ranker(ranker_name, net, embedding, gcn_ranker)
    former = CoverTeamFormer(ranker)
    requests = _parity_requests(ranker, former, net)

    facade = _facade(net, ranker, embedding, predictor)
    reference = [_signature(r) for r in _per_call_responses(facade, requests)]

    single = _service(net, ranker, embedding, predictor)
    got_single = [
        _signature(r) for r in single.explain_many(requests, max_workers=1)
    ]
    assert got_single == reference

    sharded = _service(net, ranker, embedding, predictor)
    got_sharded = [
        _signature(r) for r in sharded.explain_many(requests, max_workers=4)
    ]
    assert got_sharded == reference


class TestCrossRequestReuse:
    def test_shared_engine_answers_from_memo(self, net, embedding, predictor):
        """The second subject of the same query must hit the engine's
        person-independent score memo — the cross-request reuse that makes
        ``explain_many`` beat per-call invocation."""
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        query = tuple(sorted(net.skill_universe())[:3])
        expert, nonexpert = _subjects(service.ranker, net, query)
        requests = list(
            make_requests(("query",), expert, query)
            + make_requests(("query",), nonexpert, query)
        )
        service.explain_many(requests, max_workers=1)
        engine = service.engine()
        assert engine.hits + engine.score_hits > 0

    def test_team_base_runs_warm_across_facades(self, net, embedding, predictor):
        """Traced team base runs live in the registry-owned session: a
        second facade sharing the former starts with the trace warm."""
        ranker = PageRankExpertRanker()
        former = CoverTeamFormer(ranker)
        registry = EngineRegistry()
        kwargs = dict(
            network=net, ranker=ranker, embedding=embedding,
            link_predictor=predictor, former=former, k=K,
            factual_config=FACTUAL, beam_config=BEAM, registry=registry,
        )
        one = ExES(**kwargs)
        query = tuple(sorted(net.skill_universe())[:3])
        expert, _ = _subjects(ranker, net, query)
        team = former.form(query, net, seed_member=expert)
        member = sorted(team.members)[0]
        one.explain_many(
            make_requests(("cf_skills",), member, query, team=True, seed_member=expert),
            max_workers=1,
        )
        session = former._session_for(net)
        assert len(session._run_cache) >= 1

        two = ExES(**kwargs)
        assert two.former._session_for(net) is session  # trace stays warm


# ---------------------------------------------------------------------------
# workload builders + harness
# ---------------------------------------------------------------------------


class TestWorkloads:
    def test_search_requests_shape(self):
        subjects = [
            ExplanationSubjects(query=("a", "b"), expert=1, non_expert=2),
            ExplanationSubjects(query=("c",), expert=None, non_expert=4),
        ]
        requests = search_requests(subjects, kinds=("skills", "cf_query"))
        assert len(requests) == 2 * 2 + 1 * 2
        assert {r.tag for r in requests} == {"expert", "non_expert"}
        assert not any(r.team for r in requests)

    def test_team_requests_shape(self):
        subjects = [
            TeamSubjects(query=("a",), seed_member=0, member=1, non_member=None),
            TeamSubjects(query=("b",), seed_member=2, member=3, non_member=4),
        ]
        requests = team_requests(subjects, kinds=("skills",))
        assert len(requests) == 3
        assert all(r.team for r in requests)
        assert {r.seed_member for r in requests} == {0, 2}

    def test_run_workload_experiment(self, net, embedding, predictor):
        service = _service(net, PageRankExpertRanker(), embedding, predictor)
        query = tuple(sorted(net.skill_universe())[:3])
        expert, nonexpert = _subjects(service.ranker, net, query)
        subjects = [
            ExplanationSubjects(query=query, expert=expert, non_expert=nonexpert)
        ]
        requests = search_requests(subjects, kinds=("query", "cf_query"))
        report = run_workload_experiment(service, requests, max_workers=1)
        assert report.n_requests == len(requests)
        assert report.n_errors == 0
        assert report.requests_per_second > 0
        assert {row.kind for row in report.rows} == {"query", "cf_query"}
        assert all(row.latency_mean is not None for row in report.rows)
        # Probe flushes happened and were surfaced; single-thread mode
        # keeps the flush bus disarmed, so nothing may be bus-merged.
        flushes = report.fusion["multi_flushes"] + report.fusion["batch_flushes"]
        assert flushes > 0
        assert report.fusion["flushed_probes"] >= flushes
        assert report.fusion["bus_merged_flushes"] == 0
