"""JSON round-trip tests for explanation serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain import (
    Counterfactual,
    CounterfactualExplanation,
    EdgeFeature,
    FactualExplanation,
    FeatureAttribution,
    QueryTermFeature,
    SkillAssignmentFeature,
)
from repro.explain.serialize import (
    counterfactual_from_dict,
    counterfactual_to_dict,
    factual_from_dict,
    factual_to_dict,
    feature_from_dict,
    feature_to_dict,
    perturbation_from_dict,
    perturbation_to_dict,
)
from repro.graph.perturbations import (
    AddEdge,
    AddQueryTerm,
    AddSkill,
    RemoveEdge,
    RemoveQueryTerm,
    RemoveSkill,
)


class TestFeatureRoundTrip:
    @pytest.mark.parametrize(
        "feature",
        [
            QueryTermFeature("graph"),
            SkillAssignmentFeature(3, "mining"),
            EdgeFeature(1, 7),
        ],
    )
    def test_roundtrip(self, feature):
        payload = feature_to_dict(feature)
        json.dumps(payload)  # must be JSON-safe
        assert feature_from_dict(payload) == feature

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            feature_from_dict({"type": "nope"})


class TestPerturbationRoundTrip:
    @pytest.mark.parametrize(
        "perturbation",
        [
            AddSkill(2, "graph"),
            RemoveSkill(0, "mining"),
            AddEdge(4, 9),
            RemoveEdge(1, 2),
            AddQueryTerm("vision"),
            RemoveQueryTerm("privacy"),
        ],
    )
    def test_roundtrip(self, perturbation):
        payload = perturbation_to_dict(perturbation)
        json.dumps(payload)
        assert perturbation_from_dict(payload) == perturbation

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            perturbation_from_dict({"type": "nope"})


class TestExplanationRoundTrip:
    def test_factual(self):
        fx = FactualExplanation(
            person=5,
            query=frozenset({"graph", "mining"}),
            attributions=[
                FeatureAttribution(SkillAssignmentFeature(5, "graph"), 0.7),
                FeatureAttribution(QueryTermFeature("mining"), -0.1),
            ],
            base_value=0.0,
            full_value=1.0,
            n_evaluations=64,
            elapsed_seconds=0.5,
            method="kernel",
            pruned=True,
            kind="skills",
        )
        payload = factual_to_dict(fx)
        json.dumps(payload)
        back = factual_from_dict(payload)
        assert back.person == fx.person
        assert back.query == fx.query
        assert back.attributions == fx.attributions
        assert back.size == fx.size

    def test_counterfactual(self):
        cf = CounterfactualExplanation(
            person=3,
            query=frozenset({"graph"}),
            counterfactuals=[
                Counterfactual((AddSkill(3, "mining"), AddEdge(3, 7)), 4.0),
            ],
            initial_decision=False,
            n_probes=42,
            elapsed_seconds=1.5,
            kind="skill_addition",
            pruned=True,
            timed_out=False,
            candidate_count=12,
        )
        payload = counterfactual_to_dict(cf)
        json.dumps(payload)
        back = counterfactual_from_dict(payload)
        assert back.counterfactuals == cf.counterfactuals
        assert back.initial_decision is False
        assert back.candidate_count == 12

    def test_wrong_payload_types_rejected(self):
        with pytest.raises(ValueError):
            factual_from_dict({"type": "counterfactual"})
        with pytest.raises(ValueError):
            counterfactual_from_dict({"type": "factual"})


class TestServiceRoundTrip:
    """Requests, structured errors, and outcome-tagged responses — the
    wire format a deployed service ships to its frontend."""

    def _request(self, **overrides):
        from repro.service import ExplainRequest

        kwargs = dict(
            kind="cf_skills",
            person=4,
            query=("graph", "mining"),
            team=True,
            seed_member=2,
            tag="expert",
            timeout_seconds=1.5,
            probe_limit=500,
            session="alice",
        )
        kwargs.update(overrides)
        return ExplainRequest(**kwargs)

    def test_request(self):
        from repro.explain.serialize import request_from_dict, request_to_dict

        request = self._request()
        payload = request_to_dict(request)
        json.dumps(payload)
        assert request_from_dict(payload) == request

    def test_request_defaults(self):
        from repro.explain.serialize import request_from_dict, request_to_dict

        request = self._request(
            team=False, seed_member=None,
            timeout_seconds=None, probe_limit=None, session="",
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_error(self):
        from repro.explain.serialize import (
            explain_error_from_dict,
            explain_error_to_dict,
        )
        from repro.service import ExplainError

        error = ExplainError(
            kind="InjectedSessionError",
            message="injected session fault",
            retryable=True,
            traceback="Traceback (most recent call last): ...",
        )
        payload = explain_error_to_dict(error)
        json.dumps(payload)
        back = explain_error_from_dict(payload)
        assert back == error
        assert back.traceback == error.traceback  # excluded from ==, so check

    def test_failed_response(self):
        from repro.explain.serialize import response_from_dict, response_to_dict
        from repro.service import ExplainError, ExplainResponse

        response = ExplainResponse(
            request=self._request(),
            elapsed_seconds=0.25,
            error=ExplainError(kind="Rejected", message="load_shed:max_in_flight",
                               retryable=True),
            outcome="rejected",
        )
        payload = response_to_dict(response)
        json.dumps(payload)
        back = response_from_dict(payload)
        assert back == response
        assert not back.ok

    def test_degraded_response_with_explanation(self):
        from repro.explain.serialize import response_from_dict, response_to_dict
        from repro.service import ExplainResponse

        explanation = FactualExplanation(
            person=4,
            query=frozenset({"graph", "mining"}),
            attributions=[
                FeatureAttribution(SkillAssignmentFeature(4, "graph"), 0.4),
            ],
            base_value=0.0,
            full_value=1.0,
            n_evaluations=12,
            elapsed_seconds=0.1,
            method="exact-partial",
            pruned=True,
            kind="skills",
        )
        response = ExplainResponse(
            request=self._request(kind="skills"),
            explanation=explanation,
            elapsed_seconds=0.5,
            coalesced=True,
            outcome="degraded",
            degraded_reason="probe_budget",
            fallback="full_rebuild",
        )
        payload = response_to_dict(response)
        json.dumps(payload)
        back = response_from_dict(payload)
        assert back.outcome == "degraded"
        assert back.degraded_reason == "probe_budget"
        assert back.fallback == "full_rebuild"
        assert back.coalesced
        assert back.explanation.attributions == explanation.attributions
        assert back.ok and back.degraded


# ---------------------------------------------------------------------------
# property: a wire round trip never changes an explanation's signature
# ---------------------------------------------------------------------------
_ids = st.integers(0, 10_000)
_terms = st.text(alphabet="abcdefgh-_ ", min_size=1, max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge = st.tuples(_ids, _ids).filter(lambda uv: uv[0] != uv[1])
_features = st.one_of(
    st.builds(QueryTermFeature, _terms),
    st.builds(SkillAssignmentFeature, _ids, _terms),
    _edge.map(lambda uv: EdgeFeature(*uv)),
)
_perturbations = st.one_of(
    st.builds(AddSkill, _ids, _terms),
    st.builds(RemoveSkill, _ids, _terms),
    _edge.map(lambda uv: AddEdge(*uv)),
    _edge.map(lambda uv: RemoveEdge(*uv)),
    st.builds(AddQueryTerm, _terms),
    st.builds(RemoveQueryTerm, _terms),
)
_factual = st.builds(
    FactualExplanation,
    person=_ids,
    query=st.frozensets(_terms, max_size=4),
    attributions=st.lists(
        st.builds(FeatureAttribution, _features, _finite), max_size=8
    ),
    base_value=_finite,
    full_value=_finite,
    n_evaluations=st.integers(0, 10**6),
    elapsed_seconds=st.floats(0.0, 1e4),
    method=st.sampled_from(["exact", "kernel", "exact-partial"]),
    pruned=st.booleans(),
    kind=st.sampled_from(["skills", "query", "collaborations"]),
)
_counterfactual = st.builds(
    CounterfactualExplanation,
    person=_ids,
    query=st.frozensets(_terms, max_size=4),
    counterfactuals=st.lists(
        st.builds(
            Counterfactual,
            st.lists(_perturbations, min_size=1, max_size=4).map(tuple),
            _finite,
        ),
        max_size=5,
    ),
    initial_decision=st.booleans(),
    n_probes=st.integers(0, 10**6),
    elapsed_seconds=st.floats(0.0, 1e4),
    kind=st.sampled_from(["skill_removal", "skill_addition", "link_removal"]),
    pruned=st.booleans(),
    timed_out=st.booleans(),
    candidate_count=st.integers(0, 10**4),
)


def _over_the_wire(payload):
    return json.loads(json.dumps(payload, allow_nan=False))


@st.composite
def _explained_requests(draw):
    """A request and an explanation of the family its kind asks for."""
    from repro.service import COUNTERFACTUAL_KINDS, FACTUAL_KINDS, ExplainRequest

    factual = draw(st.booleans())
    explanation = draw(_factual if factual else _counterfactual)
    team = draw(st.booleans())
    request = ExplainRequest(
        kind=draw(st.sampled_from(FACTUAL_KINDS if factual else COUNTERFACTUAL_KINDS)),
        person=explanation.person,
        query=tuple(sorted(explanation.query)),
        team=team,
        seed_member=draw(st.none() | _ids) if team else None,
    )
    return request, explanation


class TestSignatureRoundTrip:
    """``explanation_signature`` is the service's bit-exact parity digest,
    so a serialize round trip (through JSON text, as on the wire) must
    leave it unchanged for any finite explanation."""

    @settings(max_examples=150, deadline=None)
    @given(case=_explained_requests())
    def test_explanation_round_trip(self, case):
        from repro.explain.serialize import explanation_from_dict, explanation_to_dict
        from repro.service import explanation_signature

        request, explanation = case
        back = explanation_from_dict(_over_the_wire(explanation_to_dict(explanation)))
        assert type(back) is type(explanation)
        assert explanation_signature(request, back) == explanation_signature(
            request, explanation
        )

    @settings(max_examples=150, deadline=None)
    @given(case=_explained_requests(), elapsed=st.floats(0.0, 1e4))
    def test_response_round_trip(self, case, elapsed):
        from repro.explain.serialize import response_from_dict, response_to_dict
        from repro.service import ExplainResponse, explanation_signature

        request, explanation = case
        response = ExplainResponse(
            request=request, explanation=explanation, elapsed_seconds=elapsed
        )
        back = response_from_dict(_over_the_wire(response_to_dict(response)))
        assert back.request == request
        assert explanation_signature(
            back.request, back.explanation
        ) == explanation_signature(request, explanation)
