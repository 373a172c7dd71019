"""Chaos suite: seeded fault injection against the full service stack.

The resilience contract under test (the PR's acceptance invariant):

1. **Typed termination** — with faults injected into delta sessions and
   memos, every request in ``explain_many`` comes back as a typed
   :class:`ExplainResponse` (an outcome from :data:`OUTCOMES`, an error
   object iff not ok) — no hung shards, no raw exceptions.
2. **Parity under faults** — every *completed* explanation is
   bit-identical to the full-rebuild reference
   (:func:`explanation_signature`): the degradation ladder may change
   *how* an answer is computed, never *what* it is.
3. **Bounded latency** — every request carrying ``timeout_seconds=t``
   returns within ``t + 0.25s`` (cooperative checks at probe-flush
   granularity bound the overshoot to one flush).

Faults are deterministic (seeded BLAKE2 rolls on probe-state keys), so
each grid cell replays identically; the quick grid runs by default and
the full sweep rides the ``slow`` marker.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.datasets import toy_network
from repro.graph import NetworkOverlay, network_from_dict, network_to_dict
from repro.embeddings import train_ppmi_embedding
from repro.explain import BeamConfig, FactualConfig
from repro.linkpred import HeuristicLinkPredictor
from repro.search import (
    DocumentExpertRanker,
    HitsExpertRanker,
    PageRankExpertRanker,
)
from repro.service import (
    EXPLANATION_KINDS,
    OUTCOMES,
    EngineRegistry,
    ExplanationService,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    explanation_signature,
    fault_injection,
    make_requests,
)
from repro.service.runtime import CircuitBreaker
from repro.team import CoverTeamFormer

K = 3
FACTUAL = FactualConfig(
    n_samples=16, max_samples=32, selection_samples=8, exact_limit=5
)
BEAM = BeamConfig(beam_size=3, n_candidates=4, max_size=2, n_explanations=1)

_RANKERS = {
    "pagerank": PageRankExpertRanker,
    "hits": HitsExpertRanker,
    "tfidf": DocumentExpertRanker,
}


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


def _service(net, embedding, predictor, ranker_name="pagerank", resilience=None):
    """A fresh service over a fresh ranker and registry — chaos runs must
    not share memos across tests (a warm memo absorbs probe charges and
    hides the behavior under test)."""
    ranker = _RANKERS[ranker_name]()
    return ExplanationService(
        network=net,
        ranker=ranker,
        embedding=embedding,
        link_predictor=predictor,
        former=CoverTeamFormer(ranker),
        k=K,
        factual_config=FACTUAL,
        beam_config=BEAM,
        registry=EngineRegistry(),
        resilience=resilience,
    )


def _workload(service, net, kinds=EXPLANATION_KINDS):
    """Every kind over both decision families: an expert and a
    non-expert for two queries (relevance), plus a team member and the
    seed's closest non-member (membership)."""
    skills = sorted(net.skill_universe())
    requests = []
    for query in (tuple(skills[:3]), tuple(skills[3:6])):
        order = service.ranker.evaluate(query, net).order
        expert, non_expert = int(order[0]), int(order[K])
        requests.extend(make_requests(kinds, expert, query, tag="expert"))
        requests.extend(make_requests(kinds, non_expert, query, tag="non_expert"))
    query = tuple(skills[:3])
    order = service.ranker.evaluate(query, net).order
    seed_member = int(order[0])
    team = service.former.form(query, net, seed_member=seed_member)
    others = sorted(team.members - {seed_member})
    if others:
        requests.extend(
            make_requests(
                kinds, others[0], query,
                team=True, seed_member=seed_member, tag="member",
            )
        )
    return requests


def _reference_signatures(service, requests):
    """Full-rebuild reference signatures, computed *before* any injector
    is installed — the parity target every chaos cell is judged against."""
    service.set_full_rebuild(True)
    try:
        responses = service.explain_many(requests, max_workers=1)
    finally:
        service.set_full_rebuild(False)
    signatures = {}
    for response in responses:
        assert response.ok, response.error
        signatures[response.request] = explanation_signature(
            response.request, response.explanation
        )
    return signatures


def _assert_chaos_invariants(responses, reference, injector):
    assert injector.total_fired() > 0, "chaos run injected nothing"
    completed = 0
    for response in responses:
        assert response.outcome in OUTCOMES
        assert response.ok == (response.error is None)
        if response.outcome in ("ok", "degraded"):
            assert response.explanation is not None
        else:
            assert response.error is not None
        if response.outcome == "ok":
            completed += 1
            assert (
                explanation_signature(response.request, response.explanation)
                == reference[response.request]
            ), f"parity broken under faults for {response.request}"
    assert completed > 0, "chaos run completed nothing"


MIXED_PLAN = FaultPlan(
    session_error_rate=0.15,
    stale_base_rate=0.05,
    memo_evict_rate=0.10,
    team_error_rate=0.15,
)
EVICT_SLOW_PLAN = FaultPlan(
    memo_evict_rate=0.30,
    slow_probe_rate=0.10,
    slow_probe_seconds=0.002,
)

QUICK_GRID = [
    ("pagerank", MIXED_PLAN, 11, 1),
    ("pagerank", EVICT_SLOW_PLAN, 12, 4),
]
FULL_GRID = [
    (ranker, plan, seed, workers)
    for ranker in ("pagerank", "hits", "tfidf")
    for plan in (MIXED_PLAN, EVICT_SLOW_PLAN)
    for seed in (11, 12, 13)
    for workers in (1, 4)
]


class TestChaosInvariants:
    @pytest.mark.parametrize("ranker_name,plan,seed,workers", QUICK_GRID)
    def test_quick_grid(
        self, net, embedding, predictor, ranker_name, plan, seed, workers
    ):
        self._run_cell(net, embedding, predictor, ranker_name, plan, seed, workers)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranker_name,plan,seed,workers", FULL_GRID)
    def test_full_sweep(
        self, net, embedding, predictor, ranker_name, plan, seed, workers
    ):
        self._run_cell(net, embedding, predictor, ranker_name, plan, seed, workers)

    @staticmethod
    def _run_cell(net, embedding, predictor, ranker_name, plan, seed, workers):
        service = _service(net, embedding, predictor, ranker_name)
        requests = _workload(service, net)
        reference = _reference_signatures(service, requests)
        injector = FaultInjector(plan, seed=seed)
        with fault_injection(injector):
            responses = service.explain_many(requests, max_workers=workers)
        _assert_chaos_invariants(responses, reference, injector)
        # Injected faults are retryable by construction: the reference
        # tier never reaches the fault sites, so every faulted request is
        # rescued and the whole batch completes.
        assert all(r.outcome == "ok" for r in responses)
        if service.stats.get("delta_failure"):
            assert service.stats.get("fallback.full_rebuild") > 0


class TestTimeoutBound:
    def test_deadline_bound_holds_under_faults(self, net, embedding, predictor):
        """Every request with ``timeout_seconds=t`` answers within
        ``t + 0.25s`` even while probes stall and sessions fail."""
        timeout = 0.05
        service = _service(net, embedding, predictor)
        requests = [
            dataclasses.replace(r, timeout_seconds=timeout)
            for r in _workload(service, net)
        ]
        plan = FaultPlan(
            session_error_rate=0.10,
            slow_probe_rate=0.30,
            slow_probe_seconds=0.01,
        )
        injector = FaultInjector(plan, seed=5)
        with fault_injection(injector):
            responses = service.explain_many(requests, max_workers=1)
        assert injector.total_fired() > 0
        for response in responses:
            assert response.outcome in OUTCOMES
            assert response.elapsed_seconds <= timeout + 0.25, (
                f"{response.request.kind} took {response.elapsed_seconds:.3f}s "
                f"against a {timeout}s deadline"
            )
            if response.outcome == "timed_out":
                assert response.error.kind == "BudgetExceeded"
                assert response.error.retryable
                assert response.degraded_reason == "deadline"

    def test_probe_budget_degrades_or_times_out(self, net, embedding, predictor):
        """A probe allowance mid-flight expiry is deterministic: the
        request lands in ``degraded`` (partial salvaged) or ``timed_out``
        (nothing to salvage), reasoned ``probe_budget``."""
        service = _service(net, embedding, predictor)
        query = tuple(sorted(net.skill_universe())[:3])
        expert = int(service.ranker.evaluate(query, net).order[0])
        # Size the allowance off an unbudgeted run on a *fresh* stack so
        # the budgeted run cannot be answered from warm memos.
        probe = _service(net, embedding, predictor)
        full = probe.explain(
            make_requests(("skills",), expert, query)[0]
        ).explanation.n_evaluations
        assert full > 4
        limited = make_requests(
            ("skills",), expert, query, probe_limit=max(4, full // 2)
        )[0]
        response = service.explain_many([limited], max_workers=1)[0]
        assert response.outcome in ("degraded", "timed_out")
        assert response.degraded_reason == "probe_budget"
        if response.outcome == "degraded":
            assert response.explanation.method.endswith("-partial")


class TestAdmissionControl:
    def test_saturated_pool_sheds_typed_rejections(
        self, net, embedding, predictor
    ):
        service = _service(
            net, embedding, predictor,
            resilience=ResilienceConfig(max_in_flight=1, session_share=1.0),
        )
        requests = _workload(service, net, kinds=("skills", "query"))
        service.admission.try_acquire("hog")  # saturate the pool
        try:
            responses = service.explain_many(requests, max_workers=1)
        finally:
            service.admission.release("hog")
        for response in responses:
            assert response.outcome == "rejected"
            assert response.error.kind == "Rejected"
            assert response.error.retryable
            assert response.error.message == "load_shed:max_in_flight"
            assert not response.coalesced  # sheds are never coalesced
        # Shedding is stateless back-pressure: the same batch succeeds
        # once the pool frees up.
        responses = service.explain_many(requests, max_workers=1)
        assert all(r.outcome == "ok" for r in responses)

    def test_session_fair_share_sheds_one_tenant(self, net, embedding, predictor):
        service = _service(
            net, embedding, predictor,
            resilience=ResilienceConfig(max_in_flight=4, session_share=0.25),
        )
        query = tuple(sorted(net.skill_universe())[:3])
        expert = int(service.ranker.evaluate(query, net).order[0])
        service.admission.try_acquire("alice")  # alice's fair share (cap 1)
        try:
            alice, bob = (
                make_requests(("skills",), expert, query, session=name)[0]
                for name in ("alice", "bob")
            )
            responses = service.explain_many([alice, bob], max_workers=1)
        finally:
            service.admission.release("alice")
        by_session = {r.request.session: r for r in responses}
        assert by_session["alice"].outcome == "rejected"
        assert by_session["alice"].error.message == "load_shed:session_share"
        assert by_session["bob"].outcome == "ok"


class TestDegradationLadder:
    def test_full_rebuild_rescues_a_poisoned_delta_path(
        self, net, embedding, predictor
    ):
        """Every delta flush fails, yet every answer completes — on the
        reference tier, parity-exact."""
        service = _service(net, embedding, predictor)
        requests = _workload(service, net, kinds=("skills", "query"))
        reference = _reference_signatures(service, requests)
        injector = FaultInjector(FaultPlan(session_error_rate=1.0), seed=0)
        with fault_injection(injector):
            responses = service.explain_many(requests, max_workers=1)
        _assert_chaos_invariants(responses, reference, injector)
        assert all(r.outcome == "ok" for r in responses)
        assert all(r.fallback == "full_rebuild" for r in responses if not r.coalesced)
        assert service.stats.get("fallback.full_rebuild") > 0

    def test_retry_disabled_surfaces_typed_failures(
        self, net, embedding, predictor
    ):
        service = _service(
            net, embedding, predictor,
            resilience=ResilienceConfig(full_rebuild_retry=False),
        )
        query = tuple(sorted(net.skill_universe())[:3])
        expert = int(service.ranker.evaluate(query, net).order[0])
        request = make_requests(("skills",), expert, query)[0]
        with fault_injection(FaultInjector(FaultPlan(session_error_rate=1.0))):
            response = service.explain_many([request], max_workers=1)[0]
        assert response.outcome == "failed"
        assert response.error.kind == "InjectedSessionError"
        assert response.error.retryable
        assert "injected session fault" in response.error.message
        assert response.error.traceback  # truncated trace travels along

    def test_breaker_opens_then_recovers_after_cooldown(
        self, net, embedding, predictor
    ):
        """Repeated delta failures open the circuit (requests route
        straight to the reference tier, skipping the doomed delta path);
        after the cooldown one healthy trial closes it again."""
        service = _service(
            net, embedding, predictor,
            resilience=ResilienceConfig(breaker_failure_threshold=2),
        )
        clock_now = [0.0]
        service.breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0,
            clock=lambda: clock_now[0],
        )
        skills = sorted(net.skill_universe())
        requests = []
        for query in (tuple(skills[:3]), tuple(skills[3:6])):
            expert = int(service.ranker.evaluate(query, net).order[0])
            requests.append(make_requests(("skills",), expert, query)[0])
        request = requests[0]
        bkey = service._breaker_key(request)  # shared: one relevance target

        # Two *distinct* requests (a rescue warms the memos, so a repeat
        # would be served delta-side from cache and reset the count).
        with fault_injection(FaultInjector(FaultPlan(session_error_rate=1.0))):
            for failing in requests:  # two consecutive delta failures -> open
                response = service.explain(failing)
                assert response.outcome == "ok"
                assert response.fallback == "full_rebuild"
        assert service.breaker.is_open(bkey)

        # Open circuit: the delta tier is skipped outright — no injector
        # needed to keep it on the reference path.
        response = service.explain(request)
        assert response.fallback == "full_rebuild"
        assert service.stats.get("breaker_reroute") >= 1

        # Cooldown elapses; the half-open trial runs a healthy delta
        # dispatch and closes the circuit.
        clock_now[0] = 30.0
        response = service.explain(request)
        assert response.outcome == "ok"
        assert response.fallback is None
        assert not service.breaker.is_open(bkey)


class TestCommitChaos:
    """Base commits racing live ``explain_many`` shards.

    The version gate's contract: a commit waits out the in-flight
    requests, lands atomically, and every response is computed — and
    stamped — against exactly one base version, never a mix.  The check
    is post-hoc and exact: the commit chain is replayed onto a pre-storm
    snapshot to rebuild the network at every stamped version, and each
    response must be bit-identical to the full-rebuild reference computed
    at *its own* version — an answer straddling two bases matches
    neither."""

    @staticmethod
    def _private_stack():
        """A private network (module fixtures are shared read-only —
        commits mutate the base in place) plus its trained components."""
        net = toy_network(n_people=16, seed=3)
        profiles = [sorted(net.skills(p)) for p in net.people()] * 2
        embedding = train_ppmi_embedding(profiles, dim=8, min_count=1)
        predictor = HeuristicLinkPredictor("common_neighbors").fit(net)
        return net, embedding, predictor

    # The id keeps the test's name from when it also ran a fused-flush case.
    @pytest.mark.parametrize("workers", (4,), ids=["4-False"])
    def test_commits_racing_shards(self, workers):
        net, embedding, predictor = self._private_stack()
        service = _service(net, embedding, predictor, "pagerank")
        requests = _workload(service, net)
        v0 = service.network.version
        snap0 = network_to_dict(net)
        target = net.n_people - 1

        commits = []
        stop = threading.Event()

        def storm():
            i = 0
            while not stop.is_set():
                overlay = NetworkOverlay(service.network)
                skill = f"__chaos{i}"
                done = (
                    overlay.remove_skill(target, skill)
                    if skill in service.network.skills(target)
                    else overlay.add_skill(target, skill)
                )
                if done:
                    commits.append(service.commit(overlay))
                i += 1
                stop.wait(0.005)

        thread = threading.Thread(target=storm, daemon=True)
        thread.start()
        try:
            responses = service.explain_many(requests, max_workers=workers)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert commits, "no commit landed while the batch ran"
        assert service.stats.get("commits") == len(commits)

        valid_versions = {v0} | {c.new_version for c in commits}
        for response in responses:
            assert response.outcome in OUTCOMES
            assert response.ok == (response.error is None)
            # One base version per response — stamped from the gate, a
            # member of the actually-committed version chain.
            assert response.base_version in valid_versions
        assert all(r.outcome == "ok" for r in responses)

        # Replay the commit chain onto the pre-storm snapshot to rebuild
        # the network at every stamped version, then hold each response to
        # the full-rebuild reference *at its own version*.
        states = {v0: snap0}
        replay = network_from_dict(snap0)
        for commit in commits:
            replay.apply_delta(commit.delta.skill_flips, commit.delta.edge_flips)
            states[commit.new_version] = network_to_dict(replay)
        by_version = {}
        for response in responses:
            by_version.setdefault(response.base_version, []).append(response)
        for version, members in sorted(by_version.items()):
            ref_net = network_from_dict(states[version])
            ref_service = _service(ref_net, embedding, predictor, "pagerank")
            reference = _reference_signatures(
                ref_service, [r.request for r in members]
            )
            for response in members:
                assert (
                    explanation_signature(response.request, response.explanation)
                    == reference[response.request]
                ), f"answer does not match its stamped base v{version}"


class TestChaosOverTheWire:
    """The chaos grid driven through a live server connection: the same
    seeded :class:`FaultPlan` fires inside the in-process service while
    the requests arrive (and the responses leave) over a real socket.
    The invariants are exactly the in-process grid's — typed outcome
    taxonomy, parity-exact ``ok`` answers against the fault-free
    full-rebuild reference — proving the process boundary neither
    launders outcomes nor perturbs answers."""

    @pytest.mark.parametrize("seed,workers", ((31, 1), (32, 4)))
    def test_faulted_batch_over_live_connection(
        self, net, embedding, predictor, seed, workers
    ):
        import asyncio

        from repro.serve import ExplanationServer, ServeClient, ServeConfig

        service = _service(net, embedding, predictor)
        # Stamp the session client-side so the wire round-trip returns
        # *equal* requests (the server stamps unstamped requests with
        # the connection session, which would shift request identity).
        requests = [
            dataclasses.replace(r, session="chaos")
            for r in _workload(service, net)
        ]
        reference = _reference_signatures(service, requests)
        injector = FaultInjector(MIXED_PLAN, seed=seed)

        async def scenario():
            server = await ExplanationServer(service, ServeConfig(port=0)).start()
            client = await ServeClient.connect(
                "127.0.0.1", server.port, session="chaos"
            )
            responses, summary = await client.explain_many(
                requests, max_workers=workers
            )
            await client.close()
            await server.shutdown()
            return responses, summary

        with fault_injection(injector):
            responses, summary = asyncio.run(
                asyncio.wait_for(scenario(), timeout=120)
            )
        _assert_chaos_invariants(responses, reference, injector)
        # The injected faults are retryable; the ladder rescues them all,
        # and the wire summary agrees with the per-response taxonomy.
        assert all(r.outcome == "ok" for r in responses)
        assert summary["outcomes"] == {"ok": len(requests)}
        if service.stats.get("delta_failure"):
            assert service.stats.get("fallback.full_rebuild") > 0
