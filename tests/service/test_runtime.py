"""Unit tests for the resilience runtime's mechanism and policy layers.

Mechanism (:mod:`repro.runtime`): cooperative budgets, the thread-local
budget scope, the delta-bypass switch, and the fault-point hooks.  Policy
(:mod:`repro.service.runtime` / :mod:`repro.service.faults`): admission
control, circuit breakers, stats, and the deterministic fault injector.
Everything here is exercised in isolation — no networks, no rankers — so
the contracts the chaos suite leans on are pinned cheaply.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import (
    Budget,
    BudgetExceeded,
    active_budget,
    budget_scope,
    check_budget,
    delta_bypass,
    delta_bypassed,
    fault_injection,
    fault_point,
)
from repro.service import (
    AdmissionControl,
    CircuitBreaker,
    ExplainError,
    FaultInjector,
    FaultPlan,
    InjectedSessionError,
    InjectedStaleBaseError,
    ResilienceConfig,
    ServiceStats,
)


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------


class TestBudget:
    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        budget.charge(10_000)
        budget.check()
        assert budget.tripped is None
        assert budget.remaining_seconds() is None

    def test_probe_limit_trips_with_reason(self):
        budget = Budget(probe_limit=5)
        budget.charge(4)
        with pytest.raises(BudgetExceeded) as exc_info:
            budget.charge(1)
        assert exc_info.value.reason == "probe_budget"
        assert budget.tripped == "probe_budget"

    def test_charge_is_before_work(self):
        # The charge lands even though the check raises: the overshoot is
        # bounded by the single flush that was about to run.
        budget = Budget(probe_limit=2)
        with pytest.raises(BudgetExceeded):
            budget.charge(10)
        assert budget.probes == 10

    def test_deadline_trips_with_reason(self):
        budget = Budget(timeout_seconds=0.005)
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as exc_info:
            budget.check()
        assert exc_info.value.reason == "deadline"
        assert budget.tripped == "deadline"

    def test_poll_records_without_raising(self):
        budget = Budget(probe_limit=1)
        budget.probes = 1
        assert budget.poll() == "probe_budget"
        assert budget.tripped == "probe_budget"

    def test_tripped_keeps_first_reason(self):
        budget = Budget(timeout_seconds=0.001, probe_limit=1)
        budget.probes = 5
        first = budget.poll()
        time.sleep(0.005)
        budget.poll()
        assert budget.tripped == first

    def test_remaining_seconds_counts_down(self):
        budget = Budget(timeout_seconds=60.0)
        remaining = budget.remaining_seconds()
        assert remaining is not None and 0 < remaining <= 60.0


class TestBudgetScope:
    def test_no_scope_means_noop_checks(self):
        assert active_budget() is None
        check_budget()  # must not raise
        check_budget(10_000)

    def test_scope_installs_and_restores(self):
        budget = Budget(probe_limit=100)
        with budget_scope(budget):
            assert active_budget() is budget
            check_budget(3)
        assert active_budget() is None
        assert budget.probes == 3

    def test_scopes_nest_innermost_wins(self):
        outer, inner = Budget(probe_limit=10), Budget(probe_limit=10)
        with budget_scope(outer):
            with budget_scope(inner):
                check_budget(2)
            check_budget(5)
        assert inner.probes == 2
        assert outer.probes == 5

    def test_check_budget_raises_through_scope(self):
        with budget_scope(Budget(probe_limit=1)):
            with pytest.raises(BudgetExceeded):
                check_budget(2)

    def test_scope_is_thread_local(self):
        budget = Budget(probe_limit=1)
        seen = {}

        def other_thread():
            seen["budget"] = active_budget()

        with budget_scope(budget):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen["budget"] is None


class TestDeltaBypass:
    def test_off_by_default(self):
        assert not delta_bypassed()

    def test_scoped_and_restored(self):
        with delta_bypass():
            assert delta_bypassed()
            with delta_bypass():
                assert delta_bypassed()
            assert delta_bypassed()
        assert not delta_bypassed()

    def test_thread_local(self):
        seen = {}

        def other_thread():
            seen["bypassed"] = delta_bypassed()

        with delta_bypass():
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen["bypassed"] is False


# ---------------------------------------------------------------------------
# AdmissionControl
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_admits_until_max_in_flight(self):
        admission = AdmissionControl(max_in_flight=2, session_share=1.0)
        assert admission.try_acquire("a") is None
        assert admission.try_acquire("b") is None
        assert admission.try_acquire("c") == "load_shed:max_in_flight"
        assert admission.in_flight == 2

    def test_release_frees_a_slot(self):
        admission = AdmissionControl(max_in_flight=1, session_share=1.0)
        assert admission.try_acquire("a") is None
        assert admission.try_acquire("b") is not None
        admission.release("a")
        assert admission.try_acquire("b") is None
        assert admission.in_flight == 1

    def test_session_fair_share(self):
        # cap = max(1, int(4 * 0.5)) = 2: one session cannot hog the pool.
        admission = AdmissionControl(max_in_flight=4, session_share=0.5)
        assert admission.try_acquire("greedy") is None
        assert admission.try_acquire("greedy") is None
        assert admission.try_acquire("greedy") == "load_shed:session_share"
        assert admission.try_acquire("other") is None

    def test_session_cap_floor_is_one(self):
        admission = AdmissionControl(max_in_flight=1, session_share=0.1)
        assert admission.session_cap == 1
        assert admission.try_acquire("a") is None

    def test_release_cleans_up_session_counts(self):
        admission = AdmissionControl(max_in_flight=4, session_share=0.5)
        admission.try_acquire("a")
        admission.release("a")
        assert admission._per_session == {}


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


KEY = ("relevance", 1, 0)


class TestCircuitBreaker:
    def test_closed_allows_delta(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.allows_delta(KEY)
        assert not breaker.is_open(KEY)

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure(KEY)
            assert breaker.allows_delta(KEY)
        breaker.record_failure(KEY)
        assert breaker.is_open(KEY)
        assert not breaker.allows_delta(KEY)
        assert breaker.opened == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure(KEY)
        breaker.record_success(KEY)
        breaker.record_failure(KEY)
        assert not breaker.is_open(KEY)

    def test_half_open_admits_exactly_one_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure(KEY)
        assert not breaker.allows_delta(KEY)
        clock.advance(10.0)
        assert breaker.allows_delta(KEY)  # the trial slot
        assert not breaker.allows_delta(KEY)  # trial already in flight

    def test_trial_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure(KEY)
        clock.advance(10.0)
        assert breaker.allows_delta(KEY)
        breaker.record_success(KEY)
        assert not breaker.is_open(KEY)
        assert breaker.allows_delta(KEY)

    def test_trial_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure(KEY)
        clock.advance(10.0)
        assert breaker.allows_delta(KEY)
        breaker.record_failure(KEY)
        clock.advance(5.0)  # cooldown restarted: 5s is not enough
        assert not breaker.allows_delta(KEY)
        clock.advance(5.0)
        assert breaker.allows_delta(KEY)

    def test_trial_inconclusive_frees_the_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure(KEY)
        clock.advance(10.0)
        assert breaker.allows_delta(KEY)
        breaker.trial_inconclusive(KEY)
        assert breaker.is_open(KEY)  # still open ...
        assert breaker.allows_delta(KEY)  # ... but the next caller may try

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure(KEY)
        other = ("membership", 3, 7, 1)
        assert breaker.allows_delta(other)
        assert not breaker.is_open(other)


# ---------------------------------------------------------------------------
# ServiceStats / configs
# ---------------------------------------------------------------------------


class TestServiceStats:
    def test_bump_get_snapshot(self):
        stats = ServiceStats()
        stats.bump("outcome.ok")
        stats.bump("outcome.ok", 2)
        stats.bump("delta_failure")
        assert stats.get("outcome.ok") == 3
        assert stats.get("missing") == 0
        assert stats.snapshot() == {"outcome.ok": 3, "delta_failure": 1}

    def test_snapshot_is_a_copy(self):
        stats = ServiceStats()
        stats.bump("x")
        snap = stats.snapshot()
        snap["x"] = 99
        assert stats.get("x") == 1


class TestResilienceConfig:
    def test_defaults_are_inert(self):
        config = ResilienceConfig()
        assert config.max_in_flight is None
        assert config.full_rebuild_retry

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"session_share": 0.0},
            {"session_share": 1.5},
            {"breaker_failure_threshold": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)


class TestExplainError:
    def test_str_is_kind_and_message(self):
        error = ExplainError(kind="ValueError", message="bad seed")
        assert str(error) == "ValueError: bad seed"

    def test_traceback_excluded_from_equality(self):
        a = ExplainError(kind="E", message="m", traceback="trace-a")
        b = ExplainError(kind="E", message="m", traceback="trace-b")
        assert a == b


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


class FakeEngine:
    def __init__(self):
        self._memo = {"k": 1}
        self._score_memo = {"k": 2}


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(session_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(memo_evict_rate=-0.1)


class TestFaultInjector:
    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        for i in range(50):
            injector.fire("session.scores", key=(("q",), i))
        assert injector.total_fired() == 0

    def test_full_rate_always_raises_session_error(self):
        injector = FaultInjector(FaultPlan(session_error_rate=1.0), seed=0)
        with pytest.raises(InjectedSessionError):
            injector.fire("session.scores", key=(("q",),))
        assert injector.fired == {"session.scores/error": 1}

    def test_stale_base_effect(self):
        injector = FaultInjector(FaultPlan(stale_base_rate=1.0), seed=0)
        with pytest.raises(InjectedStaleBaseError):
            injector.fire("session.scores", key=(("q",),))

    def test_team_site_uses_team_rate(self):
        # session_error_rate must not leak onto the team site and vice
        # versa — the two families degrade independently.
        injector = FaultInjector(FaultPlan(session_error_rate=1.0), seed=0)
        injector.fire("team.form", key=(("q",), 3))  # must not raise
        injector = FaultInjector(FaultPlan(team_error_rate=1.0), seed=0)
        with pytest.raises(InjectedSessionError):
            injector.fire("team.form", key=(("q",), 3))

    def test_eviction_clears_engine_memos(self):
        injector = FaultInjector(FaultPlan(memo_evict_rate=1.0), seed=0)
        engine = FakeEngine()
        injector.fire("session.scores", key=(("q",),), engine=engine)
        assert engine._memo == {} and engine._score_memo == {}
        assert injector.fired == {"session.scores/evict": 1}

    def test_deterministic_across_call_order(self):
        plan = FaultPlan(session_error_rate=0.3, stale_base_rate=0.2)
        keys = [(("q", i), ("f", j)) for i in range(10) for j in range(3)]

        def outcomes(key_order):
            injector = FaultInjector(plan, seed=7)
            result = {}
            for key in key_order:
                try:
                    injector.fire("session.scores", key=key)
                    result[key] = None
                except InjectedSessionError:
                    result[key] = "error"
                except InjectedStaleBaseError:
                    result[key] = "stale"
            return result

        forward = outcomes(keys)
        backward = outcomes(list(reversed(keys)))
        assert forward == backward
        assert set(forward.values()) > {None}  # some keys actually fault

    def test_seed_changes_the_fault_set(self):
        plan = FaultPlan(session_error_rate=0.3)
        keys = [(("q", i),) for i in range(40)]

        def faulted(seed):
            injector = FaultInjector(plan, seed=seed)
            hits = set()
            for key in keys:
                try:
                    injector.fire("session.scores", key=key)
                except InjectedSessionError:
                    hits.add(key)
            return hits

        assert faulted(1) != faulted(2)

    def test_rate_roughly_respected(self):
        plan = FaultPlan(session_error_rate=0.25)
        injector = FaultInjector(plan, seed=3)
        errors = 0
        for i in range(400):
            try:
                injector.fire("session.scores", key=(("q", i),))
            except InjectedSessionError:
                errors += 1
        assert 0.15 < errors / 400 < 0.35


class TestFaultPoint:
    def test_noop_without_injector(self):
        fault_point("session.scores", key=(("q",),))  # must not raise

    def test_scoped_injection(self):
        injector = FaultInjector(FaultPlan(session_error_rate=1.0), seed=0)
        with fault_injection(injector):
            with pytest.raises(InjectedSessionError):
                fault_point("session.scores", key=(("q",),))
        fault_point("session.scores", key=(("q",),))  # uninstalled again

    def test_key_function_runs_only_under_an_injector(self):
        built = []

        def key():
            built.append(1)
            return (("q",),)

        fault_point("session.scores", key=key)
        assert built == []
        plan = FaultPlan(session_error_rate=0.5)
        fired = {}
        for label, arg in (("function", key), ("tuple", (("q",),))):
            with fault_injection(FaultInjector(plan, seed=4)):
                try:
                    fault_point("session.scores", key=arg)
                    fired[label] = False
                except InjectedSessionError:
                    fired[label] = True
        assert built == [1]
        assert fired["function"] == fired["tuple"]  # the same key either way

    @staticmethod
    def _factual_explains():
        from repro.datasets import toy_network
        from repro.explain import FactualConfig, FactualExplainer, RelevanceTarget
        from repro.search import PageRankExpertRanker, ProbeEngine

        net = toy_network(n_people=14, seed=2)
        ranker = PageRankExpertRanker()
        query = frozenset(sorted(net.skill_universe())[:3])
        person = ranker.rank(query, net)[2]
        target = RelevanceTarget(ranker, k=4)
        explainer = FactualExplainer(
            target, FactualConfig(n_samples=32, max_samples=64), engine=ProbeEngine(target, net)
        )
        for explain in (
            explainer.explain_skills,
            explainer.explain_collaborations,
            explainer.explain_query,
        ):
            explain(person, query, net)

    def test_no_fault_keys_without_an_injector(self, monkeypatch):
        """Outside chaos runs the probe engine's flush keys — a sorted
        ``repr`` of every flip — are never built."""
        import repro.search.engine as engine_module

        def refuse(*args):
            raise AssertionError("fault key built with no injector installed")

        monkeypatch.setattr(engine_module, "_fault_key", refuse)
        self._factual_explains()

    def test_injector_receives_built_keys(self):
        class Recorder:
            def __init__(self):
                self.keys = []

            def fire(self, site, key, engine=None):
                self.keys.append(key)

        recorder = Recorder()
        with fault_injection(recorder):
            self._factual_explains()
        assert recorder.keys
        for key in recorder.keys:
            query_part, flips_part = key
            assert isinstance(query_part, tuple) and isinstance(flips_part, tuple)
            assert all(isinstance(flip, str) for flip in flips_part)
