"""The explanation service layer: typed requests, a shared engine
registry, and a concurrent ``explain_many`` front door.

* :class:`ExplainRequest` / :class:`ExplainResponse` — one explanation
  task (six kinds × relevance/membership) and its outcome.
* :class:`EngineRegistry` — bounded LRU ownership of probe engines and
  delta sessions, shared across targets, queries, and facade instances.
* :class:`ExplanationService` — the long-lived service (paper Figure 2):
  single requests through :meth:`~ExplanationService.explain`, batches
  through :meth:`~ExplanationService.explain_many` (target-sharded across
  a thread pool, deterministic at ``max_workers=1``).
* Resilience runtime — per-request :class:`~repro.runtime.Budget`\\ s,
  :class:`AdmissionControl` load-shedding, a full-rebuild degradation
  ladder with :class:`CircuitBreaker`\\ s, and the deterministic
  :class:`FaultInjector` the chaos suite drives.
"""

from repro.runtime import (
    Budget,
    BudgetExceeded,
    Deadline,
    budget_scope,
    delta_bypass,
    fault_injection,
    install_fault_injector,
)
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedSessionError,
    InjectedStaleBaseError,
)
from repro.service.registry import EngineRegistry, default_registry
from repro.service.requests import (
    COUNTERFACTUAL_KINDS,
    EXPLANATION_KINDS,
    FACTUAL_KINDS,
    FACADE_METHODS,
    OUTCOMES,
    ExplainError,
    ExplainRequest,
    ExplainResponse,
    explanation_signature,
    make_requests,
)
from repro.service.runtime import (
    AdmissionControl,
    CircuitBreaker,
    ResilienceConfig,
    ServiceStats,
)
from repro.service.service import ExplanationService

__all__ = [
    "COUNTERFACTUAL_KINDS",
    "EXPLANATION_KINDS",
    "FACTUAL_KINDS",
    "OUTCOMES",
    "AdmissionControl",
    "Budget",
    "BudgetExceeded",
    "CircuitBreaker",
    "Deadline",
    "EngineRegistry",
    "FACADE_METHODS",
    "ExplainError",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationService",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "InjectedSessionError",
    "InjectedStaleBaseError",
    "ResilienceConfig",
    "ServiceStats",
    "budget_scope",
    "default_registry",
    "delta_bypass",
    "explanation_signature",
    "fault_injection",
    "install_fault_injector",
    "make_requests",
]
