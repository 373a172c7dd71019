"""Typed requests and responses for the explanation service.

The paper frames ExES as an interactive tool answering many explanation
requests against one deployed system (Figure 2).  A request names *what*
to explain — one of the six explanation kinds over either decision family
(relevance status C for expert search, membership status M for team
formation, §3.5) — and the service resolves it to the right explainer,
engine, and probe sessions.

Kinds:

===================  =============================================
``skills``           factual SHAP over neighborhood skill assignments
``query``            factual SHAP over the query keywords
``collaborations``   factual SHAP over influential collaborations
``cf_skills``        counterfactual skill removal/addition (direction
                     inferred from the subject's current status)
``cf_query``         counterfactual query augmentation
``cf_collaborations`` counterfactual link removal/addition (direction
                     inferred from the subject's current status)
===================  =============================================

``team=True`` (optionally with ``seed_member``) switches the decision
being explained from relevance to team membership; every kind works for
either family, exactly like the ``ExES`` facade methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, Union

from repro.explain.explanation import CounterfactualExplanation, FactualExplanation

FACTUAL_KINDS: Tuple[str, ...] = ("skills", "query", "collaborations")
COUNTERFACTUAL_KINDS: Tuple[str, ...] = ("cf_skills", "cf_query", "cf_collaborations")
EXPLANATION_KINDS: Tuple[str, ...] = FACTUAL_KINDS + COUNTERFACTUAL_KINDS

#: The typed outcome taxonomy — every response lands in exactly one:
#:
#: ``ok``         complete explanation (possibly via full-rebuild fallback)
#: ``degraded``   partial explanation; the budget expired mid-search and
#:                best-so-far state was salvaged (``degraded_reason`` says
#:                whether the wall clock or the probe allowance tripped)
#: ``timed_out``  the budget expired before any partial state existed
#: ``rejected``   load-shed by admission control before any work ran
#: ``failed``     an exception survived the degradation ladder
OUTCOMES: Tuple[str, ...] = ("ok", "degraded", "timed_out", "rejected", "failed")

#: Which ``ExES`` facade method answers each kind — the per-call
#: reference the parity gates (tests + bench) compare the service
#: against, defined once so both gates drive the same methods.
FACADE_METHODS = {
    "skills": "explain_skills",
    "query": "explain_query",
    "collaborations": "explain_collaborations",
    "cf_skills": "counterfactual_skills",
    "cf_query": "counterfactual_query",
    "cf_collaborations": "counterfactual_collaborations",
}


@dataclass(frozen=True)
class ExplainRequest:
    """One explanation task: a kind, a subject, a query, and the decision
    family (relevance by default, membership with ``team=True``)."""

    kind: str
    person: int
    query: Tuple[str, ...]
    team: bool = False
    seed_member: Optional[int] = None
    tag: str = ""  # free-form caller label (workload bookkeeping)
    # Per-request execution budget, enforced cooperatively at probe-flush
    # granularity (None = unlimited, the default — and the deterministic
    # parity mode, since no budget means no code path changes).
    timeout_seconds: Optional[float] = None
    probe_limit: Optional[int] = None
    # Caller identity for admission control's per-session fair share.
    session: str = ""
    # Localized probe plans: PageRank probes run the bounded-error
    # forward-push kernel (l1 error <= epsilon) over the flips' cone,
    # with an exact global fallback when the cone exceeds the size
    # ceiling; other rankers run their exact global kernel.  ``epsilon``
    # tunes the sampled mode (None = the runtime default); it requires
    # ``localized=True``.
    localized: bool = False
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in EXPLANATION_KINDS:
            raise ValueError(
                f"unknown explanation kind {self.kind!r}; "
                f"expected one of {EXPLANATION_KINDS}"
            )
        if self.person < 0:
            raise ValueError(f"person must be a person id, got {self.person}")
        # Canonicalize the query: sorted, deduplicated tuple.  Queries are
        # order-free sets everywhere downstream (``as_query``), so two
        # requests naming the same terms in different orders (or as a
        # set) must compare equal — coalescing, shard grouping, and the
        # deterministic single-thread ordering all key on it.
        object.__setattr__(self, "query", tuple(sorted(set(self.query))))
        if not self.team and self.seed_member is not None:
            raise ValueError("seed_member only applies to team requests")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.probe_limit is not None and self.probe_limit < 1:
            raise ValueError(f"probe_limit must be >= 1, got {self.probe_limit}")
        if self.epsilon is not None:
            if not self.localized:
                raise ValueError("epsilon only applies to localized requests")
            if self.epsilon <= 0:
                raise ValueError(f"epsilon must be > 0, got {self.epsilon}")

    @property
    def is_factual(self) -> bool:
        return self.kind in FACTUAL_KINDS

    @property
    def query_key(self) -> frozenset:
        """The query as the frozenset the probe layer keys on."""
        return frozenset(self.query)

    @property
    def target_key(self) -> Tuple:
        """Which decision target (and therefore which probe engine) this
        request resolves against."""
        if self.team:
            return ("membership", self.seed_member)
        return ("relevance",)


Explanation = Union[FactualExplanation, CounterfactualExplanation]


@dataclass(frozen=True)
class ExplainError:
    """A structured failure attached to a response (never raised).

    ``kind`` is the exception class name (or a service-assigned tag like
    ``"BudgetExceeded"`` / ``"Rejected"``); ``retryable`` says whether the
    same request could plausibly succeed on resubmission (transient
    session/infrastructure faults yes, request validation no);
    ``traceback`` holds a truncated formatted traceback for debugging —
    excluded from equality so responses stay comparable across runs.
    """

    kind: str
    message: str
    retryable: bool = False
    traceback: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class ExplainResponse:
    """The outcome of one request: the explanation, or the error that
    prevented it (``explain_many`` never lets one bad request take down
    the batch).  ``coalesced`` marks a response served from an identical
    request answered earlier in the same batch.

    ``outcome`` is one of :data:`OUTCOMES`; ``degraded_reason`` carries
    the budget trip for partial results; ``fallback`` names the ladder
    tier that rescued the request (``"full_rebuild"``) when the delta
    path failed or its circuit was open.

    ``base_version`` stamps which network base version answered the
    request (None when the service predates live commits or the response
    was built outside a service).  The service's commit gate guarantees a
    response is computed against exactly one version — never a mix.

    ``localized`` carries the localized-scope summary for requests that
    asked for it: ``{"epsilon", "exact", "sampled", "global",
    "max_residual_bound"}`` — per-mode plan counts plus the worst
    certified l1 bound any sampled probe reported (0.0 when no probe was
    sampled).  None for global-mode requests.
    """

    request: ExplainRequest
    explanation: Optional[Explanation] = None
    elapsed_seconds: float = 0.0
    error: Optional[ExplainError] = None
    coalesced: bool = False
    outcome: str = "ok"
    degraded_reason: Optional[str] = None
    fallback: Optional[str] = None
    base_version: Optional[int] = None
    localized: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> bool:
        return self.outcome == "degraded"

    def unwrap(self) -> Explanation:
        """The explanation, raising if the request failed."""
        if self.explanation is None:
            raise RuntimeError(
                f"request {self.request.kind!r} for person "
                f"{self.request.person} failed ({self.outcome}): {self.error}"
            )
        return self.explanation


def explanation_signature(request: ExplainRequest, explanation: Explanation) -> Tuple:
    """A bit-exact digest of one explanation's content.

    The single definition of the service parity contract — the service
    tests, the fuzz suite's service axis, and the benchmark gate all
    compare per-call facade, deterministic ``explain_many``, and sharded
    ``explain_many`` responses through this digest, so they can never
    drift onto weaker notions of "identical".
    """
    head = (request.kind, request.person, request.team, request.seed_member)
    attributions = getattr(explanation, "attributions", None)
    if attributions is not None:  # factual
        return head + (
            tuple((repr(a.feature), a.value) for a in attributions),
            explanation.base_value,
            explanation.full_value,
        )
    return head + (  # counterfactual
        explanation.initial_decision,
        tuple(sorted(str(c.perturbations) for c in explanation.counterfactuals)),
    )


def make_requests(
    kinds: Iterable[str],
    person: int,
    query: Iterable[str],
    team: bool = False,
    seed_member: Optional[int] = None,
    tag: str = "",
    timeout_seconds: Optional[float] = None,
    probe_limit: Optional[int] = None,
    session: str = "",
    localized: bool = False,
    epsilon: Optional[float] = None,
) -> Tuple[ExplainRequest, ...]:
    """One request per kind for a single subject — the common workload
    building block."""
    query = tuple(query)
    return tuple(
        ExplainRequest(
            kind=kind, person=person, query=query,
            team=team, seed_member=seed_member, tag=tag,
            timeout_seconds=timeout_seconds, probe_limit=probe_limit,
            session=session, localized=localized, epsilon=epsilon,
        )
        for kind in kinds
    )
