"""End-to-end experiment loops producing the rows of Tables 7–14.

A :class:`Case` is one explanation task: a person, a query, and the
decision target (relevance for expert search, membership for team
formation — the latter carries its per-case seed member).  The two
``run_*_experiment`` functions iterate cases, run ExES and the requested
exhaustive baselines, and aggregate latency / size / count / precision
exactly the way the paper reports them.

:func:`run_workload_experiment` is the service-era loop: the paper's
100-query workloads, expressed as typed requests (see
:mod:`repro.eval.workload`), run through
``ExplanationService.explain_many`` — single-threaded or sharded — and
aggregate per-kind latency plus end-to-end throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.embeddings.similarity import SkillEmbedding
from repro.eval.metrics import (
    cf_precision,
    cf_precision_star,
    factual_precision_at_k,
    mean_ignoring_none,
)
from repro.explain.candidates import LinkPredictor
from repro.explain.counterfactual import BeamConfig, CounterfactualExplainer
from repro.explain.exhaustive import (
    ExhaustiveConfig,
    ExhaustiveCounterfactualExplainer,
    ExhaustiveFactualExplainer,
)
from repro.explain.explanation import CounterfactualExplanation, FactualExplanation
from repro.explain.factual import FactualConfig, FactualExplainer
from repro.explain.targets import DecisionTarget
from repro.graph.network import CollaborationNetwork


@dataclass(frozen=True)
class Case:
    """One explanation task."""

    person: int
    query: Tuple[str, ...]
    target: DecisionTarget
    label: str = ""  # expert / non_expert / member / non_member


def _mean(values: Sequence[float]) -> Optional[float]:
    vals = list(values)
    return sum(vals) / len(vals) if vals else None


# ---------------------------------------------------------------------------
# factual experiments (Tables 7, 9, 11, 13)
# ---------------------------------------------------------------------------


@dataclass
class FactualRow:
    """One row of a factual results table."""

    kind: str
    dataset: str
    n_cases: int
    latency_exes: Optional[float]
    size_exes: Optional[float]
    latency_baseline: Optional[float] = None
    size_baseline: Optional[float] = None
    precision_at_1: Optional[float] = None
    precision_at_5: Optional[float] = None


_FACTUAL_METHODS = {
    "skills": ("explain_skills", "explain_skills"),
    "query": ("explain_query", "explain_query"),
    "collaborations": ("explain_collaborations", "explain_collaborations"),
}


def run_factual_experiment(
    cases: Sequence[Case],
    network: CollaborationNetwork,
    kinds: Iterable[str] = ("skills", "query", "collaborations"),
    factual_config: Optional[FactualConfig] = None,
    exhaustive_config: Optional[ExhaustiveConfig] = None,
    with_baseline: bool = True,
    dataset_name: str = "",
) -> List[FactualRow]:
    """Run pruned (and optionally exhaustive) factual explanations.

    Query factuals have no exhaustive counterpart distinct from ExES
    (Table 4), so their baseline columns stay None even with
    ``with_baseline=True`` — matching the dashes in the paper's Table 7.
    """
    rows: List[FactualRow] = []
    for kind in kinds:
        if kind not in _FACTUAL_METHODS:
            raise ValueError(f"unknown factual kind: {kind!r}")
        exes_method, baseline_method = _FACTUAL_METHODS[kind]
        latencies: List[float] = []
        sizes: List[float] = []
        base_latencies: List[float] = []
        base_sizes: List[float] = []
        p1: List[Optional[float]] = []
        p5: List[Optional[float]] = []
        run_baseline = with_baseline and kind != "query"
        for case in cases:
            explainer = FactualExplainer(case.target, factual_config)
            pruned: FactualExplanation = getattr(explainer, exes_method)(
                case.person, case.query, network
            )
            latencies.append(pruned.elapsed_seconds)
            sizes.append(pruned.size)
            if run_baseline:
                baseline_explainer = ExhaustiveFactualExplainer(
                    case.target, exhaustive_config
                )
                full: FactualExplanation = getattr(
                    baseline_explainer, baseline_method
                )(case.person, case.query, network)
                base_latencies.append(full.elapsed_seconds)
                base_sizes.append(full.size)
                p1.append(factual_precision_at_k(pruned, full, 1))
                p5.append(factual_precision_at_k(pruned, full, 5))
        rows.append(
            FactualRow(
                kind=kind,
                dataset=dataset_name,
                n_cases=len(cases),
                latency_exes=_mean(latencies),
                size_exes=_mean(sizes),
                latency_baseline=_mean(base_latencies) if run_baseline else None,
                size_baseline=_mean(base_sizes) if run_baseline else None,
                precision_at_1=mean_ignoring_none(p1) if run_baseline else None,
                precision_at_5=mean_ignoring_none(p5) if run_baseline else None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# counterfactual experiments (Tables 8, 10, 12, 14)
# ---------------------------------------------------------------------------


@dataclass
class BaselineAggregate:
    """Aggregated exhaustive-baseline results for one CF experiment."""

    latency: Optional[float]
    size: Optional[float]
    n_explanations: int
    precision: Optional[float]
    precision_star: Optional[float]


@dataclass
class CounterfactualRow:
    """One row of a counterfactual results table."""

    kind: str
    dataset: str
    n_cases: int
    latency_exes: Optional[float]
    size_exes: Optional[float]
    n_explanations_exes: int
    baselines: Dict[str, BaselineAggregate] = field(default_factory=dict)

    @property
    def precision(self) -> Optional[float]:
        """Precision against the primary baseline (first configured)."""
        for agg in self.baselines.values():
            return agg.precision
        return None


_CF_METHODS = {
    "skill_removal": "explain_skill_removal",
    "skill_addition": "explain_skill_addition",
    "query_augmentation": "explain_query_augmentation",
    "link_removal": "explain_link_removal",
    "link_addition": "explain_link_addition",
}

_CF_BASELINE_METHODS = {
    "skill_removal": "explain_skill_removal",
    "query_augmentation": "explain_query_augmentation",
    "link_removal": "explain_link_removal",
    "link_addition": "explain_link_addition",
}


def _run_baseline(
    name: str,
    kind: str,
    case: Case,
    network: CollaborationNetwork,
    embedding: SkillEmbedding,
    exhaustive_config: Optional[ExhaustiveConfig],
    t_for_neighborhood: int,
    radius_for_skills: int,
) -> CounterfactualExplanation:
    explainer = ExhaustiveCounterfactualExplainer(case.target, exhaustive_config)
    if kind == "skill_addition":
        if name == "N":
            return explainer.explain_skill_addition_neighborhood(
                case.person, case.query, network, embedding, t=t_for_neighborhood
            )
        if name == "S":
            return explainer.explain_skill_addition_skills(
                case.person, case.query, network, radius=radius_for_skills
            )
        raise ValueError(
            f"skill_addition baselines are 'N' and 'S', got {name!r}"
        )
    if name != "full":
        raise ValueError(f"{kind} has a single baseline 'full', got {name!r}")
    return getattr(explainer, _CF_BASELINE_METHODS[kind])(
        case.person, case.query, network
    )


def run_counterfactual_experiment(
    cases: Sequence[Case],
    network: CollaborationNetwork,
    kind: str,
    embedding: SkillEmbedding,
    link_predictor: LinkPredictor,
    beam_config: Optional[BeamConfig] = None,
    exhaustive_config: Optional[ExhaustiveConfig] = None,
    baselines: Sequence[str] = ("full",),
    dataset_name: str = "",
    t_for_neighborhood: int = 10,
    radius_for_skills: int = 1,
) -> CounterfactualRow:
    """Run one counterfactual explanation type over all cases.

    ``baselines`` is ``("full",)`` for most kinds and ``("N", "S")`` for
    skill addition (the paper's two partial exhaustive baselines); pass
    ``()`` to skip baselines entirely (latency-only runs).
    """
    if kind not in _CF_METHODS:
        raise ValueError(f"unknown counterfactual kind: {kind!r}")
    latencies: List[float] = []
    sizes: List[float] = []
    n_explanations = 0
    per_baseline: Dict[str, Dict[str, list]] = {
        name: {"latency": [], "size": [], "count": [], "p": [], "p_star": []}
        for name in baselines
    }
    for case in cases:
        explainer = CounterfactualExplainer(
            case.target, embedding, link_predictor, beam_config
        )
        pruned: CounterfactualExplanation = getattr(explainer, _CF_METHODS[kind])(
            case.person, case.query, network
        )
        latencies.append(pruned.elapsed_seconds)
        n_explanations += len(pruned.counterfactuals)
        if pruned.counterfactuals:
            sizes.extend(c.size for c in pruned.counterfactuals)
        for name in baselines:
            full = _run_baseline(
                name, kind, case, network, embedding, exhaustive_config,
                t_for_neighborhood, radius_for_skills,
            )
            bucket = per_baseline[name]
            bucket["latency"].append(full.elapsed_seconds)
            bucket["count"].append(len(full.counterfactuals))
            if full.counterfactuals:
                bucket["size"].extend(c.size for c in full.counterfactuals)
            bucket["p"].append(cf_precision(pruned, full))
            bucket["p_star"].append(cf_precision_star(pruned, full))

    aggregates = {
        name: BaselineAggregate(
            latency=_mean(bucket["latency"]),
            size=_mean(bucket["size"]),
            n_explanations=sum(bucket["count"]),
            precision=mean_ignoring_none(bucket["p"]),
            precision_star=mean_ignoring_none(bucket["p_star"]),
        )
        for name, bucket in per_baseline.items()
    }
    return CounterfactualRow(
        kind=kind,
        dataset=dataset_name,
        n_cases=len(cases),
        latency_exes=_mean(latencies),
        size_exes=_mean(sizes),
        n_explanations_exes=n_explanations,
        baselines=aggregates,
    )


# ---------------------------------------------------------------------------
# service workloads (explain_many over typed requests)
# ---------------------------------------------------------------------------


@dataclass
class WorkloadKindRow:
    """Per-kind aggregation of one service workload run."""

    kind: str
    n_requests: int
    n_errors: int
    n_coalesced: int
    latency_mean: Optional[float]  # over computed (non-coalesced) responses
    size_mean: Optional[float]  # attributions (factual) / CFs found (CF)


@dataclass
class WorkloadReport:
    """The outcome of one ``explain_many`` workload pass."""

    n_requests: int
    n_errors: int
    n_coalesced: int
    elapsed_seconds: float
    max_workers: int
    rows: List[WorkloadKindRow] = field(default_factory=list)
    # Typed-outcome tally (ok/degraded/timed_out/rejected/failed) from
    # the service's resilience runtime; all-ok workloads show {"ok": n}.
    outcomes: Dict[str, int] = field(default_factory=dict)
    # Probe-flush activity this workload generated: the registry's engine
    # flush counters (empty for services without a registry).
    fusion: Dict[str, int] = field(default_factory=dict)
    # Per-request latency tail over computed responses
    # ({"p50": ..., "p95": ..., "p99": ...}) — the interactive-service
    # quality signal mean latency hides.
    latency_percentiles: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        return self.n_requests / self.elapsed_seconds if self.elapsed_seconds else 0.0


def aggregate_workload(
    responses: Sequence,
    elapsed: float,
    max_workers: int,
    fusion: Optional[Dict[str, int]] = None,
) -> WorkloadReport:
    """Aggregate one batch of typed responses into a
    :class:`WorkloadReport` — the shared tail of the local
    (:func:`run_workload_experiment`) and remote
    (:func:`run_remote_workload_experiment`) loops, so both report
    identical shapes from identical responses."""
    from repro.eval.workload import latency_percentiles, outcome_counts

    per_kind: Dict[str, Dict[str, list]] = {}
    for response in responses:
        bucket = per_kind.setdefault(
            response.request.kind,
            {"latency": [], "size": [], "n": 0, "errors": 0, "coalesced": 0},
        )
        bucket["n"] += 1
        if not response.ok:
            bucket["errors"] += 1
            continue
        if response.coalesced:
            # Re-served from an identical request's answer: its ~0s
            # elapsed would deflate the latency mean, so it only counts
            # toward throughput (and the coalesced tally).
            bucket["coalesced"] += 1
        else:
            bucket["latency"].append(response.elapsed_seconds)
        explanation = response.explanation
        size = getattr(explanation, "size", None)
        if size is None:
            counterfactuals = getattr(explanation, "counterfactuals", None)
            size = len(counterfactuals) if counterfactuals is not None else None
        if size is not None:
            bucket["size"].append(float(size))
    rows = [
        WorkloadKindRow(
            kind=kind,
            n_requests=bucket["n"],
            n_errors=bucket["errors"],
            n_coalesced=bucket["coalesced"],
            latency_mean=_mean(bucket["latency"]),
            size_mean=_mean(bucket["size"]),
        )
        for kind, bucket in sorted(per_kind.items())
    ]
    return WorkloadReport(
        n_requests=len(responses),
        n_errors=sum(row.n_errors for row in rows),
        n_coalesced=sum(row.n_coalesced for row in rows),
        elapsed_seconds=elapsed,
        max_workers=max_workers,
        rows=rows,
        outcomes=outcome_counts(responses),
        fusion=fusion or {},
        latency_percentiles=latency_percentiles(responses),
    )


def run_workload_experiment(
    service,
    requests: Sequence,
    max_workers: int = 1,
) -> WorkloadReport:
    """Run a typed request workload through the explanation service.

    ``max_workers=1`` is the deterministic single-thread mode; larger
    values shard independent decision targets across a thread pool.
    Per-request failures are counted, never raised — matching the
    service's degrade-per-request contract.
    """
    registry = getattr(service, "registry", None)
    flush_before: Dict[str, int] = {}
    if registry is not None and hasattr(registry, "flush_counters"):
        flush_before = registry.flush_counters()
    start = time.perf_counter()
    responses = service.explain_many(requests, max_workers=max_workers)
    elapsed = time.perf_counter() - start
    fusion: Dict[str, int] = {}
    if registry is not None and hasattr(registry, "flush_counters"):
        for name, value in registry.flush_counters().items():
            fusion[name] = value - flush_before.get(name, 0)
    return aggregate_workload(responses, elapsed, max_workers, fusion)


def run_remote_workload_experiment(
    host: str,
    port: int,
    requests: Sequence,
    max_workers: int = 1,
    session: str = "",
) -> WorkloadReport:
    """The remote mirror of :func:`run_workload_experiment`: the same
    typed requests driven over a socket through
    :class:`~repro.serve.server.ExplanationServer`, aggregated into the
    same report shape.  ``fusion`` comes from the server's ``batch_end``
    summary (the counters live in the server process, not here);
    ``elapsed_seconds`` is client wall clock, so it includes the wire."""
    from repro.serve.client import run_remote_workload

    start = time.perf_counter()
    responses, summary = run_remote_workload(
        host, port, requests, max_workers=max_workers, session=session or None
    )
    elapsed = time.perf_counter() - start
    return aggregate_workload(
        responses, elapsed, max_workers, summary.get("fusion", {})
    )


def run_edit_storm_experiment(
    service,
    requests: Sequence,
    n_edits: int,
    max_workers: int = 1,
    edit_interval_seconds: float = 0.02,
    edit_skill: str = "__storm",
):
    """Run a workload while a background thread commits live base edits.

    The ``--edits`` axis of ``python -m repro workload``: while
    :func:`run_workload_experiment` drives the request traffic, a storm
    thread toggles the synthetic skill ``edit_skill`` on a rotating
    person and promotes each flip through ``service.commit`` — so
    commits genuinely race ``explain_many`` shards through the service's
    version gate, and every response still lands on exactly one base
    version.  The synthetic skill never appears in any query, so the
    memoized scores and decisions survive every commit (the delta
    sessions are rebuilt on the first probe after each).

    Returns ``(report, commits)`` — the usual :class:`WorkloadReport`
    plus the :class:`~repro.service.service.CommitResult` list (fewer
    than ``n_edits`` when the workload finishes first).
    """
    import threading

    from repro.graph.overlay import NetworkOverlay

    network = service.network
    commits: List = []
    stop = threading.Event()

    def storm() -> None:
        for i in range(n_edits):
            if stop.is_set():
                break
            person = i % network.n_people
            overlay = NetworkOverlay(network)
            if edit_skill in network.skills(person):
                overlay.remove_skill(person, edit_skill)
            else:
                overlay.add_skill(person, edit_skill)
            commits.append(service.commit(overlay))
            stop.wait(edit_interval_seconds)

    thread = threading.Thread(target=storm, name="edit-storm", daemon=True)
    thread.start()
    try:
        report = run_workload_experiment(service, requests, max_workers=max_workers)
    finally:
        stop.set()
        thread.join()
    return report, commits
