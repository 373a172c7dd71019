"""Factual (SHAP) explanations with ExES's pruning strategies (paper §3.2).

Three feature families are explained for a person ``p_i``:

* **skills** — (person, skill) assignments, pruned by Network Locality
  (Pruning Strategy 1) to the skills inside N(p_i, d);
* **query terms** — the keywords of q (no pruning exists or is needed);
* **collaborations** — edges around p_i, pruned by Influential
  Collaborations (Pruning Strategy 2): a BFS from p_i that scores each
  expanded node's incident edges with SHAP and only keeps expanding across
  edges whose |SHAP| clears the threshold τ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.explain.explanation import FactualExplanation, FeatureAttribution
from repro.explain.features import (
    EdgeFeature,
    Feature,
    QueryTermFeature,
    SkillAssignmentFeature,
    masked_inputs,
    validate_features,
)
from repro.explain.shap import ShapExplainer, ShapResult
from repro.explain.targets import DecisionTarget
from repro.graph.network import CollaborationNetwork
from repro.graph.perturbations import Query, as_query
from repro.runtime import BudgetExceeded
from repro.search.engine import ProbeEngine


@dataclass(frozen=True)
class FactualConfig:
    """Knobs of the factual explainers (paper defaults from §4.1)."""

    radius: int = 1  # d for skill factuals
    collab_radius: int = 2  # d for collaboration factuals
    tau: float = 0.1  # influential-collaboration threshold
    exact_limit: int = 10  # exact Shapley when M <= this
    n_samples: int = 256  # KernelSHAP coalition budget (final attributions)
    max_samples: int = 2048  # hard cap on coalition evaluations
    selection_samples: int = 64  # cheaper budget for the Pruning-2 BFS stage
    max_bfs_expansions: int = 12  # cap on Pruning Strategy 2 node expansions
    seed: int = 0

    def __post_init__(self) -> None:
        if self.radius < 0 or self.collab_radius < 0:
            raise ValueError("radii must be non-negative")
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")


class _SharedMaskValueFunction:
    """The ExES value function: mask -> decision bit, probe-engine backed.

    Every coalition resolves to a probe state ``(person, q', G')`` via
    :func:`~repro.explain.features.masked_inputs` and is decided through
    one shared :class:`~repro.search.engine.ProbeEngine`, so identical
    masked states — across coalitions, selection vs. final SHAP stages, or
    sibling explainers sharing the engine — are scored once.  ``prefetch``
    flushes a whole mask set through :meth:`ProbeEngine.probe_batch`,
    which routes same-overlay/many-query sweeps through the ranker's
    :class:`~repro.search.engine.SharedProbeContext` and same-query/many-
    overlay sweeps through its batched delta forwards.
    """

    __slots__ = ("_engine", "_person", "_query", "_network", "_features")

    def __init__(self, engine, person, query, network, features) -> None:
        self._engine = engine
        self._person = person
        self._query = query
        self._network = network
        self._features = features

    def _state(self, mask: np.ndarray):
        net2, q2 = masked_inputs(self._features, mask, self._query, self._network)
        return q2, net2

    def __call__(self, mask: np.ndarray) -> float:
        q2, net2 = self._state(mask)
        return 1.0 if self._engine.decide(self._person, q2, net2) else 0.0

    def prefetch(self, masks) -> Optional[List[float]]:
        """Evaluate many coalitions through one batched probe flush and
        return their decision bits, one per mask, so the SHAP memo is
        filled without a second overlay build and memo walk per mask.

        Returns None (evaluating nothing) when the engine cannot memoize
        (``memoize=False`` or the ``full_rebuild`` reference path): those
        modes keep probing one coalition per ``__call__``.
        """
        if not self._engine.memoize or self._engine.full_rebuild:
            return None
        results = self._engine.probe_batch(
            [
                (self._person, q2, net2)
                for q2, net2 in (self._state(mask) for mask in masks)
            ]
        )
        return [1.0 if decision else 0.0 for decision, _ in results]


class FactualExplainer:
    """SHAP-based factual explanations of one decision target."""

    def __init__(
        self,
        target: DecisionTarget,
        config: FactualConfig | None = None,
        engine: ProbeEngine | None = None,
        engine_provider=None,
    ):
        self.target = target
        self.config = config or FactualConfig()
        self._engine = engine  # injected (ExES-shared) engine, if any
        # Registry hook: ``engine_provider(network) -> ProbeEngine`` lets
        # the explanation service hand out registry-owned engines for any
        # base network, so the explainer never constructs private ones.
        self._engine_provider = engine_provider
        self._auto_engine: ProbeEngine | None = None
        self._shap = ShapExplainer(
            exact_limit=self.config.exact_limit,
            n_samples=self.config.n_samples,
            seed=self.config.seed,
            max_samples=self.config.max_samples,
        )
        # The BFS of Pruning Strategy 2 only thresholds |φ| against τ, so a
        # rough, dense, low-budget estimate is enough there.
        self._selection_shap = ShapExplainer(
            exact_limit=min(6, self.config.exact_limit),
            n_samples=self.config.selection_samples,
            seed=self.config.seed,
            l1_regularization=None,
            max_samples=max(self.config.selection_samples, 128),
        )

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _engine_for(self, network: CollaborationNetwork) -> ProbeEngine:
        """Probes route through one engine, so identical masked states —
        across coalitions, selection vs. final SHAP stages, or sibling
        explainers sharing the injected engine — are scored once.  An
        ``engine_provider`` (the service registry) outranks the private
        fallback: even foreign networks then get shared engines."""
        if self._engine is not None and self._engine.accepts(network):
            return self._engine
        if self._engine_provider is not None:
            engine = self._engine_provider(network)
            if engine is not None and engine.accepts(network):
                return engine
        if self._auto_engine is None or not self._auto_engine.accepts(network):
            self._auto_engine = ProbeEngine(self.target, network)
        return self._auto_engine

    def _value_function(
        self,
        person: int,
        query: Query,
        network: CollaborationNetwork,
        features: Sequence[Feature],
    ):
        """f(mask) = the decision bit with masked-off features removed.

        The returned callable carries a ``prefetch`` bulk path: the SHAP
        estimators announce their whole coalition sweep up front, and the
        engine answers it through shared multi-query probe sessions
        (query-term masks sweep many query subsets over one pinned
        overlay) and batched delta forwards (skill/edge masks sweep many
        overlays under one query) instead of one probe per coalition.
        """
        return _SharedMaskValueFunction(
            self._engine_for(network), person, query, network, features
        )

    def _run_shap(
        self,
        person: int,
        query: Query,
        network: CollaborationNetwork,
        features: Sequence[Feature],
        selection: bool = False,
    ) -> ShapResult:
        validate_features(features, query, network)
        fn = self._value_function(person, query, network, features)
        explainer = self._selection_shap if selection else self._shap
        return explainer.explain(fn, len(features))

    def _package(
        self,
        person: int,
        query: Query,
        features: Sequence[Feature],
        result: ShapResult,
        elapsed: float,
        kind: str,
        pruned: bool,
        extra_evaluations: int = 0,
    ) -> FactualExplanation:
        attributions = [
            FeatureAttribution(feature=f, value=float(v))
            for f, v in zip(features, result.values)
        ]
        return FactualExplanation(
            person=person,
            query=query,
            attributions=attributions,
            base_value=result.base_value,
            full_value=result.full_value,
            n_evaluations=result.n_evaluations + extra_evaluations,
            elapsed_seconds=elapsed,
            method=result.method,
            pruned=pruned,
            kind=kind,
        )

    # ------------------------------------------------------------------
    # skill factuals (Pruning Strategy 1)
    # ------------------------------------------------------------------
    def skill_features(
        self, person: int, network: CollaborationNetwork
    ) -> List[SkillAssignmentFeature]:
        """All (person, skill) assignments inside N(p_i, d)."""
        nodes = sorted(network.neighborhood(person, self.config.radius))
        return [
            SkillAssignmentFeature(p, s)
            for p in nodes
            for s in sorted(network.skills(p))
        ]

    def explain_skills(
        self, person: int, query: Iterable[str], network: CollaborationNetwork
    ) -> FactualExplanation:
        """SHAP over the neighborhood's skill assignments (Example 1)."""
        query = as_query(query)
        start = time.perf_counter()
        features = self.skill_features(person, network)
        result = self._run_shap(person, query, network, features)
        return self._package(
            person, query, features, result,
            time.perf_counter() - start, "skills", pruned=True,
        )

    # ------------------------------------------------------------------
    # query factuals (no pruning possible: feature set is q itself)
    # ------------------------------------------------------------------
    def explain_query(
        self, person: int, query: Iterable[str], network: CollaborationNetwork
    ) -> FactualExplanation:
        """SHAP over the query keywords."""
        query = as_query(query)
        start = time.perf_counter()
        features: List[Feature] = [QueryTermFeature(t) for t in sorted(query)]
        result = self._run_shap(person, query, network, features)
        return self._package(
            person, query, features, result,
            time.perf_counter() - start, "query", pruned=True,
        )

    # ------------------------------------------------------------------
    # collaboration factuals (Pruning Strategy 2)
    # ------------------------------------------------------------------
    def influential_edges(
        self, person: int, query: Query, network: CollaborationNetwork
    ) -> Tuple[List[EdgeFeature], int]:
        """BFS over "impactful experts": expand a node, SHAP its incident
        edges, keep edges with |φ| ≥ τ, enqueue their far endpoints.

        Returns the impactful edge set I and the number of model
        evaluations spent selecting it.  A spent request budget stops the
        BFS and returns the edges found so far (the selection stage only
        thresholds |φ| against τ, so a truncated frontier merely prunes
        harder — it never invents edges).
        """
        allowed = network.neighborhood(person, self.config.collab_radius)
        queue: List[int] = [person]
        enqueued: Set[int] = {person}
        impactful: Dict[EdgeFeature, None] = {}  # ordered set
        evaluations = 0
        expansions = 0

        while queue and expansions < self.config.max_bfs_expansions:
            current = queue.pop(0)
            expansions += 1
            incident = [
                EdgeFeature(u, v)
                for (u, v) in network.incident_edges(current)
                if u in allowed and v in allowed
            ]
            fresh = [e for e in incident if e not in impactful]
            if not fresh:
                continue
            try:
                result = self._run_shap(person, query, network, fresh, selection=True)
            except BudgetExceeded:
                break
            evaluations += result.n_evaluations
            for edge, value in zip(fresh, result.values):
                if abs(value) >= self.config.tau:
                    impactful[edge] = None
                    far = edge.v if edge.u == current else edge.u
                    if far not in enqueued:
                        enqueued.add(far)
                        queue.append(far)
        return list(impactful), evaluations

    def explain_collaborations(
        self, person: int, query: Iterable[str], network: CollaborationNetwork
    ) -> FactualExplanation:
        """SHAP over the influential collaborations around p_i (Example 2)."""
        query = as_query(query)
        start = time.perf_counter()
        edges, selection_evals = self.influential_edges(person, query, network)
        if not edges:
            return FactualExplanation(
                person=person,
                query=query,
                attributions=[],
                base_value=0.0,
                full_value=1.0
                if self._engine_for(network).decide(person, query, network)
                else 0.0,
                n_evaluations=selection_evals + 1,
                elapsed_seconds=time.perf_counter() - start,
                method="empty",
                pruned=True,
                kind="collaborations",
            )
        try:
            result = self._run_shap(person, query, network, edges)
        except BudgetExceeded:
            # Budget spent before the final attribution pass could even
            # anchor f(∅)/f(full): the pruned edge set is still the useful
            # part of this explanation — return it with zeroed values.
            return FactualExplanation(
                person=person,
                query=query,
                attributions=[
                    FeatureAttribution(feature=e, value=0.0) for e in edges
                ],
                base_value=0.0,
                full_value=0.0,
                n_evaluations=selection_evals,
                elapsed_seconds=time.perf_counter() - start,
                method="selection-partial",
                pruned=True,
                kind="collaborations",
            )
        return self._package(
            person, query, edges, result,
            time.perf_counter() - start, "collaborations",
            pruned=True, extra_evaluations=selection_evals,
        )
