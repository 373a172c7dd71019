"""The feature space of an explanation and its masking semantics.

The paper (§3.1) fixes the features as: the query keywords, every
(person, skill) assignment, and every collaboration edge.  For factual
explanations SHAP toggles features *off*, which we realize as removal
perturbations applied to copies of the inputs; a feature that is "present"
is left exactly as in the original (q, G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import (
    Perturbation,
    Query,
    RemoveEdge,
    RemoveQueryTerm,
    RemoveSkill,
)


@dataclass(frozen=True)
class QueryTermFeature:
    """One keyword of the search query."""

    term: str

    def removal(self) -> Perturbation:
        return RemoveQueryTerm(self.term)

    def label(self, network: CollaborationNetwork) -> str:
        return f"query:{self.term}"


@dataclass(frozen=True)
class SkillAssignmentFeature:
    """One (person, skill) assignment in the network."""

    person: int
    skill: str

    def removal(self) -> Perturbation:
        return RemoveSkill(self.person, self.skill)

    def label(self, network: CollaborationNetwork) -> str:
        return f"{network.name(self.person)}:{self.skill}"


@dataclass(frozen=True)
class EdgeFeature:
    """One collaboration edge (u, v), canonically u < v."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    def removal(self) -> Perturbation:
        return RemoveEdge(self.u, self.v)

    def label(self, network: CollaborationNetwork) -> str:
        return f"{network.name(self.u)} -- {network.name(self.v)}"


Feature = Union[QueryTermFeature, SkillAssignmentFeature, EdgeFeature]


def validate_features(
    features: Sequence[Feature],
    query: Query,
    network: CollaborationNetwork,
) -> None:
    """Every feature must exist in (q, G) — masking absent features would
    silently produce no-op coalitions and biased SHAP values."""
    for feat in features:
        if isinstance(feat, QueryTermFeature):
            if feat.term not in query:
                raise ValueError(f"query feature not in query: {feat.term!r}")
        elif isinstance(feat, SkillAssignmentFeature):
            if not network.has_skill(feat.person, feat.skill):
                raise ValueError(
                    f"skill feature absent: person {feat.person} lacks {feat.skill!r}"
                )
        elif isinstance(feat, EdgeFeature):
            if not network.has_edge(feat.u, feat.v):
                raise ValueError(f"edge feature absent: ({feat.u}, {feat.v})")
        else:
            raise TypeError(f"unknown feature type: {type(feat).__name__}")


def masked_inputs(
    features: Sequence[Feature],
    mask: np.ndarray,
    query: Query,
    network: CollaborationNetwork,
) -> Tuple[CollaborationNetwork, Query]:
    """Apply the removals of all masked-off features to fresh views.

    Semantically identical to building removal perturbations and calling
    :func:`apply_perturbations`: network removals land on a copy-on-write
    :class:`NetworkOverlay` — SHAP masks half the feature space per
    coalition, so this path is hot (thousands of removals per explanation)
    and the overlay both avoids the deep copy and unlocks the delta-scoring
    path of :mod:`repro.search.engine` inside the probed ranker.

    One sweep groups the removed skills by person and collects the removed
    edges, and the overlay takes them in one
    :meth:`~NetworkOverlay.remove_many` call.  A mask that masks an absent
    or repeated feature, or a feature of unknown type, is replayed one
    removal at a time, so it raises exactly the error that removal raises.
    """
    q = query
    skills: Dict[int, List[str]] = {}
    edges: List[Tuple[int, int]] = []
    for feat, keep in zip(features, np.asarray(mask, dtype=bool).tolist()):
        if keep:
            continue
        if isinstance(feat, SkillAssignmentFeature):
            held = skills.get(feat.person)
            if held is None:
                skills[feat.person] = [feat.skill]
            else:
                held.append(feat.skill)
        elif isinstance(feat, EdgeFeature):
            edges.append((feat.u, feat.v))
        elif isinstance(feat, QueryTermFeature) and feat.term in q:
            q = q - {feat.term}
        else:
            return _masked_inputs_stepwise(features, mask, query, network)
    if not skills and not edges:
        return network, q
    net = NetworkOverlay(network)
    try:
        removed = net.remove_many(skills, edges)
    except (IndexError, ValueError):
        removed = False
    if not removed:
        return _masked_inputs_stepwise(features, mask, query, network)
    return net, q


def _masked_inputs_stepwise(
    features: Sequence[Feature],
    mask: np.ndarray,
    query: Query,
    network: CollaborationNetwork,
) -> Tuple[CollaborationNetwork, Query]:
    """:func:`masked_inputs` one removal call per masked-off feature, in
    feature order — the reference its one-sweep build must match, and the
    path that reports the first invalid feature of a mask."""
    off = [feat for feat, keep in zip(features, mask) if not keep]
    if not off:
        return network, query
    q = query
    net: CollaborationNetwork | None = None
    for feat in off:
        if isinstance(feat, QueryTermFeature):
            if feat.term not in q:
                raise ValueError(f"masking absent query term: {feat.term!r}")
            q = q - {feat.term}
            continue
        if net is None:
            net = NetworkOverlay(network)
        if isinstance(feat, SkillAssignmentFeature):
            if not net.remove_skill(feat.person, feat.skill):
                raise ValueError(
                    f"masking absent skill: ({feat.person}, {feat.skill!r})"
                )
        elif isinstance(feat, EdgeFeature):
            if not net.remove_edge(feat.u, feat.v):
                raise ValueError(f"masking absent edge: ({feat.u}, {feat.v})")
        else:
            raise TypeError(f"unknown feature type: {type(feat).__name__}")
    return (net if net is not None else network), q
