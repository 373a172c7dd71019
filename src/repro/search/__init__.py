"""Expert search systems R(q, G).

ExES is model-agnostic: it only probes a ranker with perturbed inputs.  To
demonstrate that (and to reproduce Section 4.2, which evaluates a GCN-based
ranker "combining ideas from several state-of-the-art solutions"), this
package ships four interchangeable systems behind one interface:

* :class:`GcnExpertRanker` — a trained graph-convolutional ranker over skill
  embeddings (the paper's system under explanation);
* :class:`PageRankExpertRanker` — personalized PageRank from query-matching
  nodes [8];
* :class:`DocumentExpertRanker` — profile-centric TF-IDF retrieval [3];
* :class:`HitsExpertRanker` — HITS authority scores on the query-induced
  subgraph [31].

All four carry a :class:`DeltaSession` (``repro.search.engine``), so
explanation search probes perturbed overlays in O(Δ) without rebuilding
the network's derived artifacts; :class:`ProbeEngine` adds cross-explainer
probe memoization on top.
"""

from repro.search.base import ExpertSearchSystem, RankedResults, RelevanceJudge
from repro.search.coverage import CoverageExpertRanker
from repro.search.engine import (
    DeltaSession,
    GcnDeltaSession,
    HitsDeltaSession,
    PageRankDeltaSession,
    ProbeEngine,
    TfidfDeltaSession,
)
from repro.search.gcn import GcnExpertRanker, GcnRankerConfig
from repro.search.pagerank import PageRankExpertRanker
from repro.search.docrank import DocumentExpertRanker
from repro.search.hits import HitsExpertRanker

__all__ = [
    "CoverageExpertRanker",
    "DeltaSession",
    "DocumentExpertRanker",
    "ExpertSearchSystem",
    "GcnDeltaSession",
    "GcnExpertRanker",
    "GcnRankerConfig",
    "HitsDeltaSession",
    "HitsExpertRanker",
    "PageRankDeltaSession",
    "PageRankExpertRanker",
    "ProbeEngine",
    "RankedResults",
    "RelevanceJudge",
    "TfidfDeltaSession",
]
