"""factual_gcn: the paper's stack answering factual (SHAP) explanations.

``ExES.build`` trains the PPMI skill embedding, the GCN ranker and the
GAE link predictor on a DBLP-shaped network.  Per 3–5-term query the
subject pool holds one top-k expert and one non-expert ranked k+1..2k;
each subject is one user session asking ``skills``, ``collaborations``
and ``query`` in that order, one request at a time (closed loop, one
client, in-process).  Every run plays the whole fixed pool (see
``common.seeded_order``); ``--seed`` orders its queries, and within a
query the expert comes before the non-expert, as a user reads a ranking
top down.  A subject's cost depends on whether the other subject of its
query ran first (they share probe memos), so letting the seed also order
within a query moved the median request's latency with the seed.  The
SHAP budgets are
the ones ``benchmarks/bench_probe_engine.py`` times (``FACTUAL``), with
``FactualConfig``'s paper defaults for the rest: exact Shapley values up
to 10 features, 12 Pruning-2 expansions.

The ROADMAP profile puts most of this path in GCN session patch
assembly, coalition overlay construction and ``flips()``, with the
kernels at about 7%; serve, commits, team formation, beam search and
PageRank do none of the work.  A seeded sample of responses is checked
against a fresh stack in full-rebuild mode.
"""

from __future__ import annotations

from typing import Dict

from perfbench import common

K = 10
#: ``benchmarks/bench_probe_engine.py``'s ``FACTUAL`` budgets.
FACTUAL = {"n_samples": 96, "max_samples": 192, "selection_samples": 48}
KINDS = ("skills", "collaborations", "query")
#: The fixed subject pool: queries and subjects drawn once from this seed.
POOL_SEED = 1009

SIZES = {
    # Subjects per second of --seconds, split over ``repeats`` passes of
    # the same list; each subject is one user session of three requests.
    # Each request's latencies form a cluster of ``repeats`` samples, and
    # the clusters of different requests lie far apart (a ``query``
    # factual takes milliseconds, a ``skills`` one up to a second).  With
    # an even ``repeats``, an odd number of requests per pass puts the
    # pooled median in the middle of one request's cluster instead of
    # between two clusters, where it jumped by 30% between runs.
    "full": {"subjects_per_second": 1.35, "repeats": 4, "checked": 3},
    "tiny": {"subjects_per_second": 0.0, "repeats": 2, "checked": 1},
}


def config(size: str, seconds: int) -> Dict:
    size_cfg = SIZES[size]
    subjects = max(4, round(seconds * size_cfg["subjects_per_second"] / size_cfg["repeats"]))
    return {
        "dataset": "dblp_like",
        "scale": 0.005,
        "dataset_seed": 13,
        "ranker": "gcn",
        "k": K,
        "factual_config": dict(FACTUAL),
        "kinds": list(KINDS),
        "pool_seed": POOL_SEED,
        "subjects": subjects,
        "requests": subjects * len(KINDS),
        "repeats": size_cfg["repeats"],
        "checked": size_cfg["checked"],
    }


def build(cfg: Dict):
    """Dataset + the trained ExES stack over a private registry."""
    import repro.datasets as datasets
    from repro import ExES
    from repro.explain import FactualConfig
    from repro.service import EngineRegistry

    dataset = datasets.dblp_like(scale=cfg["scale"], seed=cfg["dataset_seed"])
    return ExES.build(
        dataset,
        k=cfg["k"],
        factual_config=FactualConfig(**cfg["factual_config"]),
        seed=0,
        registry=EngineRegistry(),
    )


def subject_pool(exes, cfg: Dict):
    """``subjects`` (person, query, role) subjects: per query, one
    top-k expert and one non-expert ranked k+1..2k."""
    from repro.eval import random_queries, sample_search_subjects

    n_queries = (cfg["subjects"] + 1) // 2
    while True:
        queries = random_queries(exes.network, n_queries, seed=cfg["pool_seed"])
        subjects = sample_search_subjects(
            exes.ranker, exes.network, queries, cfg["k"], seed=cfg["pool_seed"] + 1
        )
        pool = [
            (person, s.query, role)
            for s in subjects
            for person, role in ((s.expert, "expert"), (s.non_expert, "non_expert"))
            if person is not None
        ]
        if len(pool) >= cfg["subjects"]:
            return pool[: cfg["subjects"]]
        n_queries += 1


def requests_for(subjects):
    """Each subject's session: every kind in :data:`KINDS`, in order."""
    from repro.service import ExplainRequest

    return [
        ExplainRequest(kind=kind, person=person, query=query, tag=role)
        for person, query, role in subjects
        for kind in KINDS
    ]


def plan(exes, cfg: Dict, seed: int):
    pool = subject_pool(exes, cfg)
    queries = common.seeded_order(list(dict.fromkeys(query for _, query, _ in pool)), seed)
    return requests_for([subject for query in queries for subject in pool if subject[1] == query])


def run(cfg: Dict, seed: int, tracer=None) -> Dict:
    rep = common.repeated_passes(cfg, seed, build, plan, tracer)

    # Reference: a fresh stack in full-rebuild mode, same base version.
    if tracer is not None:
        tracer.phase = "check"
    responses = rep["passes"][0]["responses"]
    checked = common.sample_indices(len(responses), cfg["checked"], seed)
    reference = build(cfg)
    reference.set_full_rebuild(True)
    base_version = reference.network.version
    mismatches = common.reference_mismatches(
        [(i, responses[i]) for i in checked],
        lambda request: reference.service.explain_many([request], max_workers=1)[0],
    )
    return {
        **rep,
        "fallbacks": rep["service"].stats.get("fallback.full_rebuild"),
        "checks": {
            "base_version": all(
                r.base_version == base_version for p in rep["passes"] for r in p["responses"]
            ),
            "reference_checked": len(checked),
            "reference_mismatches": mismatches,
        },
        "info": {},
    }
