"""localized_scale: localized counterfactual link explanations at 1e4 people.

PageRank over a compact-CSR network built by
``synthesize_network_streaming`` (the bench scale-tier recipe at 1e4
people).  Requests are ``cf_collaborations`` with ``localized=True``:
edge-flip counterfactuals, where forward push pays off.  Per 3-term
query the subject pool holds one top-k expert and one non-expert ranked
k+1..2k; every run plays the whole pool in the order ``--seed`` draws,
one request at a time (closed loop, one client, in-process).

``ppr_delta_push``, CSR neighbourhood walks, the streaming build
(set-up) and score-memo memory dominate; the small-network Python paths
of the other workloads are a minor share.  1e4 is the largest size at
which a run keeps enough requests (each 0.5-1 s here) for a latency tail
within the run budget; the other kinds take 10+ s per request at 3e4.

The beam budgets are the ones ``benchmarks/bench_probe_engine.py`` times
(``BEAM``).  Every response's certified residual bound is checked against
epsilon, and a seeded sample is compared with
exact (non-localized) answers from a fresh stack: answers with no
sampled plan must match exactly; sampled answers may differ near ties
and are only counted.
"""

from __future__ import annotations

from typing import Dict

from perfbench import common

K = 10
EPSILON = 1e-5
#: The reported residual bound is the certified ``residual_l1 / (1 - d)
#: <= epsilon`` plus a documented 1e-9 slack for the base iterate's own
#: convergence tolerance (``PageRankDeltaSession.scores_localized``), so
#: the bound is checked against ``epsilon + BOUND_SLACK``, as
#: ``scripts/scale_smoke.py`` does.
BOUND_SLACK = 1e-9
#: ``benchmarks/bench_probe_engine.py``'s ``BEAM`` budgets.
BEAM = {"beam_size": 10, "n_candidates": 6, "max_size": 4, "n_explanations": 3}
POOL_SEED = 3001

SIZES = {
    # subjects (one request each) per second of --seconds, split over
    # ``repeats`` passes of the same list; an odd count keeps the pooled
    # median inside one request's cluster (see ``factual_gcn.SIZES``).
    "full": {"people": 10_000, "subjects_per_second": 1.9, "repeats": 4, "checked": 3},
    "tiny": {"people": 2_000, "subjects_per_second": 0.0, "repeats": 3, "checked": 1},
}


def config(size: str, seconds: int) -> Dict:
    size_cfg = SIZES[size]
    n = size_cfg["people"]
    subjects = max(4, round(seconds * size_cfg["subjects_per_second"] / size_cfg["repeats"]))
    return {
        "recipe": {
            "n_people": n,
            "n_edges": 3 * n,
            "n_skills": max(200, n // 50),
            "n_communities": max(12, n // 2000),
            "skills_per_person": 8,
            "seed": 29,
        },
        "ranker": "pagerank",
        "link_predictor": "heuristic",
        "embedding": {"dim": 16, "min_count": 1},
        "k": K,
        "kind": "cf_collaborations",
        "epsilon": EPSILON,
        "beam_config": dict(BEAM),
        "pool_seed": POOL_SEED,
        "subjects": subjects,
        "requests": subjects,
        "repeats": size_cfg["repeats"],
        "checked": size_cfg["checked"],
    }


def build(cfg: Dict):
    """Streaming CSR build + skill embedding + link predictor + service."""
    import repro.embeddings.ppmi as ppmi
    import repro.graph.generators as generators
    from repro.explain import BeamConfig
    from repro.graph import NetworkRecipe
    from repro.linkpred import HeuristicLinkPredictor
    from repro.search import PageRankExpertRanker
    from repro.service import EngineRegistry, ExplanationService

    network = generators.synthesize_network_streaming(NetworkRecipe(**cfg["recipe"])).network
    if not network.is_compact:
        raise RuntimeError("the streaming build densified into Python sets")
    profiles = [sorted(network.skills(p)) for p in network.people()]
    embedding = ppmi.train_ppmi_embedding(profiles, **cfg["embedding"])
    return ExplanationService(
        network,
        PageRankExpertRanker(),
        embedding,
        HeuristicLinkPredictor().fit(network),
        former=None,
        k=cfg["k"],
        beam_config=BeamConfig(**cfg["beam_config"]),
        registry=EngineRegistry(),
    )


def subject_pool(service, cfg: Dict):
    from repro.eval import random_queries, sample_search_subjects

    n_queries = (cfg["subjects"] + 1) // 2
    while True:
        queries = random_queries(service.network, n_queries, seed=cfg["pool_seed"], terms=(3, 3))
        subjects = sample_search_subjects(
            service.ranker, service.network, queries, cfg["k"], seed=cfg["pool_seed"] + 1
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


def requests_for(subjects, cfg: Dict):
    from repro.service import ExplainRequest

    return [
        ExplainRequest(
            kind=cfg["kind"], person=person, query=query, tag=role,
            localized=True, epsilon=cfg["epsilon"],
        )
        for person, query, role in subjects
    ]


def plan(service, cfg: Dict, seed: int):
    return requests_for(common.seeded_order(subject_pool(service, cfg), seed), cfg)


def run(cfg: Dict, seed: int, tracer=None) -> Dict:
    rep = common.repeated_passes(cfg, seed, build, plan, tracer)

    if tracer is not None:
        tracer.phase = "check"
    responses = rep["passes"][0]["responses"]
    bounds = [
        r.localized["max_residual_bound"] if r.localized is not None else float("inf")
        for p in rep["passes"]
        for r in p["responses"]
    ]
    checked = common.sample_indices(len(responses), cfg["checked"], seed)
    reference = build(cfg)
    base_version = reference.network.version
    exact_mismatches, sampled_mismatches = [], 0
    for index in checked:
        response = responses[index]
        bad = common.reference_mismatches(
            [(index, response)],
            lambda request: reference.explain_many(
                [_replace(request, localized=False, epsilon=None)], max_workers=1
            )[0],
        )
        if response.localized is not None and response.localized["sampled"]:
            sampled_mismatches += len(bad)
        else:
            exact_mismatches += bad
    return {
        **rep,
        "fallbacks": rep["service"].stats.get("fallback.full_rebuild"),
        "checks": {
            "base_version": all(
                r.base_version == base_version for p in rep["passes"] for r in p["responses"]
            ),
            "reference_checked": len(checked),
            "reference_mismatches": exact_mismatches,
            "gates": {
                "residual_bound_within_epsilon": max(bounds) <= cfg["epsilon"] + BOUND_SLACK
            },
        },
        "info": {
            "max_residual_bound": max(bounds),
            "localized_mismatches": sampled_mismatches,
        },
    }


def _replace(request, **changes):
    import dataclasses

    return dataclasses.replace(request, **changes)
