"""serve_edits: counterfactual explanations over the socket, with live edits.

A server process owned by the benchmark (``edit_server.py``) runs
:class:`~repro.serve.ExplanationServer` over ``ExES.build(ranker=
PageRankExpertRanker())``.  One client on one connection sends
single-request ``batch`` frames for ``cf_skills``, ``cf_query`` and
``cf_collaborations``, over relevance subjects (a top-k expert and a
k+1..2k non-expert per query) and team-membership subjects (a member and
a non-member of the team formed around a top-k seed).  The subject list
(the whole fixed pool, in the order ``--seed`` draws) is played twice;
after every ``commit_every``-th response (the end of the first play) the
client sends a ``commit`` frame flipping a query skill and an edge, so
each repeated request follows a commit.

This is the only workload that writes, and the only one over the wire:
frame codec, commit gate, ``EngineRegistry.rebase`` with cone-aware memo
retention, the global PageRank kernels, beam search and team
re-formation.  SHAP and the GCN are bypassed.  The beam budgets are the
ones ``benchmarks/bench_probe_engine.py`` times (``BEAM``).

Checks: every response ``ok`` and stamped with the base version the
client expects; a seeded sample equal to a fresh service over a
from-scratch copy of the network at the same base version.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List

from perfbench import common

K = 10
KINDS = ("cf_skills", "cf_query", "cf_collaborations")
#: ``benchmarks/bench_probe_engine.py``'s ``BEAM`` budgets.
BEAM = {"beam_size": 10, "n_candidates": 6, "max_size": 4, "n_explanations": 3}
POOL_SEED = 2003
SERVER = Path(__file__).resolve().parent / "edit_server.py"
#: Seconds to wait for the server's ready line and for its exit.
SERVER_TIMEOUT = 120.0

SIZES = {
    # subjects per second of --seconds, split over ``repeats`` passes of
    # the same schedule; each subject is three requests, played twice
    # with one commit between the plays.  That commit rebases everything
    # the first play cached, which is the same whatever the seeded order;
    # commits between single subjects cost 1-25 ms depending on what the
    # order had cached, which spread their median by 25-85% between
    # seeds, and back-to-back light commits measured thread wake-ups.
    # Six passes give the slowest request (a team cf_skills, 1.2-2.4 s) 12
    # samples, so the tail, 11th from the top, falls among them; with four
    # passes it was the third slowest sample of the next request, which
    # followed the host's slow bursts and spread 25-30% between runs.
    "full": {"subjects_per_second": 1.6, "repeats": 6, "checked": 3},
    "tiny": {"subjects_per_second": 0.0, "repeats": 2, "checked": 1},
}


def config(size: str, seconds: int) -> Dict:
    size_cfg = SIZES[size]
    subjects = max(2, round(seconds * size_cfg["subjects_per_second"] / size_cfg["repeats"]))
    n_requests = 2 * subjects * len(KINDS)
    return {
        "dataset": "dblp_like",
        "scale": 0.01,
        "dataset_seed": 13,
        "ranker": "pagerank",
        "former": "cover",
        "k": K,
        "beam_config": dict(BEAM),
        "kinds": list(KINDS),
        "pool_seed": POOL_SEED,
        "subjects": subjects,
        "requests": n_requests,
        "commit_every": n_requests // 2,
        "repeats": size_cfg["repeats"],
        "checked": size_cfg["checked"],
    }


def build(cfg: Dict):
    """Dataset + the ExES stack around a PageRank ranker, private registry."""
    import repro.datasets as datasets
    from repro import ExES
    from repro.explain import BeamConfig
    from repro.search import PageRankExpertRanker
    from repro.service import EngineRegistry

    dataset = datasets.dblp_like(scale=cfg["scale"], seed=cfg["dataset_seed"])
    return ExES.build(
        dataset,
        k=cfg["k"],
        ranker=PageRankExpertRanker(),
        beam_config=BeamConfig(**cfg["beam_config"]),
        seed=0,
        registry=EngineRegistry(),
    )


def fresh_service(stack):
    """A service over a from-scratch copy of ``stack``'s network (a
    ``network_to_dict`` round trip), sharing only the frozen embedding and
    link predictor, with a new ranker, former and registry."""
    from repro.graph import network_from_dict, network_to_dict
    from repro.search import PageRankExpertRanker
    from repro.service import EngineRegistry, ExplanationService
    from repro.team import CoverTeamFormer

    ranker = PageRankExpertRanker()
    return ExplanationService(
        network_from_dict(network_to_dict(stack.network)),
        ranker,
        stack.embedding,
        stack.link_predictor,
        former=CoverTeamFormer(ranker),
        k=stack.k,
        factual_config=stack.factual_config,
        beam_config=stack.beam_config,
        registry=EngineRegistry(),
    )


def subject_pool(network, cfg: Dict) -> List[Dict]:
    """Relevance and team-membership subjects, two of each per query."""
    from repro.eval import random_queries, sample_search_subjects, sample_team_subjects
    from repro.search import PageRankExpertRanker
    from repro.team import CoverTeamFormer

    ranker = PageRankExpertRanker()
    former = CoverTeamFormer(ranker)
    n_queries = (cfg["subjects"] + 3) // 4
    while True:
        queries = random_queries(network, n_queries, seed=cfg["pool_seed"])
        search = sample_search_subjects(ranker, network, queries, cfg["k"], seed=cfg["pool_seed"] + 1)
        team = sample_team_subjects(former, ranker, network, queries, cfg["k"], seed=cfg["pool_seed"] + 2)
        teams = {t.query: t for t in team}
        pool = []
        for s in search:
            t = teams.get(s.query)
            for person, role, seed_member in (
                (s.expert, "expert", None),
                (s.non_expert, "non_expert", None),
                (t.member if t else None, "member", t.seed_member if t else None),
                (t.non_member if t else None, "non_member", t.seed_member if t else None),
            ):
                if person is not None:
                    pool.append(
                        {"person": person, "query": s.query, "role": role, "seed_member": seed_member}
                    )
        if len(pool) >= cfg["subjects"]:
            return pool[: cfg["subjects"]]
        n_queries += 1


def schedule(network, cfg: Dict, seed: int):
    """The run's requests (the drawn subjects' list, played twice) and
    the commits sent after every ``commit_every``-th response."""
    from repro.service import ExplainRequest

    subjects = common.seeded_order(subject_pool(network, cfg), seed)
    once = [
        ExplainRequest(
            kind=kind, person=s["person"], query=s["query"], tag=s["role"],
            team=s["seed_member"] is not None, seed_member=s["seed_member"],
        )
        for s in subjects
        for kind in KINDS
    ]
    requests = once + once
    commits = [common.seeded_commit(network, [s["query"] for s in subjects], cfg["pool_seed"])]
    return requests, commits


def _line_reader(proc) -> "queue.Queue":
    """The server's stdout lines, read on a thread so waits can time out."""
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put("")

    threading.Thread(target=pump, daemon=True).start()
    return lines


def _read_line(lines: "queue.Queue", proc, timeout: float) -> Dict:
    try:
        line = lines.get(timeout=timeout)
    except queue.Empty:
        line = ""
    if not line:
        raise RuntimeError(f"server sent no line within {timeout:.0f}s (exit {proc.poll()})")
    return json.loads(line)


async def _client(port: int, requests, commits, commit_every: int, expected_version: int, tracer):
    """The closed loop over one connection."""
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", port, session="bench")
    welcome_at = common.now()
    out = {"responses": [], "latencies": [], "batch_ids": [],
           "commit_latencies": [], "commit_stats": [], "commits_failed": 0,
           "version_ok": True}
    version = expected_version
    start = common.now()
    try:
        next_commit = 0
        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.phase = index
            t0 = common.now()
            responses, summary = await client.explain_many([request], max_workers=1)
            out["latencies"].append(common.now() - t0)
            response = responses[0]
            out["responses"].append(response)
            out["batch_ids"].append(summary["id"])
            out["version_ok"] &= response.base_version == version
            if (index + 1) % commit_every == 0 and next_commit < len(commits):
                commit = commits[next_commit]
                if tracer is not None:
                    tracer.phase = ("commit", next_commit)
                t0 = common.now()
                try:
                    end = await client.commit(
                        commit["skill_flips"], commit["edge_flips"], commit_id=next_commit
                    )
                except (RuntimeError, ConnectionError):
                    out["commits_failed"] += 1
                else:
                    out["commit_latencies"].append(common.now() - t0)
                    out["commit_stats"].append(end["stats"])
                    out["version_ok"] &= (
                        end["old_version"] == version and end["new_version"] == version + 1
                    )
                    version += 1
                next_commit += 1
        out["wall_s"] = common.now() - start
    finally:
        if tracer is not None:
            tracer.phase = "after"
        await client.close()
    out["welcome_at"] = welcome_at
    return out


def run(cfg: Dict, seed: int, tracer=None) -> Dict:
    import repro.datasets as datasets

    if tracer is not None:
        tracer.phase = "plan"
    # The client's copy of the network only plans the traffic.
    network = datasets.dblp_like(scale=cfg["scale"], seed=cfg["dataset_seed"]).network
    requests, commits = schedule(network, cfg, seed)
    v0 = network.version

    spans_path = common.OUT_DIR / f"server-spans-{os.getpid()}.json"
    cmd = [sys.executable, str(SERVER), "--config", json.dumps(cfg),
           "--trace", "1" if tracer is not None else "0", "--spans", str(spans_path)]
    passes, setup_s, report = [], [], {}
    spawned_at = common.now()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    lines = _line_reader(proc)
    try:
        for rep in range(cfg["repeats"]):
            ready = _read_line(lines, proc, SERVER_TIMEOUT)
            setup_s.append(ready["setup_s"])
            if rep == 0:
                rss_ready = ready["rss_ready_mib"]
            loop = asyncio.run(
                _client(ready["port"], requests, commits, cfg["commit_every"], v0, tracer)
            )
            if rep == 0:
                boot_s = loop["welcome_at"] - spawned_at
            proc.stdin.write("next\n")
            proc.stdin.flush()
            report = _read_line(lines, proc, SERVER_TIMEOUT)
            loop["work"] = report["work"]
            loop["fallbacks"] = report["fallbacks"]
            passes.append(loop)
        traced = _read_line(lines, proc, SERVER_TIMEOUT) if tracer is not None else None
        proc.stdin.close()
        proc.wait(timeout=SERVER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    result = {
        "requests": requests,
        "commits": commits,
        "passes": passes,
        "setup_s": setup_s,
        "rss_ready_mib": rss_ready,
        "peak_rss_mib": report["peak_rss_mib"],
        "commit_latencies": [t for p in passes for t in p["commit_latencies"]],
        "commit_stats": [st for p in passes for st in p["commit_stats"]],
        "commits_failed": sum(p["commits_failed"] for p in passes),
        "fallbacks": sum(p["fallbacks"] for p in passes),
        "info": {
            "boot_s": boot_s,
            "wire_s": sum(
                latency - r.elapsed_seconds
                for p in passes
                for latency, r in zip(p["latencies"], p["responses"])
            ),
        },
    }
    if traced is not None:
        _join_server_trace(result, tracer, traced, passes, spans_path)

    # Reference, as ``run_edit_storm_row`` in benchmarks/bench_probe_engine.py
    # checks a rebase: each sampled request is answered by a fresh service
    # (own registry, cold sessions) over a from-scratch copy of the network
    # at the response's base version, with the commits applied to the graph
    # alone.  The probe path's full-rebuild mode is not used: it takes
    # 16-21 s per team cf_skills request on a 2-vCPU host, which pushed
    # runs past 80 s.
    if tracer is not None:
        tracer.phase = "check"
    responses = passes[0]["responses"]
    checked = common.sample_indices(len(requests), cfg["checked"], seed)
    stack = build(cfg)
    applied = 0
    mismatches = []
    for index in checked:
        response = responses[index]
        while stack.network.version < response.base_version and applied < len(commits):
            common.stage_overlay(stack.network, commits[applied]).commit()
            applied += 1
        reference = fresh_service(stack)
        mismatches += common.reference_mismatches(
            [(index, response)],
            lambda request: reference.explain_many([request], max_workers=1)[0],
        )
    result["checks"] = {
        "base_version": all(p["version_ok"] for p in passes),
        "reference_checked": len(checked),
        "reference_mismatches": mismatches,
    }
    return result


def _join_server_trace(result, tracer, traced, passes, spans_path: Path) -> None:
    """Fold the server's span totals into this process's and re-key its
    spans from batch ids to request indices."""
    batch_to_request = {
        b: i for p in passes for i, b in enumerate(p["batch_ids"])
    }
    client_totals = tracer.totals()
    result["info"]["bytes"] = sum(
        client_totals.get(kind, {}).get("serve.codec", {}).get("bytes", 0)
        for kind in ("request", "commit")
    )
    merged = json.loads(json.dumps(client_totals))
    for kind, names in traced["totals"].items():
        for name, row in names.items():
            slot = merged.setdefault(kind, {}).setdefault(
                name, {"self_s": 0.0, "calls": 0, "bytes": 0}
            )
            for field in ("self_s", "calls", "bytes"):
                slot[field] += row[field]
    result["totals"] = merged
    # Time the traced program covered inside requests: client-side
    # outermost spans plus the server's, per request.
    covered = sum(
        v for k, v in tracer.inclusive_by_phase().items() if isinstance(k, int)
    )
    covered += sum(seconds for phase, seconds in traced["covered"] if isinstance(phase, int))
    result["covered_s"] = covered
    with open(spans_path, encoding="utf-8") as fh:
        server_spans = json.load(fh)
    spans_path.unlink()
    for span in server_spans:
        phase = span[-1]
        if isinstance(phase, int) and phase in batch_to_request:
            span[-1] = batch_to_request[phase]
    result["server_spans"] = server_spans
