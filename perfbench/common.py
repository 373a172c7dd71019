"""Plumbing shared by the workloads: the pinned environment, the run
fingerprint, latency statistics, work counts, digests and output checks.

Every run must do identical work for a given seed, so everything the
program could vary on its own is pinned here: the hash seed, the numeric
backend, single-threaded BLAS, one explain worker.  Only the host's own
speed is left to vary, and the metric bounds in ``BENCHMARK.json`` absorb
that.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artifacts (spans files); listed in the repository's ``.gitignore``.
OUT_DIR = ROOT / ".perfbench"

#: Environment every benchmark process runs under.  ``PYTHONHASHSEED``
#: fixes set iteration order (skill sets are frozensets of strings), the
#: BLAS pins keep numpy on one thread per process (the host has 2 vCPUs
#: and serve_edits runs a client and a server process), and the backend
#: pin keeps the kernel path independent of the caller's environment.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_BACKEND": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A response latency tail is reported at the highest percentile that
#: still has this many requests beyond it.
TAIL_BEYOND = 10


def pin_environment() -> None:
    """Re-execute this interpreter under :data:`PINNED_ENV` unless it
    already runs under it (the variables only take effect at start-up)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/`` tree."""
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mib() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mib() -> float:
    """This process's resident set size right now."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git (the
    benchmark may run in an export that has no repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(workload: str, seed: int, config: Dict) -> Dict:
    """Host, toolchain and workload identity, so parent and change runs
    can be compared like for like."""
    import numpy
    import scipy

    from repro.backend import get_backend

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_backend": os.environ.get("REPRO_BACKEND"),
        "active_backend": get_backend().name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": _git_commit(),
        "config": config,
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_latency(latencies: Sequence[float]) -> Dict:
    """Latency at the highest percentile that still has
    :data:`TAIL_BEYOND` requests beyond it, with that percentile and the
    sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} latencies cannot give a tail with {TAIL_BEYOND} beyond it"
        )
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "beyond": TAIL_BEYOND,
        "samples": n,
    }


def seeded_order(pool: Sequence, seed: int) -> List:
    """The workload's fixed subject pool in the run seed's order.

    Explanation cost varies several-fold between subjects (the per-subject
    coefficient of variation is 0.3-0.5 here), so a run that drew its own
    subjects would measure its draw as much as the program: drawing 8 of
    10 pooled subjects already spread factual_gcn's work by 8% between
    seeds, on top of the host's own noise.  Every run therefore plays the
    whole pool; the seed orders it.
    """
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[int(i)] for i in order]


# ---------------------------------------------------------------------------
# work counts, digests and checks
# ---------------------------------------------------------------------------


def engine_counts(registry) -> Dict[str, int]:
    """Probe-engine work counters summed over the registry's engines.

    Engines are re-keyed, not rebuilt, across commits, and no workload
    holds more targets than the registry's LRU capacity, so the live
    engines carry every probe the run made."""
    counts = {"hits": 0, "score_hits": 0, "misses": 0}
    for engine in registry._engines.values():
        counts["hits"] += engine.hits
        counts["score_hits"] += engine.score_hits
        counts["misses"] += engine.misses
    counts.update(registry.flush_counters())
    counts["engine_builds"] = registry.engine_builds
    counts["session_builds"] = registry.session_builds
    return {k: v for k, v in counts.items() if not k.startswith("bus_")}


def explanation_work(responses: Iterable) -> Dict[str, int]:
    """Coalitions (factual), beam probes (counterfactual) and localized
    plan counts, read off the responses."""
    out = {"coalitions": 0, "probes": 0, "exact": 0, "sampled": 0, "global": 0}
    for response in responses:
        explanation = response.explanation
        if explanation is not None:
            if response.request.is_factual:
                out["coalitions"] += explanation.n_evaluations
            else:
                out["probes"] += explanation.n_probes
        if response.localized is not None:
            for mode in ("exact", "sampled", "global"):
                out[mode] += response.localized[mode]
    return out


def signature(response) -> Tuple:
    from repro.service import explanation_signature

    return explanation_signature(response.request, response.explanation)


def digest(responses: Iterable) -> str:
    """One hash over every response's explanation signature and base
    version, in request order."""
    h = hashlib.sha256()
    for response in responses:
        sig = signature(response) if response.explanation is not None else None
        h.update(repr((sig, response.base_version)).encode("utf-8"))
    return h.hexdigest()[:16]


def reference_mismatches(sampled: Sequence[Tuple[int, object]], answer) -> List[int]:
    """Indices of sampled ``(index, response)`` pairs whose explanation is
    not signature-equal to ``answer(request)``'s, the reference answer."""
    bad = []
    for index, response in sampled:
        reference = answer(response.request)
        if (
            response.explanation is None
            or reference.explanation is None
            or signature(response) != signature(reference)
        ):
            bad.append(index)
    return bad


def sample_indices(n: int, k: int, seed: int) -> List[int]:
    """A seeded sample of ``k`` of ``n`` request indices, sorted."""
    import numpy as np

    rng = np.random.default_rng(seed + 7919)
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def seeded_commit(network, queries: Sequence[Sequence[str]], seed: int) -> Dict[str, list]:
    """One live edit of a fixed shape: it toggles one term the queries use
    on a random person and the edge between two random people (on these
    sparse networks both are nearly always additions); the edge flip means
    no PageRank score memo entry survives the commit, so it exercises the
    full rebase.  Drawn from the workload's fixed pool seed, not the run
    seed: one commit's cost ranges from 1 to 25 ms with what it touches,
    so seeded commits spread the commit-latency median by 25-85% between
    seeds."""
    import numpy as np

    rng = np.random.default_rng(seed + 104729)
    terms = sorted({t for q in queries for t in q})
    n = network.n_people
    person = int(rng.integers(n))
    skill = terms[int(rng.integers(len(terms)))]
    u = int(rng.integers(n))
    v = int(rng.integers(n - 1))
    v = v + 1 if v >= u else v
    return {
        "skill_flips": [[person, skill, skill not in network.skills(person)]],
        "edge_flips": [[u, v, not network.has_edge(u, v)]],
    }


def stage_overlay(network, commit: Dict[str, list]):
    """A :class:`~repro.graph.NetworkOverlay` holding one commit's flips."""
    from repro.graph import NetworkOverlay

    overlay = NetworkOverlay(network)
    for person, skill, added in commit["skill_flips"]:
        (overlay.add_skill if added else overlay.remove_skill)(person, skill)
    for u, v, added in commit["edge_flips"]:
        (overlay.add_edge if added else overlay.remove_edge)(u, v)
    return overlay


def kind_key(request) -> str:
    """``search.<kind>`` or ``team.<kind>``: the per-kind latency key."""
    return f"{'team' if request.team else 'search'}.{request.kind}"


def per_kind_p50(requests: Sequence, latencies: Sequence[float]) -> Dict[str, float]:
    groups: Dict[str, List[float]] = {}
    for request, latency in zip(requests, latencies):
        groups.setdefault(kind_key(request), []).append(latency)
    return {key: median(values) for key, values in sorted(groups.items())}


def now() -> float:
    return time.perf_counter()


def dump_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the in-process closed loop
# ---------------------------------------------------------------------------


def closed_loop(service, requests: Sequence, tracer=None) -> Dict:
    """Answer ``requests`` one at a time, each waiting for the previous
    (one user, one thread).  Returns responses, per-request latencies and
    the timed phase's wall time."""
    responses, latencies = [], []
    start = now()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.phase = index
        t0 = now()
        response = service.explain_many([request], max_workers=1)[0]
        latencies.append(now() - t0)
        responses.append(response)
    wall = now() - start
    if tracer is not None:
        tracer.phase = "after"
    return {"responses": responses, "latencies": latencies, "wall_s": wall}


def repeated_passes(cfg: Dict, seed: int, build, plan, tracer=None) -> Dict:
    """``cfg["repeats"]`` passes, each a fresh ``build(cfg)`` (one set-up
    sample) answering the same request list through the closed loop.

    Every pass does identical work, so the host's own bursts of slowness
    (several seconds long on a shared 2-vCPU host) are what separates
    them; the throughput metric is the median pass.  ``plan(system, cfg,
    seed)`` draws the request list once, on the first build."""
    setups, passes = [], []
    system = service = requests = rss_ready = None
    for _ in range(cfg["repeats"]):
        # Drop every reference to the previous pass's stack before the
        # timed build.  The stack is cyclic (ranker -> session hook ->
        # registry -> memo -> ranker), so only a collection frees it; a
        # build beside it would pay for walking it in each full
        # collection, and peak RSS would count two systems.
        system = service = None
        gc.collect()
        if tracer is not None:
            tracer.phase = "setup"
        t0 = now()
        system = build(cfg)
        setups.append(now() - t0)
        if requests is None:
            rss_ready = current_rss_mib()
            if tracer is not None:
                tracer.phase = "plan"
            requests = plan(system, cfg, seed)
        service = getattr(system, "service", system)
        loop = closed_loop(service, requests, tracer)
        loop["work"] = engine_counts(service.registry)
        passes.append(loop)
    return {
        "system": system,
        "service": service,
        "setup_s": setups,
        "rss_ready_mib": rss_ready,
        "peak_rss_mib": peak_rss_mib(),
        "requests": requests,
        "passes": passes,
    }


def memo_retention(stats: Sequence[Dict[str, int]]) -> Dict[str, int]:
    retained = sum(s.get("retained_memo_entries", 0) for s in stats)
    dropped = sum(s.get("dropped_memo_entries", 0) for s in stats)
    return {"memo_retained": retained, "memo_dropped": dropped}
