"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload factual_gcn --seed 1 --seconds 12 --trace 0

Workloads (all closed loop, one client, ``max_workers=1``):

* ``factual_gcn`` — factual SHAP explanations on the trained GCN stack;
* ``serve_edits`` — counterfactual explanations over the socket server
  with live commits between requests;
* ``localized_scale`` — localized counterfactual link explanations with
  PageRank on a 1e4-person compact CSR network.

Each run plays its workload's fixed subject pool in the order ``--seed``
draws (seeded edits too), sized so that it takes about ``--seconds`` on a
2-vCPU host; runs are never cut by time, so every run of a seed does the
same work.  The request list is answered in several passes, each on a
freshly built system (one set-up sample each): throughput is the median
pass, latency percentiles pool every pass.  The run then checks the
answers and prints every metric as ``<name> = <value> <unit>`` lines, a
``detail`` line (fingerprint, work counts, explanation digest), and one
JSON result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same workload untraced in a child process, then traced in this one,
and reports the per-layer metrics, the layer table and the tracing
overhead; spans are written to ``.perfbench/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("factual_gcn", "serve_edits", "localized_scale")

#: End-to-end metric -> unit.
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _module(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{workload}")


def responses_of(result) -> list:
    return [r for p in result["passes"] for r in p["responses"]]


def failures(result) -> list:
    """Output checks that fail the run (they are not metrics)."""
    checks = result["checks"]
    out = []
    bad = [r.outcome for r in responses_of(result) if r.outcome != "ok"]
    if bad:
        out.append(f"{len(bad)} responses not ok: {sorted(set(bad))}")
    first = result["passes"][0]
    for i, other in enumerate(result["passes"][1:], 1):
        if other["work"] != first["work"]:
            out.append(f"pass {i} did different work than pass 0")
        if common.digest(other["responses"]) != common.digest(first["responses"]):
            out.append(f"pass {i} explained differently than pass 0")
    if not checks["base_version"]:
        out.append("a response was stamped with an unexpected base version")
    if checks["reference_mismatches"]:
        out.append(
            f"responses {checks['reference_mismatches']} differ from the reference"
        )
    for name, passed in checks.get("gates", {}).items():
        if not passed:
            out.append(f"check failed: {name}")
    if commits_failed(result):
        out.append(f"{commits_failed(result)} commits failed")
    return out


def commit_latencies(result) -> list:
    """Commit latencies (only serve_edits commits)."""
    return result.get("commit_latencies", [])


def commits_failed(result) -> int:
    return result.get("commits_failed", 0)


def work_counts(result) -> dict:
    """Work counts of one pass (every pass must match) plus the commits."""
    first = result["passes"][0]
    work = dict(first["work"])
    work.update(common.explanation_work(first["responses"]))
    work.update(common.memo_retention(result.get("commit_stats", [])))
    work["commits"] = len(commit_latencies(result))
    work["requests"] = len(result["requests"])
    work["passes"] = len(result["passes"])
    return work


def latencies_of(result) -> list:
    return [latency for p in result["passes"] for latency in p["latencies"]]


def throughput(result) -> float:
    """Requests per second of the median pass."""
    n = len(result["requests"])
    return common.median([n / p["wall_s"] for p in result["passes"]])


def end_to_end(result) -> tuple:
    latencies = latencies_of(result)
    tail = common.tail_latency(latencies)
    return {
        "throughput_rps": throughput(result),
        "latency_p50_s": common.median(latencies),
        "latency_tail_s": tail["value"],
        "setup_s": common.median(result["setup_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }, tail


def counts(result) -> dict:
    responses = responses_of(result)
    return {
        "attempted": len(responses) + len(commit_latencies(result)) + commits_failed(result),
        "failed": sum(r.outcome != "ok" for r in responses) + commits_failed(result),
    }


def run_untraced(args) -> dict:
    module = _module(args.workload)
    cfg = module.config(args.size, args.seconds)
    result = module.run(cfg, args.seed)
    metrics, tail = end_to_end(result)
    work = work_counts(result)
    fails = failures(result)
    detail = {
        "fingerprint": common.fingerprint(args.workload, args.seed, cfg),
        "tail": tail,
        "setup_samples_s": result["setup_s"],
        "kind_p50_s": common.per_kind_p50(
            result["requests"] * len(result["passes"]), latencies_of(result)
        ),
        "pass_throughput_rps": [
            len(result["requests"]) / p["wall_s"] for p in result["passes"]
        ],
        "work": work,
        "digest": common.digest(result["passes"][0]["responses"]),
        "info": result["info"],
        "failures": fails,
    }
    if commit_latencies(result):
        detail["commit_p50_s"] = common.median(commit_latencies(result))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print("tail percentile = {percentile:.1f} ({beyond} of {samples} requests beyond)".format(**tail))
    print("detail " + json.dumps(detail, sort_keys=True))
    for message in fails:
        print(f"CHECK FAILED: {message}")
    return {
        "correct": not fails,
        **counts(result),
        "metrics": {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()},
        "detail": detail,
    }


def run_traced(args) -> dict:
    from perfbench import trace

    # The untraced twin: same seed and size, its own fresh interpreter.
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--size", args.size],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = child.stdout.strip().splitlines()
    untraced = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    untraced_detail = next(
        (json.loads(l[7:]) for l in lines if l.startswith("detail ")), None
    )
    if untraced is None or untraced_detail is None:
        raise RuntimeError(f"untraced twin run failed (exit {child.returncode})")

    module = _module(args.workload)
    cfg = module.config(args.size, args.seconds)
    tracer = trace.Tracer().install()
    result = module.run(cfg, args.seed, tracer)
    tracer.uninstall()

    fails = failures(result)
    work = work_counts(result)
    if work != untraced_detail["work"]:
        fails.append("traced run did different work than the untraced run")
    if common.digest(result["passes"][0]["responses"]) != untraced_detail["digest"]:
        fails.append("traced run explained differently than the untraced run")

    totals = result.get("totals") or tracer.totals()
    request_wall = sum(latencies_of(result))
    metrics = trace.layer_metrics(totals, len(result["setup_s"]), request_wall)
    covered = result.get("covered_s")
    if covered is None:
        inclusive = tracer.inclusive_by_phase()
        covered = sum(v for k, v in inclusive.items() if isinstance(k, int))
    unattributed = max(request_wall - covered, 0.0)
    overhead = untraced["metrics"]["throughput_rps"]["value"] / throughput(result) - 1.0

    n_probes = work["hits"] + work["score_hits"] + work["misses"]
    n_flushes = work["multi_flushes"] + work["batch_flushes"]
    retained = work["memo_retained"] + work["memo_dropped"]
    info = result["info"]
    metrics.update(
        {
            "serve.wire_s": info.get("wire_s", 0.0),
            "serve.bytes": info.get("bytes", 0),
            "serve.boot_s": info.get("boot_s", 0.0),
            "service.memo_retained_share": work["memo_retained"] / retained if retained else 0.0,
            "service.engine_builds": work["engine_builds"],
            "service.session_builds": work["session_builds"],
            "service.fallbacks": result["fallbacks"],
            "service.rss_ready_mib": result["rss_ready_mib"],
            "explain.coalitions": work["coalitions"],
            "explain.probes": work["probes"],
            "search.memo_hit_share": (work["hits"] + work["score_hits"]) / n_probes if n_probes else 0.0,
            "search.states_per_flush": work["flushed_probes"] / n_flushes if n_flushes else 0.0,
            "search.plans.exact": work["exact"],
            "search.plans.sampled": work["sampled"],
            "search.plans.global": work["global"],
            "search.max_residual_bound": info.get("max_residual_bound", 0.0),
            "search.localized_mismatches": info.get("localized_mismatches", 0),
            "trace.unattributed_share": unattributed / request_wall,
            "trace.overhead": overhead,
        }
    )
    # 0 where the workload makes no commits, like the other absent layers.
    metrics["service.commit_p50_s"] = untraced_detail.get("commit_p50_s", 0.0)
    kind_p50 = untraced_detail["kind_p50_s"]
    for key in trace.KIND_KEYS:
        metrics[f"explain.{key}.p50_s"] = kind_p50.get(key, 0.0)

    spans_path = common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    common.dump_json(
        spans_path,
        {
            "fields": ["process", "id", "name", "start", "end", "parent", "phase"],
            "spans": tracer.span_records() + result.get("server_spans", []),
        },
    )
    units = trace.per_layer_units()
    print(trace.layer_table(totals, request_wall, unattributed, overhead))
    for name in sorted(units):
        print(f"{name} = {metrics[name]:.6g} {units[name][0]}")
    print(f"spans written to {spans_path.relative_to(common.ROOT)}")
    for message in fails:
        print(f"CHECK FAILED: {message}")
    return {
        "correct": not fails,
        **counts(result),
        "metrics": {n: {"value": metrics[n], "unit": units[n][0]} for n in sorted(units)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the smallest run that still exercises every check "
        "(the benchmark's own determinism tests use it)",
    )
    args = parser.parse_args(argv)
    common.pin_environment()
    common.use_source_tree()
    out = run_traced(args) if args.trace else run_untraced(args)
    out.pop("detail", None)
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
