"""Command-line interface: ``python -m repro <command>``.

A headless equivalent of the paper's web app (Figure 2): generate a
dataset, rank experts, form teams, and produce factual/counterfactual
explanations from a shell.

Commands:

* ``stats``     — generate a dataset and print its Table-6 row
* ``rank``      — top-k experts for a query
* ``team``      — form a team for a query
* ``explain``   — factual + counterfactual explanations for one person
* ``workload``  — a paper-style random-query workload through the
  explanation service (``explain_many``), single-threaded or sharded;
  ``--remote HOST:PORT`` drives the same requests over a socket against
  a running ``serve`` instance instead
* ``serve``     — boot the asyncio serving front end (newline-delimited
  JSON frames over TCP; see :mod:`repro.serve`)

Example::

    python -m repro rank --dataset dblp --scale 0.02 --query graph mining
    python -m repro explain --dataset dblp --scale 0.02 \
        --query graph mining --person "Ada Lovelace" --json out.json
    python -m repro workload --dataset dblp --scale 0.01 \
        --queries 10 --workers 4 --kinds skills cf_skills
    python -m repro serve --dataset dblp --scale 0.01 --port 7821 &
    python -m repro workload --dataset dblp --scale 0.01 \
        --queries 10 --remote 127.0.0.1:7821
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.datasets import DatasetBundle, dblp_like, github_like
from repro.exes import ExES
from repro.explain.render import (
    render_counterfactuals,
    render_force_plot,
    render_team,
)
from repro.explain.serialize import counterfactual_to_dict, factual_to_dict
from repro.graph.stats import compute_stats


def _load_dataset(args: argparse.Namespace) -> DatasetBundle:
    maker = {"dblp": dblp_like, "github": github_like}[args.dataset]
    return maker(scale=args.scale, seed=args.seed)


def _resolve_person(network, spec: str) -> int:
    """Accept either a numeric id or a display name."""
    try:
        person = int(spec)
    except ValueError:
        try:
            return network.find_person(spec)
        except KeyError:
            raise SystemExit(f"no person named {spec!r}") from None
    if not (0 <= person < network.n_people):
        raise SystemExit(f"person id {person} out of range")
    return person


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("dblp", "github"), default="dblp")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=13)


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the dataset's Table-6 row and connectivity summary."""
    dataset = _load_dataset(args)
    stats = compute_stats(dataset.network)
    print(stats.as_table_row(dataset.name))
    print(
        f"mean degree {stats.mean_degree:.1f}, max degree {stats.max_degree}, "
        f"components {stats.n_components} (largest {stats.largest_component})"
    )
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    """Print the top-k experts for the query."""
    dataset = _load_dataset(args)
    exes = ExES.build(dataset, k=args.k, seed=args.seed)
    results = exes.ranker.evaluate(args.query, dataset.network)
    for rank, person in enumerate(results.top_k(args.k), start=1):
        skills = ", ".join(sorted(dataset.network.skills(person))[:6])
        print(f"{rank:3d}. {dataset.network.name(person)}  ({skills})")
    return 0


def cmd_team(args: argparse.Namespace) -> int:
    """Form and print a team for the query."""
    dataset = _load_dataset(args)
    seed_member: Optional[int] = None
    if args.seed_member is not None:
        seed_member = _resolve_person(dataset.network, args.seed_member)
    exes = ExES.build(dataset, k=args.k, seed=args.seed)
    team = exes.form_team(args.query, seed_member=seed_member)
    print(render_team(team, dataset.network))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print factual + counterfactual explanations for one person."""
    dataset = _load_dataset(args)
    network = dataset.network
    person = _resolve_person(network, args.person)
    exes = ExES.build(dataset, k=args.k, seed=args.seed)

    rank = exes.rank_of(person, args.query)
    status = "an expert" if rank <= args.k else "not an expert"
    print(
        f"{network.name(person)} is ranked {rank} for {args.query} "
        f"({status} at k={args.k})\n"
    )
    factual = exes.explain_skills(person, args.query)
    print(render_force_plot(factual, network, top=args.top))
    print()
    cf_skills = exes.counterfactual_skills(person, args.query)
    print(render_counterfactuals(cf_skills, network, limit=args.top))
    print()
    cf_query = exes.counterfactual_query(person, args.query)
    print(render_counterfactuals(cf_query, network, limit=args.top))

    if args.json:
        payload = {
            "person": person,
            "name": network.name(person),
            "rank": rank,
            "factual_skills": factual_to_dict(factual),
            "counterfactual_skills": counterfactual_to_dict(cf_skills),
            "counterfactual_query": counterfactual_to_dict(cf_query),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"\nwrote {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the asyncio serving front end over one built dataset."""
    import asyncio
    import signal

    from repro.serve import ExplanationServer, ServeConfig

    dataset = _load_dataset(args)
    exes = ExES.build(dataset, k=args.k, seed=args.seed)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        default_batch_workers=args.workers,
        max_batch_workers=max(args.workers, 4),
        spill_path=args.spill,
    )

    async def run() -> None:
        server = await ExplanationServer(exes.service, config).start()
        if args.spill and server.restore_stats is not None:
            restored = server.restore_stats
            if "skipped" in restored:
                print(f"spill restore skipped ({restored['skipped']})", flush=True)
            else:
                print(
                    f"spill restored {restored['sessions']} sessions, "
                    f"{restored['team_sessions']} team sessions, "
                    f"{restored['memo_entries']} memo entries",
                    flush=True,
                )
        # The readiness line CI (and shell scripts) wait for.
        print(
            f"serving {args.dataset} (scale={args.scale}, k={args.k}) "
            f"on {args.host}:{server.port}",
            flush=True,
        )
        # SIGTERM/SIGINT must reach shutdown() — that's what drains
        # in-flight batches and rewrites the --spill file, so a plain
        # `kill` leaves a warm registry behind for the next boot.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loop: fall back to KeyboardInterrupt
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await server.shutdown()
            print("drained and shut down", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; drained and shut down", flush=True)
    return 0


def _parse_remote(spec: str):
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--remote must be HOST:PORT, got {spec!r}")
    return host, int(port)


def cmd_workload(args: argparse.Namespace) -> int:
    """Run a random-query explanation workload through the service —
    in-process by default, over a socket with ``--remote``."""
    from repro.eval import (
        random_queries,
        run_workload_experiment,
        sample_search_subjects,
        sample_team_subjects,
        search_requests,
        team_requests,
    )
    from repro.eval.harness import (
        run_edit_storm_experiment,
        run_remote_workload_experiment,
    )

    dataset = _load_dataset(args)
    exes = ExES.build(dataset, k=args.k, seed=args.seed)
    network = dataset.network
    queries = random_queries(network, args.queries, seed=args.seed + 1)
    requests = search_requests(
        sample_search_subjects(exes.ranker, network, queries, args.k, seed=args.seed),
        kinds=args.kinds,
    )
    if args.team:
        requests += team_requests(
            sample_team_subjects(
                exes.former, exes.ranker, network, queries, args.k, seed=args.seed
            ),
            kinds=args.kinds,
        )
    where = f"remote {args.remote}" if args.remote else "in-process"
    print(
        f"{len(requests)} requests over {args.queries} queries "
        f"({', '.join(args.kinds)}; team={'on' if args.team else 'off'}), "
        f"max_workers={args.workers}, {where}"
        + (f", edits={args.edits}" if args.edits else "")
    )
    commits = []
    if args.remote:
        if args.edits:
            raise SystemExit("--edits runs in-process only (drop --remote)")
        host, port = _parse_remote(args.remote)
        report = run_remote_workload_experiment(
            host, port, requests, max_workers=args.workers, session=args.session
        )
    elif args.edits:
        report, commits = run_edit_storm_experiment(
            exes.service, requests, args.edits, max_workers=args.workers
        )
    else:
        report = run_workload_experiment(
            exes.service, requests, max_workers=args.workers
        )
    for row in report.rows:
        latency = f"{row.latency_mean:.3f}s" if row.latency_mean is not None else "-"
        size = f"{row.size_mean:.1f}" if row.size_mean is not None else "-"
        print(
            f"  {row.kind:>18}: {row.n_requests:4d} requests, "
            f"mean latency {latency}, mean size {size}, errors {row.n_errors}"
        )
    print(
        f"total: {report.n_requests} requests in {report.elapsed_seconds:.2f}s "
        f"({report.requests_per_second:.2f} req/s, {report.n_coalesced} "
        f"coalesced, {report.n_errors} errors)"
    )
    print(
        "outcomes: "
        + ", ".join(f"{k}={v}" for k, v in sorted(report.outcomes.items()))
    )
    if commits:
        retained = sum(c.stats.get("retained_memo_entries", 0) for c in commits)
        dropped = sum(c.stats.get("dropped_memo_entries", 0) for c in commits)
        print(
            f"edits: {len(commits)} commits landed mid-workload "
            f"(base v{commits[0].old_version} -> v{commits[-1].new_version}; "
            f"memo entries retained {retained}, dropped {dropped})"
        )
    tail = report.latency_percentiles
    if tail and tail.get("p50") is not None:
        print(
            "latency p50/p95/p99: "
            + "/".join(f"{tail[p]:.3f}s" for p in ("p50", "p95", "p99"))
        )
    if report.fusion:
        flushes = report.fusion.get("multi_flushes", 0) + report.fusion.get(
            "batch_flushes", 0
        )
        print(
            f"fusion: {flushes} probe flushes "
            f"({report.fusion.get('flushed_probes', 0)} probes)"
        )
    if args.json:
        payload = {
            "n_requests": report.n_requests,
            "n_errors": report.n_errors,
            "n_coalesced": report.n_coalesced,
            "elapsed_seconds": report.elapsed_seconds,
            "max_workers": report.max_workers,
            "requests_per_second": report.requests_per_second,
            "rows": [vars(row) for row in report.rows],
            "fusion": report.fusion,
            "outcomes": report.outcomes,
            "latency_percentiles": report.latency_percentiles,
            "n_commits": len(commits),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ExES reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table 6)")
    _add_common(p_stats)
    p_stats.set_defaults(fn=cmd_stats)

    p_rank = sub.add_parser("rank", help="top-k experts for a query")
    _add_common(p_rank)
    p_rank.add_argument("--query", nargs="+", required=True)
    p_rank.add_argument("--k", type=int, default=10)
    p_rank.set_defaults(fn=cmd_rank)

    p_team = sub.add_parser("team", help="form a team for a query")
    _add_common(p_team)
    p_team.add_argument("--query", nargs="+", required=True)
    p_team.add_argument("--k", type=int, default=10)
    p_team.add_argument("--seed-member", default=None)
    p_team.set_defaults(fn=cmd_team)

    p_explain = sub.add_parser("explain", help="explain one individual")
    _add_common(p_explain)
    p_explain.add_argument("--query", nargs="+", required=True)
    p_explain.add_argument("--person", required=True, help="person id or name")
    p_explain.add_argument("--k", type=int, default=10)
    p_explain.add_argument("--top", type=int, default=6)
    p_explain.add_argument("--json", default=None, help="write explanations to JSON")
    p_explain.set_defaults(fn=cmd_explain)

    p_workload = sub.add_parser(
        "workload", help="run an explanation workload through the service"
    )
    _add_common(p_workload)
    p_workload.add_argument("--queries", type=int, default=5)
    p_workload.add_argument("--k", type=int, default=10)
    from repro.service import EXPLANATION_KINDS

    p_workload.add_argument(
        "--kinds",
        nargs="+",
        choices=EXPLANATION_KINDS,
        default=["skills", "query", "cf_skills"],
        help="explanation kinds to request per subject",
    )
    p_workload.add_argument(
        "--team", action="store_true", help="include team-membership requests"
    )
    p_workload.add_argument(
        "--workers", type=int, default=1,
        help="thread-pool size for explain_many (1 = deterministic)",
    )
    p_workload.add_argument(
        "--edits", type=int, default=0, metavar="N",
        help="commit N live base edits racing the workload (in-process only)",
    )
    p_workload.add_argument("--json", default=None, help="write the report to JSON")
    p_workload.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="drive the workload over a socket against a running serve instance",
    )
    p_workload.add_argument(
        "--session", default="",
        help="session name for the remote connection (admission-control tenant)",
    )
    p_workload.set_defaults(fn=cmd_workload)

    p_serve = sub.add_parser(
        "serve", help="boot the asyncio serving front end (NDJSON over TCP)"
    )
    _add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    p_serve.add_argument("--k", type=int, default=10)
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="default explain_many worker count per batch (1 = deterministic)",
    )
    p_serve.add_argument(
        "--spill", default=None, metavar="PATH",
        help="warm-registry spill file: restore on boot, rewrite on shutdown",
    )
    p_serve.set_defaults(fn=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
