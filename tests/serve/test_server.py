"""End-to-end server suite: an in-process :class:`ExplanationServer`
driven by real socket clients.

Covers the tentpole's contract surface: streamed partial results
arriving *before* batch completion, per-connection session mapping onto
the admission layer's keys, concurrent clients over one shared service,
backpressure pausing the read loop, and clean shutdown draining
in-flight batches.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pickle

import pytest

from repro.datasets import toy_network
from repro.embeddings import train_ppmi_embedding
from repro.explain import BeamConfig, FactualConfig
from repro.linkpred import HeuristicLinkPredictor
from repro.search import PageRankExpertRanker
from repro.serve import ServeClient
from repro.service import (
    EngineRegistry,
    ExplanationService,
    ResilienceConfig,
    explanation_signature,
    make_requests,
)
from repro.team import CoverTeamFormer


def _signatures(responses):
    return [
        explanation_signature(r.request, r.explanation)
        if r.explanation is not None
        else (r.outcome, r.error.kind if r.error else None)
        for r in responses
    ]


class TestStreaming:
    def test_partials_arrive_before_batch_completion(
        self, make_service, workload_for, serve_harness
    ):
        """The acceptance invariant: under a multi-shard workload, at
        least one ``result`` frame is received while the server still
        has the batch in flight — results stream per shard, they are
        not buffered until ``batch_end``."""
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service)

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            inflight_at_result = []
            frames = []
            async for frame in client.explain_stream(requests, max_workers=2):
                frames.append(frame["type"])
                if frame["type"] == "result":
                    inflight_at_result.append(server.inflight_batches)
            await client.close()
            await server.shutdown()
            return frames, inflight_at_result

        frames, inflight_at_result = run(scenario())
        assert frames.count("result") == len(requests)
        assert frames[-1] == "batch_end"
        assert frames.index("batch_end") == len(frames) - 1
        # The streaming claim: some result was on the client's side of
        # the wire while the server-side dispatch was still running.
        assert inflight_at_result[0] > 0, (
            "first result frame only arrived after the batch finished"
        )

    def test_batch_end_summary_carries_taxonomy_and_counters(
        self, make_service, workload_for, serve_harness
    ):
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service, n_queries=1)

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            responses, summary = await client.explain_many(requests, max_workers=2)
            await client.close()
            await server.shutdown()
            return responses, summary

        responses, summary = run(scenario())
        assert summary["n_requests"] == len(requests)
        assert summary["outcomes"] == {"ok": len(requests)}
        assert summary["elapsed_seconds"] > 0
        # ServiceStats snapshot + engine flush counters ride along.
        assert any(key.startswith("outcome.") for key in summary["stats"])
        for name in ("multi_flushes", "batch_flushes", "flushed_probes"):
            assert name in summary["fusion"]
        assert all(r.outcome == "ok" for r in responses)


class TestSessionMapping:
    def test_hello_names_the_admission_session(
        self, make_service, workload_for, serve_harness
    ):
        """Requests without an explicit session inherit the connection's
        hello-declared one; explicit sessions are preserved."""
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service, n_queries=1, kinds=("skills",))

        async def scenario():
            server = await start_server(service)
            named = await ServeClient.connect(
                "127.0.0.1", server.port, session="alice"
            )
            anon = await ServeClient.connect("127.0.0.1", server.port)
            named_responses, _ = await named.explain_many(requests)
            anon_responses, _ = await anon.explain_many(requests)
            sessions = (
                named.session,
                anon.session,
                {r.request.session for r in named_responses},
                {r.request.session for r in anon_responses},
            )
            await named.close()
            await anon.close()
            await server.shutdown()
            return sessions

        named_session, anon_session, named_stamps, anon_stamps = run(scenario())
        assert named_session == "alice"
        assert named_stamps == {"alice"}
        # Server-assigned sessions are per-connection and distinct.
        assert anon_session.startswith("conn-")
        assert anon_stamps == {anon_session}
        assert anon_session != named_session

    def test_explicit_request_session_wins_over_connection(
        self, make_service, workload_for, serve_harness
    ):
        import dataclasses

        start_server, run = serve_harness
        service = make_service()
        requests = [
            dataclasses.replace(r, session="explicit")
            for r in workload_for(service, n_queries=1, kinds=("skills",))
        ]

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect(
                "127.0.0.1", server.port, session="bob"
            )
            responses, _ = await client.explain_many(requests)
            stamps = {r.request.session for r in responses}
            await client.close()
            await server.shutdown()
            return stamps

        assert run(scenario()) == {"explicit"}


class TestConcurrentClients:
    def test_two_clients_interleave_with_parity(
        self, make_service, workload_for, serve_harness
    ):
        """Two connections batching concurrently against one shared
        service: both get complete, request-ordered, parity-exact
        answers — frames never cross connections."""
        start_server, run = serve_harness
        service = make_service()
        requests_a = workload_for(service, n_queries=1)
        requests_b = list(reversed(workload_for(service, n_queries=2)))
        reference_a = _signatures(service.explain_many(requests_a, max_workers=1))
        reference_b = _signatures(service.explain_many(requests_b, max_workers=1))

        async def one_client(port, requests, session):
            client = await ServeClient.connect("127.0.0.1", port, session=session)
            try:
                responses, summary = await client.explain_many(
                    requests, max_workers=2
                )
            finally:
                await client.close()
            return responses, summary

        async def scenario():
            server = await start_server(service)
            (resp_a, sum_a), (resp_b, sum_b) = await asyncio.gather(
                one_client(server.port, requests_a, "a"),
                one_client(server.port, requests_b, "b"),
            )
            stats = dict(server.stats)
            await server.shutdown()
            return resp_a, resp_b, sum_a, sum_b, stats

        resp_a, resp_b, sum_a, sum_b, stats = run(scenario())
        assert _signatures(resp_a) == reference_a
        assert _signatures(resp_b) == reference_b
        assert sum_a["n_requests"] == len(requests_a)
        assert sum_b["n_requests"] == len(requests_b)
        assert stats["connections"] == 2
        assert stats["batches"] == 2


class TestBackpressure:
    def test_over_limit_pipelining_pauses_the_read_loop(
        self, make_service, workload_for, serve_harness
    ):
        """Three batches pipelined down one connection with
        ``max_inflight_batches=1``: the server stops reading past the
        limit (counted in ``read_pauses``) instead of buffering, and
        every batch still completes in order."""
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service, n_queries=1, kinds=("skills",))

        async def scenario():
            server = await start_server(service, max_inflight_batches=1)
            client = await ServeClient.connect("127.0.0.1", server.port)
            # Raw pipelining: three batch frames written back-to-back
            # without awaiting any reply.
            from repro.explain.serialize import request_to_dict

            payload = [request_to_dict(r) for r in requests]
            for batch_id in (1, 2, 3):
                await client.send(
                    {"type": "batch", "id": batch_id, "requests": payload}
                )
            ends = []
            while len(ends) < 3:
                frame = await client.recv()
                assert frame is not None and frame["type"] != "error", frame
                if frame["type"] == "batch_end":
                    ends.append(frame["id"])
            stats = dict(server.stats)
            await client.close()
            await server.shutdown()
            return ends, stats

        ends, stats = run(scenario())
        assert ends == [1, 2, 3]  # one connection: strictly ordered
        assert stats["batches"] == 3
        assert stats["read_pauses"] >= 1, "backpressure gate never engaged"

    def test_admission_shed_drops_connection_to_drain_mode(
        self, make_service, workload_for, serve_harness
    ):
        """A batch that comes back load-shed (``rejected`` outcomes from
        admission control) marks the connection pressured: the next
        batch is not read until in-flight work drains."""
        start_server, run = serve_harness
        service = make_service(
            resilience=ResilienceConfig(max_in_flight=1, session_share=1.0)
        )
        requests = workload_for(service, n_queries=2)

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            # Hold the one admission slot for the whole first batch, so
            # the shed does not depend on worker threads overlapping.
            assert service.admission.try_acquire("holder") is None
            try:
                responses, summary = await client.explain_many(
                    requests, max_workers=4
                )
            finally:
                service.admission.release("holder")
            # The shed happened, so the batch summary flags pressure...
            first = (summary["outcomes"], summary["pressured"])
            # ...and the *next* batch on this connection goes through
            # drain-mode admission, then completes normally.
            responses2, summary2 = await client.explain_many(
                requests[:2], max_workers=1
            )
            stats = dict(server.stats)
            await client.close()
            await server.shutdown()
            return first, summary2, stats

        (outcomes, pressured), summary2, stats = run(scenario())
        assert outcomes.get("rejected", 0) > 0
        assert pressured is True
        assert summary2["outcomes"] == {"ok": 2}
        assert summary2["pressured"] is False  # pressure cleared


class TestShutdown:
    def test_shutdown_drains_in_flight_batches(
        self, make_service, workload_for, serve_harness
    ):
        """Shutdown called mid-batch: the client still receives every
        result frame and the ``batch_end`` summary, then a ``shutdown``
        frame, then EOF — in-flight work is drained, never dropped."""
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service)

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            from repro.explain.serialize import request_to_dict

            await client.send(
                {
                    "type": "batch",
                    "id": 7,
                    "requests": [request_to_dict(r) for r in requests],
                    "max_workers": 2,
                }
            )
            # Wait until the batch is genuinely in flight, then shut down.
            while server.inflight_batches == 0:
                await asyncio.sleep(0.005)
            shutdown_task = asyncio.ensure_future(server.shutdown())
            frames = []
            while True:
                frame = await client.recv()
                if frame is None:
                    break
                frames.append(frame)
            await shutdown_task
            await client.close()
            return frames

        frames = run(scenario())
        kinds = [f["type"] for f in frames]
        assert kinds.count("result") == len(requests)
        assert "batch_end" in kinds
        assert kinds[-1] == "shutdown"
        assert kinds.index("batch_end") > kinds.index("result")
        end = next(f for f in frames if f["type"] == "batch_end")
        assert end["outcomes"] == {"ok": len(requests)}

    def test_new_batches_refused_while_draining(
        self, make_service, workload_for, serve_harness
    ):
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service, n_queries=1, kinds=("skills",))

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            server._closing = True  # drain mode, connection still open
            from repro.explain.serialize import request_to_dict

            await client.send(
                {
                    "type": "batch",
                    "id": 1,
                    "requests": [request_to_dict(r) for r in requests],
                }
            )
            frame = await client.recv()
            await client.close()
            server._closing = False
            await server.shutdown()
            return frame

        frame = run(scenario())
        assert frame["type"] == "error"
        assert frame["error"]["kind"] == "ServerClosing"
        assert frame["error"]["retryable"] is True
        assert frame["id"] == 1


def _private_stack():
    """A private network plus trained components — commit tests mutate
    the base in place, so the package-scoped fixtures cannot be used."""
    net = toy_network(n_people=16, seed=3)
    profiles = [sorted(net.skills(p)) for p in net.people()] * 2
    embedding = train_ppmi_embedding(profiles, dim=8, min_count=1)
    predictor = HeuristicLinkPredictor("common_neighbors").fit(net)
    return net, embedding, predictor


def _private_service(net, embedding, predictor):
    ranker = PageRankExpertRanker()
    return ExplanationService(
        network=net,
        ranker=ranker,
        embedding=embedding,
        link_predictor=predictor,
        former=CoverTeamFormer(ranker),
        k=3,
        factual_config=FactualConfig(
            n_samples=16, max_samples=32, selection_samples=8, exact_limit=5
        ),
        beam_config=BeamConfig(
            beam_size=3, n_candidates=4, max_size=2, n_explanations=1
        ),
        registry=EngineRegistry(),
    )


def _private_workload(service, net, n_queries=2, kinds=("skills", "cf_skills")):
    skills = sorted(net.skill_universe())
    queries = [tuple(skills[i : i + 3]) for i in range(0, 3 * n_queries, 3)]
    requests = []
    for query in queries:
        order = service.ranker.evaluate(query, net).order
        requests += make_requests(kinds, int(order[0]), query, tag="expert")
        requests += make_requests(kinds, int(order[3]), query, tag="non_expert")
    return requests


class TestLiveCommits:
    """The ``commit`` wire frame: live base edits against a serving
    process, with single-version response stamping across the epoch
    boundary."""

    def test_commit_mid_batch_stamps_versions(self, serve_harness):
        """A commit landing mid-batch drains the in-flight requests on
        the old version and stamps everything dispatched after it with
        the new ``base_version``; a follow-up batch is entirely on the
        new version."""
        start_server, run = serve_harness
        net, embedding, predictor = _private_stack()
        service = _private_service(net, embedding, predictor)
        requests = _private_workload(service, net)
        v0 = service.network.version

        async def scenario():
            from repro.explain.serialize import request_to_dict, response_from_dict

            server = await start_server(service)
            worker = await ServeClient.connect("127.0.0.1", server.port)
            admin = await ServeClient.connect("127.0.0.1", server.port)
            await worker.send(
                {
                    "type": "batch",
                    "id": 1,
                    "requests": [request_to_dict(r) for r in requests],
                    "max_workers": 2,
                }
            )
            # The first result lands before the commit is even sent: it
            # must carry the old base version.
            frame = await worker.recv()
            while frame["type"] != "result":
                frame = await worker.recv()
            responses = [response_from_dict(frame["response"])]
            # Commit on a second connection while batch 1 is in flight.
            end = await admin.commit(
                skill_flips=[(net.n_people - 1, "__live", True)], commit_id="c1"
            )
            while True:
                frame = await worker.recv()
                if frame["type"] == "result":
                    responses.append(response_from_dict(frame["response"]))
                elif frame["type"] == "batch_end":
                    break
            # Everything after the epoch boundary is on the new base.
            responses2, summary2 = await worker.explain_many(
                requests[:4], max_workers=2
            )
            stats = dict(server.stats)
            await worker.close()
            await admin.close()
            await server.shutdown()
            return responses, end, responses2, summary2, stats

        responses, end, responses2, summary2, stats = run(scenario())
        assert end["type"] == "commit_end" and end["id"] == "c1"
        assert end["old_version"] == v0
        assert end["new_version"] == service.network.version > v0
        assert end["n_skill_flips"] == 1 and end["n_edge_flips"] == 0
        assert set(end["stats"]) >= {"dropped_sessions", "retained_memo_entries"}

        assert len(responses) == len(requests)
        assert all(r.outcome == "ok" for r in responses)
        assert responses[0].base_version == v0  # pre-commit, old base
        # Every response is stamped with exactly one of the two versions
        # that existed during the batch — never unstamped, never a third.
        assert {r.base_version for r in responses} <= {v0, end["new_version"]}

        assert summary2["outcomes"] == {"ok": 4}
        assert all(r.base_version == end["new_version"] for r in responses2)
        assert stats["commits"] == 1

    def test_commit_refused_while_draining(self, serve_harness):
        start_server, run = serve_harness
        net, embedding, predictor = _private_stack()
        service = _private_service(net, embedding, predictor)
        v0 = service.network.version

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            server._closing = True
            try:
                await client.commit(
                    skill_flips=[(0, "__refused", True)], commit_id="c2"
                )
                raised = None
            except Exception as exc:  # noqa: BLE001 - asserting on type below
                raised = exc
            await client.close()
            server._closing = False
            await server.shutdown()
            return raised

        raised = run(scenario())
        from repro.serve import RemoteProtocolError

        assert isinstance(raised, RemoteProtocolError)
        assert raised.error.kind == "ServerClosing"
        assert service.network.version == v0  # the edit never landed


class TestSpillRestore:
    """Registry spill on shutdown, restore on boot: a restarted server
    answers its first batch from the reloaded warm state instead of a
    cold-start rebuild — bit-identically."""

    def test_round_trip_warm_boot(self, serve_harness, tmp_path):
        start_server, run = serve_harness
        spill = str(tmp_path / "registry.spill")
        net1, embedding, predictor = _private_stack()
        service1 = _private_service(net1, embedding, predictor)
        requests = [
            dataclasses.replace(r, session="spill")
            for r in _private_workload(service1, net1)
        ]

        async def warm_and_spill():
            server = await start_server(service1, spill_path=spill)
            restore_stats = dict(server.restore_stats)
            client = await ServeClient.connect(
                "127.0.0.1", server.port, session="spill"
            )
            responses, _ = await client.explain_many(requests, max_workers=2)
            await client.close()
            await server.shutdown()  # writes the spill file
            return restore_stats, responses

        first_restore, warm_responses = run(warm_and_spill())
        assert first_restore.get("skipped") == "missing"  # nothing to load yet
        assert all(r.outcome == "ok" for r in warm_responses)
        reference = _signatures(warm_responses)

        assert os.path.exists(spill)
        with open(spill, "rb") as f:
            payload = pickle.load(f)
        assert payload["format"] == "repro-registry-spill/1"
        assert payload["digest"] == net1.state_digest()

        # "Restart": a fresh network instance with identical structure,
        # fresh ranker/former/registry — only the spill file carries over.
        net2, embedding2, predictor2 = _private_stack()
        service2 = _private_service(net2, embedding2, predictor2)

        async def restore_and_answer():
            server = await start_server(service2, spill_path=spill)
            restore_stats = dict(server.restore_stats)
            builds_after_restore = service2.registry.session_builds
            client = await ServeClient.connect(
                "127.0.0.1", server.port, session="spill"
            )
            responses, _ = await client.explain_many(requests, max_workers=1)
            await client.close()
            await server.shutdown()
            return restore_stats, builds_after_restore, responses

        restore_stats, builds_after_restore, responses = run(restore_and_answer())
        assert "skipped" not in restore_stats
        assert restore_stats["sessions"] >= 1
        assert restore_stats["memo_entries"] >= 1
        assert service2.registry.restored_sessions >= 1
        # Warm boot: the batch was served by the restored sessions — no
        # session was built after the restore pass.
        assert service2.registry.session_builds == builds_after_restore
        assert all(r.outcome == "ok" for r in responses)
        assert _signatures(responses) == reference

    def test_restore_refuses_structural_mismatch(self, serve_harness, tmp_path):
        """A spill bound to a different network structure is skipped
        whole — a digest mismatch must never half-restore."""
        start_server, run = serve_harness
        spill = str(tmp_path / "registry.spill")
        net1, embedding, predictor = _private_stack()
        service1 = _private_service(net1, embedding, predictor)
        requests = _private_workload(service1, net1)[:4]

        async def warm_and_spill():
            server = await start_server(service1, spill_path=spill)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.explain_many(requests, max_workers=1)
            await client.close()
            await server.shutdown()

        run(warm_and_spill())

        other = toy_network(n_people=14, seed=9)  # different structure
        profiles = [sorted(other.skills(p)) for p in other.people()] * 2
        embedding2 = train_ppmi_embedding(profiles, dim=8, min_count=1)
        predictor2 = HeuristicLinkPredictor("common_neighbors").fit(other)
        service2 = _private_service(other, embedding2, predictor2)

        async def boot():
            server = await start_server(service2, spill_path=spill)
            restore_stats = dict(server.restore_stats)
            await server.shutdown()
            return restore_stats

        restore_stats = run(boot())
        assert restore_stats["skipped"] == "digest"
        assert restore_stats["sessions"] == 0
        assert service2.registry.restored_sessions == 0


class TestHousekeeping:
    def test_ping_pong_and_welcome(self, make_service, serve_harness):
        start_server, run = serve_harness
        service = make_service()

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            pong = await client.ping("liveness-1")
            version = client.protocol_version
            await client.close()
            await server.shutdown()
            return pong, version

        pong, version = run(scenario())
        assert pong == {"type": "pong", "id": "liveness-1"}
        assert version == 1

    def test_coalesced_duplicates_marked_on_the_wire(
        self, make_service, workload_for, serve_harness
    ):
        start_server, run = serve_harness
        service = make_service()
        base = workload_for(service, n_queries=1, kinds=("skills",))
        requests = base + base  # exact duplicates coalesce

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            responses, _ = await client.explain_many(requests)
            await client.close()
            await server.shutdown()
            return responses

        responses = run(scenario())
        assert sum(1 for r in responses if r.coalesced) == len(base)
        assert all(r.outcome == "ok" for r in responses)
