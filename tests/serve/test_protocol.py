"""Protocol robustness: every way the wire can go wrong yields a typed
``ExplainError`` frame or a clean close — never a dropped connection
mid-batch, never a traceback-crash of the server loop.

Axes: malformed JSON, truncated and oversized frames, unknown frame
types, unknown explanation kinds, mid-stream disconnects, and a seeded
randomized frame-corruption fuzz (byte flips, deletions, insertions,
truncations against a valid batch frame).
"""

from __future__ import annotations

import asyncio
import json
import random
import threading

import pytest

from repro.explain.serialize import request_from_dict, request_to_dict
from repro.serve import MalformedFrame, ServeClient
from repro.service.requests import ExplainRequest
from repro.serve.protocol import (
    OVERSIZED,
    FrameReader,
    decode_frame,
    encode_frame,
)

#: Frame types a server may legitimately answer with — anything else
#: coming back during the fuzz run is a protocol bug.
SERVER_FRAME_TYPES = {
    "welcome", "result", "batch_end", "error", "pong", "shutdown",
}


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"type": "batch", "id": 3, "requests": [{"kind": "skills"}]}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    @pytest.mark.parametrize(
        "line",
        [
            b"not json at all",
            b"{truncated",
            b"[1, 2, 3]",          # JSON, but not an object
            b'"just a string"',
            b"{}",                  # object, but no type
            b'{"type": 7}',         # type is not a string
            b"\xff\xfe garbage",    # not UTF-8
        ],
    )
    def test_bad_lines_raise_typed_malformed(self, line):
        with pytest.raises(MalformedFrame):
            decode_frame(line)


class TestFrameReader:
    @staticmethod
    def _reader(*chunks, limit=64):
        stream = asyncio.StreamReader()
        for chunk in chunks:
            stream.feed_data(chunk)
        stream.feed_eof()
        return FrameReader(stream, limit)

    def test_oversized_line_discarded_and_connection_continues(self):
        async def scenario():
            reader = self._reader(b"x" * 200 + b"\n" + b'{"type":"ping"}\n')
            first = await reader.next_line()
            second = await reader.next_line()
            third = await reader.next_line()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first is OVERSIZED
        assert second == b'{"type":"ping"}'
        assert third is None

    def test_oversized_line_split_across_reads(self):
        async def scenario():
            stream = asyncio.StreamReader()
            reader = FrameReader(stream, 64)
            stream.feed_data(b"y" * 100)          # over limit, no newline yet
            stream.feed_data(b"y" * 100 + b"\n")  # the tail
            stream.feed_data(b'{"type":"ok"}\n')
            stream.feed_eof()
            return [await reader.next_line() for _ in range(3)]

        first, second, third = asyncio.run(scenario())
        assert first is OVERSIZED
        assert second == b'{"type":"ok"}'
        assert third is None

    def test_truncated_final_line_is_clean_close(self):
        async def scenario():
            reader = self._reader(b'{"type":"ping"}\n{"type":"trunc')
            return [await reader.next_line() for _ in range(2)]

        first, second = asyncio.run(scenario())
        assert first == b'{"type":"ping"}'
        assert second is None  # truncated tail: close, don't parse

    def test_blank_keepalive_lines_skipped(self):
        async def scenario():
            reader = self._reader(b"\n  \n" + b'{"type":"ping"}\n\n')
            return [await reader.next_line() for _ in range(2)]

        first, second = asyncio.run(scenario())
        assert first == b'{"type":"ping"}'
        assert second is None


def _one_request(service, net):
    skills = sorted(net.skill_universe())
    query = tuple(skills[:3])
    order = service.ranker.evaluate(query, net).order
    return request_to_dict(
        ExplainRequest(kind="skills", person=int(order[0]), query=query)
    )


class TestTypedWireErrors:
    """Each failure mode over a real socket: typed error frame, and the
    connection keeps working (proved by a pong afterwards)."""

    @pytest.fixture
    def wire(self, make_service, serve_net, serve_harness):
        start_server, run = serve_harness
        service = make_service()
        return service, serve_net, start_server, run

    def _provoke(self, wire, payload_bytes=None, frame=None, expect_kind=None):
        service, net, start_server, run = wire

        async def scenario():
            server = await start_server(service, max_frame_bytes=4096)
            client = await ServeClient.connect("127.0.0.1", server.port)
            if payload_bytes is not None:
                client._writer.write(payload_bytes)
                await client._writer.drain()
            else:
                await client.send(frame)
            reply = await client.recv()
            pong = await client.ping("still-alive")
            stats = dict(server.stats)
            await client.close()
            await server.shutdown()
            return reply, pong, stats

        reply, pong, stats = run(scenario())
        assert reply["type"] == "error"
        assert reply["error"]["kind"] == expect_kind
        assert reply["error"]["message"]
        assert pong["id"] == "still-alive"
        assert stats["protocol_errors"] >= 1
        return reply

    def test_malformed_json(self, wire):
        self._provoke(
            wire, payload_bytes=b"{nope nope\n", expect_kind="MalformedFrame"
        )

    def test_non_object_frame(self, wire):
        self._provoke(
            wire, payload_bytes=b"[1,2,3]\n", expect_kind="MalformedFrame"
        )

    def test_oversized_frame(self, wire):
        self._provoke(
            wire,
            payload_bytes=b'{"type":"batch","pad":"' + b"x" * 8192 + b'"}\n',
            expect_kind="OversizedFrame",
        )

    def test_unknown_frame_type(self, wire):
        reply = self._provoke(
            wire,
            frame={"type": "teleport", "id": 42},
            expect_kind="UnknownFrameType",
        )
        assert reply["id"] == 42  # error tied back to the offending frame

    def test_unknown_explanation_kind(self, wire):
        service, net, _, _ = wire
        request = _one_request(service, net)
        request["kind"] = "mind_reading"
        reply = self._provoke(
            wire,
            frame={"type": "batch", "id": 9, "requests": [request]},
            expect_kind="InvalidRequest",
        )
        assert reply["id"] == 9
        assert "mind_reading" in reply["error"]["message"]

    def test_missing_request_fields(self, wire):
        self._provoke(
            wire,
            frame={"type": "batch", "id": 1, "requests": [{"kind": "skills"}]},
            expect_kind="InvalidRequest",
        )

    def test_requests_not_a_list(self, wire):
        self._provoke(
            wire,
            frame={"type": "batch", "id": 2, "requests": "all of them"},
            expect_kind="InvalidRequest",
        )

    def test_bad_max_workers(self, wire):
        service, net, _, _ = wire
        self._provoke(
            wire,
            frame={
                "type": "batch",
                "id": 3,
                "requests": [_one_request(service, net)],
                "max_workers": "lots",
            },
            expect_kind="InvalidRequest",
        )


class TestDisconnects:
    def test_mid_batch_disconnect_leaves_server_serving(
        self, make_service, workload_for, serve_harness
    ):
        """A client that sends a batch and vanishes costs the server the
        already-running dispatch, nothing else: the next client gets
        normal service.

        The dispatch is held on a gate that opens only once the server
        has recorded the disconnect, so the batch is still in flight when
        the abort is read however fast the batch would have run."""
        start_server, run = serve_harness
        service = make_service()
        requests = workload_for(service, n_queries=1)
        gate = threading.Event()
        explain_many = service.explain_many

        def held_explain_many(*args, **kwargs):
            gate.wait(timeout=60)
            return explain_many(*args, **kwargs)

        service.explain_many = held_explain_many

        async def scenario():
            server = await start_server(service)
            rude = await ServeClient.connect("127.0.0.1", server.port)
            await rude.send(
                {
                    "type": "batch",
                    "id": 1,
                    "requests": [request_to_dict(r) for r in requests],
                }
            )
            while server.inflight_batches == 0:
                await asyncio.sleep(0.005)
            rude._writer.transport.abort()  # vanish mid-batch
            try:
                for _ in range(2000):
                    if server.stats["disconnects_mid_batch"] >= 1:
                        break
                    await asyncio.sleep(0.01)
            finally:
                gate.set()  # the orphaned dispatch now runs to completion
            polite = await ServeClient.connect("127.0.0.1", server.port)
            responses, summary = await polite.explain_many(requests[:2])
            stats = dict(server.stats)
            await polite.close()
            await server.shutdown()
            return responses, summary, stats

        responses, summary, stats = run(scenario())
        assert stats["disconnects_mid_batch"] == 1
        assert summary["outcomes"] == {"ok": 2}
        assert all(r.outcome == "ok" for r in responses)

    def test_truncated_final_frame_is_clean_close(
        self, make_service, serve_net, serve_harness
    ):
        start_server, run = serve_harness
        service = make_service()

        async def scenario():
            server = await start_server(service)
            client = await ServeClient.connect("127.0.0.1", server.port)
            # Half a frame, no newline, then EOF.
            client._writer.write(b'{"type": "batch", "requests": [')
            client._writer.write_eof()
            # Clean close: no error frame, just EOF back after shutdown.
            for _ in range(2000):
                if server.stats["connections"] == 1 and not server._connections:
                    break
                await asyncio.sleep(0.01)
            stats = dict(server.stats)
            n_live = len(server._connections)
            await client.close()
            await server.shutdown()
            return stats, n_live

        stats, n_live = run(scenario())
        assert n_live == 0  # connection reaped without error
        assert stats["protocol_errors"] == 0


def _corrupt(data: bytes, rng: random.Random) -> bytes:
    """One random corruption: byte flip, deletion, insertion, or
    truncation.  Always newline-terminated so the server sees a line."""
    body = bytearray(data.rstrip(b"\n"))
    op = rng.randrange(4)
    if op == 0 and body:  # flip a byte
        i = rng.randrange(len(body))
        body[i] = rng.randrange(256)
    elif op == 1 and len(body) > 2:  # delete a slice
        i = rng.randrange(len(body) - 1)
        j = min(len(body), i + rng.randrange(1, 16))
        del body[i:j]
    elif op == 2:  # insert noise
        i = rng.randrange(len(body) + 1)
        noise = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 8)))
        body[i:i] = noise
    else:  # truncate
        body = body[: rng.randrange(max(1, len(body)))]
    return bytes(body) + b"\n"


class TestCorruptionFuzz:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_seeded_corruption_never_crashes_the_loop(
        self, make_service, serve_net, serve_harness, seed
    ):
        """Forty corrupted batch frames down one connection: every reply
        is a well-typed server frame, the connection survives to answer
        a final ping, and a pristine batch afterwards completes."""
        start_server, run = serve_harness
        service = make_service()
        rng = random.Random(seed)
        pristine = encode_frame(
            {
                "type": "batch",
                "id": 99,
                "requests": [_one_request(service, serve_net)],
            }
        )

        async def scenario():
            server = await start_server(service, max_frame_bytes=4096)
            client = await ServeClient.connect("127.0.0.1", server.port)
            for _ in range(40):
                client._writer.write(_corrupt(pristine, rng))
            await client._writer.drain()
            # Drain replies until the liveness pong: corrupted frames
            # may yield error frames, or — when a corruption leaves a
            # parseable batch — genuine result/batch_end streams.
            await client.send({"type": "ping", "id": "fuzz-done"})
            replies = []
            while True:
                frame = await client.recv()
                assert frame is not None, "server closed on corrupted input"
                assert frame["type"] in SERVER_FRAME_TYPES, frame
                if frame["type"] == "pong" and frame.get("id") == "fuzz-done":
                    break
                replies.append(frame["type"])
            # The connection still does real work afterwards.
            responses, summary = await client.explain_many(
                [request_from_dict(_one_request(service, serve_net))]
            )
            stats = dict(server.stats)
            await client.close()
            await server.shutdown()
            return replies, responses, summary, stats

        replies, responses, summary, stats = run(scenario())
        assert stats["protocol_errors"] >= 1, "corruption produced no typed errors"
        assert "error" in replies
        assert summary["outcomes"] == {"ok": 1}
        assert responses[0].outcome == "ok"
