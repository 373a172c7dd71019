"""The serve_edits server process.

Started by ``serve_edits.run`` with the workload configuration as JSON.
For each of the ``repeats`` passes it builds the PageRank ExES stack
(timed: one set-up sample), starts an :class:`~repro.serve
.ExplanationServer` on an ephemeral localhost port with one dispatch
thread and one explain worker, and prints a ready line ``{"port",
"setup_s", "rss_ready_mib"}``.  It serves until a line (or EOF) arrives
on stdin, then shuts that server down and prints a report line: work
counters, fallbacks and peak RSS.  When traced, a last line carries its
span totals (the spans themselves go to ``--spans``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def _mark_frames(tracer) -> None:
    """Stamp server spans with the frame they serve: the batch id of a
    ``batch`` frame (the client maps it to its request index) or
    ``("commit", id)`` of a ``commit`` frame."""
    import repro.serve.server as server_module

    decode = server_module.decode_frame

    def decode_and_mark(line):
        frame = decode(line)
        if frame.get("type") == "batch":
            tracer.phase = frame.get("id")
        elif frame.get("type") == "commit":
            tracer.phase = ("commit", frame.get("id"))
        return frame

    server_module.decode_frame = decode_and_mark


async def _serve(exes, ready: dict) -> dict:
    """Serve one pass: until a line (or EOF) arrives on stdin."""
    from repro.serve import ExplanationServer, ServeConfig

    server = await ExplanationServer(
        exes.service,
        ServeConfig(max_batch_workers=1, default_batch_workers=1, dispatch_threads=1),
    ).start()
    ready["port"] = server.port
    print(json.dumps(ready), flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def wait_for_line() -> None:
        sys.stdin.readline()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_line, daemon=True).start()
    await stop.wait()
    # The client has closed its connection; let the handler see EOF and
    # finish before shutdown closes what is left.
    for _ in range(200):
        if not server._connections:
            break
        await asyncio.sleep(0.01)
    await server.shutdown()
    return {
        "work": common.engine_counts(exes.registry),
        "fallbacks": exes.service.stats.get("fallback.full_rebuild"),
        "peak_rss_mib": common.peak_rss_mib(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    common.pin_environment()
    common.use_source_tree()
    from perfbench import serve_edits, trace

    cfg = json.loads(args.config)
    tracer = None
    if args.trace:
        tracer = trace.Tracer(process="server")
        _mark_frames(tracer)
        tracer.install()
    for _ in range(cfg["repeats"]):
        exes = None
        gc.collect()
        if tracer is not None:
            tracer.phase = "setup"
        t0 = common.now()
        exes = serve_edits.build(cfg)
        setup_s = common.now() - t0
        if tracer is not None:
            tracer.phase = "ready"
        ready = {"setup_s": setup_s, "rss_ready_mib": common.current_rss_mib()}
        report = asyncio.run(_serve(exes, ready))
        print(json.dumps(report), flush=True)
    if tracer is not None:
        tracer.uninstall()
        common.dump_json(Path(args.spans), tracer.span_records())
        report = {
            "totals": tracer.totals(),
            "covered": [
                [list(k) if isinstance(k, tuple) else k, v]
                for k, v in tracer.inclusive_by_phase().items()
            ],
        }
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
