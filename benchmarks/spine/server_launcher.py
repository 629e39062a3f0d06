"""The benchmark's own server launcher (``run.py serve``): the system under
test in a process of its own, so the load generator never shares its event
loop or its GIL.

Prints the bound port on stdout, then serves until it is killed.  With
``--trace-out`` it also installs the span wrappers and a heartbeat task that
measures event-loop lag, and on ``SIGTERM`` writes the span table, the lag and
the room's public counters to that file — then kills itself with ``SIGKILL``,
so a traced run crashes exactly like an untraced one: no final fsync, no
compaction, no goodbyes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import time
from typing import Any

from repro.server.app import CollabServer
from repro.server.wal import DurabilityOptions

from .trace import Recorder, tracing

#: The server exits on its own after this long, should its parent vanish.
MAX_LIFETIME_S = 150.0
HEARTBEAT_S = 0.005


async def _heartbeat(lags_ms: list[float]) -> None:
    while True:
        due = time.perf_counter() + HEARTBEAT_S
        await asyncio.sleep(HEARTBEAT_S)
        lags_ms.append((time.perf_counter() - due) * 1e3)


def _room_counters(server: CollabServer) -> dict[str, Any]:
    """The benchmark room's ``MergeEngineStats`` and ``WalStats``."""
    (room,) = server.rooms.values()
    return {
        "merge": room.document.merge_stats.snapshot(),
        "wal": room.storage.stats.as_dict(),
    }


async def _serve(data_dir: str, trace_out: str | None = None, rec: Recorder | None = None) -> None:
    """Serve until killed; ``trace_out`` and ``rec`` come together or not at all."""
    server = CollabServer(
        "127.0.0.1",
        0,
        data_dir=data_dir,
        durability=DurabilityOptions(fsync_policy="group"),
    )
    await server.start()
    loop = asyncio.get_running_loop()
    loop.call_later(MAX_LIFETIME_S, os._exit, 3)
    terminate = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, terminate.set)
    lags_ms: list[float] = []
    heartbeat = asyncio.create_task(_heartbeat(lags_ms)) if rec is not None else None
    print(server.port, flush=True)
    cpu_started = time.process_time()
    await terminate.wait()
    cpu_ms = (time.process_time() - cpu_started) * 1e3
    if heartbeat is not None:
        heartbeat.cancel()
        await asyncio.gather(heartbeat, return_exceptions=True)
    if rec is not None and trace_out is not None:
        dump = rec.summary()
        dump["loop_lag_ms"] = lags_ms
        dump["cpu_ms"] = cpu_ms
        dump["stats"] = _room_counters(server)
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
    os.kill(os.getpid(), signal.SIGKILL)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="run.py serve", description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.trace_out is None:
        asyncio.run(_serve(args.data_dir))
    else:
        with tracing() as rec:
            asyncio.run(_serve(args.data_dir, args.trace_out, rec))
