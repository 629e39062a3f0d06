"""Load-generator clients: trace replay and live sessions over real sockets.

Every client is a *full replica*: it owns a
:class:`~repro.core.document.Document` and a client-side
:class:`~repro.network.causal_broadcast.CausalBuffer`, mirrors the network
simulator's broadcast discipline (``export_since_seq`` suffix deltas, local
spans marked known before sending) and converges byte-identically with the
server and every other client.  Two drivers:

* :func:`run_loadgen` — a **live session**: N concurrent WebSocket (or
  long-polling) clients edit deterministically pseudo-randomly, presence
  frames ride along, and every delivered event is timestamped against its
  send time.  Produces sustained edits/sec and delivery-latency percentiles
  — the numbers ``BENCH_server_latency.json`` reports per client count.
* :func:`run_trace_replay` — replays a trace-suite session (S3, C2, ...):
  each trace author becomes a client that feeds its own events through the
  socket as soon as their causal parents are visible in its replica, so the
  original concurrency structure survives the trip through the server.
  Convergence is asserted against the **per-character oracle**
  (:func:`~repro.core.event_graph.expand_to_chars` + a reference replay).

All drivers return a :class:`LoadgenResult` whose ``leaks`` field aggregates
every buffer's parked-event count — zero after quiescence, by construction.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..core.document import Document
from ..core.event_graph import expand_to_chars
from ..core.ids import EventId
from ..core.oplog import RemoteEvent
from ..core.walker import EgWalker
from ..network.causal_broadcast import CausalBuffer
from ..traces.trace import Trace
from .protocol import (
    PROTOCOL_VERSION,
    bye_frame,
    decode_frame,
    delta_frame,
    encode_frame,
    hello_frame,
    presence_frame,
)
from .wire import WebSocketConnection, connect_websocket, read_http_request

__all__ = [
    "LoadgenResult",
    "ReconnectPolicy",
    "CollabClient",
    "PollClient",
    "run_loadgen",
    "run_loadgen_sync",
    "run_trace_replay",
    "http_request",
]

_WORDS = ["alpha ", "beta ", "gamma ", "delta ", "epsilon ", "zeta "]


@dataclass(frozen=True, slots=True)
class ReconnectPolicy:
    """Jittered exponential backoff for client auto-reconnect.

    A client with a policy survives connection cuts, server crashes and
    backpressure sheds: it redials, says ``hello`` with its **current**
    version (so the server ships only the missed suffix) and replays its own
    complete local history (the server's span-based dedup makes the overlap
    a no-op, while anything the server lost to a crash is restored).
    """

    max_attempts: int = 8
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each delay that is randomised away (0 = fixed backoff).
    jitter: float = 0.5

    def delays(self, rng: random.Random) -> Iterator[float]:
        """Yield up to ``max_attempts`` backoff delays, jittered by ``rng``."""
        delay = self.base_delay
        for _ in range(self.max_attempts):
            yield delay * (1.0 - self.jitter * rng.random())
            delay = min(delay * self.multiplier, self.max_delay)


@dataclass
class LoadgenResult:
    """One load-generation run, as a JSON-friendly result row."""

    mode: str
    transport: str
    clients: int
    edits: int
    run_events_sent: int
    seconds: float
    edits_per_sec: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_samples: int
    converged: bool
    final_text_len: int
    presence_received: int
    leaks: dict[str, int] = field(default_factory=dict)

    def as_row(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "transport": self.transport,
            "clients": self.clients,
            "edits": self.edits,
            "run_events_sent": self.run_events_sent,
            "seconds": round(self.seconds, 4),
            "edits_per_sec": round(self.edits_per_sec, 1),
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "latency_samples": self.latency_samples,
            "converged": self.converged,
            "final_text_len": self.final_text_len,
            "presence_received": self.presence_received,
            "leaked_events": sum(self.leaks.values()),
        }


# ----------------------------------------------------------------------
# Minimal HTTP client (for the fallback transport and the oracle endpoints)
# ----------------------------------------------------------------------
async def http_request(
    host: str, port: int, method: str, target: str, payload: Any | None = None
) -> tuple[int, Any]:
    """One HTTP exchange with the server; returns ``(status, parsed_json)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        writer.write(
            (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else None)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


class _ReplicaCore:
    """The replica-side state shared by both transports."""

    def __init__(
        self,
        agent: str,
        *,
        document: Document | None = None,
        document_options: dict | None = None,
        sent_times: dict[EventId, float] | None = None,
        latency_samples: list[float] | None = None,
    ) -> None:
        self.agent = agent
        self.document = document or Document(agent, **(document_options or {}))
        self.buffer = CausalBuffer(deliver_batch=self._apply_batch)
        # A reconnecting client reuses its document: everything already in
        # the graph is known to the (fresh) buffer.
        self.buffer.mark_known_spans(self.document.oplog.graph.id_spans())
        self.sent_times = sent_times
        self.latency_samples = latency_samples
        self.presence_seen: dict[str, tuple] = {}
        self.presence_received = 0
        self.errors: list[dict[str, Any]] = []
        #: Server-initiated byes (e.g. a backpressure shed's resumable bye).
        self.byes: list[dict[str, Any]] = []
        self.run_events_sent = 0
        #: Successful re-establishments after a lost connection.
        self.reconnects = 0
        self.delta_arrived = asyncio.Event()

    def _apply_batch(self, events: list[RemoteEvent]) -> None:
        self.document.apply_remote_events(events)

    @property
    def text(self) -> str:
        return self.document.text

    @property
    def pending_count(self) -> int:
        return self.buffer.pending_count

    def handle_frame(self, frame: dict[str, Any]) -> None:
        if frame["type"] == "delta":
            events = frame["events"]
            if self.latency_samples is not None and self.sent_times is not None:
                now = time.perf_counter()
                for event in events:
                    t0 = self.sent_times.get(event.id)
                    if t0 is not None:
                        self.latency_samples.append(now - t0)
            self.buffer.receive_batch(events)
            self.delta_arrived.set()
        elif frame["type"] == "presence":
            self.presence_seen[frame["agent"]] = tuple(frame["cursor"])
            self.presence_received += 1
        elif frame["type"] == "error":
            self.errors.append(frame)
        elif frame["type"] == "bye":
            self.byes.append(frame)

    def take_local_edit(self, before_seq: int) -> list[RemoteEvent]:
        """Export (and account) the suffix a local edit produced."""
        events = self.document.oplog.export_since_seq(self.agent, before_seq)
        self.buffer.mark_known_spans((e.id, e.op.length) for e in events)
        if self.sent_times is not None:
            now = time.perf_counter()
            for event in events:
                self.sent_times[event.id] = now
        self.run_events_sent += len(events)
        return events


class CollabClient(_ReplicaCore):
    """A WebSocket collaboration client (the fast path).

    With a :class:`ReconnectPolicy` the client is *self-healing*: a dropped
    socket (cut, crash, shed) triggers jittered-backoff redials from the
    read loop, resuming from the last locally applied version.
    """

    transport = "ws"

    def __init__(
        self,
        host: str,
        port: int,
        doc: str,
        agent: str,
        *,
        reconnect: ReconnectPolicy | None = None,
        **kwargs,
    ) -> None:
        super().__init__(agent, **kwargs)
        self.host = host
        self.port = port
        self.doc = doc
        self.reconnect = reconnect
        self.session_id: str | None = None
        self.ws: WebSocketConnection | None = None
        self._reader_task: asyncio.Task | None = None
        self._closing = False
        self._reconnect_rng = random.Random(zlib.crc32(agent.encode("utf-8")))

    async def connect(self) -> None:
        await self._open_session()
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _open_session(self) -> None:
        """Dial, ``hello`` with the current version, await ``welcome``."""
        self.ws = await connect_websocket(self.host, self.port, "/v1/ws")
        await self.ws.send_text(
            encode_frame(hello_frame(self.doc, self.agent, self.document.version().as_tuples()))
        )
        welcome = decode_frame(await self._recv_required())
        if welcome["type"] == "error":
            raise ConnectionError(f"server rejected hello: {welcome}")
        assert welcome["type"] == "welcome" and welcome["protocol"] == PROTOCOL_VERSION
        self.session_id = welcome["session"]

    async def _recv_required(self) -> str:
        text = await self.ws.recv_text()
        if text is None:
            raise ConnectionError("server closed the connection during the handshake")
        return text

    async def _read_loop(self) -> None:
        while True:
            try:
                text = await self.ws.recv_text()
            except ConnectionError:
                text = None
            if text is None:
                if self._closing or self.reconnect is None:
                    return
                if not await self._redial():
                    return
                continue
            self.handle_frame(decode_frame(text))

    async def _redial(self) -> bool:
        """Jittered-backoff reconnect; returns False when attempts run out
        (or the client is closing)."""
        assert self.reconnect is not None
        for delay in self.reconnect.delays(self._reconnect_rng):
            await asyncio.sleep(delay)
            if self._closing:
                return False
            try:
                await self._open_session()
            except (ConnectionError, OSError, AssertionError):
                continue
            self.reconnects += 1
            # The hello's version already fetched the missed suffix; replay
            # our complete history so a crashed server recovers anything it
            # lost (span dedup makes the overlap a clean no-op).
            replay = self.document.oplog.export_since_seq(self.agent, 0)
            if replay:
                try:
                    await self.ws.send_text(encode_frame(delta_frame(replay)))
                except ConnectionError:
                    continue
            return True
        return False

    # -- editing -------------------------------------------------------
    async def insert(self, pos: int, content: str) -> None:
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.insert(pos, content)
        await self._send_events(self.take_local_edit(before))

    async def delete(self, pos: int, length: int = 1) -> None:
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.delete(pos, length)
        await self._send_events(self.take_local_edit(before))

    async def send_events(self, events: Iterable[RemoteEvent]) -> None:
        await self._send_events(list(events))

    async def _send_events(self, events: list[RemoteEvent]) -> None:
        if not events:
            return
        try:
            await self.ws.send_text(encode_frame(delta_frame(events)))
        except ConnectionError:
            if self.reconnect is None:
                raise
            # Lost with the connection; the reconnect replay re-ships them.

    async def send_presence(self) -> None:
        try:
            await self.ws.send_text(
                encode_frame(presence_frame(self.agent, self.document.version().as_tuples()))
            )
        except ConnectionError:
            if self.reconnect is None:
                raise
            # Presence is ephemeral: a cursor lost to a dead socket is moot.

    async def send_raw(self, text: str) -> None:
        await self.ws.send_text(text)

    async def close(self, *, send_bye: bool = True) -> None:
        self._closing = True
        if self.ws is not None and send_bye and not self.ws.closed:
            try:
                await self.ws.send_text(encode_frame(bye_frame()))
            except ConnectionError:
                pass
        if self._reader_task is not None:
            try:
                await asyncio.wait_for(self._reader_task, timeout=1.0)
            except asyncio.TimeoutError:
                self._reader_task.cancel()
                try:
                    await self._reader_task
                except asyncio.CancelledError:
                    pass
        if self.ws is not None:
            await self.ws.close()


class PollClient(_ReplicaCore):
    """A long-polling collaboration client (the fallback path).

    Same replica semantics as :class:`CollabClient`, but frames travel as
    JSON bodies over plain HTTP and arrive on a polling task.  Presence is
    not available on this transport.
    """

    transport = "poll"

    def __init__(
        self,
        host: str,
        port: int,
        doc: str,
        agent: str,
        *,
        poll_wait: float = 0.25,
        reconnect: ReconnectPolicy | None = None,
        **kwargs,
    ) -> None:
        super().__init__(agent, **kwargs)
        self.host = host
        self.port = port
        self.doc = doc
        self.poll_wait = poll_wait
        self.reconnect = reconnect
        self.session_id: str | None = None
        self._poll_task: asyncio.Task | None = None
        self._stopping = False
        self._reconnect_rng = random.Random(zlib.crc32(agent.encode("utf-8")))

    async def connect(self) -> None:
        await self._open_session()
        self._poll_task = asyncio.create_task(self._poll_loop())

    async def _open_session(self) -> None:
        status, payload = await http_request(
            self.host,
            self.port,
            "POST",
            "/v1/connect",
            hello_frame(self.doc, self.agent, self.document.version().as_tuples()),
        )
        if status != 200:
            raise ConnectionError(f"connect failed ({status}): {payload}")
        session_id = None
        for raw in payload["frames"]:
            frame = decode_frame(json.dumps(raw))
            if frame["type"] == "welcome":
                session_id = frame["session"]
            else:
                self.handle_frame(frame)
        if session_id is None:
            raise ConnectionError("connect response carried no welcome frame")
        self.session_id = session_id

    async def _poll_loop(self) -> None:
        while not self._stopping:
            status, payload = await http_request(
                self.host,
                self.port,
                "GET",
                f"/v1/poll?session={self.session_id}&wait={self.poll_wait}",
            )
            if status != 200:
                if self._stopping or self.reconnect is None:
                    return
                if not await self._redial():
                    return
                continue
            for raw in payload["frames"]:
                self.handle_frame(decode_frame(json.dumps(raw)))

    async def _redial(self) -> bool:
        """Jittered-backoff re-``connect``; resumes from the local version
        and replays local history (deduplicated server-side)."""
        assert self.reconnect is not None
        for delay in self.reconnect.delays(self._reconnect_rng):
            await asyncio.sleep(delay)
            if self._stopping:
                return False
            try:
                await self._open_session()
                self.reconnects += 1
                replay = self.document.oplog.export_since_seq(self.agent, 0)
                if replay:
                    await self._send_frames([delta_frame(replay)])
                return True
            except (ConnectionError, OSError):
                continue
        return False

    async def _send_frames(self, frames: list[dict[str, Any]]) -> None:
        try:
            status, payload = await http_request(
                self.host,
                self.port,
                "POST",
                f"/v1/send?session={self.session_id}",
                {"frames": frames},
            )
        except (ConnectionError, OSError):
            if self.reconnect is None:
                raise
            # Server unreachable (crash window); reconnect replay re-ships.
            return
        if status != 200:
            if self.reconnect is not None:
                # Dead session (cut / shed / restart): the poll loop's redial
                # re-establishes and replays; this upload is not lost.
                return
            self.errors.append(payload if isinstance(payload, dict) else {"code": str(status)})

    async def insert(self, pos: int, content: str) -> None:
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.insert(pos, content)
        events = self.take_local_edit(before)
        if events:
            await self._send_frames([delta_frame(events)])

    async def delete(self, pos: int, length: int = 1) -> None:
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.delete(pos, length)
        events = self.take_local_edit(before)
        if events:
            await self._send_frames([delta_frame(events)])

    async def send_events(self, events: Iterable[RemoteEvent]) -> None:
        events = list(events)
        if events:
            await self._send_frames([delta_frame(events)])

    async def close(self, *, send_bye: bool = True) -> None:
        self._stopping = True
        if send_bye and self.session_id is not None:
            await self._send_frames([bye_frame()])
        if self._poll_task is not None:
            try:
                await asyncio.wait_for(self._poll_task, timeout=self.poll_wait + 1.0)
            except asyncio.TimeoutError:
                self._poll_task.cancel()
                try:
                    await self._poll_task
                except asyncio.CancelledError:
                    pass


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


async def _await_convergence(
    clients: list[_ReplicaCore], host: str, port: int, doc: str, timeout: float
) -> tuple[bool, str]:
    """Poll until every client's text equals the server's (and stays put)."""
    deadline = time.monotonic() + timeout
    server_text = ""
    while time.monotonic() < deadline:
        _, payload = await http_request(host, port, "GET", f"/v1/text?doc={doc}")
        server_text = payload["text"]
        if all(c.text == server_text for c in clients) and all(
            c.pending_count == 0 for c in clients
        ):
            return True, server_text
        await asyncio.sleep(0.05)
    return False, server_text


async def _collect_leaks(
    clients: list[_ReplicaCore], host: str, port: int, doc: str
) -> dict[str, int]:
    _, payload = await http_request(host, port, "GET", f"/v1/stats?doc={doc}")
    leaks = {f"server:{k}": v for k, v in payload["buffer_pending"].items()}
    for client in clients:
        leaks[f"client:{client.agent}"] = client.pending_count
    return leaks


async def run_loadgen(
    host: str,
    port: int,
    doc: str = "loadgen",
    *,
    clients: int = 8,
    edits_per_client: int = 40,
    edit_interval: float = 0.002,
    presence_every: int = 10,
    transport: str = "ws",
    seed: int = 0,
    convergence_timeout: float = 30.0,
) -> LoadgenResult:
    """Drive a live session against a running server and measure it.

    Args:
        clients: concurrent clients (each a full replica on its own socket).
        edits_per_client: local edits each client performs.
        edit_interval: pause between a client's edits (seconds).
        presence_every: send a cursor-presence frame every N edits (WS only).
        transport: ``"ws"``, ``"poll"``, or ``"mixed"`` (one poll client,
            the rest WebSockets).
        seed: drives each client's deterministic pseudo-random edit stream.

    Returns:
        A :class:`LoadgenResult`; ``converged`` is the byte-identical check
        and ``leaks`` maps every causal buffer to its parked-event count.
    """
    sent_times: dict[EventId, float] = {}
    latency_samples: list[float] = []
    pool: list[_ReplicaCore] = []
    for i in range(clients):
        kind = (
            PollClient
            if transport == "poll" or (transport == "mixed" and i == 0)
            else CollabClient
        )
        pool.append(
            kind(
                host,
                port,
                doc,
                f"lg{i}",
                sent_times=sent_times,
                latency_samples=latency_samples,
            )
        )
    for client in pool:
        await client.connect()

    async def drive(client, index: int) -> None:
        rng = random.Random(seed * 1009 + index)
        for n in range(edits_per_client):
            text_len = len(client.document.rope)
            if text_len > 30 and rng.random() < 0.2:
                pos = rng.randrange(text_len - 4)
                await client.delete(pos, rng.randint(1, 4))
            else:
                await client.insert(rng.randint(0, text_len), rng.choice(_WORDS))
            if client.transport == "ws" and presence_every and n % presence_every == 0:
                await client.send_presence()
            await asyncio.sleep(edit_interval)

    t0 = time.perf_counter()
    await asyncio.gather(*(drive(client, i) for i, client in enumerate(pool)))
    edit_seconds = time.perf_counter() - t0

    converged, final_text = await _await_convergence(
        pool, host, port, doc, convergence_timeout
    )
    leaks = await _collect_leaks(pool, host, port, doc)
    for client in pool:
        await client.close()

    total_edits = clients * edits_per_client
    return LoadgenResult(
        mode="live",
        transport=transport,
        clients=clients,
        edits=total_edits,
        run_events_sent=sum(c.run_events_sent for c in pool),
        seconds=edit_seconds,
        edits_per_sec=total_edits / edit_seconds if edit_seconds > 0 else 0.0,
        latency_p50_ms=_percentile(latency_samples, 0.50) * 1000,
        latency_p99_ms=_percentile(latency_samples, 0.99) * 1000,
        latency_samples=len(latency_samples),
        converged=converged,
        final_text_len=len(final_text),
        presence_received=sum(c.presence_received for c in pool),
        leaks=leaks,
    )


def run_loadgen_sync(host: str, port: int, **kwargs) -> LoadgenResult:
    """Synchronous wrapper around :func:`run_loadgen` (for scripts/benchmarks
    that manage their own server out of process)."""
    return asyncio.run(run_loadgen(host, port, **kwargs))


async def run_trace_replay(
    host: str,
    port: int,
    trace: Trace,
    doc: str | None = None,
    *,
    batch_size: int = 16,
    transport: str = "ws",
    convergence_timeout: float = 60.0,
) -> LoadgenResult:
    """Replay a trace-suite session over real sockets, one client per author.

    Each client feeds its author's events through its socket as soon as their
    causal parents are visible in its own replica (which they become via
    server deltas), preserving the trace's concurrency structure.  The final
    texts are checked byte-for-byte against the **per-character oracle**: a
    reference walker replay of the trace expanded to one event per character.
    """
    doc = doc or f"trace-{trace.name}"
    graph = trace.graph
    all_events = [
        RemoteEvent(
            id=event.id,
            parents=tuple(graph.dependency_id(p) for p in event.parents),
            op=event.op,
        )
        for event in graph.events()
    ]
    oracle_text = EgWalker(expand_to_chars(graph)).replay_text()
    by_author: dict[str, list[RemoteEvent]] = {}
    for event in all_events:
        by_author.setdefault(event.id.agent, []).append(event)

    client_kind = PollClient if transport == "poll" else CollabClient
    pool: list[_ReplicaCore] = [
        client_kind(host, port, doc, author) for author in by_author
    ]
    for client in pool:
        await client.connect()

    async def feed(client, events: list[RemoteEvent]) -> None:
        queue = list(events)
        position = 0
        doc_graph = client.document.oplog.graph
        while position < len(queue):
            ready: list[RemoteEvent] = []
            while position < len(queue) and len(ready) < batch_size:
                event = queue[position]
                if all(doc_graph.contains_id(p) for p in event.parents):
                    ready.append(event)
                    position += 1
                else:
                    break
            if ready:
                # Originate: ingest locally (marking the spans known to the
                # client buffer) and ship the batch in one delta frame.
                client.buffer.mark_known_spans((e.id, e.op.length) for e in ready)
                client.document.apply_remote_events(ready)
                client.run_events_sent += len(ready)
                await client.send_events(ready)
                await asyncio.sleep(0)
            else:
                # Blocked on another author's events: wait for the next delta.
                client.delta_arrived.clear()
                await asyncio.wait_for(client.delta_arrived.wait(), timeout=10.0)

    t0 = time.perf_counter()
    await asyncio.gather(
        *(feed(client, by_author[client.agent]) for client in pool)
    )
    feed_seconds = time.perf_counter() - t0

    converged, final_text = await _await_convergence(
        pool, host, port, doc, convergence_timeout
    )
    converged = converged and final_text == oracle_text
    leaks = await _collect_leaks(pool, host, port, doc)
    for client in pool:
        await client.close()

    total_events = len(all_events)
    return LoadgenResult(
        mode=f"trace:{trace.name}",
        transport=transport,
        clients=len(pool),
        edits=total_events,
        run_events_sent=sum(c.run_events_sent for c in pool),
        seconds=feed_seconds,
        edits_per_sec=total_events / feed_seconds if feed_seconds > 0 else 0.0,
        latency_p50_ms=0.0,
        latency_p99_ms=0.0,
        latency_samples=0,
        converged=converged,
        final_text_len=len(final_text),
        presence_received=0,
        leaks=leaks,
    )
