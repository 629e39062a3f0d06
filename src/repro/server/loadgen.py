"""Load-generator clients: trace replay and live sessions over real sockets.

Every client is a *full replica* — a :class:`~repro.network.replica.Replica`,
like the network simulator's peers and the server's rooms: local edits ship
their exported suffix, already known to the client's inbound buffer, and the
client converges byte-identically with the server and every other client.
Two drivers:

* :func:`run_loadgen` — a **live session**: N concurrent WebSocket (or
  long-polling) clients edit deterministically pseudo-randomly while
  presence frames ride along.  Timing it is the benchmark's job
  (``benchmarks/spine``), not the loadgen's.
* :func:`run_trace_replay` — replays a trace-suite session (S3, C2, ...):
  each trace author becomes a client that feeds its own events through the
  socket as soon as their causal parents are visible in its replica, so the
  original concurrency structure survives the trip through the server.
  Convergence is asserted against the **per-character oracle**
  (:func:`~repro.core.event_graph.expand_to_chars` + a reference replay).

Both drivers return a :class:`LoadgenResult` whose ``leaks`` field maps
every buffer to its parked-event count — zero after quiescence, by
construction.
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
from ..core.oplog import RemoteEvent, graph_to_remote_events
from ..core.walker import EgWalker
from ..network.replica import Replica
from ..traces.trace import Trace
from .protocol import (
    PROTOCOL_VERSION,
    bye_frame,
    decode_frame,
    delta_frame,
    encode_frame,
    hello_frame,
    presence_frame,
    validate_frame,
)
from .wire import WebSocketConnection, connect_websocket

__all__ = [
    "LoadgenResult",
    "ReconnectPolicy",
    "CollabClient",
    "PollClient",
    "run_loadgen",
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
    """The outcome of one load-generation run."""

    mode: str
    transport: str
    clients: int
    edits: int
    run_events_sent: int
    converged: bool
    final_text_len: int
    presence_received: int
    leaks: dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Minimal HTTP client (for the fallback transport and the oracle endpoints)
# ----------------------------------------------------------------------
async def http_request(
    host: str, port: int, method: str, target: str, payload: Any | None = None
) -> tuple[int, Any]:
    """One HTTP exchange with the server; returns ``(status, parsed_json)``.
    ``payload`` goes as compact UTF-8 JSON, a lone surrogate in it passed
    through (``surrogatepass``) for the server to refuse; ``bytes`` go as
    they are."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if isinstance(payload, bytes):
            body = payload
        elif payload is None:
            body = b""
        else:
            body = encode_frame(payload).encode("utf-8", "surrogatepass")
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


class _ReplicaCore(Replica):
    """A client replica: what both transports share.

    The connection state, the editing calls and the backoff-and-replay
    reconnect live here.  A transport adds its dialling (``_open_session``:
    connect and ``hello`` with the current version), its receive loop
    (``_receive_loop``), ``_ship`` (send one frame, raising
    ``ConnectionError``/``OSError`` when the connection is gone) and
    ``close``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        doc: str,
        agent: str,
        *,
        reconnect: ReconnectPolicy | None = None,
        document: Document | None = None,
    ) -> None:
        # A reconnecting client may reuse its document: everything already
        # in the graph is known to the (fresh) inbound buffer.
        super().__init__(Document(agent) if document is None else document)
        self.host = host
        self.port = port
        self.doc = doc
        self.reconnect = reconnect
        self.session_id: str | None = None
        self._closing = False
        self._receive_task: asyncio.Task | None = None
        self._reconnect_rng = random.Random(zlib.crc32(agent.encode("utf-8")))
        self.presence_seen: dict[str, tuple] = {}
        self.presence_received = 0
        self.errors: list[dict[str, Any]] = []
        #: Server-initiated byes (e.g. a backpressure shed's resumable bye).
        self.byes: list[dict[str, Any]] = []
        self.run_events_sent = 0
        #: Successful re-establishments after a lost connection.
        self.reconnects = 0
        self.delta_arrived = asyncio.Event()

    async def connect(self) -> None:
        await self._open_session()
        self._receive_task = asyncio.create_task(self._receive_loop())

    def handle_frame(self, frame: dict[str, Any]) -> None:
        if frame["type"] == "delta":
            self.receive(frame["events"])
            self.delta_arrived.set()
        elif frame["type"] == "presence":
            self.presence_seen[frame["agent"]] = tuple(frame["cursor"])
            self.presence_received += 1
        elif frame["type"] == "error":
            self.errors.append(frame)
        elif frame["type"] == "bye":
            self.byes.append(frame)

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
            replay = self.own_history()
            if replay:
                try:
                    await self._ship(delta_frame(replay))
                except (ConnectionError, OSError):
                    continue
            return True
        return False

    async def _stop_receiving(self, timeout: float) -> None:
        """Let the receive loop see ``_closing`` and end; cancel it after
        ``timeout`` seconds."""
        if self._receive_task is None:
            return
        try:
            await asyncio.wait_for(self._receive_task, timeout=timeout)
        except asyncio.TimeoutError:
            self._receive_task.cancel()
            try:
                await self._receive_task
            except asyncio.CancelledError:
                pass

    # -- editing -------------------------------------------------------
    async def insert(self, pos: int, content: str) -> None:
        await self.send_events(self.local_insert(pos, content))

    async def delete(self, pos: int, length: int = 1) -> None:
        await self.send_events(self.local_delete(pos, length))

    async def send_events(self, events: Iterable[RemoteEvent]) -> None:
        """Ship events this replica already holds as one ``delta`` frame."""
        events = list(events)
        if not events:
            return
        self.run_events_sent += len(events)
        await self._send(delta_frame(events))

    async def _send(self, frame: dict[str, Any]) -> None:
        try:
            await self._ship(frame)
        except (ConnectionError, OSError):
            if self.reconnect is None:
                raise
            # Lost with the connection; the reconnect replay re-ships
            # deltas, and presence is ephemeral.


class CollabClient(_ReplicaCore):
    """A WebSocket collaboration client (the fast path).

    With a :class:`ReconnectPolicy` the client is *self-healing*: a dropped
    socket (cut, crash, shed) triggers jittered-backoff redials from the
    read loop, resuming from the last locally applied version.
    """

    transport = "ws"
    ws: WebSocketConnection | None = None

    async def _open_session(self) -> None:
        """Dial, ``hello`` with the current version, await ``welcome``."""
        self.ws = await connect_websocket(self.host, self.port, "/v1/ws")
        await self._ship(hello_frame(self.doc, self.agent, self.document.version().as_tuples()))
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

    async def _receive_loop(self) -> None:
        while True:
            try:
                text = await self.ws.recv_text()
            except ConnectionError:
                text = None
            if text is None:
                if self._closing or self.reconnect is None or not await self._redial():
                    return
                continue
            self.handle_frame(decode_frame(text))

    async def _ship(self, frame: dict[str, Any]) -> None:
        await self.ws.send_text(encode_frame(frame))

    async def send_presence(self) -> None:
        await self._send(presence_frame(self.agent, self.document.version().as_tuples()))

    async def send_raw(self, text: str) -> None:
        await self.ws.send_text(text)

    async def close(self, *, send_bye: bool = True) -> None:
        self._closing = True
        if self.ws is not None and send_bye and not self.ws.closed:
            try:
                await self._ship(bye_frame())
            except ConnectionError:
                pass
        await self._stop_receiving(timeout=1.0)
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
        **kwargs: Any,
    ) -> None:
        super().__init__(host, port, doc, agent, **kwargs)
        self.poll_wait = poll_wait

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
            frame = validate_frame(raw)
            if frame["type"] == "welcome":
                session_id = frame["session"]
            else:
                self.handle_frame(frame)
        if session_id is None:
            raise ConnectionError("connect response carried no welcome frame")
        self.session_id = session_id

    async def _receive_loop(self) -> None:
        while not self._closing:
            status, payload = await http_request(
                self.host,
                self.port,
                "GET",
                f"/v1/poll?session={self.session_id}&wait={self.poll_wait}",
            )
            if status != 200:
                if self._closing or self.reconnect is None or not await self._redial():
                    return
                continue
            for raw in payload["frames"]:
                self.handle_frame(validate_frame(raw))

    async def _ship(self, frame: dict[str, Any]) -> None:
        status, payload = await http_request(
            self.host,
            self.port,
            "POST",
            f"/v1/send?session={self.session_id}",
            {"frames": [frame]},
        )
        # With a reconnect policy a dead session (cut / shed / restart) is
        # the poll loop's to redial, and the redial's replay re-ships this
        # upload; without one the refusal is the caller's to see.
        if status != 200 and self.reconnect is None:
            self.errors.append(payload if isinstance(payload, dict) else {"code": str(status)})

    async def close(self, *, send_bye: bool = True) -> None:
        self._closing = True
        if send_bye and self.session_id is not None:
            await self._send(bye_frame())
        await self._stop_receiving(timeout=self.poll_wait + 1.0)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
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
    """Drive a live session against a running server.

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
    pool: list[_ReplicaCore] = []
    for i in range(clients):
        kind = (
            PollClient
            if transport == "poll" or (transport == "mixed" and i == 0)
            else CollabClient
        )
        pool.append(kind(host, port, doc, f"lg{i}"))
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

    await asyncio.gather(*(drive(client, i) for i, client in enumerate(pool)))
    converged, final_text = await _await_convergence(
        pool, host, port, doc, convergence_timeout
    )
    leaks = await _collect_leaks(pool, host, port, doc)
    for client in pool:
        await client.close()

    return LoadgenResult(
        mode="live",
        transport=transport,
        clients=clients,
        edits=clients * edits_per_client,
        run_events_sent=sum(c.run_events_sent for c in pool),
        converged=converged,
        final_text_len=len(final_text),
        presence_received=sum(c.presence_received for c in pool),
        leaks=leaks,
    )


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
    all_events = graph_to_remote_events(graph)
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
                # Originate: the author's own events enter its replica like
                # any delivery, then ship in one delta frame.
                client.receive(ready)
                await client.send_events(ready)
                await asyncio.sleep(0)
            else:
                # Blocked on another author's events: wait for the next delta.
                client.delta_arrived.clear()
                await asyncio.wait_for(client.delta_arrived.wait(), timeout=10.0)

    await asyncio.gather(
        *(feed(client, by_author[client.agent]) for client in pool)
    )

    converged, final_text = await _await_convergence(
        pool, host, port, doc, convergence_timeout
    )
    converged = converged and final_text == oracle_text
    leaks = await _collect_leaks(pool, host, port, doc)
    for client in pool:
        await client.close()

    return LoadgenResult(
        mode=f"trace:{trace.name}",
        transport=transport,
        clients=len(pool),
        edits=len(all_events),
        run_events_sent=sum(c.run_events_sent for c in pool),
        converged=converged,
        final_text_len=len(final_text),
        presence_received=0,
        leaks=leaks,
    )
