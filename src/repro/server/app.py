"""The collaboration server: WebSockets on the fast path, long-polling as
fallback.

:class:`CollabServer` listens on one TCP port and routes by request shape:

* ``GET /v1/ws`` with an ``Upgrade: websocket`` header — the fast path.  The
  first frame must be ``hello``; after that the connection is full duplex:
  uploaded ``delta``/``presence`` frames feed the room, and a pump task
  drains the session queue to the socket as frames arrive.
* ``POST /v1/connect`` / ``POST /v1/send`` / ``GET /v1/poll`` — the HTTP
  long-polling fallback.  The same session machinery, but frames accumulate
  on the session queue until the next poll; presence is disabled (the
  fallback trades cursor liveness for transport simplicity, as production
  systems do).
* ``GET /v1/text`` and ``GET /v1/stats`` — read-only introspection used by
  the load generator's convergence oracle and the leak checks.

A malformed frame is answered with a structured ``error`` frame and the
connection (or poll exchange) stays usable — a buggy client cannot take down
its own session, let alone the server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from ..faults import FaultInjector, FaultPlan, InjectedCrash
from .protocol import (
    ProtocolError,
    ack_frame,
    bye_frame,
    decode_frame,
    encode_frame,
    error_frame,
    load_json,
    validate_frame,
)
from .session import POLL_SESSION_TIMEOUT, DocumentRoom, Session
from .wal import (
    DurabilityOptions,
    RecoveryInfo,
    RoomStorage,
    list_room_directories,
    recover_document,
    room_directory,
)
from .wire import (
    HttpRequest,
    WebSocketConnection,
    http_response,
    read_http_request,
    server_websocket_handshake,
)

__all__ = ["CollabServer"]

#: Cap on how long one ``/v1/poll`` request may hang (seconds).
MAX_POLL_WAIT = 30.0


def _error_response(status: int, code: str, reason: str) -> bytes:
    return http_response(status, encode_frame(error_frame(code, reason)))


class CollabServer:
    """An asyncio collaboration server hosting any number of documents.

    Rooms are created on first use: connecting to document ``"notes"``
    creates a server replica for it.  ``port=0`` (the default) picks an
    ephemeral port; read :attr:`port` after :meth:`start`.

    Usage::

        server = CollabServer()
        await server.start()
        ...  # connect clients to ("127.0.0.1", server.port)
        await server.stop()

    Also usable as an async context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        data_dir: str | None = None,
        durability: DurabilityOptions | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        max_queued_frames: int = 0,
        reap_interval: float = 5.0,
        poll_session_timeout: float = POLL_SESSION_TIMEOUT,
        drain_timeout: float = 1.0,
    ) -> None:
        """
        Args:
            data_dir: root directory for durable rooms (WAL + snapshots);
                ``None`` keeps the server purely in-memory.  On
                :meth:`start`, every room found under it is recovered.
            durability: fsync/group-commit/compaction policy for durable
                rooms (:class:`~repro.server.wal.DurabilityOptions`).
            faults: a seeded :class:`~repro.faults.FaultPlan` (or a
                pre-built injector) whose schedule is injected into the
                transports and ingest path.  ``None`` injects nothing.
            max_queued_frames: per-session backpressure cap; a session whose
                queue outgrows it is shed with a resumable ``bye``
                (0 = unbounded).
            reap_interval: seconds between periodic idle-session sweeps.
            poll_session_timeout: idle seconds after which a long-poll
                session is reaped.
            drain_timeout: bound on the final WS flush before remaining
                frames are abandoned (counted in ``RoomStats``).
        """
        self.host = host
        self.port = port
        self.data_dir = data_dir
        self.durability = durability or DurabilityOptions()
        self.faults = faults.injector() if isinstance(faults, FaultPlan) else faults
        self.max_queued_frames = max_queued_frames
        self.reap_interval = reap_interval
        self.poll_session_timeout = poll_session_timeout
        self.drain_timeout = drain_timeout
        self.rooms: dict[str, DocumentRoom] = {}
        #: Per-room recovery report from the last :meth:`start` (empty for
        #: in-memory servers and rooms created fresh).
        self.recovery: dict[str, RecoveryInfo] = {}
        #: Session id -> (room, session), for poll routing.
        self._sessions: dict[str, tuple[DocumentRoom, Session]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._reaper_task: asyncio.Task | None = None
        self._commit_task: asyncio.Task | None = None
        self._crash_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CollabServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.data_dir is not None:
            self._recover_rooms()
        server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        if self._server is not None:
            # A concurrent start() won the race while we were suspended in
            # start_server(); keep the winner, release our socket.
            server.close()
            await server.wait_closed()
            raise RuntimeError("server already started")
        self._server = server
        # Resolving port=0 to the ephemerally bound port.
        self.port = server.sockets[0].getsockname()[1]  # lint: disable=await-state-race -- derived from this call's own socket; re-entry is guarded above
        # Background maintenance: the reaper reclaims abandoned long-poll
        # sessions even on an idle server; the group-commit task is the
        # durability heartbeat (fsync + compaction checks) for "group" mode.
        self._reaper_task = asyncio.create_task(self._reaper_loop())
        if self.data_dir is not None and self.durability.fsync_policy == "group":
            self._commit_task = asyncio.create_task(
                self._commit_loop(self.durability.group_interval)
            )
        return self

    async def _close_listener(self) -> None:
        """First step of :meth:`stop` and :meth:`crash`: detach the listener
        and the background tasks, cancel the reaper and committer, close the
        listening socket.

        Everything is detached before the first await: a teardown that
        suspended holding the server reference used to null
        ``self._server`` on resume, clobbering (and leaking) a server started
        concurrently in the meantime.
        """
        server, self._server = self._server, None
        reaper, self._reaper_task = self._reaper_task, None
        committer, self._commit_task = self._commit_task, None
        background = [t for t in (reaper, committer) if t is not None]
        for task in background:
            task.cancel()
        if background:
            await asyncio.gather(*background, return_exceptions=True)
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _cancel_connections(self) -> None:
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def stop(self) -> None:
        await self._close_listener()
        await self._cancel_connections()
        for room in self.rooms.values():
            for session in list(room.sessions.values()):
                room.disconnect(session)
            if room.storage is not None:
                # Clean shutdown: final fsync, plus a compaction when the
                # policy asks for one — the next start recovers instantly.
                room.storage.close(document=room.document)
        self._sessions.clear()

    async def crash(self) -> None:
        """Abrupt teardown — the fault harness's ``kill -9``.

        No final fsync, no compaction, no goodbyes: sessions and sockets are
        dropped, storage descriptors are released as-is.  Whatever the WAL's
        ``write`` calls already handed the OS survives for the next
        :meth:`start`; everything else is lost, exactly like a real crash.
        """
        await self._close_listener()
        for room in self.rooms.values():
            if room.storage is not None:
                room.storage.abandon()
            for session in list(room.sessions.values()):
                room.disconnect(session)
        self._sessions.clear()
        await self._cancel_connections()

    def _begin_crash(self) -> None:
        """Injected-crash callback (sync): schedule the abrupt teardown."""
        if self._crash_task is None:
            self._crash_task = asyncio.get_running_loop().create_task(self.crash())

    async def __aenter__(self) -> "CollabServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def room(self, name: str) -> DocumentRoom:
        room = self.rooms.get(name)
        if room is None:
            room = self.rooms[name] = self._make_room(name)
        return room

    def _make_room(self, name: str, document=None) -> DocumentRoom:
        storage = None
        if self.data_dir is not None:
            storage = RoomStorage(
                room_directory(self.data_dir, name), options=self.durability
            )
        return DocumentRoom(
            name,
            document=document,
            storage=storage,
            faults=self.faults,
            on_crash=self._begin_crash,
            max_queued_frames=self.max_queued_frames,
            poll_session_timeout=self.poll_session_timeout,
        )

    def _recover_rooms(self) -> None:
        """Rebuild every room found under ``data_dir`` from snapshot + WAL
        tail (see :func:`~repro.server.wal.recover_document`)."""
        assert self.data_dir is not None
        for name, path in list_room_directories(self.data_dir):
            if name in self.rooms:
                continue
            document, info = recover_document(path, f"server::{name}")
            self.recovery[name] = info
            self.rooms[name] = self._make_room(name, document=document)

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------
    async def _reaper_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval)
            self._reap_once()

    def _reap_once(self) -> None:
        """One sweep: reap idle long-poll sessions in every room, then purge
        routing entries whose sessions are fully gone — reaped sessions used
        to linger in the routing table forever."""
        for room in list(self.rooms.values()):
            for session in room.reap_idle_sessions(self.poll_session_timeout):
                self._sessions.pop(session.id, None)
        for sid, (room, session) in list(self._sessions.items()):
            if session.closed and sid not in room.sessions:
                self._sessions.pop(sid, None)

    async def _commit_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            for room in list(self.rooms.values()):
                storage = room.storage
                if storage is not None:
                    storage.sync()
                    storage.maybe_compact(room.document)

    # ------------------------------------------------------------------
    # Connection dispatch
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            request = await read_http_request(reader)
            if request is None:
                return
            if request.wants_websocket:
                await self._serve_websocket(reader, writer, request)
            else:
                await self._serve_http(writer, request)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Teardown (stop/crash) cancelled this connection mid-read; end
            # the task cleanly — asyncio.streams' connection_made callback
            # calls task.exception(), which *raises* for cancelled tasks and
            # would spam the log during every injected crash.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    # ------------------------------------------------------------------
    # WebSocket path
    # ------------------------------------------------------------------
    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: HttpRequest,
    ) -> None:
        if not await server_websocket_handshake(writer, request):
            return
        ws = WebSocketConnection(reader, writer, mask_outgoing=False)
        hello = await self._expect_hello(ws)
        if hello is None:
            return
        room = self.room(hello["doc"])
        session = room.connect(hello["agent"], "ws", hello["version"])
        self._sessions[session.id] = (room, session)
        pump = asyncio.create_task(self._pump_session(ws, session))
        #: Frame parked by reorder injection, delivered after its successor.
        held: str | None = None
        try:
            while True:
                text = await ws.recv_text()
                if text is None:
                    if held is not None:
                        # The socket closed under a parked frame: flush it —
                        # reordering must never turn into a silent drop.
                        self._handle_ws_frame(room, session, held)
                        held = None
                    break
                texts = [text]
                if self.faults is not None:
                    fate = self.faults.inbound_fate()
                    if fate.cut:
                        raise InjectedCrash("injected connection cut")
                    if fate.delay:
                        await asyncio.sleep(fate.delay)
                    if fate.hold and held is None:
                        held = text
                        continue
                    texts *= fate.copies
                if held is not None:
                    # Adjacent-swap reorder: the parked frame lands after
                    # this one (the causal buffers absorb the inversion).
                    texts.append(held)
                    held = None
                stop = False
                for item in texts:
                    if not self._handle_ws_frame(room, session, item):
                        stop = True
                if stop:
                    break
        finally:
            room.disconnect(session)
            self._sessions.pop(session.id, None)
            try:
                # The session is closed, so the pump exits after one final
                # flush (bye / trailing errors).  Give the flush a bounded
                # window; anything a slow socket still holds afterwards is
                # requeued by the pump and *counted* below — never silently
                # dropped.
                await asyncio.wait_for(pump, timeout=self.drain_timeout)
            except (asyncio.TimeoutError, ConnectionError):
                pump.cancel()
                try:
                    await pump
                except (asyncio.CancelledError, ConnectionError):
                    pass
            abandoned = session.queued_frames
            if abandoned:
                room.stats.frames_abandoned += abandoned
            await ws.close()

    def _handle_ws_frame(self, room: DocumentRoom, session: Session, text: str) -> bool:
        """Process one inbound WS frame; returns False when the connection
        should wind down (client ``bye``)."""
        try:
            frame = decode_frame(text)
        except ProtocolError as exc:
            # Structured rejection; the connection stays up.
            session.queue_frame(error_frame(exc.code, exc.reason))
            return True
        if frame["type"] == "delta":
            room.receive_delta(session, frame["events"])
        elif frame["type"] == "presence":
            room.receive_presence(session, frame["cursor"])
        elif frame["type"] == "bye":
            session.queue_frame(bye_frame())
            return False
        else:
            session.queue_frame(
                error_frame(
                    "unexpected-type",
                    f"{frame['type']!r} frames are server-to-client",
                )
            )
        return True

    async def _expect_hello(self, ws: WebSocketConnection) -> dict[str, Any] | None:
        text = await ws.recv_text()
        if text is None:
            return None
        try:
            frame = decode_frame(text)
            if frame["type"] != "hello":
                raise ProtocolError("hello-required", "first frame must be hello")
        except ProtocolError as exc:
            try:
                await ws.send_text(encode_frame(error_frame(exc.code, exc.reason)))
            except ConnectionError:
                pass
            await ws.close()
            return None
        return frame

    async def _pump_session(self, ws: WebSocketConnection, session: Session) -> None:
        """Drain the session queue to the socket as frames arrive."""
        try:
            while not session.closed:
                frames = await session.wait_for_frames(timeout=30.0)
                await self._forward_frames(ws, session, frames)
            # Final flush (bye / trailing errors): per-frame sends, so
            # whatever a dead or slow socket rejects goes back on the queue
            # for the abandoned-frames accounting instead of vanishing.
            await self._forward_frames(ws, session, session.drain())
            if session.shed:
                # Backpressure shed: the resumable bye is out — cut the
                # socket so the read loop unwinds and the client's
                # reconnect path takes over.
                await ws.close()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception:  # pragma: no cover - defensive; pump must not spin
            pass

    async def _forward_frames(
        self, ws: WebSocketConnection, session: Session, frames: list[dict[str, Any]]
    ) -> None:
        """Send ``frames`` one at a time, requeueing the unsent tail if the
        send fails or is cancelled mid-flush (drain-timeout accounting)."""
        try:
            while frames:
                if self.faults is not None:
                    delay = self.faults.outbound_delay(session.agent)
                    if delay:
                        await asyncio.sleep(delay)
                await ws.send_text(encode_frame(frames[0]))
                frames.pop(0)
        except BaseException:
            session.requeue(frames)
            raise

    # ------------------------------------------------------------------
    # HTTP fallback path
    # ------------------------------------------------------------------
    async def _serve_http(self, writer: asyncio.StreamWriter, request: HttpRequest) -> None:
        handler = {
            ("POST", "/v1/connect"): self._http_connect,
            ("POST", "/v1/send"): self._http_send,
            ("GET", "/v1/poll"): self._http_poll,
            ("GET", "/v1/text"): self._http_text,
            ("GET", "/v1/stats"): self._http_stats,
            ("GET", "/healthz"): self._http_health,
        }.get((request.method, request.path))
        if handler is None:
            response = _error_response(404, "not-found", f"no route {request.method} {request.path}")
        else:
            response = await handler(request)
        writer.write(response)
        await writer.drain()

    async def _http_health(self, request: HttpRequest) -> bytes:
        return http_response(200, json.dumps({"ok": True, "docs": len(self.rooms)}))

    async def _http_connect(self, request: HttpRequest) -> bytes:
        try:
            frame = decode_frame(request.body)
            if frame["type"] != "hello":
                raise ProtocolError("hello-required", "connect body must be a hello frame")
        except ProtocolError as exc:
            return _error_response(400, exc.code, exc.reason)
        room = self.room(frame["doc"])
        session = room.connect(frame["agent"], "poll", frame["version"])
        self._sessions[session.id] = (room, session)
        return http_response(200, encode_frame({"frames": session.drain()}))

    def _poll_session(
        self, request: HttpRequest, *, allow_closed: bool = False
    ) -> tuple[DocumentRoom, Session] | None:
        entry = self._sessions.get(request.query.get("session", ""))
        if entry is None or (entry[1].closed and not allow_closed):
            return None
        return entry

    async def _http_send(self, request: HttpRequest) -> bytes:
        entry = self._poll_session(request)
        if entry is None:
            return _error_response(404, "unknown-session", "no such session")
        room, session = entry
        try:
            # The body is checked as one frame's text, as it arrived.
            body = load_json(request.body)
            frames = body.get("frames") if isinstance(body, dict) else None
            if not isinstance(frames, list):
                raise ProtocolError("bad-frame", "send body must be {'frames': [...]}")
            decoded = [validate_frame(f) for f in frames]
        except ProtocolError as exc:
            return _error_response(400, exc.code, exc.reason)
        if self.faults is not None and decoded:
            fate = self.faults.inbound_fate()
            if fate.cut:
                # Poll transport's connection cut: kill the session so the
                # client's reconnect path takes over (its events replay).
                room.disconnect(session)
                self._sessions.pop(session.id, None)
                return _error_response(503, "injected-cut", "fault injection cut this session")
            if fate.delay:
                await asyncio.sleep(fate.delay)
            if fate.copies > 1:
                decoded = decoded * fate.copies
            if fate.hold:
                # Reorder within the batch; the causal buffers absorb it.
                decoded = decoded[::-1]
        accepted = 0
        for frame in decoded:
            if frame["type"] == "delta":
                room.receive_delta(session, frame["events"])
                accepted += 1
            elif frame["type"] == "presence":
                # Cursor traffic is disabled on the fallback transport; the
                # update is acknowledged but not recorded or fanned out.
                continue
            elif frame["type"] == "bye":
                room.disconnect(session)
                self._sessions.pop(session.id, None)
            else:
                return _error_response(
                    400, "unexpected-type", f"cannot upload {frame['type']!r} frames"
                )
        return http_response(200, encode_frame(ack_frame(accepted)))

    async def _http_poll(self, request: HttpRequest) -> bytes:
        entry = self._poll_session(request, allow_closed=True)
        if entry is None:
            return _error_response(404, "unknown-session", "no such session")
        room, session = entry
        if session.closed:
            # A shed (or otherwise closed) session answers exactly one more
            # poll with its parting frames — the structured resumable bye —
            # and is then forgotten.
            frames = session.drain()
            room.disconnect(session)
            self._sessions.pop(session.id, None)
            return http_response(200, encode_frame({"frames": frames}))
        try:
            wait = min(float(request.query.get("wait", "25")), MAX_POLL_WAIT)
        except ValueError:
            wait = 0.0
        frames = await session.wait_for_frames(timeout=max(wait, 0.0))
        return http_response(200, encode_frame({"frames": frames}))

    async def _http_text(self, request: HttpRequest) -> bytes:
        doc = request.query.get("doc", "")
        room = self.rooms.get(doc)
        if room is None:
            return _error_response(404, "unknown-doc", f"no document {doc!r}")
        return http_response(
            200,
            json.dumps(
                {
                    "doc": doc,
                    "text": room.text,
                    "version": [[a, s] for a, s in room.version().as_tuples()],
                }
            ),
        )

    async def _http_stats(self, request: HttpRequest) -> bytes:
        doc = request.query.get("doc")
        if doc:
            room = self.rooms.get(doc)
            if room is None:
                return _error_response(404, "unknown-doc", f"no document {doc!r}")
            return http_response(200, json.dumps(room.summary()))
        return http_response(
            200, json.dumps({"docs": [room.summary() for room in self.rooms.values()]})
        )
