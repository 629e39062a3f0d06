"""A discrete-event network simulator for collaborative editing sessions.

The paper's system model (§2.1) only assumes a reliable broadcast protocol —
messages may be delayed arbitrarily, replicas may work offline, and the
network may be a central relay or peer-to-peer gossip.  This module simulates
those conditions so that the examples, the trace generators and the
integration tests can exercise realistic concurrency patterns:

* :class:`NetworkSimulator` keeps a virtual clock and a priority queue of
  in-flight messages; per-link latency and partitions control which messages
  are delivered when.
* :class:`SimulatedReplica` is a :class:`~repro.network.replica.Replica` (a
  :class:`~repro.core.document.Document` behind its inbound
  :class:`~repro.network.causal_broadcast.CausalBuffer`) plugged into the
  simulated links; the server's rooms and clients are built on the same
  replica.
* Topologies: :func:`full_mesh` (peer-to-peer gossip to every peer) and
  :func:`star` (a relay server that forwards events, like a typical
  centralised deployment).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from ..core.document import Document
from ..core.oplog import RemoteEvent
from ..faults import FaultInjector, FaultPlan
from .replica import Replica

__all__ = [
    "Message",
    "SimulatedReplica",
    "NetworkSimulator",
    "full_mesh",
    "star",
    "live_session",
]


@dataclass(order=True)
class Message:
    """One event in flight from ``sender`` to ``recipient``."""

    deliver_at: float
    sequence: int
    sender: str = field(compare=False)
    recipient: str = field(compare=False)
    event: RemoteEvent = field(compare=False)


class SimulatedReplica(Replica):
    """A :class:`Replica` taking part in a simulated editing session.

    The network hands it each tick's messages as one :meth:`~Replica.receive`
    call, so the document integrates whatever that makes deliverable as a
    **single** batch — the relay-hub fan-in amortisation.  A state-transfer
    sync outside the broadcast flow is a ``receive`` call too.
    """

    def __init__(self, name: str, simulator: "NetworkSimulator") -> None:
        super().__init__(Document(name))
        self.name = name
        self.simulator = simulator
        self.online = True
        self.forward = False

    # -- local editing --------------------------------------------------
    def insert(self, pos: int, content: str) -> None:
        self.simulator.broadcast(self.name, self.local_insert(pos, content))

    def delete(self, pos: int, length: int = 1) -> None:
        self.simulator.broadcast(self.name, self.local_delete(pos, length))

    # -- network --------------------------------------------------------
    def set_online(self, online: bool) -> None:
        """Going offline queues outgoing events; coming back online flushes them."""
        was_offline = not self.online
        self.online = online
        if online and was_offline:
            self.simulator.flush_offline_queue(self.name)
            self.simulator.release_held_messages(self.name)


class NetworkSimulator:
    """Virtual-time message delivery between replicas."""

    def __init__(
        self,
        default_latency: float = 0.05,
        *,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> None:
        """
        Args:
            faults: a seeded :class:`~repro.faults.FaultPlan` (or pre-built
                injector).  Every enqueued message consults it: scheduled
                :class:`~repro.faults.PartitionWindow`\\ s (in virtual time)
                and probabilistic drops discard the message, duplicates
                enqueue it twice, delays/reorders stretch its latency.
                Dropped traffic is repaired by :meth:`anti_entropy`.
        """
        self.default_latency = default_latency
        self.faults = faults.injector() if isinstance(faults, FaultPlan) else faults
        self.replicas: dict[str, SimulatedReplica] = {}
        self.links: dict[tuple[str, str], float] = {}
        self.partitioned: set[tuple[str, str]] = set()
        self.now = 0.0
        self._queue: list[Message] = []
        self._offline_queues: dict[str, list[RemoteEvent]] = {}
        self._held_for_offline: dict[str, list[Message]] = {}
        self._sequence = itertools.count()
        self.messages_sent = 0
        self.messages_delivered = 0

    # -- topology --------------------------------------------------------
    def add_replica(self, name: str) -> SimulatedReplica:
        if name in self.replicas:
            raise ValueError(f"duplicate replica name {name!r}")
        replica = SimulatedReplica(name, self)
        self.replicas[name] = replica
        self._offline_queues[name] = []
        self._held_for_offline[name] = []
        return replica

    def connect(self, a: str, b: str, latency: float | None = None) -> None:
        lat = self.default_latency if latency is None else latency
        self.links[(a, b)] = lat
        self.links[(b, a)] = lat

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two replicas (messages are dropped and resent on heal)."""
        self.partitioned.add((a, b))
        self.partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self.partitioned.discard((a, b))
        self.partitioned.discard((b, a))
        # Reliable broadcast: resend everything the other side might have missed.
        for x, y in ((a, b), (b, a)):
            self._resync_pair(x, y)

    def _resync_pair(self, sender_name: str, recipient_name: str) -> None:
        """Re-send everything ``recipient`` is missing relative to ``sender``
        (computed from document versions, so it repairs any kind of loss)."""
        sender = self.replicas[sender_name]
        recipient = self.replicas[recipient_name]
        missing = sender.document.events_since(recipient.document.version())
        for event in missing:
            self._enqueue(sender_name, recipient_name, event)

    def anti_entropy(self) -> None:
        """One repair round: every linked pair resyncs missing events.

        This is the reliable-broadcast guarantee for *injected* loss (fault
        plans drop messages without the bookkeeping :meth:`partition` keeps):
        whatever was dropped is re-derived from document state and resent.
        Repair traffic goes through :meth:`_enqueue` and is therefore itself
        subject to fault injection — run repeated rounds (each advances the
        schedule deterministically) until the session converges.
        """
        for a, b in list(self.links.keys()):
            self._resync_pair(a, b)

    # -- message flow -----------------------------------------------------
    def broadcast(self, sender: str, events: Iterable[RemoteEvent]) -> None:
        sender_replica = self.replicas[sender]
        for event in events:
            self.messages_sent += 1
            if not sender_replica.online:
                self._offline_queues[sender].append(event)
                continue
            for (a, b), _ in list(self.links.items()):
                if a != sender:
                    continue
                self._enqueue(a, b, event)

    def flush_offline_queue(self, sender: str) -> None:
        queued = self._offline_queues[sender]
        self._offline_queues[sender] = []
        self.broadcast(sender, queued)

    def release_held_messages(self, recipient: str) -> None:
        """Re-deliver messages that arrived while ``recipient`` was offline."""
        held = self._held_for_offline[recipient]
        self._held_for_offline[recipient] = []
        for message in held:
            self._enqueue(message.sender, message.recipient, message.event)

    def _enqueue(self, sender: str, recipient: str, event: RemoteEvent) -> None:
        if (sender, recipient) in self.partitioned:
            return
        latency = self.links.get((sender, recipient), self.default_latency)
        copies = 1
        if self.faults is not None:
            fate = self.faults.message_fate(sender, recipient, self.now)
            if fate.dropped:
                return
            copies = fate.copies
            latency += fate.extra_delay
        for _ in range(copies):
            heapq.heappush(
                self._queue,
                Message(
                    deliver_at=self.now + latency,
                    sequence=next(self._sequence),
                    sender=sender,
                    recipient=recipient,
                    event=event,
                ),
            )

    # -- time -------------------------------------------------------------
    def advance(self, duration: float) -> int:
        """Advance virtual time, delivering every message that comes due.

        Messages due within this tick are grouped **per recipient** and
        handed over as one batch each (:meth:`Replica.receive`),
        so a replica that many peers — or a forwarding hub — send to in the
        same window integrates the whole tick in one merge instead of one
        merge per message.  Store-and-forward relaying still happens per
        message at pop time (it only re-enqueues, never touches documents).
        """
        deadline = self.now + duration
        delivered = 0
        #: Per-recipient batches in arrival order (dict preserves insertion
        #: order, and messages pop in deliver_at order, so each batch is
        #: causally safe for the buffer).
        batches: dict[str, list[RemoteEvent]] = {}
        while self._queue and self._queue[0].deliver_at <= deadline:
            message = heapq.heappop(self._queue)
            self.now = message.deliver_at
            recipient = self.replicas[message.recipient]
            if not recipient.online:
                # Reliable delivery: hold the message until the recipient is back.
                self._held_for_offline[message.recipient].append(message)
                continue
            batches.setdefault(message.recipient, []).append(message.event)
            self.messages_delivered += 1
            delivered += 1
            if recipient.forward:
                # Store-and-forward relay: pass the event on to every other
                # peer this node is connected to.
                for (a, b) in list(self.links.keys()):
                    if a == message.recipient and b != message.sender:
                        self._enqueue(a, b, message.event)
        for name, events in batches.items():
            self.replicas[name].receive(events)
        self.now = deadline
        return delivered

    def run_until_quiescent(self, max_rounds: int = 10_000) -> None:
        """Keep advancing time until no messages remain in flight."""
        rounds = 0
        while self._queue:
            self.advance(self.default_latency * 2)
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("network failed to quiesce (partition still active?)")

    def all_texts(self) -> dict[str, str]:
        return {name: replica.text for name, replica in self.replicas.items()}

    def converged(self) -> bool:
        texts = set(self.all_texts().values())
        return len(texts) <= 1


def full_mesh(
    names: Iterable[str],
    latency: float = 0.05,
    *,
    faults: "FaultPlan | FaultInjector | None" = None,
) -> NetworkSimulator:
    """A peer-to-peer topology: every replica talks to every other replica."""
    simulator = NetworkSimulator(default_latency=latency, faults=faults)
    names = list(names)
    for name in names:
        simulator.add_replica(name)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            simulator.connect(a, b, latency)
    return simulator


def star(
    hub: str,
    leaves: Iterable[str],
    latency: float = 0.05,
) -> NetworkSimulator:
    """A relay-server topology: all traffic flows through ``hub``.

    The hub is itself a replica (a store-and-forward server holding the event
    graph); leaves only exchange events with the hub, which re-broadcasts them.
    """
    simulator = NetworkSimulator(default_latency=latency)
    hub_replica = simulator.add_replica(hub)
    hub_replica.forward = True
    for leaf in leaves:
        simulator.add_replica(leaf)
        simulator.connect(hub, leaf, latency)
    return simulator


def live_session(
    names: Iterable[str],
    *,
    rounds: int = 60,
    seed: int = 0,
    latency: float = 0.02,
    concurrency: float = 0.25,
) -> NetworkSimulator:
    """Drive a realistic *live* editing session and return the quiesced network.

    Models the steady state the merge engine exists for: most of the time one
    author types while the others watch (their replicas take the sequential
    fast path on every delivery), and with probability ``concurrency`` two
    authors type in the same latency window, creating a short concurrent
    episode that resolves within a round.  Used by the live-merge benchmark
    and the engine tests; deterministic given ``seed``.
    """
    import random

    rng = random.Random(seed)
    names = list(names)
    sim = full_mesh(names, latency=latency)
    words = ["alpha ", "beta ", "gamma ", "delta ", "epsilon ", "zeta "]
    for _ in range(rounds):
        editors = [rng.choice(names)]
        if len(names) > 1 and rng.random() < concurrency:
            editors.append(rng.choice([n for n in names if n != editors[0]]))
        for name in editors:
            replica = sim.replicas[name]
            text_len = len(replica.text)
            if text_len > 30 and rng.random() < 0.2:
                pos = rng.randrange(text_len - 4)
                replica.delete(pos, rng.randint(1, 4))
            else:
                word = rng.choice(words)
                replica.insert(rng.randint(0, text_len), word)
        sim.advance(latency * 4)
    sim.run_until_quiescent()
    return sim
