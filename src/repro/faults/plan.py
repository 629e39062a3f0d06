"""Deterministic fault injection for the collaboration stack.

A :class:`FaultPlan` is a frozen, seeded description of everything that can
go wrong: message drops, duplicates, reorderings and delays at the transport
or simulator layer, scheduled network partitions, injected server crashes at
precise points around WAL ingest, and slow-reader throttling that drives the
server's backpressure shedding.  ``plan.injector()`` materialises it into a
:class:`FaultInjector` — a stateful, ``random.Random(seed)``-driven oracle
the hooks in :mod:`repro.server` and :mod:`repro.network.simulator` consult.
Two runs with the same plan observe the same faults in the same order, which
is what makes the chaos suite a *test* rather than a dice roll.

This package deliberately imports nothing from ``repro.server`` or
``repro.network`` — the hooks call in, never the other way around — so the
harness can wrap any layer without cycles.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

__all__ = [
    "InjectedCrash",
    "PartitionWindow",
    "FaultPlan",
    "FaultStats",
    "TransportFate",
    "MessageFate",
    "FaultInjector",
    "CRASH_POINTS",
]

#: Where an injected server crash fires relative to one ingest's WAL append.
#: ``before-wal`` loses the batch entirely, ``torn-wal`` leaves a truncated
#: record on disk (crash mid-``write``), ``after-wal`` crashes with the batch
#: durable but unacknowledged.
CRASH_POINTS = ("before-wal", "torn-wal", "after-wal")


class InjectedCrash(ConnectionError):
    """Raised by injection hooks to simulate an abrupt failure.

    Subclasses :class:`ConnectionError` so transport loops treat it exactly
    like a real peer vanishing mid-frame.
    """


@dataclass(frozen=True, slots=True)
class PartitionWindow:
    """Sever links between agents ``a`` and ``b`` for ``[start, end)``.

    Times are in the consuming clock's units — virtual seconds for the
    :class:`~repro.network.simulator.NetworkSimulator`, wall seconds for
    live transports.
    """

    a: str
    b: str
    start: float
    end: float

    def severs(self, src: str, dst: str, now: float) -> bool:
        return (
            self.start <= now < self.end
            and {src, dst} == {self.a, self.b}
        )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded schedule of faults.  Probabilities are per message/frame.

    Attributes:
        seed: drives every probabilistic decision; same seed, same faults.
        drop: probability a simulator message is dropped (transports model
            drop as a connection ``cut`` — TCP loses connections, not
            individual frames).
        duplicate: probability a message/frame is delivered twice.
        reorder: probability a frame is held back and delivered after its
            successor (simulator: delivered with extra delay).
        delay / max_delay: probability and bound of added latency, seconds.
        cut: probability an inbound frame kills the connection instead of
            being processed (client must reconnect and replay).
        partitions: scheduled :class:`PartitionWindow`\\ s.
        crash_after_ingests: after this many ingested batches the server
            crashes at ``crash_point`` (0 disables).
        crash_point: one of :data:`CRASH_POINTS`.
        slow_reader_agents: sessions whose outbound pump is throttled by
            ``slow_reader_delay`` seconds per frame, to force queue growth
            and shedding.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    max_delay: float = 0.05
    cut: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()
    crash_after_ingests: int = 0
    crash_point: str = "after-wal"
    slow_reader_agents: tuple[str, ...] = ()
    slow_reader_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.crash_point not in CRASH_POINTS:
            raise ValueError(
                f"crash_point must be one of {CRASH_POINTS}, "
                f"got {self.crash_point!r}"
            )

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


@dataclass(slots=True)
class FaultStats:
    """What an injector actually did — asserted on by the chaos suite."""

    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    delayed: int = 0
    cuts: int = 0
    partitioned: int = 0
    crashes: int = 0
    slow_waits: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class TransportFate:
    """One inbound frame's fate at a live transport.

    ``cut`` aborts the connection (raise :class:`InjectedCrash`); otherwise
    the frame is processed ``copies`` times after ``delay`` seconds, and
    ``hold`` asks the handler to park it until the next frame arrives
    (adjacent-swap reordering).
    """

    copies: int = 1
    delay: float = 0.0
    hold: bool = False
    cut: bool = False


@dataclass(frozen=True, slots=True)
class MessageFate:
    """One simulator message's fate: dropped, or delivered ``copies`` times
    with ``extra_delay`` virtual seconds added."""

    dropped: bool = False
    copies: int = 1
    extra_delay: float = 0.0


class FaultInjector:
    """Stateful oracle for one run of a :class:`FaultPlan`.

    All randomness flows through one ``random.Random(plan.seed)`` consumed
    in hook-call order, so a fixed workload observes a fixed fault schedule.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._ingests = 0
        self._crash_fired = False

    # -- simulator hook -------------------------------------------------
    def message_fate(self, src: str, dst: str, now: float) -> MessageFate:
        """Decide a simulator message's fate (partitions, drop, dup, delay,
        reorder-as-delay) at virtual time ``now``."""
        plan, rng = self.plan, self._rng
        for window in plan.partitions:
            if window.severs(src, dst, now):
                self.stats.partitioned += 1
                return MessageFate(dropped=True)
        if plan.drop and rng.random() < plan.drop:
            self.stats.dropped += 1
            return MessageFate(dropped=True)
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            self.stats.duplicated += 1
            copies = 2
        extra = 0.0
        if plan.reorder and rng.random() < plan.reorder:
            self.stats.reordered += 1
            extra += rng.uniform(0.0, plan.max_delay) + 1e-6
        if plan.delay and rng.random() < plan.delay:
            self.stats.delayed += 1
            extra += rng.uniform(0.0, plan.max_delay)
        return MessageFate(copies=copies, extra_delay=extra)

    # -- live transport hook --------------------------------------------
    def inbound_fate(self) -> TransportFate:
        """Decide one inbound frame's fate at a live transport.

        Frame *drops* are expressed as connection cuts: TCP delivers frames
        in order or not at all, and the reconnect/replay path is what heals
        the loss.
        """
        plan, rng = self.plan, self._rng
        if (plan.cut or plan.drop) and rng.random() < max(plan.cut, plan.drop):
            self.stats.cuts += 1
            return TransportFate(cut=True)
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            self.stats.duplicated += 1
            copies = 2
        hold = False
        if plan.reorder and rng.random() < plan.reorder:
            self.stats.reordered += 1
            hold = True
        delay = 0.0
        if plan.delay and rng.random() < plan.delay:
            self.stats.delayed += 1
            delay = rng.uniform(0.0, plan.max_delay)
        return TransportFate(copies=copies, delay=delay, hold=hold)

    # -- slow readers ----------------------------------------------------
    def outbound_delay(self, agent: str) -> float:
        """Per-frame throttle for ``agent``'s outbound pump (0 = none)."""
        if agent in self.plan.slow_reader_agents:
            self.stats.slow_waits += 1
            return self.plan.slow_reader_delay
        return 0.0

    # -- crash points ----------------------------------------------------
    def crash_due(self) -> str | None:
        """Count one ingested batch; return the crash point when the plan's
        quota is reached (once per injector), else ``None``."""
        self._ingests += 1
        if (
            self.plan.crash_after_ingests
            and not self._crash_fired
            and self._ingests >= self.plan.crash_after_ingests
        ):
            self._crash_fired = True
            self.stats.crashes += 1
            return self.plan.crash_point
        return None
