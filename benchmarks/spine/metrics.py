"""Turning stage results and span tables into the declared metrics.

``BENCHMARK.json`` is the source of truth for names, units, directions and
bounds; this module holds how each name is computed, and
:func:`check_declared` refuses to run when the two sets of names differ.

Every metric is a *summary*: ``value``, ``n`` (how many samples), ``q1`` and
``q3``.  The value of a closed loop's timing is the mean of the **faster half**
of its repetitions (see :func:`faster_half`); of the set-up time and the edit
latency, the median; of a count, the count.

Per-layer names are ``layer.stage.metric``.  Self times are milliseconds per
1000 edits (``ms/kedit``) on the ``live`` and ``room`` stages and milliseconds
per repetition (``ms/rep``) on ``merge`` and ``open``.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable

from .stages import LATE_EDIT_S, StageResult
from .workloads import Inputs

__all__ = ["end_to_end", "per_layer", "check_declared", "END_TO_END_NAMES", "PER_LAYER_NAMES"]

Summary = dict[str, float]


def summary(samples: Iterable[float]) -> Summary:
    values = sorted(samples)
    if not values:
        raise ValueError("a metric needs at least one sample")
    if len(values) == 1:
        return exact(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def faster_half(samples: Iterable[float]) -> Summary:
    """A repeated timing: the mean of the faster half of the repetitions.

    The other tenants of the machine only ever add time to a repetition, for
    seconds or for minutes at a stretch, so the median moves with how busy
    they were during the run and the minimum with whether the run caught one
    of the machine's rare fast moments.  The faster half is what the
    repetitions cost when they were left alone, averaged over enough of them
    to be steady.  ``q1`` and ``q3`` are the quartiles of all repetitions.
    """
    out = summary(samples)
    values = sorted(samples)
    out["value"] = statistics.fmean(values[: (len(values) + 1) // 2])
    return out


def _rate(work: float, seconds: Summary) -> Summary:
    """``work`` per second, from the summary of the times it took."""
    return {
        "value": work / seconds["value"],
        "n": seconds["n"],
        "q1": work / seconds["q3"],
        "q3": work / seconds["q1"],
    }


def exact(value: float) -> Summary:
    return {"value": value, "n": 1, "q1": value, "q3": value}


def percentile(samples: list[float], pct: int) -> Summary:
    """The ``pct``-th percentile; ``n`` is the sample count behind it."""
    if len(samples) < 2:
        return exact(samples[0] if samples else LATE_EDIT_S * 1e3)
    value = statistics.quantiles(samples, n=100)[pct - 1]
    return {"value": value, "n": len(samples), "q1": value, "q3": value}


# ----------------------------------------------------------------------
# End to end (untraced runs)
# ----------------------------------------------------------------------
END_TO_END_NAMES = (
    "setup_s",
    "recover_ms",
    "server_edits_per_s",
    "wire_bytes_per_edit",
    "merge_events_per_s",
    "mem_peak_bytes",
    "mem_steady_bytes",
    "open_text_ms",
    "open_edit_ms",
    "open_history_ms",
    "save_ms",
    "file_bytes_per_text_byte",
    "open_mem_peak_bytes",
)


def end_to_end(results: dict[str, StageResult], setup_s: list[float]) -> dict[str, Summary]:
    live, room, merge, opened = (results[k] for k in ("live", "room", "merge", "open"))
    return {
        "setup_s": summary(setup_s),
        "recover_ms": faster_half(live.samples["recover_ms"]),
        "server_edits_per_s": _rate(room.stats["deltas"], faster_half(room.samples["room_pass_s"])),
        "wire_bytes_per_edit": exact(room.values["wire_bytes_per_edit"]),
        "merge_events_per_s": _rate(merge.stats["events"], faster_half(merge.samples["merge_s"])),
        "mem_peak_bytes": exact(merge.values["merge_mem_peak_bytes"]),
        "mem_steady_bytes": exact(merge.values["merge_mem_steady_bytes"]),
        "open_text_ms": faster_half(opened.samples["open_text_ms"]),
        "open_edit_ms": faster_half(opened.samples["open_edit_ms"]),
        "open_history_ms": faster_half(opened.samples["open_history_ms"]),
        "save_ms": faster_half(opened.samples["save_ms"]),
        "file_bytes_per_text_byte": exact(opened.values["file_bytes_per_text_byte"]),
        "open_mem_peak_bytes": exact(opened.values["open_mem_peak_bytes"]),
    }


# ----------------------------------------------------------------------
# Per layer (traced runs)
# ----------------------------------------------------------------------
#: Layers whose self time is reported per stage.  ``protocol`` on ``room``,
#: ``wal`` on ``live`` and ``storage`` on ``open`` are reported per entry point
#: instead (see ``_SPAN_METRICS``).
_STAGE_LAYERS = {
    "live": ("wire", "protocol", "causal_buffer", "session", "document", "event_graph", "merge_engine", "walker", "rope"),
    "room": ("causal_buffer", "session", "document", "event_graph", "merge_engine", "walker", "rope"),
    "merge": ("document", "event_graph", "merge_engine", "walker", "rope"),
    "open": ("history", "document", "event_graph", "merge_engine", "walker", "rope"),
}

#: ``metric name -> (stage, span names whose self time it sums)``.
_SPAN_METRICS = {
    "wal.live.append_self_ms": ("live", ("RoomStorage.append",)),
    "wal.live.sync_self_ms": ("live", ("RoomStorage.sync",)),
    "protocol.room.decode_self_ms": ("room", ("decode_frame",)),
    "protocol.room.encode_self_ms": ("room", ("encode_frame", "delta_frame")),
    "storage.open.parse_header_ms": ("open", ("parse_header",)),
    "storage.open.decompress_ms": ("open", ("decompress",)),
    "storage.open.column_decode_ms": ("open", ("LazyDecodedFile.column_payload", "decode_text", "LazyDecodedFile.text")),
    "storage.open.hydrate_ms": ("open", ("LazyDecodedFile.graph",)),
    "storage.open.compress_ms": ("open", ("compress",)),
    "storage.open.column_encode_ms": ("open", ("encode_event_graph_v3",)),
}

_MERGE_COUNTERS = ("fast_path_merges", "resumed_merges", "fresh_replays", "checkpoints_dropped")

_COUNT_NAMES = (
    "wire.live.frames_per_edit",
    "wire.live.bytes_per_edit",
    "protocol.room.frames_encoded_per_edit",
    "protocol.room.encodes_per_delta",
    "causal_buffer.room.batches_per_edit",
    "causal_buffer.room.parked",
    "causal_buffer.room.duplicates_per_edit",
    "session.room.frames_queued_per_edit",
    "session.live.queue_wait_ms",
    "session.live.receive_delta_p50_ms",
    "session.live.receive_delta_p99_ms",
    "event_graph.merge.events",
    "event_graph.merge.splits",
    "event_graph.open.events",
    "event_graph.open.splits",
    *(f"merge_engine.{stage}.{name}" for stage in ("live", "room", "merge") for name in _MERGE_COUNTERS),
    *(f"merge_engine.{stage}.window_events_per_new_event" for stage in ("live", "room", "merge")),
    *(f"walker.{stage}.{name}" for stage in ("live", "merge") for name in ("retreats", "advances", "peak_records")),
    "rope.room.ops",
    "rope.open.ops",
    "wal.live.bytes_per_edit",
    "wal.live.fsyncs",
    "wal.live.records_recovered",
    "wal.live.recover_ms_per_record",
    "storage.open.bytes_read",
    "storage.open.read_fraction",
    "storage.open.events_materialised",
    "history.open.window_events",
    "loop.live.lag_p99_ms",
    "loadgen.live.lag_p99_ms",
    "loadgen.live.edit_latency_mean_ms",
    "loadgen.live.edit_latency_p50_ms",
    "loadgen.live.edit_latency_p95_ms",
    "loadgen.live.edit_latency_p99_ms",
    *(f"trace.{stage}.{name}" for stage in ("live", "room", "merge", "open") for name in ("overhead_frac", "coverage_frac")),
)

PER_LAYER_NAMES = (
    *(f"{layer}.{stage}.self_ms" for stage, layers in _STAGE_LAYERS.items() for layer in layers),
    *_SPAN_METRICS,
    *_COUNT_NAMES,
)


def _p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[98]


def _merge_counters(out: dict[str, float], stage: str, stats: dict[str, Any]) -> None:
    for name in _MERGE_COUNTERS:
        out[f"merge_engine.{stage}.{name}"] = stats[name]
    # Wasted-work ratio: window events replayed silently per new event merged.
    out[f"merge_engine.{stage}.window_events_per_new_event"] = stats[
        "replayed_window_events"
    ] / max(1, stats["events_integrated"])


def per_layer(
    inputs: Inputs,
    plain: dict[str, StageResult],
    traced: dict[str, StageResult],
    summaries: dict[str, dict[str, Any]],
) -> dict[str, Summary]:
    """The per-layer metrics of one traced run.

    ``plain`` holds each stage run without the wrappers, ``traced`` with them,
    ``summaries`` the span tables (the live stage's comes from the server).
    """
    edits = len(inputs.frames)
    #: Operations behind each traced stage's spans, and the scale that turns
    #: its total self milliseconds into the reported unit.
    operations = {
        "live": edits,
        "room": traced["room"].attempted,
        "merge": traced["merge"].attempted,
        "open": traced["open"].attempted // 4,
    }
    scale = {
        "live": 1000.0 / operations["live"],
        "room": 1000.0 / operations["room"],
        "merge": 1.0 / operations["merge"],
        "open": 1.0 / operations["open"],
    }
    out: dict[str, float] = {}
    for stage, layers in _STAGE_LAYERS.items():
        for layer in layers:
            out[f"{layer}.{stage}.self_ms"] = summaries[stage]["layers"].get(layer, 0.0) * scale[stage]
    for name, (stage, spans) in _SPAN_METRICS.items():
        table = summaries[stage]["spans"]
        out[name] = sum(table[s]["self_ms"] for s in spans if s in table) * scale[stage]

    def span_count(stage: str, span: str) -> float:
        return summaries[stage]["spans"].get(span, {"count": 0})["count"]

    def counter(stage: str, name: str) -> float:
        return summaries[stage]["counters"].get(name, 0.0)

    # live: what the server process saw
    server = summaries["live"]
    out["wire.live.frames_per_edit"] = counter("live", "wire.frames") / edits
    out["wire.live.bytes_per_edit"] = counter("live", "wire.bytes") / edits
    out["session.live.queue_wait_ms"] = (
        counter("live", "session.queue_wait_ns") / max(1.0, counter("live", "session.frames_drained")) / 1e6
    )
    # How long the server worked on one edit: the slow ones are what the
    # edits queued behind them wait for (the p50-to-tail gap of the latency).
    handled = server["spans"].get("DocumentRoom.receive_delta", {})
    out["session.live.receive_delta_p50_ms"] = handled.get("p50_ms", 0.0)
    out["session.live.receive_delta_p99_ms"] = handled.get("p99_ms", 0.0)
    _merge_counters(out, "live", server["stats"]["merge"])
    wal = server["stats"]["wal"]
    out["wal.live.bytes_per_edit"] = wal["bytes_appended"] / edits
    out["wal.live.fsyncs"] = wal["fsyncs"]
    recovery = traced["live"].stats["recovery"]
    out["wal.live.records_recovered"] = recovery.wal_records
    out["wal.live.recover_ms_per_record"] = statistics.median(traced["live"].samples["recover_ms"]) / max(1, recovery.wal_records)
    out["loop.live.lag_p99_ms"] = _p99(server["loop_lag_ms"])
    out["loadgen.live.lag_p99_ms"] = _p99(traced["live"].samples["loadgen_lag_ms"])
    # The edit latency differs too much between two runs of the same code for
    # a bound (see README), so all of it is reported here, beside the spans
    # of the server that produced it.
    latency = traced["live"].samples.get("edit_latency_ms", [])
    out["loadgen.live.edit_latency_mean_ms"] = statistics.fmean(latency) if latency else 0.0
    out["loadgen.live.edit_latency_p50_ms"] = percentile(latency, 50)["value"]
    out["loadgen.live.edit_latency_p95_ms"] = percentile(latency, 95)["value"]
    out["loadgen.live.edit_latency_p99_ms"] = percentile(latency, 99)["value"]
    for name in ("retreats", "advances"):
        out[f"walker.live.{name}"] = counter("live", f"walker.{name}") / edits
        out[f"walker.merge.{name}"] = counter("merge", f"walker.{name}") / operations["merge"]
    out["walker.live.peak_records"] = counter("live", "walker.peak_records")
    out["walker.merge.peak_records"] = counter("merge", "walker.peak_records")

    # room: counters of the last traced pass, spans of all of them
    room = traced["room"].stats
    deltas = room["deltas"]
    out["protocol.room.frames_encoded_per_edit"] = span_count("room", "encode_frame") / operations["room"]
    out["protocol.room.encodes_per_delta"] = span_count("room", "delta_frame") / operations["room"]
    buffers = room["buffers"]
    out["causal_buffer.room.batches_per_edit"] = sum(b.batches for b in buffers) / deltas
    out["causal_buffer.room.parked"] = max(b.buffered_high_water for b in buffers)
    out["causal_buffer.room.duplicates_per_edit"] = sum(b.duplicates for b in buffers) / deltas
    out["session.room.frames_queued_per_edit"] = room["room"].frames_queued / deltas
    _merge_counters(out, "room", room["merge"].snapshot())
    out["rope.room.ops"] = (span_count("room", "Rope.insert") + span_count("room", "Rope.delete")) / operations["room"]

    # merge and open
    _merge_counters(out, "merge", traced["merge"].stats["merge"].snapshot())
    for stage in ("merge", "open"):
        out[f"event_graph.{stage}.events"] = counter(stage, "event_graph.events") / operations[stage]
        out[f"event_graph.{stage}.splits"] = counter(stage, "event_graph.splits") / operations[stage]
    opened = plain["open"].stats  # read accounting is taken outside the traced loop
    out["rope.open.ops"] = (span_count("open", "Rope.insert") + span_count("open", "Rope.delete")) / operations["open"]
    out["storage.open.bytes_read"] = opened["text_only_bytes"]
    out["storage.open.read_fraction"] = opened["text_only_bytes"] / opened["file_bytes"]
    out["storage.open.events_materialised"] = opened["events_materialised"]
    out["history.open.window_events"] = opened["history_window_events"]

    # tracing itself: cost and coverage, per stage
    for stage in ("room", "merge", "open"):
        per_op_traced = traced[stage].wall_s / traced[stage].attempted
        per_op_plain = plain[stage].wall_s / plain[stage].attempted
        out[f"trace.{stage}.overhead_frac"] = per_op_traced / per_op_plain
        out[f"trace.{stage}.coverage_frac"] = summaries[stage]["root_ms"] / (traced[stage].wall_s * 1e3)
    p50_traced = percentile(traced["live"].samples.get("edit_latency_ms", []), 50)["value"]
    p50_plain = percentile(plain["live"].samples.get("edit_latency_ms", []), 50)["value"]
    out["trace.live.overhead_frac"] = p50_traced / p50_plain
    # Share of the server process's CPU time that was spent inside spans
    # (fsync waits are wall-clock, not CPU, so they are left out).
    fsync_wait_ms = server["spans"].get("RoomStorage.sync", {"self_ms": 0.0})["self_ms"]
    out["trace.live.coverage_frac"] = (server["root_ms"] - fsync_wait_ms) / server["cpu_ms"]
    return {name: exact(value) for name, value in out.items()}


def check_declared(manifest: dict[str, Any]) -> None:
    """The names computed here must be exactly the names ``BENCHMARK.json``
    declares, or the benchmark and its contract have drifted apart."""
    for key, names in (("end_to_end", END_TO_END_NAMES), ("per_layer", PER_LAYER_NAMES)):
        declared = {m["name"] for m in manifest[key]}
        if declared != set(names):
            missing = sorted(set(names) - declared)
            extra = sorted(declared - set(names))
            raise SystemExit(
                f"spine: BENCHMARK.json {key} differs from the benchmark: "
                f"undeclared {missing}, not computed {extra}"
            )
