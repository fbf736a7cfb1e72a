"""Per-layer metrics: counts from the public counters of an untraced
window, times from the spans of a traced one.

Each ``*_per_action`` count divides by the updates completed in the
window its counters were read around; each ``*_us_per_action`` time
divides by the updates completed in the traced window.  The layers'
``self_us_per_action`` and ``runtime.loop_other_us_per_action`` add up
to ``trace.cpu_us_per_action`` by construction: the first are the self
times of every span, the second is the processor time outside all of
them.
"""

from __future__ import annotations

from typing import Dict

from harness import Window, quantile_of
from stats import percentile
from tracing import LAYERS, SpanRecorder

STORAGE_RECOVERY_SPANS = (
    "WriteAheadLog.recover", "WriteAheadLog.recover_kind",
    "WriteAheadLog.last_of_kind", "StableStore.recover",
    "SimulatedDisk.recover")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(window: Window, name: str) -> float:
    return quantile_of(window.samples.get(name, []), 0.50)


def layer_metrics(plain: Window, traced: Window, rec: SpanRecorder,
                  simulated: bool) -> Dict[str, float]:
    """Every per-layer metric; zero where a workload has no such layer
    or event."""
    c = plain.counters
    actions = plain.actions
    per_traced = 1e-3 / traced.actions if traced.actions else 0.0  # ns -> us

    def self_us(layer: str, *names: str) -> float:
        return rec.self_ns(layer, *names) * per_traced

    m: Dict[str, float] = {}

    # What a user sees, on the workloads that have it (end-to-end
    # metrics must exist on every workload, these do not).
    reads = sorted(plain.samples.get("read_ms", []))
    m["read_p99_ms"] = percentile(reads, 0.99)
    m["partition_gap_p50_ms"] = _p50(plain, "partition_gap_ms")
    m["merge_gap_p50_ms"] = _p50(plain, "merge_gap_ms")
    m["catchup_p50_ms"] = _p50(plain, "catchup_ms")
    m["events_per_s"] = _ratio(c.get("events", 0.0), plain.wall_s)
    m["virtual_actions_per_s"] = plain.extra.get("virtual_actions_per_s", 0.0)
    m["failed_share"] = _ratio(plain.failed, plain.attempted)

    for layer in LAYERS:
        m[f"{layer}.self_us_per_action"] = self_us(layer)

    live = 0.0 if simulated else 1.0
    scheduled = rec.calls("runtime", "post", "post_at", "schedule",
                          "schedule_at")
    m["runtime.timers_per_action"] = _ratio(scheduled, traced.actions)
    m["runtime.callbacks_per_action"] = \
        live * _ratio(c.get("callbacks", 0.0), actions)
    m["runtime.loop_other_us_per_action"] = \
        (traced.cpu_s * 1e9 - rec.top_level_ns) * per_traced

    m["transport.datagrams_per_action"] = live * _ratio(
        c.get("datagrams", 0.0), actions)
    m["transport.bytes_per_action"] = live * _ratio(c.get("bytes", 0.0),
                                                    actions)
    m["transport.send_self_us_per_action"] = self_us("transport", "send",
                                                     "multicast")
    m["transport.recv_self_us_per_action"] = self_us("transport",
                                                     "_on_readable")
    m["transport.dropped_datagrams"] = live * c.get("dropped", 0.0)

    m["codec.encode_us_per_action"] = self_us("codec", "encode_frame",
                                              "encode_payload")
    m["codec.decode_us_per_action"] = self_us("codec", "decode_frame")
    frames = rec.calls("codec", "encode_frame")
    m["codec.bytes_per_frame"] = _ratio(rec.counts.get("codec.frame_bytes",
                                                       0), frames)
    m["codec.pickle_fallback_share"] = _ratio(
        rec.counts.get("codec.pickled_payloads", 0),
        rec.counts.get("codec.payloads", 0))

    m["batching.payloads_per_frame"] = _ratio(c.get("batch_payloads", 0.0),
                                              c.get("batch_frames", 0.0))
    m["batching.flushes_per_action"] = _ratio(c.get("batch_frames", 0.0),
                                              actions)

    views = c.get("views", 0.0)
    m["gcs.multicasts_per_action"] = _ratio(c.get("multicasts", 0.0),
                                            actions)
    m["gcs.deliveries_per_action"] = _ratio(c.get("deliveries", 0.0),
                                            actions)
    m["gcs.send_self_us_per_action"] = self_us("gcs", "multicast", "send")
    m["gcs.recv_self_us_per_action"] = self_us(
        "gcs", "GcsDaemon._on_datagram", "on_datagram")
    m["gcs.safe_delivery_wait_p50_ms"] = quantile_of(
        rec.samples.get("gcs.safe_delivery_wait_ms", []), 0.50)
    m["gcs.retransmissions_per_kaction"] = 1e3 * _ratio(
        c.get("gcs_retrans", 0.0) + c.get("channel_retransmits", 0.0),
        actions)
    m["gcs.view_changes"] = views
    m["gcs.membership_round_p50_ms"] = quantile_of(
        rec.samples.get("gcs.membership_round_ms", []), 0.50)

    exchanges = c.get("exchanges", 0.0)
    m["core.submit_self_us_per_action"] = self_us("core", "submit")
    m["core.deliver_self_us_per_action"] = self_us("core", "on_message")
    m["core.red_to_green_p50_ms"] = _p50(traced, "red_to_green_ms")
    m["core.checkpoint_us_per_action"] = \
        rec.total_ns("core", "checkpoint") * per_traced
    m["core.compactions"] = c.get("compactions", 0.0)
    m["core.compaction_max_ms"] = rec.longest_ns("core", "compact_log") / 1e6
    m["core.exchange_p50_ms"] = _p50(plain, "exchange_ms")
    m["core.membership_change_p50_ms"] = _p50(plain, "membership_change_ms")
    m["core.state_msgs_per_view_change"] = _ratio(
        c.get("state_msgs_sent", 0.0), exchanges)
    m["core.cpc_per_view_change"] = _ratio(c.get("cpc_sent", 0.0),
                                           exchanges)
    # A merge is a view change that found actions to retransmit; the
    # counters cannot tell which ones did, so this is per install.
    m["core.retrans_actions_per_merge"] = _ratio(
        c.get("retrans_actions", 0.0), c.get("installs", 0.0))

    forced = c.get("forced_writes", 0.0)
    m["storage.forced_writes_per_action"] = _ratio(forced, actions)
    m["storage.syncs_per_forced_write"] = _ratio(c.get("syncs", 0.0), forced)
    m["storage.async_writes_per_action"] = _ratio(
        c.get("async_writes", 0.0), actions)
    m["storage.sync_wait_mean_ms"] = 1e3 * _ratio(c.get("sync_wait_s", 0.0),
                                                  forced)
    m["storage.wal_append_self_us_per_action"] = self_us(
        "storage", "WriteAheadLog.append")
    m["storage.durable_records_max"] = c.get("durable_records_max", 0.0)
    m["storage.recovery_scan_ms"] = _ratio(
        rec.self_ns("storage", *STORAGE_RECOVERY_SPANS) / 1e6,
        rec.calls("core", "recover"))

    m["db.applies_per_action"] = _ratio(c.get("applies", c.get("greens",
                                                               0.0)),
                                        actions)
    m["db.apply_self_us_per_action"] = self_us("db", "apply")
    m["db.query_self_us_per_read"] = _ratio(
        rec.self_ns("db", "query") / 1e3, traced.extra.get("reads", 0.0))

    sim = 1.0 if simulated else 0.0
    events = c.get("events", 0.0)
    m["sim.events_per_action"] = sim * _ratio(events, actions)
    m["sim.us_per_event"] = _ratio(rec.self_ns("sim") / 1e3,
                                   traced.counters.get("events", 0.0))
    m["sim.peak_heap"] = sim * c.get("peak_heap", 0.0)
    m["sim.datagrams_per_action"] = sim * _ratio(c.get("datagrams", 0.0),
                                                 actions)
    m["sim.forced_writes_per_action"] = sim * _ratio(forced, actions)
    m["sim.events"] = sim * events

    writes = plain.write_ms
    m["client.submit_green_p99_ms"] = percentile(writes, 0.99)
    half = plain.wall_s / 2
    # Halves of a live window; the simulator's wall clock is not its own.
    m["client.actions_per_s_first_half"] = live * _ratio(
        plain.first_half_actions, half)
    m["client.actions_per_s_second_half"] = live * _ratio(
        plain.actions - plain.first_half_actions, half)
    m["client.generator_lag_p99_ms"] = quantile_of(
        plain.samples.get("generator_lag_ms", []), 0.99)
    m["proc.gc_gen2_collections"] = float(plain.gc_gen2)
    m["trace.overhead_share"] = \
        1.0 - _ratio(traced.actions_per_s, plain.actions_per_s)
    m["trace.cpu_us_per_action"] = _ratio(traced.cpu_s * 1e6,
                                          traced.actions)
    return m
