"""Distributed tracing: flight recorder, trace assembler, conformance.

Covers the tracing tentpole end to end:

* :class:`~repro.obs.flight.FlightRecorder` / ``FlightHub`` units —
  bounded ring semantics, exact counts, selections, subscriptions,
  anomaly dumps, and the rare events every cluster logs;
* trace-id construction;
* the ``repro-trace`` assembler (:mod:`repro.tools.tracecli`) — dump /
  load round-trips, happens-before edges on hand-built rows, Chrome
  trace-event export, the CLI;
* the acceptance scenario: traced actions on one three-replica group
  yield a merged timeline whose happens-before order runs submit →
  send → recv → green on every replica — and the *causal signature* of
  each action is identical between the simulator and the live
  (asyncio, in-memory and UDP) runtime.
"""

import asyncio
import json
import os

import pytest

from repro.core import ReplicaCluster
from repro.core.state_machine import EngineState
from repro.gcs import GcsSettings
from repro.net import lan_profile
from repro.obs import Observability
from repro.obs.flight import (ANOMALY_CATEGORIES, FlightHub,
                              FlightRecorder, action_trace_id)
from repro.obs.spans import STALENESS_STRIDE
from repro.runtime import LiveCluster, live_gcs_settings, udp_cluster
from repro.storage import DiskProfile
from repro.tools.tracecli import (causal_signature, chrome_trace,
                                  descendants, dump_flight, flight_sink,
                                  happens_before, load_rows, merge_rows,
                                  render_text)
from repro.tools.tracecli import main as trace_main
from repro.tools.scenario import main as scenario_main


# ======================================================================
# recorder units
# ======================================================================
class TestFlightRecorder:
    def test_ring_keeps_newest_events(self):
        rec = FlightRecorder("n1", capacity=4)
        for i in range(10):
            rec.record(float(i), "submit", trace=i)
        events = rec.events()
        assert len(events) == 4
        assert [e[0] for e in events] == [6.0, 7.0, 8.0, 9.0]

    def test_clear_preserves_ring_identity(self):
        # The engine caches the bound ring.append at construction;
        # clear() must not replace the deque behind its back.
        rec = FlightRecorder("n1", capacity=4)
        append = rec.ring.append
        rec.record(1.0, "submit")
        rec.clear()
        assert rec.events() == []
        append((2.0, "send", 7, None))
        assert rec.events() == [(2.0, "send", 7, None)]

    def test_to_dicts_normalizes_details(self):
        rec = FlightRecorder(3, capacity=8)
        rec.record(1.0, "submit")                    # no detail, no trace
        rec.record(2.0, "recv", trace=9, detail=5)   # bare scalar
        rec.record(3.0, "install", trace=9, detail=(4, "view"))
        rows = rec.to_dicts()
        assert rows[0] == {"node": 3, "t": 1.0, "kind": "submit"}
        assert rows[1]["detail"] == [5]
        assert rows[2]["detail"] == [4, "view"]
        assert rows[2]["trace"] == 9


class TestFlightHub:
    def test_recorder_is_per_key_singleton(self):
        hub = FlightHub(capacity=16)
        assert hub.recorder(1) is hub.recorder(1)
        assert hub.recorder(1) is not hub.recorder(2)

    def test_record_and_select(self):
        hub = FlightHub()
        hub.recorder(1).record(1.0, "engine.state", detail={"new": "A"})
        hub.recorder(2).record(2.0, "gcs.install", detail={"view": "v"})
        hub.recorder(1).record(3.0, "engine.state", detail={"new": "B"})
        rows = list(hub.select("engine.state"))
        assert [(r["node"], r["t"], r["detail"]["new"]) for r in rows] == \
            [(1, 1.0, "A"), (1, 3.0, "B")]
        assert [r["kind"] for r in hub.select(node=2)] == ["gcs.install"]
        # Every node's events, merged in time order.
        assert [r["t"] for r in hub.select()] == [1.0, 2.0, 3.0]

    def test_count_is_exact_across_eviction(self):
        hub = FlightHub(capacity=3)
        for i in range(5):
            hub.recorder(1).record(float(i), "gcs.retrans",
                                   detail={"count": i})
        hub.recorder(2).record(9.0, "gcs.retrans")
        assert [r["detail"]["count"]
                for r in hub.select("gcs.retrans", 1)] == [2, 3, 4]
        assert hub.count("gcs.retrans") == 6
        assert hub.count("gcs.install") == 0

    def test_subscribers_see_each_event_once(self):
        hub = FlightHub()
        seen = []
        hub.subscribe(seen.append)
        hub.subscribe(seen.append)      # already held: not added again
        hub.recorder(2).record(1.5, "gcs.install",
                               detail={"members": (1, 2)})
        assert seen == [{"node": 2, "t": 1.5, "kind": "gcs.install",
                         "detail": {"members": (1, 2)}}]

    def test_select_is_a_snapshot(self):
        hub = FlightHub()
        for i in range(4):
            hub.recorder(1).record(float(i), "engine.state")
        rows = hub.select("engine.state")
        hub.recorder(1).clear()
        hub.recorder(1).record(9.0, "engine.state")
        assert [r["t"] for r in rows] == [0.0, 1.0, 2.0, 3.0]
        assert hub.count("engine.state") == 1

    def test_anomaly_category_triggers_sink(self):
        hub = FlightHub()
        dumps = []
        hub.sink = lambda reason, dump: dumps.append((reason, dump))
        category = sorted(ANOMALY_CATEGORIES)[0]
        hub.recorder(1).record(2.0, category)
        assert hub.anomalies == 1
        assert dumps and dumps[0][0] == category
        assert 1 in dumps[0][1]


class TestClusterLog:
    """Every cluster records its rare events into one per-node log,
    ``cluster.tracer``, with per-action tracing off."""

    def test_default_sim_cluster_logs_transitions_and_installs(self):
        cluster = ReplicaCluster(3, seed=1)
        cluster.start_all()
        for kind in ("engine.state", "engine.install", "gcs.install"):
            assert cluster.tracer.count(kind) > 0, kind
        rows = list(cluster.tracer.select("gcs.install", node=2))
        assert rows and rows[-1]["detail"]["members"] == (1, 2, 3)
        # No per-action event without Observability(flight=True).
        kinds = {r["kind"] for r in cluster.tracer.select()}
        assert not kinds & {"submit", "send", "recv", "red", "green"}

    def test_gcs_retransmissions_are_counted_on_a_lossy_lan(self):
        cluster = ReplicaCluster(3, seed=1,
                                 network_profile=lan_profile(loss_rate=0.05))
        cluster.start_all()
        for i in range(50):
            cluster.submit(1, ("SET", f"k{i}", i))
        cluster.run_for(3.0)
        assert cluster.tracer.count("gcs.retrans") > 0


class TestTraceIds:
    def test_action_ids_are_nonzero_and_distinct(self):
        ids = {action_trace_id(s, i) for s in (1, 2, 3) for i in range(4)}
        assert len(ids) == 12
        assert 0 not in ids
        assert all(t < 1 << 63 for t in ids)     # fits a signed wire field

    def test_staleness_stride_is_a_power_of_two(self):
        # The engine samples with a single AND; see repro/core/engine.py.
        assert STALENESS_STRIDE > 0
        assert STALENESS_STRIDE & (STALENESS_STRIDE - 1) == 0


# ======================================================================
# dump / load round-trip
# ======================================================================
class TestDumpRoundTrip:
    def _hub(self):
        hub = FlightHub()
        hub.recorder(1).record(1.0, "submit", trace=9)
        hub.recorder(1).record(2.0, "send", trace=9)
        hub.recorder(2).record(3.0, "recv", trace=9, detail=1)
        hub.recorder(2).record(4.0, "green", trace=9, detail=0)
        return hub

    def test_dump_load_merge(self, tmp_path):
        hub = self._hub()
        paths = dump_flight(hub, str(tmp_path))
        assert sorted(os.path.basename(p) for p in paths) == \
            ["flight-manual-1.jsonl", "flight-manual-2.jsonl"]
        rows = load_rows([str(tmp_path)])
        assert len(rows) == 4
        assert [r["kind"] for r in rows] == \
            ["submit", "send", "recv", "green"]

    def test_dump_accepts_observability_and_noop_when_off(self, tmp_path):
        obs = Observability(flight=True)
        obs.flight_hub.recorder(5).record(1.0, "submit")
        assert dump_flight(obs, str(tmp_path / "on"))
        assert dump_flight(Observability(), str(tmp_path / "off")) == []

    def test_flight_sink_numbers_artifacts(self, tmp_path):
        hub = self._hub()
        hub.sink = flight_sink(str(tmp_path))
        hub.note_anomaly("replica.crash")
        hub.note_anomaly("runtime.callback_error")
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 4          # two dumps x two recorders
        assert any("replica.crash" in n for n in names)
        assert any("runtime.callback_error" in n for n in names)


# ======================================================================
# happens-before on hand-built rows
# ======================================================================
def _row(node, t, kind, trace=0, detail=None):
    row = {"node": node, "t": t, "kind": kind}
    if trace:
        row["trace"] = trace
    if detail is not None:
        row["detail"] = detail
    return row


class TestHappensBefore:
    def rows(self):
        return merge_rows([
            _row(1, 1.0, "submit", 9),
            _row(1, 1.1, "send", 9),
            _row(2, 1.3, "recv", 9, [1]),
            _row(2, 1.5, "green", 9, [0]),
            _row(1, 1.4, "green", 9, [0]),
        ])

    def test_program_send_recv_and_delivery_edges(self):
        rows = self.rows()
        edges = set(happens_before(rows))
        index = {(r["node"], r["kind"]): i for i, r in enumerate(rows)}
        submit, send = index[(1, "submit")], index[(1, "send")]
        recv, green2 = index[(2, "recv")], index[(2, "green")]
        assert (submit, send) in edges          # program order
        assert (send, recv) in edges            # wire edge
        assert (recv, green2) in edges          # delivery edge

    def test_descendants_follow_the_chain(self):
        rows = self.rows()
        edges = happens_before(rows)
        start = next(i for i, r in enumerate(rows)
                     if r["kind"] == "submit")
        reached = {(rows[i]["node"], rows[i]["kind"])
                   for i in descendants(edges, start)}
        assert (2, "green") in reached
        assert (1, "green") in reached

    def test_causal_signature_is_time_independent(self):
        shifted = [dict(r, t=r["t"] + 5.0) for r in self.rows()]
        assert causal_signature(self.rows()) == \
            causal_signature(merge_rows(shifted))

    def test_render_text_and_chrome_trace(self, tmp_path):
        rows = self.rows()
        text = render_text(rows)
        assert "submit" in text and "green" in text
        doc = chrome_trace(rows)
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"i", "b", "e"} <= phases


# ======================================================================
# acceptance: traced actions on one group, sim and live
# ======================================================================
SERVERS = [1, 2, 3]
ACTIONS = 3

SIM_GCS = GcsSettings(heartbeat_interval=0.02, failure_timeout=0.08,
                      gather_settle=0.02, phase_timeout=0.15)
SIM_DISK = DiskProfile(forced_write_latency=0.001)

#: One trace per action submitted at replica 1 (indices start at 1).
TRACES = [action_trace_id(1, i) for i in range(1, ACTIONS + 1)]


def _traced_obs():
    return Observability(flight=True, staleness=True)


def _flight_rows(obs):
    return merge_rows(r for rows in obs.flight_hub.dump().values()
                      for r in rows)


def _sim_rows():
    # Each action goes green everywhere before the next is submitted,
    # so no two traces interleave on a node and program-order edges
    # within a trace do not depend on timing.
    obs = _traced_obs()
    cluster = ReplicaCluster(server_ids=SERVERS, seed=0,
                             gcs_settings=SIM_GCS, disk_profile=SIM_DISK,
                             observability=obs)
    cluster.start_all(settle=1.5)
    for i in range(ACTIONS):
        cluster.replicas[1].submit(("SET", f"k{i}", i))
        deadline = cluster.sim.now + 10.0
        while any(r.database.applied_count <= i
                  for r in cluster.replicas.values()):
            assert cluster.sim.now < deadline, "sim cluster stalled"
            cluster.run_for(0.01)
    cluster.assert_converged()
    return _flight_rows(obs)


def _live_rows(udp):
    async def scenario():
        obs = _traced_obs()
        build = udp_cluster if udp else LiveCluster
        cluster = build(SERVERS, observability=obs,
                        gcs_settings=live_gcs_settings())
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=15)
            for i in range(ACTIONS):
                cluster.submit(1, ("SET", f"k{i}", i))
                await cluster.wait_green(i + 1, timeout=10)
            cluster.assert_converged()
            return _flight_rows(obs)
        finally:
            cluster.shutdown()

    return asyncio.run(scenario())


def _assert_action_chain(rows, trace):
    """submit → send → recv → green, reaching a green on every replica
    and a recv on every replica but the originator."""
    edges = happens_before(rows)
    submit = next(i for i, r in enumerate(rows)
                  if r["kind"] == "submit" and r.get("trace") == trace)
    assert rows[submit]["node"] == 1
    reached = {(rows[i]["node"], rows[i]["kind"])
               for i in descendants(edges, submit)
               if rows[i].get("trace") == trace}
    assert (1, "send") in reached
    for node in SERVERS:
        assert (node, "green") in reached, f"no green on {node}"
        if node != 1:
            assert (node, "recv") in reached, f"no recv on {node}"


class TestSingleGroupAcceptance:
    def test_sim_yields_causal_action_chains(self):
        rows = _sim_rows()
        for trace in TRACES:
            _assert_action_chain(rows, trace)
        # The per-trace view renders and exports.
        assert render_text(rows, trace=TRACES[0])
        assert chrome_trace(rows)["traceEvents"]

    @pytest.mark.parametrize("udp", [False, True],
                             ids=["memory", "udp"])
    def test_sim_and_live_causal_signatures_match(self, udp):
        # Wall-clock timings differ arbitrarily between the simulator
        # and a live run; the reconstructed causal structure of each
        # action may not.
        sim_sig = causal_signature(_sim_rows())
        live_rows = _live_rows(udp)
        live_sig = causal_signature(live_rows)
        for trace in TRACES:
            _assert_action_chain(live_rows, trace)
            assert sim_sig[trace] == live_sig[trace]


# ======================================================================
# CLI round trips
# ======================================================================
SCENARIO = {
    "replicas": 3,
    "seed": 1,
    "settle": 2.0,
    "steps": [
        {"op": "submit", "node": 1, "update": ["SET", "k", 42]},
        {"op": "run", "seconds": 1.0},
        {"op": "check", "kind": "converged"},
    ],
}


class TestCli:
    def test_scenario_trace_out_feeds_repro_trace(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SCENARIO))
        out_dir = tmp_path / "flight"
        assert scenario_main([str(spec), "--trace-out", str(out_dir)]) == 0
        dumps = [n for n in os.listdir(out_dir)
                 if n.startswith("flight-") and n.endswith(".jsonl")]
        assert len(dumps) == 3
        chrome = tmp_path / "trace.json"
        assert trace_main([str(out_dir), "--edges",
                           "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "happens-before" in out
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_scenario_dump_has_protocol_events_and_no_datagrams(
            self, tmp_path):
        # Per-datagram rows would evict the send/recv/green rows the
        # dump exists for.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SCENARIO))
        out_dir = tmp_path / "flight"
        assert scenario_main([str(spec), "--trace-out", str(out_dir)]) == 0
        kinds = {row["kind"] for row in load_rows([str(out_dir)])}
        assert {"engine.state", "gcs.install", "green"} <= kinds
        assert not [k for k in kinds if k.startswith("net.")]

    def test_trace_cli_empty_input_fails(self, tmp_path):
        assert trace_main([str(tmp_path)]) == 1
