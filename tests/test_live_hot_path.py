"""Hot-path counter gate for the live runtime.

Twelve closed-loop writers drive 600 actions through a three-replica
UDP cluster once the primary is installed, and the gate counts what
each green action cost the process — counters, not wall-clock:

* event-loop timer handles (``loop.call_at``, which ``call_later``
  goes through), classified by the callback they run: work that is
  due now takes the ready queue, and a buffered write nobody waits on
  schedules nothing;
* payloads pickled inside ``DataMsg`` frames: engine actions have their
  own compact encoding;
* the paper's cost model, which must not move: one multicast and about
  one forced write per action;
* exceptions escaping loop callbacks: none;
* membership: no daemon suspects a busy peer, so no gather starts and
  no view is installed.

Most timers left are platter syncs of the group-committing disk
(0.62-0.85 per action on a 2-core x86 VM).  Their count per action
drifts with the machine's speed, so they get no bound of their own
beyond the one group commit guarantees: never more syncs than forced
writes.  Stamps and acks leave at the end of the loop turn that made
them due, so no coalescing window is armed; what else takes a timer is
wall-clock housekeeping (heartbeats, NACK checks, channel retransmit
checks, the test's own polling sleeps): 0.09-0.21 per action over
eight runs on that VM, two of them side by side.  The bound on those
leaves room for a slower machine and still fails when a stamp or ack
window comes back (about 0.9 more per action) or every buffered write
or due-now post takes a timer (about 7 per action).
"""

import asyncio

from repro.core import EngineConfig
from repro.core.messages import EngineActionMsg
from repro.core.state_machine import EngineState
from repro.gcs.types import DataMsg
from repro.net import codec
from repro.runtime import udp_cluster
from repro.storage import SimulatedDisk

NODES = (1, 2, 3)
WRITERS_PER_NODE = 4
ACTIONS = 600
MAX_OTHER_TIMERS_PER_ACTION = 0.5


class _Counts:
    """Wraps ``loop.call_at`` and ``codec.encode_payload`` in place."""

    def __init__(self):
        self.syncs = 0
        self.other_timers = 0
        self.data_payloads = 0
        self.pickled_data_payloads = 0
        self.engine_actions = 0
        self._in_data = []

    def call_at(self, original, runtime):
        def counted(when, callback, *args, **kwargs):
            # The runtime schedules ``_dispatch(target, args)`` or
            # ``_dispatch_handle(handle, target, args)``.
            target = callback
            if callback == runtime._dispatch:
                target = args[0]
            elif callback == runtime._dispatch_handle:
                target = args[1]
            if getattr(target, "__func__", None) \
                    is SimulatedDisk._sync_done:
                self.syncs += 1
            else:
                self.other_timers += 1
            return original(when, callback, *args, **kwargs)
        return counted

    def encode_payload(self, original):
        def counted(obj):
            if obj.__class__ is DataMsg:
                self._in_data.append(obj.payload)
                try:
                    return original(obj)
                finally:
                    self._in_data.pop()
            blob = original(obj)
            if self._in_data and obj is self._in_data[-1]:
                self.data_payloads += 1
                if obj.__class__ is EngineActionMsg:
                    self.engine_actions += 1
                if blob[0] == codec.TAG_PICKLE:
                    self.pickled_data_payloads += 1
            return blob
        return counted


def _totals(cluster):
    replicas = cluster.replicas.values()
    return (sum(r.daemon.messages_multicast for r in replicas),
            sum(r.disk.forced_writes for r in replicas),
            cluster.tracer.count("gcs.gather"),
            sum(r.daemon.views_installed for r in replicas))


def _run(monkeypatch):
    counts = _Counts()

    async def scenario():
        cluster = udp_cluster(list(NODES),
                              engine_config=EngineConfig(apply_cpu=0.0))
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=15)
            base = cluster.green_counts()[1]
            before = _totals(cluster)
            loop = cluster.runtime.loop
            monkeypatch.setattr(loop, "call_at",
                                counts.call_at(loop.call_at,
                                               cluster.runtime))
            monkeypatch.setattr(codec, "encode_payload",
                                counts.encode_payload(codec.encode_payload))
            submitted = [0]

            def write(node, writer):
                if submitted[0] >= ACTIONS:
                    return
                submitted[0] += 1
                cluster.submit(node, ("SET", f"w{node}.{writer}",
                                      submitted[0]),
                               lambda *_: write(node, writer))
            for node in NODES:
                for writer in range(WRITERS_PER_NODE):
                    write(node, writer)
            await cluster.wait_green(base + ACTIONS, timeout=30)
            monkeypatch.undo()
            after = _totals(cluster)
            return (cluster.green_counts(), base,
                    [a - b for a, b in zip(after, before)],
                    cluster.obs.snapshot()[
                        "repro_runtime_callback_errors_total"])
        finally:
            monkeypatch.undo()
            cluster.shutdown()

    return counts, asyncio.run(scenario())


def test_live_hot_path_costs_per_green_action(monkeypatch):
    counts, (greens, base, deltas, errors) = _run(monkeypatch)
    multicasts, forced, gathers, views = deltas
    assert set(greens.values()) == {base + ACTIONS}
    assert counts.syncs <= forced, \
        f"{counts.syncs} platter syncs for {forced} forced writes"
    assert counts.other_timers / ACTIONS <= MAX_OTHER_TIMERS_PER_ACTION, \
        f"{counts.other_timers / ACTIONS:.2f} loop timers per green " \
        f"action besides platter syncs"
    assert counts.engine_actions >= ACTIONS
    assert counts.pickled_data_payloads == 0, \
        f"{counts.pickled_data_payloads} of {counts.data_payloads} " \
        f"DataMsg payloads pickled"
    assert multicasts == ACTIONS
    assert 0.95 <= forced / ACTIONS <= 1.1, \
        f"{forced / ACTIONS:.3f} forced writes per action"
    assert errors == {"": 0.0}
    assert gathers == 0 and views == 0, \
        f"{gathers} gathers and {views} views during the run"
