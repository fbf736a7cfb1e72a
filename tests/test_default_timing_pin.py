"""Guard: the simulator's paper-calibrated GCS timing is untouched.

The live runtime sends a due stamp batch or ack at the end of the loop
turn that made it due (``GcsSettings.idle_immediate``); the simulator
keeps the ``stamp_window``/``ack_window`` coalescing that the Figure 5
pin (3,362,977 events) and the E1-E3 tables were calibrated with.  This
short run is a tier-1 stand-in for that pin: one closed-loop writer on a
default three-replica cluster, seed 0, where any change to the default
timing — the live policy leaking into ``GcsSettings()``, or an extra
event per heartbeat, sync or checkpoint — moves the event count.
"""

import hashlib

from repro.core import ReplicaCluster

# Taken from the commit before the live policy existed.
EXPECTED_EVENTS = 4663
EXPECTED_GREENS = 82
EXPECTED_ORDER_SHA256 = (
    "a6b6ddbca4ca7993732231f4db00e4eb5f93df968973f722d60af701a713b388")


def _closed_loop_run():
    cluster = ReplicaCluster(n=3, seed=0)
    cluster.start_all()
    replica = cluster.replicas[1]

    def submit(*_completion):
        replica.submit(("INC", "n", 1), on_complete=submit)

    submit()
    cluster.run_for(1.0)
    log = cluster.replicas[3].database.applied_log
    order = hashlib.sha256(
        repr([tuple(action_id) for action_id in log]).encode()).hexdigest()
    return cluster.sim.events_processed, len(log), order, cluster


def test_default_timing_event_count_is_pinned():
    events, greens, order, cluster = _closed_loop_run()
    cluster.assert_converged()
    assert (events, greens, order) == (EXPECTED_EVENTS, EXPECTED_GREENS,
                                       EXPECTED_ORDER_SHA256)
