"""Experiment E8 — the paper's WAN conjecture, tested.

Section 7: "it is expected that on wide area network, where network
latency becomes a more important factor, COReL will further outperform
two-phase commit."

We rerun the single-client latency probe on a 40 ms one-way WAN
profile.  Finding: the group-communication protocols *remain* ahead of
2PC on the WAN (the conjecture holds in its weak form), but in this
substrate the gap does not widen — the sequencer-based total order
costs one extra wide-area hop (origin -> sequencer stamp -> members)
that offsets 2PC's extra forced write once propagation dwarfs disk
latency.  A token ring trades that hop for ring rotations, which E10
measured as slower still on the WAN (637.4 ms against 104.0 ms); see
EXPERIMENTS.md.
"""

import pytest

from bench_common import (corel_factory, engine_factory, paper_disk,
                          twopc_factory, write_report)
from repro.baselines import CorelSystem, EngineSystem, TwoPCSystem
from repro.bench import format_table, run_latency_probe
from repro.core import EngineConfig
from repro.gcs import GcsSettings
from repro.net import wan_profile

ACTIONS = 150


def wan_gcs_settings():
    """Timers scaled for 40 ms one-way links."""
    return GcsSettings(heartbeat_interval=0.2, failure_timeout=1.0,
                       gather_settle=0.2, phase_timeout=2.0,
                       stamp_window=0.002, ack_window=0.005,
                       nack_timeout=0.3)


def wan_engine():
    return EngineSystem(14, network_profile=wan_profile(loss_rate=0.0),
                        disk_profile=paper_disk(),
                        gcs_settings=wan_gcs_settings(),
                        engine_config=EngineConfig())


def wan_corel():
    return CorelSystem(14, network_profile=wan_profile(loss_rate=0.0),
                       disk_profile=paper_disk(),
                       gcs_settings=wan_gcs_settings())


def wan_twopc():
    return TwoPCSystem(14, network_profile=wan_profile(loss_rate=0.0),
                       disk_profile=paper_disk())


def run_wan_vs_lan():
    lan = {
        "engine": run_latency_probe(engine_factory(), actions=ACTIONS),
        "corel": run_latency_probe(corel_factory(), actions=ACTIONS),
        "2pc": run_latency_probe(twopc_factory(), actions=ACTIONS),
    }
    wan = {
        "engine": run_latency_probe(wan_engine, actions=ACTIONS,
                                    settle=5.0),
        "corel": run_latency_probe(wan_corel, actions=ACTIONS,
                                   settle=5.0),
        "2pc": run_latency_probe(wan_twopc, actions=ACTIONS, settle=5.0),
    }
    return lan, wan


def test_wan_group_communication_stays_ahead_of_2pc(benchmark):
    lan, wan = benchmark.pedantic(run_wan_vs_lan, rounds=1, iterations=1)
    lan_gap = lan["2pc"].mean_latency - lan["corel"].mean_latency
    wan_gap = wan["2pc"].mean_latency - wan["corel"].mean_latency
    # Weak form of the conjecture: COReL (and the engine) remain ahead
    # of 2PC on the WAN too.
    assert wan_gap > 0, (lan_gap, wan_gap)
    assert wan["engine"].mean_latency < wan["2pc"].mean_latency
    # Latencies scale with propagation: roughly 5-10x the LAN values.
    for name in ("engine", "corel", "2pc"):
        assert wan[name].mean_latency > 4 * lan[name].mean_latency

    rows = []
    for name in ("engine", "corel", "2pc"):
        rows.append([name,
                     f"{lan[name].mean_latency_ms:8.1f}",
                     f"{wan[name].mean_latency_ms:8.1f}"])
    lines = [
        "Experiment E8: the WAN conjecture (single-client mean latency)",
        "",
        format_table(["system", "LAN ms", "WAN ms"], rows),
        "",
        f"COReL-vs-2PC gap: LAN {lan_gap * 1e3:.1f} ms -> "
        f"WAN {wan_gap * 1e3:.1f} ms",
        "finding: group communication stays ahead of 2PC on the WAN",
        "(the conjecture's weak form); the gap does not widen here",
        "because the sequencer total order costs one extra wide-area",
        "hop, offsetting 2PC's extra forced write.",
    ]
    write_report("wan_latency", lines)
