"""The Figure 5(a) determinism pin, and observability that changes
nothing.

The paper's results are message and forced-write counts, reproduced on
a deterministic simulator; what protects them is that the engine half
of the Figure 5(a) sweep (14 replicas, closed-loop clients at every
paper client count, seed 0) dispatches exactly 3,362,977 events and
reaches exactly the throughput series below.  Any change to protocol
timing, message counts or dispatch order moves one of them.

Metrics, spans, the flight recorder and the staleness probes must never
touch the clock or the RNG: the same run with each of them on processes
the same events, ends at the same virtual time, and leaves the same
databases.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_common import CLIENT_COUNTS, engine_factory  # noqa: E402
from repro.bench import run_closed_loop, sweep_clients  # noqa: E402
from repro.obs import Observability  # noqa: E402

FIG5A_EVENTS = 3_362_977
FIG5A_THROUGHPUT = [80.0, 160.0, 318.0, 555.67, 791.67, 1105.67]


def _capturing(factory):
    """Wrap a system factory so the built systems stay reachable."""
    systems = []

    def build():
        system = factory()
        systems.append(system)
        return system

    return build, systems


def test_fig5a_event_count_and_series_are_pinned():
    build, systems = _capturing(engine_factory())
    results = sweep_clients(build, CLIENT_COUNTS, duration=3.0, warmup=1.0)
    assert sum(s.sim.events_processed for s in systems) == FIG5A_EVENTS
    assert [round(r.throughput, 2) for r in results] == FIG5A_THROUGHPUT


def _fourteen_clients(observability):
    build, systems = _capturing(engine_factory(observability=observability))
    run_closed_loop(build, 14, duration=1.0, warmup=0.3)
    (system,) = systems
    replicas = system.cluster.replicas
    return (system.sim.events_processed, system.sim.now,
            {n: replicas[n].database.digest() for n in sorted(replicas)})


@pytest.fixture(scope="module")
def unobserved():
    return _fourteen_clients(None)


@pytest.mark.parametrize("observability", [
    Observability, lambda: Observability(flight=True, staleness=True),
], ids=["metrics", "tracing"])
def test_observability_leaves_the_simulation_unchanged(unobserved,
                                                       observability):
    assert _fourteen_clients(observability()) == unobserved
