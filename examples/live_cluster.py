#!/usr/bin/env python
"""A real three-process replicated database over UDP.

Everything else in ``examples/`` runs on the discrete-event simulator.
This one runs the *identical protocol stack* — engine, GCS daemon,
storage — on wall-clock time: three OS processes, one replica each,
talking over loopback UDP sockets.  The cluster forms a primary
component, commits actions, survives a network partition (injected as
a software filter on every process, on a shared wall-clock schedule),
and converges to the same green action order on all three nodes after
the merge.

Run:  python examples/live_cluster.py            # three processes, UDP
      python examples/live_cluster.py --in-process   # one process
      python examples/live_cluster.py --metrics-port 9100   # + /metrics
      python examples/live_cluster.py --trace-out traces/   # flight dumps

The multi-process mode binds all UDP sockets in the parent and forks,
so children never race for ports.  Exit code 0 means every node
reported the same green order and database digest.

``--metrics-port`` additionally serves each hosting process's metrics
registry over HTTP (``/metrics`` Prometheus text, ``/status`` JSON) —
port 0 binds OS-assigned ports.  Before reporting, every node scrapes
its own endpoint and structurally lints the exposition text, so a run
with metrics enabled also validates the export path end to end.
"""

import argparse
import asyncio
import multiprocessing
import os
import socket
import sys

SERVER_IDS = [1, 2, 3]
MAJORITY = [1, 2]
MINORITY = [3]

# Wall-clock script, seconds after the shared start barrier.  Generous
# spacing so loaded CI machines still fit every phase.
T_PARTITION = 3.0
T_HEAL = 6.0
T_DEADLINE = 25.0


def banner(text):
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)), flush=True)


def tracing_obs(trace_out):
    """An Observability bundle with the flight recorder on when
    ``--trace-out`` was given (None otherwise: cluster default)."""
    if trace_out is None:
        return None
    from repro.obs import Observability
    return Observability(flight=True, staleness=True)


def dump_traces(obs, trace_out, label):
    """Write the per-node flight rings to ``trace_out`` (merge the
    JSONL files afterwards with ``repro-trace``)."""
    if obs is None:
        return
    from repro.tools.tracecli import dump_flight
    paths = dump_flight(obs, trace_out)
    print(f"{label}: wrote {len(paths)} flight dumps to {trace_out}",
          flush=True)


async def scrape_own_metrics(cluster, label):
    """Self-scrape the cluster's HTTP endpoint and lint the exposition
    text; raises if the scrape would not ingest cleanly."""
    from repro.obs import fetch_http, lint_prometheus

    server = cluster._metrics_server
    text = await fetch_http("127.0.0.1", server.port, "/metrics")
    problems = lint_prometheus(text)
    if problems:
        raise AssertionError(f"{label}: /metrics lint: {problems[:3]}")
    for family, what in (("repro_engine_green_actions_total",
                          "engine counters"),
                         ("repro_gcs_gather_seconds",
                          "the gather histogram")):
        if family not in text:
            raise AssertionError(f"{label}: /metrics missing {what}")
    await fetch_http("127.0.0.1", server.port, "/status")
    print(f"{label}: scraped :{server.port}/metrics "
          f"({len(text.splitlines())} lines, lint clean)", flush=True)


async def drive_node(node, addresses, sockets, start_at, results,
                     metrics_port=None, trace_out=None):
    """One node's life: boot, serve, partition, merge, report."""
    from repro.core.state_machine import EngineState
    from repro.runtime import udp_cluster

    obs = tracing_obs(trace_out)
    cluster = udp_cluster(SERVER_IDS, hosted=[node],
                          addresses=addresses, sockets=sockets,
                          observability=obs)
    if metrics_port is not None:
        # One endpoint per process; a fixed base port spreads out as
        # base+node-1, port 0 stays OS-assigned everywhere.
        port = 0 if metrics_port == 0 else metrics_port + node - 1
        server = await cluster.serve_metrics(port=port)
        print(f"node {node}: metrics on 127.0.0.1:{server.port}",
              flush=True)
    loop = asyncio.get_event_loop()

    # Shared start barrier: all processes begin their scripts at the
    # same wall-clock instant, so the partition windows line up.
    await asyncio.sleep(max(0.0, start_at - loop.time()))
    origin = loop.time()
    cluster.start_all()

    def submit_batch(tag, count):
        for i in range(count):
            cluster.submit(node, ("SET", f"{tag}-{node}-{i}", i))

    await cluster.wait_all_engine_state(EngineState.REG_PRIM, timeout=10)
    submit_batch("pre", 2)

    await asyncio.sleep(max(0.0, origin + T_PARTITION - loop.time()))
    cluster.partition(MAJORITY, MINORITY)
    # Both sides keep accepting actions: the majority commits (green),
    # the minority only buffers (red) until the merge.
    submit_batch("split", 2)

    await asyncio.sleep(max(0.0, origin + T_HEAL - loop.time()))
    cluster.heal()

    # Converge: all 3 nodes x (2 pre + 2 split) actions green everywhere.
    await cluster.wait_green(12, timeout=origin + T_DEADLINE - loop.time())
    if metrics_port is not None:
        await scrape_own_metrics(cluster, f"node {node}")
    order = [tuple(a) for a in cluster.green_order(node)]
    digest = cluster.replicas[node].database.digest()
    results.put((node, order, digest))
    dump_traces(obs, trace_out, f"node {node}")
    cluster.shutdown()


def node_process(node, addresses, sockets, start_at, results,
                 metrics_port=None, trace_out=None):
    try:
        asyncio.run(drive_node(node, addresses, sockets, start_at, results,
                               metrics_port, trace_out))
    except Exception as failure:  # pragma: no cover - report, don't hang
        results.put((node, "ERROR", repr(failure)))
        raise


def run_multiprocess(metrics_port=None, trace_out=None):
    banner("three processes, UDP loopback")
    # Parent binds every socket, children inherit them: no port races,
    # and the address map is exact before any process starts.
    sockets = {}
    addresses = {}
    for node in SERVER_IDS:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sockets[node] = sock
        addresses[node] = sock.getsockname()
    print(f"addresses: {addresses}", flush=True)

    import time
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    start_at = time.monotonic() + 0.5
    workers = []
    for node in SERVER_IDS:
        proc = ctx.Process(
            target=node_process, name=f"replica-{node}",
            args=(node, addresses, {node: sockets[node]}, start_at,
                  results, metrics_port, trace_out))
        proc.start()
        workers.append(proc)
    for sock in sockets.values():
        sock.close()     # children hold their own copies

    reports = {}
    for _ in SERVER_IDS:
        node, order, digest = results.get(timeout=T_DEADLINE + 10)
        reports[node] = (order, digest)
        print(f"node {node}: {len(order) if order != 'ERROR' else order} "
              f"green actions, digest {str(digest)[:12]}", flush=True)
    for proc in workers:
        proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - watchdog
            proc.terminate()
    return reports


def run_in_process(metrics_port=None, trace_out=None):
    banner("single process, in-memory transport")

    async def main():
        from repro.core.state_machine import EngineState
        from repro.runtime import LiveCluster
        obs = tracing_obs(trace_out)
        cluster = LiveCluster(SERVER_IDS, observability=obs)
        if metrics_port is not None:
            server = await cluster.serve_metrics(port=metrics_port)
            print(f"metrics on 127.0.0.1:{server.port}", flush=True)
        cluster.start_all()
        await cluster.wait_all_engine_state(EngineState.REG_PRIM, timeout=10)
        for node in SERVER_IDS:
            for i in range(2):
                cluster.submit(node, ("SET", f"pre-{node}-{i}", i))
        await cluster.wait_green(6, timeout=10)

        cluster.partition(MAJORITY, MINORITY)
        await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                            timeout=10, nodes=MAJORITY)
        await cluster.wait_all_engine_state(EngineState.NON_PRIM,
                                            timeout=10, nodes=MINORITY)
        for node in SERVER_IDS:
            for i in range(2):
                cluster.submit(node, ("SET", f"split-{node}-{i}", i))
        cluster.heal()
        await cluster.wait_green(12, timeout=15)
        if metrics_port is not None:
            await scrape_own_metrics(cluster, "cluster")
        reports = {node: ([tuple(a) for a in cluster.green_order(node)],
                          cluster.replicas[node].database.digest())
                   for node in SERVER_IDS}
        dump_traces(obs, trace_out, "cluster")
        cluster.shutdown()
        return reports

    return asyncio.run(main())


def check(reports):
    banner("verdict")
    orders = {node: report[0] for node, report in reports.items()}
    digests = {node: report[1] for node, report in reports.items()}
    if any(order == "ERROR" for order in orders.values()):
        print(f"FAIL: node error: {reports}")
        return 1
    reference = orders[SERVER_IDS[0]]
    if any(orders[n] != reference for n in SERVER_IDS[1:]):
        print(f"FAIL: green orders diverge: {orders}")
        return 1
    if len(set(digests.values())) != 1:
        print(f"FAIL: database digests diverge: {digests}")
        return 1
    print(f"OK: {len(reference)} green actions, identical order and "
          f"database digest on all {len(SERVER_IDS)} nodes")
    print(f"green order: {reference}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in-process", action="store_true",
                        help="run all replicas on one event loop with the "
                             "in-memory transport (no sockets, no forks)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics and /status per hosting "
                             "process (0 = OS-assigned ports); each node "
                             "self-scrapes and lints before reporting")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="enable distributed tracing and dump every "
                             "node's flight recorder into DIR as JSONL "
                             "(merge with repro-trace DIR)")
    args = parser.parse_args()
    if args.in_process:
        reports = run_in_process(args.metrics_port, args.trace_out)
    else:
        reports = run_multiprocess(args.metrics_port, args.trace_out)
    return check(reports)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    raise SystemExit(main())
