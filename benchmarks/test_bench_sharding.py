"""Experiment E12 — shard-fabric write scaling and cross-shard
transactions under partition (beyond the paper).

Weak scaling: a fixed open-loop burst *per shard*, 3 replicas per
shard, all shards loaded at once on one fabric.  The groups share
nothing but the virtual clock (own GCS group, own quorum, own WALs), so
aggregate green actions per simulated second must grow linearly with
the shard count.  The drain time is taken from the green-completion
callbacks, so its resolution is exact simulated time.

Then the exception: cross-shard transactions on a 2-shard fabric.
Healthy pairs all commit; once shard 1 is cut into quorum-less
singletons, every transaction touching it aborts on the coordinator's
prepare timeout (decided in shard 0's total order), and after the heal
nothing may stay staged.
"""

from bench_common import write_report
from repro.gcs import GcsSettings
from repro.shard import ShardFabric, shard_server_ids
from repro.storage import DiskProfile

SHARD_SWEEP = [1, 2, 4]
PER_SHARD = 600
HEALTHY_TXNS = 40
CUT_TXNS = 20

_GCS = GcsSettings(heartbeat_interval=0.02, failure_timeout=0.08,
                   gather_settle=0.02, phase_timeout=0.15)


def _fabric(num_shards, **kwargs):
    fabric = ShardFabric(
        num_shards=num_shards, replicas_per_shard=3, seed=0,
        gcs_settings=_GCS,
        disk_profile=DiskProfile(forced_write_latency=0.001), **kwargs)
    fabric.start_all(settle=1.5)
    return fabric


def shard_burst(num_shards):
    """Aggregate green actions per simulated second of one burst."""
    fabric = _fabric(num_shards)
    bases = {s: fabric.green_count(s) for s in range(num_shards)}
    load_start = fabric.sim.now
    last_green = [load_start]

    def mark(_action, _pos, _result):
        last_green[0] = fabric.sim.now

    for s in range(num_shards):
        for _ in range(PER_SHARD):
            fabric.submit_local(s, ("INC", f"n{s}", 1), mark)
    deadline = fabric.sim.now + 120.0
    while any(fabric.green_count(s) - bases[s] < PER_SHARD
              for s in range(num_shards)):
        assert fabric.sim.now < deadline, \
            f"sharding burst stalled at {num_shards} shards"
        fabric.run_for(0.25)
    fabric.assert_converged()
    return round(num_shards * PER_SHARD / (last_green[0] - load_start), 1)


def cross_shard_txns():
    """(healthy commits, commits, aborts, staged after the heal)."""
    fabric = _fabric(2, prepare_timeout=2.0)
    # Deterministic cross-shard pairs: probe keys until each shard owns
    # enough of them.
    keys = {0: [], 1: []}
    probe = 0
    while min(len(keys[0]), len(keys[1])) < HEALTHY_TXNS + CUT_TXNS:
        key = f"t{probe}"
        keys[fabric.router.shard_for_key(key)].append(key)
        probe += 1
    outcomes = {"commit": 0, "abort": 0}

    def done(_txn_id, outcome):
        outcomes[outcome] += 1

    def submit(j):
        fabric.submit([["SET", keys[0][j], j], ["SET", keys[1][j], j]],
                      done)

    for j in range(HEALTHY_TXNS):
        submit(j)
    fabric.run_for(10.0)
    healthy_commits = outcomes["commit"]
    # Fragment shard 1 below quorum (its replicas become singletons;
    # shard 0 is the auto-completed remainder and keeps its primary).
    nodes1 = shard_server_ids(1, 3)
    fabric.partition([nodes1[0]], [nodes1[1]], [nodes1[2]])
    fabric.run_for(1.0)
    for j in range(HEALTHY_TXNS, HEALTHY_TXNS + CUT_TXNS):
        submit(j)
    # Past the prepare timeout every cut transaction is decided (abort)
    # in shard 0; the finish records for shard 1 drain after the heal,
    # which is when on_done fires.
    fabric.run_for(8.0)
    fabric.heal()
    fabric.run_for(10.0)
    fabric.assert_converged()
    return (healthy_commits, outcomes["commit"], outcomes["abort"],
            sorted(fabric.staged()))


def run_e12():
    rates = {n: shard_burst(n) for n in SHARD_SWEEP}
    return rates, cross_shard_txns()


def check_shape(rates, txns):
    # Weak scaling is linear: the shards share nothing but the clock.
    for n in SHARD_SWEEP:
        assert rates[n] >= 0.99 * n * rates[1], rates
    healthy_commits, commits, aborts, staged = txns
    assert healthy_commits == commits == HEALTHY_TXNS
    # Shard 1 had no quorum: every transaction touching it aborted.
    assert aborts == CUT_TXNS
    assert staged == []


def test_sharding_scaling_and_cross_shard_txns(benchmark):
    rates, txns = benchmark.pedantic(run_e12, rounds=1, iterations=1)
    check_shape(rates, txns)
    _healthy, commits, aborts, _staged = txns
    header = f"{'shards':>6} {'greens/sim-s':>12} {'speedup':>8}"
    lines = [
        f"E12: shard-fabric weak scaling ({PER_SHARD} open-loop actions "
        f"per shard, 3 replicas per shard)",
        "",
        header,
        "-" * len(header),
    ]
    for n in SHARD_SWEEP:
        lines.append(f"{n:>6} {rates[n]:>12} "
                     f"{rates[n] / rates[1]:>7.1f}x")
    lines += [
        "",
        f"cross-shard transactions on 2 shards: {commits} committed "
        f"healthy, {aborts} of {CUT_TXNS} aborted with shard 1 "
        f"partitioned below quorum; nothing staged after the heal.",
    ]
    write_report("sharding", lines)
