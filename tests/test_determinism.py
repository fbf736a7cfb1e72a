"""Determinism: identical seeds replay identical histories.

The whole reproduction rests on this — property tests shrink, bug
reports replay, and benchmark numbers are exact.  These tests run the
same nontrivial scenario twice from scratch and demand bit-identical
outcomes, then show that changing only the seed changes the fine
timing but not the invariants, and that neither the history, the
model checker's report nor the fuzzer's shrunk replay spec depends on
the interpreter's string-hash seed.
"""

import os
import subprocess
import sys

import pytest

import repro
from conftest import make_cluster


def run_scenario(seed):
    cluster = make_cluster(4, seed=seed)
    cluster.start_all(settle=1.0)
    clients = {n: cluster.client(n) for n in (1, 2, 3, 4)}
    for i in range(5):
        for client in clients.values():
            client.submit(("APPEND", "log", (client.client_id, i)))
    cluster.run_for(1.0)
    cluster.partition([1, 2], [3, 4])
    cluster.run_for(1.0)
    clients[1].submit(("SET", "left", 1))
    clients[3].submit(("SET", "right", 1))
    cluster.run_for(0.5)
    cluster.crash(2)
    cluster.run_for(0.8)
    cluster.recover(2)
    cluster.run_for(1.0)
    cluster.heal()
    cluster.run_for(3.0)
    cluster.assert_converged()
    digest = cluster.replicas[1].database.digest()
    log = list(cluster.replicas[1].database.applied_log)
    events = cluster.sim.events_processed
    now = cluster.sim.now
    completions = {n: c.completed for n, c in clients.items()}
    latencies = [round(l, 12) for c in clients.values()
                 for l in c.latencies]
    return digest, log, events, now, completions, latencies


def test_same_seed_replays_bit_identically():
    first = run_scenario(seed=123)
    second = run_scenario(seed=123)
    assert first[0] == second[0]          # database digest
    assert first[1] == second[1]          # full applied log
    assert first[2] == second[2]          # event count
    assert first[3] == second[3]          # final virtual time
    assert first[4] == second[4]          # per-client completions
    assert first[5] == second[5]          # every latency sample


def test_different_seed_same_invariants():
    base = run_scenario(seed=123)
    other = run_scenario(seed=456)
    # The jitter differs, so fine timing differs ...
    assert base[5] != other[5] or base[2] != other[2]
    # ... but the committed set is the same workload either way.
    assert sorted(map(str, base[1])) == sorted(map(str, other[1]))


def test_client_ids_do_not_leak_between_runs():
    """Global client-id counters must not change replay outcomes."""
    runs = [run_scenario(seed=7) for _ in range(2)]
    assert runs[0][0] == runs[1][0]


#: Python snippets whose output must not depend on the string-hash seed.
SCENARIO = ("from test_determinism import run_scenario; "
            "print(repr(run_scenario(seed=123)))")
MC_REPORT = (
    "import json; from repro.check.mc import ModelChecker; "
    "from repro.check.model import ModelConfig; "
    "config = ModelConfig(nodes=2, max_faults=1, max_crashes=0, "
    "max_actions=1); "
    "print(json.dumps(ModelChecker(config, max_depth=8).run().to_dict(), "
    "sort_keys=True))")
# Seed 38 is the one failing seed of the 40 injected-bug seeds CI fuzzes.
SHRUNK_SPEC = (
    "from repro.check.fuzz import FuzzCase, run_case; "
    "from repro.check.shrink import shrink; "
    "failure = run_case(FuzzCase(seed=38, quorum='both-halves')); "
    "print(shrink(failure).spec_json())")


def _run_in_subprocess(hash_seed, snippet=SCENARIO):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.abspath(__file__)),
                    os.path.dirname(os.path.dirname(repro.__file__)),
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_history_is_independent_of_the_hash_seed():
    """Set iteration order over strings varies with PYTHONHASHSEED; no
    protocol decision may depend on it."""
    assert _run_in_subprocess(1) == _run_in_subprocess(2)


@pytest.mark.parametrize("snippet, marker", [
    (MC_REPORT, '"complete": true'),
    (SHRUNK_SPEC, '"quorum": "both-halves"'),
], ids=["mc-report", "shrunk-fuzz-spec"])
def test_check_output_is_independent_of_the_hash_seed(snippet, marker):
    output = _run_in_subprocess(1, snippet)
    assert marker in output
    assert output == _run_in_subprocess(2, snippet)
