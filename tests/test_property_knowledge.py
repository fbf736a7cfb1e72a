"""Property-based tests of ComputeKnowledge (A.7).

Whatever the collection of state messages, the computation must be
deterministic, symmetric (every member computes the same result), and
conservative about vulnerability.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import (EngineStateMsg, PrimComponent, Vulnerable,
                        compute_knowledge, plan_retransmission)
from repro.db import ActionId
from repro.gcs import ViewId

SERVERS = [1, 2, 3, 4, 5]

action_ids = st.tuples(st.sampled_from([6, 7, 8]),
                       st.integers(1, 4)).map(lambda t: ActionId(*t))

prim_components = st.builds(
    PrimComponent,
    prim_index=st.integers(0, 3),
    attempt_index=st.integers(0, 3),
    servers=st.sets(st.sampled_from(SERVERS), min_size=1).map(
        lambda s: tuple(sorted(s))))


@st.composite
def vulnerables(draw):
    record = Vulnerable()
    if draw(st.booleans()):
        members = tuple(sorted(draw(st.sets(st.sampled_from(SERVERS),
                                            min_size=1, max_size=3))))
        record.make_valid(draw(st.integers(0, 2)),
                          draw(st.integers(0, 2)), members,
                          self_id=members[0])
        for member in members:
            if draw(st.booleans()):
                record.bits[member] = True
    return record


@st.composite
def reports(draw):
    servers = sorted(draw(st.sets(st.sampled_from(SERVERS), min_size=1,
                                  max_size=4)))
    out = {}
    for server in servers:
        yellow_valid = draw(st.booleans())
        out[server] = EngineStateMsg(
            server_id=server, conf_id=ViewId(1, servers[0]),
            green_count=draw(st.integers(0, 10)),
            red_cut={c: draw(st.integers(0, 5)) for c in SERVERS},
            green_lines={},
            attempt_index=draw(st.integers(0, 3)),
            prim_component=draw(prim_components),
            vulnerable=draw(vulnerables()),
            yellow_valid=yellow_valid,
            yellow_ids=tuple(draw(st.lists(action_ids, max_size=4,
                                           unique=True)))
            if yellow_valid else ())
    return out


@settings(max_examples=120, deadline=None)
@given(reports())
def test_knowledge_is_deterministic_and_symmetric(state_msgs):
    a = compute_knowledge(state_msgs)
    b = compute_knowledge(dict(reversed(list(state_msgs.items()))))
    assert a.prim_component.key == b.prim_component.key
    assert a.updated_group == b.updated_group
    assert a.yellow.status == b.yellow.status
    assert a.yellow.set == b.yellow.set
    assert a.vulnerable_resolution.keys() == b.vulnerable_resolution.keys()
    for server in a.vulnerable_resolution:
        assert a.vulnerable_resolution[server][0] == \
            b.vulnerable_resolution[server][0]


@settings(max_examples=120, deadline=None)
@given(reports())
def test_knowledge_invariants(state_msgs):
    knowledge = compute_knowledge(state_msgs)
    best = max((r.prim_component.key, r.prim_component.servers)
               for r in state_msgs.values())
    # The adopted prim component is the maximal reported one (member
    # set breaks adversarial ties deterministically).
    assert (knowledge.prim_component.key,
            knowledge.prim_component.servers) == best
    # updated_group is exactly the reporters of that component.
    assert set(knowledge.updated_group) == {
        s for s, r in state_msgs.items()
        if (r.prim_component.key, r.prim_component.servers) == best}
    # valid_group within updated_group; yellow valid iff it's nonempty.
    assert set(knowledge.valid_group) <= set(knowledge.updated_group)
    assert knowledge.yellow.is_valid == bool(knowledge.valid_group)
    # Yellow is the intersection of the valid group's sets, in a valid
    # member's order.
    if knowledge.yellow.is_valid:
        for server in knowledge.valid_group:
            assert set(knowledge.yellow.set) <= \
                set(state_msgs[server].yellow_ids)
    # Resolution covers exactly the reporters that arrived vulnerable.
    assert set(knowledge.vulnerable_resolution) == {
        s for s, r in state_msgs.items() if r.vulnerable.is_valid}


def _vulnerable(prim_index, attempt_index, members, set_bits):
    record = Vulnerable()
    record.make_valid(prim_index, attempt_index, members,
                      self_id=members[0])
    for member in set_bits:
        record.bits[member] = True
    return record


def _report(server, prim_servers, vulnerable, yellow_valid):
    return EngineStateMsg(
        server_id=server, conf_id=ViewId(1, 1), green_count=0,
        red_cut={c: 0 for c in SERVERS}, green_lines={}, attempt_index=0,
        prim_component=PrimComponent(prim_index=0, attempt_index=0,
                                     servers=prim_servers),
        vulnerable=vulnerable, yellow_valid=yellow_valid, yellow_ids=())


@settings(max_examples=120, deadline=None)
@given(reports())
# Two prim members report the same attempt, whose other members are all
# absent; one of them holds the bits the other lacks, so the union
# resolves the attempt for both.
@example({
    1: _report(1, (1,), _vulnerable(0, 2, (3, 4, 5), (3, 4)), True),
    5: _report(5, (1, 5), _vulnerable(0, 2, (3, 4, 5), (3,)), False),
})
def test_vulnerability_resolution_is_conservative(state_msgs):
    """A record may only be resolved (invalidated) when the evidence
    licenses it: a mismatched/absent... — concretely, if every member
    of the attempt is absent from the round and the reporter is in the
    maximal prim component, the record must STAY valid unless the bits
    reported for that attempt by the prim members of the round cover
    it (otherwise nothing was learned about the attempt)."""
    knowledge = compute_knowledge(state_msgs)
    prim_servers = set(knowledge.prim_component.servers)
    for server, (valid, bits) in knowledge.vulnerable_resolution.items():
        vuln = state_msgs[server].vulnerable
        others = [m for m in vuln.set if m != server]
        all_absent = all(m not in state_msgs for m in others)
        # Step 4 unions the bits of every prim member that reports a
        # valid record of this same attempt.
        reported_bits = {
            m for s, r in state_msgs.items()
            if s in prim_servers and r.vulnerable.is_valid
            and r.vulnerable.attempt_key() == vuln.attempt_key()
            for m, bit in r.vulnerable.bits.items() if bit}
        unresolved_bits = not all(
            m in reported_bits or m == server or m in state_msgs
            for m in vuln.set)
        if (server in prim_servers and others and all_absent
                and unresolved_bits):
            assert valid, (
                f"{server} resolved its vulnerability with no evidence")


@settings(max_examples=100, deadline=None)
@given(reports())
def test_retransmission_plan_covers_all_knowledge(state_msgs):
    plan = plan_retransmission(state_msgs)
    greens = [r.green_count for r in state_msgs.values()]
    assert plan.green_target == max(greens)
    assert plan.green_start == min(greens)
    assert plan.green_holder in state_msgs
    assert state_msgs[plan.green_holder].green_count == plan.green_target
    for creator, target in plan.red_targets.items():
        holder = plan.red_holders[creator]
        assert state_msgs[holder].red_cut.get(creator, 0) == target
        assert plan.red_floor[creator] <= target
