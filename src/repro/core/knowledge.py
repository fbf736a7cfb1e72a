"""ComputeKnowledge (CodeSegment A.7) and the retransmission plan.

Once all state messages of an exchange round are delivered (they arrive
in the same total order at every member), every member runs the same
deterministic computation over the same inputs:

1. adopt the maximal known primary component;
2. intersect the yellow sets of the servers that are both up-to-date
   and hold a valid yellow record;
3. resolve vulnerable records that the gathered evidence settles;
4. union the vulnerability bits — when every member of an attempt is
   accounted for, the attempt can hide no knowledge and the record is
   invalidated.

The module also plans the action retransmission: who retransmits the
green suffix, and who retransmits each creator's red tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .messages import EngineStateMsg
from .records import PrimComponent, Vulnerable, Yellow


@dataclass
class Knowledge:
    """Result of ComputeKnowledge over one exchange round."""

    prim_component: PrimComponent
    updated_group: Tuple[int, ...]
    valid_group: Tuple[int, ...]
    attempt_index: int
    yellow: Yellow
    # server -> (is_still_valid, merged_bits); covers every reporter
    # that arrived with a valid vulnerable record
    vulnerable_resolution: Dict[int, Tuple[bool, Dict[int, bool]]] = (
        field(default_factory=dict))

    def any_vulnerable(self) -> bool:
        """True if some reporter remains vulnerable after resolution
        (the IsQuorum veto, CodeSegment A.8 line 1)."""
        return any(valid for valid, _ in
                   self.vulnerable_resolution.values())


def compute_knowledge(reports: Dict[int, EngineStateMsg]) -> Knowledge:
    """Run CodeSegment A.7 over the collected state messages."""
    if not reports:
        raise ValueError("no state messages to compute knowledge from")

    # Step 1: maximal primary component and the groups around it.  The
    # tie-break over the member set makes the choice deterministic even
    # for byzantine-ish inputs where two reports share (prim_index,
    # attempt_index) but disagree on membership — impossible in a
    # correct run, where that pair identifies a unique installation.
    best_full = max((r.prim_component.key, r.prim_component.servers)
                    for r in reports.values())
    prim = next(r.prim_component for r in reports.values()
                if (r.prim_component.key,
                    r.prim_component.servers) == best_full)
    updated = tuple(sorted(
        s for s, r in reports.items()
        if (r.prim_component.key, r.prim_component.servers) == best_full))
    valid_group = tuple(s for s in updated if reports[s].yellow_valid)
    attempt_index = max(reports[s].attempt_index for s in updated)

    # Step 2: yellow = ordered intersection over the valid group.
    yellow = Yellow()
    if valid_group:
        yellow.make_valid()
        common = set(reports[valid_group[0]].yellow_ids)
        for s in valid_group[1:]:
            common &= set(reports[s].yellow_ids)
        # Keep the first valid member's order — all valid members
        # delivered these in the same transitional configuration order
        # (EVS preserves the relative order of commonly delivered
        # messages), so any member's order agrees on the intersection.
        yellow.set = [a for a in reports[valid_group[0]].yellow_ids
                      if a in common]

    # Steps 3+4: vulnerable resolution.
    resolution: Dict[int, Tuple[bool, Dict[int, bool]]] = {}
    valid_vuln = {s: r.vulnerable for s, r in reports.items()
                  if r.vulnerable.is_valid}
    still_valid: Dict[int, Vulnerable] = {}
    for s, vuln in valid_vuln.items():
        invalid = False
        if s not in prim.servers:
            invalid = True
        else:
            for member in vuln.set:
                if member not in reports:
                    continue
                other = reports[member].vulnerable
                if (not other.is_valid
                        or other.prim_index != vuln.prim_index
                        or other.attempt_index != vuln.attempt_index):
                    invalid = True
                    break
        if invalid:
            resolution[s] = (False, dict(vuln.bits))
        else:
            still_valid[s] = vuln

    # Step 4: union the bits of identical still-valid attempts, and set
    # the bit of every attempt member whose state message is part of
    # this round — its knowledge is incorporated here and now.
    by_attempt: Dict[Tuple, List[int]] = {}
    for s, vuln in still_valid.items():
        by_attempt.setdefault(vuln.attempt_key(), []).append(s)
    for attempt_key, servers in by_attempt.items():
        _, _, members = attempt_key
        union: Dict[int, bool] = {m: False for m in members}
        for s in servers:
            for m, bit in still_valid[s].bits.items():
                if bit:
                    union[m] = True
        for m in members:
            if m in reports:
                union[m] = True
        all_set = all(union.get(m, False) for m in members)
        for s in servers:
            resolution[s] = (not all_set, dict(union))

    return Knowledge(prim_component=prim, updated_group=updated,
                     valid_group=valid_group, attempt_index=attempt_index,
                     yellow=yellow, vulnerable_resolution=resolution)


@dataclass
class RetransPlan:
    """Who retransmits what during ExchangeActions.

    green_target        the longest green prefix among members
    green_start         the shortest — retransmission covers the gap
    green_holder        server retransmitting the green suffix
    red_targets[c]      highest action index of creator c known anywhere
    red_holders[c]      member holding (and retransmitting) c's red tail
    red_floor[c]        index every member already has (no need below)
    """

    green_target: int = 0
    green_start: int = 0
    green_holder: Optional[int] = None
    red_targets: Dict[int, int] = field(default_factory=dict)
    red_holders: Dict[int, int] = field(default_factory=dict)
    red_floor: Dict[int, int] = field(default_factory=dict)

    def is_noop(self) -> bool:
        return (self.green_target <= self.green_start
                and all(self.red_targets.get(c, 0) <= floor
                        for c, floor in self.red_floor.items()))


def plan_retransmission(reports: Dict[int, EngineStateMsg]
                        ) -> RetransPlan:
    """Derive the deterministic retransmission assignment."""
    plan = RetransPlan()
    plan.green_target = max(r.green_count for r in reports.values())
    plan.green_start = min(r.green_count for r in reports.values())
    holders = sorted(((r.green_count, -s) for s, r in reports.items()),
                     reverse=True)
    plan.green_holder = -holders[0][1]

    creators = set()
    for r in reports.values():
        creators.update(r.red_cut)
    for c in sorted(creators):
        cuts = [(r.red_cut.get(c, 0), -s) for s, r in reports.items()]
        top_cut, neg_holder = max(cuts)
        floor = min(cut for cut, _ in cuts)
        plan.red_targets[c] = top_cut
        plan.red_floor[c] = floor
        plan.red_holders[c] = -neg_holder
    return plan


def retransmission_complete(plan: RetransPlan, green_count: int,
                            red_cut: Dict[int, int]) -> bool:
    """Has this member received everything the plan promises?

    A creator absent from the local red cut was permanently removed
    here (its PERSISTENT_LEAVE is green locally); its red tail is dead
    and deliberately not awaited — members that still carry the
    creator catch up on the removal through the green retransmission.
    """
    if green_count < plan.green_target:
        return False
    return all(red_cut[c] >= target
               for c, target in plan.red_targets.items()
               if c in red_cut)
