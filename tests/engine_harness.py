"""Protocol-level engine harness: drive Appendix A event sequences
directly, without the group communication stack.

The harness feeds an engine exact sequences of the five event kinds
(action, state message, CPC, regular conf, transitional conf) and
captures what it multicasts.  This reaches corner states — No, Un, the
1b transition — that need precisely-timed cascaded view changes, which
the full stack only produces probabilistically.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core import (EngineConfig, ReplicationEngine)
from repro.core.messages import (EngineActionMsg, EngineCpcMsg,
                                 EngineStateMsg)
from repro.db import Action, ActionId, Database
from repro.gcs import Configuration, ServiceLevel, ViewId
from repro.sim import Simulator
from repro.storage import DiskProfile, SimulatedDisk, StableStore, \
    WriteAheadLog


class FakeChannel:
    """Stands in for GroupChannel: records multicasts, delivers events."""

    def __init__(self) -> None:
        self.message_handler = None
        self.conf_handler = None
        self.green_line_handler = None
        self.green_line = 0
        self.sent: List[Tuple[Any, ServiceLevel]] = []

    def multicast(self, payload, service=ServiceLevel.SAFE, size=200):
        self.sent.append((payload, service))

    def advertise_green_line(self, line):
        self.green_line = line

    # -- test-side delivery helpers -------------------------------------
    def deliver(self, payload, origin=0, in_transitional=False,
                service=ServiceLevel.SAFE):
        self.message_handler(payload, origin, in_transitional, service)

    def deliver_conf(self, conf: Configuration):
        self.conf_handler(conf)

    def sent_of(self, kind):
        return [p for p, _s in self.sent if isinstance(p, kind)]

    def clear(self):
        self.sent = []


class EngineHarness:
    """One engine wired to a fake channel and a real (fast) disk."""

    def __init__(self, server_id: int, servers=(1, 2, 3),
                 config: Optional[EngineConfig] = None):
        self.sim = Simulator()
        self.channel = FakeChannel()
        disk = SimulatedDisk(self.sim, server_id,
                             DiskProfile(forced_write_latency=0.0001))
        self.store = StableStore(WriteAheadLog(disk))
        self.database = Database()
        self.engine = ReplicationEngine(
            self.sim, server_id, self.channel, self.store, self.database,
            list(servers), config or EngineConfig())
        self.view_epoch = 0

    def run(self, duration: float = 0.01) -> None:
        """Let pending disk syncs and callbacks complete."""
        self.sim.run(until=self.sim.now + duration)

    # -- event builders ---------------------------------------------------
    def reg_conf(self, members) -> Configuration:
        self.view_epoch += 1
        conf = Configuration(ViewId(self.view_epoch, min(members)),
                             frozenset(members))
        self.channel.deliver_conf(conf)
        self.run()
        return conf

    def trans_conf(self, members) -> None:
        assert self.engine.conf is not None
        self.channel.deliver_conf(
            Configuration(self.engine.conf.view_id, frozenset(members),
                          transitional=True))
        self.run()

    def action(self, server, index, update=None, green_pos=None,
               in_transitional=False, green_line=0) -> Action:
        act = Action(action_id=ActionId(server, index), update=update)
        self.channel.deliver(
            EngineActionMsg(action=act, green_line=green_line,
                            green_pos=green_pos),
            origin=server, in_transitional=in_transitional)
        self.run()
        return act

    def state_msg(self, server, conf, green_count=0, red_cut=None,
                  green_lines=None, attempt_index=0, prim=None,
                  vulnerable=None, yellow_valid=False, yellow_ids=()):
        from repro.core import PrimComponent, Vulnerable
        if isinstance(prim, tuple):
            prim = PrimComponent(prim_index=prim[0],
                                 attempt_index=prim[1],
                                 servers=tuple(prim[2]))
        msg = EngineStateMsg(
            server_id=server, conf_id=conf.view_id,
            green_count=green_count, red_cut=dict(red_cut or {}),
            green_lines=dict(green_lines or {}),
            attempt_index=attempt_index,
            prim_component=prim or PrimComponent(
                servers=tuple(self.engine.queue.servers)),
            vulnerable=vulnerable or Vulnerable(),
            yellow_valid=yellow_valid, yellow_ids=tuple(yellow_ids))
        self.channel.deliver(msg, origin=server)
        self.run()
        return msg

    def own_state_msg(self, conf):
        """Echo back the engine's own generated state message."""
        pending = self.channel.sent_of(EngineStateMsg)
        assert pending, "engine has not generated a state message"
        msg = pending[-1]
        self.channel.deliver(msg, origin=self.engine.server_id)
        self.run()
        return msg

    def cpc(self, server, conf, in_transitional=False):
        self.channel.deliver(EngineCpcMsg(server, conf.view_id),
                             origin=server,
                             in_transitional=in_transitional)
        self.run()

    def own_cpc(self, conf, in_transitional=False):
        pending = self.channel.sent_of(EngineCpcMsg)
        assert pending, "engine has not generated a CPC"
        self.channel.deliver(pending[-1],
                             origin=self.engine.server_id,
                             in_transitional=in_transitional)
        self.run()
