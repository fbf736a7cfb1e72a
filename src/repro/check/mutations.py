"""Known-bug mutations for the checker self-test and fuzz injection.

Each model-checker mutation puts one fixed liveness bug back into the
real engine code the checker rebuilds its reactions from, for the
duration of one run; against it the checker must report the wedge:

* ``exact-half-tie`` — ``EngineConfig.quorum`` becomes
  :class:`TielessLinearVoting`: an exact half of the last primary no
  longer wins, so a 50/50 split can leave both sides without a quorum
  forever (the wedge the ``min(prim)`` tie breaker fixed).
* ``cpc-drop`` — ``ReplicationEngine._on_cpc`` drops votes arriving in
  ExchangeStates/ExchangeActions instead of buffering them, so a member
  whose exchange lags sits in Construct forever (the wedge buffering
  early votes in ``_cpc_received`` fixed).

:class:`BothHalvesQuorum` is the fuzz-side injectable bug: both halves
of an exact split win, driving the real simulator into divergence so
the fuzzer and shrinker have a genuine safety failure to minimize.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterable, Iterator, Tuple

from ..core.engine import ReplicationEngine
from ..core.messages import EngineCpcMsg
from ..core.quorum import DynamicLinearVoting, QuorumPolicy
from ..core.state_machine import EngineState
from .model import Model

#: mutation name -> the wedge rule the checker must report against it.
MUTATIONS: Dict[str, str] = {
    "exact-half-tie": "quorum-wedge",
    "cpc-drop": "construct-stuck",
}


class TielessLinearVoting(DynamicLinearVoting):
    """Dynamic linear voting whose exact halves never win: the policy
    before the distinguished-member tie breaker."""

    def is_quorum(self, connected: Iterable[int],
                  last_prim_servers: Tuple[int, ...],
                  all_servers: Iterable[int]) -> bool:
        prim = set(last_prim_servers) or set(all_servers)
        present = len(prim & set(connected))
        if present * 2 == len(prim):
            return False
        return super().is_quorum(connected, last_prim_servers,
                                 all_servers)

    def describe(self) -> str:
        return "tieless-linear-voting (injected bug)"


@contextmanager
def mutation(name: str, model: Model) -> Iterator[None]:
    """Run the block with the named mutant in the engine ``model``
    rebuilds its reactions from; on exit the real code is back and the
    reactions computed by the mutant are forgotten."""
    if name not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; "
            f"known: {', '.join(sorted(MUTATIONS))}")
    config = model.engine_config
    on_cpc = ReplicationEngine._on_cpc
    model._reactions.clear()
    if name == "exact-half-tie":
        model.engine_config = replace(config,
                                      quorum=TielessLinearVoting())
    else:
        def dropping_early_votes(engine: ReplicationEngine,
                                 msg: EngineCpcMsg) -> None:
            if engine.state not in (EngineState.EXCHANGE_STATES,
                                    EngineState.EXCHANGE_ACTIONS):
                on_cpc(engine, msg)
        ReplicationEngine._on_cpc = (  # type: ignore[method-assign]
            dropping_early_votes)
    try:
        yield
    finally:
        model.engine_config = config
        ReplicationEngine._on_cpc = on_cpc  # type: ignore[method-assign]
        model._reactions.clear()


class BothHalvesQuorum(QuorumPolicy):
    """Deliberately broken policy: on an exact-half split of the last
    primary, *both* halves win.  Used only to inject a reproducible
    safety bug into the real simulator for fuzzer/shrinker tests."""

    def __init__(self) -> None:
        self._fixed = DynamicLinearVoting()

    def is_quorum(self, connected: Iterable[int],
                  last_prim_servers: Tuple[int, ...],
                  all_servers: Iterable[int]) -> bool:
        reference = (set(last_prim_servers) if last_prim_servers
                     else set(all_servers))
        present = set(connected) & reference
        if reference and 2 * len(present) == len(reference):
            return True  # the bug: no tie breaker, everyone wins
        return self._fixed.is_quorum(connected, last_prim_servers,
                                     all_servers)

    def describe(self) -> str:
        return "both-halves-quorum (injected bug)"
