"""Engine states and the legal transition table (Figure 4).

The table is declared *per input*: for each of the five event kinds the
engine reacts to (plus client requests), :data:`EDGES_BY_INPUT` lists
the Figure-4 edges that event may trigger.  One function checks moves
against it: :func:`check_transition`, called by the engine's
``ReplicationEngine._set_state`` — which is also every move the model
checker (``repro.check``) explores, since it runs the engine's own
reactions — so a protocol bug surfaces as an immediate error instead
of silent divergence.

``tests/test_state_machine_table.py`` checks every cell of the table
against a hand-written copy of Figure 4, and
``tests/test_engine_edge_coverage.py`` drives the real engine through
every live edge.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Tuple


class EngineState(Enum):
    """The eight states of the replication algorithm (Figure 4)."""

    NON_PRIM = "NonPrim"
    REG_PRIM = "RegPrim"
    TRANS_PRIM = "TransPrim"
    EXCHANGE_STATES = "ExchangeStates"
    EXCHANGE_ACTIONS = "ExchangeActions"
    CONSTRUCT = "Construct"
    NO = "No"
    UN = "Un"

    def __str__(self) -> str:
        return self.value


class EngineInput(Enum):
    """The six input kinds driving the Figure-4 machine."""

    ACTION = "action"            # action message delivered by the GCS
    REG_CONF = "reg_conf"        # regular configuration notification
    TRANS_CONF = "trans_conf"    # transitional configuration
    STATE_MSG = "state_msg"      # exchange state message
    CPC_MSG = "cpc_msg"          # create-primary-component vote
    CLIENT = "client"            # client request submitted locally

    def __str__(self) -> str:
        return self.value


_S = EngineState
Edge = Tuple[EngineState, EngineState]

#: input -> the Figure-4 edges that input may trigger.  Self-loops are
#: implicit (any input may leave the state unchanged) and not listed.
EDGES_BY_INPUT: Dict[EngineInput, FrozenSet[Edge]] = {
    # An action in Un proves somebody installed the attempted primary
    # (transition 1b); a retransmitted action in ExchangeActions may
    # complete the retransmission plan and end the exchange either way.
    EngineInput.ACTION: frozenset({
        (_S.UN, _S.TRANS_PRIM),
        (_S.EXCHANGE_ACTIONS, _S.CONSTRUCT),
        (_S.EXCHANGE_ACTIONS, _S.NON_PRIM),
    }),
    # A regular configuration starts a new state exchange from every
    # state except RegPrim: extended virtual synchrony delivers a
    # transitional configuration first, so a regular configuration can
    # never arrive while still in RegPrim.
    EngineInput.REG_CONF: frozenset({
        (_S.NON_PRIM, _S.EXCHANGE_STATES),
        (_S.TRANS_PRIM, _S.EXCHANGE_STATES),
        (_S.EXCHANGE_ACTIONS, _S.EXCHANGE_STATES),
        (_S.CONSTRUCT, _S.EXCHANGE_STATES),
        (_S.NO, _S.EXCHANGE_STATES),
        (_S.UN, _S.EXCHANGE_STATES),
    }),
    EngineInput.TRANS_CONF: frozenset({
        (_S.REG_PRIM, _S.TRANS_PRIM),
        (_S.EXCHANGE_STATES, _S.NON_PRIM),
        (_S.EXCHANGE_ACTIONS, _S.NON_PRIM),
        (_S.CONSTRUCT, _S.NO),
    }),
    # The last state message moves to ExchangeActions; when the
    # retransmission plan is already satisfied locally, the same
    # delivery continues straight to Construct or NonPrim.
    EngineInput.STATE_MSG: frozenset({
        (_S.EXCHANGE_STATES, _S.EXCHANGE_ACTIONS),
        (_S.EXCHANGE_ACTIONS, _S.CONSTRUCT),
        (_S.EXCHANGE_ACTIONS, _S.NON_PRIM),
    }),
    EngineInput.CPC_MSG: frozenset({
        (_S.CONSTRUCT, _S.REG_PRIM),
        (_S.NO, _S.UN),
    }),
    # Client requests never move the machine: they are generated
    # immediately (RegPrim/NonPrim) or buffered (everywhere else).
    EngineInput.CLIENT: frozenset(),
}

#: Declared edges that extended virtual synchrony makes dynamically
#: unreachable.  The GCS daemon always delivers a transitional
#: configuration before the regular one (``_install_view``), and the
#: transitional configuration moves ExchangeStates/ExchangeActions to
#: NonPrim and Construct to No — so by the time the regular
#: configuration reaches the engine, it can only be in NonPrim,
#: TransPrim, No, or Un.  The two edges below stay in the table
#: because ``_on_reg_conf`` shifts to the exchange from any state, so
#: the per-input check must admit them; the edge-coverage test and the
#: model checker (``repro.check``) both show that no execution ever
#: takes them.
EVS_SHADOWED_EDGES: FrozenSet[Tuple[EngineInput, EngineState,
                                    EngineState]] = frozenset({
    (EngineInput.REG_CONF, _S.EXCHANGE_ACTIONS, _S.EXCHANGE_STATES),
    (EngineInput.REG_CONF, _S.CONSTRUCT, _S.EXCHANGE_STATES),
})


class IllegalTransition(Exception):
    """The engine attempted a transition not in Figure 4."""


def check_transition(event: EngineInput, old: EngineState,
                     new: EngineState) -> None:
    """Raise :class:`IllegalTransition` unless ``event`` may move the
    engine from ``old`` to ``new``."""
    if old is not new and (old, new) not in EDGES_BY_INPUT[event]:
        raise IllegalTransition(f"{event}: {old} -> {new}")
