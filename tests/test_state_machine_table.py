"""Exhaustive check of the declared Figure-4 machine.

Every (state, input) pair is asserted against a hand-written copy of
the paper's Figure 4, so a drive-by edit to the declarative table in
``core/state_machine.py`` fails here with the exact cell named.
"""

import pytest

from repro.core.state_machine import (EDGES_BY_INPUT, EngineInput,
                                      EngineState, IllegalTransition,
                                      check_transition)

S = EngineState
I = EngineInput

#: Figure 4, cell by cell: (state, input) -> set of *new* states the
#: input may move to (the state itself is always additionally allowed —
#: any input may be a no-op).
FIGURE_4 = {
    (S.NON_PRIM, I.ACTION): set(),
    (S.NON_PRIM, I.REG_CONF): {S.EXCHANGE_STATES},
    (S.NON_PRIM, I.TRANS_CONF): set(),
    (S.NON_PRIM, I.STATE_MSG): set(),
    (S.NON_PRIM, I.CPC_MSG): set(),
    (S.NON_PRIM, I.CLIENT): set(),

    (S.REG_PRIM, I.ACTION): set(),
    # Extended virtual synchrony: a regular conf is always preceded by
    # a transitional conf, so RegPrim never sees reg_conf directly.
    (S.REG_PRIM, I.REG_CONF): set(),
    (S.REG_PRIM, I.TRANS_CONF): {S.TRANS_PRIM},
    (S.REG_PRIM, I.STATE_MSG): set(),
    (S.REG_PRIM, I.CPC_MSG): set(),
    (S.REG_PRIM, I.CLIENT): set(),

    (S.TRANS_PRIM, I.ACTION): set(),
    (S.TRANS_PRIM, I.REG_CONF): {S.EXCHANGE_STATES},
    (S.TRANS_PRIM, I.TRANS_CONF): set(),
    (S.TRANS_PRIM, I.STATE_MSG): set(),
    (S.TRANS_PRIM, I.CPC_MSG): set(),
    (S.TRANS_PRIM, I.CLIENT): set(),

    (S.EXCHANGE_STATES, I.ACTION): set(),
    (S.EXCHANGE_STATES, I.REG_CONF): set(),
    (S.EXCHANGE_STATES, I.TRANS_CONF): {S.NON_PRIM},
    (S.EXCHANGE_STATES, I.STATE_MSG): {S.EXCHANGE_ACTIONS},
    (S.EXCHANGE_STATES, I.CPC_MSG): set(),
    (S.EXCHANGE_STATES, I.CLIENT): set(),

    # A retransmitted action (or the last state message, when the plan
    # is already satisfied) ends the exchange either into Construct or,
    # lacking quorum, into NonPrim.
    (S.EXCHANGE_ACTIONS, I.ACTION): {S.CONSTRUCT, S.NON_PRIM},
    (S.EXCHANGE_ACTIONS, I.REG_CONF): {S.EXCHANGE_STATES},
    (S.EXCHANGE_ACTIONS, I.TRANS_CONF): {S.NON_PRIM},
    (S.EXCHANGE_ACTIONS, I.STATE_MSG): {S.CONSTRUCT, S.NON_PRIM},
    (S.EXCHANGE_ACTIONS, I.CPC_MSG): set(),
    (S.EXCHANGE_ACTIONS, I.CLIENT): set(),

    (S.CONSTRUCT, I.ACTION): set(),
    (S.CONSTRUCT, I.REG_CONF): {S.EXCHANGE_STATES},
    # Transition 4b of the paper: trans conf in Construct moves to No.
    (S.CONSTRUCT, I.TRANS_CONF): {S.NO},
    (S.CONSTRUCT, I.STATE_MSG): set(),
    (S.CONSTRUCT, I.CPC_MSG): {S.REG_PRIM},
    (S.CONSTRUCT, I.CLIENT): set(),

    (S.NO, I.ACTION): set(),
    (S.NO, I.REG_CONF): {S.EXCHANGE_STATES},
    (S.NO, I.TRANS_CONF): set(),
    (S.NO, I.STATE_MSG): set(),
    # Transition 2b: a CPC arriving in No proves the attempt went
    # through somewhere — the outcome is now unknown (Un).
    (S.NO, I.CPC_MSG): {S.UN},
    (S.NO, I.CLIENT): set(),

    (S.UN, I.ACTION): {S.TRANS_PRIM},
    (S.UN, I.REG_CONF): {S.EXCHANGE_STATES},
    (S.UN, I.TRANS_CONF): set(),
    (S.UN, I.STATE_MSG): set(),
    (S.UN, I.CPC_MSG): set(),
    (S.UN, I.CLIENT): set(),
}


def test_figure_4_is_total():
    assert set(FIGURE_4) == {(s, i) for s in S for i in I}


@pytest.mark.parametrize("state", list(S), ids=lambda s: s.name)
@pytest.mark.parametrize("event", list(I), ids=lambda i: i.name)
def test_every_cell_matches_figure_4(state, event):
    """``check_transition`` admits a move exactly when Figure 4 lets
    that input take that state there (or leave it where it is)."""
    allowed = FIGURE_4[(state, event)] | {state}
    for new in S:
        if new in allowed:
            check_transition(event, state, new)
        else:
            with pytest.raises(IllegalTransition):
                check_transition(event, state, new)


def test_edges_by_input_matches_figure_4():
    for event in I:
        expected = {(s, new) for s in S
                    for new in FIGURE_4[(s, event)]}
        assert EDGES_BY_INPUT[event] == expected, event


def test_no_to_un_and_construct_to_no_edges_present():
    # The two easy-to-forget edges of the primary-component attempt.
    check_transition(I.CPC_MSG, S.NO, S.UN)
    check_transition(I.TRANS_CONF, S.CONSTRUCT, S.NO)
