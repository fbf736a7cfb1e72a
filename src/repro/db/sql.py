"""Mini statement language for actions.

The replication engine treats actions as opaque, but the examples,
tests, and semantics layer need a concrete deterministic database
language.  Statements are plain tuples:

    ("SET", key, value)              write
    ("GET", key)                     read (query part)
    ("INC", key, delta)              numeric add, default-0 start
    ("DEL", key)                     delete
    ("APPEND", key, item)            append to a list value
    ("CAS", key, expected, value)    compare-and-set; applies only if the
                                     current value equals ``expected``
    ("CALL", name, args)             invoke a registered deterministic
                                     procedure (active actions, Sec. 6)

A *procedure* receives the mutable state dict and ``args`` and must be
deterministic in (state, args).  Registration is global per database
instance (see :class:`repro.db.database.Database`).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

Statement = Tuple
Procedure = Callable[[Dict[str, Any], Any], Any]


class StatementError(Exception):
    """Raised for malformed statements or unknown procedures."""


def execute_statement(state: Dict[str, Any], statement: Statement,
                      procedures: Optional[Dict[str, Procedure]] = None
                      ) -> Any:
    """Apply one statement to ``state``; return its result."""
    if not statement:
        raise StatementError("empty statement")
    op = statement[0]
    if op == "SET":
        _, key, value = statement
        state[key] = value
        return value
    if op == "GET":
        _, key = statement
        return state.get(key)
    if op == "INC":
        _, key, delta = statement
        current = state.get(key, 0)
        if isinstance(current, bool) or not isinstance(current,
                                                       (int, float)):
            raise StatementError(f"INC target {key!r} is not numeric")
        state[key] = current + delta
        return state[key]
    if op == "DEL":
        _, key = statement
        return state.pop(key, None)
    if op == "APPEND":
        _, key, item = statement
        bucket = state.setdefault(key, [])
        if not isinstance(bucket, list):
            raise StatementError(f"APPEND target {key!r} is not a list")
        bucket.append(item)
        return list(bucket)
    if op == "CAS":
        _, key, expected, value = statement
        if state.get(key) == expected:
            state[key] = value
            return True
        return False
    if op == "CALL":
        _, name, args = statement
        procedures = procedures or {}
        if name not in procedures:
            raise StatementError(f"unknown procedure {name!r}")
        return procedures[name](state, args)
    raise StatementError(f"unknown statement op {op!r}")


def execute_update(state: Dict[str, Any], update: Tuple,
                   procedures: Optional[Dict[str, Procedure]] = None
                   ) -> List[Any]:
    """Apply an update part: a single statement or a tuple of statements.

    Returns the list of per-statement results.
    """
    if update and isinstance(update[0], str):
        return [execute_statement(state, update, procedures)]
    return [execute_statement(state, stmt, procedures) for stmt in update]


def execute_query(state: Dict[str, Any], query: Tuple,
                  procedures: Optional[Dict[str, Procedure]] = None
                  ) -> Any:
    """Evaluate a query part without changing ``state``.

    A lone ``GET`` reads in place.  Anything else runs against a deep
    copy: a buggy "query" or a procedure that writes must not reach the
    replicated state, nor any list or dict nested inside it.
    """
    if query and isinstance(query[0], str):
        if query[0] == "GET":
            return execute_statement(state, query, procedures)
        return execute_statement(copy.deepcopy(state), query, procedures)
    view = copy.deepcopy(state)
    return [execute_statement(view, q, procedures) for q in query]
