"""Unit tests for the database substrate."""

import json

import pytest

from repro.db import (Action, ActionId, ActionType, Database, DirtyView,
                      SnapshotReceiver, SnapshotSender, StatementError,
                      execute_query, execute_statement, execute_update,
                      join_action, leave_action)


def make_action(server=1, index=1, update=None, query=None):
    return Action(action_id=ActionId(server, index), update=update,
                  query=query)


class TestStatements:
    def test_set_get(self):
        state = {}
        assert execute_statement(state, ("SET", "k", 5)) == 5
        assert execute_statement(state, ("GET", "k")) == 5

    def test_get_missing_is_none(self):
        assert execute_statement({}, ("GET", "nope")) is None

    def test_inc_defaults_to_zero(self):
        state = {}
        assert execute_statement(state, ("INC", "n", 3)) == 3
        assert execute_statement(state, ("INC", "n", -5)) == -2

    def test_del(self):
        state = {"k": 1}
        assert execute_statement(state, ("DEL", "k")) == 1
        assert "k" not in state
        assert execute_statement(state, ("DEL", "k")) is None

    def test_append(self):
        state = {}
        execute_statement(state, ("APPEND", "l", "a"))
        assert execute_statement(state, ("APPEND", "l", "b")) == ["a", "b"]

    def test_append_type_error(self):
        with pytest.raises(StatementError):
            execute_statement({"l": 5}, ("APPEND", "l", "x"))

    def test_cas_success_and_failure(self):
        state = {"k": 1}
        assert execute_statement(state, ("CAS", "k", 1, 2)) is True
        assert state["k"] == 2
        assert execute_statement(state, ("CAS", "k", 1, 3)) is False
        assert state["k"] == 2

    def test_call_procedure(self):
        def double(state, args):
            state[args] = state.get(args, 0) * 2
            return state[args]
        state = {"x": 4}
        result = execute_statement(state, ("CALL", "double", "x"),
                                   {"double": double})
        assert result == 8

    def test_call_unknown_procedure(self):
        with pytest.raises(StatementError):
            execute_statement({}, ("CALL", "nope", ()))

    def test_unknown_op(self):
        with pytest.raises(StatementError):
            execute_statement({}, ("FROB", "k"))

    def test_empty_statement(self):
        with pytest.raises(StatementError):
            execute_statement({}, ())

    def test_execute_update_multi(self):
        state = {}
        results = execute_update(state, (("SET", "a", 1), ("INC", "a", 2)))
        assert results == [1, 3]

    def test_execute_update_single(self):
        state = {}
        assert execute_update(state, ("SET", "a", 1)) == [1]

    def test_query_does_not_mutate(self):
        def grab(state, _args):
            state["m"]["seen"] = True
            state["l"].append("call")
            return len(state["l"])

        state = {"k": 1, "l": ["a"], "m": {"n": [1]}}
        procedures = {"grab": grab}
        execute_query(state, ("SET", "k", 99))
        assert execute_query(state, ("APPEND", "l", "q")) == ["a", "q"]
        assert execute_query(state, (("APPEND", "l", "x"),
                                     ("CALL", "grab", None)),
                             procedures) == [["a", "x"], 3]
        assert execute_query(state, ("CALL", "grab", None), procedures) == 2
        assert state == {"k": 1, "l": ["a"], "m": {"n": [1]}}

    def test_lone_get_reads_in_place(self):
        state = {"l": ["a"]}
        assert execute_query(state, ("GET", "l")) is state["l"]


class TestDatabase:
    def test_apply_updates_and_logs(self):
        db = Database()
        action = make_action(update=("SET", "k", 1))
        result = db.apply(action)
        assert result == [1]
        assert db.state == {"k": 1}
        assert db.applied_count == 1
        assert db.applied_log == [action.action_id]
        assert db.applied_cut == {1: 1}

    def test_apply_join_leave_take_slots_without_state_change(self):
        db = Database()
        db.apply(join_action(ActionId(1, 1), 9))
        db.apply(leave_action(ActionId(1, 2), 9))
        assert db.state == {}
        assert db.applied_count == 2

    def test_query(self):
        db = Database()
        db.apply(make_action(update=("SET", "k", "v")))
        assert db.query(("GET", "k")) == "v"

    def test_snapshot_restore_roundtrip(self):
        db = Database()
        for i in range(5):
            db.apply(make_action(index=i + 1,
                                 update=("SET", f"k{i}", i)))
        other = Database()
        other.restore(db.snapshot())
        assert other.state == db.state
        assert other.applied_log == db.applied_log
        assert other.digest() == db.digest()

    def test_snapshot_is_decoupled(self):
        db = Database()
        db.apply(make_action(update=("SET", "k", [1])))
        snap = db.snapshot()
        db.apply(make_action(index=2, update=("APPEND", "k", 2)))
        # Serialized, as a disk would hold it: one string, not a graph.
        assert json.loads(snap["state"]) == {"k": [1]}

    def test_digest_differs_on_content(self):
        a, b = Database(), Database()
        a.apply(make_action(update=("SET", "k", 1)))
        b.apply(make_action(update=("SET", "k", 2)))
        assert a.digest() != b.digest()

    def test_procedures_registry(self):
        db = Database()
        db.register_procedure("noop", lambda s, a: "ok")
        action = make_action(update=("CALL", "noop", None))
        assert db.apply(action) == ["ok"]


class TestDirtyView:
    def test_dirty_query_includes_pending(self):
        db = Database()
        db.apply(make_action(update=("SET", "k", "green")))
        view = DirtyView(db)
        pending = [make_action(server=2, update=("SET", "k", "red"))]
        assert view.query(("GET", "k"), pending) == "red"
        assert db.state["k"] == "green"

    def test_dirty_query_incremental_suffix(self):
        db = Database()
        view = DirtyView(db)
        pending = [make_action(server=2, index=1, update=("INC", "n", 1))]
        assert view.query(("GET", "n"), pending) == 1
        pending.append(make_action(server=2, index=2,
                                   update=("INC", "n", 1)))
        assert view.query(("GET", "n"), pending) == 2

    def test_invalidate_rebuilds_from_green(self):
        """A green applied since the last query invalidates the view by
        itself: no call is needed, so applying a green costs the view
        nothing."""
        db = Database()
        view = DirtyView(db)
        pending = [make_action(server=2, update=("INC", "n", 1))]
        assert view.query(("GET", "k"), pending) is None
        db.apply(make_action(update=("SET", "k", 1)))
        assert view.query(("GET", "k"), pending) == 1
        assert view.query(("GET", "n"), pending) == 1

    def test_shrunk_suffix_rebuilds(self):
        db = Database()
        view = DirtyView(db)
        a1 = make_action(server=2, index=1, update=("INC", "n", 1))
        a2 = make_action(server=2, index=2, update=("INC", "n", 1))
        assert view.query(("GET", "n"), [a1, a2]) == 2
        assert view.query(("GET", "n"), [a2]) == 1


class TestSnapshotTransfer:
    def make_snapshot(self, items=200):
        db = Database()
        for i in range(items):
            db.apply(make_action(index=i + 1, update=("SET", f"k{i}", i)))
        return db.snapshot()

    def test_chunked_roundtrip(self):
        snapshot = self.make_snapshot()
        sender = SnapshotSender("t1", snapshot, chunk_items=16)
        receiver = SnapshotReceiver()
        receiver.begin("t1", sender.header)
        for seq in range(sender.total):
            receiver.accept(sender.chunk(seq))
        assert receiver.complete
        assembled = receiver.assemble()
        assert json.loads(assembled["state"]) == \
            json.loads(snapshot["state"])
        assert assembled["applied_count"] == snapshot["applied_count"]

    def test_next_needed_tracks_progress(self):
        snapshot = self.make_snapshot()
        sender = SnapshotSender("t1", snapshot, chunk_items=16)
        receiver = SnapshotReceiver()
        receiver.begin("t1", sender.header)
        receiver.accept(sender.chunk(0))
        receiver.accept(sender.chunk(2))
        assert receiver.next_needed == 1
        receiver.accept(sender.chunk(1))
        assert receiver.next_needed == 3

    def test_resume_from_different_sender_same_transfer(self):
        snapshot = self.make_snapshot()
        first = SnapshotSender("t1", snapshot, chunk_items=16)
        receiver = SnapshotReceiver()
        receiver.begin("t1", first.header)
        for seq in range(3):
            receiver.accept(first.chunk(seq))
        # A different member resumes the same transfer id.
        second = SnapshotSender("t1", snapshot, chunk_items=16)
        for seq in range(receiver.next_needed, second.total):
            receiver.accept(second.chunk(seq))
        assert receiver.complete

    def test_new_transfer_supersedes_old(self):
        snap_a = self.make_snapshot(50)
        snap_b = self.make_snapshot(60)
        sender_a = SnapshotSender("t1", snap_a, chunk_items=16)
        sender_b = SnapshotSender("t2", snap_b, chunk_items=16)
        receiver = SnapshotReceiver()
        receiver.begin("t1", sender_a.header)
        receiver.accept(sender_a.chunk(0))
        receiver.begin("t2", sender_b.header)
        for seq in range(sender_b.total):
            receiver.accept(sender_b.chunk(seq))
        assert receiver.complete
        assert json.loads(receiver.assemble()["state"]) == \
            json.loads(snap_b["state"])

    def test_incomplete_assemble_rejected(self):
        snapshot = self.make_snapshot()
        sender = SnapshotSender("t1", snapshot, chunk_items=16)
        receiver = SnapshotReceiver()
        receiver.begin("t1", sender.header)
        receiver.accept(sender.chunk(0))
        with pytest.raises(ValueError):
            receiver.assemble()

    def test_empty_database_single_chunk(self):
        sender = SnapshotSender("t1", Database().snapshot())
        assert sender.total == 1
        assert sender.chunk(0).is_last


class TestActionTypes:
    def test_action_id_ordering(self):
        assert ActionId(1, 2) < ActionId(2, 1)
        assert ActionId(1, 1) < ActionId(1, 2)

    def test_join_leave_builders(self):
        join = join_action(ActionId(1, 1), 7)
        assert join.type is ActionType.PERSISTENT_JOIN
        assert join.join_id == 7
        leave = leave_action(ActionId(1, 2), 7)
        assert leave.type is ActionType.PERSISTENT_LEAVE
        assert leave.leave_id == 7

    def test_query_only_flag(self):
        assert make_action(query=("GET", "k")).is_query_only
        assert not make_action(update=("SET", "k", 1)).is_query_only
