"""Unit tests for per-view total ordering and stability."""

import pytest

from repro.gcs import ServiceLevel, ViewId, ViewOrdering
from repro.gcs.types import DataMsg


def make_ordering(members=(1, 2, 3), me=2):
    return ViewOrdering(ViewId(1, 1), frozenset(members), me)


def data(view, origin, fifo, service=ServiceLevel.SAFE):
    return DataMsg(view, origin, fifo, f"m{origin}.{fifo}", service)


class TestIngestion:
    def test_sequencer_is_min_member(self):
        assert make_ordering().sequencer == 1

    def test_add_data_dedupes(self):
        ordering = make_ordering()
        msg = data(ordering.view_id, 2, 0)
        assert ordering.add_data(msg)
        assert not ordering.add_data(msg)

    def test_sequencer_stamps_in_fifo_order(self):
        ordering = make_ordering(me=1)
        # Out-of-fifo arrival: 3.1 before 3.0
        ordering.add_data(data(ordering.view_id, 3, 1))
        assert ordering.take_stamp_batch() == []
        ordering.add_data(data(ordering.view_id, 3, 0))
        batch = ordering.take_stamp_batch()
        assert [(o, f) for _s, o, f in batch] == [(3, 0), (3, 1)]
        assert [s for s, _o, _f in batch] == [0, 1]

    def test_non_sequencer_learns_stamps(self):
        ordering = make_ordering(me=2)
        ordering.add_stamps(((0, 3, 0), (1, 1, 0)))
        assert ordering.max_stamp == 1
        assert ordering.key_at[0] == (3, 0)

    def test_ack_advances_with_contiguous_stamp_and_data(self):
        ordering = make_ordering(me=2)
        ordering.add_stamps(((0, 3, 0), (1, 3, 1)))
        assert ordering.ack_seq == -1
        ordering.add_data(data(ordering.view_id, 3, 1))
        assert ordering.ack_seq == -1  # hole at 0
        ordering.add_data(data(ordering.view_id, 3, 0))
        assert ordering.ack_seq == 1


class TestStabilityAndDelivery:
    def test_safe_waits_for_all_acks(self):
        ordering = make_ordering(me=1)
        ordering.add_data(data(ordering.view_id, 1, 0))
        ordering.take_stamp_batch()
        assert ordering.pop_deliverable() == []
        ordering.add_ack(2, 0)
        assert ordering.pop_deliverable() == []
        ordering.add_ack(3, 0)
        delivered = ordering.pop_deliverable()
        assert [s for s, _m in delivered] == [0]

    def test_agreed_delivers_without_stability(self):
        ordering = make_ordering(me=1)
        ordering.add_data(data(ordering.view_id, 1, 0,
                               ServiceLevel.AGREED))
        ordering.take_stamp_batch()
        assert [s for s, _m in ordering.pop_deliverable()] == [0]

    def test_agreed_behind_safe_blocks(self):
        ordering = make_ordering(me=1)
        ordering.add_data(data(ordering.view_id, 1, 0, ServiceLevel.SAFE))
        ordering.add_data(data(ordering.view_id, 1, 1,
                               ServiceLevel.AGREED))
        ordering.take_stamp_batch()
        # Total order: the agreed message cannot jump the unstable safe.
        assert ordering.pop_deliverable() == []

    def test_delivery_in_seq_order(self):
        ordering = make_ordering(me=1)
        for fifo in range(5):
            ordering.add_data(data(ordering.view_id, 1, fifo,
                                   ServiceLevel.AGREED))
        ordering.take_stamp_batch()
        delivered = ordering.pop_deliverable()
        assert [s for s, _m in delivered] == [0, 1, 2, 3, 4]

    def test_stability_line_is_min_ack(self):
        ordering = make_ordering(me=1)
        ordering.acks[1] = 5
        ordering.add_ack(2, 3)
        ordering.add_ack(3, 7)
        assert ordering.stability_line == 3

    def test_ack_monotonic(self):
        ordering = make_ordering()
        ordering.add_ack(3, 5)
        ordering.add_ack(3, 2)
        assert ordering.acks[3] == 5

    def test_needs_ack_tracking(self):
        ordering = make_ordering(me=1)
        assert not ordering.needs_ack()
        ordering.add_data(data(ordering.view_id, 1, 0))
        ordering.take_stamp_batch()
        assert ordering.needs_ack()
        ordering.note_ack_sent()
        assert not ordering.needs_ack()


class TestGapRecovery:
    def test_missing_data_seqs(self):
        ordering = make_ordering(me=2)
        ordering.add_stamps(((0, 3, 0), (1, 3, 1)))
        ordering.add_data(data(ordering.view_id, 3, 1))
        assert ordering.missing_data_seqs() == [0]

    def test_stamp_gap_detection(self):
        ordering = make_ordering(me=2)
        ordering.add_stamps(((2, 3, 2),))
        assert ordering.has_stamp_gap()
        ordering.add_stamps(((0, 3, 0), (1, 3, 1)))
        assert not ordering.has_stamp_gap()

    def test_retrans_roundtrip(self):
        source = make_ordering(me=1)
        for fifo in range(3):
            source.add_data(data(source.view_id, 1, fifo))
        source.take_stamp_batch()
        items = source.retrans_items([0, 1, 2])
        assert len(items) == 3

        target = make_ordering(me=2)
        target.accept_retrans(tuple(items))
        assert target.ack_seq == 2
        assert target.missing_data_seqs() == []


class TestPruning:
    def build_delivered(self, count=10):
        ordering = make_ordering(me=1)
        for fifo in range(count):
            ordering.add_data(data(ordering.view_id, 1, fifo))
        ordering.take_stamp_batch()
        for member in (2, 3):
            ordering.add_ack(member, count - 1)
        ordering.pop_deliverable()
        return ordering

    def test_prune_discards_stable_delivered(self):
        ordering = self.build_delivered()
        pruned = ordering.prune_stable()
        assert pruned == 10
        assert ordering.data == {}
        assert ordering.pruned_below == 10

    def test_pruned_duplicates_rejected(self):
        ordering = self.build_delivered()
        ordering.prune_stable()
        assert not ordering.add_data(data(ordering.view_id, 1, 0))

    def test_prune_spares_undelivered(self):
        ordering = make_ordering(me=1)
        for fifo in range(4):
            ordering.add_data(data(ordering.view_id, 1, fifo))
        ordering.take_stamp_batch()
        for member in (2, 3):
            ordering.add_ack(member, 1)  # only 0..1 stable
        ordering.pop_deliverable()
        assert ordering.prune_stable() == 2
        assert len(ordering.data) == 2

    def test_stamps_below_prune_point_ignored(self):
        ordering = self.build_delivered()
        ordering.prune_stable()
        ordering.add_stamps(((0, 1, 0),))
        assert 0 not in ordering.key_at


class TestFlushSupport:
    def test_state_report_contents(self):
        ordering = make_ordering(me=1)
        for fifo in range(2):
            ordering.add_data(data(ordering.view_id, 1, fifo))
        ordering.take_stamp_batch()
        report = ordering.state_report(1, attempt=4)
        assert report.old_view_id == ordering.view_id
        assert len(report.stamps) == 2
        assert report.have_data == (0, 1)
        assert (report.node, report.attempt) == (1, 4)
        # Only this member has acked: nothing is stable yet.
        assert report.stability_line == -1

    def test_unstamped_own(self):
        ordering = make_ordering(me=2)  # not the sequencer
        ordering.add_data(data(ordering.view_id, 2, 0))
        ordering.add_data(data(ordering.view_id, 3, 0))
        unstamped = ordering.unstamped_own()
        assert [(m.origin, m.fifo_seq) for m in unstamped] == [(2, 0)]

    def test_undelivered_stamped(self):
        ordering = make_ordering(me=1)
        for fifo in range(3):
            ordering.add_data(data(ordering.view_id, 1, fifo))
        ordering.take_stamp_batch()
        for member in (2, 3):
            ordering.add_ack(member, 0)
        ordering.pop_deliverable()  # delivers seq 0 only
        assert ordering.undelivered_stamped() == [1, 2]
