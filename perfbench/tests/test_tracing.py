import pytest

import tracing
from tracing import SpanRecorder, layer_of_module


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    #  a: 0..100
    #    b: 10..40
    #      c: 20..30
    #    b: 50..90
    #  d: 100..130      (second top-level span)
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enabled = True

    def at(t):
        clock.now = t

    a = rec.enter("core", "a")
    at(10); b1 = rec.enter("gcs", "b")
    at(20); c = rec.enter("storage", "c", action_id="1:7")
    at(30); rec.exit(c)
    at(40); rec.exit(b1)
    at(50); b2 = rec.enter("gcs", "b")
    at(90); rec.exit(b2)
    at(100); rec.exit(a)
    d = rec.enter("core", "d")
    at(130); rec.exit(d)

    assert rec.totals[("core", "a")] == [1, 100, 30, 100]
    assert rec.totals[("gcs", "b")] == [2, 70, 60, 40]
    assert rec.totals[("storage", "c")] == [1, 10, 10, 10]
    assert rec.self_ns("core") == 60 and rec.self_ns("core", "d") == 30
    assert rec.total_ns("gcs") == 70 and rec.calls("gcs", "b") == 2
    assert rec.longest_ns("gcs", "b") == 40
    # Self times partition the time inside top-level spans.
    assert rec.top_level_ns == 130
    assert sum(total[2] for total in rec.totals.values()) == 130

    by_name = {(s[2], s[3]): s for s in rec.spans}
    assert by_name[("c", 20)][5] == by_name[("b", 10)][0]   # parent id
    assert by_name[("b", 10)][5] == by_name[("a", 0)][0]
    assert by_name[("a", 0)][5] is None
    assert by_name[("c", 20)][6] == "1:7"


def test_raw_spans_are_capped_but_totals_are_not():
    rec = SpanRecorder(clock=FakeClock(), keep=2)
    rec.enabled = True
    for _ in range(5):
        rec.exit(rec.enter("db", "apply"))
    assert len(rec.spans) == 2 and rec.unkept == 3
    assert rec.calls("db", "apply") == 5


def test_wrap_records_only_while_enabled_and_survives_exceptions():
    rec = SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("x")
    traced = rec.wrap("core", "boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert not rec.totals
    rec.enabled = True
    with pytest.raises(ValueError):
        traced()
    assert rec.calls("core", "boom") == 1 and not rec._stack


@pytest.mark.parametrize("module, layer", [
    ("repro.runtime.transport", "transport"),
    ("repro.runtime.asyncio_runtime", "runtime"),
    ("repro.sim.process", "runtime"),
    ("repro.sim.kernel", "sim"),
    ("repro.net.codec", "codec"),
    ("repro.net.network", "sim"),
    ("repro.gcs.daemon", "gcs"),
    ("repro.core.replica", "core"),
    ("repro.storage.disk", "storage"),
    ("repro.bench.workload", "client"),
    ("live", "client"),
])
def test_callbacks_are_billed_to_the_layer_that_defines_them(module, layer):
    assert layer_of_module(module) == layer


def test_install_patches_every_target_and_undoes_them():
    from repro.core.engine import ReplicationEngine
    from repro.net import codec
    before = (ReplicationEngine.submit, codec.encode_frame)
    patches = tracing.install(SpanRecorder())
    try:
        assert patches.missing == []
        assert ReplicationEngine.submit is not before[0]
    finally:
        patches.undo()
    assert (ReplicationEngine.submit, codec.encode_frame) == before
