"""Unit tests for the seeded randomness streams."""

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(42).stream("net")
        b = RandomStreams(42).stream("net")
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("net")
        b = RandomStreams(2).stream("net")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        net = streams.stream("net")
        first = net.random()
        # Consuming another stream must not perturb this one.
        streams2 = RandomStreams(7)
        streams2.stream("workload").random()
        assert streams2.stream("net").random() == first

    def test_stream_identity_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")
        assert "x" in streams
        assert "y" not in streams
