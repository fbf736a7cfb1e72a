"""A no-op stand-in for the retired wire batcher, read only by perfbench.

perfbench's tracer patches ``WireBatcher.send``, ``multicast`` and
``flush_all`` and asserts that every patch target exists.  ROADMAP
12(a), the slice that next changes perfbench, deletes this module.
"""


class WireBatcher:
    def send(self, *args: object) -> None:
        pass

    def multicast(self, *args: object) -> None:
        pass

    def flush_all(self) -> None:
        pass
