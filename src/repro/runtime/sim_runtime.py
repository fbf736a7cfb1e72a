"""The discrete-event runtime: the simulation kernel behind the
:class:`~repro.runtime.base.Runtime` protocol.

``SimRuntime`` *is* the kernel — a zero-override subclass of
:class:`~repro.sim.kernel.Simulator`.  Nothing is wrapped or delegated,
so the raw-tuple ``post``/``post_at`` fast path, the heap-compaction
logic, and the direct heap pushes in :class:`~repro.net.Network` are
preserved bit-for-bit: a scenario run on ``SimRuntime`` dispatches
exactly the same events in exactly the same order as on a bare
``Simulator``.  ``tests/test_sim_kernel.py`` enforces this
structurally: the subclass may never define an attribute of its own.

The subclass exists so deployment code can say what it means —
"build me the deterministic runtime" — and so a future split of kernel
internals from the public runtime surface has a place to land without
touching call sites.
"""

from __future__ import annotations

from ..sim.kernel import Simulator


class SimRuntime(Simulator):
    """Deterministic discrete-event :class:`Runtime`.

    Pair it with :class:`~repro.net.Network` (the simulated
    :class:`~repro.runtime.base.Transport`) for virtual-time deployments
    with seeded loss, latency, and partitions.
    """

    __slots__ = ()
