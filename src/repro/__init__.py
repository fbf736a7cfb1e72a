"""repro — reproduction of Amir & Tutu, "From Total Order to Database
Replication" (ICDCS 2002).

A partition-aware database replication engine built on simulated
Extended Virtual Synchrony group communication, with the paper's
baselines (COReL, two-phase commit), relaxed application semantics, and
a benchmark harness regenerating the paper's evaluation.
"""

__version__ = "1.0.0"
