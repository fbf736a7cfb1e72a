"""Spread-like facade over the daemon.

A thin convenience wrapper giving the replication engine (or any other
consumer) a process-group style API: connect, join, multicast with a
service level, receive callbacks.  It exists to mirror the layering of
the original system — the engine was written against the Spread toolkit
API, not against daemon internals.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .daemon import GcsDaemon, GcsListener
from .types import Configuration, ServiceLevel


class GroupChannel(GcsListener):
    """A connection to the replicated process group.

    Callbacks (assign before :meth:`join`):

    message_handler(payload, origin, in_transitional, service)
    conf_handler(configuration)      — regular AND transitional confs
    green_line_handler(node, line)   — a member's heartbeat line
    """

    def __init__(self, daemon: GcsDaemon) -> None:
        self.daemon = daemon
        self.message_handler: Optional[Callable] = None
        self.conf_handler: Optional[Callable[[Configuration], None]] = None
        self.green_line_handler: Optional[Callable[[int, int], None]] = None
        daemon.listener = self

    # -- membership -----------------------------------------------------
    def join(self) -> None:
        self.daemon.join()

    def leave(self) -> None:
        self.daemon.leave()

    @property
    def current_view(self) -> Optional[Configuration]:
        return self.daemon.view

    # -- messaging --------------------------------------------------------
    def multicast(self, payload: Any,
                  service: ServiceLevel = ServiceLevel.SAFE) -> None:
        self.daemon.multicast(payload, service)

    def advertise_green_line(self, line: int) -> None:
        """Publish this member's durable green count on its heartbeats."""
        self.daemon.green_line = line

    # -- GcsListener ------------------------------------------------------
    def on_regular_conf(self, conf: Configuration) -> None:
        if self.conf_handler is not None:
            self.conf_handler(conf)

    def on_transitional_conf(self, conf: Configuration) -> None:
        if self.conf_handler is not None:
            self.conf_handler(conf)

    def on_message(self, payload: Any, origin: int,
                   in_transitional: bool, service: ServiceLevel) -> None:
        if self.message_handler is not None:
            self.message_handler(payload, origin, in_transitional, service)

    def on_green_line(self, node: int, line: int) -> None:
        if self.green_line_handler is not None:
            self.green_line_handler(node, line)
