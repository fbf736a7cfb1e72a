"""Exporters: JSON snapshots, Prometheus text, and a live HTTP endpoint.

Three ways out of a :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`snapshot_json` — a JSON document (the ``obsreport`` CLI and
  tests consume this);
* :func:`prometheus_text` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP``/``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` histogram series, ``_sum`` and ``_count``;
* :class:`MetricsServer` — a dependency-free HTTP server on the
  asyncio event loop serving ``GET /metrics`` (Prometheus text) and
  ``GET /status`` (a JSON view of live state supplied by the host,
  e.g. engine/daemon states and queue depths per replica).

:func:`lint_prometheus` validates exposition text structurally — CI
scrapes the live cluster example and lints what it serves.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from .metrics import COUNTER, HISTOGRAM, MetricsRegistry

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def snapshot_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n") \
                .replace('"', r'\"')


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str],
                   extra: str = "") -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(labelnames, labelvalues)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value != value:                       # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labelvalues, child in sorted(family.samples()):
            if family.kind == HISTOGRAM:
                cumulative = 0
                for bound, count in zip(child.bounds, child.counts):
                    cumulative += count
                    labels = _format_labels(family.labelnames, labelvalues,
                                            extra=f'le="{bound}"')
                    lines.append(f"{family.name}_bucket{labels} "
                                 f"{cumulative}")
                labels = _format_labels(family.labelnames, labelvalues,
                                        extra='le="+Inf"')
                lines.append(f"{family.name}_bucket{labels} {child.count}")
                plain = _format_labels(family.labelnames, labelvalues)
                lines.append(f"{family.name}_sum{plain} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{plain} {child.count}")
            else:
                labels = _format_labels(family.labelnames, labelvalues)
                lines.append(f"{family.name}{labels} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + "\n"


def lint_prometheus(text: str) -> List[str]:
    """Structural lint of exposition text; returns a list of problems
    (empty means the text scrapes cleanly).

    Checks: metric/label name syntax, every sample preceded by a
    ``# TYPE`` for its family, counters ending in ``_total`` or being
    histogram series, histogram buckets cumulative with ``_count``
    equal to the ``+Inf`` bucket, and parseable sample values.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    bucket_state: Dict[str, float] = {}
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) < 4 or parts[3] not in ("counter", "gauge",
                                                  "histogram", "summary",
                                                  "untyped"):
                problems.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            if not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: bad metric name "
                                f"{parts[2]!r}")
            if parts[2] in types:
                problems.append(f"line {lineno}: duplicate TYPE for "
                                f"{parts[2]!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name, _, labels, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = base if base in types else name
        if family not in types:
            problems.append(f"line {lineno}: sample {name!r} has no "
                            f"preceding # TYPE")
        try:
            parsed = float(value)
        except ValueError:
            problems.append(f"line {lineno}: bad value {value!r}")
            continue
        if labels:
            for pair in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*|[^=,]+)='
                                   r'"((?:[^"\\]|\\.)*)"', labels):
                if not _LABEL_RE.match(pair[0]):
                    problems.append(f"line {lineno}: bad label name "
                                    f"{pair[0]!r}")
        if types.get(family) == "counter" and parsed < 0:
            problems.append(f"line {lineno}: counter {name!r} is negative")
        if name.endswith("_bucket") and labels is not None:
            le = re.search(r'le="([^"]*)"', labels)
            series = name + re.sub(r',?le="[^"]*"', "", labels)
            if le is None:
                problems.append(f"line {lineno}: histogram bucket "
                                f"without le label")
            else:
                previous = bucket_state.get(series, -1.0)
                if parsed < previous:
                    problems.append(f"line {lineno}: non-cumulative "
                                    f"bucket series {series!r}")
                bucket_state[series] = parsed
    return problems


class MetricsServer:
    """A minimal HTTP/1.0 server for live metrics on the asyncio loop.

    Serves ``GET /metrics`` (Prometheus text) and ``GET /status``
    (JSON from ``status_fn``).  ``port=0`` binds an OS-assigned port,
    published on :attr:`port` after :meth:`start`.  No external
    dependencies: requests are parsed by hand, responses close the
    connection — exactly enough for a scraper or ``curl``.
    """

    def __init__(self, registry: MetricsRegistry,
                 status_fn: Optional[Callable[[], Dict[str, Any]]] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.status_fn = status_fn
        self.host = host
        self.port = port
        self._server: Optional[Any] = None

    async def start(self) -> "MetricsServer":
        import asyncio
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _handle(self, reader: Any, writer: Any) -> None:
        try:
            request_line = await reader.readline()
            while True:                     # drain headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.split("?")[0] == "/metrics":
                body = prometheus_text(self.registry)
                status, ctype = "200 OK", \
                    "text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?")[0] == "/status":
                doc = self.status_fn() if self.status_fn is not None \
                    else {}
                body = json.dumps(doc, indent=2, sort_keys=True,
                                  default=str) + "\n"
                status, ctype = "200 OK", "application/json"
            else:
                body = "not found: try /metrics or /status\n"
                status, ctype = "404 Not Found", "text/plain"
            payload = body.encode("utf-8")
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()


async def fetch_http(host: str, port: int, path: str,
                     timeout: float = 5.0) -> str:
    """Tiny asyncio HTTP GET (body only) — the example and CI use it to
    scrape a :class:`MetricsServer` without external tooling."""
    import asyncio
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n"
                     .encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.splitlines()[0].decode("latin-1")
    if " 200 " not in status_line + " ":
        raise RuntimeError(f"GET {path} -> {status_line}")
    return body.decode("utf-8")
