"""Hierarchical tracing spans over the deploy → ingest → query pipeline.

A :class:`Tracer` records a forest of :class:`Span` objects — named,
monotonically-clocked intervals with free-form attributes — via the
``span()`` context manager.  Spans nest through a tracer-local stack,
so any code running inside ``with tracer.span("ingest"):`` that opens
its own span becomes a child of ``ingest`` without explicit plumbing.

Two exports:

- :meth:`Tracer.to_chrome_trace` — the Chrome trace-viewer JSON object
  format (load in ``chrome://tracing`` or Perfetto);
- :meth:`Tracer.format_tree` — a human-readable indented tree with
  durations and attributes.

A live tracer is bounded: of the siblings with one name — under one
parent, or among the roots — it keeps the newest
:data:`SIBLING_RING`, evicts the oldest closed one (with its subtree)
and counts what it dropped (``Tracer.dropped``, reported by both
exports).  Per-query spans (``query.execute`` roots, the ``ingest``
root of every streamed window) therefore cost constant memory however
long the process runs, while one-off spans (``planarize``, ``deploy``,
…) are never evicted.

:class:`NullTracer` is the no-op implementation used by the default
(uninstrumented) pipeline; its ``span()`` returns a shared singleton
context manager so disabled tracing costs one call and one ``with``
per site.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from .flight import DEFAULT_CAPACITY

#: Same-named sibling spans kept under one parent (or among the roots):
#: the flight ring's capacity, so the trace and the flight log reach
#: equally far back.
SIBLING_RING = DEFAULT_CAPACITY


class Span:
    """One named interval on the monotonic clock, with attributes."""

    __slots__ = ("name", "start", "end", "attributes", "children", "seen")

    def __init__(self, name: str, start: float, **attributes: Any) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List["Span"] = []
        #: Child name → children of that name, while the span is open
        #: (the tracer's sibling ring counts in it).
        self.seen: Optional[Dict[str, int]] = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _SpanContext:
    """Context manager opening one span on a tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._close(self.span)


class Tracer:
    """Records a forest of nested spans on the monotonic clock."""

    #: Real tracers record; the null tracer advertises False so hot
    #: paths can skip attribute computation entirely.
    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._seen_roots: Dict[str, int] = {}
        #: Spans evicted by the sibling ring, subtrees included.
        self.dropped = 0
        #: Open-span stack per thread id: spans nest within the thread
        #: that opened them, so a tracer shared across threads never
        #: parents one thread's span under another's.
        self._stacks: Dict[int, List[Span]] = {}
        #: perf_counter origin so exported timestamps start near zero.
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child span of the innermost open span (or a root)."""
        opened = Span(name, time.perf_counter(), **attributes)
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
            siblings, seen = parent.children, parent.seen
            if seen is None:
                seen = parent.seen = {}
        else:
            siblings, seen = self.roots, self._seen_roots
        siblings.append(opened)
        count = seen[name] = seen.get(name, 0) + 1
        if count > SIBLING_RING:
            self._evict(siblings, seen, name)
        stack.append(opened)
        return _SpanContext(self, opened)

    def _evict(self, siblings: List[Span], seen: Dict[str, int], name: str) -> None:
        """Drop the oldest closed sibling called ``name`` (open spans
        stay: their thread's stack still nests under them)."""
        for at, old in enumerate(siblings):
            if old.name == name and old.end is not None:
                del siblings[at]
                seen[name] -= 1
                self.dropped += sum(1 for _ in old.walk())
                return

    def _close(self, span: Span) -> None:
        stack = self._stacks.get(threading.get_ident(), [])
        if not any(open_span is span for open_span in stack):
            # Already closed (or never opened on this thread): a second
            # close must not unwind unrelated open spans.
            return
        span.end = time.perf_counter()
        # Close any forgotten descendants too (exception unwinds).
        while stack[-1] is not span:
            dangling = stack.pop()
            dangling.seen = None
            if dangling.end is None:
                dangling.end = span.end
        stack.pop()
        span.seen = None

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth first across roots."""
        for root in self.roots:
            yield from root.walk()

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-viewer JSON object (``traceEvents`` complete
        events, microsecond timestamps, one lane: this process)."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for span in self.walk():
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self._origin) * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "cat": "repro",
                    "args": _jsonable(span.attributes),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def export_chrome(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)

    def format_tree(self) -> str:
        """Indented human-readable span tree with durations."""
        lines: List[str] = []
        for root in self.roots:
            self._format_span(root, 0, lines)
        if self.dropped:
            lines.append(
                f"({self.dropped} older spans dropped: the newest "
                f"{SIBLING_RING} same-named siblings are kept)"
            )
        return "\n".join(lines)

    def _format_span(self, span: Span, depth: int, lines: List[str]) -> None:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{'  ' * depth}{span.name}: {span.duration * 1e3:.3f}ms{suffix}"
        )
        for child in span.children:
            self._format_span(child, depth + 1, lines)


class _NullSpanContext:
    """Shared do-nothing span context (and span) for the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpanContext":
        return self


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """No-op tracer: ``span()`` returns a shared singleton context."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def walk(self) -> Iterator[Span]:
        return iter(())

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)

    def format_tree(self) -> str:
        return ""


#: Process-wide shared null tracer (safe: it holds no state).
NULL_TRACER = NullTracer()


def _jsonable(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    safe: Dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, (tuple, list, set, frozenset)):
            safe[key] = [
                v if isinstance(v, (str, int, float, bool)) else repr(v)
                for v in value
            ]
        else:
            safe[key] = repr(value)
    return safe
