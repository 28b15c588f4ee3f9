"""In-memory span recorder for the traced benchmark run.

The repo's layers are measured *from outside*: :meth:`Recorder.wrap`
replaces a public function (method, classmethod or module function)
with a thin wrapper that records one span per call, and
:meth:`Recorder.uninstall` puts the originals back.  The untraced run
never imports this module's wrappers into the program, so end-to-end
numbers carry no tracing cost; the traced run reports, per layer, the
*self time* of its spans: duration minus the part covered by child
spans.  The benchmark is single-threaded and spans nest strictly, so
child cover is the plain sum of the direct children's durations.

Spans live in one list until the run ends; :meth:`Recorder.write`
dumps them as Chrome-trace JSON (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

# Field indexes of one span record (a list, mutated once at exit).
NAME, LAYER, START, END, PARENT, QID, COVER, PHASE, VALUE = range(9)


class Recorder:
    """Span store + installer of the per-layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Index of the innermost open span (-1 at top level).
        self._open = -1
        #: Identifier shared by every span of one request; the
        #: benchmark sets it before each top-level operation.
        self.qid = -1
        #: Benchmark phase stamped on every span ("setup", "singles",
        #: "batch", "quality.exact", ...), so one run's spans can be
        #: split by what the benchmark was doing.
        self.phase = ""
        self._wrapped: List[Tuple[Any, str, Any, Any]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append(
            [name, layer, 0.0, 0.0, self._open, self.qid, 0.0, self.phase,
             None]
        )
        self._open = index
        # Clock read last on entry and first on exit, so the recorder's
        # own bookkeeping is charged to the parent, not to this span.
        self.spans[index][START] = perf_counter()
        return index

    def end(self, index: int, value: Optional[float] = None) -> None:
        now = perf_counter()
        span = self.spans[index]
        span[END] = now
        span[VALUE] = value
        parent = span[PARENT]
        self._open = parent
        if parent >= 0:
            self.spans[parent][COVER] += now - span[START]

    # ------------------------------------------------------------------
    # Wrapping public functions
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        method: str,
        layer: str,
        name: Union[str, Callable[..., str], None] = None,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Record a span around every call of ``owner.method``.

        ``owner`` is a class or a module.  The span is named
        ``layer.method`` unless ``name`` gives another name, or a
        function of the call's arguments that returns one.  ``measure``
        maps the call's return value to one number kept on the span
        (e.g. the length of a compiled series).  The wrapper is put in
        place by :meth:`install` and removed by :meth:`uninstall`.
        """
        raw = (
            owner.__dict__[method]
            if method in getattr(owner, "__dict__", {})
            else getattr(owner, method)
        )
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        fixed = name if isinstance(name, str) else f"{layer}.{method}"
        named = name if callable(name) else None
        begin, end = self.begin, self.end

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(
                named(*args, **kwargs) if named is not None else fixed, layer
            )
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end(index)
                raise
            end(index, measure(result) if measure is not None else None)
            return result

        replacement = classmethod(traced) if is_classmethod else traced
        self._wrapped.append((owner, method, raw, replacement))
        if self._installed:
            setattr(owner, method, replacement)

    def install(self) -> None:
        for owner, method, _, replacement in self._wrapped:
            setattr(owner, method, replacement)
        self._installed = True

    def uninstall(self) -> None:
        for owner, method, raw, _ in self._wrapped:
            setattr(owner, method, raw)
        self._installed = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def duration(span: list) -> float:
        return span[END] - span[START]

    @staticmethod
    def self_time(span: list) -> float:
        return span[END] - span[START] - span[COVER]

    def select(
        self,
        name: Optional[str] = None,
        layer: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> List[list]:
        """Closed spans matching every given field (``phase`` and
        ``layer`` match by prefix)."""
        return [
            s for s in self.spans
            if s[END]
            and (name is None or s[NAME] == name)
            and (layer is None or s[LAYER].startswith(layer))
            and (phase is None or s[PHASE].startswith(phase))
        ]

    def total_self(self, **match: Any) -> float:
        return sum(self.self_time(s) for s in self.select(**match))

    def total_duration(self, **match: Any) -> float:
        return sum(self.duration(s) for s in self.select(**match))

    def mean_self_us(self, **match: Any) -> float:
        spans = self.select(**match)
        if not spans:
            return 0.0
        return 1e6 * sum(self.self_time(s) for s in spans) / len(spans)

    def top_level_duration(self, phase: str) -> float:
        """Wall time of the phase's spans that have no parent: what
        the trace attributes to *some* named layer."""
        return sum(
            self.duration(s)
            for s in self.select(phase=phase)
            if s[PARENT] < 0
        )

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span[END]:
                totals[span[LAYER]] = (
                    totals.get(span[LAYER], 0.0) + self.self_time(span)
                )
        return totals

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            if not span[END]:
                continue
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[LAYER],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span[START] - origin) * 1e6,
                    "dur": self.duration(span) * 1e6,
                    "args": {
                        "id": index,
                        "parent": span[PARENT],
                        "qid": span[QID],
                        "phase": span[PHASE],
                        "self_us": self.self_time(span) * 1e6,
                        "value": span[VALUE],
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
