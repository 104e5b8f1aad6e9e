"""In-memory spans around the benchmark's calls into the library.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (``None`` at top level) and ``item`` identifies the
corpus line, table row or ladder case the call belongs to.  Spans are kept
in a list and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Records one span per ``with tracer.span(name, item):`` block."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, item: object = None) -> _Span:
        return _Span(self, name, item)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "item": item}
                out.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "item", "index")

    def __init__(self, tracer: Tracer, name: str, item: object) -> None:
        self.tracer = tracer
        self.name = name
        self.item = item

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else None
        tracer._open.append(self.index)
        tracer.spans.append([self.name, perf_counter(), 0.0, parent, self.item])

    def __exit__(self, *exc_info) -> bool:
        end = perf_counter()
        tracer = self.tracer
        tracer.spans[self.index][2] = end
        tracer._open.pop()
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


class NullTracer:
    """The untraced run: same ``with`` blocks, nothing recorded."""

    _no_span = _NoSpan()

    def span(self, name: str, item: object = None) -> _NoSpan:
        return self._no_span


def self_times(spans: list[list], durations: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly in a single thread, so children never overlap and
    their durations simply add up.
    """
    own = list(durations)
    for index, span in enumerate(spans):
        parent = span[3]
        if parent is not None:
            own[parent] -= durations[index]
    return own
