"""Spans recorded in memory around the benchmark's own calls into the library.

A span has a name, start, end, the id of the span that caused it and the id of
the trace (one op or one probe group) it belongs to.  A disabled tracer
records nothing, so the untraced end-to-end runs pay one no-op context
manager per call.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace if trace is not None else (parent["trace"] if parent else None),
            **attrs,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
