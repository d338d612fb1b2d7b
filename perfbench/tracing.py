"""Spans recorded around calls into the program's public functions.

The program itself has no tracing; the traced run monkeypatches module
attributes with timing wrappers from this file and restores them afterwards.
A span is ``{name, start, end, parent, request_id}`` with ``perf_counter``
seconds; the parent is the innermost open span of the same thread (a
context variable), so nested layers show their self time.  Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        with self._lock:
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "start": time.perf_counter(),
                      "end": None, "parent": _CURRENT.get(),
                      "request_id": request_id}
            self.spans.append(record)
        token = _CURRENT.set(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)

    def traced(self, fn: Callable, name: str,
               request_id: Optional[Callable[..., Optional[str]]] = None) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call;
        ``request_id(*args, **kwargs)`` tags the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = request_id(*args, **kwargs) if request_id else None
            with self.span(name, rid):
                return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             request_id: Optional[Callable[..., Optional[str]]] = None) -> None:
        """Replace ``owner.attr`` by its :meth:`traced` wrapper until
        :meth:`uninstall`."""
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, request_id))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` by ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations_ms(self, since: int = 0) -> Dict[str, List[float]]:
        """Span durations by name, for spans opened at index ``since`` or later."""
        out: Dict[str, List[float]] = defaultdict(list)
        with self._lock:
            spans = self.spans[since:]
        for s in spans:
            if s["end"] is not None:
                out[s["name"]].append((s["end"] - s["start"]) * 1e3)
        return out

    def total_ms(self, name: str, since: int = 0) -> float:
        return sum(self.durations_ms(since).get(name, ()))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
