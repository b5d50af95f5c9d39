"""In-memory span tracing by wrapping module attributes.

A ``Tracer`` replaces each module attribute bound to a traced function with
a wrapper that records one ``Span`` per call: its name, start and end
(``time.perf_counter``), the span that was open on the same thread when it
started (its parent), the thread, and any counts an observer derives from
the call's arguments and result. ``uninstall`` puts every original back.

Only the benchmark's own files do this; the traced program is not edited.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

# observer(args, kwargs, result) -> counts merged into the span's ``extra``
Observer = Callable[[tuple, dict, object], dict]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "extra")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it is given until ``uninstall``."""

    def __init__(self, observers: dict[str, Observer] | None = None):
        self.spans: list[Span] = []
        self.observers = observers or {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        local = self._local
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, 0.0, stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                stack.pop()
                span.extra = {"raised": 1}
                raise
            span.end = time.perf_counter()
            stack.pop()
            if observe is not None:
                span.extra = observe(args, kwargs, result)
            return result

        return traced

    def install(self, modules: Iterable, names: dict[Callable, str]) -> int:
        """Wrap every attribute of ``modules`` bound to a key of ``names``.

        A function imported by name into several modules is wrapped in each
        of them, under one span name. Returns the number of attributes patched.
        """
        wrappers = {id(fn): (fn, self.wrap(fn, name)) for fn, name in names.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, found[1])
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children, keyed by
    ``id(span)``. A span's parent is taken from its own thread's stack, so
    its children run one after another inside it and never overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    return {id(s): s.duration - child_time[id(s)] for s in spans}
