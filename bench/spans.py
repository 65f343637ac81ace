"""Span recorder for the traced benchmark run.

The traced run replaces each layer's public function with a wrapper at
every module attribute that holds it, so the callers inside the package
pick up the wrapper through their normal global lookups.  Each call
records one span (name, start, end, parent) in memory; self time is a
span's duration minus the durations of its direct children.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span store with a call stack; single-threaded use only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``observe(args, kwargs, result)``
        runs after the span closes and may add to ``counters``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), float("nan"), self._stack[-1] if self._stack else None))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = self.clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, children):
            totals[span.name] += (span.end - span.start) - covered
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)


def install(
    tracer: Tracer,
    modules: Iterable[types.ModuleType],
    targets: Iterable[tuple[str, Callable, Callable | None, tuple[str, ...] | None]],
) -> list[tuple[types.ModuleType, str, Callable]]:
    """Rebind every module attribute holding a target function to its wrapper.

    ``targets`` holds (span name, original function, observer, sites); a
    ``sites`` tuple of module names limits the rebinding to those modules.
    Returns the (module, attribute, original) triples that ``uninstall``
    restores.
    """
    modules = list(modules)
    patched = []
    for name, original, observe, sites in targets:
        wrapper = tracer.wrap(name, original, observe)
        for module in modules:
            if sites is not None and module.__name__.rsplit(".", 1)[-1] not in sites:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    return patched


def uninstall(patched: list[tuple[types.ModuleType, str, Callable]]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
