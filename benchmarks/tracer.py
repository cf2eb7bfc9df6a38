"""Call counting and span tracing of library functions, from outside the library.

A probe replaces a function with a wrapper.  A module-level function is
replaced in every module that binds it, so a consumer that did
``from .linalg import gf2_rank`` is traced as well as ``linalg`` itself; a
method is replaced on its class.  ``restore`` (or leaving the ``with`` block)
puts every original binding back, in reverse order, so probes can be stacked.

Spans are kept in memory as ``(name, tag, parent, start, end)`` tuples, where
``parent`` is the index of the enclosing span or -1.  ``self_times`` turns
them into per-span self time: a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # every module whose bindings may need patching
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- patching ------------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = self.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = functools.wraps(fn)(make_wrapper(fn))
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(wrapper) if static else wrapper)
            return
        fn = getattr(module, attr)
        wrapper = functools.wraps(fn)(make_wrapper(fn))
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def count(self, module_name: str, attr: str, name: str) -> None:
        """Count calls under ``name``."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(module_name, attr, make)

    def count_module(self, module_name: str, name: str) -> None:
        """Count calls to every public function and method defined in a module."""
        module = self.modules[module_name]
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and not attr.startswith("_"):
                self.count(module_name, attr, name)
            elif inspect.isclass(value):
                for meth, raw in list(vars(value).items()):
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        self.count(module_name, f"{attr}.{meth}", name)

    def trace(self, module_name: str, attr: str, name: str, tag=None, observe=None) -> None:
        """Record a span named ``name`` per call; ``tag(args)`` labels it and
        ``observe(counts, args, result)`` may add to the counts.

        A generator function gets one span per resumption, so the time the
        consumer spends between items is not charged to the generator.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def make(fn):
            if inspect.isgeneratorfunction(inspect.unwrap(fn)):
                def gen_wrapper(*args, **kwargs):
                    gen = fn(*args, **kwargs)
                    label = tag(args) if tag else None
                    while True:
                        idx = len(spans)
                        spans.append(None)
                        parent = stack[-1] if stack else -1
                        stack.append(idx)
                        start = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            spans[idx] = (name, label, parent, start, clock())
                            stack.pop()
                        yield item

                return gen_wrapper

            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx] = (name, tag(args) if tag else None, parent, start, clock())
                    stack.pop()
                if observe is not None:
                    observe(counts, args, result)
                return result

            return wrapper

        self._patch(module_name, attr, make)

    @contextmanager
    def span(self, name: str, tag=None):
        """A span opened by the benchmark itself, e.g. around one item."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            spans[idx] = (name, tag, parent, start, time.perf_counter())
            stack.pop()

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        # the wrappers hold these very containers, so empty them in place
        spans, counts = self.spans[:], Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
