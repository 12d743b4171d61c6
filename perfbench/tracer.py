"""Call tracing from outside the library.

A ``Tracer`` replaces chosen functions with timing wrappers under every
name that binds them: module attributes reached as ``loewner.default_scheme``
and names imported with ``from .core import transfer_function`` alike.  It
restores every name on ``uninstall``.  Spans (name, start, end, parent,
iteration) stay in memory until the run writes them out.

Self time is a span's duration minus the time its direct child spans cover.
Kernel spans (numpy.linalg calls) are recorded with their matrix sizes and
their caller, but they are not subtracted from the caller: a layer's self
time includes the kernels it calls, and the kernel rows say how much of it
they were.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, reported as ``name``."""

    name: str
    module: Any
    attr: str
    kernel: bool = False
    attrs: Optional[Callable[[tuple, dict, Any], dict]] = None


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int            # -1 for a top-level call
    iteration: int
    kernel: bool
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps targets on ``install`` and collects spans until ``uninstall``."""

    def __init__(self, targets: list[Target], namespaces: list[Any]):
        self.targets = targets
        self.namespaces = namespaces
        self.spans: list[Span] = []
        self.iteration = 0
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = len(spans)
            span = Span(sid, target.name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.iteration, target.kernel)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if target.attrs is not None:
                span.attrs = target.attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            fn = getattr(target.module, target.attr)
            wrapper = self._wrap(target, fn)
            homes = [target.module] + [ns for ns in self.namespaces
                                       if ns is not target.module]
            for ns in homes:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus its non-kernel children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0 and not s.kernel:
            own[s.parent] -= s.duration
    return own


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    sizes: dict = field(default_factory=dict)   # "412x412" -> calls


def summarise(spans: list[Span], iteration: int) -> tuple[dict, float]:
    """Per-name stats for one iteration, and the time its top-level spans cover.

    Kernel spans are also keyed as ``<kernel> <- <caller>`` so each kernel
    is attributed to the layer that called it.
    """
    own = self_times(spans)
    stats: dict[str, FunctionStats] = {}
    top = 0.0
    for s, self_s in zip(spans, own):
        if s.iteration != iteration:
            continue
        keys = [s.name]
        if s.kernel:
            caller = spans[s.parent].name if s.parent >= 0 else "benchmark"
            keys.append(f"{s.name} <- {caller}")
        for key in keys:
            st = stats.setdefault(key, FunctionStats())
            st.calls += 1
            st.self_s += self_s
            st.total_s += s.duration
            if "shape" in s.attrs:
                size = "x".join(str(d) for d in s.attrs["shape"])
                st.sizes[size] = st.sizes.get(size, 0) + 1
        if s.parent < 0:
            top += s.duration
    return stats, top


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "iteration": s.iteration, "kernel": s.kernel,
                                 **s.attrs}) + "\n")

