"""In-memory span tracer that wraps functions from outside the program.

The kwavelab modules bind each other's functions with from-imports, so a
function is patched under every name that refers to it, in every module that
looks it up. Spans record a name, start, end, parent and a few attributes
taken from the call arguments; ``Tracer.restore`` puts the original objects
back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "error", "thread")

    def __init__(self, name, parent, start=0.0, end=0.0, attrs=None, thread=0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}
        self.error = None
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by id(span): its duration minus the part
    of its interval that the union of its children's intervals covers."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        kids = sorted((max(c.start, s.start), min(c.end, s.end))
                      for c in children.get(id(s), ()))
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[id(s)] = s.duration - covered
    return out


def _arg_getter(fn):
    """Fetch a call argument by parameter name, whether it came by position,
    by keyword or from the default."""
    params = list(inspect.signature(fn).parameters.values())
    pos = {p.name: i for i, p in enumerate(params)}
    defaults = {p.name: p.default for p in params}

    def get(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = pos[name]
        return args[i] if i < len(args) else defaults[name]
    return get


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span named ``name``. ``attrs(get)``
        maps an argument getter to the span's attributes."""
        get = _arg_getter(fn) if attrs is not None else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # first span of a pool thread: caused by the main thread's open span
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, parent, thread=threading.get_ident())
            if get is not None:
                span.attrs = attrs(lambda key: get(args, kwargs, key))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
        return traced

    def patch_function(self, module, attr: str, name: str, attrs=None, sites=None):
        """Wrap ``module.attr`` under every name bound to it in the given
        modules (default: every loaded module of the same package)."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, attrs)
        if sites is None:
            package = module.__name__.split(".")[0] + "."
            sites = [m for key, m in list(sys.modules.items())
                     if m is not None and (key + ".").startswith(package)]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._patched.append((site, key, value))
                    setattr(site, key, wrapped)

    def patch_method(self, cls, attr: str, name: str):
        """Wrap a plain method or classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        ids = {id(s): i for i, s in enumerate(sorted(self.spans, key=lambda s: s.start))}
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": ids[id(s)], "name": s.name,
                    "parent": None if s.parent is None else ids.get(id(s.parent)),
                    "start": s.start - t0, "end": s.end - t0, "thread": s.thread,
                    "error": s.error, "attrs": s.attrs}) + "\n")
