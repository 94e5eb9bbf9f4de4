"""In-memory span recorder and the runtime wrappers that feed it.

The traced run times calls into each layer's public functions without
touching ``src/``: :class:`Tracer.install` replaces a function or method
with a wrapper that opens a span around the original.  A function is
replaced on *every* ``repro`` module attribute bound to it (``from x import
f`` copies the binding, so wrapping only the defining module would miss
callers such as ``repro.compile.verify.solve_dc``).  A target that no
longer exists raises, so a renamed function fails the traced run loudly
instead of reporting 0.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
when the run ends.  A span's *self time* is its duration minus the time its
child spans cover; per-layer metrics are sums of self times by span name.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Single-threaded span stack plus named counters."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped != index:  # wrappers nest, so this means a wrapper bug
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- wrapping --------------------------------------------------------
    def wrap_function(self, name: str, fn, on_result=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_context(self, name: str, factory, name_from_arg: bool = False):
        """Wrap a context-manager factory so the managed block is a span."""
        tracer = self

        class _Managed:
            def __init__(self, inner, span_name):
                self._inner = inner
                self._name = span_name
                self._index = -1

            def __enter__(self):
                self._index = tracer.open(self._name)
                return self._inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    tracer.close(self._index)

        def wrapper(*args, **kwargs):
            span_name = args[0] if name_from_arg and args else name
            return _Managed(factory(*args, **kwargs), span_name)

        wrapper.__wrapped__ = factory
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, name: str, target: str, *, everywhere: bool = True, on_result=None,
                on_error=None, context: bool = False, name_from_arg: bool = False) -> None:
        """Wrap ``target`` (``"module:attr"`` or ``"module:Class.method"``).

        Methods are replaced on the class, which every caller resolves.
        Module-level functions are replaced on every loaded ``repro``
        module bound to the same object unless ``everywhere`` is false.
        """
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".", 1)
            cls = getattr(module, class_name)
            original = cls.__dict__[method]  # KeyError: the target was renamed
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    self.wrap_function(name, original.__func__, on_result, on_error)
                )
            else:
                wrapped = self.wrap_function(name, original, on_result, on_error)
            self._set(cls, method, wrapped)
            return
        original = getattr(module, path)  # AttributeError: the target was renamed
        if context:
            wrapped = self.wrap_context(name, original, name_from_arg=name_from_arg)
        else:
            wrapped = self.wrap_function(name, original, on_result, on_error)
        owners = [module]
        if everywhere:
            owners = [
                mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
                and any(value is original for value in vars(mod).values())
            ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reporting -------------------------------------------------------
    def self_ms(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_s * 1e3
        return totals

    def write(self, path) -> None:
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "counts": self.counts}, fh)
