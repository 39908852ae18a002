"""In-memory spans around the library's functions, installed from outside.

The tracer wraps every public module-level function of the traced modules
(plus a few named private ones) and rebinds the wrapper under every name by
which a splinereg module reaches the original, e.g. both
`volume_io.trilinear_sample` and `registration.trilinear_sample`. Spans
(name, start, end, parent) are appended to a list only while the tracer is
installed and summarised at the end of the run. Leaving `installed` restores
every original binding, so untraced code runs the program as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
import types
from dataclasses import dataclass

PACKAGE = "splinereg"
TRACED_MODULES = (
    "bspline_core",
    "field_metrics",
    "registration",
    "regularizers_analytic",
    "regularizers_numeric",
    "volume_io",
)
# Private functions whose self time is a layer metric of its own.
EXTRA_FUNCTIONS = ("registration._lbfgs",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str


class Tracer:
    """Collects spans while installed; `phase` tags them (e.g. setup, round)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.active = False
        self._local = threading.local()
        self._wrappers: dict[int, tuple] = {}
        self.traced_names: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.phase))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def _targets(self) -> dict:
        """Qualified name -> original function, for everything that gets a span."""
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    targets[f"{short}.{attr}"] = obj
        for qualified in EXTRA_FUNCTIONS:
            short, attr = qualified.split(".")
            obj = getattr(sys.modules[f"{PACKAGE}.{short}"], attr, None)
            if isinstance(obj, types.FunctionType):
                targets[qualified] = obj
        return targets

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Bind every wrapper in place of its original for the block; record
        spans tagged with `phase` meanwhile."""
        if not self._wrappers:
            targets = self._targets()
            self.traced_names = set(targets)
            self._wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in targets.items()}
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    patches.append((module, attr, obj))
        self.phase, self.active = phase, True
        try:
            yield
        finally:
            self.active = False
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    # -- summaries -----------------------------------------------------------

    def _children_time(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return child

    def select(self, names, phase: str | None = None) -> list:
        names = {names} if isinstance(names, str) else set(names)
        return [
            i for i, s in enumerate(self.spans)
            if s.name in names and (phase is None or s.phase == phase)
        ]

    def mean_ms(self, names, phase: str | None = None, self_time: bool = False) -> float:
        picked = self.select(names, phase)
        if not picked:
            return 0.0
        child = self._children_time() if self_time else None
        total = 0.0
        for i in picked:
            s = self.spans[i]
            total += (s.end - s.start) - (child[i] if self_time else 0.0)
        return 1e3 * total / len(picked)

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.phase] for s in self.spans]


class NullTracer:
    """Stand-in for untraced runs: no wrappers, no spans."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    @contextlib.contextmanager
    def installed(self, phase: str):
        yield
