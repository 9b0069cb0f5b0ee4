"""Outside-in span tracing of cetlab's public functions.

The tracer replaces every public function of the traced layer modules
with a wrapper that records one span per call: name, start, end, the
index of the enclosing span, the run id and whether the call raised.
A function is replaced wherever it is looked up, that is in every loaded
``cetlab`` module that binds it (its own module, the package namespace,
``cli``, ``config``, ``selftest`` ...), so calls between layers nest.
Private helpers are not wrapped; their time stays in the caller's self
time.  Spans live in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Collects spans for calls made through installed wrappers.

    ``hooks`` maps a span name to ``fn(bound_arguments, result)``, called
    after the span has closed so its cost lands outside every span.
    """

    def __init__(self, run_id: str, hooks=None, clock=time.perf_counter):
        self.run_id = run_id
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            failed = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.run_id,
                                       failed)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, layers: dict):
        """Wrap the public functions of ``layers`` ({layer: module}).

        The original functions are restored when the context exits.
        """
        wrappers = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cetlab"
                                   or mod_name.startswith("cetlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

