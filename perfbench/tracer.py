"""Per-module spans recorded from outside the library.

``Tracer.install`` finds every public function of each ``mcrnet`` module
(and every public method of the classes a module defines) by
introspection, wraps it, and rebinds the wrapper wherever the original is
bound: in its defining module, in every module that imported it by name,
and in the package namespace.  Functions added to the library later are
therefore traced without editing this file.

A span is ``(name, start, end, parent)`` held in flat arrays; self time is
a span's duration minus the time its child spans cover.  Spans are only
recorded while the tracer is ``active`` and only on the thread that
activated it, so output checks run between ops leave no spans.
"""

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from array import array

import numpy as np

_ROOT = -1


def library_modules(package):
    """The package itself plus every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_callables(module):
    """``(span name, owner, attribute, function)`` for each public function
    defined in ``module`` and each public method of its public classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found.append((f"{short}.{name}.{attr}", obj, attr, fn))
    return found


def self_times(names, starts, ends, parents):
    """Per-span self time: duration minus the time child spans cover.

    Spans come from one thread, so siblings never overlap and the time
    children cover is the sum of their durations.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Span recorder over the public surface of a package."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.span_names = []
        self._name_ids = {}
        self._originals = []  # (owner, attribute, original) to restore
        self._thread = None
        self.observers = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and observations."""
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [_ROOT]
        self.observed = {name: [] for name in self.observers}

    def observe(self, span_name, fn):
        """Record ``fn(bound_arguments)`` on every traced call of a span."""
        self.observers[span_name] = fn
        self.observed[span_name] = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, span_name, fn):
        """Return ``fn`` wrapped so each active call records a span."""
        name_id = self._name_id(span_name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            observer = self.observers.get(span_name)
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.observed[span_name].append(observer(bound.arguments))
            span = len(self.names)
            self.names.append(name_id)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(span)
            self.starts.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[span] = self.clock()
                self._stack.pop()

        return traced

    def install(self, package):
        """Wrap every public callable of ``package`` wherever it is bound."""
        modules = library_modules(package)
        wrappers = {}
        for module in modules:
            for span_name, owner, attr, fn in public_callables(module):
                wrapper = self.wrap(span_name, fn)
                wrappers[id(fn)] = wrapper
                self._rebind(owner, attr, wrapper)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every binding ``install`` replaced."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def start(self):
        self._thread = threading.get_ident()
        self.active = True

    def stop(self):
        self.active = False

    def summary(self):
        """``{span name: (calls, total seconds, self seconds)}`` so far."""
        names = np.frombuffer(self.names, dtype=np.int32)
        if names.size == 0:
            return {}
        dur = (np.frombuffer(self.ends, dtype=float)
               - np.frombuffer(self.starts, dtype=float))
        own = self_times(names, self.starts, self.ends, self.parents)
        count = np.bincount(names, minlength=len(self.span_names))
        total = np.bincount(names, weights=dur, minlength=len(self.span_names))
        self_s = np.bincount(names, weights=own, minlength=len(self.span_names))
        return {self.span_names[i]: (int(count[i]), float(total[i]),
                                     float(self_s[i]))
                for i in np.flatnonzero(count)}
