"""In-memory spans around the public functions of the stvo modules.

A span is (name, start, end, parent).  The tracer replaces every public
function binding in each module's namespace, at the name the caller looks
it up (``stvo.runner.odr_round`` is what ``runner.play_odr`` calls,
``stvo.solvers.dr_step`` what ``solvers.odr_round`` calls), plus a few
methods given explicitly.  Spans are appended to flat arrays and analysed
or saved only after the run; nothing is written while it is timed.
"""

import array
import contextlib
import functools
import inspect
import time
import weakref

import numpy as np


class Distinct:
    """Counts distinct objects seen, without keeping weak-referenceable
    ones alive (a dead object's id may be reused by a new one)."""

    def __init__(self):
        self.count = 0
        self._seen = {}

    def add(self, obj):
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return
        try:
            ref = weakref.ref(obj)
        except TypeError:
            ref = (lambda o: lambda: o)(obj)
        self._seen[id(obj)] = ref
        self.count += 1


class Tracer:
    """Records spans; ``install`` patches the modules, ``uninstall`` undoes it."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.name = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self._patched = []

    def _name_id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        i = self._open(self._name_id(name, "bench"))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer, on_call=None):
        nid = self._name_id(name, layer)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if on_call is not None:
                on_call(args, out)
            return out

        return traced

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules, methods=()):
        """Wrap public stvo functions bound in modules, and (cls, attr,
        on_call) methods."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("stvo.")):
                    continue
                layer = obj.__module__.split(".")[1]
                self._patch(mod, attr,
                            self.wrap(obj, f"{mod.__name__}.{attr}", layer))
        for cls, attr, on_call in methods:
            fn = getattr(cls, attr)
            name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            self._patch(cls, attr, self.wrap(fn, name, cls.__module__.split(".")[1],
                                             on_call))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays plus derived self time and phase root."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                               minlength=dur.size)
        root = np.arange(dur.size)
        has_parent = parent >= 0
        root[has_parent] = parent[has_parent]
        while True:
            up = parent[root]
            move = up >= 0
            if not move.any():
                break
            root[move] = up[move]
        return {"name": name, "parent": parent, "dur": dur,
                "self": dur - children, "root": root}

    def save(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name=a["name"], parent=a["parent"],
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
